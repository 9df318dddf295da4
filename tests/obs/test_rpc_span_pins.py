"""Span and metric pins for traced, metered reduced-scale IOR runs.

Each run records every span as ``(name, parent name, node, start.hex(),
end.hex(), attrs)`` in the order the spans were opened, and the metrics
snapshot. Their digests pin where the server side of every RPC hangs in
the trace (``rpc.<op>``, ``engine.credit_wait``, ``engine.service`` and
the reply's ``fabric.msg``) and what the engine meters
(``engine.target.inflight``, ``engine.rpcs``,
``engine.service.latency``), so a refactor of how an RPC is served
passes only if it keeps their ids, parents, nodes, times and attributes.
The runs are the DFS file-per-process and the HDF5-DAOS queue-depth-4
runs of ``tests/network/test_event_stream_pins.py``.
"""

import hashlib
import json

import pytest

from repro.cluster import small_cluster
from repro.ior import IorParams, run_ior
from repro.units import MiB

PARAMS = {
    "dfs-fpp": dict(api="DFS", file_per_proc=True),
    "hdf5-daos-shared-q4": dict(api="HDF5-DAOS", aio_queue_depth=4),
}

#: name -> (spans, sha256 of the span records, sha256 of the snapshot)
PINS = {
    "dfs-fpp": (
        584,
        "741c6e609d6e27346edcbebf0b375ca56227dba5dbc6946d858f739397278cf2",
        "51c0314d17f3044eec313f3ebcb0f272decb7e779a40273842cab66fa113aff3"),
    "hdf5-daos-shared-q4": (
        940,
        "81cf9b1dde3bade13ba05493052e463db59016cadf9b4202a14a928e44d6f43e",
        "f3921af3e39a0253a46d4f50dfd95f92cb3f931a3f3b0b9c2c275abb1646bee5"),
}

#: name -> (rank, local target, high-water mark) of the busiest target
BUSIEST = {
    "dfs-fpp": (0, 0, 4),
    "hdf5-daos-shared-q4": (3, 1, 16),
}


def _observed_run(name):
    cluster = small_cluster(server_nodes=2, client_nodes=1)
    tracer, registry = cluster.observe()
    params = IorParams(block_size=4 * MiB, transfer_size=MiB, **PARAMS[name])
    run_ior(cluster, params, ppn=4)
    return cluster, tracer, registry


def _records(tracer):
    """One record per span, attributes verbatim: a client's name counts
    per run, so a ``src`` is the same in every run of one seed."""
    by_id = {span.span_id: span for span in tracer.spans}
    return [(
        span.name,
        by_id[span.parent_id].name if span.parent_id else None,
        span.node,
        span.start.hex(),
        None if span.end is None else span.end.hex(),
        sorted(span.attrs.items()),
    ) for span in tracer.spans]


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.fixture(scope="module", params=list(PARAMS))
def observed(request):
    return request.param, *_observed_run(request.param)


def test_span_records_and_metrics_are_pinned(observed):
    name, _cluster, tracer, registry = observed
    snapshot = json.dumps(registry.snapshot(), sort_keys=True)
    got = (len(tracer.spans), _digest(_records(tracer)), _digest(snapshot))
    assert got == PINS[name]


def test_two_requests_share_an_engine_target(observed):
    """The pins cover concurrent service: the busiest target's inflight
    gauge peaks above 1, and as many ``engine.service`` spans on its node
    and local target are open at one instant."""
    name, cluster, tracer, registry = observed
    busiest = max(
        (gauge.vmax, key) for key, gauge in registry.gauges.items()
        if key.startswith("engine.target.inflight")
    )
    rank, tid, peak = BUSIEST[name]
    assert busiest == (
        peak, f"engine.target.inflight{{rank={rank},target={tid}}}")
    assert peak > 1
    node = cluster.daos.engines[rank].slot.node.name
    edges = []
    for span in tracer.spans:
        if (span.name == "engine.service" and span.node == node
                and span.attrs["tid"] == tid):
            edges += [(span.start, 1), (span.end, -1)]
    edges.sort()  # a span that ends as another opens does not overlap it
    depth = most = 0
    for _time, step in edges:
        depth += step
        most = max(most, depth)
    assert most >= peak
