"""Tracer unit tests: nesting, propagation, zero-cost disable, export."""

import json

import pytest

from repro.cluster import small_cluster
from repro.daos.oclass import S1
from repro.obs import chrome_trace, install, validate_chrome_trace
from repro.obs.tracer import NOOP_SPAN, Tracer, span_of
from repro.sim.core import Simulator


# ---------------------------------------------------------------- basics
def test_span_nesting_within_a_task():
    sim = Simulator()
    tracer, _ = install(sim)

    def work():
        with tracer.span("outer", "client", node="n0"):
            yield 1.0
            with tracer.span("inner", "rpc"):
                yield 0.5
        yield 0.25

    sim.run_until_complete(sim.spawn(work(), "w"))
    outer, inner = tracer.spans
    assert outer.name == "outer" and inner.name == "inner"
    assert inner.parent_id == outer.span_id
    assert inner.node == "n0"  # inherited from parent
    assert outer.start == 0.0 and outer.end == pytest.approx(1.5)
    assert inner.start == pytest.approx(1.0) and inner.end == pytest.approx(1.5)


def test_interleaved_tasks_do_not_cross_parent():
    """Two concurrent tasks each keep their own span stack."""
    sim = Simulator()
    tracer, _ = install(sim)

    def work(label, delay):
        with tracer.span(f"outer-{label}", "ior", node=label):
            yield delay
            with tracer.span(f"inner-{label}", "ior"):
                yield delay

    a = sim.spawn(work("a", 1.0), "a")
    b = sim.spawn(work("b", 1.5), "b")
    sim.run()
    assert a.done and b.done
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner-a"].parent_id == by_name["outer-a"].span_id
    assert by_name["inner-b"].parent_id == by_name["outer-b"].span_id


# ---------------------------------------------------- client→engine round trip
def test_spans_nest_across_client_engine_round_trip():
    """A KV put produces the full parent chain: client span → server rpc
    span (via trace_ctx propagation) → engine service span; plus fabric
    message events hanging off the client span."""
    cluster = small_cluster(server_nodes=2, client_nodes=1)
    tracer, _ = cluster.observe()

    client = cluster.new_client()

    def workload():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("c0", oclass="S1")
        oid = yield from cont.alloc_oid(S1)
        obj = cont.open_object(oid)
        yield from obj.put(b"dkey", b"akey", b"value")
        obj.close()

    cluster.run(workload())
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    puts = by_name.get("client.kv_put", [])
    assert len(puts) == 1
    put = puts[0]
    assert put.layer == "client" and put.node == "client0"
    assert put.end is not None and put.end > put.start

    rpcs = [s for s in by_name.get("rpc.kv_update", [])]
    assert rpcs, "server-side rpc span missing"
    for rpc in rpcs:
        assert rpc.parent_id == put.span_id  # trace_ctx crossed the wire
        assert rpc.layer == "rpc"
        assert rpc.start >= put.start and rpc.end <= put.end + 1e-9

    # The engine opens its spans under the request's rpc span, so the rpc
    # span parents the credit wait and service spans and covers the
    # dispatch cost.
    rpc_by_id = {r.span_id: r for r in rpcs}
    overhead = cluster.daos.engines[0].server.dispatch_overhead
    for name in ("engine.credit_wait", "engine.service"):
        children = [
            s for s in by_name.get(name, []) if s.parent_id in rpc_by_id
        ]
        assert len(children) == len(rpcs), f"{name} not under rpc.kv_update"
        for child in children:
            rpc = rpc_by_id[child.parent_id]
            assert child.node == rpc.node
            assert child.start == rpc.start + overhead
            assert child.end <= rpc.end

    msgs = [s for s in tracer.spans if s.name == "fabric.msg"]
    assert any(m.parent_id == put.span_id for m in msgs)


# -------------------------------------------------------------- disabled path
def test_disabled_tracer_records_nothing():
    sim = Simulator()
    assert sim.tracer is None
    handle = span_of(sim, "x", "client", "n0", nbytes=1)
    assert handle is NOOP_SPAN
    with handle as span:
        assert span is None
    assert sim.tracer is None

    tracer, _ = install(sim)
    with span_of(sim, "x", "client", "n0", nbytes=1) as span:
        assert (span.name, span.layer, span.node) == ("x", "client", "n0")
        assert span.attrs == {"nbytes": 1}
    assert tracer.spans == [span]


def test_untraced_cluster_adds_zero_events():
    cluster = small_cluster(server_nodes=2, client_nodes=1)
    client = cluster.new_client()

    def workload():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("c0", oclass="S1")
        oid = yield from cont.alloc_oid(S1)
        obj = cont.open_object(oid)
        yield from obj.put(b"k", b"a", b"v")
        obj.close()

    cluster.run(workload())
    assert cluster.sim.tracer is None


# ------------------------------------------------------------- chrome export
def test_trace_json_round_trips_with_monotonic_timestamps():
    cluster = small_cluster(server_nodes=2, client_nodes=1)
    tracer, _ = cluster.observe()
    client = cluster.new_client()

    def workload():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("c0", oclass="S1")
        oid = yield from cont.alloc_oid(S1)
        obj = cont.open_object(oid)
        for i in range(4):
            yield from obj.put(f"k{i}".encode(), b"a", b"v")
            yield from obj.get(f"k{i}".encode(), b"a")
        obj.close()

    cluster.run(workload())
    doc = chrome_trace(tracer)
    blob = json.dumps(doc)
    parsed = json.loads(blob)
    assert parsed == doc
    assert validate_chrome_trace(parsed) == []

    data_events = [e for e in parsed["traceEvents"] if e["ph"] != "M"]
    assert data_events
    timestamps = [e["ts"] for e in data_events]
    assert timestamps == sorted(timestamps)
    assert all(ts >= 0 for ts in timestamps)
    # one pid per node with a metadata record
    meta = [e for e in parsed["traceEvents"] if e["ph"] == "M"
            and e["name"] == "process_name"]
    names = {e["args"]["name"] for e in meta}
    assert "client0" in names and any(n.startswith("server") for n in names)


def test_validate_catches_malformed_documents():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({}) != []
    assert validate_chrome_trace({"traceEvents": [{"ph": "Q"}]}) != []
    bad_ts = {"traceEvents": [
        {"name": "a", "ph": "X", "ts": -1.0, "dur": 1.0, "pid": 1, "tid": 0},
    ]}
    assert validate_chrome_trace(bad_ts) != []
    out_of_order = {"traceEvents": [
        {"name": "a", "ph": "X", "ts": 5.0, "dur": 1.0, "pid": 1, "tid": 0},
        {"name": "b", "ph": "X", "ts": 1.0, "dur": 1.0, "pid": 1, "tid": 0},
    ]}
    assert validate_chrome_trace(out_of_order) != []


def test_install_is_idempotent():
    sim = Simulator()
    t1, m1 = install(sim)
    t2, m2 = install(sim)
    assert t1 is t2 and m1 is m2
    assert isinstance(t1, Tracer)
