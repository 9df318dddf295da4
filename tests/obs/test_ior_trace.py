"""Acceptance: traced IOR runs produce complete span trees, per-layer
breakdowns that account for the measured wall time, and a valid Chrome
trace through the CLI."""

import json

import pytest

from repro.cluster import small_cluster
from repro.ior import IorParams, run_ior
from repro.ior.cli import main as ior_main
from repro.obs import validate_chrome_trace
from repro.obs.breakdown import WAIT_KEY
from repro.units import KiB


SMALL = dict(block_size=256 * KiB, transfer_size=64 * KiB)


@pytest.fixture()
def traced_run():
    cluster = small_cluster(server_nodes=2, client_nodes=1)
    tracer, metrics = cluster.observe()
    params = IorParams(api="DFS", file_per_proc=True, oclass="SX", **SMALL)
    result = run_ior(cluster, params, ppn=2)
    return cluster, tracer, metrics, result


def _descendants(tracer, root):
    """All spans transitively below ``root``."""
    children = {}
    for span in tracer.spans:
        children.setdefault(span.parent_id, []).append(span)
    out, frontier = [], [root.span_id]
    while frontier:
        batch = children.get(frontier.pop(), [])
        out.extend(batch)
        frontier.extend(s.span_id for s in batch)
    return out


def test_every_write_span_reaches_fabric_and_engine(traced_run):
    _, tracer, _, _ = traced_run
    writes = [s for s in tracer.spans if s.name == "ior.write"]
    assert writes, "no ior.write spans recorded"
    for w in writes:
        below = _descendants(tracer, w)
        layers = {s.layer for s in below}
        assert any(s.name == "fabric.flow" for s in below), (
            f"write span {w.span_id} has no fabric flow descendant"
        )
        assert layers & {"engine", "vos"}, (
            f"write span {w.span_id} never reached the engine side"
        )


def test_layer_breakdown_accounts_for_wall_time(traced_run):
    _, _, _, result = traced_run
    for phase in result.phases:
        assert phase.layer_seconds, f"{phase.op} phase missing breakdown"
        total = sum(phase.layer_seconds.values())
        assert total == pytest.approx(phase.seconds, rel=0.01)
        assert WAIT_KEY in phase.layer_seconds
        assert all(v >= 0 for v in phase.layer_seconds.values())
        # the traced IOR layer itself must appear
        assert "ior" in phase.layer_seconds


def test_latency_percentiles_per_rank(traced_run):
    _, _, _, result = traced_run
    assert result.latency
    ops = {e.op for e in result.latency}
    assert ops == {"write", "read"}
    for entry in result.latency:
        assert entry.count > 0
        assert 0 < entry.p50 <= entry.p95 <= entry.p99
    # one row per (rank, op)
    keys = [(e.op, e.rank) for e in result.latency]
    assert len(keys) == len(set(keys))


def test_summary_prints_breakdown_and_latency_table(traced_run):
    _, _, _, result = traced_run
    text = result.summary()
    assert "per-layer breakdown (per-rank seconds):" in text
    assert "per-rank op latency:" in text
    assert WAIT_KEY in text


def test_tracing_does_not_change_results():
    params = IorParams(api="DFS", file_per_proc=True, oclass="SX", **SMALL)

    def bw(observe):
        cluster = small_cluster(server_nodes=2, client_nodes=1)
        if observe:
            cluster.observe()
        result = run_ior(cluster, params, ppn=2)
        return result.max_write_bw, result.max_read_bw

    assert bw(False) == bw(True)


def test_a_second_run_in_one_process_names_things_the_same():
    """Client and container names count per run, not per process, so
    an identical second run records identical spans, ``src`` (the
    calling client's name) verbatim."""
    params = IorParams(api="DFS", file_per_proc=True, oclass="SX", **SMALL)

    def records():
        cluster = small_cluster(server_nodes=2, client_nodes=1)
        tracer, _metrics = cluster.observe()
        run_ior(cluster, params, ppn=2)
        return [(s.span_id, s.parent_id, s.name, s.node, s.start, s.end,
                 s.attrs) for s in tracer.spans]

    first = records()
    assert any("src" in attrs for *_, attrs in first)
    assert records() == first


def test_cli_trace_out_writes_valid_chrome_trace(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    code = ior_main([
        "-a", "DFS", "-F", "-b", "2m", "-t", "256k",
        "-N", "1", "--ppn", "2", "--servers", "2", "-O", "oclass=S2",
        "--trace-out", str(trace), "--metrics-out", str(metrics),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Max Write" in out
    assert "per-layer breakdown" in out

    doc = json.loads(trace.read_text())
    assert validate_chrome_trace(doc) == []
    names = {e["name"] for e in doc["traceEvents"]}
    assert {"ior.write", "fabric.msg", "engine.service"} <= names

    snap = json.loads(metrics.read_text())
    assert snap["counters"]["fabric.msgs.delivered"] > 0
    assert any(
        n.startswith("ior.write.latency{rank=") for n in snap["histograms"]
    )
