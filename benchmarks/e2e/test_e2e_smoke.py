"""Smoke tests of the benchmark driver itself (not collected by tier-1;
run with ``python -m pytest benchmarks/e2e -q``).

They hold the driver to its own rules: every source package belongs to
exactly one layer, every name is contract-safe, a result validates
against the driver's schema, exact counters repeat run to run, and
``--compare`` gates what it says it gates.
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REPRO = os.path.join(run.SRC, "repro")


def _benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _entries(path):
    return sorted(n for n in os.listdir(path) if n != "__pycache__")


def test_every_source_package_maps_to_one_layer():
    # a new package (or daos module) must be given a layer here first
    assert _entries(REPRO) == sorted(layers.PACKAGE_LAYER)
    assert _entries(os.path.join(REPRO, "daos")) == sorted(layers.DAOS_LAYER)
    for name in layers.PACKAGE_LAYER:
        parts = [name, "client.py"] if name == "daos" else [name]
        assert layers.layer_of_parts(parts) in layers.LAYERS


def test_counted_functions_exist():
    assert set(layers.function_counter_codes().values()) == set(
        layers.FUNCTION_COUNTERS.values())


def test_benchmark_json_names_and_metric_sets():
    bench = _benchmark_json()
    assert bench["paths"] == ["benchmarks/e2e"]
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY
    assert tuple(workloads.WHY) == workloads.WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == [
        (name,) + run.END_TO_END[name][:3]
        for name in run.CONTRACT_END_TO_END]
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in bench[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert run.NAME_RE.match(name), name
    # the per-layer list is exactly what a traced run emits
    expected = {f"{layer}.{suffix}" for layer in layers.LAYERS
                for suffix in ("self_s", "calls", "calls_in")}
    expected |= set(layers.FUNCTION_COUNTERS.values()) | set(run.DERIVED)
    assert {m["name"] for m in bench["per_layer"]} == expected


def test_pinned_figure_point_matches_bench_flows():
    # the 16 x 16 SX cell is BENCH_flows.json's figure point, bit for bit
    with open(os.path.join(run.ROOT, "benchmarks", "BENCH_flows.json")) as fh:
        point = json.load(fh)["figure_point"]["incremental"]
    pins = run.load_pins()["fig1_fpp_dfs"]
    assert pins["n16.SX.write_bw"] == point["write_bw"]
    assert pins["n16.SX.read_bw"] == point["read_bw"]
    assert pins["n16.SX.reallocations"] == point["reallocations"]
    assert pins["n16.SX.solved_flows"] == point["solved_flows"]


@pytest.fixture(scope="module")
def tiny_runs():
    """fig1_fpp_dfs at check scale: two plain and two profiled children."""
    spawn = lambda traced: run.spawn_child(  # noqa: E731
        "fig1_fpp_dfs", workloads.PINNED_SEED, traced=traced, check=True)
    return {"plain": [spawn(False), spawn(False)],
            "traced": [spawn(True), spawn(True)]}


def _exact(record):
    table = record["layers"]
    return ({name: (row["calls"], row["calls_in"])
             for name, row in table["layers"].items()}, table["counters"])


def test_exact_counters_repeat(tiny_runs):
    a, b = tiny_runs["traced"]
    assert _exact(a) == _exact(b)
    assert run.model_of(a) == run.model_of(b) == run.model_of(
        tiny_runs["plain"][0])
    counters = a["layers"]["counters"]
    assert counters["sim.schedule_calls"] > counters["sim.spawns"] > 0
    # every profiled second is charged to exactly one layer
    total = sum(row["self_s"] for row in a["layers"]["layers"].values())
    assert total == pytest.approx(a["layers"]["profiled_s"], rel=1e-9)


@pytest.fixture(scope="module")
def tiny_doc(tiny_runs):
    """A full-run result document holding the one tiny workload."""
    result = run.assemble(
        "fig1_fpp_dfs", tiny_runs["plain"], check=tiny_runs["plain"][0],
        trace=tiny_runs["traced"][0], pin=None)
    return {"schema": run.SCHEMA,
            "provenance": run.provenance(workloads.PINNED_SEED, []),
            "workloads": {"fig1_fpp_dfs": result}}


def test_result_validates_against_schema(tiny_doc):
    result = tiny_doc["workloads"]["fig1_fpp_dfs"]
    assert result["correct"], result
    assert set(result["per_layer"]) == {
        m["name"] for m in _benchmark_json()["per_layer"]}
    assert run.validate_result(tiny_doc) == []
    broken = copy.deepcopy(tiny_doc)
    del broken["workloads"]["fig1_fpp_dfs"]["end_to_end"]["wall_s"]
    assert run.validate_result(broken)


def test_compare_gates_bounds_and_exact_counters(tiny_doc, tmp_path, capsys):
    base = copy.deepcopy(tiny_doc)
    # two tiny reps can differ by more than the bound; the verdicts under
    # test must not depend on that
    wall = base["workloads"]["fig1_fpp_dfs"]["end_to_end"]["wall_s"]
    wall["q1"] = wall["q3"] = wall["value"]

    def compare(edit):
        other = copy.deepcopy(base)
        edit(other["workloads"]["fig1_fpp_dfs"])
        paths = [str(tmp_path / name) for name in ("a.json", "b.json")]
        for path, doc in zip(paths, (base, other)):
            with open(path, "w") as fh:
                json.dump(doc, fh)
        code = run.compare(*paths)
        return code, capsys.readouterr().out

    code, out = compare(lambda result: None)
    assert code == 0 and "compare: ok" in out
    assert "wall_s[n16.SX]" in out  # per-cell rows are reported

    def one_more_spawn(result):
        result["per_layer"]["sim.spawns"]["value"] += 1
    code, out = compare(one_more_spawn)
    assert code == 1 and "sim.spawns: exact counter differs" in out

    def host_time_moved(result):  # a host time is not an exact counter
        result["per_layer"]["sim.self_s"]["value"] *= 2
    assert compare(host_time_moved)[0] == 0

    bound = run.END_TO_END["wall_s"][2]

    def scale_wall(factor):
        def edit(result):
            for key in ("value", "q1", "q3"):
                result["end_to_end"]["wall_s"][key] *= factor
        return edit
    code, out = compare(scale_wall(1 + 2 * bound))
    assert code == 1 and "WORSE" in out
    code, out = compare(scale_wall(1 - 2 * bound))
    assert code == 0 and "better" in out
    code, out = compare(scale_wall(1 + bound / 2))
    assert code == 0 and "WORSE" not in out

    def wide_spread(result):
        wall = result["end_to_end"]["wall_s"]
        wall["q1"], wall["q3"] = 0.0, 3 * wall["value"]
    code, out = compare(wide_spread)
    assert code == 0 and "unresolved" in out

    def model_moved(result):
        result["model"]["n8.SX.write_bw"] *= 1.0000001
    code, out = compare(model_moved)
    assert code == 1 and "modelled outputs differ" in out
