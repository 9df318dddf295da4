"""Benchmark configuration.

Default scale keeps ``pytest benchmarks/ --benchmark-only`` in minutes:
node counts (1, 4), 16 MiB blocks. Set ``REPRO_BENCH_FULL=1`` for the
paper-scale sweep (1..16 nodes, 64 MiB blocks) used to fill
EXPERIMENTS.md — or run ``python benchmarks/run_figures.py --full``.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import pytest

FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"

# the quick sweep includes 8 nodes: the S2->SX write crossover regime
NODE_COUNTS = (1, 2, 4, 8, 16) if FULL else (1, 8)
BLOCK = "64m" if FULL else "16m"
PPN = 16


@pytest.fixture(scope="session")
def bench_scale():
    return {"node_counts": NODE_COUNTS, "block_size": BLOCK, "ppn": PPN}


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


# -- seeded sweep artifacts (bench_tenants / bench_fdb / bench_hdf5) ---------


def strip_wall(doc):
    """``doc`` minus every ``wall_seconds`` key at any depth. Wall time
    is the one machine-dependent field the sweeps record, so this is the
    projection the double-run ``cmp`` gates (``make bench-*``) compare."""
    if isinstance(doc, dict):
        return {k: strip_wall(v) for k, v in doc.items()
                if k != "wall_seconds"}
    if isinstance(doc, (list, tuple)):
        return [strip_wall(v) for v in doc]
    return doc


def write_artifact(run_sweep, description: str, default_out: str, argv=None):
    """The command line the seeded sweep scripts share: run
    ``run_sweep()``, write its document to ``--out`` and, when asked,
    the :func:`strip_wall` projection to ``--stable-out``. Returns
    ``(document, out path)`` for the caller's summary lines."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--out", default=default_out)
    parser.add_argument(
        "--stable-out", default=None,
        help="also write the machine-independent projection (the "
             "determinism-gate bytes) to this path",
    )
    args = parser.parse_args(argv)
    doc = run_sweep()
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    for path, body in ((args.out, doc), (args.stable_out, strip_wall(doc))):
        if path:
            with open(path, "w") as fh:
                json.dump(body, fh, sort_keys=True, indent=2)
                fh.write("\n")
    return doc, args.out


# -- flow-solver perf gate (bench_flows.py / make bench-flows) ---------------

#: committed baseline artifact; regenerate with
#:   python benchmarks/bench_flows.py --out benchmarks/BENCH_flows.json
FLOWS_BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "BENCH_flows.json"
)

#: fail the gate when normalized shipped-allocator ops/sec drops more
#: than this fraction below the committed baseline
FLOWS_REGRESSION_THRESHOLD = 0.20


def load_flows_baseline(path: str = FLOWS_BASELINE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_flows_regression(current: dict, baseline: dict) -> list:
    """Compare a fresh bench_flows run against the committed baseline.

    Raw ops/sec is machine-dependent, so the gate compares each
    scenario's incremental/reference *speedup ratio* ("incremental" is
    the shipped allocator, "reference" the oracle in
    ``tests/network/oracle.py``): the oracle is frozen by definition
    (its arithmetic may never change), which makes it a workload-matched
    calibrator measured on the same machine seconds apart.  A drop in
    the ratio means the shipped allocator itself got slower.  Returns a list of
    human-readable failure strings (empty = gate passed).
    """
    failures = []
    floor = 1.0 - FLOWS_REGRESSION_THRESHOLD
    for name, base_cell in baseline["scenarios"].items():
        cur_cell = current["scenarios"].get(name)
        if cur_cell is None:
            failures.append(f"scenario {name!r} missing from current run")
            continue
        base_ratio = base_cell["speedup"]
        cur_ratio = cur_cell["speedup"]
        if cur_ratio < base_ratio * floor:
            failures.append(
                f"scenario {name!r}: incremental/reference ops ratio "
                f"{cur_ratio:.2f}x is below {floor:.0%} of baseline "
                f"{base_ratio:.2f}x"
            )
    point = current.get("figure_point", {})
    if not point.get("byte_identical", False):
        failures.append("figure point: allocators no longer byte-identical")
    # solver_speedup is a same-machine ratio; 4x is the acceptance floor
    # (>= 5x) minus CI-noise margin
    if point.get("solver_speedup", 0.0) < 4.0:
        failures.append(
            f"figure point: solver speedup {point.get('solver_speedup')}x "
            "fell below the 4x floor"
        )
    return failures
