"""Flow-solver throughput bench — the repo's first pinned BENCH_*.json.

Two layers:

- *Solver churn scenarios*: scripted, seeded sequences of flow open /
  close / ``set_cap`` / ``set_link_capacity`` mutations on synthetic
  topologies shaped like the workloads we care about (the bipartite
  client-NIC x target pattern of the IOR figures, striped flows, and
  disjoint islands where component skipping shines).  Reported as
  solver ops/sec: mutations divided by the wall-clock seconds spent
  inside ``FlowNetwork._reallocate``.
- *Figure point*: the 16-node x 16-ppn fig-1 DFS point end to end under
  both allocators — wall time, solver seconds, the solver speedup (the
  acceptance criterion: >= 5x), and byte-identity of the bandwidths.

The two sides are the shipped ``MaxMinAllocator`` ("incremental") and
the global-solve oracle from ``tests/network/oracle.py`` ("reference"),
injected through ``FlowNetwork(sim, allocator=...)``.

``python benchmarks/bench_flows.py`` writes ``artifacts/BENCH_flows.json``;
``--check`` (``make bench-flows``) additionally compares against the
committed baseline ``benchmarks/BENCH_flows.json`` and exits nonzero on
a >20% ops/sec regression (see :func:`check_flows_regression`).  To move
the baseline, copy the artifact over it.  Raw ops/sec is
machine-dependent, so the gate compares incremental/reference speedup
ratios — the frozen oracle doubles as a workload-matched machine
calibrator.  A generic machine-speed calibration timing is still
recorded per scenario for human cross-machine reading of the absolute
numbers.
"""

import argparse
import contextlib
import json
import os
import random
import sys
import time

import numpy as np

# the oracle lives with the tests that use it as their reference
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.cluster import nextgenio
from repro.ior import IorParams, run_ior
from repro.network.flows import FlowNetwork
from repro.sim import Simulator
from tests.network.oracle import ReferenceAllocator, reference_allocator

SOLVERS = ("reference", "incremental")

#: mutations per churn scenario measurement
N_OPS = 2000

OUT_PATH = "artifacts/BENCH_flows.json"
BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "BENCH_flows.json")

#: fail the gate when normalized shipped-allocator ops/sec drops more
#: than this fraction below the committed baseline
REGRESSION_THRESHOLD = 0.20


def calibrate(trials: int = 5) -> float:
    """Seconds for a fixed python+numpy workload: the machine-speed unit.

    ops/sec x calibration_seconds is machine-invariant (up to noise), so
    baselines recorded on one machine can gate runs on another.  Best of
    ``trials`` — the minimum is the standard robust timing estimator and
    discards cold-start effects (allocator, numpy dispatch caches).
    """
    def one() -> float:
        t0 = time.perf_counter()
        acc = 0.0
        arr = np.arange(4096, dtype=float)
        for i in range(400):
            acc += float((arr * 1.0001 + i).sum())
            acc += sum(divmod(i * 7919, 97))
        assert acc != 0.0
        return time.perf_counter() - t0

    return min(one() for _ in range(trials))


# -- churn scenarios ---------------------------------------------------------


def topo_bipartite(net, rng):
    """16 client NICs x 32 storage targets — the figure-sweep shape."""
    nics = [net.add_link(f"nic{i}", 1e10) for i in range(16)]
    tgts = [net.add_link(f"tgt{i}", 3e9) for i in range(32)]

    def maker():
        return [(rng.choice(nics), 1.0), (rng.choice(tgts), 1.0)]

    return maker


def topo_striped(net, rng):
    """Flows striped over 4 of 32 targets plus a NIC (fractional weights)."""
    nics = [net.add_link(f"nic{i}", 1e10) for i in range(8)]
    tgts = [net.add_link(f"tgt{i}", 3e9) for i in range(32)]

    def maker():
        chosen = rng.sample(tgts, 4)
        return [(rng.choice(nics), 1.0)] + [(t, 0.25) for t in chosen]

    return maker


def topo_islands(net, rng):
    """16 disjoint 2-link islands: mutations touch one island at a time,
    the shipped allocator's best case (tiny components)."""
    islands = [
        (net.add_link(f"i{i}a", 1e10), net.add_link(f"i{i}b", 3e9))
        for i in range(16)
    ]

    def maker():
        a, b = rng.choice(islands)
        return [(a, 1.0), (b, 1.0)]

    return maker


SCENARIOS = {
    "bipartite": topo_bipartite,
    "striped": topo_striped,
    "islands": topo_islands,
}


def _churn_once(solver: str, scenario: str, n_ops: int = N_OPS) -> float:
    """Run the scripted mutation sequence once; return mutations per
    solver second.  Seeded: every call performs the identical ops."""
    rng = random.Random(0xF105)
    sim = Simulator()
    net = FlowNetwork(
        sim, allocator=ReferenceAllocator() if solver == "reference" else None
    )
    maker = SCENARIOS[scenario](net, rng)
    flows = []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.5 or not flows:
            flows.append(net.open(maker(), cap=rng.uniform(1e8, 1e10)))
        elif roll < 0.75:
            net.close(flows.pop(rng.randrange(len(flows))))
        else:
            flows[rng.randrange(len(flows))].set_cap(rng.uniform(1e8, 1e10))
    assert net.reallocations == n_ops
    return n_ops / net.solver_seconds


def churn_pair(scenario: str, n_ops: int = N_OPS, trials: int = 3) -> dict:
    """Interleaved incremental/reference trials for one scenario.

    The speedup ratio is taken per interleaved pair (so slow drifting
    machine load hits both sides alike) and reported as the median
    across trials (so a single background-load spike cannot corrupt
    the gate figure).  ops/sec cells report the best trial.
    """
    inc_best = ref_best = 0.0
    ratios = []
    for _ in range(trials):
        inc = _churn_once("incremental", scenario, n_ops)
        ref = _churn_once("reference", scenario, n_ops)
        ratios.append(inc / ref)
        inc_best = max(inc_best, inc)
        ref_best = max(ref_best, ref)
    ratios.sort()
    return {
        "incremental": {"ops_per_sec": round(inc_best, 1)},
        "reference": {"ops_per_sec": round(ref_best, 1)},
        "speedup": round(ratios[len(ratios) // 2], 2),
    }


def run_figure_point(solver: str):
    """The 16x16 quick-scale fig-1 DFS FPP point under ``solver``."""
    with (reference_allocator() if solver == "reference"
          else contextlib.nullcontext()):
        cluster = nextgenio(client_nodes=16)
    params = IorParams(api="DFS", file_per_proc=True, interleaved=False,
                      oclass="SX", block_size="16m", transfer_size="1m")
    t0 = time.perf_counter()
    result = run_ior(cluster, params, ppn=16)
    wall = time.perf_counter() - t0
    flownet = cluster.fabric.flownet
    return {
        "wall_seconds": round(wall, 4),
        "solver_seconds": round(flownet.solver_seconds, 4),
        "reallocations": flownet.reallocations,
        "solved_flows": flownet.solved_flows,
        "write_bw": result.max_write_bw,
        "read_bw": result.max_read_bw,
    }


def collect() -> dict:
    out = {
        "schema": "repro.bench.flows/1",
        "calibration_seconds": round(calibrate(), 4),
        "n_ops": N_OPS,
        "scenarios": {},
    }
    for scenario in sorted(SCENARIOS):
        # calibration re-timed adjacent to each scenario: the absolute
        # ops/sec numbers stay human-comparable across machines (the
        # regression gate itself uses the speedup ratio, not these)
        cell = {"calibration_seconds": round(calibrate(), 5)}
        cell.update(churn_pair(scenario))
        out["scenarios"][scenario] = cell
    point = {s: run_figure_point(s) for s in SOLVERS}
    point["solver_speedup"] = round(
        point["reference"]["solver_seconds"]
        / point["incremental"]["solver_seconds"], 2,
    )
    point["byte_identical"] = (
        point["reference"]["write_bw"] == point["incremental"]["write_bw"]
        and point["reference"]["read_bw"] == point["incremental"]["read_bw"]
    )
    point["nodes"], point["ppn"], point["block"] = 16, 16, "16m"
    out["figure_point"] = point
    return out


def check_flows_regression(current: dict, baseline: dict) -> list:
    """Compare a fresh run against the committed baseline.

    Each scenario is gated on its incremental/reference *speedup ratio*:
    the oracle's arithmetic may never change, which makes it a
    workload-matched calibrator measured on the same machine seconds
    apart, so a drop in the ratio means the shipped allocator itself got
    slower.  Returns human-readable failure strings (empty = passed).
    """
    failures = []
    floor = 1.0 - REGRESSION_THRESHOLD
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline "
                             "benchmarks/BENCH_flows.json; exit 1 on a "
                             ">20%% normalized ops/sec regression")
    args = parser.parse_args(argv)

    result = collect()
    os.makedirs(os.path.dirname(OUT_PATH), exist_ok=True)
    with open(OUT_PATH, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    point = result["figure_point"]
    print(f"wrote {OUT_PATH}", file=sys.stderr)
    print(f"figure point: solver speedup {point['solver_speedup']}x, "
          f"byte_identical={point['byte_identical']}", file=sys.stderr)

    if args.check:
        with open(BASELINE_PATH) as fh:
            failures = check_flows_regression(result, json.load(fh))
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("regression check passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
