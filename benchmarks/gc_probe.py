"""Cyclic-collector probe: collections and seconds per generation, per cell.

Each workload of ``benchmarks/e2e/workloads.py`` runs in a fresh
interpreter with ``PYTHONHASHSEED=0``: ``workloads.build(w, seed)``
(imported read-only), then ``gc.collect()``, then every cell's ``call``
under a ``gc.callbacks`` hook that times each collection. Per cell the
probe prints the exact work counters beside the collector numbers:

- ``sim._seq`` (heap pushes), ``network.reallocations`` and
  ``network.solved_flows``, which a host-side change must leave equal;
- ``sim._next_tid``: the tasks the cell spawned;
- collections and collector seconds in generations 0, 1 and 2, and the
  objects they freed;
- the cell's wall seconds, of which the collector seconds are a part;
- the interpreter's RSS high-water mark after the cell (``ru_maxrss``,
  MiB), so a peak-memory figure can be traced to the cell that set it;
- the cell's teardown: the objects one ``gc.collect()`` frees after the
  cell (and with it the cluster its ``call`` closure holds) is dropped.
  That collection is outside every cell's counts, so the next cell's
  ``freed`` is its own garbage, not the previous cluster's.

Per workload it then prints a second peak RSS, from one timed rep of
``benchmarks/e2e/run.py``'s contract form: every module imported, the
cells built up front, each dropped after use, no collection in
between. A ``peak_rss_mib`` move that the probe's collected peak does
not share is collector timing, not live data.

Collection counts depend on the Python version, which the header names.

Usage::

    python benchmarks/gc_probe.py [--seed N] [--workload W ...]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
E2E = os.path.join(HERE, "e2e")
WORKLOADS = ("fig1_fpp_dfs", "ior_interfaces", "tenants_open_loop",
             "fdb_fields")


def child_main(workload: str, seed: int) -> None:
    """Run ``workload`` once; print one JSON line per cell."""
    sys.path[:0] = [SRC, E2E]
    import workloads

    cells = workloads.build(workload, seed)
    cells.reverse()  # pop() from the front, dropping each cluster after use
    gc.collect()
    counts = [0, 0, 0]
    seconds = [0.0, 0.0, 0.0]
    freed = [0]
    started = [0.0]

    def hook(phase, info):
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            gen = info["generation"]
            counts[gen] += 1
            seconds[gen] += time.perf_counter() - started[0]
            freed[0] += info["collected"]

    gc.callbacks.append(hook)
    while cells:
        cell = cells.pop()
        counts[:], seconds[:], freed[0] = [0, 0, 0], [0.0, 0.0, 0.0], 0
        t0 = time.perf_counter()
        _model, _attempted, _failed, cluster = cell.call()
        wall = time.perf_counter() - t0
        net = cluster.fabric.flownet
        maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        row = {
            "cell": cell.id, "seq": cluster.sim._seq,
            "tasks": cluster.sim._next_tid,
            "reallocations": net.reallocations,
            "solved_flows": net.solved_flows,
            "collections": list(counts), "gc_s": list(seconds),
            "freed": freed[0], "wall_s": wall,
            "maxrss_mib": maxrss_kib / 1024,  # ru_maxrss is KiB on Linux
        }
        del cell, cluster, net
        row["teardown"] = gc.collect()
        print(json.dumps(row), flush=True)


def contract_peak(workload: str, seed: int) -> float:
    """Peak RSS (MiB) of one timed contract-form rep of ``workload``."""
    if E2E not in sys.path:
        sys.path.insert(0, E2E)
    import run  # benchmarks/e2e/run.py, imported read-only

    return run.spawn_child(workload, seed)["peak_rss_mib"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=7)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child_main(args.child, args.seed)
        return 0
    print(f"# gc probe, seed {args.seed}, Python {sys.version.split()[0]}")
    print(f"{'cell':<40} {'sim._seq':>9} {'tasks':>7}"
          f" {'realloc':>7} {'solved':>8}"
          f" {'gen0/1/2':>14} {'gc s (0/1/2)':>20} {'freed':>7} {'wall s':>7}"
          f" {'maxrss MiB':>10} {'teardown':>8}")
    env = dict(os.environ, PYTHONHASHSEED="0")
    for workload in args.workload or WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", workload,
             "--seed", str(args.seed)],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
        total = [0, 0, 0]
        seq = tasks = 0
        gc_s = 0.0
        wall = 0.0
        peak = 0.0
        for line in out.splitlines():
            row = json.loads(line)
            gens = "/".join(str(c) for c in row["collections"])
            secs = "/".join(f"{s:.2f}" for s in row["gc_s"])
            print(f"{workload + ':' + row['cell']:<40} {row['seq']:>9}"
                  f" {row['tasks']:>7}"
                  f" {row['reallocations']:>7} {row['solved_flows']:>8}"
                  f" {gens:>14} {secs:>20} {row['freed']:>7}"
                  f" {row['wall_s']:>7.2f} {row['maxrss_mib']:>10.2f}"
                  f" {row['teardown']:>8}")
            total = [t + c for t, c in zip(total, row["collections"])]
            seq += row["seq"]
            tasks += row["tasks"]
            gc_s += sum(row["gc_s"])
            wall += row["wall_s"]
            peak = max(peak, row["maxrss_mib"])
        print(f"{workload + ' total':<40} {seq:>9} {tasks:>7} {'':>7}"
              f" {'':>8}"
              f" {'/'.join(map(str, total)):>14} {gc_s:>20.2f} {'':>7}"
              f" {wall:>7.2f} {peak:>10.2f}")
        print(f"{workload + ' uncollected':<40} {'':>86}"
              f" {contract_peak(workload, args.seed):>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
