"""End-to-end benchmark driver: host wall-time per workload, pinned
modelled figures, host time by layer.  README.md has the definitions.

Three ways in:

- the contract form, one workload per invocation, last stdout line is
  one JSON object::

      python3 benchmarks/e2e/run.py --workload fig1_fpp_dfs --seed 7 \
          --seconds 20 --trace 0

- the full run, all four workloads interleaved, one result file::

      python3 benchmarks/e2e/run.py --seed 0xDA05 --out result.json

- ``--repin`` (rewrite pins.json) and ``--compare A.json B.json``.

Every repetition runs in a fresh child interpreter (``--child``): in
one process a workload drifts slower as the heap grows.  Every number
is *host* (what the Python process costs) or *model* (what the
simulated DAOS reports); model numbers must stay bit-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
PINS_PATH = os.path.join(HERE, "pins.json")
OUT_DIR = os.path.join(HERE, "out")

SCHEMA = "repro.bench.e2e/1"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: end-to-end metrics: name -> (unit, better, relative bound, absolute
#: floor of the bound).  BENCHMARK.json lists the first three; the last
#: two are exactly 0 on a healthy tree, which the contract's
#: share-of-median bounds cannot express, so they gate ``correct``.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25, 0.0),
    "setup_s": ("s", "lower", 0.25, 0.15),
    "peak_rss_mib": ("MiB", "lower", 0.05, 0.0),
    "fail_ratio": ("ratio", "lower", 0.0, 0.0),
    "model_drift": ("ratio", "lower", 0.0, 0.0),
}
CONTRACT_END_TO_END = ("wall_s", "setup_s", "peak_rss_mib")

#: timed reps per workload: what the full run takes, and the floor under
#: ``--seconds`` in the contract form
FULL_REPS = 5
MIN_REPS = 3


# -- child: one repetition in a fresh interpreter ------------------------------


def child_main(workload: str, seed: int, traced: bool, check: bool) -> int:
    """Run every cell of ``workload`` once; print one JSON line.

    With neither flag this is a timed rep: the pinned-figure
    configuration, nothing on.  ``check`` runs the reduced-scale cells
    with verification on; ``traced`` profiles each timed region."""
    spawned = float(os.environ["E2E_SPAWNED"])
    clock0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import cProfile
    import pkgutil
    import resource

    import layers
    import repro
    import workloads

    # import every repro module now, so lazy imports inside the timed
    # region are sys.modules hits: their cost stays in setup_s and the
    # profile's call counts do not depend on the .pyc cache
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            __import__(info.name)
    counter_codes = layers.function_counter_codes()

    cells = workloads.build(workload, seed, check=check)
    cells.reverse()  # pop() from the front, dropping each cluster after use
    run_id = f"{workload}-{seed}-{os.getpid()}"
    spans = []

    def open_span(name, parent):
        span = {"id": len(spans), "name": name, "parent": parent,
                "run": run_id, "start": time.perf_counter() - clock0}
        spans.append(span)
        return span

    def close_span(span):
        span["end"] = time.perf_counter() - clock0

    out_cells = []
    tables = []
    setup_s = time.time() - spawned
    top = open_span(f"workload/{workload}", None)
    while cells:
        cell = cells.pop()
        cell_span = open_span(f"cell/{cell.id}", top["id"])
        call_span = open_span(f"call/{cell.public_fn}", cell_span["id"])
        profiler = cProfile.Profile() if traced else None
        # what a cell that raises is left with: it failed whole
        record = {"id": cell.id, "model": {}, "attempted": 1, "failed": 1,
                  "model_seconds": 0.0,
                  "net": {"reallocations": 0, "solved_flows": 0,
                          "solver_s": 0.0}}
        t0 = time.perf_counter()
        if profiler:
            profiler.enable()
        try:
            model, attempted, failed, cluster = cell.call()
            raised = None
        except Exception as exc:
            raised = exc
        if profiler:
            profiler.disable()
        record["wall_s"] = time.perf_counter() - t0
        close_span(call_span)
        if raised is not None:
            record["raised"] = repr(raised)
        else:
            net = cluster.fabric.flownet
            record.update(
                model=model, attempted=attempted, failed=failed,
                model_seconds=cluster.sim.now,
                net={"reallocations": net.reallocations,
                     "solved_flows": net.solved_flows,
                     "solver_s": net.solver_seconds},
            )
            if profiler:
                record["layers"] = layers.fold(profiler.getstats(),
                                               counter_codes)
                tables.append(record["layers"])
            del cluster
        del cell
        close_span(cell_span)
        out_cells.append(record)
    close_span(top)

    for span in spans:
        children = sum(s["end"] - s["start"] for s in spans
                       if s["parent"] == span["id"])
        span["self_s"] = span["end"] - span["start"] - children
    result = {
        "workload": workload, "seed": seed, "traced": traced, "check": check,
        "setup_s": setup_s,
        "wall_s": sum(c["wall_s"] for c in out_cells),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells": out_cells,
        "spans": spans,
    }
    if traced:
        result["layers"] = layers.merge(tables)
    print(json.dumps(result))
    return 0


def spawn_child(workload: str, seed: int, traced: bool = False,
                check: bool = False) -> dict:
    """One fresh single-threaded interpreter; returns its JSON record."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               E2E_SPAWNED=repr(time.time()))
    argv = [sys.executable, os.path.abspath(__file__), "--child", workload,
            "--seed", str(seed)]
    argv += ["--child-traced"] * traced + ["--child-check"] * check
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[3:]} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


# -- statistics ----------------------------------------------------------------


def summarize(values) -> dict:
    """n, min, quartiles, median, max of one metric's per-rep values."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "min": values[0], "q1": q1,
            "median": statistics.median(values), "q3": q3,
            "max": values[-1]}


#: drift reported when an output cannot be compared with its pin (a
#: missing key, a cell that raised, a pin of 0); finite so the result
#: stays valid JSON
INCOMPARABLE = 1e300


def rel_diff(got, pin) -> float:
    if got == pin:
        return 0.0
    if isinstance(got, str) or isinstance(pin, str) or pin == 0:
        return INCOMPARABLE
    return abs(got - pin) / abs(pin)


def model_of(record: dict) -> dict:
    """Flat ``cell.key -> value`` map of one rep's modelled outputs."""
    flat = {}
    for cell in record["cells"]:
        for key, value in cell["model"].items():
            flat[f"{cell['id']}.{key}"] = value
        flat[f"{cell['id']}.reallocations"] = cell["net"]["reallocations"]
        flat[f"{cell['id']}.solved_flows"] = cell["net"]["solved_flows"]
        if "raised" in cell:
            flat[f"{cell['id']}.raised"] = cell["raised"]
    return flat


def drift(got: dict, pin: dict) -> float:
    """max |got - pin| / |pin| over every pinned output."""
    if got.keys() != pin.keys():
        return INCOMPARABLE
    return max((rel_diff(got[k], pin[k]) for k in pin), default=0.0)


# -- measuring -----------------------------------------------------------------

#: per-layer metrics the driver derives beside the profile's layer table
#: and function counters: name -> (unit, better, exact).  Exact metrics
#: repeat run to run and ``--compare`` requires them identical; the rest
#: are host times or ratios over host times.
DERIVED = {
    "sim.model_seconds": ("s", "lower", True),
    "sim.events_per_wall_s": ("1/s", "higher", False),
    "network.reallocations": ("count", "lower", True),
    "network.solved_flows": ("count", "lower", True),
    "network.solver_s": ("s", "lower", False),
    "network.solver_share": ("ratio", "lower", False),
    "network.solved_flows_per_realloc": ("ratio", "lower", True),
    "bench.trace_overhead_ratio": ("ratio", "lower", False),
    "bench.model_drift": ("ratio", "lower", True),
    "bench.fail_ratio": ("ratio", "lower", True),
}


def is_exact(metric: str) -> bool:
    if metric in DERIVED:
        return DERIVED[metric][2]
    return not metric.endswith(".self_s")


def _ops(record: dict, key: str) -> int:
    return sum(cell[key] for cell in record["cells"])


def assemble(name: str, reps, check, trace, pin) -> dict:
    """One workload's result from its child records: timed ``reps``,
    the ``check`` record or None, the ``trace`` record or None, and the
    pinned modelled outputs (None on an unpinned seed)."""
    import workloads

    first = model_of(reps[0])
    # whole-process determinism gate: every fresh-process rep must agree
    # with the pin (or, on an unpinned seed, with the first rep)
    model_drift = max(drift(model_of(r), pin or first) for r in reps)
    counted = reps + ([check] if check else [])
    attempted = sum(_ops(r, "attempted") for r in counted)
    failed = sum(_ops(r, "failed") for r in counted)
    fail_ratio = failed / attempted

    end_to_end = {}
    for metric, (unit, better, bound, floor) in END_TO_END.items():
        if metric in reps[0]:
            stats = summarize([r[metric] for r in reps])
            value = stats["median"]
        else:
            value = fail_ratio if metric == "fail_ratio" else model_drift
            stats = {"n": len(reps)}
        end_to_end[metric] = {"value": value, "unit": unit, "better": better,
                              "bound": bound, "bound_floor": floor, **stats}

    result = {
        "why": workloads.WHY[name],
        "end_to_end": end_to_end,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and model_drift == 0.0,
        "model": first,
        "reps": [
            {"setup_s": r["setup_s"], "wall_s": r["wall_s"],
             "peak_rss_mib": r["peak_rss_mib"],
             "cells": {c["id"]: c["wall_s"] for c in r["cells"]}}
            for r in reps
        ],
    }
    if check:
        result["check"] = {
            c["id"]: {"attempted": c["attempted"], "failed": c["failed"],
                      "raised": c.get("raised")}
            for c in check["cells"]
        }
    if trace:
        if drift(model_of(trace), first) != 0.0:
            result["correct"] = False  # profiling changed the model
        result["per_layer"] = per_layer_metrics(
            reps, trace, model_drift, fail_ratio)
        result["trace"] = {
            "wall_s": trace["wall_s"],
            "profiled_s": trace["layers"]["profiled_s"],
            "spans": trace["spans"],
            "cells": {c["id"]: c["layers"] for c in trace["cells"]
                      if "layers" in c},
        }
    return result


def per_layer_metrics(reps, trace, model_drift, fail_ratio) -> dict:
    """Every per-layer metric, by name, as ``{"value", "unit"}``.
    Counts come from the traced run; ``network.solver_s`` and the
    ratios over ``wall_s`` come from the untraced reps."""
    table = trace["layers"]
    out = {}
    for layer, row in table["layers"].items():
        out[f"{layer}.self_s"] = {"value": row["self_s"], "unit": "s"}
        out[f"{layer}.calls"] = {"value": row["calls"], "unit": "count"}
        out[f"{layer}.calls_in"] = {"value": row["calls_in"], "unit": "count"}
    for name, value in table["counters"].items():
        out[name] = {"value": value, "unit": "count"}
    wall_s = statistics.median(r["wall_s"] for r in reps)
    solver_s = statistics.median(
        sum(c["net"]["solver_s"] for c in r["cells"]) for r in reps)
    cells = reps[0]["cells"]
    reallocations = sum(c["net"]["reallocations"] for c in cells)
    solved_flows = sum(c["net"]["solved_flows"] for c in cells)
    derived = {
        "sim.model_seconds": sum(c["model_seconds"] for c in cells),
        "sim.events_per_wall_s":
            table["counters"]["sim.schedule_calls"] / wall_s,
        "network.reallocations": reallocations,
        "network.solved_flows": solved_flows,
        "network.solver_s": solver_s,
        "network.solver_share": solver_s / wall_s,
        # useful-work ratio of component skipping
        "network.solved_flows_per_realloc":
            solved_flows / reallocations if reallocations else 0.0,
        "bench.trace_overhead_ratio": trace["wall_s"] / wall_s,
        "bench.model_drift": model_drift,
        "bench.fail_ratio": fail_ratio,
    }
    for name, value in derived.items():
        out[name] = {"value": value, "unit": DERIVED[name][0]}
    return out


def measure(names, seed: int, seconds: float, min_reps: int,
            traced: bool, pins: dict, log) -> dict:
    """Timed reps (interleaved round-robin across ``names`` so slow
    machine drift hits all alike), then one check run and, if asked,
    one traced run per workload.  Returns ``{name: workload result}``."""
    import workloads

    timed = {name: [] for name in names}
    spent = dict.fromkeys(names, 0.0)

    def wants_more(name):
        return len(timed[name]) < min_reps or spent[name] < seconds

    while any(wants_more(name) for name in names):
        for name in filter(wants_more, names):
            t0 = time.perf_counter()
            record = spawn_child(name, seed)
            spent[name] += time.perf_counter() - t0
            timed[name].append(record)
            log(f"{name} timed rep {len(timed[name])}: "
                f"wall_s={record['wall_s']:.3f} "
                f"setup_s={record['setup_s']:.3f} "
                f"peak_rss_mib={record['peak_rss_mib']:.1f}")

    results = {}
    for name in names:
        check = trace = None
        if name in workloads.CHECKED:
            check = spawn_child(name, seed, check=True)
            log(f"{name} check: {_ops(check, 'failed')} failed of "
                f"{_ops(check, 'attempted')}")
        if traced:
            trace = spawn_child(name, seed, traced=True)
            log(f"{name} traced: wall_s={trace['wall_s']:.3f}")
        pin = pins.get(name) if seed == workloads.PINNED_SEED else None
        results[name] = assemble(name, timed[name], check, trace, pin)
    return results


# -- result file ---------------------------------------------------------------


def provenance(seed: int, argv) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "seed": seed,
        "argv": list(argv),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "reps": FULL_REPS,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def validate_result(doc: dict) -> list:
    """Schema check of a full-run result; returns a list of problems."""
    problems = []

    def need(cond, message):
        if not cond:
            problems.append(message)

    need(doc.get("schema") == SCHEMA, "schema tag")
    prov = doc.get("provenance", {})
    for key in ("git_sha", "seed", "argv", "python", "numpy", "nproc",
                "reps", "started_at"):
        need(key in prov, f"provenance.{key}")
    for name, result in doc.get("workloads", {}).items():
        need(NAME_RE.match(name), f"workload name {name!r}")
        need(set(result.get("end_to_end", ())) == set(END_TO_END),
             f"{name}: end_to_end metric set")
        for metric, entry in result.get("end_to_end", {}).items():
            for key in ("value", "unit", "better", "bound", "n"):
                need(key in entry, f"{name}.{metric}.{key}")
            need(isinstance(entry.get("value"), (int, float)),
                 f"{name}.{metric} value type")
        for metric, entry in result.get("per_layer", {}).items():
            need(NAME_RE.match(metric), f"metric name {metric!r}")
            need(set(entry) == {"value", "unit"}, f"{name}.{metric} keys")
        for key in ("why", "attempted", "failed", "correct", "model", "reps"):
            need(key in result, f"{name}.{key}")
    need(doc.get("workloads"), "no workloads")
    return problems


def print_metrics(name: str, result: dict, out=sys.stderr) -> None:
    for group in ("end_to_end", "per_layer"):
        for metric, entry in result.get(group, {}).items():
            print(f"{name:18s} {metric:34s} {entry['value']!r:>24} "
                  f"{entry['unit']}", file=out)


# -- compare -------------------------------------------------------------------


def verdict(ea: dict, eb: dict) -> str:
    """WORSE / unresolved / better / same for one metric's entries (A's
    bound applies).  ``unresolved`` uses each side's quartile spread
    *within* its invocation, which understates the noise *between*
    invocations on a drifting host (README, day-one baseline)."""
    allowed = max(ea["bound"] * abs(ea["value"]), ea["bound_floor"])
    worse = eb["value"] - ea["value"]
    if ea["better"] == "higher":
        worse = -worse
    spread = max(e.get("q3", 0) - e.get("q1", 0) for e in (ea, eb))
    if worse > allowed:
        return "WORSE"
    if spread > allowed > 0:
        return "unresolved (spread exceeds bound)"
    if -worse > allowed:
        return "better"
    return "same"


def cell_walls(result: dict) -> dict:
    """``{cell id: wall_s entry}`` from a workload's per-rep records, so
    a change that should leave one cell alone (the ``fdb_fields`` KV
    cell has no solver work, its DFS cell does) can be read per cell."""
    unit, better, bound, floor = END_TO_END["wall_s"]
    out = {}
    for cell in result["reps"][0]["cells"]:
        stats = summarize([r["cells"][cell] for r in result["reps"]])
        out[cell] = {"value": stats["median"], "unit": unit, "better": better,
                     "bound": bound, "bound_floor": floor, **stats}
    return out


def compare(path_a: str, path_b: str) -> int:
    """One row per workload x metric, then one per cell's ``wall_s``;
    non-zero if B is worse than A by more than an end-to-end metric's
    bound or any exact counter differs.  Cell rows inform, they do not
    gate."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    bad = 0

    def row(name, metric, ea, eb):
        def show(e):
            if "q1" not in e:
                return f"{e['value']:.6g} n={e['n']}"
            return (f"{e['value']:.4f} [{e['q1']:.4f},{e['q3']:.4f}] "
                    f"n={e['n']}")

        result = verdict(ea, eb)
        print(f"{name:18s} {metric:32s} {show(ea):>34s} {show(eb):>34s}  "
              f"{result}")
        return result

    print(f"{'workload':18s} {'metric':32s} {'A median [q1,q3] n':>34s} "
          f"{'B median [q1,q3] n':>34s}  verdict")
    for name, ra in a["workloads"].items():
        rb = b["workloads"].get(name)
        if rb is None:
            print(f"{name:18s} missing from B")
            bad += 1
            continue
        for metric, ea in ra["end_to_end"].items():
            bad += row(name, metric, ea, rb["end_to_end"][metric]) == "WORSE"
        cells_a, cells_b = cell_walls(ra), cell_walls(rb)
        for cell, ea in cells_a.items():
            if cell in cells_b:
                row(name, f"wall_s[{cell}]", ea, cells_b[cell])
        if ra["model"] != rb["model"]:
            print(f"{name:18s} modelled outputs differ")
            bad += 1
        pa, pb = ra.get("per_layer", {}), rb.get("per_layer", {})
        for metric in sorted(set(pa) | set(pb)):
            if not is_exact(metric):
                continue
            va = pa.get(metric, {}).get("value")
            vb = pb.get(metric, {}).get("value")
            if va != vb:
                print(f"{name:18s} {metric}: exact counter differs "
                      f"{va!r} != {vb!r}")
                bad += 1
    print("compare:", "FAIL" if bad else "ok", f"({bad} problem(s))")
    return 1 if bad else 0


# -- entry ---------------------------------------------------------------------


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)["workloads"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (contract form)")
    parser.add_argument("--seed", type=lambda text: int(text, 0),
                        default=0xDA05, help="decimal or 0x-prefixed")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="contract form: keep adding timed reps "
                             "until this much measuring time is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="full run: write the result JSON here")
    parser.add_argument("--repin", action="store_true",
                        help="record pins.json for the pinned seed")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--child-traced", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--child-check", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no simulator at {SRC}/repro — run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args.child, args.seed, args.child_traced,
                          args.child_check)

    sys.path.insert(0, SRC)
    import workloads

    def log(message):
        print(message, file=sys.stderr, flush=True)

    if args.repin:
        pins = {}
        for name in workloads.WORKLOADS:
            a = model_of(spawn_child(name, workloads.PINNED_SEED))
            b = model_of(spawn_child(name, workloads.PINNED_SEED))
            if a != b:
                log(f"{name}: two fresh processes disagree; not pinning")
                return 1
            pins[name] = a
            log(f"{name}: pinned {len(a)} modelled outputs")
        with open(PINS_PATH, "w") as fh:
            json.dump({"schema": SCHEMA + "/pins",
                       "seed": workloads.PINNED_SEED, "workloads": pins},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0

    pins = load_pins()
    if args.workload:
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        # a traced invocation needs one untraced rep for the ratios
        min_reps = 1 if args.trace else MIN_REPS
        seconds = 0.0 if args.trace else args.seconds
        result = measure([args.workload], args.seed, seconds, min_reps,
                         bool(args.trace), pins, log)[args.workload]
        print_metrics(args.workload, result)
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            with open(os.path.join(OUT_DIR, f"trace-{args.workload}.json"),
                      "w") as fh:
                json.dump(result["trace"], fh, indent=1)
            metrics = result["per_layer"]
        else:
            metrics = {m: {"value": result["end_to_end"][m]["value"],
                           "unit": result["end_to_end"][m]["unit"]}
                       for m in CONTRACT_END_TO_END}
        print(json.dumps({"correct": result["correct"],
                          "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": metrics}))
        return 0 if result["correct"] else 1

    doc = {"schema": SCHEMA,
           "provenance": provenance(args.seed, argv)}
    doc["workloads"] = measure(list(workloads.WORKLOADS), args.seed,
                               0.0, FULL_REPS, True, pins, log)
    for name, result in doc["workloads"].items():
        print_metrics(name, result, out=sys.stdout)
    problems = validate_result(doc)
    for problem in problems:
        log(f"schema: {problem}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        log(f"wrote {args.out}")
    ok = not problems and all(r["correct"] for r in doc["workloads"].values())
    log("benchmark: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
