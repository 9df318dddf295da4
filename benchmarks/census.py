"""Call census of ``src/repro`` (``make census``): tier-1 in-process under
``sys.setprofile``, then the drives below (every CLI mode, the e2e workloads at
check scale, the figure and flow scripts, the examples). Lists each function
nothing called (NEVER) or only tests called (TESTONLY), then the TESTONLY totals
per top-level package; exits 1 on a NEVER one that is neither a dunder nor a
stub (a body that only documents or raises), or when more than TESTONLY_BUDGET
functions are TESTONLY."""
import ast
import collections
import importlib
import os
import pathlib
import runpy
import shlex
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = str(ROOT / "src" / "repro") + os.sep
OUT = ROOT / "artifacts" / "census"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]
#: TESTONLY functions allowed; lower it whenever the total falls
TESTONLY_BUDGET = 211
FILES = [f"{OUT}/{kind}.json" for kind in ("trace", "metrics", "timeline")]
OBS = "--trace-out={} --metrics-out={} --timeline-out={}".format(*FILES)
RUNS = {"repro.ior.cli": [f"-a {line} -b 2m -N 1 --ppn 2 --servers 2" for line in (
    f"DFS -F {OBS}", "DFS -F --aio-depth 4 -R", "DFS -e -O chunk_size=512k", "POSIX",
    f"DFS --metrics-out {OUT}/m.prom --slo 'ior.read.latency p99 < 1 over 2 windows'",
    "DAOS --aio-depth 4 -e", "DAOS -F -O oclass=EC_2P1GX", "POSIX --lustre -e",
    "POSIX -F --cache-mode readonly -e", "POSIX -F --cache-mode writeback -i 2",
    "POSIX -F --lustre -r", "MPIIO -e", "MPIIO -c", "MPIIO -c --aio-depth 2",
    "MPIIO -c --lustre --interleaved", "MPIIO -F -w", "HDF5 -e", "HDF5 -c",
    "HDF5 -F --lustre -e", "HDF5-DAOS", "HDF5-DAOS -F -R")],
    "repro.tenants.cli": [f"--tenants 4 --rate 4 --duration 2 {line}" for line in (
        f"{OBS} --report-out={OUT}/r.json", "--qos", "--mix bulk", "--mix kv",
        "--mix meta", "--chaos --oclass RP_2G1 --servers 3")],
    "repro.fdb.cli": [f"--params 2 --steps 2 --field-size 64k {line}" for line in (
        "--backend kv", "--backend array", "--backend dfs", "--backend lustre",
        "--sync", f"--trace {OBS}", "--backend dfs --index kv",
        "--backend kv --index tree --no-verify")],
    "repro.obs.validate": FILES}
SCRIPTS = [(ROOT / "benchmarks" / "run_figures.py", "main", ["--contrast"]),
           (ROOT / "benchmarks" / "bench_flows.py", "collect"),
           *((path, "main") for path in sorted((ROOT / "examples").glob("*.py")))]


def main():
    import pytest
    import workloads
    tests, driven = set(), set()
    seen = tests
    def hook(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(PKG):
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
    sys.setprofile(hook)
    pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    seen = driven
    sys.stdout = open(os.devnull, "w")  # the drives print their reports
    OUT.mkdir(parents=True, exist_ok=True)
    for module, lines in RUNS.items():
        for line in lines:
            importlib.import_module(module).main(shlex.split(line))
    for name in workloads.WORKLOADS:
        for cell in workloads.build(name, workloads.PINNED_SEED, check=True):
            cell.call()
    for script, entry, *args in SCRIPTS:
        runpy.run_path(str(script))[entry](*args)
    sys.setprofile(None)
    sys.stdout = sys.__stdout__
    orphans = 0
    functions, lines_of = collections.Counter(), collections.Counter()  # TESTONLY
    for path in sorted(pathlib.Path(PKG).rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            first = min([d.lineno for d in node.decorator_list] + [node.lineno])
            kind = "TESTONLY" if (str(path), first) in tests else "NEVER"
            exempt = kind == "TESTONLY" or node.name.startswith("__") or all(
                isinstance(s, (ast.Expr, ast.Pass, ast.Raise)) for s in node.body)
            if (str(path), first) not in driven:
                orphans += not exempt
                lines = node.end_lineno - first + 1
                print(f"{kind if exempt else 'NO CALLER':9} {path.relative_to(ROOT)}:"
                      f"{first} {node.name} ({lines} lines)")
                if kind == "TESTONLY":
                    package = path.relative_to(PKG).parts[0].removesuffix(".py")
                    functions[package] += 1
                    lines_of[package] += lines
    print(f"TESTONLY total: {functions.total()} functions, {lines_of.total()} lines ("
          + ", ".join(f"{package} {n}/{lines_of[package]}"
                      for package, n in sorted(functions.items())) + ")")
    over = functions.total() > TESTONLY_BUDGET
    if over:
        print(f"TESTONLY total exceeds the budget of {TESTONLY_BUDGET}",
              file=sys.stderr)
    return 1 if orphans or over else 0


if __name__ == "__main__":
    sys.exit(main())
