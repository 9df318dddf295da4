"""Call census of ``src/repro`` (``make census``): tier-1 in-process under
``sys.setprofile``, then the drives below (every CLI mode, the e2e workloads at
check scale, the figure and flow scripts, the examples). Lists each function,
by ``path::qualname``, that nothing called (NEVER) or only tests called
(TESTONLY), then the TESTONLY totals per top-level package and per KEEP
bucket. The same hook
watches each defaulted parameter of a called function, and each defaulted
field of a constructed dataclass (``path::Class(field)``), and lists it as set
by nothing (NEVER-SET) or only by tests (TEST-SET); a call sets it when it
passes a value other than the default. The hook is on before ``repro`` is
imported, and what import runs (a module-level class table) counts as shipped.
Exits 1 on a NEVER one that is neither a dunder nor a stub (a body that only
documents or raises), on a TESTONLY one that no KEEP key covers, on a KEEP
key that covers nothing (a stale entry), on a NEVER-SET parameter or field
that no KEEP key covers, and on a TEST-SET total above its TEST_SET_CEILING;
and, before anything runs, on a KEEP reason that opens with no bucket of
BUCKETS."""
import ast
import collections
import dataclasses
import dis
import importlib
import inspect
import os
import pathlib
import pkgutil
import runpy
import shlex
import sys
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = str(ROOT / "src" / "repro") + os.sep
OUT = ROOT / "artifacts" / "census"
#: Where dataclasses compiles the ``__init__`` it writes.
GENERATED = "<string>"
#: What ``replay`` hands the hook in place of a frame.
Frame = collections.namedtuple("Frame", "f_code f_lasti f_locals")
FILES = [f"{OUT}/{kind}.json" for kind in ("trace", "metrics", "timeline")]
OBS = "--trace-out={} --metrics-out={} --timeline-out={}".format(*FILES)
RUNS = {"repro.ior.cli": [f"-a {line} -b 2m -N 1 --ppn 2 --servers 2" for line in (
    f"DFS -F {OBS}", "DFS -F --aio-depth 4 -R", "DFS -e -O chunk_size=512k",
    "POSIX -s 3 --no-reorder",
    f"DFS --metrics-out {OUT}/m.prom --slo 'ior.read.latency p99 < 1 over 2 windows'",
    f"DFS --timeline-out {OUT}/tl.json --timeline-interval 1e-4",
    "DAOS --aio-depth 4 -e", "DAOS -F -O oclass=EC_2P1GX", "POSIX --lustre -e",
    "POSIX -F --cache-mode readonly -e", "POSIX -F --cache-mode writeback -i 2",
    f"POSIX -F --lustre -r -i 2 --seed 7 --timeline-out {OUT}/tl.json "
    "--timeline-interval 1e-4", "MPIIO -e", "MPIIO -c -O cb_buffer=1m",
    "MPIIO -c --aio-depth 2",
    "MPIIO -c --lustre --interleaved", "MPIIO -F -w", "HDF5 -e", "HDF5 -c",
    "HDF5 -F --lustre -e", "HDF5-DAOS", "HDF5-DAOS -F -R", "HDF5-DAOS --aio-depth 4",
    "HDF5 -c --aio-depth 2",
    # a second repetition re-creates each test file: the replace paths
    "HDF5 -i 2 -O chunk_size=512k", "HDF5 -F --lustre -i 2",
    "HDF5-DAOS -i 2 -O chunk_size=512k", "DAOS -i 2")],
    "repro.tenants.cli": [f"--tenants 4 --duration 2 {line}" for line in (
        *(f"--rate 4 {line}" for line in (
            f"{OBS} --report-out={OUT}/r.json",
            "--qos --pools 2 --containers 2 --aio-depth 2", "--mix bulk",
            "--mix kv", "--mix meta", "--chaos --oclass RP_2G1 --servers 3",
            f"--trace-out {OUT}/t.json "
            "--slo 'tenant.request.latency{tenant=t0} p99 < 1e-9 over 1 windows'")),
        # a replayed trace sets the arrivals: no --rate
        f"--trace {OUT}/arrivals.json")],
    "repro.fdb.cli": [f"--params 2 --steps 2 --field-size 64k {line}" for line in (
        "--backend kv", "--backend array --oclass S2 --servers 3 --clients 2",
        "--backend dfs --slo 'fdb.field.latency p99 < 10 over 1 windows'",
        "--backend lustre",
        "--sync", f"--trace {OBS}", "--backend dfs --index kv",
        "--backend kv --index tree --no-verify", "--backend dfs --chunk-size 512k")],
    "repro.obs.validate": [*FILES, f"--kind trace {FILES[0]}"]}
SCRIPTS = [(ROOT / "benchmarks" / "run_figures.py", "main", ["--contrast"]),
           (ROOT / "benchmarks" / "bench_flows.py", "collect"),
           *((path, "main") for path in sorted((ROOT / "examples").glob("*.py")))]
ORACLE = "oracle/safety: its shipped caller is the checked mode still to come"
FAULT = "oracle/safety: a fault plane the chaos suite drives, no shipped run"
#: The buckets a KEEP reason may open with: an oracle or safety check, the
#: E2 claim (mdtest), shipped code that only an input no drive gives
#: reaches (the reason names that input), the kernel (``sim/`` only) and
#: the testbed calibration (``hardware/specs.py`` only), whose fields stay
#: settable unset.
BUCKETS = ("oracle/safety", "E2", "reachable", "kernel", "calibration")
#: The one place each bucket that is bound to a place may be used.
PLACES = {"kernel": "sim", "calibration": "hardware/specs.py"}
#: The most defaulted parameters and fields only tests may set: a TEST-SET
#: option may go, never come (lower a ceiling when a total falls).
TEST_SET_CEILING = {"parameters": 21, "fields": 9}
#: Why each TESTONLY function, or unset calibration field, stays. A key
#: names a function or class (``path::Qualname``, path under src/repro), a
#: module (``path.py``) or a package, and covers everything inside it.
#: Each reason opens with its bucket, one of BUCKETS. A TESTONLY function
#: no shipped code references is deleted, not kept.
KEEP = {
    "cache/pages.py::PageCache._drop_view":
        "reachable: a cached file another handle changed (an epoch bump drops "
        "its pages), or an unlink(2) through DFuse",
    "cache/pages.py::PageCache.invalidate_file":
        "E2: unlink(2) through DFuse drops the file's cached pages",
    "cache/writeback.py::WriteBehind.pending":
        "oracle/safety: names the extents a failed write-back lost",
    "cache/writeback.py::WriteBehind.raise_pending":
        "oracle/safety: EIO on the next call after a failed write-back",
    "consensus/raft.py::RaftNode.restart": FAULT,
    "consensus/raft.py::RaftCluster.__init__.<locals>.make_reset": FAULT,
    "consensus/state_machine.py::AppendLogMachine":
        "oracle/safety: the reference machine tests/consensus/test_raft.py replicates",
    "daos/engine.py::Engine.crash": FAULT,
    "daos/engine.py::Engine.restart": FAULT,
    "daos/vos/ec.py::survivors":
        "oracle/safety: the degraded EC read and EC rebuild, which no shipped "
        "run's faults reach",
    "daos/vos/ec.py::rebuild_cell":
        "oracle/safety: EC rebuild, which no shipped run's faults reach",
    "daos/placement.py::Layout.spares":
        "oracle/safety: spare order after a permanent (DOWNOUT) exclusion",
    "daos/system.py::DaosSystem.mark_downout_rebuilt":
        "oracle/safety: rebuild onto a spare after a permanent exclusion",
    "daos/vos/extent.py::ExtentTree.max_epoch":
        "oracle/safety: EC rebuild's newest-epoch scan (rebuild/scheduler.py)",
    "daos/vos/extent.py::ExtentTree.spans":
        "oracle/safety: the extents WriteBehind.pending names after a failed "
        "write-back",
    "daos/vos/extent.py::ExtentTree.remove":
        "reachable: page-cache LRU eviction, on a cached run that fills the cache",
    "daos/vos/extent.py::ExtentTree.check_invariants": ORACLE,
    "daos/vos/payload.py::BytesPayload.__eq__":
        "reachable: read verification (ior -R, fdb retrieve) of data held as "
        "plain bytes, which no drive writes",
    "daos/vos/payload.py::ZeroPayload":
        "reachable: a read of a hole or past EOF (a sparse array, ROMIO's "
        "zero-fill of a short collective read)",
    "daos/vos/payload.py::PatternPayload.materialize":
        "reachable: a pattern compared with plain bytes (read verification, "
        "the replica check)",
    "daos/vos/payload.py::XorPayload":
        "oracle/safety: a parity cell sliced or read back by EC rebuild and "
        "the degraded read",
    "dfs/dfs.py::Dfs.lookup": "E2: dfs_lookup, the mdtest stat path",
    "dfs/dfs.py::Dfs.stat": "E2: dfs_stat, the mdtest stat phase",
    "dfs/dfs.py::Dfs.unlink": "E2: dfs_remove, the mdtest remove phase",
    "dfuse/fuse.py::DFuseMount._key": "E2: stat(2) / unlink(2) through DFuse for mdtest",
    "dfuse/fuse.py::DFuseMount._invalidate_data":
        "E2: stat(2) / unlink(2) through DFuse for mdtest",
    "dfuse/fuse.py::DFuseMount.mkdir": "E2: mkdir(2) through DFuse for mdtest",
    "dfuse/fuse.py::DFuseMount.stat": "E2: stat(2) through DFuse for mdtest",
    "dfuse/fuse.py::DFuseMount._stat": "E2: stat(2) through DFuse for mdtest",
    "dfuse/fuse.py::DFuseMount.unlink": "E2: unlink(2) through DFuse for mdtest",
    "errors.py::NotLeaderError.__init__": FAULT,
    "errors.py::CacheWritebackError.__init__":
        "oracle/safety: the typed error of a failed write-back",
    "errors.py::FsError.__init__":
        "reachable: a POSIX call that fails (a missing path, an exclusive "
        "create of an existing file)",
    "errors.py::fs_error_from_daos":
        "reachable: a DAOS error under a DFuse call (a missing path)",
    "faults": "oracle/safety: fault injection, schedules and invariant checks",
    "hardware/specs.py":
        "calibration: the NEXTGenIO testbed's measured constants, which a "
        "sensitivity sweep varies",
    "hdf5/vol.py::DaosVol.sync":
        "reachable: repro-ior -a HDF5-DAOS -e, fsync through the DAOS connector",
    "lustre/client.py::LustreMount.stat": "E2: stat(2) on Lustre, the mdtest contrast",
    "lustre/client.py::LustreMount.unlink": "E2: unlink(2) on Lustre, the mdtest contrast",
    "lustre/fs.py::Ost.drop": "E2: unlink(2) on Lustre, the mdtest contrast",
    "lustre/ldlm.py::LockSpace.check_invariants": ORACLE,
    "lustre/mds.py::Mds.unlink": "E2: unlink(2) on Lustre, the mdtest contrast",
    "mdtest": "E2: mdtest create / stat / remove; waits to become an e2e workload",
    "network/allocator.py::MaxMinAllocator.touch_link": FAULT,
    "network/allocator.py::MaxMinAllocator._forced_exit":
        "oracle/safety: counts a progressive-filling non-convergence",
    "network/dense.py::DenseRows.capacity_changed": FAULT,
    "network/fabric.py::Fabric._check_node": FAULT,
    "network/fabric.py::Fabric.partition": FAULT,
    "network/fabric.py::Fabric.heal": FAULT,
    "network/fabric.py::Fabric.set_extra_delay": FAULT,
    "network/fabric.py::Fabric.set_drop_rule": FAULT,
    "network/flows.py::FlowNetwork.set_link_capacity": FAULT,
    "network/ofi.py::RpcServer.set_unavailable": FAULT,
    "qos/bucket.py::TokenBucket.level":
        "oracle/safety: the token-debt bound tests/faults/harness.py checks",
    "rebuild/scheduler.py":
        "oracle/safety: EC rebuild, restore to a spare and cancel, which no "
        "shipped run's faults reach",
    "sim/core.py::Timeout.__init__": "kernel: yield Timeout(delay, value) in a task",
    "sim/core.py::Task.done": "kernel: task state, tests/sim/test_core.py",
    "sim/core.py::Task.error": "kernel: task state, tests/sim/test_core.py",
    "sim/core.py::Task.cancel": "kernel: cooperative task cancel, tests/sim/test_core.py",
    "sim/core.py::Simulator.run": "kernel: the run(until=...) loop",
    "sim/core.py::Simulator._record_failure":
        "oracle/safety: a task error nobody waits for fails the run",
    "sim/core.py::Simulator._raise_failures":
        "oracle/safety: a task error nobody waits for fails the run",
    "sim/rng.py::RngStreams.integer": "kernel: a named uniform-integer stream",
    "sim/sync.py::Gate.value": "kernel: the value an open gate holds, tests/sim/test_sync.py",
    "sim/sync.py::Lock.__init__": "kernel: the one-holder Semaphore, tests/sim/test_sync.py",
    "tenants/admission.py::TenantRejected.__init__":
        "oracle/safety: admission turns a request away; no shipped run overloads it",
}


def bad_reasons(keep=KEEP):
    """KEEP entries whose reason opens with no bucket of BUCKETS, or with a
    bucket of PLACES outside its place."""
    for key, reason in keep.items():
        bucket = reason.split(":")[0]
        place = PLACES.get(bucket)
        if bucket not in BUCKETS or place and not (
                key == place or key.startswith(place + "/")
                or key.startswith(place + "::")):
            yield key, reason


def over_ceiling(set_by, ceiling=TEST_SET_CEILING):
    """``(kind, total, limit)`` of each TEST-SET total above its ceiling."""
    for kind, limit in ceiling.items():
        if set_by[kind, "TEST-SET"] > limit:
            yield kind, set_by[kind, "TEST-SET"], limit


def functions(node, prefix=""):
    """``(qualname, node)`` of every function under ``node``, named as
    ``__qualname__`` names it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            yield prefix + child.name, child
            yield from functions(child, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from functions(child, f"{prefix}{child.name}.")
        else:
            yield from functions(child, prefix)


def load():
    """Import the e2e workloads and every module of ``repro``."""
    import workloads  # noqa: F401
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    return [module for name, module in sys.modules.items()
            if name == "repro" or name.startswith("repro.")]


def recorded(run, root=PKG):
    """``run()``'s result and ``(code, offset, arguments)`` of each call it
    made into a function under ``root`` or a dataclass ``__init__``: what
    import runs, replayed into the drives' watch once it exists."""
    calls, outer = [], sys.getprofile()
    def record(frame, event, _arg):
        code = frame.f_code
        if event == "call" and (code.co_filename.startswith(root)
                                or code.co_filename == GENERATED):
            calls.append((code, frame.f_lasti, dict(frame.f_locals)))
    sys.setprofile(record)
    try:
        return run(), calls
    finally:
        sys.setprofile(outer)


def defaulted(modules, root=PKG):
    """``{key: {name: default}}`` for every function under ``root`` with
    defaulted parameters and every dataclass of ``modules`` with defaulted
    init fields, keyed as the hook keys a frame: ``(path, first line)``, or
    the code object of a dataclass's generated ``__init__``; ``{code:
    "path::Class"}`` naming those; and ``{key: offset}`` of each
    generator's first resume: only that resume holds the arguments as
    passed."""
    names = {module.__name__ for module in modules}
    stack = [vars(module) for module in modules]
    params, starts, classes, visited = {}, {}, {}, set()
    while stack:
        for obj in stack.pop().values():
            if isinstance(obj, (staticmethod, classmethod)):
                obj = obj.__func__
            if isinstance(obj, property):
                stack.append({"fget": obj.fget, "fset": obj.fset})
            elif isinstance(obj, type) and obj.__module__ in names:
                if obj not in visited:
                    visited.add(obj)
                    stack.append(vars(obj))
                    init = vars(obj).get("__init__")
                    if dataclasses.is_dataclass(obj) and isinstance(
                            init, types.FunctionType) and \
                            init.__code__.co_filename == GENERATED:
                        path = pathlib.Path(sys.modules[obj.__module__].__file__)
                        classes[init.__code__] = (
                            f"{path.relative_to(root).as_posix()}::{obj.__qualname__}")
            elif isinstance(obj, types.FunctionType):
                obj = inspect.unwrap(obj)
                code = obj.__code__
                if code in classes:
                    key = code
                elif code.co_filename.startswith(root):
                    key = (code.co_filename, code.co_firstlineno)
                else:
                    continue
                positional = code.co_varnames[:code.co_argcount]
                values = obj.__defaults__ or ()
                found = dict(zip(positional[len(positional) - len(values):], values))
                found.update(obj.__kwdefaults__ or {})
                if not found:
                    continue
                params[key] = found
                if code.co_flags & (inspect.CO_GENERATOR | inspect.CO_COROUTINE):
                    starts[key] = min((i.offset for i in dis.get_instructions(code)
                                       if i.opname == "RESUME"), default=-1)
    return params, classes, starts


def watcher(params, starts, root=PKG):
    """A profile hook for one half of the run (tests, or the drives) and the
    two sets it fills: the key of each function it saw called, and ``(key,
    name)`` of each defaulted parameter or field a call set to a value other
    than its default."""
    called, setters = set(), set()
    watch = {key: dict(found) for key, found in params.items()}
    def hook(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename.startswith(root):
            key = (code.co_filename, code.co_firstlineno)
        elif code.co_filename == GENERATED:
            key = code
        else:
            return
        called.add(key)
        unset = watch.get(key)
        # a generator holds its arguments as passed only at its first
        # resume; a parameter seen set leaves the watch list, so hot
        # paths stop paying for the check
        if unset and frame.f_lasti <= starts.get(key, frame.f_lasti):
            passed = frame.f_locals
            for name, default in list(unset.items()):
                if not same(passed[name], default):
                    setters.add((key, name))
                    del unset[name]
            if not unset:
                del watch[key]
    return hook, called, setters


def replay(hook, calls):
    """Feed ``recorded`` calls to ``hook`` as if it had seen them."""
    for code, offset, passed in calls:
        hook(Frame(code, offset, passed), "call", None)


def defaulted_names(args):
    """Names of the defaulted parameters in an ``ast.arguments``."""
    positional = args.posonlyargs + args.args
    return [a.arg for a in positional[len(positional) - len(args.defaults):]] + [
        a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default]


def same(value, default):
    """Whether a passed ``value`` is the ``default`` (equal, same type)."""
    try:
        return value is default or (type(value) is type(default)
                                    and bool(value == default))
    except (TypeError, ValueError):  # an array's ambiguous truth value
        return False


def covers(key, ident):
    """Whether KEEP ``key`` names ``ident`` (``path::qualname``): the same
    function, a class holding it, or the module or package it lives in."""
    rest = ident.removeprefix(key)
    return rest != ident and (rest == "" or rest.startswith(("/", "::"))
                              or ("::" in key and rest.startswith(".")))


def main():
    bad = list(bad_reasons())
    for key, reason in bad:  # before the run: a bad entry fails at once
        print(f"KEEP entry {key}: reason {reason!r} opens with no bucket of "
              f"{', '.join(BUCKETS)} (" + ", ".join(
                  f"{bucket} only in {place}" for bucket, place in PLACES.items())
              + ")", file=sys.stderr)
    if bad:
        return 1
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]
    import pytest
    modules, calls = recorded(load)
    import workloads
    params, classes, starts = defaulted(modules)
    hook, tests, test_set = watcher(params, starts)
    sys.setprofile(hook)
    pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    hook, driven, drive_set = watcher(params, starts)
    replay(hook, calls)  # what import ran is shipped
    sys.setprofile(hook)
    sys.stdout = open(os.devnull, "w")  # the drives print their reports
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "arrivals.json").write_text('[[0.1, "t0"], [0.5, "t1"], [0.7, "t2"]]')
    for module, lines in RUNS.items():
        for line in lines:
            importlib.import_module(module).main(shlex.split(line))
    for name in workloads.WORKLOADS:
        # not the pinned seed, which is every builder's default seed
        for cell in workloads.build(name, 7, check=True):
            cell.call()
    for script, entry, *args in SCRIPTS:
        runpy.run_path(str(script))[entry](*args)
    sys.setprofile(None)
    sys.stdout = sys.__stdout__
    orphans, unkept, used = 0, 0, set()
    counts, lines_of = collections.Counter(), collections.Counter()  # TESTONLY
    by_bucket, bucket_lines = collections.Counter(), collections.Counter()
    set_by = collections.Counter()  # (kind, who set it) of each watched name

    def tally(kind, key, ident, names):
        """Count and list the watched ``names`` of a called ``key``."""
        if key not in tests and key not in driven:
            return
        for name in names:
            if (key, name) in drive_set:
                set_by[kind, "drives"] += 1
                continue
            label = "TEST-SET" if (key, name) in test_set else "NEVER-SET"
            kept = [entry for entry in KEEP if covers(entry, ident)
                    and KEEP[entry].startswith("calibration:")]
            used.update(kept)
            set_by[kind, "calibration" if kept else label] += 1
            print(f"{label:9} {ident}({name})" + (" [calibration]" if kept else ""))

    for path in sorted(pathlib.Path(PKG).rglob("*.py")):
        module = path.relative_to(PKG).as_posix()
        for qualname, node in functions(ast.parse(path.read_text())):
            first = min([d.lineno for d in node.decorator_list] + [node.lineno])
            key, ident = (str(path), first), f"{module}::{qualname}"
            tally("parameters", key, ident, defaulted_names(node.args))
            if key in driven:
                continue
            kind = "TESTONLY" if key in tests else "NEVER"
            exempt = kind == "TESTONLY" or node.name.startswith("__") or all(
                isinstance(s, (ast.Expr, ast.Pass, ast.Raise)) for s in node.body)
            orphans += not exempt
            lines = node.end_lineno - first + 1
            print(f"{kind if exempt else 'NO CALLER':9} {ident} ({lines} lines)")
            if kind == "TESTONLY":
                keys = [entry for entry in KEEP if covers(entry, ident)]
                used.update(keys)
                if not keys:
                    unkept += 1
                    print(f"  no KEEP entry covers {ident}", file=sys.stderr)
                bucket = KEEP[keys[0]].split(":")[0] if keys else "unkept"
                by_bucket[bucket] += 1
                bucket_lines[bucket] += lines
                package = module.split("/")[0].removesuffix(".py")
                counts[package] += 1
                lines_of[package] += lines
    for code, ident in sorted(classes.items(), key=lambda item: item[1]):
        tally("fields", code, ident, params.get(code, ()))
    print(f"TESTONLY total: {counts.total()} functions, {lines_of.total()} lines ("
          + ", ".join(f"{package} {n}/{lines_of[package]}"
                      for package, n in sorted(counts.items())) + ")")
    print("TESTONLY by bucket: " + ", ".join(
        f"{bucket} {n}/{bucket_lines[bucket]}"
        for bucket, n in sorted(by_bucket.items())))
    print("SET total: " + "; ".join(
        f"{sum(n for (k, _), n in set_by.items() if k == kind)} defaulted {kind} "
        f"of {what}: {set_by[kind, 'drives']} set by the drives, "
        f"{set_by[kind, 'TEST-SET']} only by tests (TEST-SET), "
        f"{set_by[kind, 'NEVER-SET']} by nothing (NEVER-SET), "
        f"{set_by[kind, 'calibration']} calibration set by no drive"
        for kind, what in (("parameters", "called functions"),
                           ("fields", "constructed dataclasses"))))
    stale = sorted(set(KEEP) - used)
    for key in stale:
        print(f"stale KEEP entry {key}: covers nothing TESTONLY or unset",
              file=sys.stderr)
    never_set = set_by["parameters", "NEVER-SET"] + set_by["fields", "NEVER-SET"]
    over = list(over_ceiling(set_by))
    for kind, total, limit in over:
        print(f"TEST-SET {kind}: {total}, above the ceiling {limit}",
              file=sys.stderr)
    return 1 if orphans or unkept or stale or never_set or over else 0


if __name__ == "__main__":
    sys.exit(main())
