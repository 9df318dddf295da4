"""Host time by layer: fold a cProfile run into this repo's packages.

Almost every layer entry point is a generator resumed by the sim
kernel, so wall-clock around a call measures simulated waiting, not
host work.  The driver therefore profiles the timed region and charges
each function's *self* time and call count to the layer that owns its
source file.  A "call" is a profiler call event: entering a function or
resuming a generator.  ``calls_in`` counts the calls that cross into a
layer from a different layer — the boundary count.

Counts are exact and repeat run to run (``PYTHONHASHSEED=0``, every
``repro`` module imported before the profiler starts); self times are
host seconds under profiling, inflated by ``bench.trace_overhead_ratio``.
"""

from __future__ import annotations

import importlib
import os

#: top-level name under src/repro/ -> layer.  A package missing here
#: fails ``layer_of`` (and test_e2e_smoke.py) loudly.
PACKAGE_LAYER = {
    "sim": "sim",
    "network": "network",
    "consensus": "consensus",
    "daos": None,  # split by module below
    "dfs": "dfs",
    "dfuse": "dfuse",
    "posix": "posix",
    "cache": "cache",
    "mpi": "mpi",
    "mpiio": "mpiio",
    "hdf5": "hdf5",
    "ior": "ior",
    "tenants": "tenants",
    "qos": "qos",
    "fdb": "fdb",
    "obs": "obs",
    "hardware": "other",
    "cluster": "other",
    "rebuild": "other",
    "faults": "other",
    "lustre": "other",
    "bench": "other",
    "mdtest": "other",
    "units.py": "other",
    "errors.py": "other",
    "__init__.py": "other",
    "_version.py": "other",
}

#: module (or sub-package) under src/repro/daos/ -> layer
DAOS_LAYER = {
    "client.py": "daos.rpc",
    "engine.py": "daos.rpc",
    "stream.py": "daos.rpc",
    "system.py": "daos.rpc",
    "api.py": "daos.rpc",
    "__init__.py": "daos.rpc",
    "eq.py": "daos.eq",
    "object.py": "daos.object",
    "array.py": "daos.object",
    "kv.py": "daos.object",
    "oclass.py": "daos.object",
    "placement.py": "daos.object",
    "objid.py": "daos.object",
    "vos": "daos.vos",
}

LAYERS = tuple(dict.fromkeys(
    [v for v in PACKAGE_LAYER.values() if v]
    + list(DAOS_LAYER.values())
    + ["py_builtins", "numpy"]
))

#: (module, qualname) -> exact call-count metric
FUNCTION_COUNTERS = {
    ("repro.sim.core", "Simulator.schedule"): "sim.schedule_calls",
    ("repro.sim.core", "Task._step"): "sim.task_steps",
    ("repro.sim.core", "Simulator.spawn"): "sim.spawns",
    ("repro.network.flows", "FlowNetwork.open"): "network.flows_opened",
    ("repro.consensus.raft", "RaftNode._quorum"): "consensus.quorum_calls",
    ("repro.consensus.raft", "RaftNode._heartbeat_tick"):
        "consensus.heartbeat_ticks",
}

_REPRO = os.sep + "repro" + os.sep
_HERE = os.path.dirname(os.path.abspath(__file__))


def repro_relpath(filename: str):
    """Path of ``filename`` under ``src/repro/`` as parts, or None."""
    at = filename.rfind(os.sep + "src" + _REPRO)
    if at < 0:
        return None
    return filename[at + len(os.sep + "src" + _REPRO):].split(os.sep)


def layer_of_parts(parts) -> str:
    """Layer owning ``src/repro/<parts...>``; KeyError if unmapped."""
    layer = PACKAGE_LAYER[parts[0]]
    if layer is None:
        layer = DAOS_LAYER[parts[1]]
    return layer


def layer_of(code) -> str:
    """Layer of one cProfile entry's ``code`` (code object or, for C
    functions, a description string)."""
    if isinstance(code, str):
        return "numpy" if "numpy" in code else "py_builtins"
    filename = code.co_filename
    parts = repro_relpath(filename)
    if parts is not None:
        return layer_of_parts(parts)
    if os.sep + "numpy" + os.sep in filename:
        return "numpy"
    if filename.startswith(_HERE):
        return "other"  # the driver's own frames inside the timed region
    return "py_builtins"  # stdlib python (heapq, dataclasses, ...)


def function_counter_codes() -> dict:
    """``{code object: metric}`` for FUNCTION_COUNTERS; fails loudly
    (AttributeError) if a counted function no longer exists."""
    by_code = {}
    for (module, qualname), metric in FUNCTION_COUNTERS.items():
        obj = importlib.import_module(module)
        for attr in qualname.split("."):
            obj = getattr(obj, attr)
        by_code[obj.__code__] = metric
    return by_code


def fold(stats, counter_codes) -> dict:
    """``cProfile.Profile.getstats()`` and ``function_counter_codes()``
    -> ``{"layers": {layer: {self_s, calls, calls_in}}, "counters":
    {...}, "profiled_s": total}``."""
    layers = {name: {"self_s": 0.0, "calls": 0, "calls_in": 0}
              for name in LAYERS}
    counters = dict.fromkeys(FUNCTION_COUNTERS.values(), 0)
    for entry in stats:
        layer = layer_of(entry.code)
        row = layers[layer]
        row["self_s"] += entry.inlinetime
        row["calls"] += entry.callcount
        metric = counter_codes.get(entry.code)
        if metric is not None:
            counters[metric] += entry.callcount
        for sub in entry.calls or ():
            callee = layer_of(sub.code)
            if callee != layer:
                layers[callee]["calls_in"] += sub.callcount
    return {
        "layers": layers,
        "counters": counters,
        "profiled_s": sum(row["self_s"] for row in layers.values()),
    }


def merge(tables) -> dict:
    """Sum several ``fold`` results (a workload's cells)."""
    out = fold((), {})
    for table in tables:
        for name, row in table["layers"].items():
            for key, value in row.items():
                out["layers"][name][key] += value
        for name, value in table["counters"].items():
            out["counters"][name] += value
        out["profiled_s"] += table["profiled_s"]
    return out
