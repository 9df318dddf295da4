"""The census's own logic (``benchmarks/census.py``) on small inputs: the
default test, KEEP key coverage and reasons, and the dataclass-field watch,
without the full run ``make census`` makes."""

import collections
import importlib
import importlib.util
import os
import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "census", ROOT / "benchmarks" / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

PROBE = '''
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Probe:
    name: str
    size: int = 1
    items: tuple = field(default_factory=tuple)
    state: int = field(init=False, default=0)


def scaled(x, factor=2):
    return x * factor


TABLE = Probe("table", size=3)  # built at import, as a class table is
'''


def test_same_needs_equal_value_of_the_same_type():
    marker = object()
    assert census.same(marker, marker)
    assert census.same(2, 2) and census.same("s", "s")
    assert not census.same(1.0, 1)  # equal, but another type
    assert not census.same(True, 1)
    assert not census.same(3, 1)
    # an array's truth value is ambiguous: never the default
    assert not census.same(np.zeros(2), np.zeros(2))


def test_covers_whole_names_only():
    ident = "dfs/dfs.py::Dfs.lookup"
    for key in ("dfs", "dfs/dfs.py", "dfs/dfs.py::Dfs", ident):
        assert census.covers(key, ident), key
    for key in ("df", "dfs/dfs.py::Df", "dfs/dfs.py::Dfs.look", "dfuse"):
        assert not census.covers(key, ident), key
    # a calibration key covers a field line of its file
    assert census.covers("hardware/specs.py",
                         "hardware/specs.py::NodeSpec(memory)")


def test_bad_reasons_checks_the_bucket_and_its_place():
    assert list(census.bad_reasons()) == []  # the shipped table
    keep = {
        "sim/core.py::Task.done": "kernel: task state",
        "hardware/specs.py": "calibration: measured constants",
        "dfs/dfs.py::Dfs.stat": "kernel: not under sim/",
        "simx/core.py::f": "kernel: a look-alike of sim/",
        "cache/config.py": "calibration: outside hardware/specs.py",
        "daos/array.py": "convenience: no such bucket",
    }
    assert [key for key, _ in census.bad_reasons(keep)] == [
        "dfs/dfs.py::Dfs.stat", "simx/core.py::f", "cache/config.py",
        "daos/array.py"]


def test_a_test_set_total_above_its_ceiling_fails():
    set_by = collections.Counter({("parameters", "TEST-SET"): 3,
                                  ("fields", "TEST-SET"): 2,
                                  ("fields", "drives"): 40})
    assert list(census.over_ceiling(
        set_by, {"parameters": 3, "fields": 2})) == []
    assert list(census.over_ceiling(
        set_by, {"parameters": 2, "fields": 2})) == [("parameters", 3, 2)]


@pytest.fixture
def probe(tmp_path):
    (tmp_path / "census_probe.py").write_text(PROBE)
    sys.path.insert(0, str(tmp_path))
    root = str(tmp_path) + os.sep
    try:
        module, calls = census.recorded(
            lambda: importlib.import_module("census_probe"), root)
        yield module, calls, root
    finally:
        sys.path.remove(str(tmp_path))
        sys.modules.pop("census_probe", None)


def test_fields_of_a_frozen_dataclass_are_found(probe):
    module, _calls, root = probe
    params, classes, _starts = census.defaulted([module], root)
    init = module.Probe.__init__.__code__
    assert classes == {init: "census_probe.py::Probe"}
    # init fields with a default or a factory; not the init=False one
    assert set(params[init]) == {"size", "items"}
    assert params[init]["size"] == 1
    (scaled,) = [key for key in params if key != init]
    assert params[scaled] == {"factor": 2}


def test_an_import_time_construction_counts_as_shipped(probe):
    module, calls, root = probe
    params, _classes, starts = census.defaulted([module], root)
    init = module.Probe.__init__.__code__
    hook, called, setters = census.watcher(params, starts, root)
    census.replay(hook, calls)
    assert init in called
    assert setters == {(init, "size")}  # TABLE's size=3; items untouched
    # what runs later under the hook adds to the same sets
    outer = sys.getprofile()
    sys.setprofile(hook)
    try:
        module.Probe("run", items=(1,))
        module.scaled(1, factor=3)
    finally:
        sys.setprofile(outer)
    scaled = (module.scaled.__code__.co_filename,
              module.scaled.__code__.co_firstlineno)
    assert setters == {(init, "size"), (init, "items"), (scaled, "factor")}
