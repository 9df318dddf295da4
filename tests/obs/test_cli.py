"""The shared observability front door: one flag group, one observe
rule, one artifact writer behind ``repro-ior``, ``repro-tenants`` and
``repro-fdb`` — and bad input rejected as a usage error by all three."""

import argparse
import json
import pathlib
import subprocess
import sys

import pytest

from repro.fdb import cli as fdb_cli
from repro.ior import cli as ior_cli
from repro.obs import cli as obs_cli
from repro.obs.validate import validate_file
from repro.tenants import cli as tenants_cli

CLIS = {"ior": ior_cli, "tenants": tenants_cli, "fdb": fdb_cli}

# geometry small enough that a case which wrongly gets past the parser
# still finishes in well under a second
_IOR = ["-N", "1", "--ppn", "2", "--servers", "2", "-b", "1m", "-t", "256k"]
_TENANTS = ["--tenants", "2", "--duration", "1"]
_FDB = ["--params", "1", "--steps", "1", "--field-size", "4k"]

BAD_INPUT = [
    ("ior", ["-b", "16q"], "cannot parse size"),
    ("ior", ["-b", "1m", "-t", "4m"], "not a multiple"),
    ("ior", ["-N", "0"], "-N/--nodes"),
    ("ior", _IOR + ["-O", "oclass=ZZ"], "unknown object class"),
    ("ior", _IOR + ["--slo", "garbage"], "bad SLO rule"),
    # a metric name that parses as no series: unterminated, a trailing
    # comma, an empty label body, a repeated key
    ("ior", _IOR + ["--slo", "m{rank=0 value < 0 over 1 windows"],
     "malformed metric name"),
    ("tenants", _TENANTS + ["--slo", "m{rank=0,} value < 0 over 1 windows"],
     "malformed metric label"),
    ("fdb", _FDB + ["--slo", "stall m{} while g over 2 windows"],
     "malformed metric label"),
    ("fdb", _FDB + ["--slo", "stall c while g{k=1,k=2} over 2 windows"],
     "repeated"),
    ("ior", _IOR + ["--timeline-interval", "0"], "--timeline-interval"),
    ("ior", ["-O", "nonsense"], "KEY=VALUE"),
    ("ior", ["-a", "DFS", "--lustre"], "requires DAOS"),
    ("tenants", _TENANTS + ["--slo", "garbage"], "bad SLO rule"),
    ("tenants", ["--tenants", "0"], "--tenants"),
    ("tenants", ["--rate", "-1"], "--rate: must be positive"),
    ("tenants", _TENANTS + ["--timeline-interval", "0"],
     "--timeline-interval"),
    ("tenants", ["--trace", "/nonexistent.json"], "No such file"),
    ("tenants", ["--trace", str(pathlib.Path(__file__).with_name(
        "nonfinite_arrivals.json"))] + _TENANTS, "non-finite time nan"),
    ("tenants", ["--duration", "0"], "--duration: must be positive"),
    ("fdb", _FDB + ["--slo", "garbage"], "bad SLO rule"),
    ("fdb", ["--depth", "0"], "--depth"),
    ("fdb", ["--params", "0"], "--params"),
    ("fdb", ["--backend", "lustre", "--index", "kv"], "no KV index"),
    ("fdb", ["--backend", "lustre", "--chunk-size", "512k"], "--chunk-size"),
    ("fdb", ["--backend", "lustre", "--oclass", "SX"], "--oclass"),
    ("fdb", ["--backend", "kv", "--chunk-size", "1k"], "--chunk-size"),
    # a flag the run would ignore
    ("fdb", ["--sync", "--depth", "3"], "--depth"),
    ("tenants", _TENANTS + ["--qos-bw", "1000000"], "--qos-bw"),
    ("tenants", ["--trace", str(pathlib.Path(__file__).with_name(
        "nonfinite_arrivals.json")), "--rate", "3"], "--rate"),
    ("fdb", _FDB + ["--timeline-interval", "-1"], "--timeline-interval"),
    ("ior", _IOR + ["-O", "chunk_size=0"], "chunk_size must be positive"),
    ("ior", _IOR + ["-O", "oclass=EC_2P1GX", "-O", "chunk_size=3"],
     "not divisible"),
    ("tenants", _TENANTS + ["--oclass", "nope"], "unknown object class"),
    ("fdb", _FDB + ["--oclass", "nope"], "unknown object class"),
    # an artifact that cannot be written is refused before the run
    ("ior", _IOR + ["--trace-out", "/no/such/dir/t.json"], "not a writable"),
    ("ior", _IOR + ["--metrics-out", "/no/such/dir/m.json"],
     "not a writable"),
    ("ior", _IOR + ["--timeline-out", "/no/such/dir/tl.json"],
     "not a writable"),
    ("tenants", _TENANTS + ["--report-out", "/no/such/dir/r.json"],
     "not a writable"),
    ("fdb", _FDB + ["--report-out", "/no/such/dir/r.json"], "not a writable"),
    # numbers the model cannot serve: each once died mid-run, hung, or
    # served nothing with exit 0
    ("tenants", _TENANTS + ["--qos", "--qos-bw", "0"], "--qos-bw: must be"),
    ("tenants", _TENANTS + ["--qos", "--qos-bw", "-5"], "--qos-bw: must be"),
    ("tenants", _TENANTS + ["--qos", "--qos-bw", "nan"], "--qos-bw: must be"),
    ("tenants", ["--rate", "nan"], "--rate: must be positive and finite"),
    ("tenants", ["--duration", "nan"], "--duration: must be positive"),
    ("tenants", ["--duration", "inf"], "--duration: must be positive"),
    ("fdb", _FDB + ["--chunk-size", "0", "--backend", "array"],
     "--chunk-size: must be positive"),
    ("fdb", _FDB + ["--chunk-size", "0", "--backend", "dfs"],
     "--chunk-size: must be positive"),
    # grids whose last key leaves the schema's canonical range, and a
    # query for a parameter the grid never archives
    ("fdb", _FDB + ["--levels", "22"], "22 levels run past the schema"),
    ("fdb", _FDB + ["--steps", "335"], "335 steps run past the schema"),
    ("fdb", _FDB + ["--members", "1001"], "1001 members run past the schema"),
    ("fdb", _FDB + ["--dates", "2773"], "2773 dates run past the schema"),
    ("fdb", _FDB + ["--retrieve-param", "nope"], "cannot retrieve 'nope'"),
    # erasure-coded classes take full-stripe writes only (DESIGN.md §7.3)
    ("ior", _IOR + ["-t", "1m", "-O", "oclass=EC_2P1GX", "-a", "HDF5"],
     "unaligned metadata"),
    ("ior", _IOR + ["-t", "128k", "-O", "oclass=EC_2P1G1", "-a", "DFS"],
     "needs stripe-aligned writes"),
    ("ior", _IOR + ["-t", "128k", "-O", "oclass=EC_2P1G1", "-a", "POSIX"],
     "needs stripe-aligned writes"),
]


@pytest.mark.parametrize(
    "cli,argv,message", BAD_INPUT,
    ids=[f"{cli}:{' '.join(argv[-2:])}" for cli, argv, _m in BAD_INPUT],
)
def test_bad_input_is_a_usage_error_not_a_traceback(cli, argv, message,
                                                    capsys):
    with pytest.raises(SystemExit) as exit_info:
        CLIS[cli].main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert message in err.splitlines()[-1]


@pytest.mark.parametrize("api", ["MPIIO", "HDF5-DAOS"])
def test_ec_runs_that_write_whole_stripes_still_complete(api, capsys):
    argv = _IOR + ["-t", "1m", "-O", "oclass=EC_2P1GX", "-a", api, "-R"]
    assert ior_cli.main(argv) == 0
    assert "Max Read" in capsys.readouterr().out


@pytest.mark.parametrize("cli,argv", [
    ("ior", _IOR), ("tenants", _TENANTS), ("fdb", _FDB)])
def test_seed_takes_any_int_literal(cli, argv, capsys):
    """``--seed 0xDA05`` is the default seed, spelled as the e2e driver
    spells it."""
    outputs = []
    for seed in ([], ["--seed", "0xDA05"]):
        assert CLIS[cli].main(argv + seed) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def _observability_flags(parser):
    group = next(g for g in parser._action_groups
                 if g.title == "observability")
    return {flag for action in group._group_actions
            for flag in action.option_strings}


def test_three_parsers_expose_the_same_observability_flags():
    shared = {"--trace-out", "--metrics-out", "--timeline-out",
              "--timeline-interval", "--slo"}
    local = {"ior": set(), "tenants": {"--report-out"},
             "fdb": {"--report-out", "--trace"}}
    for name, cli in CLIS.items():
        flags = _observability_flags(cli.build_parser())
        assert flags == shared | local[name], name


def test_default_scrape_interval_is_the_only_per_cli_difference():
    defaults = {
        name: cli.build_parser().parse_args([]).timeline_interval
        for name, cli in CLIS.items()
    }
    assert defaults == {"ior": 0.01, "tenants": 1.0, "fdb": 1.0}


def _args(argv, default_interval=0.25):
    parser = argparse.ArgumentParser()
    obs_cli.add_arguments(parser, default_interval)
    return parser.parse_args(argv)


def test_settings_observe_nothing_unless_asked():
    assert obs_cli.settings(_args([])) == dict(
        tracing=False, metrics=False, timeline_interval=None, slo_rules=None)


def test_settings_rule_or_timeline_path_attach_the_scraper():
    rule = "ior.write.latency p99 < 1 over 1 windows"
    for argv in (["--slo", rule], ["--timeline-out", "t.json"]):
        wanted = obs_cli.settings(_args(argv))
        assert wanted["timeline_interval"] == 0.25, argv
        assert wanted["metrics"] and not wanted["tracing"]
    assert obs_cli.settings(_args(["--slo", rule]))["slo_rules"] == [rule]
    # the interval alone asks for nothing
    assert not obs_cli.settings(_args(["--timeline-interval", "2"]))["metrics"]


def test_settings_paths_and_forced_instruments():
    assert obs_cli.settings(_args(["--trace-out", "t.json"])) == dict(
        tracing=True, metrics=True, timeline_interval=None, slo_rules=None)
    assert obs_cli.settings(_args(["--metrics-out", "m.json"])) == dict(
        tracing=False, metrics=True, timeline_interval=None, slo_rules=None)
    forced = obs_cli.settings(_args([]), tracing=True, timeline=True)
    assert forced == dict(tracing=True, metrics=True, timeline_interval=0.25,
                          slo_rules=None)


def test_ior_slo_without_timeline_out_still_reports_the_breach(capsys):
    # silently ignored before the shared observe: no scraper was attached
    code = ior_cli.main([
        "-a", "DFS", "-F", "-b", "4m", "-t", "1m", "-N", "1", "--ppn", "4",
        "--servers", "2", "--timeline-interval", "0.002",
        "--slo", "ior.write.latency p99 < 1e-9 over 1 windows",
    ])
    out = capsys.readouterr().out
    assert code == 0  # IOR's exit status reports verify errors only
    assert "SLO BREACH" in out
    assert "ior.write.latency p99 < 1e-9 over 1 windows" in out


def test_slo_rule_binds_to_its_series_whatever_the_label_order(tmp_path,
                                                              capsys):
    breaches = {}
    for labels in ("rank=0,target=0", "target=0,rank=0"):
        path = tmp_path / f"{labels}.json"
        rule = f"engine.target.inflight{{{labels}}} value < 0 over 1 windows"
        assert ior_cli.main([
            "-a", "DFS", "-b", "2m", "-N", "1", "--ppn", "2", "--servers", "2",
            "--timeline-interval", "1e-4", "--slo", rule,
            "--timeline-out", str(path),
        ]) == 0
        doc = json.loads(path.read_text())
        breaches[labels] = [
            {key: value for key, value in breach.items() if key != "rule"}
            for breach in doc["breaches"] if breach["kind"] == "threshold"]
    assert len(breaches["rank=0,target=0"]) == 1
    assert breaches["target=0,rank=0"] == breaches["rank=0,target=0"]


@pytest.mark.parametrize("cli,argv", [
    ("ior", ["-a", "DFS", "-F", "-b", "2m", "-t", "1m", "-N", "1",
             "--ppn", "2", "--servers", "2"]),
    ("tenants", ["--tenants", "4", "--rate", "4", "--duration", "2"]),
    ("fdb", ["--backend", "kv", "--params", "2", "--steps", "2",
             "--field-size", "64k"]),
])
def test_every_cli_writes_all_three_artifacts(cli, argv, tmp_path, capsys):
    paths = {kind: tmp_path / f"{kind}.json"
             for kind in ("trace", "metrics", "timeline")}
    CLIS[cli].main(argv + [
        "--trace-out", str(paths["trace"]),
        "--metrics-out", str(paths["metrics"]),
        "--timeline-out", str(paths["timeline"]),
        "--timeline-interval", "0.001",
    ])
    err = capsys.readouterr().err
    for kind, path in paths.items():
        assert validate_file(str(path)) == [], (cli, kind)
        assert f"{kind} written to {path}" in err


def test_chrome_trace_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # thread_name metadata once came out in set order (salted str hashes);
    # a loop, not a parametrize, so the test keeps the name on record.
    # Timelines and metrics are held to the same rule.
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    common = ["--trace-out", "--timeline-out", "--metrics-out"]
    runs = {
        "ior": (["-a", "POSIX", "-F", "-b", "2m", "-t", "1m", "-N", "1",
                 "--ppn", "2", "--servers", "2"], common),
        "tenants": (["--tenants", "2", "--rate", "4", "--duration", "1"],
                    common + ["--report-out"]),
        "fdb": (_FDB + ["--trace"], common + ["--report-out"]),
    }
    for cli, (argv, outputs) in runs.items():
        written = []
        for seed in ("0", "1"):
            paths = [tmp_path / f"{cli}{flag}-{seed}.json" for flag in outputs]
            subprocess.run(
                [sys.executable, "-m", f"repro.{cli}", *argv,
                 *(f"{flag}={path}" for flag, path in zip(outputs, paths))],
                check=True, capture_output=True, timeout=120,
                env={"PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            )
            written.append([path.read_bytes() for path in paths])
        assert written[0] == written[1], cli
