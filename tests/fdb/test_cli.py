"""``repro-fdb`` CLI smoke: arguments land in FdbParams, artifacts write."""

import json

import pytest

from repro.fdb.cli import build_parser, main, params_from_args
from repro.obs.cli import settings
from repro.units import MiB


def _observed(argv):
    """What ``main`` asks ``cluster.observe`` for on ``argv``."""
    args = build_parser().parse_args(argv)
    return settings(args, tracing=args.trace)


def test_defaults_map_to_params():
    args = build_parser().parse_args([])
    params = args and params_from_args(args)
    assert params.backend == "kv"
    assert params.resolved_index() == "kv"
    assert params.field_bytes == 2 * MiB
    assert not params.sync
    assert params.verify


def test_size_suffixes_parse():
    args = build_parser().parse_args(
        ["--field-size", "64k", "--chunk-size", "2m"]
    )
    params = params_from_args(args)
    assert params.field_bytes == 64 * 1024
    assert params.chunk_bytes == 2 * MiB


def test_slo_rule_forces_a_timeline():
    wanted = _observed(
        ["--slo", "fdb.field.latency{backend=kv,phase=archive} "
                  "p99 < 10 over 3 windows"]
    )
    assert wanted["timeline_interval"] is not None
    assert len(wanted["slo_rules"]) == 1


def test_end_to_end_writes_report_and_timeline(tmp_path):
    report_path = tmp_path / "report.json"
    timeline_path = tmp_path / "timeline.json"
    rc = main([
        "--backend", "array", "--params", "2", "--steps", "2",
        "--field-size", str(64 * 1024), "--depth", "4",
        "--retrieve-param", "t2m",
        "--timeline-interval", "0.0002",
        "--report-out", str(report_path),
        "--timeline-out", str(timeline_path),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["config"]["backend"] == "array"
    assert report["archive"]["fields"] == 4
    assert report["retrieve"]["fields"] == 2
    timeline = json.loads(timeline_path.read_text())
    assert any(name.startswith("fdb.") for name in timeline["series"])


def test_interval_alone_does_not_switch_observation_on():
    wanted = _observed(["--timeline-interval", "0.5"])
    assert wanted["timeline_interval"] is None and not wanted["tracing"]
    assert not wanted["metrics"]


def test_trace_flag_and_trace_out_both_record_spans(tmp_path):
    for argv in (["--trace"], ["--trace-out", str(tmp_path / "t.json")]):
        wanted = _observed(argv)
        assert wanted["tracing"] and wanted["timeline_interval"] is None


def test_unmeetable_slo_exits_1_and_lands_in_the_report(tmp_path):
    report_path = tmp_path / "report.json"
    rc = main([
        "--params", "2", "--steps", "2", "--field-size", "64k", "--trace",
        "--timeline-interval", "0.0002",
        "--slo", "fdb.field.latency{backend=kv,phase=archive} "
                 "p99 < 1e-9 over 1 windows",
        "--report-out", str(report_path),
    ])
    assert rc == 1
    report = json.loads(report_path.read_text())
    assert report["slo_breaches"]
    assert "breakdown" in report["archive"]  # --trace recorded spans
    assert "tracing" not in report["config"]  # observing is not a param


def test_unknown_backend_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--backend", "gpfs"])
