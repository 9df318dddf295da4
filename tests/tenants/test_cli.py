"""``repro-tenants`` end to end: a small fleet served from the command
line, artifacts written, exit status gating on SLO breaches."""

import json

from repro.obs.validate import validate_file
from repro.tenants.cli import build_parser, main

FLEET = ["--tenants", "6", "--rate", "4", "--duration", "3", "--seed", "11"]


def test_defaults_keep_the_scraper_always_on():
    args = build_parser().parse_args([])
    assert args.timeline_interval == 1.0
    assert args.tenants == 16 and args.mix == "default"
    assert not args.qos and not args.chaos


def test_end_to_end_writes_report_and_timeline(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    timeline_path = tmp_path / "timeline.json"
    code = main(FLEET + ["--qos", "--report-out", str(report_path),
                         "--timeline-out", str(timeline_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "tenants: 6 over" in out and "fairness" in out

    report = json.loads(report_path.read_text())
    assert report["config"]["n_tenants"] == 6
    assert report["config"]["qos_enabled"] is True
    totals = report["totals"]
    assert totals["arrivals"] > 0
    assert totals["completed"] == totals["admitted"] and not totals["failed"]
    assert report["latency"]["count"] == totals["completed"]
    assert sorted(report["tenants"]) == [f"t{i}" for i in range(6)]
    assert report["slo_breaches"] == {}

    assert validate_file(str(timeline_path)) == []
    timeline = json.loads(timeline_path.read_text())
    assert timeline["interval"] == 1.0  # scraped without being asked to
    assert any(name.startswith("tenant.request.latency{tenant=t0}")
               for name in timeline["series"])


def test_same_seed_report_is_byte_identical(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        main(FLEET + ["--report-out", str(path)])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_unmeetable_slo_exits_1_and_names_the_tenant(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(FLEET + [
        "--slo", "tenant.request.latency{tenant=t1} p99 < 1e-9 over 1 windows",
        "--report-out", str(report_path),
    ])
    assert code == 1
    assert "SLO breaches" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert list(report["slo_breaches"]) == ["t1"]
    assert report["tenants"]["t1"]["slo_breaches"] >= 1
    assert report["tenants"]["t0"]["slo_breaches"] == 0


def test_chaos_run_races_a_rebuild_and_still_completes(tmp_path):
    report_path = tmp_path / "report.json"
    metrics_path = tmp_path / "metrics.json"
    main(["--tenants", "4", "--rate", "4", "--duration", "4", "--chaos",
          "--qos", "--oclass", "RP_2G1", "--report-out", str(report_path),
          "--metrics-out", str(metrics_path)])
    report = json.loads(report_path.read_text())
    assert report["totals"]["completed"] > 0
    assert validate_file(str(metrics_path)) == []
    counters = json.loads(metrics_path.read_text())["counters"]
    # the exclusion at duration/4 and reintegration at duration/2 fired
    assert any(name.startswith("rebuild.") for name in counters)


def test_trace_replay_drives_the_arrivals(tmp_path):
    trace_path = tmp_path / "arrivals.json"
    trace_path.write_text(json.dumps([[0.1, "t0"], [0.2, "t1"], [0.3, "t0"]]))
    report_path = tmp_path / "report.json"
    main(["--tenants", "2", "--duration", "2", "--trace", str(trace_path),
          "--report-out", str(report_path)])
    report = json.loads(report_path.read_text())
    assert report["tenants"]["t0"]["arrivals"] == 2
    assert report["tenants"]["t1"]["arrivals"] == 1
