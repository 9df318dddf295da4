"""Tests for IOR reporting, the pattern module, and the bench harness."""

import pytest

from repro.bench.sweep import FigureData, Series
from repro.bench.tables import render_figure
from repro.daos.vos.payload import BytesPayload, PatternPayload
from repro.ior.config import IorParams
from repro.ior.pattern import file_seed, make_payload, verify_payload
from repro.ior.report import IorResult, PhaseResult
from repro.units import GiB, MiB


def test_pattern_seed_depends_on_path_only():
    assert file_seed("/a") == file_seed("/a")
    assert file_seed("/a") != file_seed("/b")


def test_make_and_verify_payload():
    payload = make_payload("/f", 4096, 128)
    assert verify_payload("/f", 4096, payload)
    assert not verify_payload("/f", 0, payload)
    assert not verify_payload("/g", 4096, payload)
    # a sliced window still verifies at its own offset
    assert verify_payload("/f", 4096 + 10, payload.slice(10, 100))


def test_verify_accepts_equal_bytes_content():
    payload = make_payload("/f", 0, 64)
    raw = BytesPayload(payload.materialize())
    assert verify_payload("/f", 0, raw)


def test_phase_result_bandwidth():
    phase = PhaseResult(op="write", repetition=0, start=0.0, seconds=2.0,
                        nbytes=4 * GiB)
    assert phase.bandwidth == pytest.approx(2 * GiB)
    zero = PhaseResult(op="write", repetition=0, start=0.0, seconds=0.0,
                       nbytes=1)
    assert zero.bandwidth == 0.0


def test_ior_result_max_selection_and_summary():
    params = IorParams(api="DFS", block_size=MiB, transfer_size=MiB)
    result = IorResult(params=params, nprocs=4, client_nodes=2)
    result.phases = [
        PhaseResult("write", 0, 0.0, 2.0, 4 * GiB),
        PhaseResult("write", 1, 2.0, 1.0, 4 * GiB),
        PhaseResult("read", 0, 3.0, 1.0, 4 * GiB, verify_errors=3),
    ]
    assert result.max_write_bw == pytest.approx(4 * GiB)
    assert result.max_read_bw == pytest.approx(4 * GiB)
    assert result.verify_errors == 3
    text = result.summary()
    assert "Max Write" in text and "Max Read" in text
    assert "VERIFY ERRORS: 3" in text
    assert "-a DFS" in params.cli()


def test_series_and_figure_rendering():
    series_a = Series("alpha")
    series_a.add(1, 2 * GiB)
    series_a.add(4, 8 * GiB)
    series_b = Series("beta")
    series_b.add(1, 1 * GiB)  # no point at x=4
    fig = FigureData("Fig X", "demo", "nodes", "bw")
    fig.series += [series_a, series_b]
    assert series_b.at(1) == GiB
    assert series_b.at(4) is None
    text = render_figure(fig)
    assert "Fig X" in text
    assert "alpha" in text and "beta" in text
    assert "2.00" in text and "8.00" in text
    assert "-" in text.splitlines()[-1]  # missing cell placeholder


def test_every_ior_figure_is_the_one_sweep_loop(monkeypatch):
    from repro.bench import figures
    from repro.cluster import nextgenio
    from repro.ior import run_ior

    # a small sweep: the module's constants shrunk for the test
    monkeypatch.setattr(figures, "FIG1_INTERFACES", ("DFS",))
    monkeypatch.setattr(figures, "FIG1_OCLASSES", ("S1", "SX"))
    monkeypatch.setattr(figures, "PPN", 2)
    read_fig, write_fig = figures.fig1_fpp(node_counts=(1, 2), block_size="2m")
    assert (read_fig.figure_id, write_fig.figure_id) == ("Fig 1a", "Fig 1b")
    assert read_fig.title == "IOR file-per-process: read"
    assert write_fig.title == "IOR file-per-process: write"
    for fig in (read_fig, write_fig):
        assert [s.label for s in fig.series] == ["DAOS S1", "DAOS SX"]
    read_sx, write_sx = read_fig.series[1], write_fig.series[1]
    assert [p.x for p in read_sx.points] == [1, 2]
    # the x column is headed "nodes", as in figures_full.txt
    assert render_figure(read_fig).splitlines()[2].startswith(" nodes | ")
    # a point of the sweep is exactly the IOR run it names, on a fresh testbed
    direct = run_ior(
        nextgenio(client_nodes=2),
        IorParams(api="DFS", file_per_proc=True, oclass="SX",
                  block_size="2m", transfer_size="1m"),
        ppn=2,
    )
    assert write_sx.at(2) == direct.max_write_bw
    assert read_sx.at(2) == direct.max_read_bw
