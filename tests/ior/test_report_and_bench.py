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
    phase = PhaseResult(op="write", repetition=0, seconds=2.0, nbytes=4 * GiB)
    assert phase.bandwidth == pytest.approx(2 * GiB)
    zero = PhaseResult(op="write", repetition=0, seconds=0.0, nbytes=1)
    assert zero.bandwidth == 0.0


def test_ior_result_max_selection_and_summary():
    params = IorParams(api="DFS", block_size=MiB, transfer_size=MiB)
    result = IorResult(params=params, nprocs=4, client_nodes=2)
    result.phases = [
        PhaseResult("write", 0, 2.0, 4 * GiB),
        PhaseResult("write", 1, 1.0, 4 * GiB),
        PhaseResult("read", 0, 1.0, 4 * GiB, verify_errors=3),
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
    fig = FigureData("Fig X", "demo", "nodes", "bw", [series_a, series_b])
    assert fig.labels() == ["alpha", "beta"]
    assert fig.series_by_label("beta").at(1) == GiB
    assert fig.series_by_label("beta").at(4) is None
    with pytest.raises(KeyError):
        fig.series_by_label("gamma")
    text = render_figure(fig)
    assert "Fig X" in text
    assert "alpha" in text and "beta" in text
    assert "2.00" in text and "8.00" in text
    assert "-" in text.splitlines()[-1]  # missing cell placeholder


def test_figure_series_xs():
    series = Series("s")
    series.add(2, 1.0)
    series.add(8, 2.0)
    assert series.xs == [2, 8]


def test_every_ior_figure_is_the_one_sweep_loop():
    from repro.bench import fig1_fpp
    from repro.cluster import nextgenio
    from repro.ior import run_ior

    read_fig, write_fig = fig1_fpp(node_counts=(1, 2), interfaces=("DFS",),
                                   oclasses=("S1", "SX"), block_size="2m",
                                   ppn=2)
    assert (read_fig.figure_id, write_fig.figure_id) == ("Fig 1a", "Fig 1b")
    assert read_fig.title == "IOR file-per-process: read"
    assert write_fig.title == "IOR file-per-process: write"
    assert read_fig.labels() == write_fig.labels() == ["DAOS S1", "DAOS SX"]
    assert read_fig.series_by_label("DAOS SX").xs == [1, 2]
    # the x column is headed "nodes", as in figures_full.txt
    assert render_figure(read_fig).splitlines()[2].startswith(" nodes | ")
    # a point of the sweep is exactly the IOR run it names, on a fresh testbed
    direct = run_ior(
        nextgenio(client_nodes=2),
        IorParams(api="DFS", file_per_proc=True, oclass="SX",
                  block_size="2m", transfer_size="1m"),
        ppn=2,
    )
    assert write_fig.series_by_label("DAOS SX").at(2) == direct.max_write_bw
    assert read_fig.series_by_label("DAOS SX").at(2) == direct.max_read_bw
