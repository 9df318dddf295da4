"""Tests for the IOR command line."""

import pytest

from repro.ior.cli import build_parser, main, params_from_args
from repro.units import MiB


def test_cli_parser_defaults():
    args = build_parser().parse_args([])
    params = params_from_args(args)
    assert params.api == "DFS"
    assert params.block_size == 16 * MiB
    assert params.write and params.read


def test_cli_option_passthrough():
    args = build_parser().parse_args(
        ["-a", "DFS", "-F", "-b", "4m", "-t", "1m", "-O", "oclass=S2",
         "-O", "chunk_size=1m", "-R"]
    )
    params = params_from_args(args)
    assert params.file_per_proc and params.verify
    assert params.oclass == "S2"
    assert params.chunk_size == MiB


@pytest.mark.parametrize("argv", [
    [],
    ["-a", "DFS", "-F", "-b", "4m", "-t", "1m", "-w", "-R", "-i", "2"],
    ["-a", "POSIX", "-r", "--no-reorder", "-e", "--cache-mode", "writeback"],
    ["-a", "DFS", "-b", "2m", "-t", "256k", "-s", "3", "--interleaved",
     "-O", "oclass=S2", "-O", "chunk_size=512k"],
    ["-a", "MPIIO", "-c", "--aio-depth", "4", "-O", "cb_buffer=1m"],
    ["-a", "HDF5-DAOS", "-F", "--aio-depth", "2", "-O", "oclass=EC_2P1GX",
     "-O", "chunk_size=2m", "-t", "2m"],
])
def test_cli_echo_rebuilds_the_same_params(argv):
    parser = build_parser()
    params = params_from_args(parser.parse_args(argv))
    echo = params.cli().split()
    assert echo[0] == "ior"
    assert params_from_args(parser.parse_args(echo[1:])) == params


def test_cli_bad_option_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["-O", "nonsense"])


def test_cli_write_and_read_only_conflict():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["-w", "-r"])


def test_cli_end_to_end_daos(capsys):
    code = main(["-a", "DFS", "-F", "-b", "2m", "-t", "256k", "-R",
                 "-N", "1", "--ppn", "2", "--servers", "2",
                 "-O", "oclass=S2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Max Write" in out and "Max Read" in out


def test_cli_end_to_end_lustre(capsys):
    code = main(["-a", "POSIX", "-F", "-b", "2m", "-t", "256k", "-R",
                 "-N", "1", "--ppn", "2", "--servers", "2", "--lustre"])
    assert code == 0
    assert "Max Write" in capsys.readouterr().out


@pytest.mark.parametrize("system", [[], ["--lustre"]], ids=["daos", "lustre"])
def test_cli_read_only_writes_its_input_first(system, capsys):
    code = main(["-a", "POSIX", "-r", "-b", "1m", "-t", "256k", "-R",
                 "-N", "1", "--ppn", "2", "--servers", "2"] + system)
    assert code == 0
    out = capsys.readouterr().out
    # the write pass that makes the input is simulated, not reported
    assert "Max Read" in out and "Max Write" not in out
    assert "-r" in out.splitlines()[0].split()


def test_cli_read_only_timeline_covers_only_the_reads(tmp_path, capsys):
    """The timeline block of ``-r`` draws no write row, and its window
    count and wire row cover only the windows of the read phases."""
    argv = ["-a", "DFS", "-F", "-b", "2m", "-t", "1m", "-N", "1",
            "--ppn", "2", "--servers", "2", "--timeline-interval", "0.0005",
            "--timeline-out", str(tmp_path / "tl.json")]
    windows = {}
    for phase in ([], ["-r"]):
        assert main(argv + phase) == 0
        out = capsys.readouterr().out
        block = out.split("timeline (", 1)[1]
        windows[tuple(phase)] = int(block.split(" windows", 1)[0])
        rows = [line.split("|")[0].strip() for line in block.splitlines()[1:]]
        assert rows == (["wire B/s", "read p99"] if phase else
                        ["wire B/s", "write p99", "read p99"])
    # the write+read run scrapes every window; -r keeps the reads' three,
    # the last of which the run's end closes off the scrape grid
    assert windows[()] == 6 and windows[("-r",)] == 3


def test_cli_lustre_rejects_daos_apis():
    with pytest.raises(SystemExit):
        main(["-a", "DFS", "--lustre", "-N", "1", "--servers", "2"])

