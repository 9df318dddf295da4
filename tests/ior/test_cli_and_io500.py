"""Tests for the IOR CLI, pool query, and the IO500-style harness."""

import pytest

from repro.bench.io500 import HARD_XFER, Io500Result, run_io500
from repro.cluster import small_cluster
from repro.ior.cli import build_parser, main, params_from_args
from repro.units import GiB, MiB


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
    assert "Max Read" in capsys.readouterr().out


def test_cli_lustre_rejects_daos_apis():
    with pytest.raises(SystemExit):
        main(["-a", "DFS", "--lustre", "-N", "1", "--servers", "2"])


def test_pool_query_accounts_usage():
    cluster = small_cluster(server_nodes=2, client_nodes=1,
                            targets_per_engine=2)
    client = cluster.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        before = yield from pool.query()
        cont = yield from pool.create_container("space", oclass="S2")
        oid = yield from cont.alloc_oid()
        obj = cont.open_object(oid)
        yield from obj.write(0, b"z" * (4 * MiB))
        obj.close()
        after = yield from pool.query()
        return before, after

    before, after = cluster.run(go())
    assert before["targets"] == 8
    assert after["capacity"] == before["capacity"]
    assert after["used"] >= before["used"] + 4 * MiB
    assert len(after["per_target"]) == 8


def test_io500_scoring_math():
    result = Io500Result(
        bandwidth={"a": 4 * GiB, "b": 16 * GiB},
        metadata={"c": 1e3, "d": 100e3},
    )
    assert result.bw_score == pytest.approx(8.0)
    assert result.md_score == pytest.approx(10.0)
    assert result.score == pytest.approx((8.0 * 10.0) ** 0.5)


def test_io500_harness_runs_all_phases():
    cluster = small_cluster(server_nodes=2, client_nodes=2,
                            targets_per_engine=2)
    result = run_io500(cluster, ppn=2, easy_block="1m",
                       hard_transfers=8, md_files=8)
    assert set(result.bandwidth) == {
        "ior-easy-write", "ior-easy-read",
        "ior-hard-write", "ior-hard-read",
    }
    assert set(result.metadata) == {
        "mdtest-create", "mdtest-stat", "mdtest-remove",
    }
    assert result.score > 0
    assert "SCORE" in result.summary()
    # the lockless hard path: 47008-byte ops are overhead-bound, but the
    # hard/easy write ratio does not collapse (EXPERIMENTS.md E3)
    assert (result.bandwidth["ior-hard-write"]
            > 0.1 * result.bandwidth["ior-easy-write"])
    # the famously unaligned hard transfer really is unaligned
    assert HARD_XFER % 4096 != 0
