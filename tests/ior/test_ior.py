"""IOR port tests: every backend, both modes, verification, timing."""

import pytest

from repro.cluster import build_lustre_cluster, small_cluster
from repro.errors import DerInval, FsError, SimulationError
from repro.hardware.specs import EngineSpec
from repro.ior import IorParams, run_ior
from repro.units import KiB, MiB


@pytest.fixture()
def cluster():
    return small_cluster(server_nodes=2, client_nodes=2, targets_per_engine=2)


SMALL = dict(block_size=2 * MiB, transfer_size=256 * KiB)


def test_params_validation():
    with pytest.raises(ValueError):
        IorParams(api="NFS")
    with pytest.raises(ValueError):
        IorParams(block_size="1m", transfer_size="300k")
    with pytest.raises(ValueError):
        IorParams(collective=True, api="DFS")
    with pytest.raises(ValueError):
        IorParams(interleaved=True, file_per_proc=True)
    params = IorParams(block_size="1m", transfer_size="256k")
    assert params.transfers_per_block == 4
    assert "ior" in params.cli()


def test_offset_layouts():
    params = IorParams(block_size=4 * KiB, transfer_size=KiB)
    # shared segmented: rank blocks contiguous within a segment
    assert params.offset(4, 0, 0, 0) == 0
    assert params.offset(4, 1, 0, 0) == 4 * KiB
    assert params.offset(4, 0, 1, 0) == 16 * KiB
    assert params.offset(4, 2, 0, 3) == 8 * KiB + 3 * KiB
    # fpp
    fpp = IorParams(block_size=4 * KiB, transfer_size=KiB, file_per_proc=True)
    assert fpp.offset(4, 3, 0, 2) == 2 * KiB
    assert fpp.offset(4, 3, 1, 0) == 4 * KiB
    assert fpp.file_path(3).endswith("00000003")
    # interleaved (io500-hard style)
    hard = IorParams(block_size=4 * KiB, transfer_size=KiB, interleaved=True)
    assert hard.offset(4, 0, 0, 0) == 0
    assert hard.offset(4, 1, 0, 0) == KiB
    assert hard.offset(4, 0, 0, 1) == 4 * KiB


@pytest.mark.parametrize(
    "api", ["POSIX", "DFS", "MPIIO", "HDF5", "DAOS", "HDF5-DAOS"]
)
def test_fpp_write_read_verify(cluster, api):
    params = IorParams(
        api=api, file_per_proc=True, verify=True, oclass="S2", **SMALL
    )
    result = run_ior(cluster, params, ppn=2)
    assert result.nprocs == 4
    assert result.verify_errors == 0
    assert result.max_write_bw > 0
    assert result.max_read_bw > 0


@pytest.mark.parametrize(
    "api", ["POSIX", "DFS", "MPIIO", "HDF5", "DAOS", "HDF5-DAOS"]
)
def test_shared_file_write_read_verify(cluster, api):
    params = IorParams(api=api, verify=True, oclass="SX", **SMALL)
    result = run_ior(cluster, params, ppn=2)
    assert result.verify_errors == 0
    assert result.max_write_bw > 0


def test_collective_mpiio_shared(cluster):
    params = IorParams(api="MPIIO", collective=True, verify=True, **SMALL)
    result = run_ior(cluster, params, ppn=2)
    assert result.verify_errors == 0


def test_collective_hdf5_shared(cluster):
    params = IorParams(api="HDF5", collective=True, verify=True, **SMALL)
    result = run_ior(cluster, params, ppn=2)
    assert result.verify_errors == 0


@pytest.mark.parametrize("file_per_proc", [True, False])
def test_hdf5_daos_async_pipelines_and_verifies(cluster, file_per_proc):
    params = IorParams(
        api="HDF5-DAOS", file_per_proc=file_per_proc, verify=True,
        fsync=True, oclass="S2", aio_queue_depth=4, **SMALL,
    )
    result = run_ior(cluster, params, ppn=2)
    assert result.verify_errors == 0
    assert result.max_write_bw > 0


def test_mpiio_collective_async_verifies(cluster):
    params = IorParams(
        api="MPIIO", collective=True, verify=True, aio_queue_depth=4, **SMALL
    )
    result = run_ior(cluster, params, ppn=2)
    assert result.verify_errors == 0


def test_hdf5_collective_async_verifies(cluster):
    params = IorParams(
        api="HDF5", collective=True, verify=True, aio_queue_depth=4, **SMALL
    )
    result = run_ior(cluster, params, ppn=2)
    assert result.verify_errors == 0


def test_segments_and_fsync(cluster):
    params = IorParams(
        api="DFS", segments=3, fsync=True, verify=True, oclass="S2",
        block_size=MiB, transfer_size=256 * KiB,
    )
    result = run_ior(cluster, params, ppn=2)
    assert result.verify_errors == 0
    phase = result.phases[0]
    assert phase.nbytes == 3 * MiB * 4


def test_repetitions_reported(cluster):
    params = IorParams(api="DFS", repetitions=2, oclass="S2", **SMALL)
    result = run_ior(cluster, params, ppn=1)
    assert len([p for p in result.phases if p.op == "write"]) == 2
    assert len([p for p in result.phases if p.op == "read"]) == 2
    assert "Max Write" in result.summary()


def test_write_only_and_read_requires_data(cluster):
    params = IorParams(api="DFS", read=False, oclass="S2", **SMALL)
    result = run_ior(cluster, params, ppn=2)
    assert result.max_read_bw == 0
    assert [p.op for p in result.phases] == ["write"]


def test_interleaved_layout_verifies(cluster):
    params = IorParams(
        api="DFS", interleaved=True, verify=True, oclass="SX", **SMALL
    )
    result = run_ior(cluster, params, ppn=2)
    assert result.verify_errors == 0


def test_reorder_tasks_off(cluster):
    params = IorParams(
        api="DFS", file_per_proc=True, reorder_tasks=False, verify=True,
        oclass="S2", **SMALL,
    )
    result = run_ior(cluster, params, ppn=2)
    assert result.verify_errors == 0


def test_ior_on_lustre():
    lustre = build_lustre_cluster(
        server_nodes=2, client_nodes=2, engine_spec=EngineSpec(targets=2)
    )
    params = IorParams(api="POSIX", file_per_proc=True, verify=True, **SMALL)
    result = run_ior(lustre, params, ppn=2)
    assert result.verify_errors == 0
    assert result.max_write_bw > 0


def test_ior_mpiio_on_lustre():
    lustre = build_lustre_cluster(
        server_nodes=2, client_nodes=2, engine_spec=EngineSpec(targets=2)
    )
    params = IorParams(api="MPIIO", collective=True, verify=True, **SMALL)
    result = run_ior(lustre, params, ppn=2)
    assert result.verify_errors == 0


def test_lustre_prepare_swallows_only_eexist():
    lustre = build_lustre_cluster(
        server_nodes=2, client_nodes=1, engine_spec=EngineSpec(targets=2)
    )
    params = IorParams(api="POSIX", file_per_proc=True, **SMALL)
    run_ior(lustre, params, ppn=2)
    # the test directory survives the first run: EEXIST is not an error
    assert run_ior(lustre, params, ppn=2).max_write_bw > 0
    # a missing parent is: the real mkdir error surfaces from prepare,
    # not an unrelated open() failure in some rank later
    orphan = IorParams(api="POSIX", file_per_proc=True,
                       test_dir="/missing/parent/ior", **SMALL)
    with pytest.raises(SimulationError) as raised:
        run_ior(lustre, orphan, ppn=2)
    cause = raised.value.__cause__
    assert isinstance(cause, FsError) and cause.errno_name == "ENOENT"
    assert "prepare" in str(raised.value)


def test_params_reject_unknown_object_class():
    with pytest.raises(DerInval, match="unknown object class 'ZZ'"):
        IorParams(api="DFS", oclass="ZZ")
    assert IorParams(api="DFS", oclass="s2").oclass == "s2"


def test_bandwidth_is_finite_and_sane(cluster):
    params = IorParams(api="DFS", file_per_proc=True, oclass="S2", **SMALL)
    result = run_ior(cluster, params, ppn=2)
    # cannot exceed the aggregate client NIC capacity (2 nodes x 22 GB/s)
    assert result.max_write_bw < 44e9
    assert result.max_read_bw < 44e9
