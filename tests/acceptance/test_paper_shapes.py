"""Acceptance tests: the paper's qualitative results must reproduce.

These run the real benchmark pipeline at reduced scale (16 MiB blocks,
1 and 8 client nodes) and assert the *shape* claims from DESIGN.md §4.
The paper-scale sweep is ``make experiments`` (EXPERIMENTS.md); the
ablation and extension claims are in ``test_ablations.py``.
"""

import pytest

from repro.cluster import build_lustre_cluster, nextgenio
from repro.ior import IorParams, run_ior


def point(nodes, api, oclass, fpp=True, block="16m", interleaved=False,
          transfer="1m", cluster=None, ppn=16, **ior):
    cluster = cluster or nextgenio(client_nodes=nodes)
    params = IorParams(
        api=api, file_per_proc=fpp, oclass=oclass, block_size=block,
        transfer_size=transfer, interleaved=interleaved, **ior,
    )
    result = run_ior(cluster, params, ppn=ppn)
    return result.max_write_bw, result.max_read_bw


@pytest.fixture(scope="module")
def fpp_small():
    """DFS S1/S2/SX at 1 client node."""
    return {oc: point(1, "DFS", oc) for oc in ("S1", "S2", "SX")}


@pytest.fixture(scope="module")
def fpp_large():
    """DFS S1/S2/SX at 8 client nodes (the 'most client nodes' regime)."""
    return {oc: point(8, "DFS", oc) for oc in ("S1", "S2", "SX")}


def test_fig1b_s2_best_write_for_few_writers(fpp_small):
    writes = {oc: w for oc, (w, _r) in fpp_small.items()}
    assert writes["S2"] > writes["S1"]
    assert writes["S2"] > writes["SX"]


def test_fig1b_sx_lowest_for_few_writers(fpp_small):
    writes = {oc: w for oc, (w, _r) in fpp_small.items()}
    assert writes["SX"] < writes["S1"]
    assert writes["SX"] < writes["S2"]


def test_fig1b_sx_best_write_under_high_contention(fpp_large):
    writes = {oc: w for oc, (w, _r) in fpp_large.items()}
    assert writes["SX"] > writes["S2"]
    assert writes["SX"] > writes["S1"]


def test_fig1a_s2_best_read(fpp_small, fpp_large):
    for data in (fpp_small, fpp_large):
        reads = {oc: r for oc, (_w, r) in data.items()}
        assert reads["S2"] >= reads["S1"] * 0.98
        assert reads["S2"] > reads["SX"]


def test_fig1_dfs_and_mpiio_similar_hdf5_much_lower():
    dfs_w, dfs_r = point(1, "DFS", "S2")
    mpiio_w, mpiio_r = point(1, "MPIIO", "S2")
    hdf5_w, hdf5_r = point(1, "HDF5", "S2")
    # DFS ~ MPI-IO over DFuse (within 10%)
    assert abs(dfs_w - mpiio_w) / dfs_w < 0.10
    assert abs(dfs_r - mpiio_r) / dfs_r < 0.10
    # HDF5 over DFuse much lower, both directions
    assert hdf5_w < 0.55 * dfs_w
    assert hdf5_r < 0.55 * dfs_r


def test_fig2_interfaces_similar_dfs_highest_write():
    results = {
        api: point(4, api, "SX", fpp=False)
        for api in ("DFS", "MPIIO", "HDF5")
    }
    writes = {api: w for api, (w, _r) in results.items()}
    reads = {api: r for api, (_w, r) in results.items()}
    assert writes["DFS"] == max(writes.values())
    # "similar performance achieved across interfaces"
    assert min(writes.values()) > 0.65 * max(writes.values())
    assert min(reads.values()) > 0.65 * max(reads.values())


def test_shared_file_close_to_file_per_process_on_daos():
    fpp_w, fpp_r = point(4, "DFS", "SX", fpp=True)
    shared_w, shared_r = point(4, "DFS", "SX", fpp=False)
    assert 0.6 * fpp_w < shared_w < 1.7 * fpp_w
    assert 0.6 * fpp_r < shared_r < 1.7 * fpp_r


def test_stark_contrast_with_parallel_filesystem():
    """DAOS hard/easy ratio far above Lustre hard/easy ratio."""
    daos_fpp_w, _ = point(2, "DFS", "SX", fpp=True)
    daos_shared_w, _ = point(2, "DFS", "SX", fpp=False, interleaved=True)

    lustre = build_lustre_cluster(server_nodes=8, client_nodes=2,
                                  stripe_count=8)
    lustre_fpp_w, _ = point(2, "POSIX", None, fpp=True, cluster=lustre)
    lustre2 = build_lustre_cluster(server_nodes=8, client_nodes=2,
                                   stripe_count=8)
    # unaligned interleaved shared write: the LDLM worst case
    lustre_shared_w, _ = point(
        2, "POSIX", None, fpp=False, cluster=lustre2,
        interleaved=True, block="16000000", transfer="1000000",
    )
    daos_ratio = daos_shared_w / daos_fpp_w
    lustre_ratio = lustre_shared_w / lustre_fpp_w
    assert daos_ratio > 0.6
    assert lustre_ratio < 0.5
    assert daos_ratio > 2 * lustre_ratio
