"""Cache-off byte-identity: the zero-cost guarantee, pinned.

The subsystem's acceptance bar is that the default ``none`` mode leaves
every simulated timing untouched — these figures were captured on the
seed tree *before* repro.cache existed and must stay bit-exact (pure
float equality, no tolerance). Any drift means a disabled-path
perturbation and is a bug, not a recalibration.

The second half pins that cached runs are themselves deterministic:
same seed + same config => identical bandwidth, twice.
"""

import pytest

from repro.cluster import nextgenio
from repro.ior import IorParams, run_ior

#: (api, file_per_proc, interleaved) -> (write_bw, read_bw), captured at
#: commit c446e9d (pre-cache seed): 1 client node, 4m block, 1m
#: transfer, ppn 4, oclass SX.
SEED_FIGURES = {
    ("POSIX", True, False): (6024349749.956886, 4248193884.219982),
    ("DFS", True, False): (6142348807.511658, 4306533837.826945),
    ("POSIX", False, True): (6129249588.669746, 4248193884.219982),
    ("MPIIO", True, False): (6010942525.4891, 4241522557.070989),
    ("HDF5", True, False): (1641572949.8746657, 1876602550.7834647),
}


def run_point(api, fpp, interleaved, cache_mode="none"):
    cluster = nextgenio(client_nodes=1)
    params = IorParams(
        api=api,
        file_per_proc=fpp,
        interleaved=interleaved,
        oclass="SX",
        block_size="4m",
        transfer_size="1m",
        cache_mode=cache_mode,
    )
    result = run_ior(cluster, params, ppn=4)
    return result.max_write_bw, result.max_read_bw


@pytest.mark.parametrize("api,fpp,interleaved", sorted(SEED_FIGURES))
def test_cache_off_figures_byte_identical_to_seed(api, fpp, interleaved):
    assert run_point(api, fpp, interleaved) == SEED_FIGURES[
        (api, fpp, interleaved)
    ]


@pytest.mark.parametrize("mode", ["readonly", "writeback"])
def test_cached_runs_are_deterministic(mode):
    first = run_point("POSIX", True, False, cache_mode=mode)
    second = run_point("POSIX", True, False, cache_mode=mode)
    assert first == second


def test_writeback_improves_dfuse_fpp_write_bandwidth():
    """The acceptance-criteria claim, at figure scale: DFuse (POSIX api)
    file-per-process writes must get measurably faster in writeback."""
    base_w, base_r = run_point("POSIX", True, False, cache_mode="none")
    wb_w, wb_r = run_point("POSIX", True, False, cache_mode="writeback")
    assert wb_w > base_w * 1.2, (wb_w, base_w)
    assert wb_r >= base_r  # reads never regress
    # readonly leaves the write path untouched: pass-through bandwidth
    ro_w, ro_r = run_point("POSIX", True, False, cache_mode="readonly")
    assert abs(ro_w - base_w) / base_w < 0.05
    assert ro_r >= base_r
