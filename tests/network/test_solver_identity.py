"""Allocator byte-identity gate at figure scale.

The shipped allocator's float semantics mirror the global-solve oracle
(``tests/network/oracle.py``) operation-for-operation, and every IOR
figure point keeps its flow graph a single connected component (all
flows share client NICs and striped target links).  So the two must
agree *byte-for-byte* on figure outputs — pure float equality, no tolerance — exactly like the cache-off
gate in ``tests/cache/test_cache_determinism.py``.

One fig-1 point (file-per-process) and one fig-2 point (shared file)
are pinned here at the 1-node scale used by the other determinism gates.
Any drift means the shipped allocator's arithmetic diverged from the
oracle and is a bug, not a recalibration.
"""

import contextlib

import pytest

from repro.cluster import nextgenio
from repro.ior import IorParams, run_ior
from tests.network.oracle import ReferenceAllocator, reference_allocator

#: the DFS file-per-process seed figure from test_cache_determinism.py —
#: the shipped allocator must also hit it exactly
DFS_FPP_SEED = (6142348807.511658, 4306533837.826945)


def run_point(file_per_proc, interleaved, oracle=False):
    with reference_allocator() if oracle else contextlib.nullcontext():
        cluster = nextgenio(client_nodes=1)
    allocator = cluster.fabric.flownet._allocator
    assert isinstance(allocator, ReferenceAllocator) == oracle
    params = IorParams(
        api="DFS",
        file_per_proc=file_per_proc,
        interleaved=interleaved,
        oclass="SX",
        block_size="4m",
        transfer_size="1m",
    )
    result = run_ior(cluster, params, ppn=4)
    return result.max_write_bw, result.max_read_bw


@pytest.mark.parametrize(
    "file_per_proc,interleaved",
    [(True, False), (False, True)],
    ids=["fig1-fpp", "fig2-shared"],
)
def test_shipped_byte_identical_to_oracle(file_per_proc, interleaved):
    ref = run_point(file_per_proc, interleaved, oracle=True)
    assert run_point(file_per_proc, interleaved) == ref


def test_shipped_hits_pinned_seed_figure():
    """Transitively pins the shipped allocator against the seed tree:
    the pre-rewrite figures were produced by (what is now) the oracle,
    so the shipped allocator must reproduce them exactly."""
    assert run_point(True, False) == DFS_FPP_SEED
