"""Event budget of one small FDB run per backend/index pairing.

The count is the simulator's heap pushes (``sim._seq``) from the moment
:func:`run_fdb` builds its cluster, so boot, archive, flush and retrieve
all land in it, and so do the pushes that bypass ``Simulator.schedule``
(flow completions, zero-delay wake-ups). A refactor of the placement
layer that adds or drops a single event, or moves simulated time,
fails here.
"""

import pytest

from repro.fdb import FdbParams, run_fdb
from repro.units import KiB

GRID = dict(n_params=2, n_steps=3, field_bytes=64 * KiB, depth=4)

#: (backend, index, sync) -> (heap pushes, end_time)
BUDGET = {
    ("kv", "kv", False): (676, 0.1818096539797976),
    ("kv", "kv", True): (648, 0.18235763539393884),
    ("array", "kv", False): (736, 0.1824543825454542),
    ("array", "kv", True): (708, 0.18422032727272675),
    ("dfs", "tree", False): (3569, 0.18638720122727148),
    ("dfs", "tree", True): (3541, 0.19556886818181463),
    ("dfs", "kv", False): (2256, 0.1843210439999991),
    ("dfs", "kv", True): (2228, 0.1890660498181797),
    ("lustre", "tree", False): (331, 0.0033570989066754446),
    ("lustre", "tree", True): (277, 0.006005748696969712),
    ("kv", "tree", False): (2009, 0.1839456305252518),
    ("kv", "tree", True): (1981, 0.18893027303030116),
    ("array", "tree", False): (2069, 0.18459036886363572),
    ("array", "tree", True): (2041, 0.19079297472727066),
}


@pytest.mark.parametrize(
    "backend,index,sync", BUDGET,
    ids=[f"{b}-{i}-{'sync' if s else 'async'}" for b, i, s in BUDGET],
)
def test_schedule_calls_and_end_time_are_pinned(backend, index, sync):
    # every scheduled event counts, whether or not it went through
    # Simulator.schedule: the heap's push counter
    result, cluster = run_fdb(
        FdbParams(backend=backend, index=index, sync=sync, **GRID)
    )
    pushes = cluster.sim._seq
    assert (pushes, result["end_time"]) == BUDGET[backend, index, sync]
