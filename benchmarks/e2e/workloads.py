"""The four benchmark workloads, as lists of cells.

A *cell* is one public call into the simulator (``run_ior``,
``Dispatcher.serve`` via ``cluster.run``, or ``run_fdb``).  ``build``
makes every cell's inputs from the seed — before the first timed call,
so construction cost lands in ``setup_s`` — and each cell's ``call``
is the timed region.  ``call`` returns ``(model, attempted, failed,
cluster)``: the modelled outputs that ``pins.json`` pins, the
operation counts behind ``fail_ratio``, and the cluster whose public
``FlowNetwork`` counters and ``sim.now`` the driver reads afterwards.

Why these four (README.md has the long form):

- ``fig1_fpp_dfs``: the paper's headline figure and the ROADMAP item 2
  target; bulk transfers load the flow solver and idle-Raft heartbeats
  while the interface layers do nothing.
- ``ior_interfaces``: the only workload where dfuse, posix, cache, mpi,
  mpiio, hdf5 and vos carry load; an interface-layer gain must show
  only here.
- ``tenants_open_loop``: the same sim/daos/network layers used the
  opposite way — small latency-bound ops, tiny solver components, no
  Raft traffic — the guard against per-op overhead.
- ``fdb_fields``: archive beside retrieve through the async event queue
  and KV/VOS trees, no Raft.  Only its KV cell is free of solver work
  (it opens no flows; the DFS cell's solver share matches
  ``ior_interfaces``), so the bypass for a solver change is that cell's
  ``wall_s`` row in ``--compare``, not the workload total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.cluster import nextgenio, small_cluster
from repro.fdb import FdbParams, run_fdb
from repro.fdb import build_report as fdb_report
from repro.ior import IorParams, run_ior
from repro.tenants import (
    BulkWork,
    Dispatcher,
    KvBurstWork,
    MetaStormWork,
    PoissonArrivals,
    ServingConfig,
    make_tenants,
)
from repro.tenants import build_report as tenants_report
from repro.units import KiB, MiB

#: the seed ``pins.json`` was recorded with
PINNED_SEED = 0xDA05

WORKLOADS = ("fig1_fpp_dfs", "ior_interfaces", "tenants_open_loop", "fdb_fields")

#: workloads with IOR cells, which get a reduced-scale ``verify=True``
#: check run; the other two verify inside their timed runs
CHECKED = ("fig1_fpp_dfs", "ior_interfaces")

#: one-line reasons, copied into BENCHMARK.json
WHY = {
    "fig1_fpp_dfs": "paper Figure 1 row (DFS file-per-process, S1/S2/SX, "
                    "8 and 16 nodes): bulk flows load the solver and idle "
                    "Raft; interface layers idle",
    "ior_interfaces": "paper Figure 2 plus layered interfaces (MPIIO, HDF5, "
                      "HDF5-DAOS shared, cached POSIX, collective MPIIO): "
                      "only workload loading dfuse/mpiio/hdf5/cache",
    "tenants_open_loop": "open loop, 256 tenants x 8 req/s of tiny ops under "
                         "QoS and admission: per-op cost guard, no Raft, "
                         "tiny solver components",
    "fdb_fields": "20k x 4 KiB KV fields then 2k x 1 MiB DFS files, archive "
                  "beside retrieve at depth 8: event queue and VOS trees, no "
                  "Raft; the KV cell alone opens no flows (solver-free)",
}


@dataclass
class Cell:
    id: str
    #: name of the public function the timed region enters (span label)
    public_fn: str
    call: Callable[[], tuple]


# -- IOR ---------------------------------------------------------------------

#: (cell id, client nodes, IorParams overrides); all SX unless stated,
#: 16 MiB block, 1 MiB transfer, 16 ppn, write then read
_FIG1 = (
    ("n8.S1", 8, dict(api="DFS", file_per_proc=True, oclass="S1")),
    ("n8.S2", 8, dict(api="DFS", file_per_proc=True, oclass="S2")),
    ("n8.SX", 8, dict(api="DFS", file_per_proc=True, oclass="SX")),
    # the BENCH_flows.json figure point
    ("n16.SX", 16, dict(api="DFS", file_per_proc=True, oclass="SX")),
)
_INTERFACES = (
    ("n8.MPIIO.shared", 8, dict(api="MPIIO", oclass="SX")),
    ("n8.HDF5.shared", 8, dict(api="HDF5", oclass="SX")),
    ("n8.HDF5-DAOS.shared", 8, dict(api="HDF5-DAOS", oclass="SX")),
    ("n8.POSIX.fpp.writeback", 8,
     dict(api="POSIX", file_per_proc=True, oclass="SX",
          cache_mode="writeback")),
    ("n4.MPIIO.collective", 4,
     dict(api="MPIIO", oclass="SX", collective=True)),
)


def _ior_cell(cell_id: str, nodes: int, overrides: dict, seed: int,
              check: bool) -> Cell:
    if check:
        # reduced scale, correctness on: same code path per interface
        nodes, ppn, block = 2, 4, "4m"
    else:
        ppn, block = 16, "16m"
    cluster = nextgenio(client_nodes=nodes, seed=seed)
    params = IorParams(block_size=block, transfer_size="1m", verify=check,
                       **overrides)

    def call():
        result = run_ior(cluster, params, ppn=ppn)
        phases = {p.op: p for p in result.phases}
        ops = (len(result.phases) * result.nprocs
               * params.transfers_per_block * params.segments)
        model = {
            "write_bw": result.max_write_bw,
            "read_bw": result.max_read_bw,
            "write_s": phases["write"].seconds,
            "read_s": phases["read"].seconds,
            "nprocs": result.nprocs,
            "ops": ops,
            "sim_end": cluster.sim.now,
        }
        return model, ops, result.verify_errors, cluster

    return Cell(cell_id, "repro.ior.run_ior", call)


# -- tenants -----------------------------------------------------------------

#: the benchmarks/bench_tenants.py job mix (kept in step by hand: this
#: directory may import nothing outside src/)
_TENANT_MIX = (
    (BulkWork(nbytes=64 * KiB, xfer=32 * KiB), 2),
    (KvBurstWork(n_ops=4), 1),
    (MetaStormWork(n_ops=2), 1),
)


def _tenants_cell(seed: int) -> Cell:
    fleet = make_tenants(256, rate=8.0, mix=_TENANT_MIX)
    cluster = small_cluster(seed=seed)
    # Open loop in simulated time: arrivals are scheduled exactly, so
    # generator lateness is 0 by construction.  The per-tenant in-flight
    # bound is sized so that admission refuses nothing on any seed (the
    # contract wants workloads on which no operation fails); the QoS
    # budget is 1.25x the bulk tenants' offered rate, so bursts still
    # wait for tokens and the admission bookkeeping is still exercised.
    config = ServingConfig(
        duration=6.0,
        qos_enabled=True,
        default_qos_bw=640 * KiB,
        max_inflight=256,
        max_inflight_per_tenant=16,
    )
    dispatcher = Dispatcher(cluster, fleet, PoissonArrivals(cluster.rng),
                            config)

    def call():
        report = tenants_report(cluster.run(dispatcher.serve()))
        totals, latency = report["totals"], report["latency"]
        model = {
            "arrivals": totals["arrivals"],
            "admitted": totals["admitted"],
            "rejected": totals["rejected"],
            "completed": totals["completed"],
            "bytes": totals["bytes"],
            "p50": latency["p50"],
            "p99": latency["p99"],
            "p999": latency["p999"],
            "fairness_bytes": report["fairness_bytes"],
            "qos_waited": sum(
                t["qos_waited"] for t in report["tenants"].values()
            ),
            "sim_end": report["end_time"],
        }
        failed = totals["failed"] + totals["rejected"]
        return model, totals["arrivals"], failed, cluster

    return Cell("t256.r8.qos", "repro.tenants.Dispatcher.serve", call)


# -- fdb ---------------------------------------------------------------------

_FDB_GRID = dict(n_params=10, n_levels=5, n_steps=10, n_members=4)


def _fdb_cell(cell_id: str, seed: int, **overrides) -> Cell:
    params = FdbParams(depth=8, retrieve_params=("t2m",), seed=seed,
                       **_FDB_GRID, **overrides)

    def call():
        # run_fdb builds its own cluster, so cluster boot is inside this
        # timed region (unlike the IOR and tenants cells)
        result, cluster = run_fdb(params)
        report = fdb_report(result)
        n_fields = report["fields"]
        expect_retrieved = n_fields // params.n_params
        archive, retrieve = report["archive"], report["retrieve"]
        model = {
            "fields": n_fields,
            "archived": archive["fields"],
            "retrieved": retrieve["fields"],
            "archive_bw": archive["bandwidth"],
            "retrieve_bw": retrieve["bandwidth"],
            "archive_p99": archive["latency"]["p99"],
            "retrieve_p99": retrieve["latency"]["p99"],
            "sim_end": report["end_time"],
        }
        # the retriever verifies every payload and raises DerDataLoss on
        # a mismatch, so a field that comes back is a field that verified
        failed = (n_fields - archive["fields"]) + (
            expect_retrieved - retrieve["fields"]
        )
        return model, n_fields + expect_retrieved, failed, cluster

    return Cell(cell_id, "repro.fdb.run_fdb", call)


# -- registry ----------------------------------------------------------------


def build(workload: str, seed: int, check: bool = False) -> List[Cell]:
    """Every cell of ``workload``, inputs made from ``seed``.

    ``check=True`` gives the reduced-scale correctness variant (IOR
    cells at 2 nodes x 4 ppn x 4 MiB with ``verify=True``); tenants and
    FDB cells verify inside their timed runs, so their check variant is
    the workload itself.
    """
    if workload == "fig1_fpp_dfs":
        return [_ior_cell(i, n, kw, seed, check) for i, n, kw in _FIG1]
    if workload == "ior_interfaces":
        return [_ior_cell(i, n, kw, seed, check) for i, n, kw in _INTERFACES]
    if workload == "tenants_open_loop":
        return [_tenants_cell(seed)]
    if workload == "fdb_fields":
        return [
            _fdb_cell("kv.20000x4KiB", seed, backend="kv", n_dates=10,
                      field_bytes=4 * KiB),
            _fdb_cell("dfs.2000x1MiB", seed, backend="dfs", n_dates=1,
                      field_bytes=1 * MiB),
        ]
    raise ValueError(f"unknown workload {workload!r}")
