"""One-shot FDB runs: boot, archive a field grid, flush, retrieve back.

:func:`run_fdb` is the driver the benchmarks and the tests share, and
the CLI calls its two halves with the shared observability front door
in between: :func:`boot` builds the cluster the backend needs (DAOS, or
Lustre for the parallel-filesystem contrast); :func:`archive_and_retrieve`
archives a deterministic ``param x level x step x member x date`` grid
through the chosen field mapping, lands a flush landmark, then expands
per-parameter queries and scatter-reads the fields back. It returns a
plain-dict result that :func:`repro.fdb.report.build_report` turns into
the run report.

Determinism contract: the result is a pure function of
:class:`FdbParams` — same params, same seed, byte-identical report and
timeline JSON (pinned by ``tests/fdb`` and the e2e ``fdb_fields`` pins).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Generator, List, Optional, Tuple

from repro.cluster import build_system
from repro.daos.api import DaosKV
from repro.daos.oclass import oclass_by_name
from repro.errors import DerInval
from repro.fdb.archiver import ARCHIVE_SPAN, Archiver
from repro.fdb.index import KvIndex, TreeIndex
from repro.fdb.mapping import (
    ArrayPerField,
    DfsNamespace,
    FilePerField,
    KvValueField,
    LustreNamespace,
)
from repro.fdb.retriever import RETRIEVE_SPAN, Retriever
from repro.fdb.schema import FieldQuery, check_grid, grid_params, make_fields
from repro.obs.breakdown import layer_breakdown
from repro.units import MiB

#: backends that store data on a DAOS cluster
DAOS_BACKENDS = ("kv", "array", "dfs")
BACKENDS = DAOS_BACKENDS + ("lustre",)


def default_index(backend: str) -> str:
    """The index each backend pairs with by default: the KV index for
    native-object mappings, the directory tree for file-per-field ones."""
    return "kv" if backend in ("kv", "array") else "tree"


@dataclass(frozen=True)
class FdbParams:
    """Everything one FDB run depends on."""

    backend: str = "kv"
    index: str = ""              # "" -> default_index(backend)
    n_params: int = 4
    n_levels: int = 1
    n_steps: int = 4
    n_members: int = 1
    n_dates: int = 1
    field_bytes: int = 2 * MiB
    depth: int = 8
    sync: bool = False
    verify: bool = True
    server_nodes: int = 2
    client_nodes: int = 1
    oclass: str = "SX"
    chunk_bytes: int = MiB
    seed: int = 0xDA05
    #: parameters to retrieve (one query per name); () retrieves every
    #: parameter the grid archived
    retrieve_params: Tuple[str, ...] = ()
    tracing: bool = False
    timeline_interval: Optional[float] = None
    slo_rules: Tuple[str, ...] = ()

    def resolved_index(self) -> str:
        return self.index or default_index(self.backend)

    def validate(self) -> None:
        if self.backend not in BACKENDS:
            raise DerInval(
                f"unknown backend {self.backend!r} (one of {list(BACKENDS)})"
            )
        if self.backend == "lustre" and self.resolved_index() != "tree":
            raise DerInval("the lustre backend has no KV index to use")
        if self.field_bytes < 1:
            raise DerInval("field_bytes must be >= 1")
        if self.depth < 1:
            raise DerInval("depth must be >= 1")
        check_grid(self.n_params, self.n_levels, self.n_steps,
                   self.n_members, self.n_dates)
        if self.retrieve_params:
            archived = grid_params(self.n_params)
            for name in self.retrieve_params:
                if name not in archived:
                    raise DerInval(f"cannot retrieve {name!r}: not one of "
                                   f"the {len(archived)} archived params")
        oclass_by_name(self.oclass)  # unknown class -> DerInval


def boot(params: FdbParams):
    """Validate ``params`` (``DerInval`` on a bad combination), then build
    the cluster the backend stores on: Lustre for the parallel-filesystem
    contrast, DAOS otherwise."""
    params.validate()
    return build_system(params.backend == "lustre", params.server_nodes,
                        params.client_nodes, params.seed)


def open_store(cluster, params: FdbParams) -> Generator:
    """Task helper: connect and create what the backend and index use,
    in a fixed order — pool, container, DFS mount, data KV, index KV —
    and return the ``(mapping, index)`` pair. Closing both releases it
    all."""
    tree = params.resolved_index() == "tree"
    if params.backend == "lustre":
        namespace = LustreNamespace(cluster.mount(0))
        return FilePerField(namespace), TreeIndex(namespace)
    client = cluster.new_client(0)
    pool = yield from client.connect_pool("tank")
    cont = yield from pool.create_container("fdb", oclass=params.oclass)
    oclass = oclass_by_name(params.oclass)
    if params.backend == "dfs" or tree:
        from repro.dfs import Dfs

        namespace = DfsNamespace((yield from Dfs.mount(cont)))
    if params.backend == "kv":
        mapping = KvValueField((yield from DaosKV.create(cont, oclass)))
    elif params.backend == "array":
        mapping = ArrayPerField(cont, oclass, params.chunk_bytes)
    else:
        mapping = FilePerField(namespace, params.chunk_bytes)
    if tree:
        return mapping, TreeIndex(namespace)
    return mapping, KvIndex((yield from DaosKV.create(cont, oclass)))


def run_fdb(params: FdbParams):
    """Boot, archive, flush, retrieve; returns ``(result, cluster)``."""
    cluster = boot(params)
    if params.tracing or params.timeline_interval is not None:
        cluster.observe(
            tracing=params.tracing,
            metrics=True,
            timeline_interval=params.timeline_interval,
            slo_rules=list(params.slo_rules) or None,
        )
    return archive_and_retrieve(cluster, params), cluster


def archive_and_retrieve(cluster, params: FdbParams) -> dict:
    """Drive one run on a booted (and, if wanted, observed) cluster:
    archive the grid, land a flush landmark, retrieve it back by
    per-parameter queries; returns the plain-dict result."""
    keys = make_fields(
        n_params=params.n_params,
        n_levels=params.n_levels,
        n_steps=params.n_steps,
        n_members=params.n_members,
        n_dates=params.n_dates,
    )
    query_params = params.retrieve_params or sorted(
        grid_params(params.n_params)
    )
    queries = [FieldQuery(param=name) for name in query_params]

    def driver():
        sim = cluster.sim
        mapping, index = yield from open_store(cluster, params)
        archiver = Archiver(
            sim, mapping, index, depth=params.depth, sync=params.sync
        )
        yield from archiver.setup(keys)
        t0 = sim.now
        yield from archiver.archive(keys, params.field_bytes)
        landmark = yield from archiver.flush("cycle-001")
        archive_wall = sim.now - t0
        yield from archiver.close()

        retriever = Retriever(
            sim, mapping, index, depth=params.depth, sync=params.sync,
            verify=params.verify,
        )
        t1 = sim.now
        matched: List = []
        for query in queries:
            matched.extend((yield from retriever.retrieve(query)))
        retrieve_wall = sim.now - t1
        mapping.close()
        index.close()
        return archiver, retriever, landmark, archive_wall, retrieve_wall, matched

    archiver, retriever, landmark, archive_wall, retrieve_wall, matched = (
        cluster.run(driver())
    )

    tracer = cluster.sim.tracer

    def phase(worker, wall: float, span: str) -> dict:
        return {
            "wall": wall,
            "fields": worker.fields,
            "bytes": worker.bytes,
            "latencies": list(worker.latencies),
            "breakdown": (
                layer_breakdown(tracer.spans, span, wall)
                if tracer is not None else None
            ),
        }

    return {
        "config": {**asdict(params), "index": params.resolved_index()},
        "n_fields": len(keys),
        "archive": phase(archiver, archive_wall, ARCHIVE_SPAN),
        "retrieve": phase(retriever, retrieve_wall, RETRIEVE_SPAN),
        "matched": [key.canonical for key in matched],
        "landmarks": [landmark],
        "end_time": cluster.sim.now,
    }
