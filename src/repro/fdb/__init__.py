"""An NWP field database over the simulated storage interfaces.

Facade for the FDB subsystem (DESIGN.md §9)::

    from repro import fdb
    from repro.units import KiB

    params = fdb.FdbParams(backend="kv", n_params=2, n_steps=4,
                           field_bytes=64 * KiB)
    result, cluster = fdb.run_fdb(params)
    print(fdb.render_report(fdb.build_report(result)))

An observed run boots, observes, then drives, as ``repro-fdb`` does::

    cluster = fdb.boot(params)
    cluster.observe(timeline_interval=0.0002)
    result = fdb.archive_and_retrieve(cluster, params)
    report = fdb.build_report(result, store=cluster.sim.timeline.store)

Or piecewise, for custom drivers (chaos tests, benchmarks), as a task::

    def driver(cluster):
        keys = fdb.make_fields(n_params=2, n_steps=4)
        mapping, index = yield from fdb.open_store(cluster, params)
        archiver = fdb.Archiver(cluster.sim, mapping, index, depth=8)
        yield from archiver.setup(keys)
        yield from archiver.archive(keys, params.field_bytes)
        yield from archiver.flush("cycle-001")
        yield from archiver.close()
        retriever = fdb.Retriever(cluster.sim, mapping, index)
        found = yield from retriever.retrieve(fdb.FieldQuery(param="t2m"))
        mapping.close()
        index.close()
        return found

    cluster = fdb.boot(params)
    found = cluster.run(driver(cluster))
"""

from repro.fdb.archiver import ARCHIVE_SPAN, Archiver
from repro.fdb.index import KvIndex, TreeIndex
from repro.fdb.mapping import (
    ArrayPerField,
    DfsNamespace,
    FilePerField,
    KvValueField,
    LustreNamespace,
    field_dir,
    field_file,
)
from repro.fdb.report import build_report, render_report
from repro.fdb.retriever import RETRIEVE_SPAN, Retriever
from repro.fdb.run import (
    BACKENDS,
    DAOS_BACKENDS,
    FdbParams,
    archive_and_retrieve,
    boot,
    default_index,
    open_store,
    run_fdb,
)
from repro.fdb.schema import (
    AXES,
    FieldKey,
    FieldQuery,
    PARAM_NAMES,
    make_fields,
)

__all__ = [
    "ARCHIVE_SPAN",
    "AXES",
    "Archiver",
    "ArrayPerField",
    "BACKENDS",
    "DAOS_BACKENDS",
    "DfsNamespace",
    "FdbParams",
    "FieldKey",
    "FieldQuery",
    "FilePerField",
    "KvIndex",
    "KvValueField",
    "LustreNamespace",
    "PARAM_NAMES",
    "RETRIEVE_SPAN",
    "Retriever",
    "TreeIndex",
    "archive_and_retrieve",
    "boot",
    "build_report",
    "default_index",
    "field_dir",
    "field_file",
    "make_fields",
    "open_store",
    "render_report",
    "run_fdb",
]
