"""An NWP field database over the simulated storage interfaces.

Facade for the FDB subsystem (DESIGN.md §14)::

    from repro import fdb

    result, cluster = fdb.run_fdb(fdb.FdbParams(
        backend="kv", n_params=4, n_steps=8, field_bytes=2 * MiB,
    ))
    report = fdb.build_report(result)

Or piecewise, for custom drivers (chaos tests, benchmarks)::

    keys = fdb.make_fields(n_params=2, n_steps=4)
    mapping = fdb.make_mapping("array")
    index = fdb.make_index("kv", "array")
    archiver = fdb.Archiver(ctx, mapping, index, depth=8)
    ...
    retriever = fdb.Retriever(ctx, mapping, index)
    keys = yield from retriever.retrieve(fdb.FieldQuery(param="t2m"))
"""

from repro.fdb.archiver import ARCHIVE_SPAN, Archiver
from repro.fdb.index import (
    DfsTreeIndex,
    FdbIndex,
    KvIndex,
    LustreTreeIndex,
    make_index,
)
from repro.fdb.mapping import (
    ArrayPerField,
    DfsFilePerField,
    FdbContext,
    FieldMapping,
    KvValueField,
    LustreFilePerField,
    MAPPINGS,
    field_dir,
    field_file,
    make_mapping,
)
from repro.fdb.report import build_report, render_report
from repro.fdb.retriever import RETRIEVE_SPAN, Retriever
from repro.fdb.run import (
    BACKENDS,
    DAOS_BACKENDS,
    FdbParams,
    default_index,
    run_fdb,
    setup_context,
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
    "DfsFilePerField",
    "DfsTreeIndex",
    "FdbContext",
    "FdbIndex",
    "FdbParams",
    "FieldKey",
    "FieldMapping",
    "FieldQuery",
    "KvIndex",
    "KvValueField",
    "LustreFilePerField",
    "LustreTreeIndex",
    "MAPPINGS",
    "PARAM_NAMES",
    "RETRIEVE_SPAN",
    "Retriever",
    "build_report",
    "default_index",
    "field_dir",
    "field_file",
    "make_fields",
    "make_index",
    "make_mapping",
    "render_report",
    "run_fdb",
    "setup_context",
]
