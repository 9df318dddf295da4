"""Workload execution: one tenant job on the libdaos facade.

Every job runs as one simulator task built from
:mod:`repro.daos.api` task helpers, with its data-plane calls pipelined
through a private :class:`~repro.daos.api.EventQueue` (the PR-5 async
path, ``aio_depth`` operations in flight). When the tenant carries a
QoS :class:`~repro.qos.TokenBucket`, every operation acquires its byte
charge *before* being submitted — token waits are real serving latency
and are charged to the job, exactly like a rate-limited client
observing its own backpressure.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.daos import api as daos
from repro.tenants.spec import (
    KV_KEYSPACE,
    KV_VALUE_BYTES,
    META_OP_BYTES,
    BulkWork,
    KvBurstWork,
    MetaStormWork,
    Work,
)
from repro.units import split_aligned, stable_seed

#: fixed fill byte for KV values (content is irrelevant to timing)
_KV_FILL = b"\x5a"


def tenant_seed(tenant_id: str) -> int:
    """Stable small seed for a tenant's payload patterns (not Python's
    salted ``hash()`` — runs must not depend on PYTHONHASHSEED)."""
    return stable_seed(tenant_id)


class TenantIoContext:
    """Per-tenant serving-side I/O state the dispatcher hands to jobs."""

    __slots__ = ("spec", "cont", "kv", "bucket", "seed", "job_seq",
                 "key_seq", "qos_waited")

    def __init__(self, spec, cont, kv=None, bucket=None):
        self.spec = spec
        self.cont = cont
        self.kv = kv  # shared per-tenant KV index (created at setup)
        self.bucket = bucket  # TokenBucket or None (QoS off)
        self.seed = tenant_seed(spec.id)
        self.job_seq = 0
        self.key_seq = 0
        self.qos_waited = 0.0  # cumulative seconds stalled on tokens


def execute(ctx: TenantIoContext, sim, aio_depth: int) -> Generator:
    """Task helper: run one job of ``ctx``'s workload; returns bytes
    charged to the tenant (the workload's ``qos_bytes``)."""
    work: Work = ctx.spec.workload
    ctx.job_seq += 1
    eq = daos.EventQueue(
        sim, depth=aio_depth,
        name=f"{ctx.spec.id}.j{ctx.job_seq}", metered=False,
    )
    try:
        if isinstance(work, BulkWork):
            nbytes = yield from _bulk(ctx, eq, work)
        elif isinstance(work, KvBurstWork):
            nbytes = yield from _kv_burst(ctx, eq, work)
        elif isinstance(work, MetaStormWork):
            nbytes = yield from _meta_storm(ctx, eq, work)
        else:
            raise daos.DerInval(f"unknown workload {work!r}")
    finally:
        yield from eq.close()
    return nbytes


def _charge(ctx: TenantIoContext, nbytes: float) -> Generator:
    if ctx.bucket is not None:
        ctx.qos_waited += yield from ctx.bucket.acquire(nbytes)
    return None


def _bulk(ctx: TenantIoContext, eq, work: BulkWork) -> Generator:
    """IOR-style streaming transfer on a fresh array object."""
    array = yield from daos.DaosArray.create(ctx.cont, work.xfer)
    try:
        for index, _within, chunk in split_aligned(0, work.nbytes, work.xfer):
            offset = index * work.xfer
            yield from _charge(ctx, chunk)
            payload = daos.PatternPayload(ctx.seed, offset, chunk)
            yield from eq.submit(
                array.write(offset, payload), name=f"array.write@{offset}"
            )
        daos.reap((yield from eq.drain()))
    finally:
        array.close()
    return work.qos_bytes


def _kv_burst(ctx: TenantIoContext, eq, work: KvBurstWork) -> Generator:
    """Small-object burst: put ``n_ops`` keys, then read them back."""
    value = _KV_FILL * KV_VALUE_BYTES
    keys = []
    for _ in range(work.n_ops):
        keys.append(f"{ctx.spec.id}/k{ctx.key_seq % KV_KEYSPACE:04d}")
        ctx.key_seq += 1
    for key in keys:
        yield from _charge(ctx, KV_VALUE_BYTES)
        yield from eq.submit(ctx.kv.put(key, value), name=f"kv.put:{key}")
    daos.reap((yield from eq.drain()))
    for key in keys:
        yield from eq.submit(ctx.kv.get(key), name=f"kv.get:{key}")
    daos.reap((yield from eq.drain()))
    return work.qos_bytes


def _meta_storm(ctx: TenantIoContext, eq, work: MetaStormWork) -> Generator:
    """Object-create storm: OID alloc + first record, ``n_ops`` times."""

    def create_one(tag: int) -> Generator:
        oid = yield from ctx.cont.alloc_oid()
        obj = ctx.cont.open_object(oid)
        try:
            yield from obj.put(b"md", b"a", {"tenant": ctx.spec.id, "n": tag})
        finally:
            obj.close()
        return oid

    for i in range(work.n_ops):
        yield from _charge(ctx, META_OP_BYTES)
        yield from eq.submit(create_one(i), name=f"meta.create:{i}")
    daos.reap((yield from eq.drain()))
    return work.qos_bytes
