"""Tenant and workload specifications for the serving layer.

A *tenant* is one logical user of the shared storage system: an
identity, an offered-load description (arrival rate + workload shape),
and optional QoS terms (a byte-rate budget enforced by a
:class:`~repro.qos.TokenBucket`). Workloads come in the three shapes
the ECMWF follow-up papers observe contending on shared DAOS pools:

* :class:`BulkWork` — an IOR-style streaming transfer: one fresh array
  object, written (and optionally read back) in ``xfer``-sized pieces,
  pipelined through an event queue.
* :class:`KvBurstWork` — a burst of small-object KV puts/gets against
  the tenant's own KV index (the FDB field-index pattern).
* :class:`MetaStormWork` — a metadata storm: a run of object creates
  (OID allocation + first record), the mdtest-shaped load that stresses
  the metadata path rather than the wire.

Specs are plain frozen dataclasses so a tenant fleet is hashable,
comparable and trivially serialisable; :func:`make_tenants` builds a
deterministic fleet (round-robin over a weighted mix — no RNG, so the
fleet composition never perturbs seeded arrival draws).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import DerInval
from repro.units import KiB, MiB

#: Nominal QoS byte charge for one metadata op (OID alloc + record).
META_OP_BYTES = 4 * KiB
#: Bytes of each KV-burst value.
KV_VALUE_BYTES = 256
#: Distinct keys a KV-burst tenant cycles through.
KV_KEYSPACE = 64


@dataclass(frozen=True)
class BulkWork:
    """IOR-style bulk transfer: ``nbytes`` written in ``xfer`` pieces."""

    nbytes: int = 256 * KiB
    xfer: int = 64 * KiB

    kind = "bulk"

    @property
    def qos_bytes(self) -> int:
        return self.nbytes


@dataclass(frozen=True)
class KvBurstWork:
    """Small-object KV burst: ``n_ops`` puts then reads of the same keys."""

    n_ops: int = 8

    kind = "kv"

    @property
    def qos_bytes(self) -> int:
        return self.n_ops * KV_VALUE_BYTES


@dataclass(frozen=True)
class MetaStormWork:
    """Metadata storm: ``n_ops`` object creates (OID alloc + record)."""

    n_ops: int = 8

    kind = "meta"

    @property
    def qos_bytes(self) -> int:
        return self.n_ops * META_OP_BYTES


Work = Union[BulkWork, KvBurstWork, MetaStormWork]

#: The default mixed fleet: mostly bulk, a KV-burst population, and a
#: metadata-storm population — the "many mixed workloads" regime.
DEFAULT_MIX: Tuple[Tuple[Work, int], ...] = (
    (BulkWork(), 2),
    (KvBurstWork(), 1),
    (MetaStormWork(), 1),
)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: identity, offered load, and QoS terms."""

    id: str
    workload: Work = field(default_factory=BulkWork)
    #: open-loop arrival rate, jobs per simulated second
    rate: float = 2.0
    #: byte-rate budget when QoS is on (None -> serving default)
    qos_bw: Optional[float] = None
    #: token burst when QoS is on (None -> serving default)
    qos_burst: Optional[float] = None

    def __post_init__(self):
        if not self.id or any(ch in self.id for ch in ",{}= "):
            raise DerInval(
                f"tenant id {self.id!r} must be non-empty and free of "
                "metric-label reserved characters"
            )
        if self.rate <= 0:
            raise DerInval(f"tenant {self.id}: rate must be positive")


def make_tenants(
    n: int,
    rate: float = 2.0,
    mix: Sequence[Tuple[Work, int]] = DEFAULT_MIX,
) -> List[TenantSpec]:
    """A deterministic fleet of ``n`` tenants.

    Workloads are dealt round-robin from the weighted ``mix`` (weights
    are small integers: a ``(work, 2)`` entry appears twice per cycle),
    so fleet composition is a pure function of the arguments.
    """
    if n <= 0:
        raise DerInval(f"tenant count must be positive, got {n}")
    cycle: List[Work] = []
    for work, weight in mix:
        if weight < 0:
            raise DerInval(f"mix weight must be >= 0, got {weight}")
        cycle.extend([work] * weight)
    if not cycle:
        raise DerInval("tenant mix is empty")
    width = len(str(n - 1))
    return [
        TenantSpec(
            id=f"t{i:0{width}d}",
            workload=cycle[i % len(cycle)],
            rate=rate,
        )
        for i in range(n)
    ]
