"""The serving loop: arrivals → admission → dispatch → accounting.

The :class:`Dispatcher` owns a tenant fleet for one serving run. During
:meth:`setup` it lays out the storage side (extra pools if asked,
``n_containers`` containers dealt round-robin over pools and client
nodes, per-tenant KV indexes, per-tenant QoS token buckets); during
:meth:`serve` it spawns one open-loop arrival task per tenant and, for
every arrival, consults the :class:`~repro.tenants.admission.\
AdmissionController` and either spawns the job or counts a typed
rejection. Open-loop discipline is strict: a rejected or slow job never
delays the next arrival.

Accounting is two-layered, deliberately:

* **Run samples** (per-tenant latency lists, byte/job counts) are kept
  in plain dicts on the dispatcher — the report computes p99/p999 and
  the Jain fairness index from these, with or without a metrics
  registry installed.
* **Labeled metrics** (``tenant.arrivals{tenant=...}`` and friends plus
  fleet-wide aggregates) are emitted when the cluster has observability
  installed, which is what the timeline scraper and SLO rules consume
  (e.g. ``tenant.request.latency{tenant=t01} p99 < 0.5 over 3
  windows``). The latency histograms hold the same samples as the
  lists, and every quantile is nearest rank, so a report and an SLO
  rule read one latency the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.daos import api as daos
from repro.errors import DaosError, DerInval
from repro.qos import TokenBucket
from repro.sim.sync import Gate
from repro.tenants.admission import AdmissionController, TenantRejected
from repro.tenants.spec import KvBurstWork, TenantSpec
from repro.tenants.workloads import TenantIoContext, execute
from repro.units import MiB

# Metric families (aggregate name; per-tenant series add {tenant=<id>}).
M_ARRIVALS = "tenant.arrivals"
M_ADMITTED = "tenant.admitted"
M_REJECTED = "tenant.rejections"
M_COMPLETED = "tenant.completions"
M_FAILED = "tenant.failures"
M_BYTES = "tenant.bytes"
M_LATENCY = "tenant.request.latency"
M_INFLIGHT = "tenant.inflight"  # fleet-wide gauge (admitted, not finished)


@dataclass
class ServingConfig:
    """Knobs for one serving run (defaults favour small, fast tests)."""

    #: serving horizon: arrivals occur in ``[0, duration)``; the run
    #: then drains (jobs admitted before the horizon still finish).
    duration: float = 30.0
    #: master switch for per-tenant byte-rate budgets
    qos_enabled: bool = False
    #: byte-rate budget for tenants that do not set ``qos_bw`` (a tenant
    #: that sets no ``qos_burst`` bursts one second's worth of its rate)
    default_qos_bw: float = 8 * MiB
    #: event-queue depth for each job's pipelined operations
    aio_depth: int = 4
    #: admission bounds
    max_inflight: int = 64
    max_inflight_per_tenant: int = 4
    #: storage layout
    n_pools: int = 1
    n_containers: int = 4
    oclass: str = "S1"

    def __post_init__(self):
        if self.duration <= 0:
            raise DerInval("serving duration must be positive")
        if self.n_pools < 1 or self.n_containers < 1:
            raise DerInval("need at least one pool and one container")
        daos.oclass_by_name(self.oclass)  # unknown class -> DerInval


class Dispatcher:
    """Routes one tenant fleet's open-loop traffic onto a cluster."""

    def __init__(self, cluster, tenants: Sequence[TenantSpec], arrivals,
                 config: Optional[ServingConfig] = None):
        ids = [t.id for t in tenants]
        if len(set(ids)) != len(ids):
            raise DerInval("duplicate tenant ids in fleet")
        self.cluster = cluster
        self.sim = cluster.sim
        self.tenants = list(tenants)
        self.arrivals = arrivals
        self.config = config or ServingConfig()
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            max_inflight_per_tenant=self.config.max_inflight_per_tenant,
        )
        # exact accounting (always on; the report reads these)
        self.latencies: Dict[str, List[float]] = {t.id: [] for t in tenants}
        self.counts: Dict[str, Dict[str, int]] = {
            t.id: {"arrivals": 0, "admitted": 0, "rejected": 0,
                   "completed": 0, "failed": 0}
            for t in tenants
        }
        self.bytes_by_tenant: Dict[str, float] = {t.id: 0.0 for t in tenants}
        # serving-side state built by setup()
        self._ctx: Dict[str, TenantIoContext] = {}
        self._label: Dict[str, str] = {
            t.id: f"{{tenant={t.id}}}" for t in tenants
        }
        #: opened by the job that empties the admission window after serving
        self._drained: Optional[Gate] = None
        self._setup_done = False

    # ------------------------------------------------------------- metrics
    def _incr(self, family: str, tenant_id: str, amount: float = 1.0) -> None:
        metrics = self.sim.metrics
        if metrics is None:
            return
        metrics.counter(family).incr(amount)
        metrics.counter(family + self._label[tenant_id]).incr(amount)

    def _observe(self, family: str, tenant_id: str, value: float) -> None:
        metrics = self.sim.metrics
        if metrics is None:
            return
        metrics.histogram(family).observe(value)
        metrics.histogram(family + self._label[tenant_id]).observe(value)

    def _gauge_add(self, family: str, delta: float) -> None:
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.gauge(family).add(self.sim.now, delta)

    # ------------------------------------------------------------- setup
    def setup(self):
        """Task helper: pools, containers, per-tenant I/O contexts."""
        cfg = self.config
        pool_labels = ["tank"]
        for i in range(1, cfg.n_pools):
            pool = yield from self.cluster.daos.create_pool(f"tenants-p{i}")
            pool_labels.append(pool.label)
        conts = []
        n_client_nodes = len(self.cluster.clients)
        for c in range(cfg.n_containers):
            client = self.cluster.new_client(
                c % n_client_nodes, name=f"tenants.client{c}"
            )
            pool_h = yield from client.connect_pool(
                pool_labels[c % len(pool_labels)]
            )
            cont = yield from pool_h.create_container(
                f"tenants-c{c}", oclass=cfg.oclass
            )
            conts.append(cont)
        for i, spec in enumerate(self.tenants):
            cont = conts[i % len(conts)]
            bucket = None
            if cfg.qos_enabled:
                rate = spec.qos_bw if spec.qos_bw is not None \
                    else cfg.default_qos_bw
                burst = spec.qos_burst if spec.qos_burst is not None else rate
                bucket = TokenBucket(self.sim, rate=rate, burst=burst)
            kv = None
            if isinstance(spec.workload, KvBurstWork):
                kv = yield from daos.DaosKV.create(cont)
            self._ctx[spec.id] = TenantIoContext(
                spec, cont, kv=kv, bucket=bucket
            )
        self._setup_done = True
        return len(conts)

    # ------------------------------------------------------------- serving
    def serve(self):
        """Task helper: run the full open-loop horizon, then drain."""
        if not self._setup_done:
            yield from self.setup()
        loops = []
        for spec in self.tenants:
            times = self.arrivals.times_for(spec, self.config.duration)
            loops.append(self.sim.spawn(
                self._arrival_loop(spec, times), f"tenants.arrive:{spec.id}"
            ))
        for loop in loops:
            yield loop
        # all arrivals dispatched; drain in-flight jobs
        if self.admission.inflight:
            self._drained = Gate(self.sim)
            yield self._drained
            self._drained = None
        return self.result()

    def _arrival_loop(self, spec: TenantSpec, times: List[float]):
        prev = 0.0
        for t in times:
            if t > prev:
                yield t - prev
            prev = t
            self._on_arrival(spec)
        return len(times)

    def _on_arrival(self, spec: TenantSpec) -> None:
        self.counts[spec.id]["arrivals"] += 1
        self._incr(M_ARRIVALS, spec.id)
        try:
            self.admission.admit(spec.id)
        except TenantRejected:
            self.counts[spec.id]["rejected"] += 1
            self._incr(M_REJECTED, spec.id)
            return
        self.counts[spec.id]["admitted"] += 1
        self._incr(M_ADMITTED, spec.id)
        self._gauge_add(M_INFLIGHT, +1)
        ctx = self._ctx[spec.id]
        self.sim.spawn(self._job(ctx),
                       f"tenants.job:{spec.id}.{ctx.job_seq + 1}")

    def _job(self, ctx: TenantIoContext):
        spec = ctx.spec
        arrived = self.sim.now
        try:
            nbytes = yield from execute(ctx, self.sim, self.config.aio_depth)
        except DaosError:
            # engine fault, timeout, busy backend: the job is lost but
            # the serving loop keeps going — chaos runs count these.
            self.counts[spec.id]["failed"] += 1
            self._incr(M_FAILED, spec.id)
            return None
        finally:
            self.admission.release(spec.id)
            self._gauge_add(M_INFLIGHT, -1)
            if self._drained is not None and not self.admission.inflight:
                self._drained.open()
        latency = self.sim.now - arrived
        self.latencies[spec.id].append(latency)
        self.counts[spec.id]["completed"] += 1
        self.bytes_by_tenant[spec.id] += nbytes
        self._incr(M_COMPLETED, spec.id)
        self._incr(M_BYTES, spec.id, nbytes)
        self._observe(M_LATENCY, spec.id, latency)
        return latency

    # ------------------------------------------------------------- results
    def result(self):
        """Raw per-tenant accounting (see :mod:`repro.tenants.report`
        for the derived percentiles/fairness)."""
        return {
            "tenants": {
                t.id: {
                    **self.counts[t.id],
                    "bytes": self.bytes_by_tenant[t.id],
                    "latencies": list(self.latencies[t.id]),
                    "kind": t.workload.kind,
                    "qos_waited": (
                        self._ctx[t.id].qos_waited if t.id in self._ctx
                        else 0.0
                    ),
                }
                for t in self.tenants
            },
            "admission": {
                "admitted": self.admission.admitted,
                "rejected": dict(self.admission.rejected),
            },
            "config": {
                "duration": self.config.duration,
                "qos_enabled": self.config.qos_enabled,
                "n_tenants": len(self.tenants),
            },
            "end_time": self.sim.now,
        }
