"""IoStream: what a bulk op costs the kernel, how concurrent ops coalesce
into batches, when a closed stream lets its flow go, and when one op
lands."""

import pytest

from repro.cluster import small_cluster
from repro.daos.api import EventQueue
from repro.daos.oclass import S1, SX
from repro.daos.vos.payload import PatternPayload
from repro.units import MiB


def _object(cluster, oclass, label):
    """Task helper: a fresh object of ``oclass`` in a new container."""
    client = cluster.new_client(0)
    pool = yield from client.connect_pool("tank")
    cont = yield from pool.create_container(label, oclass=oclass.name)
    oid = yield from cont.alloc_oid(oclass)
    return cont.open_object(oid)


def _payload(nbytes):
    return PatternPayload(seed=3, origin=0, nbytes=nbytes)


def test_bulk_op_costs_five_events_and_no_task():
    """On an open stream a blocking op pushes its overhead sleep, the
    pump's start, the transfer's completion, the pump's wake and the
    op's wake, and spawns no task."""
    cluster = small_cluster()
    sim = cluster.sim

    def go():
        obj = yield from _object(cluster, SX, "stream-work")
        yield from obj.write(0, _payload(MiB))  # opens the write stream
        yield from obj.read(0, MiB)  # opens the read stream
        costs = []
        for chunk in range(1, 5):
            for op in (lambda: obj.write(chunk * MiB, _payload(MiB)),
                       lambda: obj.read(chunk * MiB, MiB)):
                seq, tid = sim._seq, sim._next_tid
                yield from op()
                costs.append((sim._seq - seq, sim._next_tid - tid))
        obj.close()
        return costs

    assert cluster.run(go()) == [(5, 0)] * 8


@pytest.mark.parametrize("k", [2, 4])
def test_pipelined_ops_coalesce_into_batches(k):
    """k ops launched together at depth k reach the wire together and
    travel as one batch; k more launched while a lone op is on the wire
    wait for it and then travel as the next batch."""
    cluster = small_cluster()
    sim = cluster.sim
    _tracer, registry = cluster.observe(tracing=False)
    size = 8 * MiB

    def counters(direction):
        label = f"{{dir={direction}}}"
        return tuple(registry.counters[f"client.stream.{name}{label}"].value
                     if f"client.stream.{name}{label}" in registry.counters
                     else 0.0
                     for name in ("batches", "batched_ops",
                                  "coalesced_bytes"))

    def go():
        obj = yield from _object(cluster, S1, f"stream-batches-{k}")
        yield from obj.write(0, _payload(size))  # trees exist from here on
        t0 = sim.now
        yield from obj.write(0, _payload(size))
        lone = sim.now - t0
        yield from obj.read(0, size)
        seen = [counters("write"), counters("read")]
        eq = EventQueue(sim, depth=k, name="coalesce")
        for i in range(k):
            yield from eq.submit(obj.write(i * size, _payload(size)))
        yield from eq.drain()
        for i in range(k):
            yield from eq.submit(obj.read(i * size, size))
        yield from eq.drain()
        seen += [counters("write"), counters("read")]
        first = sim.spawn(obj.write(0, _payload(size)))
        yield lone / 2  # its batch is on the wire
        for i in range(k):
            yield from eq.submit(obj.write(i * size, _payload(size)))
        yield first
        yield from eq.drain()
        seen.append(counters("write"))
        obj.close()
        return seen

    assert cluster.run(go()) == [
        (2, 2, 0), (1, 1, 0),
        (3, 2 + k, k * size), (2, 1 + k, k * size),
        (5, 3 + 2 * k, 2 * k * size),
    ]


def test_close_during_a_transfer_defers_until_the_last_op():
    cluster = small_cluster()
    sim = cluster.sim
    _tracer, registry = cluster.observe(tracing=False)
    flownet = cluster.fabric.flownet

    def go():
        obj = yield from _object(cluster, S1, "stream-close")
        yield from obj.write(0, _payload(8 * MiB))
        t0 = sim.now
        yield from obj.write(0, _payload(8 * MiB))
        lone = sim.now - t0
        stream = obj._stream("write")
        flow = stream._flow
        task = sim.spawn(obj.write(0, _payload(8 * MiB)))
        yield lone / 2  # the op's batch is on the wire
        obj.close()
        held = (flow in flownet._flows, stream._flow is flow)
        yield task
        return stream, flow, held

    stream, flow, held = cluster.run(go())
    assert held == (True, True)
    assert stream._flow is None
    assert flow not in flownet._flows
    assert flow.rate == 0.0
    for link in flow.links:
        gauge = registry.gauges[f"fabric.link.utilization{{link={link.name}}}"]
        assert gauge.value == 0.0


def test_a_lone_op_lands_after_its_overhead_and_its_bytes_at_flow_rate():
    cluster = small_cluster()
    sim = cluster.sim
    fabric = cluster.fabric
    nbytes = 4 * MiB

    def go():
        obj = yield from _object(cluster, S1, "stream-timing")
        yield from obj.write(0, _payload(nbytes))  # the tree exists now
        stream = obj._stream("write")
        engine = cluster.daos.target(stream.targets[0]).engine
        rtt = 2.0 * (fabric.base_latency + 2 * fabric.software_overhead)
        overhead = (cluster.clients[0].spec.client_cpu_per_op
                    + (engine.spec.per_rpc_cpu + rtt))
        start = sim.now
        yield from obj.write(0, _payload(nbytes))
        return start, overhead, stream.rate, sim.now

    start, overhead, rate, end = cluster.run(go())
    assert end == (start + overhead) + nbytes / rate
