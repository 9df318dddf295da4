"""Aggregator-side pipelining inside collective MPI-IO calls.

``aio_depth > 1`` routes each aggregator's coalesced cb_buffer chunks
through an event queue instead of the sequential loop; depths <= 1 must
keep the classic blocking behavior bit-for-bit.
"""

from repro.cluster import small_cluster
from repro.daos.eq import EventQueue
from repro.daos.vos.payload import PatternPayload
from repro.dfs import Dfs
from repro.mpi import MpiWorld
from repro.mpiio import MpiFile, romio
from repro.units import KiB, MiB

from .conftest import make_rank_mount

BLK = MiB
CB_SMALL = 256 * KiB  # forces several chunks per aggregator


def _world(cluster):
    return MpiWorld(cluster.sim, cluster.fabric, cluster.clients, ppn=2)


def _write_main(cluster, cont_label, path, aio_depth, cb_buffer=CB_SMALL):
    def main(ctx):
        mount, _dfs = yield from make_rank_mount(cluster, cont_label, ctx)
        fh = yield from MpiFile.open(
            ctx, path, mount, create=True,
            cb_buffer=cb_buffer, aio_depth=aio_depth,
        )
        pattern = PatternPayload(seed=5, origin=ctx.rank * BLK, nbytes=BLK)
        yield from ctx.barrier()
        start = ctx.sim.now
        yield from fh.write_at_all(ctx.rank * BLK, pattern)
        yield from ctx.barrier()
        elapsed = ctx.sim.now - start
        # read back another rank's block independently: pipelined writes
        # must land exactly where the sequential loop put them
        other = (ctx.rank + 1) % ctx.size
        back = yield from fh.read_at(other * BLK, BLK)
        yield from fh.close()
        ok = back == PatternPayload(seed=5, origin=other * BLK, nbytes=BLK)
        return ok, elapsed

    return main


def test_async_collective_write_content_matches_blocking(cluster, cont_label):
    results = _world(cluster).run_to_completion(
        _write_main(cluster, cont_label, "/aio-w", aio_depth=4)
    )
    assert all(ok for ok, _t in results)


def test_async_collective_read_content(cluster, cont_label):
    def main(ctx):
        mount, _dfs = yield from make_rank_mount(cluster, cont_label, ctx)
        fh = yield from MpiFile.open(
            ctx, "/aio-r", mount, create=True,
            cb_buffer=CB_SMALL, aio_depth=4,
        )
        if ctx.rank == 0:
            whole = PatternPayload(seed=6, origin=0, nbytes=BLK * ctx.size)
            yield from fh.write_at(0, whole)
        yield from ctx.barrier()
        got = yield from fh.read_at_all(ctx.rank * BLK, BLK)
        yield from fh.close()
        return got == PatternPayload(seed=6, origin=ctx.rank * BLK,
                                     nbytes=BLK)

    assert all(_world(cluster).run_to_completion(main))


def test_depth_one_is_identical_to_blocking(cluster, cont_label):
    t0 = max(t for _ok, t in _world(cluster).run_to_completion(
        _write_main(cluster, cont_label, "/aio-d0", aio_depth=0)
    ))
    t1 = max(t for _ok, t in _world(cluster).run_to_completion(
        _write_main(cluster, cont_label, "/aio-d1", aio_depth=1)
    ))
    assert t0 == t1  # depths <= 1 take the verbatim sequential loop


def test_pipelining_overlaps_aggregator_chunks(cluster, cont_label):
    blocking = max(t for _ok, t in _world(cluster).run_to_completion(
        _write_main(cluster, cont_label, "/aio-seq", aio_depth=0)
    ))
    pipelined = max(t for _ok, t in _world(cluster).run_to_completion(
        _write_main(cluster, cont_label, "/aio-pipe", aio_depth=4)
    ))
    # several cb_buffer chunks per aggregator in flight at once
    assert pipelined < blocking


def test_async_runs_are_deterministic(cluster, cont_label):
    first = [t for _ok, t in _world(cluster).run_to_completion(
        _write_main(cluster, cont_label, "/aio-det-a", aio_depth=4)
    )]
    second = [t for _ok, t in _world(cluster).run_to_completion(
        _write_main(cluster, cont_label, "/aio-det-b", aio_depth=4)
    )]
    assert first == second


class _RecordingQueue(EventQueue):
    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.made.append(self)


class _DroppedClose(_RecordingQueue):
    """The old call: ``eq.close()`` built the generator and dropped it."""

    def close(self):
        return iter(())


def _collective_schedule_calls(monkeypatch, queue_cls):
    """Heap pushes spent inside one depth-4 collective write and one
    collective read on a fresh cluster, and the queues they used."""
    monkeypatch.setattr(romio, "EventQueue", queue_cls)
    queue_cls.made = []
    cluster = small_cluster(server_nodes=2, client_nodes=2,
                            targets_per_engine=2)
    client = cluster.new_client(0)

    def setup():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("c", oclass="S2")
        yield from Dfs.mount(cont)

    cluster.run(setup())
    sim = cluster.sim
    calls = {"write": 0, "read": 0}
    phase = [None]
    started = [0]

    def enter(name):
        # heap pushes (sim._seq) from the first rank in to the first out
        if phase[0] is None and name is not None:
            started[0] = sim._seq
        elif phase[0] is not None and name is None:
            calls[phase[0]] += sim._seq - started[0]
        phase[0] = name

    def main(ctx):
        mount, _dfs = yield from make_rank_mount(cluster, "c", ctx)
        fh = yield from MpiFile.open(
            ctx, "/f", mount, create=True,
            cb_buffer=CB_SMALL, aio_depth=4,
        )
        pattern = PatternPayload(seed=5, origin=ctx.rank * BLK, nbytes=BLK)
        for name, op in (
            ("write", lambda: fh.write_at_all(ctx.rank * BLK, pattern)),
            ("read", lambda: fh.read_at_all(ctx.rank * BLK, BLK)),
        ):
            yield from ctx.barrier()
            enter(name)  # every rank enters at the same instant
            yield from op()
            yield from ctx.barrier()
            enter(None)
        yield from fh.close()

    _world(cluster).run_to_completion(main)
    return calls, list(queue_cls.made)


def test_aggregator_queue_is_closed_at_no_event_cost(monkeypatch):
    """``EventQueue.close`` is a generator: called without ``yield
    from`` it never ran and the aggregator queues stayed open. Awaited
    after ``drain()`` it finds nothing in flight, so it must close the
    queue without scheduling anything."""
    awaited, queues = _collective_schedule_calls(monkeypatch, _RecordingQueue)
    assert len(queues) == 4  # one per aggregator (2 nodes) per direction
    assert all(q._closed and not q.inflight for q in queues)
    dropped, stale = _collective_schedule_calls(monkeypatch, _DroppedClose)
    assert not any(q._closed for q in stale)
    assert awaited == dropped
    assert awaited["write"] > 0 and awaited["read"] > 0
