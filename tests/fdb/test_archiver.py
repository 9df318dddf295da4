"""The archiver's host memory follows the fields in flight, not the
burst: it reaps completions as it submits and keeps only the failures,
which the flush landmark still raises."""

import pytest

from repro.cluster import build_cluster
from repro.daos.api import DerNoSpace, EventQueue
from repro.fdb import Archiver, FdbParams, KvValueField, make_fields, open_store
from repro.units import KiB

DEPTH = 4
FIELD_BYTES = 4 * KiB
#: ~200 fields: 10 params x 20 steps
KEYS = make_fields(n_params=10, n_steps=20)


def _archive(body, bad=None):
    """Boot, build a depth-``DEPTH`` KV archiver (whose write of ``bad``
    fails, if given), set up ``KEYS`` and run ``body(archiver)`` as a
    task helper."""
    params = FdbParams(backend="kv", depth=DEPTH)
    cluster = build_cluster(server_nodes=2, client_nodes=1, seed=0xDA05)

    def driver():
        mapping, index = yield from open_store(cluster, params)
        if bad is not None:
            mapping = _FailOneKey(mapping.kv, bad)
        archiver = Archiver(cluster.sim, mapping, index, depth=DEPTH)
        yield from archiver.setup(KEYS)
        return (yield from body(archiver))

    return cluster.run(driver())


def test_queue_holds_at_most_depth_completions_after_every_submit(
    monkeypatch,
):
    held = []
    submit = EventQueue.submit

    def counting_submit(self, op, name=""):
        event = yield from submit(self, op, name)
        held.append(self.n_completed)
        return event

    monkeypatch.setattr(EventQueue, "submit", counting_submit)

    def body(archiver):
        yield from archiver.archive(KEYS, FIELD_BYTES)
        return (yield from archiver.flush("cycle-001"))

    landmark = _archive(body)
    assert landmark["fields"] == len(KEYS)
    assert len(held) == len(KEYS)
    assert max(held) <= DEPTH


class _FailOneKey(KvValueField):
    """KV mapping whose write of one key runs out of space."""

    def __init__(self, kv, bad):
        super().__init__(kv)
        self.bad = bad

    def write(self, key, payload):
        if key == self.bad:
            raise DerNoSpace(f"no room for {key.canonical}")
        return (yield from super().write(key, payload))


def test_flush_raises_the_failure_reaped_during_the_burst():
    bad = KEYS[3]

    def body(archiver):
        yield from archiver.archive(KEYS, FIELD_BYTES)
        # the failed field was reaped long ago; nothing waits on the queue
        assert archiver._eq.n_completed == 0
        with pytest.raises(DerNoSpace, match=bad.canonical):
            yield from archiver.flush("cycle-001")
        assert archiver.landmarks == []
        return archiver.fields

    assert _archive(body, bad) == len(KEYS) - 1
