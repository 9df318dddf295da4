"""Differential check of DFS file semantics against a bytearray model.

Two handles on one mount run a random script of writes, zero-length
writes, reads, truncates and size queries on one S2 file with 4 KiB
chunks; after every step the handle's answer must match the model. In
``writeback`` mode a handle's buffered bytes reach the other handle only
once flushed (open-to-close, DESIGN.md §8.2), so the script flushes the
previous handle whenever a step switches handles. What a read returns
must not depend on the cache mode.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.cluster import small_cluster
from repro.daos.vos.payload import PatternPayload
from repro.dfs import Dfs
from repro.units import KiB

CHUNK = 4 * KiB
SPAN = 6 * CHUNK  # offsets and lengths stay within a few chunks
MODES = ["none", "readonly", "writeback"]

offsets = st.integers(0, SPAN)
lengths = st.integers(0, 2 * CHUNK)
steps = st.lists(
    st.tuples(
        st.integers(0, 1),  # which handle
        st.one_of(
            st.tuples(st.just("write"), offsets, st.integers(1, 2 * CHUNK)),
            st.tuples(st.just("write"), offsets, st.just(0)),
            st.tuples(st.just("read"), offsets, lengths),
            st.tuples(st.just("truncate"), offsets),
            st.tuples(st.just("size"),),
        ),
    ),
    min_size=1,
    max_size=12,
)


@pytest.fixture(scope="module")
def cluster():
    return small_cluster(server_nodes=2, client_nodes=1)


@pytest.fixture(scope="module")
def mounts(cluster):
    client = cluster.new_client(0)

    def setup():
        pool = yield from client.connect_pool("tank")
        out = {}
        for mode in MODES:
            cont = yield from pool.create_container(f"model-{mode}",
                                                    oclass="S2")
            cache = (CacheConfig(mode=mode, capacity="1m")
                     if mode != "none" else None)
            out[mode] = yield from Dfs.mount(cont, cache=cache)
        return out

    return cluster.run(setup())


@pytest.fixture(scope="module")
def paths():
    """A fresh file name per example."""
    return (f"/m{n}" for n in itertools.count())


def run_script(cluster, dfs, path, script):
    """Run ``script`` on two fresh handles on ``path``; return the first
    step whose answer differs from the model, as ``(step, got, want)``,
    or None."""
    model = bytearray()

    def go():
        handles = [(yield from dfs.open_file(path, create=True,
                                             chunk_size=CHUNK, oclass="S2"))]
        handles.append((yield from dfs.open_file(path)))
        last = None
        for seed, (who, op) in enumerate(script, start=1):
            handle = handles[who]
            if last is not None and last != who:
                yield from handles[last].flush()
            last = who
            kind = op[0]
            if kind == "write":
                _, offset, nbytes = op
                data = PatternPayload(seed, offset, nbytes)
                got = yield from handle.write(offset, data)
                want = nbytes
                if nbytes:
                    model.extend(bytes(max(0, offset + nbytes - len(model))))
                    model[offset:offset + nbytes] = data.materialize()
            elif kind == "read":
                _, offset, nbytes = op
                got = (yield from handle.read(offset, nbytes)).materialize()
                want = bytes(model[offset:offset + nbytes])
            elif kind == "truncate":
                got = yield from handle.truncate(op[1])
                want = op[1]
                del model[op[1]:]
                model.extend(bytes(op[1] - len(model)))
            else:
                got = yield from handle.get_size()
                want = len(model)
            if got != want:
                return (who, op), got, want
        for handle in handles:
            yield from handle.flush()
            handle.close()
        return None

    return cluster.run(go())


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=40, deadline=None)
@given(script=steps)
def test_two_handles_agree_with_a_bytearray(cluster, mounts, paths, mode,
                                            script):
    assert run_script(cluster, mounts[mode], next(paths), script) is None
