"""The EC stripe codec (``repro.daos.vos.ec``) against the independent byte
oracle of the invariant checker.

For ``k`` in {2, 4}, a fragment of every length class (a full stripe, a
short final stripe, shorter than one cell) is split and encoded; then

- the stored stripe satisfies ``_check_ec_group``'s byte equation;
- every single erased data cell rebuilds to its true bytes, zero-padded
  to the documented upper bound (the length of cell ``pos - 1``, the
  parity's for cell 0), and a degraded read of the whole cell from its
  survivors returns the cell zero-padded to the cell length;
- the erased parity rebuilds from the ``k`` data cells to the written
  parity.

Mutants these checks kill: parity padded to a cell other than cell 0,
rebuild padding to a survivor other than the parity (cell 0 for the
parity), ``xor`` padding to the wrong length, a survivor set that omits
the parity or takes a lost one, the parity's length instead of cell
``pos - 1``'s as the upper bound for ``pos > 0``, and a ``pad`` that
does not truncate.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.daos.vos import ec
from repro.daos.vos.extent import ExtentTree
from repro.daos.vos.payload import BytesPayload
from repro.faults.invariants import _check_ec_group


class _Shard:
    """One slot's VOS shard as the oracle walks it: one stripe key."""

    def __init__(self, cell):
        self.tree = ExtentTree()
        if cell.nbytes:
            self.tree.write(0, cell)

    def walk(self, _oid):
        yield ("chunk", "akey", self.tree)


@st.composite
def stripes(draw):
    k = draw(st.sampled_from([2, 4]))
    cell = draw(st.integers(2, 24))
    kind = draw(st.sampled_from(["full", "short", "tiny"]))
    if kind == "full":
        n = k * cell
    elif kind == "short":  # past cell 0, short of the full stripe
        n = draw(st.integers(cell + 1, k * cell - 1))
    else:  # shorter than one cell
        n = draw(st.integers(1, cell))
    data = draw(st.binary(min_size=n, max_size=n))
    return k, cell, data


@settings(max_examples=200, deadline=None)
@given(stripe=stripes())
def test_codec_matches_the_byte_oracle_under_every_single_erasure(stripe):
    k, cell, data = stripe
    cells = ec.split(BytesPayload(data), k, cell)
    assert b"".join(c.materialize() for c in cells) == data
    parity = ec.parity(cells)
    slots = list(cells) + [parity]  # EC_kP1: one parity slot

    # 1. the parity satisfies the oracle's byte equation
    shards = [_Shard(part) for part in slots]
    group = list(range(k + 1))
    _check_ec_group("pool", "oid", group, group, group, k,
                    lambda tid, _cont: shards[tid], "cont",
                    lambda _orig, _actual: True)

    true = [c.materialize() for c in cells]
    for pos in range(k + 1):
        erased = [None if j == pos else part for j, part in enumerate(slots)]
        rebuilt = ec.rebuild_cell(erased, pos, k)
        if pos == k:
            # 3. parity from the k data cells equals the written parity
            assert rebuilt.materialize() == parity.materialize()
            continue
        # 2. an erased data cell rebuilds to its zero-padded bytes
        upper = len(true[pos - 1]) if pos else len(true[0])
        if upper == 0:
            assert rebuilt is None and true[pos] == b""
        else:
            assert rebuilt.materialize() == true[pos].ljust(upper, b"\0")
        live = [j != pos for j in range(k + 1)]
        sources = ec.survivors(live, pos, k)
        assert sources is not None and k in sources
        # a degraded read fetches cell-length ranges (holes read as zeros)
        read = ec.xor([slots[j] for j in sources], cell)
        assert read.materialize() == true[pos].ljust(cell, b"\0")


def test_survivor_rule_and_stripe_recoverability():
    k = 2
    assert ec.survivors([False, True, True], 0, k) == [1, 2]
    assert ec.survivors([True, True, False], 2, k) == [0, 1]
    assert ec.survivors([False, True, False], 0, k) is None
    assert ec.survivors([False, False, True], 0, k) is None
    # with two parity slots the first live one serves
    assert ec.survivors([False, True, False, True], 0, k) == [1, 3]
    assert ec.recoverable([False, True, True], k)
    assert ec.recoverable([True, True, False], k)
    assert not ec.recoverable([False, True, False], k)
    assert not ec.recoverable([False, False, True], k)


def test_pad_zero_fills_or_truncates():
    cell = BytesPayload(b"abcdef")
    assert ec.pad(cell, 6) is cell
    assert ec.pad(cell, 4).materialize() == b"abcd"
    assert ec.pad(cell, 8).materialize() == b"abcdef\0\0"
    assert ec.pad(BytesPayload(b""), 3).materialize() == b"\0\0\0"
