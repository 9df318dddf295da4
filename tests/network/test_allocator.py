"""The allocator seam: unit, differential and exact-count tests.

Three layers:

- :class:`MaxMinAllocator` driven directly through its register /
  compute / rate protocol — no ``Simulator``, no ``FlowNetwork``;
- ``hypothesis`` churn (open / close / ``set_cap`` /
  ``set_link_capacity``) over random topologies whose components
  straddle the scalar/dense threshold, asserting the scalar strategy,
  the dense strategy, the per-solve mix of the two and the global oracle
  agree with ``==``, and that no solve over-allocates a link;
- per-op work counts: tiny components never reach numpy, a large one
  takes the dense path exactly once per mutation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.allocator import UNBOUNDED_RATE, MaxMinAllocator
from repro.network.flows import Flow, FlowNetwork, Link
from repro.sim import Simulator
from tests.network.oracle import ReferenceAllocator, assert_within_capacity


def forced(cells):
    allocator = MaxMinAllocator()
    allocator.scalar_cells = cells
    return allocator


SCALAR_ONLY = 10**9
DENSE_ONLY = -1


# -- the protocol, with no network and no simulator ---------------------------


class Bench:
    """What ``FlowNetwork`` does around an allocator, and nothing else."""

    def __init__(self, allocator):
        self.allocator = allocator
        self.serial = 0

    def open(self, links, cap=None):
        weights = tuple(weight for _link, weight in links)
        links = tuple(link for link, _weight in links)
        flow = Flow(None, links, weights, cap)
        self.serial += 1
        flow._serial = self.serial
        for link, weight in zip(links, weights):
            link._flows[flow] = weight
        self.allocator.add_flow(flow)
        return flow

    def close(self, flow):
        for link in flow.links:
            del link._flows[flow]
        self.allocator.remove_flow(flow)


@pytest.mark.parametrize("cells", [SCALAR_ONLY, DENSE_ONLY],
                         ids=["scalar", "dense"])
def test_register_compute_rate(cells):
    bench = Bench(forced(cells))
    alloc = bench.allocator
    shared = Link("shared", 100.0)
    spur = Link("spur", 30.0)
    a = bench.open([(shared, 1.0)])
    assert alloc.compute() == ([a], [shared])
    assert alloc.rate(a) == 100.0
    b = bench.open([(shared, 1.0), (spur, 1.0)], cap=20.0)
    flows, links = alloc.compute()
    assert flows == [a, b] and links == [shared, spur]
    assert (alloc.rate(a), alloc.rate(b)) == (80.0, 20.0)
    # nothing registered since: nothing to do
    assert alloc.compute() == ([], [])
    b.cap = None
    alloc.touch_flow(b)
    alloc.compute()
    assert (alloc.rate(a), alloc.rate(b)) == (70.0, 30.0)
    spur.capacity = 10.0
    alloc.touch_link(spur)
    alloc.compute()
    assert (alloc.rate(a), alloc.rate(b)) == (90.0, 10.0)
    # an allocator never writes flow.rate: that is the network's move
    assert a.rate == b.rate == 0.0


@pytest.mark.parametrize("cells", [SCALAR_ONLY, DENSE_ONLY],
                         ids=["scalar", "dense"])
def test_only_the_dirty_component_is_solved(cells):
    bench = Bench(forced(cells))
    alloc = bench.allocator
    left = Link("left", 10.0)
    right = Link("right", 10.0)
    a = bench.open([(left, 1.0)])
    b = bench.open([(right, 1.0)])
    alloc.compute()
    c = bench.open([(right, 1.0)])
    assert alloc.compute() == ([b, c], [right])
    assert alloc.rate(a) == 10.0


@pytest.mark.parametrize("cells", [SCALAR_ONLY, DENSE_ONLY],
                         ids=["scalar", "dense"])
def test_closing_the_last_flow_reports_the_idle_links(cells):
    bench = Bench(forced(cells))
    alloc = bench.allocator
    x = Link("x", 10.0)
    y = Link("y", 10.0)
    flow = bench.open([(x, 1.0), (y, 0.5)])
    alloc.compute()
    bench.close(flow)
    assert alloc.compute() == ([], [x, y])


def test_removed_flow_is_forgotten():
    bench = Bench(MaxMinAllocator())
    alloc = bench.allocator
    link = Link("l", 10.0)
    flow = bench.open([(link, 1.0)])
    alloc.compute()
    bench.close(flow)
    alloc.compute()
    alloc.touch_flow(flow)  # a late set_cap on a closed flow
    assert alloc.compute() == ([], [])
    with pytest.raises(KeyError):
        alloc.rate(flow)


def test_linkless_capless_flow_is_unbounded():
    for cells in (SCALAR_ONLY, DENSE_ONLY):
        bench = Bench(forced(cells))
        flow = bench.open([])
        bench.allocator.compute()
        assert bench.allocator.rate(flow) == UNBOUNDED_RATE


def test_strategy_follows_component_size():
    """Four links per flow: 80 flows fill the 320-cell budget exactly."""
    bench = Bench(MaxMinAllocator())
    alloc = bench.allocator
    hub = Link("hub", 1e9)
    spokes = [Link(f"s{i}", 1e6 + i) for i in range(3)]
    path = [(hub, 1.0)] + [(s, 1.0) for s in spokes]
    for _ in range(80):
        bench.open(path)
        alloc.compute()
    assert (alloc.scalar_solves, alloc.dense_solves) == (80, 0)
    assert alloc.dense_rows_built == 0
    extra = bench.open(path)
    alloc.compute()
    assert (alloc.scalar_solves, alloc.dense_solves) == (80, 1)
    assert alloc.dense_rows_built == 81  # all materialised on first need
    bench.close(extra)
    alloc.compute()
    assert (alloc.scalar_solves, alloc.dense_solves) == (81, 1)


def test_wide_flow_goes_dense_without_a_walk():
    """One flow striped over more links than ``scalar_links``."""
    bench = Bench(MaxMinAllocator())
    alloc = bench.allocator
    targets = [Link(f"t{i}", 1e6) for i in range(alloc.scalar_links + 1)]
    flow = bench.open([(t, 1.0 / len(targets)) for t in targets])
    alloc.compute()
    assert (alloc.scalar_solves, alloc.dense_solves) == (0, 1)
    bench.close(flow)
    assert alloc.compute() == ([], targets)


# -- numpy fold order the dense strategy relies on -----------------------------


def test_axis0_reductions_fold_rows_in_order():
    """``np.add.reduce`` / ``np.subtract.reduce`` along axis 0 must round
    like the scalar strategy's one-flow-at-a-time loops."""
    rng = np.random.default_rng(7)
    for n, m in ((2, 3), (17, 5), (300, 41)):
        W = rng.random((n, m)) * (rng.random((n, m)) < 0.6)
        W[rng.integers(n)] *= 1e13  # force rounding to depend on order
        total = [0.0] * m
        left = [float(x) for x in rng.random(m) * 1e13]
        start = np.array(left)
        for row in W.tolist():
            total = [t + w for t, w in zip(total, row)]
            left = [v - w for v, w in zip(left, row)]
        assert np.add.reduce(W, axis=0).tolist() == total
        folded = np.subtract.reduce(np.concatenate((start[None, :], W)), axis=0)
        assert folded.tolist() == left


# -- differential churn --------------------------------------------------------

#: scalar budget of the "mixed" side: with 1-4 links per flow the
#: components below straddle it (a handful of cells up to twice over)
MIXED_CELLS = 12

capacities = st.one_of(
    st.sampled_from([10.0, 25.0, 100.0, 1e3]),
    st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
)
weights = st.sampled_from([1.0, 0.5, 0.25, 1.0 / 3.0, 0.1])
caps = st.one_of(
    st.none(),
    st.sampled_from([5.0, 12.5, 50.0]),
    st.floats(min_value=0.5, max_value=500.0, allow_nan=False),
)


@st.composite
def churn_scripts(draw):
    n_links = draw(st.integers(3, 8))
    link_caps = draw(st.lists(capacities, min_size=n_links, max_size=n_links))
    n_ops = draw(st.integers(1, 28))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(
            ["open", "open", "open", "close", "cap", "capacity"]))
        if kind == "open":
            picked = draw(st.lists(st.integers(0, n_links - 1), min_size=0,
                                   max_size=4, unique=True))
            ops.append(("open", [(i, draw(weights)) for i in picked],
                        draw(caps)))
        elif kind == "close":
            ops.append(("close", draw(st.integers(0, 10**6))))
        elif kind == "cap":
            ops.append(("cap", draw(st.integers(0, 10**6)), draw(caps)))
        else:
            ops.append(("capacity", draw(st.integers(0, n_links - 1)),
                        draw(capacities)))
    return link_caps, ops


class Side:
    def __init__(self, allocator, link_caps, backbone):
        self.net = FlowNetwork(Simulator(), allocator=allocator)
        self.links = [self.net.add_link(f"l{i}", c)
                      for i, c in enumerate(link_caps)]
        self.backbone = self.net.add_link("backbone", 1e15) if backbone else None
        self.flows = []

    def apply(self, op):
        if op[0] == "open":
            path = [(self.links[i], w) for i, w in op[1]]
            if self.backbone is not None:
                path.append((self.backbone, 1.0))
            self.flows.append(self.net.open(path, cap=op[2]))
        elif not self.flows and op[0] in ("close", "cap"):
            return
        elif op[0] == "close":
            self.net.close(self.flows.pop(op[1] % len(self.flows)))
        elif op[0] == "cap":
            self.flows[op[1] % len(self.flows)].set_cap(op[2])
        else:
            self.net.set_link_capacity(self.links[op[1]], op[2])

    def rates(self):
        return [flow.rate for flow in self.flows]


def run_churn(link_caps, ops, backbone):
    sides = {
        "scalar": Side(forced(SCALAR_ONLY), link_caps, backbone),
        "dense": Side(forced(DENSE_ONLY), link_caps, backbone),
        "mixed": Side(forced(MIXED_CELLS), link_caps, backbone),
        "oracle": Side(ReferenceAllocator(), link_caps, backbone),
    }
    for op in ops:
        for side in sides.values():
            side.apply(op)
        yield sides
    mixed = sides["mixed"].net._allocator
    assert mixed.dense_solves == 0 or mixed.dense_rows_built > 0


@settings(max_examples=150, deadline=None)
@given(churn_scripts())
def test_one_component_all_strategies_equal_the_oracle(script):
    """Every flow crosses one uncongested backbone, so the network is a
    single component and the global oracle is exact, not approximate."""
    for sides in run_churn(*script, backbone=True):
        want = sides["oracle"].rates()
        solved = sides["scalar"].net.solved_flows
        # (the oracle also re-solves when an idle link's capacity moves)
        assert solved <= sides["oracle"].net.solved_flows
        for name in ("scalar", "dense", "mixed"):
            assert sides[name].rates() == want, name
            assert sides[name].net.solved_flows == solved, name
            assert_within_capacity(sides[name].links)


@settings(max_examples=150, deadline=None)
@given(churn_scripts())
def test_many_components_strategies_equal_each_other(script):
    """Without the backbone, components come and go. The strategies must
    still agree exactly; the oracle accumulates its fill level across
    components, so it can differ in the last ulp."""
    for sides in run_churn(*script, backbone=False):
        want = sides["scalar"].rates()
        for name in ("dense", "mixed"):
            assert sides[name].rates() == want, name
            assert sides[name].net.solved_flows == \
                sides["scalar"].net.solved_flows, name
        assert sides["oracle"].rates() == pytest.approx(want, rel=1e-9)
        assert_within_capacity(sides["scalar"].links)


def test_churn_scripts_reach_both_strategies():
    """The mixed side of the suites above really does mix."""
    alloc = forced(MIXED_CELLS)
    net = FlowNetwork(Simulator(), allocator=alloc)
    hub = net.add_link("hub", 100.0)
    spur = net.add_link("spur", 50.0)
    flows = [net.open([(hub, 1.0), (spur, 0.5)]) for _ in range(12)]
    assert alloc.scalar_solves == 6 and alloc.dense_solves == 6
    for flow in flows:
        net.close(flow)  # 11..7 left: dense; 6..1: scalar; 0: nothing
    assert alloc.scalar_solves == 12 and alloc.dense_solves == 11


# -- exact per-op work counts ---------------------------------------------------


def test_tiny_components_never_reach_numpy():
    """1 000 open / transfer / close cycles over components of at most
    four flows: every solve is scalar and no incidence row is built."""
    sim = Simulator()
    net = FlowNetwork(sim)
    alloc = net._allocator
    racks = [
        ([net.add_link(f"nic{r}.{i}", 1.2e10) for i in range(2)],
         [net.add_link(f"tgt{r}.{i}", 3e9) for i in range(2)])
        for r in range(8)
    ]
    live = []
    done = []
    for cycle in range(1000):
        nics, tgts = racks[cycle % len(racks)]
        flow = net.open([(nics[cycle % 2], 1.0), (tgts[0], 0.5), (tgts[1], 0.5)])
        flow.transfer(4096.0)._subscribe(lambda _t: done.append(1))
        live.append(flow)
        if len(live) > 24:  # at most four flows per rack stay open
            net.close(live.pop(0))
            sim.run(until=sim.now + 1e-6)
    assert net.reallocations == alloc.scalar_solves == 1000 + (1000 - 24)
    assert alloc.dense_solves == 0
    assert alloc.dense_rows_built == 0 and alloc._dense is None
    assert net.solved_flows <= 4 * net.reallocations
    assert len(done) >= 1000 - 24


def test_large_component_is_one_dense_solve_per_mutation():
    net = FlowNetwork(Simulator())
    alloc = net._allocator
    shared = net.add_link("shared", 1e10)
    edges = [net.add_link(f"e{i}", 1e9) for i in range(128)]
    flows = [net.open([(shared, 1.0), (edges[i], 1.0), (edges[(i + 1) % 128], 0.5)])
             for i in range(128)]
    warm = alloc.dense_solves
    assert warm > 0 and alloc.scalar_solves + warm == 128
    before = (net.reallocations, net.solved_flows)
    flows[5].set_cap(1e6)
    net.set_link_capacity(shared, 2e10)
    net.close(flows.pop())
    flows.append(net.open([(shared, 1.0), (edges[0], 1.0)]))
    assert alloc.dense_solves == warm + 4
    assert alloc.scalar_solves + warm == 128
    assert net.reallocations == before[0] + 4
    assert net.solved_flows == before[1] + 128 + 128 + 127 + 128
    assert alloc.dense_rows_built == 128 + 1
