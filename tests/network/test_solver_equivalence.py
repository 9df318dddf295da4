"""Differential equivalence: MaxMinAllocator vs the global-solve oracle.

The shipped allocator re-solves only the dirty connected component,
with a scalar or a numpy strategy by component size, but its float
semantics mirror the oracle (``tests/network/oracle.py``)
operation-for-operation.  This harness drives *randomized seeded
sequences* of mutations — flow open / close / ``set_cap`` /
``set_link_capacity`` — through two mirrored networks, one per
allocator, over several topology shapes, and asserts:

- per-flow rates match within ``_EPS``-scaled tolerance after every
  mutation (in practice they match exactly);
- transfer completion times are identical (the mirrored simulations are
  stepped together and compared event-for-event at the end).

Shapes are chosen to exercise the solver's structural paths: single hot
link (star), the bipartite client-NIC x target pattern of the IOR
figures, striping with fractional weights, long chains (worst case for
component expansion), sparse random graphs (many independent components
— the component skipping's best case), and disjoint islands.

``N_SEQUENCES`` x ``len(SHAPES)`` must stay >= 200 (the acceptance bar
for this suite).
"""

import math
import random
import zlib

import pytest

from repro.network.allocator import EPS, UNBOUNDED_RATE, MaxMinAllocator
from repro.network.flows import FlowNetwork
from repro.sim import Simulator
from tests.network.oracle import ReferenceAllocator

#: one factory per side of a mirrored pair: oracle first
ALLOCATORS = (ReferenceAllocator, MaxMinAllocator)

#: randomized operation sequences per topology shape
N_SEQUENCES = 40

#: mutation steps per sequence
N_STEPS = 60


# -- topology shapes ---------------------------------------------------------
# Each shape builds links on a (sim, net) pair and returns:
#   links      : list of Link
#   flow_maker : rng -> list[(Link, weight)] for a new flow


def shape_star(net, rng):
    hot = net.add_link("hot", rng.uniform(50.0, 200.0))
    spokes = [net.add_link(f"s{i}", rng.uniform(10.0, 100.0)) for i in range(4)]

    def maker(rng):
        return [(hot, 1.0), (rng.choice(spokes), 1.0)]

    return [hot] + spokes, maker


def shape_bipartite(net, rng):
    """Client NICs x storage targets — the IOR figure pattern."""
    nics = [net.add_link(f"nic{i}", rng.uniform(80.0, 120.0)) for i in range(4)]
    tgts = [net.add_link(f"tgt{i}", rng.uniform(20.0, 60.0)) for i in range(6)]

    def maker(rng):
        return [(rng.choice(nics), 1.0), (rng.choice(tgts), 1.0)]

    return nics + tgts, maker


def shape_striped(net, rng):
    """One NIC per flow, striped over k targets with weight 1/k."""
    nics = [net.add_link(f"nic{i}", rng.uniform(80.0, 120.0)) for i in range(3)]
    tgts = [net.add_link(f"tgt{i}", rng.uniform(10.0, 40.0)) for i in range(8)]

    def maker(rng):
        k = rng.randint(2, 4)
        chosen = rng.sample(tgts, k)
        return [(rng.choice(nics), 1.0)] + [(t, 1.0 / k) for t in chosen]

    return nics + tgts, maker


def shape_chain(net, rng):
    """Flows span adjacent links of a chain — worst case for component
    expansion (everything is eventually connected)."""
    chain = [net.add_link(f"c{i}", rng.uniform(30.0, 90.0)) for i in range(10)]

    def maker(rng):
        start = rng.randint(0, len(chain) - 3)
        span = rng.randint(2, 3)
        return [(l, 1.0) for l in chain[start : start + span]]

    return chain, maker


def shape_sparse(net, rng):
    """Random sparse pairs: usually several independent components."""
    links = [net.add_link(f"r{i}", rng.uniform(10.0, 150.0)) for i in range(12)]

    def maker(rng):
        return [(l, rng.uniform(0.25, 1.0)) for l in rng.sample(links, 2)]

    return links, maker


def shape_islands(net, rng):
    """Disjoint 2-link islands; mutations in one island must never
    perturb the rates of another (the allocator skips them)."""
    islands = [
        (net.add_link(f"i{i}a", rng.uniform(20.0, 80.0)),
         net.add_link(f"i{i}b", rng.uniform(20.0, 80.0)))
        for i in range(5)
    ]

    def maker(rng):
        a, b = rng.choice(islands)
        return [(a, 1.0), (b, 1.0)]

    return [l for pair in islands for l in pair], maker


SHAPES = {
    "star": shape_star,
    "bipartite": shape_bipartite,
    "striped": shape_striped,
    "chain": shape_chain,
    "sparse": shape_sparse,
    "islands": shape_islands,
}


# -- mirrored-pair harness ---------------------------------------------------


class MirroredPair:
    """Two networks, one per allocator, receiving identical mutations."""

    def __init__(self, shape, seed):
        self.rng = random.Random(seed)
        self.sims = (Simulator(), Simulator())
        self.nets = tuple(
            FlowNetwork(sim, allocator=make())
            for sim, make in zip(self.sims, ALLOCATORS)
        )
        # same seed for both builds => mirrored topologies; keep parallel
        # link lists so ops can address "the same link" on both sides
        made = [shape(net, random.Random(seed + 1)) for net in self.nets]
        self.links = tuple(m[0] for m in made)
        self.makers = tuple(m[1] for m in made)
        self.flows = ([], [])  # parallel open-flow lists
        self.completions = ([], [])  # (label, sim time) per side

    def check_rates(self):
        ref_flows, inc_flows = self.flows
        assert len(ref_flows) == len(inc_flows)
        for i, (rf, incf) in enumerate(zip(ref_flows, inc_flows)):
            scale = max(1.0, abs(rf.rate))
            assert abs(rf.rate - incf.rate) <= EPS * scale, (
                f"flow {i}: reference rate {rf.rate!r} != "
                f"incremental rate {incf.rate!r}"
            )

    def step_op(self, op_rng):
        """Apply one random mutation to both sides."""
        roll = op_rng.random()
        n_open = len(self.flows[0])
        if roll < 0.45 or n_open == 0:
            # open a flow (sometimes capped, sometimes with a transfer)
            maker_seed = op_rng.randrange(1 << 30)
            cap = None
            if op_rng.random() < 0.3:
                cap = op_rng.uniform(0.5, 120.0)
            nbytes = None
            if op_rng.random() < 0.6:
                nbytes = op_rng.uniform(1.0, 500.0)
            for side, net in enumerate(self.nets):
                spec = self.makers[side](random.Random(maker_seed))
                flow = net.open(spec, cap=cap)
                self.flows[side].append(flow)
                if nbytes is not None:
                    label = len(self.completions[side])
                    tr = flow.transfer(nbytes)
                    sim = self.sims[side]
                    done = self.completions[side]
                    tr._subscribe(
                        lambda value=None, l=label, s=sim, d=done: d.append(
                            (l, s.now)
                        )
                    )
        elif roll < 0.65:
            idx = op_rng.randrange(n_open)
            for side, net in enumerate(self.nets):
                net.close(self.flows[side].pop(idx))
        elif roll < 0.85:
            idx = op_rng.randrange(n_open)
            new_cap = None if op_rng.random() < 0.25 else op_rng.uniform(0.5, 120.0)
            for side in range(2):
                self.flows[side][idx].set_cap(new_cap)
        else:
            li = op_rng.randrange(len(self.links[0]))
            new_capacity = op_rng.uniform(1.0, 150.0)
            for side, net in enumerate(self.nets):
                net.set_link_capacity(self.links[side][li], new_capacity)
        # advance both simulations by the same wall step so transfers
        # progress (and complete) between mutations
        dt = op_rng.uniform(0.0, 2.0)
        for side, sim in enumerate(self.sims):
            sim.run(until=sim.now + dt)

    def run_sequence(self, n_steps):
        op_rng = random.Random(self.rng.randrange(1 << 30))
        for _ in range(n_steps):
            self.step_op(op_rng)
            self.check_rates()
        # drain outstanding events, then compare completion times. Exact
        # equality holds within a connected component; across components
        # the reference's global level accumulation can differ in the
        # last ulp, so compare with a tight relative tolerance.
        for side in range(2):
            self.sims[side].run(until=self.sims[side].now + 1e4)
        ref_done = dict(self.completions[0])
        inc_done = dict(self.completions[1])
        assert ref_done.keys() == inc_done.keys(), (
            "different transfers completed under the two solvers"
        )
        for label, t_ref in ref_done.items():
            assert math.isclose(
                t_ref, inc_done[label], rel_tol=1e-9, abs_tol=1e-12
            ), f"transfer {label}: {t_ref!r} vs {inc_done[label]!r}"


@pytest.mark.parametrize("shape_name", sorted(SHAPES))
@pytest.mark.parametrize("seq", range(N_SEQUENCES))
def test_randomized_sequences_equivalent(shape_name, seq):
    seed = 1000 * seq + zlib.crc32(shape_name.encode()) % 997
    pair = MirroredPair(SHAPES[shape_name], seed=seed)
    pair.run_sequence(N_STEPS)


def test_suite_meets_acceptance_scale():
    """The acceptance bar: >=200 randomized sequences over >=5 shapes."""
    assert len(SHAPES) >= 5
    assert N_SEQUENCES * len(SHAPES) >= 200


# -- regression corners ------------------------------------------------------


def make_pair():
    sims = (Simulator(), Simulator())
    nets = tuple(
        FlowNetwork(sim, allocator=make()) for sim, make in zip(sims, ALLOCATORS)
    )
    return sims, nets


def test_corner_tiny_capacity_link():
    """Links at the validity floor (capacity must be > 0): rates collapse
    to the tiny link on both solvers identically."""
    _, nets = make_pair()
    rates = []
    for net in nets:
        tiny = net.add_link("tiny", 1e-12)
        big = net.add_link("big", 100.0)
        f1 = net.open([(tiny, 1.0), (big, 1.0)])
        f2 = net.open([(big, 1.0)])
        rates.append((f1.rate, f2.rate))
    assert rates[0] == rates[1]


def test_corner_capless_linkfree_flow_is_unbounded():
    """A flow with no links and no cap has no binding constraint: both
    solvers assign the sentinel unbounded rate."""
    _, nets = make_pair()
    for net in nets:
        flow = net.open([])
        assert flow.rate == UNBOUNDED_RATE


def test_corner_simultaneous_cap_and_link_saturation():
    """Cap crossing and link saturation at exactly the same level: the
    cap-first fixing order must agree between solvers."""
    _, nets = make_pair()
    rates = []
    for net in nets:
        link = net.add_link("l", 100.0)
        capped = net.open([(link, 1.0)], cap=50.0)  # cap == fair share
        free = net.open([(link, 1.0)])
        rates.append((capped.rate, free.rate))
    assert rates[0] == rates[1]
    assert rates[0][0] == pytest.approx(50.0)
    assert rates[0][1] == pytest.approx(50.0)


def test_corner_zero_weight_links_dropped():
    """Zero-weight path entries are filtered at open() on both solvers."""
    _, nets = make_pair()
    rates = []
    for net in nets:
        a = net.add_link("a", 40.0)
        b = net.add_link("b", 10.0)
        flow = net.open([(a, 1.0), (b, 0.0)])
        rates.append(flow.rate)
    assert rates[0] == rates[1] == pytest.approx(40.0)


# Degenerate-topology trigger for the forced-exit fallback: two flows on
# link L whose weights differ by 13 orders of magnitude.  Summing the
# weights rounds (catastrophic cancellation), so after both flows fix via
# their tiny caps the subtract-then-clamp decrement leaves a *residual*
# denominator e = ((WBIG + WSMALL) - WBIG) - WSMALL ~ 1.9e-7 > _EPS on L.
# L then looks like a live bottleneck with no unfixed flows on it: the
# next step picks it, fixes nothing, and the solver must force-exit,
# leaving the third flow (connected through M so it shares the component)
# stalled at rate 0.  The old code broke out of the loop silently here.
FE_WBIG = 10000000007.0
FE_WSMALL = 0.00014285714285714287


def _build_forced_exit(net):
    L = net.add_link("L", 100.0)
    M = net.add_link("M", 1e12)
    a = net.open([(L, FE_WBIG)], cap=1e-12)
    b = net.open([(L, FE_WSMALL), (M, 0.5)], cap=2e-12)
    c = net.open([(M, 1.0)])  # victim: stalls at 0 on forced exit
    return a, b, c


def test_forced_exit_residual_is_real():
    """The premise of the construction, pinned: the weight pair leaves a
    denominator residual above _EPS."""
    residual = ((FE_WBIG + FE_WSMALL) - FE_WBIG) - FE_WSMALL
    assert residual > EPS


@pytest.mark.parametrize("make", ALLOCATORS)
def test_forced_exit_degenerate_topology(make):
    net = FlowNetwork(Simulator(), allocator=make())
    a, b, c = _build_forced_exit(net)
    assert net._allocator.forced_exits == 1
    assert (a.rate, b.rate, c.rate) == (1e-12, 1e-12, 0.0)


@pytest.mark.parametrize("scalar_cells", [320, -1], ids=["scalar", "dense"])
def test_forced_exit_is_logged_by_both_strategies(scalar_cells, caplog):
    import logging

    allocator = MaxMinAllocator()
    allocator.scalar_cells = scalar_cells
    net = FlowNetwork(Simulator(), allocator=allocator)
    with caplog.at_level(logging.WARNING, logger="repro.network.allocator"):
        a, b, c = _build_forced_exit(net)
    assert net._allocator.forced_exits == 1
    assert (a.rate, b.rate, c.rate) == (1e-12, 1e-12, 0.0)
    assert any("forced exit" in rec.message for rec in caplog.records)


def test_forced_exit_metric_counted():
    """With metrics installed, forced exits increment the
    fabric.solver.forced_exit counter."""
    from repro.obs import install

    sim = Simulator()
    install(sim, tracing=False)
    net = FlowNetwork(sim)
    _build_forced_exit(net)
    assert net._allocator.forced_exits == 1
    assert sim.metrics.counter("fabric.solver.forced_exit").value == 1
