"""Unit + property tests for the max-min fair fluid-flow model."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.network.flows import FlowNetwork, Link
from repro.sim import Simulator


def make_net():
    sim = Simulator()
    return sim, FlowNetwork(sim)


def test_single_flow_gets_full_capacity():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    flow = net.open([(link, 1.0)])
    assert flow.rate == pytest.approx(100.0)


def test_two_flows_share_equally():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    f1 = net.open([(link, 1.0)])
    f2 = net.open([(link, 1.0)])
    assert f1.rate == pytest.approx(50.0)
    assert f2.rate == pytest.approx(50.0)


def test_close_restores_rate():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    f1 = net.open([(link, 1.0)])
    f2 = net.open([(link, 1.0)])
    net.close(f2)
    assert f1.rate == pytest.approx(100.0)
    assert f2.rate == 0.0


def test_cap_binds_and_spare_goes_to_others():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    capped = net.open([(link, 1.0)], cap=10.0)
    free = net.open([(link, 1.0)])
    assert capped.rate == pytest.approx(10.0)
    assert free.rate == pytest.approx(90.0)


def test_consumption_weights_model_striping():
    # One flow striped over 4 target links: weight 1/4 on each. Each target
    # has capacity 25 => total consumption per target = rate/4 <= 25 so the
    # flow can run at 100 even though each target is only 25.
    sim, net = make_net()
    targets = [net.add_link(f"t{i}", 25.0) for i in range(4)]
    flow = net.open([(t, 0.25) for t in targets])
    assert flow.rate == pytest.approx(100.0)


def test_weighted_flow_competes_on_hot_target():
    # Striped flow (1/2 on t0,t1) vs dedicated flow on t0.
    # Max-min: equal rates r: t0 consumption r/2 + r = 30 -> r = 20; then the
    # striped flow is NOT limited elsewhere (t1 has headroom) but equal-rate
    # progressive filling fixes both at the t0 saturation point... dedicated
    # flow fixed at 20; striped flow continues growing on t1: 20/2 + extra...
    sim, net = make_net()
    t0 = net.add_link("t0", 30.0)
    t1 = net.add_link("t1", 30.0)
    striped = net.open([(t0, 0.5), (t1, 0.5)])
    dedicated = net.open([(t0, 1.0)])
    # t0 saturates when r*(1.5) = 30 => level 20; both fixed there since both
    # cross t0 (equal-rate max-min: flows on the bottleneck are fixed).
    assert dedicated.rate == pytest.approx(20.0)
    assert striped.rate == pytest.approx(20.0)


def test_multi_link_path_bottleneck():
    sim, net = make_net()
    a = net.add_link("a", 100.0)
    b = net.add_link("b", 40.0)
    flow = net.open([(a, 1.0), (b, 1.0)])
    assert flow.rate == pytest.approx(40.0)


def test_two_bottlenecks_progressive():
    # f1 crosses l1(100) only; f2 crosses l1 and l2(30); f3 crosses l2 only.
    # l2: f2+f3 -> level 15 fixes f2,f3. l1: f1 then takes 100-15=85.
    sim, net = make_net()
    l1 = net.add_link("l1", 100.0)
    l2 = net.add_link("l2", 30.0)
    f1 = net.open([(l1, 1.0)])
    f2 = net.open([(l1, 1.0), (l2, 1.0)])
    f3 = net.open([(l2, 1.0)])
    assert f2.rate == pytest.approx(15.0)
    assert f3.rate == pytest.approx(15.0)
    assert f1.rate == pytest.approx(85.0)


def test_transfer_completes_at_fluid_time():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    flow = net.open([(link, 1.0)])

    def proc():
        yield flow.transfer(200.0)
        return sim.now

    task = sim.spawn(proc())
    sim.run()
    assert task.result == pytest.approx(2.0)


def test_transfer_integrates_rate_changes():
    # Flow alone at 100 B/s for 1 s (100 B done), then a competitor arrives
    # and rate drops to 50: remaining 100 B takes 2 s more -> total 3 s.
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    f1 = net.open([(link, 1.0)])

    def main():
        yield f1.transfer(200.0)
        return sim.now

    def competitor():
        yield 1.0
        net.open([(link, 1.0)])

    task = sim.spawn(main())
    sim.spawn(competitor())
    sim.run()
    assert task.result == pytest.approx(3.0)


def test_transfer_speeds_up_when_competitor_leaves():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    f1 = net.open([(link, 1.0)])
    f2 = net.open([(link, 1.0)])

    def main():
        yield f1.transfer(150.0)
        return sim.now

    def competitor():
        yield 1.0
        net.close(f2)

    task = sim.spawn(main())
    sim.spawn(competitor())
    sim.run()
    # 1 s at 50 B/s = 50 B; remaining 100 B at 100 B/s = 1 s; total 2 s.
    assert task.result == pytest.approx(2.0)


def test_zero_byte_transfer_completes_immediately():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    flow = net.open([(link, 1.0)])

    def proc():
        yield flow.transfer(0)
        return sim.now

    task = sim.spawn(proc())
    sim.run()
    assert task.result == 0.0


def test_concurrent_transfers_on_same_flow_share_flow_rate():
    # Two 100-byte transfers on one flow at rate 100: the fluid model gives
    # the *flow* 100 B/s; both transfers progress at the flow rate
    # independently (they model successive ops, not extra parallelism).
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    flow = net.open([(link, 1.0)])
    done = []

    def proc(i):
        yield flow.transfer(100.0)
        done.append((i, sim.now))

    sim.spawn(proc(0))
    sim.spawn(proc(1))
    sim.run()
    assert [t for _, t in done] == [pytest.approx(1.0), pytest.approx(1.0)]


def test_set_link_capacity_mid_transfer_reschedules():
    # 200 B on a 100 B/s link; at t=1 s (100 B done) the link degrades to
    # 25 B/s: remaining 100 B takes 4 s more -> completion at t=5 s.
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    flow = net.open([(link, 1.0)])

    def main():
        yield flow.transfer(200.0)
        return sim.now

    def degrade():
        yield 1.0
        net.set_link_capacity(link, 25.0)

    task = sim.spawn(main())
    sim.spawn(degrade())
    sim.run()
    assert task.result == pytest.approx(5.0)
    assert flow.rate == pytest.approx(25.0)


def test_set_link_capacity_mid_transfer_speedup():
    # The other direction: the link gets faster mid-flight, and the
    # already-scheduled (now stale) completion event must be superseded.
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    flow = net.open([(link, 1.0)])

    def main():
        yield flow.transfer(300.0)
        return sim.now

    def upgrade():
        yield 1.0
        net.set_link_capacity(link, 400.0)

    task = sim.spawn(main())
    sim.spawn(upgrade())
    sim.run()
    # 1 s at 100 B/s = 100 B; remaining 200 B at 400 B/s = 0.5 s.
    assert task.result == pytest.approx(1.5)


def test_set_cap_mid_transfer_reschedules():
    # Cap applied mid-flight: 1 s at 100 B/s (100 B done), then cap 20:
    # remaining 100 B at 20 B/s = 5 s more -> t=6 s.
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    flow = net.open([(link, 1.0)])

    def main():
        yield flow.transfer(200.0)
        return sim.now

    def throttle():
        yield 1.0
        flow.set_cap(20.0)

    task = sim.spawn(main())
    sim.spawn(throttle())
    sim.run()
    assert task.result == pytest.approx(6.0)
    assert flow.rate == pytest.approx(20.0)


def test_clear_cap_mid_transfer_restores_link_rate():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    flow = net.open([(link, 1.0)], cap=10.0)

    def main():
        yield flow.transfer(110.0)
        return sim.now

    def uncork():
        yield 1.0
        flow.set_cap(None)

    task = sim.spawn(main())
    sim.spawn(uncork())
    sim.run()
    # 1 s at 10 B/s = 10 B; remaining 100 B at 100 B/s = 1 s.
    assert task.result == pytest.approx(2.0)


def test_chained_mutations_accumulate_exact_bytes():
    # Several mutations during one transfer: remaining-bytes accounting
    # must integrate every rate segment. 600 B total:
    #   t in [0,1): 100 B/s (competitor-free)      -> 100 B
    #   t in [1,2): 50 B/s (competitor arrives)    -> 50 B
    #   t in [2,3): 25 B/s (link degraded to 50)   -> 25 B
    #   t in [3,4): 50 B/s (competitor leaves)     -> 50 B
    #   t >= 4:     cap 75 binds under link 50 -> still 50 B/s
    # remaining at t=4: 600-225=375 B at 50 B/s -> 7.5 s -> t=11.5 s.
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    flow = net.open([(link, 1.0)])

    def main():
        yield flow.transfer(600.0)
        return sim.now

    def script():
        competitor = net.open([(link, 1.0)])
        net.close(competitor)  # net effect nil before t=0 transfers start
        yield 1.0
        competitor = net.open([(link, 1.0)])
        yield 1.0
        net.set_link_capacity(link, 50.0)
        yield 1.0
        net.close(competitor)
        yield 1.0
        flow.set_cap(75.0)

    task = sim.spawn(main())
    sim.spawn(script())
    sim.run()
    assert task.result == pytest.approx(11.5)


def test_invalid_inputs_rejected():
    sim, net = make_net()
    with pytest.raises(NetworkError):
        net.add_link("bad", 0.0)
    link = net.add_link("l", 10.0)
    with pytest.raises(NetworkError):
        net.add_link("l", 10.0)
    with pytest.raises(NetworkError):
        net.open([(link, 1.0)], cap=0.0)
    with pytest.raises(NetworkError):
        net.link("missing")
    flow = net.open([(link, 1.0)])
    with pytest.raises(NetworkError):
        flow.transfer(-5)


def test_close_unknown_flow_is_noop():
    sim, net = make_net()
    link = net.add_link("l", 10.0)
    flow = net.open([(link, 1.0)])
    net.close(flow)
    net.close(flow)  # second close must not raise
    assert link.n_flows == 0


def test_utilization_reporting():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    net.open([(link, 1.0)], cap=25.0)
    assert link.utilization() == pytest.approx(0.25)


def test_utilization_gauge_drops_when_last_flow_closes():
    """Regression: closing the only flow on a link left an empty
    component, sampling was skipped, and ``fabric.link.utilization``
    read its last non-zero value forever."""
    from repro.obs import install

    sim, net = make_net()
    install(sim, tracing=False, metrics=True)
    busy = net.add_link("busy", 100.0)
    other = net.add_link("other", 100.0)
    keeper = net.open([(other, 1.0)], cap=50.0)
    flow = net.open([(busy, 1.0)])
    gauge = sim.metrics.gauge("fabric.link.utilization{link=busy}")
    assert gauge.value == 1.0
    sim.run(until=1.0)
    net.close(flow)
    sim.run(until=2.0)
    assert gauge.value == busy.utilization() == 0.0
    assert gauge.timeline[-1] == (1.0, 0.0)
    # the untouched component was not resampled
    assert len(sim.metrics.gauge(
        "fabric.link.utilization{link=other}").timeline) == 1
    net.close(keeper)


def test_repeated_link_in_a_path_counts_once_with_summed_weight():
    sim, net = make_net()
    link = net.add_link("l", 90.0)
    flow = net.open([(link, 1.0), (link, 0.5)])
    assert (flow.links, flow.weights) == ((link,), (1.5,))
    assert flow.rate == pytest.approx(60.0)
    assert link.utilization() == pytest.approx(1.0)
    net.close(flow)
    assert link.n_flows == 0


def test_open_flow_owns_two_containers_not_one_per_link():
    sim, net = make_net()
    links = [net.add_link(f"l{i}", 100.0) for i in range(4)]
    flow = net.open([(link, 0.25) for link in links])
    assert flow.links == tuple(links)
    assert flow.weights == (0.25,) * 4
    gc.collect()
    owned = [obj for obj in gc.get_referents(flow) if isinstance(obj, tuple)]
    assert owned == [flow.links, flow.weights]
    assert all(type(link) is Link for link in flow.links)
    assert not gc.is_tracked(flow.weights)


@settings(max_examples=60, deadline=None)
@given(
    capacities=st.lists(st.floats(1.0, 1e4), min_size=1, max_size=5),
    flow_specs=st.lists(
        st.tuples(
            st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True),
            st.one_of(st.none(), st.floats(0.5, 1e4)),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_allocation_is_feasible_and_work_conserving(capacities, flow_specs):
    """Property: no link oversubscribed; no flow can be raised unilaterally."""
    sim = Simulator()
    net = FlowNetwork(sim)
    links = [net.add_link(f"l{i}", c) for i, c in enumerate(capacities)]
    flows = []
    for link_ids, cap in flow_specs:
        chosen = [links[i % len(links)] for i in link_ids]
        # dedupe (same link twice would double-count weight)
        chosen = list(dict.fromkeys(chosen))
        flows.append(net.open([(l, 1.0) for l in chosen], cap=cap))

    slack = {l: l.capacity for l in links}
    for flow in flows:
        assert flow.rate >= 0
        if flow.cap is not None:
            assert flow.rate <= flow.cap + 1e-6
        for link, weight in zip(flow.links, flow.weights):
            slack[link] -= flow.rate * weight
    for link, s in slack.items():
        assert s >= -1e-6 * link.capacity  # feasibility

    # Max-min/work-conservation: every flow is blocked by its cap or by at
    # least one saturated link on its path.
    for flow in flows:
        capped = flow.cap is not None and flow.rate >= flow.cap - 1e-6
        saturated = any(
            slack[link] <= 1e-6 * link.capacity for link in flow.links
        )
        assert capped or saturated


def test_bulk_flow_weights_match_summed_weights_and_share_one_float():
    """``Fabric.open_bulk_flow`` hands every server-side link the same
    ``1 / len(targets)`` float; the flow keeps it where a link is listed
    once and sums it where several targets share a link (their node's
    NIC, their engine's media channel), float-equal to summing into a
    ``defaultdict(float)`` link by link."""
    from collections import defaultdict

    from repro.cluster import small_cluster

    cluster = small_cluster(server_nodes=1, client_nodes=1,
                            targets_per_engine=4)
    fabric = cluster.fabric
    client = cluster.clients[0].addr
    # three targets of engine 0 and one of engine 1, all on one node
    targets = [cluster.daos.target(tid).hw for tid in (0, 1, 2, 4)]
    assert len({hw.engine.index for hw in targets[:3]}) == 1
    weight = 1.0 / len(targets)
    for write in (True, False):
        summed = defaultdict(float)
        summed[fabric.nic_tx(client) if write else fabric.nic_rx(client)] += 1
        service = []
        for hw in targets:
            node = hw.node.addr
            engine = hw.engine
            service.append(hw.write_link if write else hw.read_link)
            for link in (fabric.nic_rx(node) if write else fabric.nic_tx(node),
                         engine.media_write if write else engine.media_read,
                         service[-1]):
                summed[link] += weight
        flow = fabric.open_bulk_flow(client, targets,
                                     "write" if write else "read", label="t")
        assert flow.links == tuple(summed)
        assert flow.weights == tuple(summed.values())
        weights = dict(zip(flow.links, flow.weights))
        assert len({id(weights[link]) for link in service}) == 1
        fabric.flownet.close(flow)
