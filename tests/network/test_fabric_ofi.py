"""Tests for the fabric latency model and OFI-like endpoints/RPC."""

import gc

import pytest

from repro.errors import DerNonexist, NetworkError
from repro.hardware.specs import FabricSpec
from repro.network import Endpoint, Fabric, Rpc, RpcServer
from repro.obs import install
from repro.sim import Simulator


def make_fabric():
    sim = Simulator()
    fabric = Fabric(sim, FabricSpec(base_latency=1e-6, msg_bandwidth=1e9,
                                    software_overhead=0.5e-6))
    return sim, fabric


def test_duplicate_node_rejected():
    sim, fabric = make_fabric()
    fabric.add_node("n0", 1e9)
    with pytest.raises(NetworkError):
        fabric.add_node("n0", 1e9)


def test_nic_links_have_aggregated_rail_capacity():
    sim, fabric = make_fabric()
    addr = fabric.add_node("n0", 10e9, rails=2)
    assert fabric.nic_tx(addr).capacity == pytest.approx(20e9)
    assert fabric.nic_rx(addr).capacity == pytest.approx(20e9)


def test_msg_delay_components():
    sim, fabric = make_fabric()
    a = fabric.add_node("a", 1e9)
    b = fabric.add_node("b", 1e9)
    delay = fabric.msg_delay(a, b, 1000)
    # latency 1us + 2*0.5us software + 1000B/1GBps = 1us
    assert delay == pytest.approx(3e-6)
    # loopback skips the wire
    assert fabric.msg_delay(a, a, 1000) == pytest.approx(1e-6)


def test_endpoint_send_recv_roundtrip():
    sim, fabric = make_fabric()
    a = fabric.add_node("a", 1e9)
    b = fabric.add_node("b", 1e9)
    ep_a = Endpoint(fabric, a, "ep-a")
    ep_b = Endpoint(fabric, b, "ep-b")

    def receiver():
        message = yield ep_b.recv()
        return (message.src, message.payload, sim.now)

    task = sim.spawn(receiver())
    ep_a.send("ep-b", {"x": 1}, nbytes=100)
    sim.run()
    src, payload, t = task.result
    assert src == "ep-a" and payload == {"x": 1}
    assert t > 0


def test_tagged_recv_separates_streams():
    sim, fabric = make_fabric()
    a = fabric.add_node("a", 1e9)
    ep = Endpoint(fabric, a, "ep")
    ep2 = Endpoint(fabric, a, "ep2")

    def receiver():
        msg_b = yield ep.recv(tag="beta")
        msg_a = yield ep.recv(tag="alpha")
        return [msg_a.payload, msg_b.payload]

    task = sim.spawn(receiver())
    ep2.send("ep", "A", tag="alpha")
    ep2.send("ep", "B", tag="beta")
    sim.run()
    assert task.result == ["A", "B"]


def test_unknown_endpoint_raises():
    sim, fabric = make_fabric()
    a = fabric.add_node("a", 1e9)
    ep = Endpoint(fabric, a, "ep")
    with pytest.raises(NetworkError):
        ep.send("nowhere", "x")


def test_rpc_roundtrip_and_handler_work():
    sim, fabric = make_fabric()
    a = fabric.add_node("a", 1e9)
    b = fabric.add_node("b", 1e9)
    server = RpcServer(fabric, b, "srv")

    def handle_add(_src, x, y):
        yield 1e-3  # simulated service time
        return x + y

    server.register("add", handle_add)
    client = Rpc(Endpoint(fabric, a, "cli"))

    def caller():
        result = yield from client.call("srv", "add", {"x": 2, "y": 3})
        return (result, sim.now)

    task = sim.spawn(caller())
    sim.run()
    result, t = task.result
    assert result == 5
    assert t >= 1e-3  # at least the service time plus two message delays


def test_rpc_handler_exception_propagates_to_caller():
    sim, fabric = make_fabric()
    a = fabric.add_node("a", 1e9)
    server = RpcServer(fabric, a, "srv")

    def handler(_src):
        yield 0.0
        raise ValueError("remote failure")

    server.register("boom", handler)
    client = Rpc(Endpoint(fabric, a, "cli"))

    def caller():
        try:
            yield from client.call("srv", "boom")
        except ValueError as exc:
            return str(exc)

    task = sim.spawn(caller())
    sim.run()
    assert task.result == "remote failure"


def test_remote_errors_are_freed_by_refcounting():
    """A shipped ``Der*`` error holds no cycle through the server's or
    the caller's frame, so the cyclic collector finds nothing to free."""
    sim, fabric = make_fabric()
    a = fabric.add_node("a", 1e9)
    server = RpcServer(fabric, a, "srv")

    def handler(_src):
        yield 0.0
        raise DerNonexist("no such key")

    server.register("miss", handler)
    client = Rpc(Endpoint(fabric, a, "cli"))
    caught = []

    def caller():
        for _ in range(50):
            try:
                yield from client.call("srv", "miss")
            except DerNonexist:
                caught.append(True)

    gc.collect()
    gc.disable()  # so no automatic collection frees the cycles first
    try:
        sim.spawn(caller())
        sim.run()
    finally:
        gc.enable()
    assert len(caught) == 50
    assert gc.collect() == 0


def test_rpc_unknown_op_is_error():
    sim, fabric = make_fabric()
    a = fabric.add_node("a", 1e9)
    RpcServer(fabric, a, "srv")
    client = Rpc(Endpoint(fabric, a, "cli"))

    def caller():
        try:
            yield from client.call("srv", "nope")
        except NetworkError:
            return "err"

    task = sim.spawn(caller())
    sim.run()
    assert task.result == "err"


def test_concurrent_rpcs_matched_by_id():
    sim, fabric = make_fabric()
    a = fabric.add_node("a", 1e9)
    b = fabric.add_node("b", 1e9)
    server = RpcServer(fabric, b, "srv")

    def handler(_src, delay, token):
        yield delay
        return token

    server.register("echo", handler)
    client = Rpc(Endpoint(fabric, a, "cli"))

    def caller(delay, token):
        result = yield from client.call(
            "srv", "echo", {"delay": delay, "token": token}
        )
        return result

    slow = sim.spawn(caller(1e-2, "slow"))
    fast = sim.spawn(caller(1e-4, "fast"))
    sim.run()
    assert slow.result == "slow"
    assert fast.result == "fast"


# ------------------------------------------------------------ RPC plumbing
def make_rpc_pair(handler_time=1e-3):
    """A server on node b with a sleeping ``echo`` handler, a client on
    node a, and lists recording service and reply order."""
    sim, fabric = make_fabric()
    a = fabric.add_node("a", 1e9)
    b = fabric.add_node("b", 1e9)
    server = RpcServer(fabric, b, "srv")
    served = []

    def echo(_src, token):
        served.append(token)
        yield handler_time
        return token

    server.register("echo", echo)
    return sim, fabric, a, b, server, served


def test_rpc_round_trip_costs_six_events_and_one_task():
    sim, fabric, a, b, server, _served = make_rpc_pair()
    client = Rpc(Endpoint(fabric, a, "cli"))
    spawns = [0]
    spawn = sim.spawn

    def counting_spawn(*args, **kwargs):
        spawns[0] += 1
        return spawn(*args, **kwargs)

    def caller():
        # Count from inside the caller so its own spawn stays out; heap
        # pushes (sim._seq) include the ones that bypass schedule().
        sim.spawn = counting_spawn
        pushed = sim._seq
        yield from client.call("srv", "echo", {"token": 1})
        return sim._seq - pushed, spawns[0]

    task = sim.spawn(caller())
    sim.run()
    # deliver, dispatcher hop, serve, handler sleep, reply deliver, resume
    assert task.result == (6, 1)


def test_rpc_reply_time_is_the_sum_of_its_parts():
    handler_time = 1e-3
    sim, fabric, a, b, server, _served = make_rpc_pair(handler_time)
    client = Rpc(Endpoint(fabric, a, "cli"))

    def caller():
        yield from client.call(
            "srv", "echo", {"token": 1}, req_bytes=512, rep_bytes=4096
        )
        return sim.now

    task = sim.spawn(caller())
    sim.run()
    expected = 0.0 + fabric.msg_delay(a, b, 512)
    expected += server.dispatch_overhead
    expected += handler_time
    expected += fabric.msg_delay(b, a, 4096)
    assert task.result == expected  # float-equal, not approx


def test_rpcs_delivered_together_are_served_and_answered_fifo():
    sim, fabric, a, b, server, served = make_rpc_pair()
    answered = []
    times = set()

    def caller(client, token):
        yield from client.call("srv", "echo", {"token": token})
        answered.append(token)
        times.add(sim.now)

    for token in range(8):
        client = Rpc(Endpoint(fabric, a, f"cli{token}"))
        sim.spawn(caller(client, token))
    sim.run()
    assert served == list(range(8))
    assert answered == list(range(8))
    assert len(times) == 1  # same delays, so one reply timestamp


def test_unavailable_server_is_checked_when_service_starts():
    sim, fabric, a, b, server, served = make_rpc_pair()
    server.unavailable_delay = 5e-3
    client = Rpc(Endpoint(fabric, a, "cli"))
    delivery = fabric.msg_delay(a, b, 256)
    # Up at delivery, down by the time the dispatch cost has been paid.
    sim.schedule(
        delivery + server.dispatch_overhead / 2,
        server.set_unavailable,
        lambda: NetworkError("srv is down"),
    )

    def caller():
        try:
            yield from client.call("srv", "echo", {"token": 1})
        except NetworkError as exc:
            return (str(exc), sim.now)

    task = sim.spawn(caller())
    sim.run()
    expected = 0.0 + delivery
    expected += server.dispatch_overhead
    expected += server.unavailable_delay
    expected += fabric.msg_delay(b, a, 256)
    assert task.result == ("srv is down", expected)
    assert served == []

    server.set_unavailable(None)
    again = sim.spawn(client.call("srv", "echo", {"token": 2}))
    sim.run()
    assert again.result == 2


def test_reply_with_no_pending_call_is_dropped():
    sim, fabric, a, b, server, _served = make_rpc_pair()
    client = Rpc(Endpoint(fabric, a, "cli"))
    server.send(
        "cli", {"id": -1, "outcome": ("ok", "stale")}, tag="rpc-rep"
    )
    sim.run()
    assert not client._pending
    task = sim.spawn(client.call("srv", "echo", {"token": 7}))
    sim.run()
    assert task.result == 7


def test_server_node_builds_links():
    from repro.hardware import NodeSpec, ServerNode

    sim, fabric = make_fabric()
    node = ServerNode(fabric, "srv0", NodeSpec(engines=2))
    assert len(node.engines) == 2
    targets = node.all_targets()
    assert len(targets) == 16
    engine = node.engines[0]
    assert engine.media_read.capacity > engine.media_write.capacity
    t = targets[0]
    assert t.read_link.capacity == pytest.approx(3.6e9)
    assert t.write_link.capacity == pytest.approx(2.2e9)
    assert t.node is node


def test_client_node_has_no_engines():
    from repro.hardware import ClientNode, NodeSpec

    sim, fabric = make_fabric()
    node = ClientNode(fabric, "c0", NodeSpec())
    assert fabric.nic_tx(node.addr).capacity == pytest.approx(22e9)


def test_engine_spec_media_bandwidths():
    from repro.hardware import EngineSpec

    spec = EngineSpec()
    assert spec.media_read_bw == pytest.approx(6 * 6.8e9 * 0.80)
    assert spec.media_write_bw == pytest.approx(6 * 2.3e9 * 0.75)


# ---------------------------------------------------------------------------
# Fault plane: partition / heal / delay / drop, all centralized in
# Fabric.transmit so every endpoint (raft, RPC, engines) is covered.
# ---------------------------------------------------------------------------


def _two_endpoints():
    sim, fabric = make_fabric()
    a = fabric.add_node("a", 1e9)
    b = fabric.add_node("b", 1e9)
    ep_a = Endpoint(fabric, a, "ep-a")
    ep_b = Endpoint(fabric, b, "ep-b")
    return sim, fabric, ep_a, ep_b


def test_partition_blocks_both_directions_and_heal_restores():
    sim, fabric, ep_a, ep_b = _two_endpoints()
    pairs = fabric.partition(["a"], ["b"])
    assert {("a", "b"), ("b", "a")} <= fabric._blocked

    ep_a.send("ep-b", "lost", nbytes=10)
    sim.run()
    assert fabric.dropped_messages == 1

    fabric.heal(pairs)
    assert not fabric._blocked

    def receiver():
        message = yield ep_b.recv()
        return message.payload

    task = sim.spawn(receiver())
    ep_a.send("ep-b", "through", nbytes=10)
    sim.run()
    assert task.result == "through"
    # the partitioned-away message is gone for good, not delayed
    assert fabric.delivered_messages == 1


def test_partition_rejects_node_on_both_sides():
    sim, fabric, *_ = _two_endpoints()
    with pytest.raises(NetworkError):
        fabric.partition(["a"], ["a", "b"])


def test_extra_delay_slows_link():
    sim, fabric, ep_a, ep_b = _two_endpoints()

    def receiver():
        message = yield ep_b.recv()
        return sim.now

    baseline_task = sim.spawn(receiver())
    ep_a.send("ep-b", 1, nbytes=10)
    sim.run()
    baseline = baseline_task.result

    fabric.set_extra_delay("a", "b", 5e-3)
    assert fabric._extra_delay == {("a", "b"): 5e-3, ("b", "a"): 5e-3}
    sim2_task = sim.spawn(receiver())
    start = sim.now
    ep_a.send("ep-b", 2, nbytes=10)
    sim.run()
    assert sim2_task.result - start == pytest.approx(baseline + 5e-3)

    fabric.set_extra_delay("a", "b", 0.0)  # clears
    assert not fabric._extra_delay
    sim3_task = sim.spawn(receiver())
    start = sim.now
    ep_a.send("ep-b", 3, nbytes=10)
    sim.run()
    assert sim3_task.result - start == pytest.approx(baseline)


def test_drop_rule_discards_selected_messages():
    sim, fabric, ep_a, ep_b = _two_endpoints()
    tracer, _ = install(sim)
    flips = iter([True, False])
    fabric.set_drop_rule("a", "b", lambda: next(flips))
    assert set(fabric._drop_rules) == {("a", "b"), ("b", "a")}

    def receiver():
        message = yield ep_b.recv()
        return message.payload

    task = sim.spawn(receiver())
    ep_a.send("ep-b", "first", nbytes=10)   # dropped
    ep_a.send("ep-b", "second", nbytes=10)  # delivered
    sim.run()
    assert task.result == "second"
    assert fabric.dropped_messages == 1
    assert fabric.delivered_messages == 1
    # the drop is an instant naming both ends
    assert [(span.kind, span.attrs["src"], span.attrs["dst"])
            for span in tracer.spans if span.name == "fabric.drop"] == [
        ("i", "a", "b")]
    fabric.set_drop_rule("a", "b", None)
