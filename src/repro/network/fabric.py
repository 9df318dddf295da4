"""Cluster fabric: nodes, NIC links, and the message latency model.

The fabric assumes a non-blocking fat-tree / dragonfly-class core (true of
NEXTGenIO's Omni-Path deployment at the scales benchmarked), so contention
is modelled at the NIC endpoints only. Every node gets a transmit link and
a receive link in the shared :class:`~repro.network.flows.FlowNetwork`;
bulk data movement opens flows across those links (plus storage-device
links supplied by the caller), while small control messages pay a simple
latency + serialization delay without occupying flow capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional,
                    Set, Tuple)

from repro.errors import NetworkError
from repro.network.flows import Flow, FlowNetwork, Link
from repro.sim.core import Simulator

if TYPE_CHECKING:  # hardware imports this module
    from repro.hardware.specs import FabricSpec


@dataclass(frozen=True)
class NodeAddr:
    """Opaque handle for a node attached to the fabric."""

    name: str

    def __str__(self) -> str:
        return self.name


def stream_moves(client: NodeAddr, targets, direction: str) -> list:
    """The :meth:`Fabric.open_bulk_flow` moves of ``client`` streaming
    to (``"write"``) or from (``"read"``) storage ``targets``: the bytes
    spread evenly, one share float for every target."""
    share = 1.0 / len(targets)
    if direction == "write":
        return [(client, hw, share) for hw in targets]
    return [(hw, client, share) for hw in targets]


class Fabric:
    """Nodes + NIC links + latency model + endpoint registry."""

    def __init__(self, sim: Simulator, spec: FabricSpec):
        self.sim = sim
        #: bulk-data bandwidth model
        self.flownet = FlowNetwork(sim)
        #: one-way wire latency between any two distinct nodes
        self.base_latency = spec.base_latency
        #: serialization bandwidth applied to small (non-flow) messages
        self.msg_bandwidth = spec.msg_bandwidth
        #: per-message CPU cost at each end (libfabric + provider stack)
        self.software_overhead = spec.software_overhead
        #: RPC-caller timeout against an unresponsive peer (see
        #: :class:`~repro.hardware.specs.FabricSpec.rpc_timeout`)
        self.rpc_timeout = spec.rpc_timeout
        self._nodes: Dict[str, Tuple[Link, Link]] = {}
        self._endpoints: Dict[str, "object"] = {}
        # -- fault plane state (see the fault-plane section below) --
        #: directed (src_node, dst_node) pairs whose messages are dropped
        self._blocked: Set[Tuple[str, str]] = set()
        #: directed per-pair extra one-way latency
        self._extra_delay: Dict[Tuple[str, str], float] = {}
        #: directed per-pair drop predicates (flaky links)
        self._drop_rules: Dict[Tuple[str, str], Callable[[], bool]] = {}
        self.dropped_messages = 0
        self.delivered_messages = 0

    # -- topology ------------------------------------------------------------
    def add_node(self, name: str, nic_bw: float, rails: int = 1) -> NodeAddr:
        """Attach a node with ``rails`` NIC rails of ``nic_bw`` bytes/s each.

        Multi-rail adapters are aggregated into a single tx and a single rx
        link of summed capacity (DAOS and MPI both stripe bulk transfers
        over rails).
        """
        if name in self._nodes:
            raise NetworkError(f"duplicate node {name!r}")
        total = nic_bw * rails
        tx = self.flownet.add_link(f"nic_tx:{name}", total)
        rx = self.flownet.add_link(f"nic_rx:{name}", total)
        self._nodes[name] = (tx, rx)
        return NodeAddr(name)

    def nic_tx(self, addr: NodeAddr) -> Link:
        return self._node_links(addr)[0]

    def nic_rx(self, addr: NodeAddr) -> Link:
        return self._node_links(addr)[1]

    def _node_links(self, addr: NodeAddr) -> Tuple[Link, Link]:
        try:
            return self._nodes[addr.name]
        except KeyError:
            raise NetworkError(f"unknown node {addr!r}") from None

    def open_bulk_flow(self, moves: Iterable[Tuple[object, object, float]],
                       label: str, cap: Optional[Callable] = None) -> Flow:
        """Open the flow carrying ``moves``, ``(source, destination,
        share)`` triples: ``share`` of its bytes go from ``source`` to
        ``destination``, each a client node (:class:`NodeAddr`) or a
        :class:`~repro.hardware.node.StorageTarget`. A target end adds
        its node's NIC (tx at the source, rx at the destination) when the
        two ends' nodes differ, its engine's media channel and its own
        service link; a link sums the shares of the moves crossing it, in
        move order. A client's NIC carries its whole stream: it comes
        first, at weight 1. ``cap`` maps the summed ``(link, weight)``
        pairs to the flow's rate cap."""
        weights: Dict[Link, float] = {}
        for src, dst, share in moves:
            src_node = src if type(src) is NodeAddr else src.node.addr
            dst_node = dst if type(dst) is NodeAddr else dst.node.addr
            cross = src_node.name != dst_node.name
            links: List[Link] = []
            if src is src_node:  # a client
                weights[self.nic_tx(src)] = 1.0
            else:
                if cross:
                    links.append(self.nic_tx(src_node))
                links += (src.engine.media_read, src.read_link)
            if dst is dst_node:  # a client
                weights[self.nic_rx(dst)] = 1.0
            else:
                if cross:
                    links.append(self.nic_rx(dst_node))
                links += (dst.engine.media_write, dst.write_link)
            for link in links:
                held = weights.get(link)
                weights[link] = share if held is None else held + share
        return self.flownet.open(
            weights.items(), label=label,
            cap=None if cap is None else cap(weights.items()),
        )

    # -- control messages -------------------------------------------------------
    def msg_delay(self, src: NodeAddr, dst: NodeAddr, nbytes: int) -> float:
        """One-way delivery delay for a small control message."""
        if src.name == dst.name:
            # loopback: software only
            return 2 * self.software_overhead
        return (
            self.base_latency
            + 2 * self.software_overhead
            + nbytes / self.msg_bandwidth
        )

    # -- fault plane -------------------------------------------------------------
    # Partitions, flaky links and latency spikes operate on *node pairs*:
    # every endpoint message between the pair is affected, which is exactly
    # how a fabric failure presents (Raft, engine RPC and client traffic all
    # degrade together). Bulk fluid flows are modelled separately; degrading
    # them goes through FlowNetwork.set_link_capacity.

    def _check_node(self, name: str) -> str:
        if name not in self._nodes:
            raise NetworkError(f"unknown node {name!r}")
        return name

    def partition(
        self, side_a: Iterable[str], side_b: Iterable[str]
    ) -> List[Tuple[str, str]]:
        """Cut the fabric between two groups of node names (both ways).

        Messages across the cut are dropped silently — from the protocols'
        point of view the peer just stopped answering. Returns the blocked
        pair list, usable as a token for a targeted :meth:`heal`.
        """
        a = [self._check_node(n) for n in side_a]
        b = [self._check_node(n) for n in side_b]
        pairs: List[Tuple[str, str]] = []
        for x in a:
            for y in b:
                if x == y:
                    raise NetworkError(f"node {x!r} on both sides of partition")
                pairs.append((x, y))
                pairs.append((y, x))
        self._blocked.update(pairs)
        return pairs

    def heal(self, pairs: Optional[Iterable[Tuple[str, str]]] = None) -> None:
        """Undo partitions: all of them, or just the given pair token."""
        if pairs is None:
            self._blocked.clear()
        else:
            self._blocked.difference_update(pairs)

    def set_extra_delay(self, a: str, b: str, extra: float) -> None:
        """Add ``extra`` seconds of one-way latency to messages between
        two nodes, both ways (0 clears)."""
        if extra < 0:
            raise NetworkError(f"negative extra delay: {extra}")
        for pair in ((a, b), (b, a)):
            if extra == 0:
                self._extra_delay.pop(pair, None)
            else:
                self._extra_delay[pair] = extra

    def set_drop_rule(
        self, a: str, b: str, rule: Optional[Callable[[], bool]] = None
    ) -> None:
        """Install a per-message drop predicate between two nodes, both
        ways (flaky link); ``None`` clears. The rule must be deterministic
        for the simulation to stay reproducible — draw from a named RNG
        stream."""
        for pair in ((a, b), (b, a)):
            if rule is None:
                self._drop_rules.pop(pair, None)
            else:
                self._drop_rules[pair] = rule

    def transmit(self, src: NodeAddr, target: "object", message: "object") -> None:
        """Deliver ``message`` (an :class:`~repro.network.ofi.Message`) to
        ``target`` (an Endpoint), subject to the fault plane: partitioned
        pairs drop silently, flaky rules may drop, per-pair extra latency
        adds to the base model."""
        pair = (src.name, target.addr.name)
        tracer = self.sim.tracer
        if pair in self._blocked or (
            (rule := self._drop_rules.get(pair)) is not None and rule()
        ):
            self.dropped_messages += 1
            if tracer is not None:
                tracer.instant(
                    "fabric.drop",
                    "fabric",
                    attrs={"src": src.name, "dst": target.addr.name,
                           "tag": message.tag},
                )
            if self.sim.metrics is not None:
                self.sim.metrics.incr("fabric.msgs.dropped")
            return
        delay = self.msg_delay(src, target.addr, message.nbytes)
        delay += self._extra_delay.get(pair, 0.0)
        self.delivered_messages += 1
        if tracer is not None:
            tracer.event(
                "fabric.msg",
                "fabric",
                node=src.name,
                start=self.sim.now,
                end=self.sim.now + delay,
                attrs={
                    "dst": target.addr.name,
                    "nbytes": message.nbytes,
                    "tag": message.tag,
                },
            )
        if self.sim.metrics is not None:
            self.sim.metrics.incr("fabric.msgs.delivered")
        self.sim.schedule(delay, target._deliver, message)

    # -- endpoint registry -------------------------------------------------------
    def register_endpoint(self, name: str, endpoint: "object") -> None:
        if name in self._endpoints:
            raise NetworkError(f"duplicate endpoint {name!r}")
        self._endpoints[name] = endpoint

    def endpoint(self, name: str) -> "object":
        try:
            return self._endpoints[name]
        except KeyError:
            raise NetworkError(f"unknown endpoint {name!r}") from None
