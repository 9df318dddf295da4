"""Node objects binding specs to fabric links.

A :class:`ServerNode` creates, per engine, a shared media read link and a
media write link (the interleaved DCPMM channel of that socket) plus, per
target, a read and a write service link (the VOS xstream ceiling). A bulk
I/O flow to a target therefore crosses:

    client NIC ─ server NIC ─ engine media link ─ target service link

with appropriate consumption weights when striped over several targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.hardware.specs import EngineSpec, NodeSpec
from repro.network.fabric import Fabric, NodeAddr
from repro.network.flows import Link


@dataclass
class StorageTarget:
    """One VOS target: global id plus its service links."""

    tid: int
    engine: "EngineSlot"
    read_link: Link
    write_link: Link

    @property
    def node(self) -> "ServerNode":
        return self.engine.node


@dataclass
class EngineSlot:
    """One engine's media links and targets on a server node."""

    index: int
    node: "ServerNode"
    spec: EngineSpec
    media_read: Link
    media_write: Link
    targets: List[StorageTarget]


class _Node:
    def __init__(self, fabric: Fabric, name: str, spec: NodeSpec):
        self.fabric = fabric
        self.name = name
        self.spec = spec
        self.addr: NodeAddr = fabric.add_node(name, spec.nic_bw, spec.nic_rails)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


class ClientNode(_Node):
    """A compute node that runs application processes."""


class ServerNode(_Node):
    """A storage node hosting one or more DAOS engines."""

    def __init__(self, fabric: Fabric, name: str, spec: NodeSpec):
        super().__init__(fabric, name, spec)
        if spec.engines <= 0:
            raise ValueError(f"server node {name!r} needs engines > 0")
        self.engines: List[EngineSlot] = []
        flownet = fabric.flownet
        for e in range(spec.engines):
            espec = spec.engine
            media_read = flownet.add_link(
                f"media_rd:{name}.e{e}", espec.media_read_bw
            )
            media_write = flownet.add_link(
                f"media_wr:{name}.e{e}", espec.media_write_bw
            )
            slot = EngineSlot(e, self, espec, media_read, media_write, [])
            for t in range(espec.targets):
                read_link = flownet.add_link(
                    f"tgt_rd:{name}.e{e}.t{t}", espec.target_read_bw
                )
                write_link = flownet.add_link(
                    f"tgt_wr:{name}.e{e}.t{t}", espec.target_write_bw
                )
                slot.targets.append(StorageTarget(t, slot, read_link, write_link))
            self.engines.append(slot)

    def all_targets(self) -> List[StorageTarget]:
        return [t for engine in self.engines for t in engine.targets]
