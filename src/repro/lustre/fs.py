"""LustreFs assembly: MDS + OSTs over server nodes.

Each server node contributes its storage targets as OSTs (one OST per
hardware target, served by that node's NIC), so the DAOS-vs-Lustre
contrast benchmark runs both stacks on identical simulated hardware.
Each OST owns the extent-lock spaces of the objects it stores and the
file data itself (an extent tree per OST object).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.daos.vos.extent import ExtentTree
from repro.hardware.node import ServerNode, StorageTarget
from repro.lustre.ldlm import LockSpace
from repro.lustre.mds import Mds
from repro.network.fabric import Fabric
from repro.sim.core import Simulator

#: OST service CPU per I/O RPC
OST_RPC_CPU = 15e-6


@dataclass
class Ost:
    """One object storage target: hardware + object store + lock server."""

    index: int
    node: ServerNode
    hw: StorageTarget
    #: per-(ino, stripe-index) data and lock state
    objects: Dict[Tuple[int, int], ExtentTree] = field(
        init=False, default_factory=dict)
    locks: Dict[Tuple[int, int], LockSpace] = field(
        init=False, default_factory=dict)

    def data(self, ino: int, stripe: int) -> ExtentTree:
        key = (ino, stripe)
        tree = self.objects.get(key)
        if tree is None:
            tree = self.objects[key] = ExtentTree()
        return tree

    def lockspace(self, ino: int, stripe: int) -> LockSpace:
        key = (ino, stripe)
        space = self.locks.get(key)
        if space is None:
            space = self.locks[key] = LockSpace()
        return space

    def drop(self, ino: int) -> None:
        for key in [k for k in self.objects if k[0] == ino]:
            del self.objects[key]
        for key in [k for k in self.locks if k[0] == ino]:
            del self.locks[key]


class LustreFs:
    """A deployed filesystem: one MDS (first server) + OSTs (all targets)."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        servers: List[ServerNode],
        default_stripe_count: int = 4,
    ):
        if not servers:
            raise ValueError("LustreFs needs server nodes")
        self.sim = sim
        self.fabric = fabric
        self.servers = servers
        self.osts: List[Ost] = []
        for node in servers:
            for target in node.all_targets():
                self.osts.append(
                    Ost(index=len(self.osts), node=node, hw=target)
                )
        self.mds = Mds(
            sim,
            fabric,
            servers[0].addr,
            n_osts=len(self.osts),
            default_stripe_count=min(default_stripe_count, len(self.osts)),
        )
        #: numbers this filesystem's mounts (``lclient:<node>:<n>``)
        self.client_seq = itertools.count(1)
