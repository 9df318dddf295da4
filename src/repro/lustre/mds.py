"""The Lustre metadata server.

One MDS resolves every namespace operation (NEXTGenIO-era Lustre: a
single MDT). Operations arrive as intent RPCs — one round trip performs
lookup + create/open, as Lustre's intent locking does — and are bounded
by a service-thread semaphore, which is what turns many-client create
storms into queueing delay (the mdtest contrast experiment).

The namespace itself is a real tree of inodes; file inodes carry the
stripe layout chosen at create time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.errors import FsError
from repro.network.fabric import Fabric, NodeAddr
from repro.sim.core import Simulator
from repro.sim.sync import Semaphore


@dataclass
class Inode:
    ino: int
    is_dir: bool
    mode: int = 0o644
    #: directory entries (name -> ino)
    children: Dict[str, int] = field(default_factory=dict)
    #: file stripe layout: OST indices, assigned round-robin at create
    stripe_osts: List[int] = field(default_factory=list)
    stripe_size: int = 0
    #: authoritative size, maintained by OST size callbacks on write
    size: int = 0
    nlink: int = 1


#: MDS service threads: intent RPCs in service at once
SERVICE_THREADS = 16


class Mds:
    """Metadata server state + service model."""

    #: MDS CPU per intent RPC round
    op_cpu = 100e-6

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        addr: NodeAddr,
        n_osts: int,
        default_stripe_count: int = 4,
        default_stripe_size: int = 1 << 20,
    ):
        self.sim = sim
        self.fabric = fabric
        self.addr = addr
        self.n_osts = n_osts
        self.default_stripe_count = min(default_stripe_count, n_osts)
        self.default_stripe_size = default_stripe_size
        self._threads = Semaphore(sim, SERVICE_THREADS)
        self._ino_seq = itertools.count(2)
        self._next_ost = 0
        self.root = Inode(ino=1, is_dir=True, mode=0o755)
        self.inodes: Dict[int, Inode] = {1: self.root}
        self.ops = 0

    # ------------------------------------------------------------- service model
    def service(self, client_addr: NodeAddr, rounds: int = 1) -> Generator:
        """Task helper: charge one intent RPC (client rtt + MDS thread)."""
        rtt = 2 * self.fabric.msg_delay(client_addr, self.addr, 256)
        guard = yield from self._threads.held()
        try:
            self.ops += 1
            yield self.op_cpu * rounds
        finally:
            guard.release()
        yield rtt
        return None

    # ------------------------------------------------------------- namespace core
    def resolve(self, parts: List[str]) -> Inode:
        node = self.root
        for name in parts:
            if not node.is_dir:
                raise FsError("ENOTDIR", "/".join(parts))
            child = node.children.get(name)
            if child is None:
                raise FsError("ENOENT", "/".join(parts))
            node = self.inodes[child]
        return node

    def resolve_parent(self, parts: List[str]) -> Inode:
        if not parts:
            raise FsError("EINVAL", "cannot address the root this way")
        return self.resolve(parts[:-1])

    def _alloc_stripes(self, stripe_count: int) -> List[int]:
        osts = []
        for _ in range(stripe_count):
            osts.append(self._next_ost % self.n_osts)
            self._next_ost += 1
        return osts

    # ------------------------------------------------------------- operations
    def create_file(
        self,
        parts: List[str],
        excl: bool,
        stripe_count: Optional[int] = None,
        stripe_size: Optional[int] = None,
    ) -> Inode:
        parent = self.resolve_parent(parts)
        name = parts[-1]
        existing = parent.children.get(name)
        if existing is not None:
            if excl:
                raise FsError("EEXIST", "/".join(parts))
            inode = self.inodes[existing]
            if inode.is_dir:
                raise FsError("EISDIR", "/".join(parts))
            return inode
        inode = Inode(
            ino=next(self._ino_seq),
            is_dir=False,
            stripe_osts=self._alloc_stripes(
                stripe_count or self.default_stripe_count
            ),
            stripe_size=stripe_size or self.default_stripe_size,
        )
        self.inodes[inode.ino] = inode
        parent.children[name] = inode.ino
        return inode

    def mkdir(self, parts: List[str]) -> Inode:
        parent = self.resolve_parent(parts)
        name = parts[-1]
        if name in parent.children:
            raise FsError("EEXIST", "/".join(parts))
        inode = Inode(ino=next(self._ino_seq), is_dir=True, mode=0o755)
        self.inodes[inode.ino] = inode
        parent.children[name] = inode.ino
        return inode

    def unlink(self, parts: List[str]) -> Inode:
        parent = self.resolve_parent(parts)
        name = parts[-1]
        ino = parent.children.get(name)
        if ino is None:
            raise FsError("ENOENT", "/".join(parts))
        inode = self.inodes[ino]
        if inode.is_dir:
            raise FsError("EISDIR", "/".join(parts))
        del parent.children[name]
        del self.inodes[ino]
        return inode

    def rmdir(self, parts: List[str]) -> None:
        parent = self.resolve_parent(parts)
        name = parts[-1]
        ino = parent.children.get(name)
        if ino is None:
            raise FsError("ENOENT", "/".join(parts))
        inode = self.inodes[ino]
        if not inode.is_dir:
            raise FsError("ENOTDIR", "/".join(parts))
        if inode.children:
            raise FsError("ENOTEMPTY", "/".join(parts))
        del parent.children[name]
        del self.inodes[ino]

    def rename(self, old_parts: List[str], new_parts: List[str]) -> None:
        old_parent = self.resolve_parent(old_parts)
        ino = old_parent.children.get(old_parts[-1])
        if ino is None:
            raise FsError("ENOENT", "/".join(old_parts))
        new_parent = self.resolve_parent(new_parts)
        existing = new_parent.children.get(new_parts[-1])
        if existing is not None and self.inodes[existing].is_dir:
            raise FsError("EISDIR", "/".join(new_parts))
        new_parent.children[new_parts[-1]] = ino
        del old_parent.children[old_parts[-1]]
