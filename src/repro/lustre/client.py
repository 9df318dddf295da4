"""The Lustre client: striping, LDLM locking, and the VFS interface.

File offsets map onto OST objects RAID-0 style::

    chunk      = offset // stripe_size
    stripe     = chunk % stripe_count          (which OST object)
    obj_offset = (chunk // stripe_count) * stripe_size + offset % stripe_size

Every data operation first ensures extent locks on the touched OST
objects (cheap when the client already holds a covering lock — the
file-per-process case; a synchronous revocation storm when writers
interleave — the shared-file case), then moves bytes through a fluid
flow across the stripe OSTs, write-through.
"""

from __future__ import annotations

from typing import Dict, Generator, Iterable, List, Optional, Tuple

from repro.daos.vos.payload import as_payload, concat_payloads
from repro.errors import FsError
from repro.hardware.node import ClientNode
from repro.lustre.fs import OST_RPC_CPU, LustreFs, Ost
from repro.lustre.ldlm import PR, PW, acquire
from repro.lustre.mds import STRIPE_SIZE, Inode
from repro.network.fabric import stream_moves
from repro.network.flows import Flow
from repro.posix.vfs import FileHandle, FileSystem, StatResult, normalize, validate_flags
from repro.units import split_aligned

#: lock-server CPU per LDLM enqueue, on top of the round trip
LDLM_ENQUEUE_CPU = 20e-6
#: cost of one blocking-callback + cancel round during revocation (the
#: holder must drain in-flight I/O under the lock before cancelling —
#: dominated by that drain, not the wire)
LDLM_CALLBACK_COST = 400e-6


class LustreMount(FileSystem):
    """A Lustre client mount on one compute node."""

    def __init__(self, fs: LustreFs, node: ClientNode, name: str = ""):
        self.fs = fs
        self.sim = fs.sim
        self.fabric = fs.fabric
        self.node = node
        self.name = name or f"lclient:{node.name}:{next(fs.client_seq)}"
        self.blksize = STRIPE_SIZE
        #: client-side syscall cost (no FUSE here: native kernel client)
        self.syscall_cost = 2.0e-6

    # ------------------------------------------------------------- FileSystem API
    def open(self, path: str, flags: Iterable[str] = ("r",)) -> Generator:
        flag_set = validate_flags(flags)
        parts = normalize(path)
        yield self.syscall_cost
        yield from self.fs.mds.service(self.node.addr)
        if "creat" in flag_set:
            inode = self.fs.mds.create_file(parts, excl="excl" in flag_set)
        else:
            inode = self.fs.mds.resolve(parts)
            if inode.is_dir:
                raise FsError("EISDIR", path)
        handle = LustreFile(self, inode)
        if "trunc" in flag_set and inode.size > 0:
            yield from handle.truncate(0)
        return handle

    def mkdir(self, path: str) -> Generator:
        yield self.syscall_cost
        yield from self.fs.mds.service(self.node.addr)
        self.fs.mds.mkdir(normalize(path))
        return None

    def readdir(self, path: str) -> Generator:
        yield self.syscall_cost
        yield from self.fs.mds.service(self.node.addr)
        inode = self.fs.mds.resolve(normalize(path))
        if not inode.is_dir:
            raise FsError("ENOTDIR", path)
        return sorted(inode.children)

    def stat(self, path: str) -> Generator:
        yield self.syscall_cost
        yield from self.fs.mds.service(self.node.addr)
        inode = self.fs.mds.resolve(normalize(path))
        if not inode.is_dir:
            # glimpse the last-stripe OST for the authoritative size
            yield 2 * self.fabric.msg_delay(self.node.addr,
                                            self.fs.osts[0].node.addr, 128)
        return StatResult(
            is_dir=inode.is_dir,
            size=inode.size,
            mode=inode.mode,
            blksize=self.blksize,
        )

    def unlink(self, path: str) -> Generator:
        yield self.syscall_cost
        yield from self.fs.mds.service(self.node.addr)
        inode = self.fs.mds.unlink(normalize(path))
        for stripe, ost_idx in enumerate(inode.stripe_osts):
            self.fs.osts[ost_idx].drop(inode.ino)
        return None


class LustreFile(FileHandle):
    """An open striped file."""

    def __init__(self, mount: LustreMount, inode: Inode):
        self.mount = mount
        self.fs = mount.fs
        self.inode = inode
        self.owner = f"{mount.name}:fd{id(self):x}"
        self._flows: Dict[str, Flow] = {}

    # ------------------------------------------------------------- striping math
    def _pieces(self, offset: int, length: int
                ) -> List[Tuple[Ost, int, int, int]]:
        """Split a file range into (ost, stripe_idx, obj_offset, nbytes)."""
        out = []
        stripe_size = self.inode.stripe_size
        stripe_count = len(self.inode.stripe_osts)
        for chunk, within, take in split_aligned(offset, length, stripe_size):
            stripe = chunk % stripe_count
            obj_offset = (chunk // stripe_count) * stripe_size + within
            out.append(
                (self.fs.osts[self.inode.stripe_osts[stripe]], stripe,
                 obj_offset, take)
            )
        return out

    # ------------------------------------------------------------- flows
    def _flow(self, direction: str) -> Flow:
        flow = self._flows.get(direction)
        if flow is not None:
            return flow
        hws = [self.fs.osts[idx].hw for idx in self.inode.stripe_osts]
        flow = self.mount.fabric.open_bulk_flow(
            stream_moves(self.mount.node.addr, hws, direction),
            label=f"{self.owner}:{direction}",
        )
        self._flows[direction] = flow
        return flow

    # ------------------------------------------------------------- locking
    def _lock(self, ost: Ost, stripe: int, mode: str, start: int, stop: int
              ) -> Generator:
        fabric = self.mount.fabric
        rtt = 2 * fabric.msg_delay(self.mount.node.addr, ost.node.addr, 256)

        def enqueue_cost():
            yield rtt + LDLM_ENQUEUE_CPU

        def revoke_cost(_lock):
            yield LDLM_CALLBACK_COST + rtt

        space = ost.lockspace(self.inode.ino, stripe)
        yield from acquire(
            space, self.owner, mode, start, stop, enqueue_cost, revoke_cost
        )
        return None

    # ------------------------------------------------------------- data ops
    def _transfer(self, mode: str, direction: str, offset: int,
                  length: int) -> Generator:
        """Task helper: take the extent locks covering the range in
        ``mode``, pay the widest OST round trip and move the bytes;
        returns the stripe pieces touched."""
        pieces = self._pieces(offset, length)
        fabric = self.mount.fabric
        widest = 0.0
        for ost, stripe, obj_offset, nbytes in pieces:
            yield from self._lock(
                ost, stripe, mode, obj_offset, obj_offset + nbytes
            )
            rtt = 2 * fabric.msg_delay(self.mount.node.addr, ost.node.addr, 256)
            widest = max(widest, rtt + OST_RPC_CPU)
        yield widest + self.mount.node.spec.client_cpu_per_op
        yield self._flow(direction).transfer(length)
        return pieces

    def pwrite(self, offset: int, data) -> Generator:
        payload = as_payload(data)
        if payload.nbytes == 0:
            return 0
        yield self.mount.syscall_cost
        pieces = yield from self._transfer(PW, "write", offset, payload.nbytes)
        consumed = 0
        for ost, stripe, obj_offset, nbytes in pieces:
            fragment = payload.slice(consumed, consumed + nbytes)
            ost.data(self.inode.ino, stripe).write(
                obj_offset, fragment, epoch=int(self.fs.sim.now * 1e9)
            )
            consumed += nbytes
        self.inode.size = max(self.inode.size, offset + payload.nbytes)
        return payload.nbytes

    def pread(self, offset: int, length: int) -> Generator:
        yield self.mount.syscall_cost
        if offset >= self.inode.size:
            return as_payload(b"")
        length = min(length, self.inode.size - offset)
        pieces = yield from self._transfer(PR, "read", offset, length)
        return concat_payloads([
            ost.data(self.inode.ino, stripe).read(obj_offset, nbytes)
            for ost, stripe, obj_offset, nbytes in pieces
        ])

    def fsync(self) -> Generator:
        yield self.mount.syscall_cost  # write-through: nothing buffered
        return None

    def truncate(self, size: int) -> Generator:
        yield self.mount.syscall_cost
        yield from self.fs.mds.service(self.mount.node.addr)
        if size < self.inode.size:
            for ost, stripe, obj_offset, nbytes in self._pieces(
                size, self.inode.size - size
            ):
                yield from self._lock(
                    ost, stripe, PW, obj_offset, obj_offset + nbytes
                )
                ost.data(self.inode.ino, stripe).punch(obj_offset, nbytes)
        self.inode.size = size
        return None

    def close(self) -> Generator:
        yield self.mount.syscall_cost
        for stripe, ost_idx in enumerate(self.inode.stripe_osts):
            self.fs.osts[ost_idx].lockspace(self.inode.ino, stripe).drop_owner(
                self.owner
            )
        for flow in self._flows.values():
            self.mount.fabric.flownet.close(flow)
        self._flows.clear()
        return None
