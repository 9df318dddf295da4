"""Hardware specification dataclasses and NEXTGenIO calibration presets.

Calibration sources
-------------------

- First-generation Intel Optane DCPMM (256 GiB modules, as deployed in
  NEXTGenIO): per-module sequential read ≈ 6.8 GB/s, write ≈ 2.3 GB/s;
  six modules per socket in AppDirect interleaved mode give a per-socket
  media ceiling of roughly 40 GB/s read / 13.5 GB/s write, of which a
  storage server realizes 75–85 % through the PMDK/VOS software path.
- NEXTGenIO nodes carry dual-rail Intel Omni-Path 100 (≈ 11 GB/s usable
  per rail after protocol overhead).
- A DAOS engine binds one socket and serves a set of targets (one VOS
  xstream each); a single xstream sustains only a fraction of the socket
  media bandwidth (CPU-bound checksumming, tree updates, DTX), which is
  what makes per-target hotspots — and therefore object-class placement —
  matter for aggregate performance.

All bandwidths are bytes/second; all times are seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.units import GiB


@dataclass(frozen=True)
class DcpmmSpec:
    """One Optane DC Persistent Memory module."""

    capacity: int = 256 * GiB
    read_bw: float = 6.8e9
    write_bw: float = 2.3e9
    #: extra latency of a media access vs DRAM (load/store granularity)
    access_latency: float = 0.35e-6


@dataclass(frozen=True)
class EngineSpec:
    """One DAOS engine (one per socket on NEXTGenIO)."""

    #: number of VOS targets (xstreams) per engine
    targets: int = 8
    #: interleaved modules feeding this engine's media channel
    modules: int = 6
    module: DcpmmSpec = field(default_factory=DcpmmSpec)
    #: fraction of raw interleaved media bandwidth realized through VOS
    media_efficiency_read: float = 0.80
    media_efficiency_write: float = 0.75
    #: per-target (single xstream) service ceilings — CPU bound.
    #: Calibrated so SX overtakes S2 on Fig. 1b writes only under high
    #: contention (between 4 and 8 client nodes in figures_full.txt).
    #: How far they can move before that flips is unmeasured.
    target_read_bw: float = 3.6e9
    target_write_bw: float = 2.2e9
    #: engine-side fixed CPU time per I/O RPC (request parse, VOS descent)
    per_rpc_cpu: float = 12e-6
    #: extra cost when a stream's consecutive ops land on *different*
    #: targets while the stream spans more targets than the per-handle
    #: session cache covers (lost VOS tree/cache locality and per-target
    #: pipelining). Wide classes (SX) pay it on almost every op; S1-S4
    #: never do.
    target_switch_cost: float = 200e-6
    #: per-handle session-cache width: streams over at most this many
    #: targets keep every target's session warm
    locality_window: int = 4
    #: first touch of an (object handle, target) pair: VOS tree creation
    #: and DTX setup on writes; tree lookup priming on reads. This is the
    #: term that penalizes wide object classes (SX) for small jobs.
    shard_first_write_cost: float = 320e-6
    shard_first_read_cost: float = 60e-6
    #: concurrent RPCs a target services before queueing (ULT credits)
    target_inflight: int = 16

    @property
    def media_read_bw(self) -> float:
        return self.modules * self.module.read_bw * self.media_efficiency_read

    @property
    def media_write_bw(self) -> float:
        return self.modules * self.module.write_bw * self.media_efficiency_write


@dataclass(frozen=True)
class NodeSpec:
    """A cluster node: NIC rails plus (for servers) engines."""

    nic_bw: float = 11.0e9
    nic_rails: int = 2
    #: engines hosted (0 for pure client/compute nodes)
    engines: int = 0
    engine: EngineSpec = field(default_factory=EngineSpec)
    #: client-side per-syscall/API-call CPU cost floor
    client_cpu_per_op: float = 4e-6
    #: node DRAM (NEXTGenIO: 192 GiB DDR4 per node); budgets the
    #: client-side caching tier (repro.cache)
    memory: int = 192 * GiB
    #: DRAM copy bandwidth seen by a single process (memcpy, one core)
    memory_copy_bw: float = 12e9


@dataclass(frozen=True)
class FabricSpec:
    """Interconnect characteristics (Omni-Path 100 class)."""

    base_latency: float = 1.5e-6
    msg_bandwidth: float = 11.0e9
    software_overhead: float = 0.8e-6
    #: how long a caller waits before giving up on an unresponsive peer —
    #: the DER_TIMEDOUT reply delay charged when an RPC hits a down engine
    rpc_timeout: float = 5.0e-3

