"""Raft consensus and the replicated state machine used by DAOS services.

DAOS keeps pool and container metadata in *replicated services* (rsvc)
whose ground truth is a Raft log (the real implementation embeds a fork of
willemt/raft). This package provides a from-scratch Raft implementation —
leader election with randomized timeouts, log replication, commitment,
crash/restart with durable state — running over the simulated fabric, plus
a key-value state machine and a client helper that tracks the leader.
"""

from repro.consensus.raft import RaftNode, RaftCluster
from repro.consensus.state_machine import KvStateMachine
from repro.consensus.rsvc import RsvcClient

__all__ = [
    "RaftNode",
    "RaftCluster",
    "KvStateMachine",
    "RsvcClient",
]
