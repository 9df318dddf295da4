"""The client side of the DAOS "rsvc" pattern.

A replicated service is a :class:`~repro.consensus.raft.RaftCluster` whose
state machine holds service metadata (pool maps, container indices).
:class:`RsvcClient` is the client-side helper every DAOS client embeds: it
remembers the last known leader, retries on :class:`NotLeaderError` using the
hint, and waits out elections — so callers just do
``result = yield from client.invoke(cmd)``.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.consensus.raft import RaftCluster, RaftNode
from repro.errors import ConsensusError, NotLeaderError


#: one-way metadata RPC cost charged per attempt (see RsvcClient)
OP_LATENCY = 20e-6
#: back-off between attempts while no leader answers
RETRY_DELAY = 0.02
#: attempts before an invoke gives up with ConsensusError
MAX_RETRIES = 200


class RsvcClient:
    """Leader-tracking client for a replicated service's :class:`RaftCluster`.

    The simulation shortcut: clients reach replicas through direct object
    references rather than extra RPC hops (the Raft messages themselves
    *do* traverse the simulated fabric). The one-way metadata RPC cost is
    charged explicitly via ``OP_LATENCY`` so metadata-heavy workloads
    still see realistic service times.
    """

    def __init__(self, service: RaftCluster):
        self.service = service
        self.sim = service.sim
        self._known_leader: Optional[RaftNode] = None

    def _pick(self) -> Optional[RaftNode]:
        if self._known_leader is not None and self._known_leader.is_leader:
            return self._known_leader
        return self.service.leader()

    def invoke(self, command: Any) -> Generator:
        """Task helper: replicate ``command`` and return its apply result."""
        attempts = 0
        while True:
            attempts += 1
            if attempts > MAX_RETRIES:
                raise ConsensusError(
                    f"metadata op failed after {MAX_RETRIES} retries"
                )
            node = self._pick()
            if node is None:
                yield RETRY_DELAY
                continue
            yield OP_LATENCY
            try:
                gate = node.propose(command)
            except NotLeaderError as exc:
                self._known_leader = None
                if exc.hint is not None:
                    self._known_leader = self.service.nodes[exc.hint]
                yield RETRY_DELAY
                continue
            status, value = yield gate
            if status == "ok":
                self._known_leader = node
                return value
            self._known_leader = None
            yield RETRY_DELAY
