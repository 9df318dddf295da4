"""Raft consensus (Ongaro & Ousterhout 2014) over the simulated fabric.

The implementation covers the full core protocol:

- leader election with randomized timeouts and vote persistence,
- log replication with the AppendEntries consistency check and
  per-follower ``nextIndex`` backoff,
- commitment rules (a leader only commits entries from its own term,
  Fig. 8 of the paper),
- crash/restart: ``currentTerm``, ``votedFor`` and the log survive a
  crash (they live in the node's "persistent" attribute set); volatile
  state is rebuilt.

Omitted relative to the paper: membership changes and log compaction
(DAOS rsvc uses them operationally, but none of the benchmarked paths
exercise them; hooks are left in place).

Log indices are 1-based as in the paper; ``log[0]`` is a sentinel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.errors import ConsensusError, NotLeaderError
from repro.network.fabric import Fabric, NodeAddr
from repro.network.ofi import Endpoint, Message
from repro.sim.core import Simulator
from repro.sim.rng import RngStreams
from repro.sim.sync import Gate

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"

_proposal_ids = itertools.count(1)


@dataclass(frozen=True)
class LogEntry:
    term: int
    command: Any
    #: id used to resolve the proposer's completion gate (leader-local)
    proposal_id: int = 0


#: Timing (seconds), as on a LAN deployment.
ELECTION_TIMEOUT_MIN = 0.150
ELECTION_TIMEOUT_MAX = 0.300
HEARTBEAT_INTERVAL = 0.050
#: cost of persisting (term, vote, log entries) before responding —
#: Optane-class media makes this nearly free, which is exactly the
#: DAOS rsvc story.
PERSIST_LATENCY = 5e-6
RPC_BYTES = 512


class RaftNode:
    """One Raft replica, driven entirely by simulated messages/timers."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        addr: NodeAddr,
        node_id: int,
        peer_names: List[str],
        apply_fn: Callable[[Any], Any],
        rng: RngStreams,
        reset_fn: Optional[Callable[[], Callable[[Any], Any]]] = None,
    ):
        self.sim = sim
        self.node_id = node_id
        self.name = f"raft:{node_id}"
        self.peer_names = [p for p in peer_names if p != self.name]
        self.apply_fn = apply_fn
        self.reset_fn = reset_fn
        self.rng = rng
        self.endpoint = Endpoint(fabric, addr, self.name)

        # Persistent state (survives crash/restart).
        self.current_term = 0
        self.voted_for: Optional[str] = None
        self.log: List[LogEntry] = [LogEntry(term=0, command=None)]

        # Volatile state.
        self.state = FOLLOWER
        self.commit_index = 0
        self.last_applied = 0
        self.leader_hint: Optional[int] = None
        self.next_index: Dict[str, int] = {}
        self.match_index: Dict[str, int] = {}
        self.applied_results: List[Any] = []

        #: observer record for safety checking: every (term, node_id) at
        #: which this node won an election. Not Raft state — never reset,
        #: not even by restart — so invariant checkers can assert election
        #: safety across the whole run (repro.faults.invariants).
        self.leadership_history: List[tuple] = []

        self._alive = True
        self._timer_generation = 0
        self._votes = 0
        self._proposals: Dict[int, Gate] = {}
        self._main_task = sim.spawn(self._main_loop(), f"{self.name}:main")
        self._arm_election_timer()

    # ------------------------------------------------------------------ utils
    @property
    def last_log_index(self) -> int:
        return len(self.log) - 1

    @property
    def last_log_term(self) -> int:
        return self.log[-1].term

    @property
    def is_leader(self) -> bool:
        return self._alive and self.state == LEADER

    def _quorum(self) -> int:
        return (len(self.peer_names) + 1) // 2 + 1

    def _send(self, dst: str, kind: str, body: dict) -> None:
        if not self._alive:
            return
        body = dict(body)
        body["kind"] = kind
        body["from"] = self.name
        body["from_id"] = self.node_id
        self.endpoint.send(dst, body, nbytes=RPC_BYTES, tag="raft")

    # ------------------------------------------------------------------ timers
    def _arm_election_timer(self) -> None:
        self._timer_generation += 1
        generation = self._timer_generation
        delay = self.rng.uniform(
            f"raft:{self.node_id}:eto",
            ELECTION_TIMEOUT_MIN,
            ELECTION_TIMEOUT_MAX,
        )
        self.sim.schedule(delay, self._election_timeout, generation)

    def _election_timeout(self, generation: int) -> None:
        if not self._alive or generation != self._timer_generation:
            return
        if self.state != LEADER:
            self._start_election()
        self._arm_election_timer()

    def _heartbeat_tick(self, generation: int) -> None:
        if not self._alive or generation != self._timer_generation:
            return
        if self.state == LEADER:
            self._broadcast_append_entries()
            self.sim.schedule(
                HEARTBEAT_INTERVAL, self._heartbeat_tick, generation
            )

    # ------------------------------------------------------------------ election
    def _start_election(self) -> None:
        self.state = CANDIDATE
        self.current_term += 1
        self.voted_for = self.name
        self._votes = 1
        self.leader_hint = None
        for peer in self.peer_names:
            self._send(
                peer,
                "request_vote",
                {
                    "term": self.current_term,
                    "last_log_index": self.last_log_index,
                    "last_log_term": self.last_log_term,
                },
            )
        if self._votes >= self._quorum():  # single-node cluster
            self._become_leader()

    def _become_leader(self) -> None:
        self.state = LEADER
        self.leader_hint = self.node_id
        self.leadership_history.append((self.current_term, self.node_id))
        for peer in self.peer_names:
            self.next_index[peer] = self.last_log_index + 1
            self.match_index[peer] = 0
        # A fresh timer generation ends the election timer's relevance and
        # seeds the heartbeat loop.
        self._timer_generation += 1
        self._broadcast_append_entries()
        self.sim.schedule(
            HEARTBEAT_INTERVAL,
            self._heartbeat_tick,
            self._timer_generation,
        )

    def _step_down(self, term: int) -> None:
        if term > self.current_term:
            self.current_term = term
            self.voted_for = None
        if self.state != FOLLOWER:
            self.state = FOLLOWER
            self._fail_pending_proposals()
        self._arm_election_timer()

    def _fail_pending_proposals(self) -> None:
        proposals, self._proposals = self._proposals, {}
        for gate in proposals.values():
            gate.open(("err", NotLeaderError(self.leader_hint)))

    # ------------------------------------------------------------------ replication
    def _broadcast_append_entries(self) -> None:
        for peer in self.peer_names:
            self._send_append_entries(peer)

    def _send_append_entries(self, peer: str) -> None:
        next_idx = self.next_index.get(peer, self.last_log_index + 1)
        prev_index = next_idx - 1
        prev_term = self.log[prev_index].term if prev_index < len(self.log) else 0
        # entries are immutable, so the log's own suffix is the wire form
        entries = self.log[next_idx:]
        self._send(
            peer,
            "append_entries",
            {
                "term": self.current_term,
                "prev_index": prev_index,
                "prev_term": prev_term,
                "entries": entries,
                "leader_commit": self.commit_index,
            },
        )

    # ------------------------------------------------------------------ main loop
    def _main_loop(self) -> Generator:
        while True:
            message: Message = yield self.endpoint.recv(tag="raft")
            if not self._alive:
                continue
            body = message.payload
            kind = body["kind"]
            if body["term"] > self.current_term:
                self._step_down(body["term"])
                yield PERSIST_LATENCY
            if kind == "request_vote":
                yield from self._on_request_vote(body)
            elif kind == "request_vote_resp":
                self._on_request_vote_resp(body)
            elif kind == "append_entries":
                yield from self._on_append_entries(body)
            elif kind == "append_entries_resp":
                self._on_append_entries_resp(body)

    def _on_request_vote(self, body: dict) -> Generator:
        grant = False
        if body["term"] >= self.current_term:
            log_ok = body["last_log_term"] > self.last_log_term or (
                body["last_log_term"] == self.last_log_term
                and body["last_log_index"] >= self.last_log_index
            )
            if log_ok and self.voted_for in (None, body["from"]):
                grant = True
                self.voted_for = body["from"]
                yield PERSIST_LATENCY
                self._arm_election_timer()
        self._send(
            body["from"],
            "request_vote_resp",
            {"term": self.current_term, "granted": grant},
        )

    def _on_request_vote_resp(self, body: dict) -> None:
        if self.state != CANDIDATE or body["term"] != self.current_term:
            return
        if body["granted"]:
            self._votes += 1
            if self._votes >= self._quorum():
                self._become_leader()

    def _on_append_entries(self, body: dict) -> Generator:
        success = False
        match_index = 0
        if body["term"] == self.current_term:
            if self.state != FOLLOWER:
                self.state = FOLLOWER
                self._fail_pending_proposals()
            self.leader_hint = body["from_id"]
            self._arm_election_timer()
            prev_index = body["prev_index"]
            if prev_index < len(self.log) and self.log[prev_index].term == body[
                "prev_term"
            ]:
                success = True
                log, entries = self.log, body["entries"]
                start = prev_index + 1
                for off, (mine, entry) in enumerate(zip(log[start:], entries)):
                    if mine.term != entry.term:
                        del log[start + off:]  # conflict: truncate
                        break
                log.extend(entries[len(log) - start:])
                index = prev_index + len(entries)
                if entries:
                    yield PERSIST_LATENCY
                match_index = index
                if body["leader_commit"] > self.commit_index:
                    self.commit_index = min(
                        body["leader_commit"], self.last_log_index
                    )
                    self._apply_committed()
        self._send(
            body["from"],
            "append_entries_resp",
            {
                "term": self.current_term,
                "success": success,
                "match_index": match_index,
            },
        )

    def _on_append_entries_resp(self, body: dict) -> None:
        if self.state != LEADER or body["term"] != self.current_term:
            return
        peer = body["from"]
        if body["success"]:
            self.match_index[peer] = max(
                self.match_index.get(peer, 0), body["match_index"]
            )
            self.next_index[peer] = self.match_index[peer] + 1
            self._advance_commit_index()
        else:
            # Consistency check failed: back off and retry immediately.
            self.next_index[peer] = max(1, self.next_index.get(peer, 1) - 1)
            self._send_append_entries(peer)

    def _advance_commit_index(self) -> None:
        if self.commit_index == self.last_log_index:
            return  # a heartbeat reply: nothing left to commit
        # The highest index a quorum holds is the quorum-th largest of the
        # leader's own last index and its followers' match indices.
        held = sorted(
            [self.last_log_index, *self.match_index.values()], reverse=True
        )
        quorum = self._quorum()
        if quorum > len(held):
            return
        index = held[quorum - 1]
        # Fig. 8: only commit own-term entries directly. Log terms never
        # decrease, so an own-term entry here means none above is older.
        if index > self.commit_index and self.log[index].term == self.current_term:
            self.commit_index = index
            self._apply_committed()

    def _apply_committed(self) -> None:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            entry = self.log[self.last_applied]
            result = self.apply_fn(entry.command)
            self.applied_results.append((self.last_applied, entry.command))
            gate = self._proposals.pop(entry.proposal_id, None)
            if gate is not None:
                gate.open(("ok", result))

    # ------------------------------------------------------------------ client API
    def propose(self, command: Any) -> Gate:
        """Leader-side: append ``command``; the gate opens ('ok', result)
        once the entry commits and applies, or ('err', exc) on loss of
        leadership. Raises :class:`NotLeaderError` immediately if this
        node is not the leader."""
        if not self.is_leader:
            raise NotLeaderError(self.leader_hint)
        proposal_id = next(_proposal_ids)
        gate = Gate(self.sim)
        self._proposals[proposal_id] = gate
        self.log.append(LogEntry(self.current_term, command, proposal_id))
        if self._quorum() == 1:
            self.commit_index = self.last_log_index
            self._apply_committed()
        else:
            self._broadcast_append_entries()
        return gate

    # ------------------------------------------------------------------ failure injection
    def crash(self) -> None:
        """Stop processing; volatile state will be lost on restart."""
        self._alive = False
        self._fail_pending_proposals()

    def restart(self) -> None:
        """Recover with persistent state only, per the Raft paper.

        The state machine is volatile, so it must be rebuilt: recovery
        resets it (via ``reset_fn``) and re-applies the log from the start
        as the commit index re-advances.
        """
        if self._alive:
            raise ConsensusError(f"{self.name} is not crashed")
        self._alive = True
        self.state = FOLLOWER
        if self.reset_fn is not None:
            self.apply_fn = self.reset_fn()
        self.commit_index = 0
        self.last_applied = 0
        self.leader_hint = None
        self.next_index = {}
        self.match_index = {}
        self._votes = 0
        self.applied_results = []
        self._arm_election_timer()


class RaftCluster:
    """Convenience wrapper building ``n`` replicas and tracking them."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        addrs: List[NodeAddr],
        state_machine_factory: Callable[[], Any],
        rng: Optional[RngStreams] = None,
    ):
        self.sim = sim
        self.rng = rng or RngStreams()
        names = [f"raft:{i}" for i in range(len(addrs))]
        self.machines = [state_machine_factory() for _ in addrs]
        self.nodes: List[RaftNode] = []
        for i, addr in enumerate(addrs):

            def make_reset(index: int):
                def reset() -> Callable[[Any], Any]:
                    self.machines[index] = state_machine_factory()
                    return self.machines[index].apply

                return reset

            self.nodes.append(
                RaftNode(
                    sim,
                    fabric,
                    addr,
                    i,
                    names,
                    self.machines[i].apply,
                    self.rng,
                    reset_fn=make_reset(i),
                )
            )

    def leader(self) -> Optional[RaftNode]:
        leaders = [n for n in self.nodes if n.is_leader]
        if len(leaders) > 1:
            # Possible transiently across terms; the highest term wins.
            leaders.sort(key=lambda n: n.current_term)
            return leaders[-1]
        return leaders[0] if leaders else None

