"""OFI-like messaging endpoints: tagged messages, RPC, and bulk RDMA.

DAOS uses Mercury/CART over libfabric; MPI uses its own transport. Both
reduce, for simulation purposes, to the three primitives provided here:

- :meth:`Endpoint.send` / :meth:`Endpoint.recv` — asynchronous message
  passing with latency + serialization delay,
- :class:`Rpc` / :class:`RpcServer` — request/response with one
  server-side task per request (handlers are generators and may perform
  arbitrary simulated work before replying),
- bulk transfers — RDMA-style byte movement expressed as fluid flows;
  the *caller* decides which links the flow crosses (client NIC, server
  NIC, storage target...), because only the storage layer knows the
  placement fan-out.

Message payloads are ordinary Python objects (they are never serialized
for real); ``nbytes`` tells the model how large the wire message would be.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional

from repro.errors import NetworkError
from repro.network.fabric import Fabric, NodeAddr
from repro.sim.core import Simulator
from repro.sim.sync import Gate, Queue

_rpc_ids = itertools.count(1)


@dataclass(slots=True)
class Message:
    """A delivered message: sender endpoint name, tag, payload."""

    src: str
    tag: str
    payload: Any
    nbytes: int = 0


class Endpoint:
    """A named mailbox attached to a fabric node."""

    def __init__(self, fabric: Fabric, addr: NodeAddr, name: str):
        self.fabric = fabric
        self.sim: Simulator = fabric.sim
        self.addr = addr
        self.name = name
        #: tag -> mailbox, made on first use ("" is the untagged inbox)
        self._queues: Dict[str, Queue] = {}
        #: tag -> callback that takes the message at delivery, in place of
        #: a queue and a task blocked on it (:class:`Rpc` replies)
        self._sinks: Dict[str, Callable[[Message], None]] = {}
        fabric.register_endpoint(name, self)

    # -- send/recv ---------------------------------------------------------
    def send(self, dst: str, payload: Any, nbytes: int = 64, tag: str = "") -> None:
        """Asynchronously deliver ``payload`` to endpoint ``dst``.

        Delivery goes through :meth:`Fabric.transmit`, which applies the
        fault plane (partitions, flaky links, latency spikes).
        """
        target = self.fabric.endpoint(dst)
        if not isinstance(target, Endpoint):
            raise NetworkError(f"endpoint {dst!r} is not a message endpoint")
        message = Message(src=self.name, tag=tag, payload=payload, nbytes=nbytes)
        self.fabric.transmit(self.addr, target, message)

    def _queue(self, tag: str) -> Queue:
        queue = self._queues.get(tag)
        if queue is None:
            queue = self._queues[tag] = Queue(self.sim)
        return queue

    def _deliver(self, message: Message) -> None:
        sink = self._sinks.get(message.tag)
        if sink is not None:
            sink(message)
        else:
            self._queue(message.tag).put(message)

    def recv(self, tag: str = ""):
        """Awaitable for the next message (optionally on a specific tag)."""
        return self._queue(tag).get()

    def close(self) -> None:
        self.fabric.deregister_endpoint(self.name)


class RpcServer(Endpoint):
    """Endpoint that dispatches requests to registered handler generators.

    A handler has signature ``handler(src_name, **args) -> generator`` and
    its return value becomes the RPC reply. Handler exceptions are shipped
    back to the caller and re-raised there, mirroring how a real RPC stack
    surfaces remote faults.
    """

    def __init__(self, fabric: Fabric, addr: NodeAddr, name: str):
        super().__init__(fabric, addr, name)
        self._handlers: Dict[str, Callable[..., Generator]] = {}
        self._dispatcher = self.sim.spawn(self._dispatch_loop(), f"rpc:{name}")
        #: simulated per-request server CPU cost before the handler runs
        self.dispatch_overhead = 0.5e-6
        #: while set, requests are answered with ``factory()`` instead of
        #: being dispatched (crashed server: the reply stands in for the
        #: caller's RPC timeout, after ``unavailable_delay``)
        self._unavailable: Optional[Callable[[], Exception]] = None
        self.unavailable_delay = fabric.rpc_timeout

    def register(self, op: str, handler: Callable[..., Generator]) -> None:
        self._handlers[op] = handler

    def set_unavailable(
        self, error_factory: Optional[Callable[[], Exception]]
    ) -> None:
        """Mark the server down (``error_factory`` builds the per-request
        error) or back up (``None``)."""
        self._unavailable = error_factory

    def _dispatch_loop(self) -> Generator:
        while True:
            message = yield self.recv(tag="rpc-req")
            # The serve task takes its first step once the dispatch CPU
            # cost has elapsed: one event for the spawn and the sleep.
            self.sim.spawn(
                self._serve(message, self.sim.now),
                f"rpc:{self.name}:{message.payload['op']}",
                delay=self.dispatch_overhead,
            )

    def _serve(self, message: Message, arrived: float) -> Generator:
        request = message.payload
        op = request["op"]
        handler = self._handlers.get(op)
        tracer = self.sim.tracer
        span = None
        if tracer is not None:
            # Adopt the caller's span (shipped in the request) as parent so
            # the server-side work hangs off the client op in the trace;
            # the handler runs in this task, so its spans nest under ours.
            span = tracer.begin(
                f"rpc.{op}",
                "rpc",
                node=self.addr.name,
                parent_id=request.get("trace_ctx"),
                attrs={"src": message.src},
            )
            if span is not None:
                span.start = arrived  # the dispatch cost is ours too
        try:
            if self._unavailable is not None:
                yield self.unavailable_delay
                outcome = ("err", self._unavailable())
            elif handler is None:
                outcome = (
                    "err",
                    NetworkError(f"{self.name}: no handler for {op!r}"),
                )
            else:
                try:
                    result = yield from handler(message.src, **request["args"])
                    outcome = ("ok", result)
                except Exception as exc:  # noqa: BLE001 - shipped to caller
                    outcome = ("err", exc)
        finally:
            if tracer is not None:
                tracer.end(span)
        self.send(
            request["reply_to"],
            {"id": request["id"], "outcome": outcome},
            nbytes=request.get("rep_bytes", 256),
            tag="rpc-rep",
        )


class Rpc:
    """Client-side RPC helper bound to an :class:`Endpoint`."""

    def __init__(self, endpoint: Endpoint):
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self._pending: Dict[int, Gate] = {}
        endpoint._sinks["rpc-rep"] = self._on_reply

    def _on_reply(self, message: Message) -> None:
        """Open the caller's gate at delivery; a reply nobody waits for
        any more is dropped."""
        gate = self._pending.pop(message.payload["id"], None)
        if gate is not None:
            gate.open(message.payload["outcome"])

    def call(
        self,
        dst: str,
        op: str,
        args: Optional[dict] = None,
        req_bytes: int = 256,
        rep_bytes: int = 256,
    ) -> Generator:
        """Task helper: ``result = yield from rpc.call(...)``."""
        rpc_id = next(_rpc_ids)
        gate = Gate(self.sim)
        self._pending[rpc_id] = gate
        request = {
            "op": op,
            "id": rpc_id,
            "args": args or {},
            "reply_to": self.endpoint.name,
            "rep_bytes": rep_bytes,
        }
        tracer = self.sim.tracer
        if tracer is not None:
            # Span propagation rides the payload dict; nbytes (the modelled
            # wire size) is untouched, so tracing cannot change timing.
            request["trace_ctx"] = tracer.current_span_id()
        self.endpoint.send(dst, request, nbytes=req_bytes, tag="rpc-req")
        status, value = yield gate
        if status == "err":
            raise value
        return value
