"""RPC over the fabric's messages, and where bulk RDMA goes.

DAOS uses Mercury/CART over libfabric; MPI uses its own transport. Both
reduce, for simulation purposes, to the three primitives used here:

- :meth:`Fabric.send <repro.network.fabric.Fabric.send>` — a message is
  a callback run on the other node after latency + serialization delay,
  subject to the fault plane,
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

from typing import Callable, Dict, Generator, Optional

from repro.errors import NetworkError
from repro.network.fabric import Fabric, NodeAddr
from repro.sim.sync import Gate, Queue


class RpcServer:
    """A server that dispatches requests to registered handler generators.

    A handler has signature ``handler(src_name, **args) -> generator`` and
    its return value becomes the RPC reply. Handler exceptions are shipped
    back to the caller and re-raised there, mirroring how a real RPC stack
    surfaces remote faults.
    """

    def __init__(self, fabric: Fabric, addr: NodeAddr, name: str):
        self.fabric = fabric
        self.sim = fabric.sim
        self.addr = addr
        self.name = name
        #: delivered requests, drained by the dispatcher task
        self.requests = Queue(self.sim)
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
            request = yield self.requests.get()
            # The serve task takes its first step once the dispatch CPU
            # cost has elapsed: one event for the spawn and the sleep.
            self.sim.spawn(
                self._serve(request, self.sim.now),
                f"rpc:{self.name}:{request['op']}",
                delay=self.dispatch_overhead,
            )

    def _serve(self, request: dict, arrived: float) -> Generator:
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
                attrs={"src": request["src"]},
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
                    result = yield from handler(request["src"],
                                                **request["args"])
                    outcome = ("ok", result)
                except Exception as exc:  # noqa: BLE001 - shipped to caller
                    outcome = ("err", exc)
        finally:
            if tracer is not None:
                tracer.end(span)
        self.fabric.send(self.addr, request["addr"], request["rep_bytes"],
                         request["gate"].open, outcome, "rpc-rep")
        # A shipped error's traceback holds this frame, and the request's
        # gate will hold the outcome: drop both so refcounting, not the
        # cyclic collector, frees the error.
        del outcome, request


class Rpc:
    """Client-side RPC helper for the caller ``name`` on node ``addr``."""

    def __init__(self, fabric: Fabric, addr: NodeAddr, name: str):
        self.fabric = fabric
        self.sim = fabric.sim
        self.addr = addr
        self.name = name

    def call(
        self,
        server: RpcServer,
        op: str,
        args: Optional[dict] = None,
        req_bytes: int = 256,
        rep_bytes: int = 256,
    ) -> Generator:
        """Task helper: ``result = yield from rpc.call(...)``. The reply's
        delivery opens the request's own gate."""
        gate = Gate(self.sim)
        request = {"op": op, "args": args or {}, "src": self.name,
                   "addr": self.addr, "gate": gate, "rep_bytes": rep_bytes}
        tracer = self.sim.tracer
        if tracer is not None:
            # Span propagation rides the payload dict; nbytes (the modelled
            # wire size) is untouched, so tracing cannot change timing.
            request["trace_ctx"] = tracer.current_span_id()
        self.fabric.send(self.addr, server.addr, req_bytes,
                         server.requests.put, request, "rpc-req")
        del request  # it holds the gate
        status, value = yield gate
        del gate  # its value is the outcome
        if status == "err":
            try:
                raise value
            finally:
                del value  # the traceback holds this frame
        return value
