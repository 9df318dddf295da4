"""RPC over the fabric's messages, and where bulk RDMA goes.

DAOS uses Mercury/CART over libfabric; MPI uses its own transport. Both
reduce, for simulation purposes, to the three primitives used here:

- :meth:`Fabric.send <repro.network.fabric.Fabric.send>` — a message is
  a callback run on the other node after latency + serialization delay,
  subject to the fault plane,
- :class:`Rpc` / :class:`RpcServer` — request/response: a server's
  dispatcher task hands each request, after the dispatch CPU cost, to
  a plain-function handler that answers through a :class:`Reply`, at
  once or from a later callback; serving spawns no task,
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
    """A server that dispatches requests to registered handlers.

    A handler is a plain function ``handler(src_name, reply, **args)``:
    it calls ``reply(value)`` now or from a later callback, and that
    value becomes the RPC reply. An exception it raises, or passes as
    the value, is shipped back to the caller and re-raised there,
    mirroring how a real RPC stack surfaces remote faults.
    """

    def __init__(self, fabric: Fabric, addr: NodeAddr, name: str):
        self.fabric = fabric
        self.sim = fabric.sim
        self.addr = addr
        self.name = name
        #: delivered requests, drained by the dispatcher task
        self.requests = Queue(self.sim)
        self._handlers: Dict[str, Callable[..., None]] = {}
        self._dispatcher = self.sim.spawn(self._dispatch_loop(), f"rpc:{name}")
        #: simulated per-request server CPU cost before the handler runs
        self.dispatch_overhead = 0.5e-6
        #: while set, requests are answered with ``factory()`` instead of
        #: being dispatched (crashed server: the reply stands in for the
        #: caller's RPC timeout, after ``unavailable_delay``)
        self._unavailable: Optional[Callable[[], Exception]] = None
        self.unavailable_delay = fabric.rpc_timeout

    def register(self, op: str, handler: Callable[..., None]) -> None:
        self._handlers[op] = handler

    def set_unavailable(
        self, error_factory: Optional[Callable[[], Exception]]
    ) -> None:
        """Mark the server down (``error_factory`` builds the per-request
        error) or back up (``None``)."""
        self._unavailable = error_factory

    def _dispatch_loop(self) -> Generator:
        sim = self.sim
        while True:
            request = yield self.requests.get()
            # Service starts after the dispatch CPU cost: one event. No
            # timeline revival is due (``Simulator.spawn``): the scraper
            # parks only on a drained heap, and this request came out of it.
            sim.schedule(self.dispatch_overhead, self._serve, request, sim.now)

    def _serve(self, request: dict, arrived: float) -> None:
        op = request["op"]
        tracer = self.sim.tracer
        span = None
        if tracer is not None:
            # Adopt the caller's span (shipped in the request) as parent so
            # the server-side work hangs off the client op in the trace;
            # the handler opens its spans under ``reply.span``.
            span = tracer.open(f"rpc.{op}", "rpc", self.addr.name,
                               request.get("trace_ctx"),
                               {"src": request["src"]})
            span.start = arrived  # the dispatch cost is ours too
        reply = Reply(self, request, span)
        if self._unavailable is not None:
            self.sim.schedule(self.unavailable_delay, reply,
                              self._unavailable())
            return
        try:
            handler = self._handlers.get(op)
            if handler is None:
                raise NetworkError(f"{self.name}: no handler for {op!r}")
            handler(request["src"], reply, **request["args"])
        except Exception as exc:  # noqa: BLE001 - shipped to caller
            reply(exc)


class Reply:
    """The answer to one served request, sent by calling it once with
    the value (an exception is raised at the caller). ``span`` is the
    request's ``rpc.<op>`` span, ``None`` untraced: the parent of the
    spans its handler opens."""

    __slots__ = ("server", "request", "span")

    def __init__(self, server: RpcServer, request: dict, span):
        self.server = server
        self.request = request
        self.span = span

    def __call__(self, value) -> None:
        server = self.server
        if self.span is not None:
            server.sim.tracer.end(self.span)
        if isinstance(value, Exception):
            # A remote error crosses the wire without its server frames,
            # which would hold this request (and through its gate, the
            # error): refcounting, not the cyclic collector, frees it.
            value.__traceback__ = None
        request = self.request
        server.fabric.send(server.addr, request["addr"], request["rep_bytes"],
                           request["gate"].open, value, "rpc-rep")


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
        value = yield gate
        del gate  # it holds the reply
        if isinstance(value, Exception):
            try:
                raise value
            finally:
                del value  # the traceback holds this frame
        return value
