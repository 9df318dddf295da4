"""Span tracing for the simulated stack.

A :class:`Tracer` records *spans* — named intervals of simulated time
with a ``span_id``/``parent_id`` hierarchy, a ``layer`` (the track they
render on: ior, dfuse, dfs, client, rpc, fabric, engine, vos, ...) and a
``node`` (the process they belong to). ``sim.tracer`` is ``None`` until
:func:`repro.obs.install` puts a :class:`Tracer` there; instrumented code
wraps work in ``with span_of(sim, ...)`` blocks (or guards a
``begin`` / ``end`` pair with ``if tracer is not None``), so with tracing
off a hot path pays one attribute read and one identity test.

Parent resolution is *per simulated task*: the simulator exposes the
task currently being stepped, and each task carries its own span stack,
so interleaved ranks never adopt each other's spans. Crossing a task
boundary (client RPC -> server handler) is explicit: the caller ships
``tracer.current_span_id()`` inside the request, and the server, which
serves it by callbacks rather than a task, opens its span with that
``parent_id`` through :meth:`Tracer.open`, which pushes it on no stack;
the engine opens its own spans under that one the same way.

The tracer never yields, never schedules events and never draws random
numbers — enabling it cannot perturb a simulation (a property pinned by
``tests/faults/test_determinism.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class Span:
    """One traced interval (or instant, when ``kind == "i"``)."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "layer",
        "node",
        "start",
        "end",
        "attrs",
        "kind",
        "_key",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        layer: str,
        node: Optional[str],
        start: float,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.layer = layer
        self.node = node
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = {}
        self.kind = "X"
        #: tid of the task whose span stack holds this span while open
        self._key: Optional[int] = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Span {self.span_id} {self.name!r} layer={self.layer} "
            f"[{self.start:.9f}, {self.end}]>"
        )


class _SpanHandle:
    """Context manager pairing one begin() with its end()."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Optional[Span]):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Optional[Span]:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.tracer.end(self.span)
        return False


class _NoopHandle:
    """Shared do-nothing context manager for when no tracer is installed."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: What :func:`span_of` hands out when no tracer is installed.
NOOP_SPAN = _NoopHandle()


def span_of(sim, name: str, layer: str, node: Optional[str], **attrs: Any):
    """``with span_of(sim, ...):`` — a span on ``sim``'s tracer, or the
    shared no-op when tracing is off."""
    tracer = sim.tracer
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, layer, node=node, attrs=attrs or None)


class Tracer:
    """Span recorder bound to a simulator clock."""

    def __init__(self, sim):
        self.sim = sim
        self.spans: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        self._stacks: Dict[int, List[Span]] = {}
        self._next_id = 1

    # ------------------------------------------------------------- context
    def _current_key(self) -> int:
        task = getattr(self.sim, "_current_task", None)
        return task.tid if task is not None else 0

    def current_span_id(self) -> Optional[int]:
        """The innermost open span of the running task (for propagation)."""
        stack = self._stacks.get(self._current_key())
        return stack[-1].span_id if stack else None

    # ------------------------------------------------------------- recording
    def begin(
        self,
        name: str,
        layer: str,
        node: Optional[str] = None,
        parent_id: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a span on the running task's stack; the matching
        :meth:`end` closes it.

        ``parent_id=None`` adopts the running task's innermost open span.
        ``node=None`` inherits the parent's node attribution.
        """
        key = self._current_key()
        stack = self._stacks.get(key)
        if parent_id is None and stack:
            parent_id = stack[-1].span_id
        span = self.open(name, layer, node, parent_id, attrs)
        if stack is None:
            stack = self._stacks[key] = []
        stack.append(span)
        span._key = key
        return span

    def open(self, name: str, layer: str, node: Optional[str],
             parent_id: Optional[int],
             attrs: Optional[Dict[str, Any]]) -> Span:
        """Open a span under ``parent_id`` on no task's stack; :meth:`end`
        closes it. For work served by callbacks rather than a task (an
        engine RPC): a span on the no-task stack would become the parent
        of whatever the next callback records. ``node=None`` inherits
        the parent's node attribution."""
        if node is None and parent_id is not None:
            parent = self._by_id.get(parent_id)
            if parent is not None:
                node = parent.node
        span = Span(self._next_id, parent_id, name, layer, node, self.sim.now)
        self._next_id += 1
        self.spans.append(span)
        self._by_id[span.span_id] = span
        if attrs:
            span.attrs.update(attrs)
        return span

    def end(self, span: Optional[Span], **attrs: Any) -> None:
        """Close a span from :meth:`begin` or :meth:`open` (no-op on
        ``None``)."""
        if span is None:
            return
        span.end = self.sim.now
        if attrs:
            span.attrs.update(attrs)
        stack = self._stacks.get(span._key)
        if stack is not None:
            if span in stack:
                stack.remove(span)
            if not stack:
                del self._stacks[span._key]
        span._key = None

    def span(
        self,
        name: str,
        layer: str,
        node: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        """``with tracer.span(...):`` convenience around begin/end."""
        return _SpanHandle(self, self.begin(name, layer, node, None, attrs))

    def event(
        self,
        name: str,
        layer: str,
        node: Optional[str],
        start: float,
        end: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Record a completed span with explicit times (e.g. an in-flight
        fabric message whose delivery is scheduled, not awaited), under
        the running task's innermost open span."""
        span = self.open(name, layer, node, self.current_span_id(), attrs)
        span.start = start
        span.end = end
        return span

    def instant(
        self,
        name: str,
        layer: str,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """A zero-duration marker on the running task's node."""
        span = self.event(name, layer, None, self.sim.now, self.sim.now, attrs)
        span.kind = "i"
        return span
