"""Span tracing for the simulated stack.

A :class:`Tracer` records *spans* — named intervals of simulated time
with a ``span_id``/``parent_id`` hierarchy, a ``layer`` (the track they
render on: ior, dfuse, dfs, client, rpc, fabric, engine, vos, ...) and a
``node`` (the process they belong to). Instrumented code obtains the
tracer with :func:`tracer_of` and wraps work in ``with tracer.span(...)``
blocks; when tracing is disabled every call short-circuits to a shared
no-op, so the instrumented hot paths cost one attribute read and one
truth test.

Parent resolution is *per simulated task*: the simulator exposes the
task currently being stepped, and each task carries its own span stack,
so interleaved ranks never adopt each other's spans. Crossing a task
boundary (client RPC -> server handler) is explicit: the caller ships
``tracer.current_span_id()`` inside the request and the server opens its
span with that ``parent_id``; the handler runs in the server's task, so
nested engine spans attach underneath.

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
        kind: str = "X",
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.layer = layer
        self.node = node
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = {}
        self.kind = kind
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
    """Shared do-nothing context manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: Shared no-op span handle; importable by instrumented call sites that
#: want a `with`-able placeholder when no tracer is installed.
NOOP_SPAN = _NoopHandle()
_NOOP_HANDLE = NOOP_SPAN


class Tracer:
    """Span recorder bound to a simulator clock."""

    def __init__(self, sim, enabled: bool = True):
        self.sim = sim
        self.enabled = enabled
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
        if not self.enabled:
            return None
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
    ) -> Optional[Span]:
        """Open a span; the matching :meth:`end` closes it.

        ``parent_id=None`` adopts the running task's innermost open span.
        ``node=None`` inherits the parent's node attribution.
        """
        if not self.enabled:
            return None
        key = self._current_key()
        stack = self._stacks.get(key)
        if parent_id is None and stack:
            parent_id = stack[-1].span_id
        if node is None and parent_id is not None:
            parent = self._by_id.get(parent_id)
            if parent is not None:
                node = parent.node
        span = Span(self._next_id, parent_id, name, layer, node, self.sim.now)
        self._next_id += 1
        if stack is None:
            stack = self._stacks[key] = []
        stack.append(span)
        span._key = key
        self.spans.append(span)
        self._by_id[span.span_id] = span
        if attrs:
            span.attrs.update(attrs)
        return span

    def end(self, span: Optional[Span], **attrs: Any) -> None:
        """Close a span opened with :meth:`begin` (no-op on ``None``)."""
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
        parent_id: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        """``with tracer.span(...):`` convenience around begin/end."""
        if not self.enabled:
            return _NOOP_HANDLE
        return _SpanHandle(self, self.begin(name, layer, node, parent_id, attrs))

    def event(
        self,
        name: str,
        layer: str,
        node: Optional[str],
        start: float,
        end: float,
        attrs: Optional[Dict[str, Any]] = None,
        parent_id: Optional[int] = None,
    ) -> Optional[Span]:
        """Record a completed span with explicit times (e.g. an in-flight
        fabric message whose delivery is scheduled, not awaited)."""
        if not self.enabled:
            return None
        if parent_id is None:
            parent_id = self.current_span_id()
        node_resolved = node
        if node_resolved is None and parent_id is not None:
            parent = self._by_id.get(parent_id)
            if parent is not None:
                node_resolved = parent.node
        span = Span(self._next_id, parent_id, name, layer, node_resolved, start)
        self._next_id += 1
        span.end = end
        if attrs:
            span.attrs.update(attrs)
        self.spans.append(span)
        self._by_id[span.span_id] = span
        return span

    def instant(
        self,
        name: str,
        layer: str,
        node: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Optional[Span]:
        """A zero-duration marker event (fault injections, pool-map bumps)."""
        if not self.enabled:
            return None
        span = self.event(name, layer, node, self.sim.now, self.sim.now, attrs)
        if span is not None:
            span.kind = "i"
        return span

    # ------------------------------------------------------------- queries
    def children_index(self) -> Dict[int, List[Span]]:
        """parent_id -> children, in recording order."""
        index: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent_id is not None:
                index.setdefault(span.parent_id, []).append(span)
        return index

    def __len__(self) -> int:
        return len(self.spans)


#: Shared disabled tracer handed out when a simulator has none installed.
class _NullClock:
    now = 0.0


NULL_TRACER = Tracer(_NullClock(), enabled=False)


def tracer_of(sim) -> Tracer:
    """The simulator's tracer, or the shared disabled one."""
    tracer = getattr(sim, "tracer", None)
    return tracer if tracer is not None else NULL_TRACER
