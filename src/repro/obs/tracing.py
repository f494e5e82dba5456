"""Distributed tracing: trace/span identity threaded through the runtime.

A ``TraceContext`` is the portable identity of one request: a
``trace_id`` shared by everything done on its behalf and a ``span_id``
naming the current operation.  The interpreter stamps both onto every
event it emits; the distributed backend carries them inside task
envelopes so remote muscle executions join the same trace, and worker
spans are re-emitted into the master's tracer the same way worker
events already are.

The tracer is built to disappear when off:

* ``Tracer(enabled=False)`` (the default on every platform) hands out
  real *identities* — ``new_context`` still mints trace ids, so
  correlation across BEFORE/AFTER pairs always works — but every
  ``start_span`` returns the shared no-op span and records nothing.
* With ``enabled=True``, a per-trace sampling coin (``sample_rate``)
  decides whether spans are recorded; unsampled traces pay two
  attribute reads per event, nothing more.
* Finished spans land in a bounded ring buffer (``max_spans``) — the
  flight recorder drains it; an abandoned tracer can't grow without
  bound.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["TraceContext", "Span", "Tracer", "new_trace_id", "new_span_id"]

#: ``getrandbits`` is one call into C, so concurrent callers need no
#: lock around it.
_id_rng = random.Random()


def new_trace_id() -> str:
    return "%016x" % _id_rng.getrandbits(64)


def new_span_id() -> str:
    return "%08x" % _id_rng.getrandbits(32)


class TraceContext:
    """Immutable (trace_id, span_id, sampled) triple."""

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: str, sampled: bool = True) -> None:
        object.__setattr__(self, "trace_id", trace_id)
        object.__setattr__(self, "span_id", span_id)
        object.__setattr__(self, "sampled", sampled)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("TraceContext is immutable")

    def child(self, span_id: Optional[str] = None) -> "TraceContext":
        return TraceContext(self.trace_id, span_id or new_span_id(), self.sampled)

    def __repr__(self) -> str:
        return f"TraceContext({self.trace_id}/{self.span_id}, sampled={self.sampled})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.sampled == other.sampled
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id, self.sampled))


class Span:
    """One recorded operation inside a trace."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id",
        "start", "end", "attrs", "status", "_tracer",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start: float,
        tracer: Optional["Tracer"] = None,
        attrs: Optional[Dict] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict = attrs or {}
        self.status = "ok"
        self._tracer = tracer

    #: A real span records; the shared no-op span says ``False``.
    recording = True

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id, sampled=True)

    def set_attr(self, key: str, value) -> "Span":
        self.attrs[key] = value
        return self

    def finish(self, end: Optional[float] = None, status: Optional[str] = None) -> None:
        if self._tracer is not None:
            self._tracer.finish(self, end=end, status=status)
            self._tracer = None

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", repr(exc))
        self.finish()

    def as_dict(self) -> Dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": self.attrs,
        }


class _NoopSpan:
    """Shared do-nothing span returned when tracing is off/unsampled."""

    __slots__ = ()

    recording = False
    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    start = 0.0
    end = None
    duration = None
    status = "ok"
    attrs: Dict = {}

    def context(self) -> Optional[TraceContext]:
        return None

    def set_attr(self, key: str, value) -> "_NoopSpan":
        return self

    def finish(self, end=None, status=None) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Mints trace identity and records sampled spans into a ring buffer."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = False,
        sample_rate: float = 1.0,
        max_spans: int = 8192,
    ) -> None:
        self._clock = clock or time.monotonic
        self.enabled = bool(enabled)
        self.sample_rate = float(sample_rate)
        self._sampler = random.Random()
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=max_spans)
        self._local = threading.local()
        self.dropped = 0  # spans discarded because the ring was full

    # -- configuration -------------------------------------------------

    def configure(
        self,
        enabled: Optional[bool] = None,
        sample_rate: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> "Tracer":
        if enabled is not None:
            self.enabled = bool(enabled)
        if sample_rate is not None:
            if not 0.0 <= sample_rate <= 1.0:
                raise ValueError("sample_rate must be in [0, 1]")
            self.sample_rate = float(sample_rate)
        if clock is not None:
            self._clock = clock
        return self

    def now(self) -> float:
        return self._clock()

    # -- identity ------------------------------------------------------

    def new_context(self, sampled: Optional[bool] = None) -> TraceContext:
        """A fresh root context.

        Identity is always minted (even with tracing disabled) so that
        event correlation works unconditionally; ``sampled`` controls
        only whether *spans* for this trace are recorded.
        """
        if sampled is None:
            sampled = self.enabled and (
                self.sample_rate >= 1.0 or self._sampler.random() < self.sample_rate
            )
        return TraceContext(new_trace_id(), new_span_id(), sampled=bool(sampled))

    # -- spans ---------------------------------------------------------

    def start_span(
        self,
        name: str,
        context: Optional[TraceContext] = None,
        start: Optional[float] = None,
        **attrs,
    ):
        """Start a span as a child of ``context`` (or the active span).

        Returns the shared no-op span when tracing is off or the trace
        is unsampled — callers never branch.
        """
        if not self.enabled:
            return NOOP_SPAN
        parent = context if context is not None else self.current()
        if parent is not None:
            if not parent.sampled:
                return NOOP_SPAN
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            ctx = self.new_context()
            if not ctx.sampled:
                return NOOP_SPAN
            trace_id, parent_id = ctx.trace_id, None
        return Span(
            name,
            trace_id,
            new_span_id(),
            parent_id,
            self._clock() if start is None else start,
            self,
            attrs,
        )

    def span(self, name: str, context: Optional[TraceContext] = None, **attrs):
        """Context manager: start a span and make it current on this thread."""
        return _ActiveSpan(self, self.start_span(name, context=context, **attrs))

    def finish(self, span: Span, end: Optional[float] = None, status: Optional[str] = None) -> None:
        if not isinstance(span, Span):
            return
        if span.end is None:
            span.end = self._clock() if end is None else end
        if status is not None:
            span.status = status
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self.dropped += 1
            self._spans.append(span)

    def record_span(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start: float,
        end: float,
        status: str = "ok",
        attrs: Optional[Dict] = None,
    ) -> None:
        """Re-emit an externally produced span (e.g. from a remote worker)."""
        span = Span(name, trace_id, span_id, parent_id, start, tracer=None, attrs=attrs)
        span.end = end
        span.status = status
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self.dropped += 1
            self._spans.append(span)

    # -- thread-local context ------------------------------------------

    def current(self) -> Optional[TraceContext]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _push(self, ctx: TraceContext) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(ctx)

    def _pop(self) -> None:
        stack = getattr(self._local, "stack", None)
        if stack:
            stack.pop()

    # -- readback ------------------------------------------------------

    def finished(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def drain(self) -> List[Span]:
        with self._lock:
            spans = list(self._spans)
            self._spans.clear()
            return spans

    def trace(self, trace_id: str) -> List[Span]:
        return [s for s in self.finished() if s.trace_id == trace_id]

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class _ActiveSpan:
    """Context manager pairing a span with thread-local activation."""

    __slots__ = ("_tracer", "span", "_activated")

    def __init__(self, tracer: Tracer, span) -> None:
        self._tracer = tracer
        self.span = span
        self._activated = False

    def __enter__(self):
        if isinstance(self.span, Span):
            self._tracer._push(self.span.context())
            self._activated = True
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._activated:
            self._tracer._pop()
        self.span.__exit__(exc_type, exc, tb)


def spans_to_tree(spans: List[Span]) -> Dict[Optional[str], List[Span]]:
    """Index spans by parent_id (a poor man's trace tree)."""
    tree: Dict[Optional[str], List[Span]] = {}
    for span in sorted(spans, key=lambda s: s.start):
        tree.setdefault(span.parent_id, []).append(span)
    return tree


def walk_trace(spans: List[Span]) -> Iterator[tuple]:
    """Yield (depth, span) in tree order for one trace's spans."""
    tree = spans_to_tree(spans)
    ids = {s.span_id for s in spans}
    roots = [s for s in sorted(spans, key=lambda s: s.start)
             if s.parent_id is None or s.parent_id not in ids]

    def visit(span, depth):
        yield depth, span
        for child in tree.get(span.span_id, ()):
            yield from visit(child, depth + 1)

    for root in roots:
        yield from visit(root, 0)
