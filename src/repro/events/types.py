"""Event model of the event-driven separation-of-concerns layer.

The paper (Section 3) statically defines, for every skeleton type, a set of
events that are raised while the skeleton executes.  An event is identified
by:

* the skeleton it belongs to (and the full *trace* of nested skeletons);
* *when* it happened — :class:`When.BEFORE` or :class:`When.AFTER`;
* *where* in the skeleton it happened — :class:`Where` (the skeleton itself,
  its split muscle, its merge muscle, its condition muscle, or a nested
  sub-skeleton);
* an *index* ``i`` correlating the BEFORE and AFTER events of the same
  skeleton-instance execution (the guard variable ``idx`` of the paper's
  state machines, Figures 3 and 4).

Events carry the current partial solution (``value``), a timestamp taken
from the executing platform's clock, the identifier of the worker that ran
the related muscle, and a dictionary of event-specific extras (for example
``fs_card`` on a *Map After Split* event — the number of sub-problems the
split produced).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Tuple

__all__ = ["When", "Where", "Event", "event_label"]


class When(enum.Enum):
    """Whether the event was raised before or after the related muscle."""

    BEFORE = "b"
    AFTER = "a"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


class Where(enum.Enum):
    """Location of the event within the skeleton's pattern.

    The single-letter codes are the suffixes used by the paper's
    ``Δ@event`` notation: ``map(fs, Δ, fm)@bs(i)`` is *Map Before Split*,
    i.e. ``(When.BEFORE, Where.SPLIT)``.
    """

    SKELETON = ""
    SPLIT = "s"
    MERGE = "m"
    CONDITION = "c"
    NESTED = "n"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


def event_label(kind: str, when: When, where: Where) -> str:
    """Return the paper-style label of an event, e.g. ``"map@as"``.

    ``kind`` is the skeleton kind (``"seq"``, ``"map"``, ...); the suffix
    concatenates the :class:`When` code and the :class:`Where` code, as in
    the paper's notation ``Δ@event``.
    """
    # ``_value_`` is the member's plain attribute; ``.value`` is a
    # descriptor call, and every event's label passes through here.
    return f"{kind}@{when._value_}{where._value_}"


@dataclass
class Event:
    """A single occurrence raised during a skeleton execution.

    Attributes
    ----------
    skeleton:
        The skeleton object the event belongs to (last element of
        :attr:`trace`).
    kind:
        The skeleton kind string (``"seq"``, ``"map"``, ``"dac"``, ...).
    when / where:
        Position of the event relative to its muscle (see module docs).
    index:
        Correlation identifier of the skeleton-instance execution.  The
        BEFORE and AFTER events of one muscle execution share the index of
        the enclosing skeleton instance, mirroring the ``i`` parameter of
        the paper.
    parent_index:
        Index of the enclosing skeleton instance (``None`` for the root),
        used to attach tracking state machines to their parents.
    value:
        The partial solution passed to (BEFORE) or produced by (AFTER) the
        related muscle.  Listeners may replace it by returning a new value.
    timestamp:
        Time of the event according to the executing platform's clock
        (virtual seconds on the simulator, monotonic seconds on the thread
        pool).
    trace:
        Tuple of nested skeletons from the root down to :attr:`skeleton`
        (the ``Skeleton[] st`` parameter of the paper's generic listener).
    index_trace:
        Instance indices corresponding 1:1 to :attr:`trace`.
    worker:
        Identifier of the worker (thread or virtual core) that executed
        the related muscle.
    execution_id:
        Identifier of the top-level :class:`~repro.runtime.task.Execution`
        this event belongs to (``None`` for events raised outside an
        execution, e.g. hand-built in tests).  On a shared multi-tenant
        platform this is what keeps listeners, recorders and estimators of
        concurrent executions from cross-contaminating — see
        :mod:`repro.events.scoping`.
    extra:
        Event-specific payload; well-known keys include ``fs_card``
        (cardinality returned by a split), ``cond_result`` (boolean of a
        condition muscle), ``iteration`` (While/For loop counter),
        ``child`` (index of a nested sub-skeleton), ``stage`` (pipe stage)
        and ``depth`` (divide-and-conquer recursion depth).
    trace_id / span_id:
        Distributed-tracing correlation ids stamped from the owning
        execution's :class:`~repro.obs.tracing.TraceContext` (``None``
        for events raised outside an execution).  Every event of one
        execution shares its ``trace_id`` — including events re-emitted
        from remote socket workers — which is what lets the flight
        recorder reconstruct a request end to end.
    """

    skeleton: Any
    kind: str
    when: When
    where: Where
    index: int
    parent_index: Optional[int]
    value: Any
    timestamp: float
    trace: Tuple[Any, ...] = ()
    index_trace: Tuple[int, ...] = ()
    worker: Optional[int] = None
    extra: Mapping[str, Any] = field(default_factory=dict)
    execution_id: Optional[int] = None
    trace_id: Optional[str] = None
    span_id: Optional[str] = None

    @property
    def label(self) -> str:
        """Paper-style event label such as ``"map@bs"``."""
        return event_label(self.kind, self.when, self.where)

    def is_before(self) -> bool:
        return self.when is When.BEFORE

    def is_after(self) -> bool:
        return self.when is When.AFTER

    def matches(
        self,
        kind: Optional[str] = None,
        when: Optional[When] = None,
        where: Optional[Where] = None,
        execution_id: Optional[int] = None,
    ) -> bool:
        """Return ``True`` when the event matches every given criterion."""
        if kind is not None and self.kind != kind:
            return False
        if when is not None and self.when is not when:
            return False
        if where is not None and self.where is not where:
            return False
        if execution_id is not None and self.execution_id != execution_id:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event({self.label}, i={self.index}, t={self.timestamp:.6g}, "
            f"worker={self.worker}, extra={dict(self.extra)!r})"
        )
