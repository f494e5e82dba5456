"""Base class of the per-skeleton tracking state machines.

The paper tracks skeleton executions with one state machine per skeleton
type (Figure 3 for Seq, Figure 4 for Map), driven purely by events, with
two responsibilities:

1. update the history estimators ``t(m)`` and ``|m|`` whenever a muscle's
   BEFORE/AFTER pair or a split's cardinality is observed;
2. maintain the live Activity Dependency Graph of the running execution.

This implementation keeps (2) as a *projection*: each machine records the
actual timestamps it has seen and can, on demand, append its activities to
an :class:`~repro.core.adg.ADG` — actual times for the past, estimates for
the future (delegating unexplored structure to
:func:`repro.core.projection.project_skeleton`).  Rebuilding on demand
keeps machines simple and makes the ADG trivially consistent with the
event history.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ...errors import StateMachineError
from ...events.types import Event, When, Where
from ...skeletons.base import Skeleton
from ..adg import ADG
from ..estimator import EstimatorRegistry
from ..projection import project_skeleton

__all__ = ["TrackingMachine", "MuscleSpan", "refresh_from_sources", "rebind"]

# What one event does to a projection that already holds its machine
# (the registry's changelog classes).  ``NOOP``: nothing it reads.
# ``SPAN``: an actual time lands on a span that already existed (and was
# therefore projected with provenance) — the planning layer re-reads it.
# ``REBIND``: besides that, state the machine's own projection reads
# moved in a way that keeps the shape when the projection guessed right;
# the planning layer replays the machine's extent to prove it.
# ``STRUCTURAL``: the *set* of projected activities or their
# dependencies changed, the planning layer re-walks.
NOOP, SPAN, REBIND, STRUCTURAL = range(4)

Handler = Callable[["TrackingMachine", Event], None]
#: A change class or, where it depends on the event's data or the machine's
#: place in the tree, a function called *before* the machine consumes the event.
Change = Union[int, Callable[["TrackingMachine", Event], int]]


def root_or(nested: int) -> Change:
    """``AFTER SKELETON``: a finished root changes the projected root
    set; a nested completion is a *nested* change."""

    def after_skeleton(machine: "TrackingMachine", event: Event) -> int:
        return STRUCTURAL if machine.parent_index is None else nested

    return after_skeleton


def after_split(machine: "TrackingMachine", event: Event) -> int:
    """Projections fan out by the actual cardinality once it is known
    and by the estimate before: the shape holds when they agree.  Read
    before the machine observes the cardinality, which moves the
    estimate."""
    card = event.extra.get("fs_card")
    if card is None:
        return REBIND
    split = machine.skel.split
    estimators = machine.estimators
    if estimators.has_card(split) and estimators.card_int(split) == card:
        return REBIND
    return STRUCTURAL


#: The change class of every ``(when, where)``; a machine kind overrides
#: single rows through :attr:`TrackingMachine.changes`.
_CHANGES: Dict[Tuple[When, Where], Change] = {
    # BEFORE events at most set the start of a pre-existing span.
    **{(When.BEFORE, where): SPAN for where in Where},
    # Control markers carry the parent's index; no machine handles them.
    (When.BEFORE, Where.NESTED): NOOP,
    (When.AFTER, Where.NESTED): NOOP,
    (When.AFTER, Where.MERGE): SPAN,  # closes a fixed span; the machine finishes later
    # Parents project children finished or not: a nested completion keeps
    # the shape unless the machine's own projection reads ``finished``.
    (When.AFTER, Where.SKELETON): root_or(REBIND),
    (When.AFTER, Where.SPLIT): after_split,
    (When.AFTER, Where.CONDITION): STRUCTURAL,  # a condition outcome
}


def _finishing(handler: Optional[Handler]) -> Handler:
    """The ``AFTER SKELETON`` row: the kind's handler, then the stamp."""

    def finish(machine: "TrackingMachine", event: Event) -> None:
        if handler is not None:
            handler(machine, event)
        machine.finished_at = event.timestamp

    return finish


def refresh_from_sources(adg: ADG, machines: Optional[Iterable[int]] = None) -> int:
    """Re-apply span sources of *adg*; returns how many activities changed.

    This is the projection **patch**: for each activity built from a
    :class:`MuscleSpan` (via :meth:`MuscleSpan.add_to`), re-derive
    ``(start, end, duration)`` from the span's *current* state under the
    exact rules ``add_to`` used at build time.  Given an unchanged
    structure (the caller verified it through the machine-registry
    changelog) and recorded estimates that are current — unchanged since
    the walk, or written through by :meth:`~repro.core.adg.ADG.retime`
    *before* this runs, so a span that closed in the same window ends
    with its actual duration — the patched graph is bit-for-bit the
    graph a full re-walk would build.  Activities without a source
    (unexplored future structure projected straight from estimates) are
    untouched by construction: their times derive from estimates alone.

    *machines* narrows the refresh to the spans those machine indices
    own (a machine's events move its own spans only, so the changelog's
    touched and attached machines are all a patch needs to re-read);
    ``None`` re-reads every source.
    """
    sources = adg.span_sources()
    aids = sources if machines is None else adg.source_ids_of(machines)
    changed = 0
    for aid in aids:
        span, est_duration = sources[aid]
        if span.finished:
            start, end, duration = span.start, span.end, span.end - span.start
        elif span.started:
            start, end, duration = span.start, None, est_duration
        else:
            start, end, duration = None, None, est_duration
        if adg.update_activity(aid, start, end, duration):
            changed += 1
    return changed


def rebind(adg: ADG, machine: "TrackingMachine", now: float) -> bool:
    """Re-project *machine* over the ids a fresh walk would hand it.

    A machine *adg* already holds replays its own extent; a newly
    attached child takes the slot its parent estimated for it.  Either
    way ``machine.project`` itself runs, against the checking cursor of
    :meth:`~repro.core.adg.ADG.replay`, so the graph ends up with the
    machine's spans attached as sources exactly where a fresh walk puts
    them.  False means the shapes differ (the caller re-walks); a machine
    under a root *adg* does not project is not part of it, hence True.
    """
    extent = adg.extent_of(machine.index)
    if extent is None:
        if adg.extent_of(machine.parent_index) is None:
            return True
        extent = adg.take_slot(machine.parent_index, machine.skel)
        if extent is None:
            return False
    return adg.replay(extent, lambda preds: machine.project(adg, list(preds), now))


class MuscleSpan:
    """Actual start/end record of one muscle execution.

    ``result`` stores condition outcomes; ``card`` stores split
    cardinalities.
    """

    __slots__ = ("start", "end", "result", "card")

    def __init__(self, start: Optional[float] = None):
        self.start = start
        self.end: Optional[float] = None
        self.result: Optional[bool] = None
        self.card: Optional[int] = None

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def started(self) -> bool:
        return self.start is not None

    def close(self, event) -> None:
        """Finish the span at *event*'s timestamp.

        When the AFTER event carries a ``started_at`` extra — a platform
        shipped the worker-observed body start back after the fact (the
        process pool stamps BEFORE events at chunk handoff) — the span's
        start is corrected to it, clamped inside ``[start, end]``, so the
        estimators measure the muscle itself rather than queue residence.
        """
        self.end = event.timestamp
        started_at = event.extra.get("started_at")
        if started_at is not None and self.start is not None:
            self.start = min(self.end, max(self.start, float(started_at)))

    def add_to(
        self,
        adg: ADG,
        muscle,
        estimators: EstimatorRegistry,
        preds: List[int],
        role: str,
    ) -> int:
        """Append this execution of *muscle* to *adg* (actual when
        known, ``t(m)`` else).

        The span is attached to the activity as its *source*
        (:meth:`~repro.core.adg.ADG.attach_source`): when a later event
        lands more actual time on this span, the planning layer re-reads
        it to patch the projected activity in place instead of
        re-walking the machines (see :func:`refresh_from_sources`).
        """
        return adg.add_muscle(muscle, estimators, preds, role, span=self)


class TrackingMachine:
    """One machine instance per skeleton-instance execution (one index)."""

    __slots__ = (
        "skel",
        "index",
        "parent_index",
        "estimators",
        "children",
        "parent",
        "started_at",
        "finished_at",
        "depth",
    )

    kind: str = "?"

    #: Rows of :data:`_CHANGES` this machine kind classifies otherwise.
    changes: Dict[Tuple[When, Where], Change] = {}

    #: ``(when, where) -> (handle_<when>_<where> or None, change)`` of
    #: this machine class: all an event needs, resolved once per class
    #: instead of once per event.  Keyed by the members' *values* (the
    #: paper's ``b``/``a`` and ``s``/``m``/``c``/``n`` codes): an enum
    #: member hashes through a Python-level ``__hash__``, a ``str`` not.
    _table: Dict[Tuple[str, str], Tuple[Optional[Handler], Change]] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._table = {}
        for when in When:
            for where in Where:
                handler = getattr(
                    cls, f"handle_{when.name.lower()}_{where.name.lower()}", None
                )
                if when is When.AFTER and where is Where.SKELETON:
                    handler = _finishing(handler)
                change = cls.changes.get((when, where), _CHANGES[when, where])
                cls._table[when._value_, where._value_] = (handler, change)

    def __init__(
        self,
        skel: Skeleton,
        index: int,
        parent_index: Optional[int],
        estimators: EstimatorRegistry,
    ):
        self.skel = skel
        self.index = index
        self.parent_index = parent_index
        self.estimators = estimators
        self.children: List["TrackingMachine"] = []
        self.parent: Optional["TrackingMachine"] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: recursion depth for d&c node machines (0 elsewhere)
        self.depth: int = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    def attach_child(self, child: "TrackingMachine", event: Event) -> None:
        """A nested skeleton instance produced its first event."""
        child.parent = self
        self.children.append(child)
        self.on_child_attached(child, event)

    def on_child_attached(self, child: "TrackingMachine", event: Event) -> None:
        """Hook for subclasses (default: nothing)."""

    # -- event handling ----------------------------------------------------------

    def on_event(self, event: Event) -> None:
        """Route *event* to the ``handle_<when>_<where>`` method.

        For driving one machine by hand; the registry reads
        :attr:`_table` itself, for the change class beside the handler.
        """
        if self.started_at is None:
            self.started_at = event.timestamp
        handler = self._table[event.when._value_, event.where._value_][0]
        if handler is not None:
            handler(self, event)

    # -- projection ----------------------------------------------------------------

    def project(
        self,
        adg: ADG,
        preds: List[int],
        now: float,
    ) -> List[int]:
        """Append this instance's activities to *adg*; return terminals.

        Brackets the kind-specific :meth:`_project` so *adg* records the
        id range this machine's subtree occupies (see
        :meth:`~repro.core.adg.ADG.begin_machine`).
        """
        adg.begin_machine(self.index, preds)
        terminals = self._project(adg, preds, now)
        adg.end_machine()
        return terminals

    def _project(self, adg: ADG, preds: List[int], now: float) -> List[int]:
        raise NotImplementedError

    def _project_estimate(
        self, skel: Skeleton, adg: ADG, preds: List[int]
    ) -> List[int]:
        """Project a child that has not started from its estimates,
        recording the ids as the slot the child binds to once it does."""
        first = adg.next_id
        terminals = project_skeleton(skel, adg, preds, self.estimators)
        adg.note_slot(skel, first, preds)
        return terminals

    # -- helpers --------------------------------------------------------------------

    def _observe_span(self, muscle, span: MuscleSpan) -> None:
        """Fold a completed span's duration into the estimators."""
        if span.start is None or span.end is None:
            raise StateMachineError(
                f"{self.kind} machine observed an incomplete span for "
                f"{muscle.name!r}"
            )
        self.estimators.observe_time(muscle, span.end - span.start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(index={self.index}, "
            f"children={len(self.children)}, finished={self.finished})"
        )
