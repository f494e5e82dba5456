"""Machine registry: routes events to tracking machines, builds live ADGs.

The registry is an event-bus listener.  For every event it looks up the
machine of the event's instance index, creating it on first sight (and
attaching it to its parent machine via the event's ``parent_index``), then
lets the machine consume the event.  Root machines — skeleton executions
submitted at top level — are what the autonomic controller projects and
schedules.

Thread safety: a single re-entrant lock guards machine creation, event
consumption and projection, so the controller can analyze a consistent
snapshot while worker threads keep publishing events.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from ...errors import StateMachineError
from ...events.bus import Listener
from ...events.types import Event
from ..adg import ADG
from ..delta import ChangeDelta
from ..estimator import EstimatorRegistry
from .base import NOOP, REBIND, STRUCTURAL, TrackingMachine
from .composite import FarmMachine, PipeMachine
from .conditional import IfMachine
from .dac import DacMachine
from .fork import ForkMachine
from .loops import ForMachine, WhileMachine
from .seq import SeqMachine
from .smap import MapMachine

__all__ = ["MachineRegistry", "MACHINE_TYPES", "UNSUPPORTED_KINDS"]

MACHINE_TYPES: Dict[str, Type[TrackingMachine]] = {
    "seq": SeqMachine,
    "farm": FarmMachine,
    "pipe": PipeMachine,
    "while": WhileMachine,
    "for": ForMachine,
    "map": MapMachine,
    "fork": ForkMachine,
    "if": IfMachine,
    "dac": DacMachine,
}

#: Kinds the paper's autonomic layer does not support ("the support for
#: those types of skeletons are under construction"); tracking them
#: requires the ``extensions`` opt-in.
UNSUPPORTED_KINDS = frozenset({"if", "fork"})


class MachineRegistry(Listener):
    """Event listener that maintains one tracking machine per instance.

    Writer discipline, per backend: the simulator publishes from its one
    thread, the process and socket pools from their collector pump, the
    thread pool from *any* worker — one execution's events arrive from
    several threads.  So :attr:`lock` is taken per delivery on all of
    them: uncontended it costs about 0.4 µs, some 0.3 ms of a 14.6 ms
    ``event_flood`` run, which does not buy a second, lock-free path.
    """

    def __init__(self, estimators: EstimatorRegistry, extensions: bool = False):
        self.estimators = estimators
        self.extensions = extensions
        self.lock = threading.RLock()
        self._machines: Dict[int, TrackingMachine] = {}
        self.roots: List[TrackingMachine] = []
        self._rev = 0
        # Changelog (see delta_since): revision of the last *structural*
        # event, plus the last span-touch and last re-bind revision per
        # machine — inherently coalesced to one entry per machine, so
        # memory stays O(machines) for arbitrarily long executions.
        # ``_attached`` keeps insertion order: a machine created inside a
        # window sits after its parent.
        self._structural_rev = 0
        self._span_touched: Dict[int, int] = {}
        self._attached: Dict[int, int] = {}
        self._floor_rev = 0

    @property
    def rev(self) -> int:
        """Monotonic revision counter, bumped on every consumed event.

        Projections derive entirely from machine state + estimates, so
        the planning layer reuses a projected ADG for as long as
        ``(rev, estimators.version)`` is unchanged — i.e. until another
        event of this execution lands.  :meth:`delta_since` additionally
        says *what* a window of revisions changed, which is what lets the
        planning layer patch a previous projection instead of re-walking.
        """
        return self._rev

    # -- Listener API ------------------------------------------------------

    def on_event(self, event: Event) -> Any:
        self.on_batch((event,))
        return event.value

    def on_batch(self, events: Sequence[Event]) -> None:
        """Consume events under one lock acquisition — the one way in.

        The batched hot path of :meth:`~repro.events.bus.EventBus.
        publish_batch` and, with a batch of one, every single event:
        same handlers, one revision bump per event.
        """
        with self.lock:
            for event in events:
                self._consume_locked(event)

    def _consume_locked(self, event: Event) -> None:
        """One table lookup (:attr:`TrackingMachine._table`): the handler
        to run, if any, and what the event does to a projection — the
        changelog entry.  A control marker has neither and only moves
        the revision."""
        index = event.index
        machine = self._machines.get(index)
        created = machine is None
        if created:
            machine = self._create(event)
        handler, change = machine._table[event.when._value_, event.where._value_]
        if change.__class__ is not int:
            # Data-dependent, and read before the machine consumes the
            # event: a split cardinality is compared with the estimate
            # projections used so far, which observing it moves.
            change = change(machine, event)
        if created and change != STRUCTURAL:
            # A child takes over the slot its parent estimated for it; a
            # new root changes the projected root set.
            change = REBIND if machine.parent is not None else STRUCTURAL
        if handler is not None:
            handler(machine, event)
        self._rev = rev = self._rev + 1
        if change == STRUCTURAL:
            self._structural_rev = rev
        elif change != NOOP:
            self._span_touched[index] = rev
            if change == REBIND:
                self._attached[index] = rev

    # -- changelog ------------------------------------------------------------

    def delta_since(self, rev: int) -> Optional[ChangeDelta]:
        """What changed after revision *rev*, or ``None`` when unknown.

        ``None`` (window older than the compaction floor, or *rev* from
        the future) and ``structural=True`` both mean "re-walk";
        ``structural=False`` lists the machine indices whose spans gained
        actual times (``touched``) — exactly the activities a projection
        patch must refresh — and those whose subtree it must re-bind
        first (``attached``, see :class:`~repro.core.delta.ChangeDelta`).
        """
        with self.lock:
            if rev < self._floor_rev or rev > self._rev:
                return None
            if self._structural_rev > rev:
                return ChangeDelta(rev, self._rev, True)
            touched = tuple(
                sorted(i for i, r in self._span_touched.items() if r > rev)
            )
            attached = tuple(i for i, r in self._attached.items() if r > rev)
            return ChangeDelta(rev, self._rev, False, touched, attached)

    def compact_changelog(self, before_rev: int) -> None:
        """Drop changelog detail at or below *before_rev*.

        Callers (the planning engine) pass the oldest revision any live
        plan could still ask ``delta_since`` about; everything older is
        unreachable and freed.  Keeps the log bounded by the number of
        machines *recently* touched rather than ever touched.
        """
        with self.lock:
            if before_rev <= self._floor_rev:
                return
            self._floor_rev = min(before_rev, self._rev)
            self._span_touched = {
                i: r
                for i, r in self._span_touched.items()
                if r > self._floor_rev
            }
            self._attached = {
                i: r for i, r in self._attached.items() if r > self._floor_rev
            }

    def changelog_size(self) -> int:
        """Number of machines with changelog entries currently retained."""
        with self.lock:
            return len(self._span_touched.keys() | self._attached.keys())

    # -- machine management ---------------------------------------------------

    def _create(self, event: Event) -> TrackingMachine:
        kind = event.kind
        cls = MACHINE_TYPES.get(kind)
        if cls is None:
            raise StateMachineError(f"no tracking machine for kind {kind!r}")
        if kind in UNSUPPORTED_KINDS and not self.extensions:
            raise StateMachineError(
                f"the autonomic layer does not support {kind!r} skeletons "
                f"(as in the paper); pass extensions=True to opt in"
            )
        machine = cls(event.skeleton, event.index, event.parent_index, self.estimators)
        machine.started_at = event.timestamp
        self._machines[event.index] = machine
        parent = (
            self._machines.get(event.parent_index)
            if event.parent_index is not None
            else None
        )
        if parent is not None:
            parent.attach_child(machine, event)
        else:
            self.roots.append(machine)
        return machine

    def machine(self, index: int) -> Optional[TrackingMachine]:
        with self.lock:
            return self._machines.get(index)

    def __len__(self) -> int:
        with self.lock:
            return len(self._machines)

    # -- projection ----------------------------------------------------------------

    def unfinished_roots(self) -> List[TrackingMachine]:
        with self.lock:
            return [m for m in self.roots if not m.finished]

    def project_roots(
        self, now: float, roots: Optional[List[TrackingMachine]] = None
    ) -> Tuple[ADG, List[int]]:
        """Build one merged ADG of the given roots (default: unfinished).

        Returns ``(adg, terminal ids)``.  Concurrent top-level executions
        (e.g. values streaming through a farm) share the worker pool, so
        the controller schedules their union.
        """
        with self.lock:
            targets = roots if roots is not None else self.unfinished_roots()
            adg = ADG()
            terminals: List[int] = []
            for machine in targets:
                terminals.extend(machine.project(adg, [], now))
            return adg, terminals

    def reset(self) -> None:
        """Forget all machines (estimators are kept — they are the history)."""
        with self.lock:
            self._machines.clear()
            self.roots.clear()
            self._span_touched.clear()
            self._attached.clear()
            self._rev += 1
            self._structural_rev = self._rev
