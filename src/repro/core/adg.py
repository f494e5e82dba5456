"""Activity Dependency Graph (ADG) — the paper's Figure 1 structure.

An ADG models one (possibly still running) skeleton execution as a DAG of
*activities*.  Each activity corresponds to one muscle execution and knows:

* its estimated duration ``t(m)``;
* its **actual** start time, when the muscle has started;
* its **actual** end time, when the muscle has finished;
* its predecessor activities (data dependencies defined by the skeleton
  program: a merge depends on every sub-result, an iteration's condition
  depends on the previous body, ...).

Activities whose times are not yet actual get them from the schedulers in
:mod:`repro.core.schedule` — under a best-effort (infinite LP) or a
limited-LP strategy, exactly as in the paper's Figure 1 where each
activity box shows an actual time, a best-effort estimate, or a limited-LP
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import ADGError
from .delta import ChangeDelta

__all__ = ["Activity", "ADG"]

#: ``(first id, end id, external preds)`` — a contiguous id range of one
#: projected subtree and the predecessors it was projected against.
Extent = Tuple[int, int, Tuple[int, ...]]


class _ShapeMismatch(Exception):
    """A replayed projection emitted something the graph does not hold."""


@dataclass(slots=True)
class Activity:
    """One muscle execution in the dependency graph."""

    id: int
    name: str
    duration: float
    preds: Tuple[int, ...] = ()
    start: Optional[float] = None
    end: Optional[float] = None
    #: free-form tag for rendering/tests: "split", "execute", "merge",
    #: "condition" — mirrors the muscle flavour.
    role: str = "execute"
    #: uid of the muscle whose ``t(m)`` estimates this activity (``None``
    #: on hand-built graphs: such an activity is never retimed).
    muscle: Optional[int] = None

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def started(self) -> bool:
        return self.start is not None

    @property
    def status(self) -> str:
        if self.finished:
            return "finished"
        if self.started:
            return "running"
        return "pending"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Activity({self.id}, {self.name!r}, d={self.duration:.6g}, "
            f"{self.status}, preds={list(self.preds)})"
        )


class ADG:
    """A DAG of :class:`Activity` nodes with validation and queries."""

    def __init__(self):
        self._activities: Dict[int, Activity] = {}
        self._succs: Dict[int, List[int]] = {}
        self._next_id = 0
        self._rev = 0
        # Changelog: revision of the last structural mutation (add / bare
        # touch), and per-activity revision of the last in-place time
        # update — inherently coalesced (one entry per activity), so the
        # log stays O(activities) however long the execution runs.
        self._structural_rev = 0
        self._touched: Dict[int, int] = {}
        self._floor_rev = 0
        # Optional provenance: activity id -> (span-like source object,
        # estimated duration at build time), attached by
        # :meth:`~repro.core.statemachines.base.MuscleSpan.add_to` so the
        # planning layer can re-read actual times without re-walking the
        # tracking machines (see ``repro.core.planning.engine``).
        self._sources: Dict[int, Tuple[Any, float]] = {}
        # muscle uid -> ids of the activities it times (see retime);
        # written by walks only, a replay moves no activity to another
        # muscle.
        self._rows_of: Dict[int, List[int]] = {}
        #: A walk picked an ``If`` branch by comparing estimated work:
        #: the *shape* of this graph reads ``t(m)`` values, so a moved
        #: estimate is answered by a fresh walk, not by :meth:`retime`.
        self.shape_reads_times = False
        # Layout of the walk that built this graph (see begin_machine):
        # machine index -> (first id, end id, preds, ids of the
        # activities built from the machine's own spans, free slots).
        # The slots are the ``(skeleton, extent)`` of each child
        # projected from estimates that no started child has taken over,
        # in emission order (None: none was projected).  ``_open`` stacks
        # the machines being projected right now, as
        # [index, first id, preds, own ids, slots].
        self._layouts: Dict[int, Tuple[int, int, Tuple[int, ...], List[int], Any]] = {}
        self._open: List[list] = []
        # End of the id range being replayed, else None (see replay).
        self._replay_end: Optional[int] = None

    @property
    def rev(self) -> int:
        """Monotonic revision counter, bumped on every mutation.

        The planning layer (:mod:`repro.core.planning`) keys cached
        :class:`~repro.core.schedule.ScheduleResult` answers on
        ``(adg.rev, estimator version, lp, now)``: any structural change
        invalidates every plan derived from the old revision.
        """
        return self._rev

    def touch(self, aid: Optional[int] = None) -> int:
        """Bump the revision; returns the new revision.

        Without *aid* the bump is recorded as **structural** (the classic
        "something changed, re-walk everything" signal for callers
        mutating the graph in ways the changelog cannot describe).  With
        *aid* the bump is recorded as an in-place time update of that one
        activity, which :meth:`delta_since` reports as *touched* — the
        signal that lets the planning layer patch instead of re-walk.
        """
        self._rev += 1
        if aid is None:
            self._structural_rev = self._rev
        else:
            self._touched[aid] = self._rev
        return self._rev

    # -- construction -----------------------------------------------------------

    def add(
        self,
        name: str,
        duration: float,
        preds: Iterable[int] = (),
        start: Optional[float] = None,
        end: Optional[float] = None,
        role: str = "execute",
        muscle: Optional[int] = None,
    ) -> int:
        """Add an activity; returns its id.

        Predecessors must already exist (construction is topological by
        design — projection walks the program structure forward), which
        also guarantees acyclicity.  Projections go through
        :meth:`add_muscle`, which names the *muscle*; a hand-built
        activity has none and :meth:`retime` leaves it alone.
        """
        preds = tuple(preds)
        if self._replay_end is not None:
            return self._replay_add(name, duration, preds, start, role, muscle)
        for p in preds:
            if p not in self._activities:
                raise ADGError(f"predecessor {p} does not exist")
        if duration < 0:
            raise ADGError(f"negative duration {duration} for activity {name!r}")
        if start is None and end is not None:
            raise ADGError(f"activity {name!r} has an end but no start")
        if start is not None and end is not None and end < start:
            raise ADGError(f"activity {name!r} ends before it starts")
        aid = self._next_id
        self._next_id += 1
        act = Activity(
            id=aid, name=name, duration=float(duration), preds=preds,
            start=start, end=end, role=role, muscle=muscle,
        )
        self._activities[aid] = act
        self._succs[aid] = []
        for p in preds:
            self._succs[p].append(aid)
        if muscle is not None:
            self._rows_of.setdefault(muscle, []).append(aid)
        self._rev += 1
        self._structural_rev = self._rev
        return aid

    def add_muscle(
        self,
        muscle: Any,
        estimators: Any,
        preds: Iterable[int] = (),
        role: str = "execute",
        span: Any = None,
    ) -> int:
        """Add one execution of *muscle*, timed by its estimate ``t(m)``.

        The one place a projection derives a duration from an estimate:
        name, duration and the muscle → activities index (:meth:`retime`)
        all come from here.  *span* (duck-typed ``start`` / ``end``, in
        practice a :class:`~repro.core.statemachines.base.MuscleSpan`)
        lands the actual times known so far over the estimate and is
        attached as the activity's source (:meth:`attach_source`).
        """
        est = estimators.t(muscle)
        if span is None:
            return self.add(muscle.name, est, preds, role=role, muscle=muscle.uid)
        start, end = span.start, span.end
        aid = self.add(
            muscle.name, est if end is None else end - start, preds,
            start=start, end=end, role=role, muscle=muscle.uid,
        )
        self.attach_source(aid, span, est)
        return aid

    def retime(self, muscle: int, t: float) -> int:
        """``t(m)`` of the muscle with uid *muscle* moved to *t*: write it
        through the activities it times; returns how many durations moved.

        Unfinished activities take the new duration through
        :meth:`update_activity`, so the changelog reports them touched
        and everything downstream (table write-through, delta re-pin,
        priority delta) engages as for a landed actual.  The estimate
        recorded beside every span source of the muscle moves as well,
        finished ones included — exactly what a fresh walk records — so
        a later refresh of a running span keeps the new estimate.
        """
        t = float(t)
        sources = self._sources
        moved = 0
        for aid in self._rows_of.get(muscle, ()):
            entry = sources.get(aid)
            if entry is not None:
                sources[aid] = (entry[0], t)
            act = self._activities[aid]
            if act.end is None and self.update_activity(aid, act.start, None, t):
                moved += 1
        return moved

    def update_activity(
        self,
        aid: int,
        start: Optional[float],
        end: Optional[float],
        duration: float,
    ) -> bool:
        """Update one activity's times in place; returns True on change.

        The patch path of the planning engine uses this to land newly
        observed actuals on an already-projected graph.  The change is
        recorded in the changelog as a *touch* of *aid* (not structural),
        so downstream consumers — the delta-pinning scheduler pass — can
        in turn re-pin only this activity.
        """
        act = self.activity(aid)
        if start is None and end is not None:
            raise ADGError(f"activity {act.name!r} has an end but no start")
        if start is not None and end is not None and end < start:
            raise ADGError(f"activity {act.name!r} ends before it starts")
        if duration < 0:
            raise ADGError(
                f"negative duration {duration} for activity {act.name!r}"
            )
        if (act.start, act.end, act.duration) == (start, end, duration):
            return False
        act.start = start
        act.end = end
        act.duration = float(duration)
        self.touch(aid)
        return True

    # -- provenance -------------------------------------------------------------

    def attach_source(self, aid: int, source: Any, est_duration: float) -> None:
        """Record where *aid*'s times come from (a span-like object).

        *source* only needs ``start`` / ``end`` attributes (duck-typed;
        in practice a :class:`~repro.core.statemachines.base.MuscleSpan`).
        The planning engine's patch path re-reads attached sources to
        refresh actual times without re-walking the machines.  Inside a
        machine's projection (:meth:`begin_machine`) the activity is
        also recorded as built from that machine's own span.
        """
        self._sources[aid] = (source, float(est_duration))
        if self._open:
            self._open[-1][3].append(aid)

    def span_sources(self) -> Dict[int, Tuple[Any, float]]:
        """The attached provenance map (live reference, do not mutate).

        Distinct from :meth:`sources` (graph sources = activities with
        no predecessors): this maps activity ids to the span objects
        their times were read from.
        """
        return self._sources

    # -- layout: machine extents and estimated child slots ---------------------------

    @property
    def next_id(self) -> int:
        """The id the next :meth:`add` returns."""
        return self._next_id

    def begin_machine(self, index: int, preds: Iterable[int]) -> None:
        """Machine *index* starts projecting its subtree against *preds*.

        Projection hands every machine a contiguous id range; recording
        it — with the predecessors it was projected against and the
        estimated child slots inside it (:meth:`note_slot`) — is what
        lets a later event re-project *one* machine over the ids it
        already occupies (:meth:`replay`) instead of re-walking them all.
        """
        self._open.append([index, self._next_id, tuple(preds), [], None])

    def end_machine(self) -> None:
        """The innermost open machine finished projecting."""
        index, first, preds, owned, slots = self._open.pop()
        self._layouts[index] = (first, self._next_id, preds, owned, slots)

    def note_slot(self, skel: Any, first: int, preds: Iterable[int]) -> None:
        """Ids ``[first, next id)`` estimate a child of the innermost
        open machine that has not started: the range the child's own
        projection takes over once it does (:meth:`take_slot`)."""
        entry = self._open[-1]
        if entry[4] is None:
            entry[4] = []
        entry[4].append((skel, (first, self._next_id, tuple(preds))))

    def extent_of(self, index: int) -> Optional[Extent]:
        """The id range machine *index*'s subtree occupies, if projected."""
        layout = self._layouts.get(index)
        return layout[:3] if layout is not None else None

    def take_slot(self, parent_index: int, skel: Any) -> Optional[Extent]:
        """Claim *parent_index*'s first free slot estimating *skel*.

        Parents emit started children before estimated ones of the same
        sub-skeleton, so the first free slot is where a fresh walk puts
        the next child to start.  ``None`` when no such slot is left.
        """
        slots = self._layouts[parent_index][4]
        for k, (slot_skel, extent) in enumerate(slots or ()):
            if slot_skel is skel:
                del slots[k]
                return extent
        return None

    def source_ids_of(self, indices: Iterable[int]) -> List[int]:
        """Ids of the activities built from the given machines' own spans
        (machines this graph does not hold contribute nothing)."""
        ids: List[int] = []
        for index in indices:
            layout = self._layouts.get(index)
            if layout is not None:
                ids.extend(layout[3])
        return ids

    def replay(self, extent: Extent, emit: Callable[[Iterable[int]], Any]) -> bool:
        """Re-run a projection over the ids it already occupies.

        While ``emit(preds)`` runs, :meth:`add` allocates nothing: it
        checks that the next id of *extent* already holds an activity of
        that name, role, muscle and predecessors (and, for one that has
        not started, that estimated duration) and hands the id back.
        Sources, extents and slots are re-recorded as on a walk; times
        are left to :func:`~repro.core.statemachines.base.
        refresh_from_sources`.  Returns False — the graph no longer
        matches what a fresh walk would build, discard it — on the first
        difference or when the extent is not used up exactly.
        """
        first, end, preds = extent
        self._next_id, self._replay_end = first, end
        try:
            emit(preds)
            return self._next_id == end
        except _ShapeMismatch:
            return False
        finally:
            self._next_id, self._replay_end = len(self._activities), None
            del self._open[:]

    def _replay_add(
        self,
        name: str,
        duration: float,
        preds: Tuple[int, ...],
        start: Optional[float],
        role: str,
        muscle: Optional[int],
    ) -> int:
        aid = self._next_id
        if aid >= self._replay_end:
            raise _ShapeMismatch
        act = self._activities[aid]
        if (
            act.name != name
            or act.role != role
            or act.muscle != muscle
            or act.preds != preds
        ):
            raise _ShapeMismatch
        if start is None and (act.start is not None or act.duration != duration):
            raise _ShapeMismatch
        self._next_id = aid + 1
        return aid

    # -- changelog ----------------------------------------------------------------

    def delta_since(self, rev: int) -> Optional[ChangeDelta]:
        """What changed after revision *rev*, or ``None`` when unknown.

        ``None`` means the window reaches past the compacted floor
        (:meth:`compact_changelog`) — the caller must treat it as
        structural and re-walk.  A delta with ``structural=False`` lists
        exactly the activities whose times changed in place.
        """
        if rev < self._floor_rev or rev > self._rev:
            return None
        structural = self._structural_rev > rev
        touched = () if structural else tuple(
            sorted(a for a, r in self._touched.items() if r > rev)
        )
        return ChangeDelta(rev, self._rev, structural, touched)

    def compact_changelog(self, before_rev: int) -> None:
        """Drop changelog detail at or below *before_rev*.

        After compaction, ``delta_since(rev)`` answers ``None`` for any
        ``rev < before_rev`` — callers planning against such old
        revisions fall back to a full walk.  The per-activity map is
        already coalesced (one entry per activity); this additionally
        sheds entries no live plan can ask about.
        """
        if before_rev <= self._floor_rev:
            return
        self._floor_rev = min(before_rev, self._rev)
        self._touched = {
            a: r for a, r in self._touched.items() if r > self._floor_rev
        }

    # -- queries ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._activities)

    def __iter__(self):
        return iter(self._activities.values())

    def __contains__(self, aid: int) -> bool:
        return aid in self._activities

    def activity(self, aid: int) -> Activity:
        try:
            return self._activities[aid]
        except KeyError:
            raise ADGError(f"no activity with id {aid}") from None

    @property
    def activities(self) -> List[Activity]:
        """Activities in id (i.e. topological) order."""
        return [self._activities[i] for i in sorted(self._activities)]

    def successors(self, aid: int) -> List[int]:
        return list(self._succs.get(aid, ()))

    def predecessors(self, aid: int) -> List[int]:
        return list(self.activity(aid).preds)

    def sources(self) -> List[int]:
        """Activities with no predecessors."""
        return [a.id for a in self.activities if not a.preds]

    def terminals(self) -> List[int]:
        """Activities with no successors."""
        return [a.id for a in self.activities if not self._succs[a.id]]

    def topological_order(self) -> List[int]:
        """Ids in a deterministic topological order (= id order)."""
        # add() enforces preds-before-succs, so id order is topological.
        return sorted(self._activities)

    # -- analysis -----------------------------------------------------------------

    def finished_count(self) -> int:
        return sum(1 for a in self if a.finished)

    def running(self) -> List[Activity]:
        return [a for a in self.activities if a.started and not a.finished]

    def pending(self) -> List[Activity]:
        return [a for a in self.activities if not a.started]

    def total_estimated_work(self) -> float:
        """Sum of durations of unfinished activities (sequential work left)."""
        total = 0.0
        for a in self:
            if not a.finished:
                total += a.duration
        return total

    def critical_path_length(self, now: float = 0.0) -> float:
        """Length of the longest dependency chain of *unfinished* work.

        A lower bound on any schedule's remaining makespan; the
        branch-and-bound exact scheduler uses it for pruning.
        """
        longest: Dict[int, float] = {}
        for aid in self.topological_order():
            act = self._activities[aid]
            if act.finished:
                longest[aid] = 0.0
                continue
            base = max((longest[p] for p in act.preds), default=0.0)
            longest[aid] = base + act.duration
        return max(longest.values(), default=0.0)

    def validate(self) -> None:
        """Sanity-check structural invariants; raises :class:`ADGError`.

        Construction already guarantees acyclicity; this verifies the
        temporal consistency of actual times: a finished activity may not
        end before a finished predecessor ended, and no activity may start
        before a finished predecessor's end.
        """
        for act in self:
            for p in act.preds:
                pred = self.activity(p)
                if act.started and pred.finished and act.start < pred.end - 1e-9:
                    raise ADGError(
                        f"activity {act.name!r} starts at {act.start} before "
                        f"predecessor {pred.name!r} ends at {pred.end}"
                    )
                if act.started and not pred.finished:
                    raise ADGError(
                        f"activity {act.name!r} started but predecessor "
                        f"{pred.name!r} has not finished"
                    )
