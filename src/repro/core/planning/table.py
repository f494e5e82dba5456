"""PlanTable — skeleton plans compiled into flat array programs.

The reference passes in :mod:`repro.core.schedule` walk per-activity
``Activity`` dataclasses through Python dicts: every pass pays attribute
lookups, dict copies and (for limited-LP scans) a fresh
:class:`~repro.core.schedule.ScheduledActivity` per activity *per
candidate LP*.  At 842 activities one full analysis pass that way costs
~180 ms, nearly all of it in the minimal-LP scan re-deriving that state
per candidate.  The runtime therefore plans over this module instead.

It applies the flattening playbook (immutable compiled program
representations + small-degree inlining, after pycket's interpreter): a
projected :class:`~repro.core.adg.ADG` is **compiled once** into an
immutable-structure :class:`PlanTable` —

* activity ids are the array index (ADG construction guarantees dense,
  topologically ordered ids), so every "map" becomes index arithmetic;
* predecessor/successor adjacency is stored CSR-style (one flat index
  array plus per-node offsets) with the common ``<= 2``-degree case
  **inlined** into two parallel arrays (``pred0``/``pred1``), so hot
  loops touch no Python containers for the typical node;
* estimates, actual starts/ends and a pending/running/finished state
  byte live in parallel ``array('d')`` / ``array('b')`` columns that the
  delta pipeline *writes through* (:meth:`PlanTable.refresh` lands newly
  observed actuals on exactly the activities the ADG changelog names).

Every scheduler pass then runs as index arithmetic over these columns:

* :func:`compiled_critical_path` — the priority table, one reversed
  array sweep (plus a prebuilt heap-entry list shared by every LP);
  :func:`compiled_critical_path_delta` carries it across a
  non-structural window, recomputing the touched rows and whatever a
  changed value reaches;
* :func:`compiled_pin` / :func:`compiled_pin_delta` — pass 1, pinning
  actuals into plain ``array`` columns (the delta variant advances a
  previous base to a new *now* via C-speed array copies, touching only
  the changelog'd activities);
* :func:`compiled_best_effort` / :func:`compiled_schedule_pending` —
  the best-effort longest-path walk and the event-driven limited-LP
  frontier pass, both over the pending rows of a pinned base, emitting
  :class:`CompiledSchedule` results that materialize their ``entries``
  dict lazily (a minimal-LP scan never pays for entries it only asks
  ``.wct`` of).

**Bit-for-bit contract**: every compiled pass performs the *same
floating-point operations in the same order* as the reference pass of
the same name in :mod:`repro.core.schedule`, so WCTs, minimal LPs,
timelines and materialized entries are identical — pinned by the
compiled-vs-reference property harness in
``tests/core/test_plan_engine.py``.  The
:class:`~repro.core.planning.engine.PlanEngine` keys tables by the
``(ADG.rev, estimator version)`` invalidation scheme; there is no other
path to fall back to.
"""

from __future__ import annotations

import heapq
import operator
from array import array
from itertools import compress, repeat
from math import nan
from typing import Dict, Iterable, List, Optional, Tuple

from ...errors import SchedulingError
from ..adg import ADG
from ..schedule import (
    ScheduledActivity,
    concurrency_timeline,
    peak_concurrency,
)

__all__ = [
    "PlanTable",
    "CompiledPinnedBase",
    "CompiledSchedule",
    "compiled_critical_path",
    "compiled_critical_path_delta",
    "compiled_pin",
    "compiled_pin_delta",
    "compiled_best_effort",
    "compiled_schedule_pending",
    "compiled_minimal_lp",
]

_EPS = 1e-9

#: state byte -> ScheduledActivity.status string (index = state)
_STATUS = ("pending", "running", "finished")

PENDING = 0
RUNNING = 1
FINISHED = 2


class PlanTable:
    """One projected ADG, flattened into struct-of-arrays form.

    Structure (names, roles, adjacency) is immutable after
    :meth:`compile`; the time columns (``start``/``end``/``duration``/
    ``state``) are refreshed in place by :meth:`refresh` when the ADG
    changelog certifies an in-place-only delta.  Invalidation is the
    engine's job: it tracks the ADG revision each table was last synced
    at and recompiles on any structural change.
    """

    __slots__ = (
        "n",
        "names",
        "roles",
        "duration",
        "start",
        "end",
        "state",
        "npred",
        "pred0",
        "pred1",
        "pred_ptr",
        "pred_ext",
        "nsucc",
        "succ0",
        "succ1",
        "succ_ptr",
        "succ_ext",
        "_work",
    )

    def __init__(self) -> None:
        self._work: Optional[array] = None  # see work_column

    @classmethod
    def compile(cls, adg: ADG) -> "PlanTable":
        """Flatten *adg*.

        Activity ids are the array index, so they must be dense
        ``0..n-1`` — which :class:`~repro.core.adg.ADG` construction
        guarantees, in topological order.  A graph with a gap in its ids
        raises :class:`~repro.errors.SchedulingError`.
        """
        acts = adg.activities
        n = len(acts)
        for i, act in enumerate(acts):
            if act.id != i:
                raise SchedulingError(
                    f"cannot compile a plan table: activity ids are not "
                    f"dense (position {i} holds id {act.id})"
                )

        table = cls()
        table.n = n
        table.names = [a.name for a in acts]
        table.roles = [a.role for a in acts]
        table.duration = array("d", (a.duration for a in acts))
        table.start = array(
            "d", (nan if a.start is None else a.start for a in acts)
        )
        table.end = array("d", (nan if a.end is None else a.end for a in acts))
        table.state = array(
            "b",
            (
                FINISHED if a.end is not None else
                RUNNING if a.start is not None else PENDING
                for a in acts
            ),
        )

        succs: List[List[int]] = [[] for _ in range(n)]
        npred = array("q", bytes(8 * n))
        pred0 = array("q", (-1 for _ in range(n))) if n else array("q")
        pred1 = array("q", (-1 for _ in range(n))) if n else array("q")
        pred_ptr = array("q", bytes(8 * (n + 1)))
        pred_ext = array("q")
        off = 0
        for i, act in enumerate(acts):
            preds = act.preds
            c = len(preds)
            npred[i] = c
            pred_ptr[i] = off
            if c >= 1:
                pred0[i] = preds[0]
            if c >= 2:
                pred1[i] = preds[1]
            if c > 2:
                pred_ext.extend(preds)
                off += c
            for p in preds:
                succs[p].append(i)
        pred_ptr[n] = off

        nsucc = array("q", bytes(8 * n))
        succ0 = array("q", (-1 for _ in range(n))) if n else array("q")
        succ1 = array("q", (-1 for _ in range(n))) if n else array("q")
        succ_ptr = array("q", bytes(8 * (n + 1)))
        succ_ext = array("q")
        off = 0
        for i, ss in enumerate(succs):
            c = len(ss)
            nsucc[i] = c
            succ_ptr[i] = off
            if c >= 1:
                succ0[i] = ss[0]
            if c >= 2:
                succ1[i] = ss[1]
            if c > 2:
                succ_ext.extend(ss)
                off += c
        succ_ptr[n] = off

        table.npred = npred
        table.pred0 = pred0
        table.pred1 = pred1
        table.pred_ptr = pred_ptr
        table.pred_ext = pred_ext
        table.nsucc = nsucc
        table.succ0 = succ0
        table.succ1 = succ1
        table.succ_ptr = succ_ptr
        table.succ_ext = succ_ext
        return table

    def refresh(self, adg: ADG, touched: Iterable[int]) -> None:
        """Write through the actuals of the *touched* activities.

        The caller (the engine) must have verified through
        :meth:`~repro.core.adg.ADG.delta_since` that everything since
        the last sync was in-place time updates on these activities —
        the same certificate the delta re-pin relies on.
        """
        start = self.start
        end = self.end
        duration = self.duration
        state = self.state
        work = self._work
        for aid in touched:
            act = adg.activity(aid)
            s = act.start
            e = act.end
            start[aid] = nan if s is None else s
            end[aid] = nan if e is None else e
            duration[aid] = d = act.duration
            if work is not None:
                work[aid] = d if d > _EPS else 0.0
            state[aid] = (
                FINISHED if e is not None else RUNNING if s is not None else PENDING
            )

    def snapshot(self) -> "PlanTable":
        """This table as it stands: the time columns :meth:`refresh`
        rewrites in place are copied, the structure (immutable once
        compiled) is shared."""
        table = PlanTable()
        table.n = self.n
        table.names = self.names
        table.roles = self.roles
        table.npred = self.npred
        table.pred0 = self.pred0
        table.pred1 = self.pred1
        table.pred_ptr = self.pred_ptr
        table.pred_ext = self.pred_ext
        table.nsucc = self.nsucc
        table.succ0 = self.succ0
        table.succ1 = self.succ1
        table.succ_ptr = self.succ_ptr
        table.succ_ext = self.succ_ext
        table.start = array("d", self.start)
        table.end = array("d", self.end)
        table.duration = array("d", self.duration)
        table.state = array("b", self.state)
        return table

    def work_column(self) -> array:
        """``duration`` with the zero-length entries (``<= _EPS``, which
        never occupy a worker) stored as ``0.0`` — the column the
        minimal-LP work bound sums.  Built on first use, then kept
        current by :meth:`refresh`.
        """
        work = self._work
        if work is None:
            work = self._work = array(
                "d", [d if d > _EPS else 0.0 for d in self.duration]
            )
        return work


class CompiledPinnedBase:
    """Array form of :class:`~repro.core.schedule.PinnedPlanBase`.

    Immutable once built (schedule passes copy the columns they mutate);
    ``state`` is a snapshot so cached bases and results stay frozen when
    the table is later refreshed in place.

    ``peak_floor`` counts the rows the best-effort schedule from this base
    runs at *now*: running rows with ``start <= now < end``, and ready
    pending rows (ready time ``== now``), each only when its interval
    passes the peak sweep's ``end - start > EPS`` filter, evaluated with
    the sweep's own float expression.  They share the instant *now*, so
    the count is at most ``CompiledSchedule.peak(from_time=now)`` of
    :func:`compiled_best_effort` — a lower bound on the optimal LP read
    off the pin, with no schedule pass.  The pin computes it from the
    table columns of its own revision.

    ``running`` and ``frontier`` list, in index order, the running rows
    and the ready pending rows (unpinned-pred count 0): the only rows
    whose pinned end, ``busy`` entry, ready time or floor share can move
    with *now* alone — what :func:`compiled_pin_delta` walks.
    """

    __slots__ = (
        "now",
        "ends",
        "pp",
        "state",
        "busy",
        "ready_items",
        "to_schedule",
        "peak_floor",
        "running",
        "frontier",
        "_pending_work",
        "_settle",
        "_chain",
    )

    def __init__(
        self,
        now,
        ends,
        pp,
        state,
        busy,
        ready_items,
        to_schedule,
        peak_floor,
        running,
        frontier,
    ):
        self.now = now
        self.ends = ends  # array('d'): pinned end per activity (pending: 0.0)
        self.pp = pp  # array('q'): unpinned-pred count, -1 for pinned
        self.state = state  # array('b') snapshot at pin time
        self.busy = busy  # heapified worker-release times (running only)
        self.ready_items = ready_items  # [(ready_time, aid)] frontier
        self.to_schedule = to_schedule
        self.peak_floor = peak_floor  # see the class docstring
        self.running = running  # [aid] running rows, index order
        self.frontier = frontier  # [aid] ready pending rows, index order
        self._pending_work: Optional[float] = None
        self._settle: Optional[float] = None  # T0 of wct_bound
        self._chain: Optional[float] = None  # C of wct_bound

    def pending_work(self, table: "PlanTable") -> float:
        """Summed duration of the unpinned, worker-occupying activities of
        *table* (the one this base was pinned from, at the revision it
        was pinned at) — the ``W`` of the work bound
        (:meth:`work_cutoff`) and of :meth:`wct_bound`, computed once per
        base and shared by every test at its ``(graph, now)``.
        """
        work = self._pending_work
        if work is None:
            # The unpinned rows' work, summed left to right at C speed.
            # Zero-length activities can run at unbounded concurrency;
            # the work column holds them as 0.0, and adding +0.0 leaves
            # every partial sum what the sum over the others alone gives.
            work = self._pending_work = sum(
                compress(
                    table.work_column(), map(operator.ne, self.pp, repeat(-1))
                )
            )
        return work

    def work_cutoff(self, table: "PlanTable", deadline: float) -> float:
        """The work bound's test, the lower twin of :meth:`wct_bound`: no
        *lp*-worker frontier pass from this base
        (:func:`compiled_schedule_pending`) meets ``deadline + EPS`` when
        ``now + W/lp`` exceeds::

            (deadline + EPS + n·EPS)·(1 + 4(n+2)·2⁻⁵²)

        with ``W`` the pending work and ``n = table.n``.  One value per
        deadline serves every *lp*, so the test costs what ``now + W/lp
        > deadline + EPS`` alone would — which is not sound: its
        rounding, and rows the pass starts up to ``EPS`` early, can put
        ``now + W/lp`` a few ulps above the pass's WCT.

        **Proof.**  Let ``F`` be the pass's WCT.  A pending row longer
        than ``EPS`` holds a ``busy`` entry from its start until the pass
        drops the entry, and the pass starts a row only while fewer than
        ``lp`` entries are held, so the held intervals overlap at most
        ``lp`` deep within ``[now, F]``.  An entry is dropped once the
        cursor is within ``EPS`` of its end, so a row runs at most
        ``EPS`` past its held interval, and ``Σ (end - start) <= lp·(F -
        now) + n·EPS``.  Each end is one rounded addition ``start + d``,
        short of the exact sum by at most ``2⁻⁵³·F``, so ``W <= lp·(F -
        now) + n·EPS + n·2⁻⁵³·F``: ``F >= (now + W/lp - n·EPS/lp) / (1 +
        n·2⁻⁵³/lp)``.  ``W`` is a sum of at most ``n`` non-negative
        terms, and the test takes five more rounded operations, which
        together stay far inside the relative margin of ``(8n + 16)·
        2⁻⁵³``: when the computed ``now + W/lp`` exceeds the cutoff,
        ``F > deadline + EPS``.  A negative *now* returns ``inf``.
        """
        if self.now < 0.0:
            return float("inf")
        n = table.n
        return (deadline + _EPS + n * _EPS) * (1.0 + 4 * (n + 2) * 2.0**-52)

    def wct_bound(
        self, table: "PlanTable", lp: int, cp: Optional[array] = None
    ) -> float:
        """An upper bound ``U(lp)`` on the WCT of the *lp*-worker frontier
        pass from this base (:func:`compiled_schedule_pending`) — Graham's
        list-scheduling bound (R. L. Graham, *Bounds on multiprocessing
        timing anomalies*, SIAM J. Appl. Math. 1969), the upper twin of
        the work bound (:meth:`work_cutoff`).

        With ``T0 = max(now, max(ends))``, ``W`` the pending work, ``C``
        the largest ``cp`` over the unpinned rows and ``n = table.n``::

            U(lp) = (T0 + W/lp + (1 - 1/lp)·C)·(1 + 4(n+2)·2⁻⁵²) + EPS

        *cp* is the critical-path column of *table* (the first half of
        the priority pair).  It is read only when ``lp >= 2`` and a row is
        pending, so at ``lp == 1`` — where ``U`` is ``T0 + W`` plus
        rounding — the caller need not have it.

        **Proof.**  Let ``F`` be the pass's WCT.  If it is a pinned end,
        ``F <= T0``.  Otherwise follow a chain back from the pending row
        that ends last.  A row's ready time is its predecessors' largest
        end; step to the predecessor that ends then (of several, the one
        scheduled last) while it is unpinned.  The chain's first row is
        ready by ``T0``, and after ``T0`` no pinned row is still running,
        so ``busy`` holds only pending rows longer than ``EPS``.

        Take an instant ``t`` in ``[T0, F)`` at which no chain row longer
        than ``EPS`` runs.  Some chain row is then ready but unstarted: it
        entered ``ready`` no later than its ready time (the cursor never
        passes a waiting entry).  A row after one no longer than ``EPS``
        is even ready at the cursor that started it, since successive
        cursors lie at least ``EPS`` apart — only the tail of the chain's
        last row escapes this, and that tail is the ``+ EPS``.  The pass
        starts a ready row whenever ``len(busy) < lp``, so at every cursor
        where one waits, ``busy`` holds ``lp`` rows that end no earlier
        than the next cursor: at least ``lp`` pending rows run at ``t``.

        So ``[T0, F)`` splits into ``A``, where at least ``lp`` pending
        rows run, and ``B``, where a chain row longer than ``EPS`` runs.
        The pending work that runs after ``T0`` is at most ``W``, so
        ``lp·|A| + |B| <= W``, and ``|B| <= C`` because the chain is one
        path of unpinned rows.  Hence ``F - T0 = |A| + |B| <= W/lp +
        (1 - 1/lp)·|B| <= W/lp + (1 - 1/lp)·C``.

        Rounding: every clock is non-negative (a negative *now* returns
        ``inf``).  Each end the pass writes is one rounded addition, ``W``
        and ``C`` are sums of at most ``n`` non-negative terms, and ``U``
        takes eight more rounded operations.  Together these move the
        right-hand side by less than ``(3n + 9)·2⁻⁵³`` of itself, inside
        the margin of ``(8n + 16)·2⁻⁵³``.
        """
        if self.now < 0.0:
            return float("inf")
        settle = self._settle
        if settle is None:
            settle = self._settle = max(self.now, max(self.ends, default=self.now))
        bound = settle + self.pending_work(table) / lp
        if lp > 1 and self.to_schedule:
            chain = self._chain
            if chain is None:
                chain = self._chain = max(
                    compress(cp, map(operator.ne, self.pp, repeat(-1)))
                )
            bound += (1.0 - 1.0 / lp) * chain
        return bound * (1.0 + 4 * (table.n + 2) * 2.0**-52) + _EPS


class CompiledSchedule:
    """Array-backed :class:`~repro.core.schedule.ScheduleResult`.

    Exposes the same public surface (``wct`` / ``remaining`` /
    ``timeline`` / ``peak`` / ``entries`` / ``start_of`` / ``end_of``)
    over parallel start/end columns; the ``entries`` dict of
    :class:`~repro.core.schedule.ScheduledActivity` is materialized
    lazily and cached, so consumers that only read ``.wct`` (the whole
    minimal-LP scan) never allocate per-activity objects.  Timelines and
    peaks memoize per ``from_time``, like the reference result.
    """

    __slots__ = (
        "strategy",
        "now",
        "lp",
        "_starts",
        "_ends",
        "_state",
        "_names",
        "_wct",
        "_entries",
        "_timelines",
        "_peaks",
    )

    def __init__(self, strategy, now, lp, starts, ends, state, names):
        self.strategy = strategy
        self.now = now
        self.lp = lp
        self._starts = starts
        self._ends = ends
        self._state = state
        self._names = names
        self._wct = None
        self._entries = None
        self._timelines = {}
        self._peaks = {}

    @property
    def wct(self) -> float:
        """Absolute end time of the last activity (the estimated WCT)."""
        if self._wct is None:
            self._wct = max(self._ends, default=self.now)
        return self._wct

    def remaining(self) -> float:
        """Estimated seconds from *now* until completion."""
        return max(0.0, self.wct - self.now)

    @property
    def entries(self) -> Dict[int, ScheduledActivity]:
        """Materialized per-activity entries (built once, cached)."""
        if self._entries is None:
            starts = self._starts
            ends = self._ends
            state = self._state
            names = self._names
            self._entries = {
                i: ScheduledActivity(
                    i, names[i], starts[i], ends[i], _STATUS[state[i]]
                )
                for i in range(len(names))
            }
        return self._entries

    def timeline(self, from_time: Optional[float] = None) -> List[Tuple[float, int]]:
        """Step function ``(time, concurrent activities)`` — Figure 2."""
        cached = self._timelines.get(from_time)
        if cached is None:
            floor = from_time if from_time is not None else -float("inf")
            intervals = [
                (s, e) for s, e in zip(self._starts, self._ends) if e > floor
            ]
            cached = concurrency_timeline(intervals, from_time=from_time)
            self._timelines[from_time] = cached
        return cached

    def peak(self, from_time: Optional[float] = None) -> int:
        """Maximum concurrency (optionally only from *from_time* onwards).

        A memoized timeline is reused.  Otherwise the peak is read
        straight off the start/end columns by one sweep
        (:func:`_sweep_peak`), never building the step function; the
        sweep applies the filtering, grouping and crop rules of
        :func:`~repro.core.schedule.concurrency_timeline`, so the value
        is identical.
        """
        cached = self._peaks.get(from_time)
        if cached is None:
            timeline = self._timelines.get(from_time)
            if timeline is not None:
                cached = peak_concurrency(timeline)
            else:
                cached = _sweep_peak(self._starts, self._ends, from_time)
            self._peaks[from_time] = cached
        return cached

    def start_of(self, aid: int) -> float:
        return self._starts[aid]

    def end_of(self, aid: int) -> float:
        return self._ends[aid]


def _sweep_peak(starts: array, ends: array, from_time: Optional[float]) -> int:
    """Peak concurrency straight from the schedule columns.

    One delta dict and one sorted pass over ``CompiledSchedule.timeline``'s
    interval filter: zero-length intervals (``end - start <= _EPS``)
    contribute nothing and a level is taken once per *distinct* time.  The
    crop folds into the filter: every kept interval ends after
    *from_time*, so before it the level only rises and the entry level
    ``concurrency_timeline`` prepends is the highest of those levels —
    the cropped peak is the uncropped one.
    """
    floor = -float("inf") if from_time is None else from_time
    deltas: Dict[float, int] = {}
    get = deltas.get
    for s, e in zip(starts, ends):
        if e > floor and e - s > _EPS:
            deltas[s] = get(s, 0) + 1
            deltas[e] = get(e, 0) - 1
    level = best = 0
    for _t, d in sorted(deltas.items()):
        level += d
        if level > best:
            best = level
    return best


# ---------------------------------------------------------------------------
# compiled passes


def compiled_critical_path(table: PlanTable) -> Tuple[array, list]:
    """Remaining dependency-chain length per activity, plus priority heap
    entries.

    Returns ``(cp, prio)``: the float column (twin of
    :func:`~repro.core.schedule.remaining_critical_path`) and a prebuilt
    list of ``(-cp, aid)`` heap entries — the entries are LP-independent,
    so one allocation seeds every frontier pass of a minimal-LP scan.
    """
    n = table.n
    cp = array("d", bytes(8 * n))
    duration = table.duration
    state = table.state
    nsucc = table.nsucc
    succ0 = table.succ0
    succ1 = table.succ1
    succ_ptr = table.succ_ptr
    succ_ext = table.succ_ext
    for i in range(n - 1, -1, -1):
        c = nsucc[i]
        best = 0.0
        if c:
            best = cp[succ0[i]]
            if c >= 2:
                if c == 2:
                    v = cp[succ1[i]]
                    if v > best:
                        best = v
                else:
                    for s in succ_ext[succ_ptr[i]:succ_ptr[i + 1]]:
                        v = cp[s]
                        if v > best:
                            best = v
        if state[i] != FINISHED:
            best += duration[i]
        cp[i] = best
    # zip(map(neg, ...)) builds the (-cp, aid) entries at C speed; float
    # negation is exact, so the entries equal the comprehension's bit for
    # bit.
    prio = list(zip(map(operator.neg, cp), range(n)))
    return cp, prio


def compiled_critical_path_delta(
    table: PlanTable, prev: Tuple[array, list], touched: Iterable[int]
) -> Tuple[array, list]:
    """Advance a previous ``(cp, prio)`` pair across a non-structural
    window — the priority twin of :func:`compiled_pin_delta`.

    A row's value reads its own duration and state and its successors'
    values, so only the *touched* rows can change by themselves, and a
    changed row can only change its predecessors (in practice the
    finished prefix above a completing activity).  Rows are recomputed
    in descending id order — each after everything it reads is final,
    each with the float operations of the full sweep — and a row whose
    value stays put stops the propagation.  *prev* is not mutated; the
    result equals :func:`compiled_critical_path` on the refreshed table
    bit for bit (same certificate as the delta re-pin).
    """
    cp = array("d", prev[0])
    prio = list(prev[1])
    duration = table.duration
    state = table.state
    nsucc = table.nsucc
    succ0 = table.succ0
    succ1 = table.succ1
    succ_ptr = table.succ_ptr
    succ_ext = table.succ_ext
    npred = table.npred
    pred0 = table.pred0
    pred1 = table.pred1
    pred_ptr = table.pred_ptr
    pred_ext = table.pred_ext
    heappush = heapq.heappush
    heappop = heapq.heappop

    queued = set(touched)
    heap = [-aid for aid in queued]  # max-heap of row ids
    heapq.heapify(heap)
    while heap:
        i = -heappop(heap)
        c = nsucc[i]
        best = 0.0
        if c:
            best = cp[succ0[i]]
            if c >= 2:
                if c == 2:
                    v = cp[succ1[i]]
                    if v > best:
                        best = v
                else:
                    for s in succ_ext[succ_ptr[i]:succ_ptr[i + 1]]:
                        v = cp[s]
                        if v > best:
                            best = v
        if state[i] != FINISHED:
            best += duration[i]
        if best == cp[i]:
            continue
        cp[i] = best
        prio[i] = (-best, i)
        c = npred[i]
        if c:
            if c == 1:
                preds = (pred0[i],)
            elif c == 2:
                preds = (pred0[i], pred1[i])
            else:
                preds = pred_ext[pred_ptr[i]:pred_ptr[i + 1]]
            for p in preds:
                if p not in queued:
                    queued.add(p)
                    heappush(heap, -p)
    return cp, prio


def compiled_pin(table: PlanTable, now: float) -> CompiledPinnedBase:
    """Pin finished and running activities — array twin of
    :func:`~repro.core.schedule.pin_actuals`."""
    n = table.n
    state = array("b", table.state)  # snapshot: tables refresh in place
    start = table.start
    end = table.end
    duration = table.duration
    npred = table.npred
    pred0 = table.pred0
    pred1 = table.pred1
    pred_ptr = table.pred_ptr
    pred_ext = table.pred_ext

    ends = array("d", bytes(8 * n))
    pp = array("q", bytes(8 * n))
    busy: List[float] = []
    ready_items: List[Tuple[float, int]] = []
    running: List[int] = []
    frontier: List[int] = []
    to_schedule = 0
    floor = 0
    for i in range(n):
        s = state[i]
        if s == FINISHED:
            ends[i] = end[i]
            pp[i] = -1
        elif s == RUNNING:
            b = start[i]
            e = b + duration[i]
            if e < now:
                e = now
            ends[i] = e
            pp[i] = -1
            busy.append(e)
            running.append(i)
            if b <= now < e and e - b > _EPS:
                floor += 1
        else:
            to_schedule += 1
            c = npred[i]
            cnt = 0
            if c:
                if c == 1:
                    cnt = 1 if state[pred0[i]] == PENDING else 0
                elif c == 2:
                    cnt = (1 if state[pred0[i]] == PENDING else 0) + (
                        1 if state[pred1[i]] == PENDING else 0
                    )
                else:
                    for p in pred_ext[pred_ptr[i]:pred_ptr[i + 1]]:
                        if state[p] == PENDING:
                            cnt += 1
            pp[i] = cnt
            if cnt == 0:
                r = now
                if c:
                    if c == 1:
                        e = ends[pred0[i]]
                        if e > r:
                            r = e
                    elif c == 2:
                        e = ends[pred0[i]]
                        if e > r:
                            r = e
                        e = ends[pred1[i]]
                        if e > r:
                            r = e
                    else:
                        for p in pred_ext[pred_ptr[i]:pred_ptr[i + 1]]:
                            e = ends[p]
                            if e > r:
                                r = e
                ready_items.append((r, i))
                frontier.append(i)
                if r == now and (r + duration[i]) - r > _EPS:
                    floor += 1
    heapq.heapify(busy)
    return CompiledPinnedBase(
        now, ends, pp, state, busy, ready_items, to_schedule, floor,
        running, frontier,
    )


def compiled_pin_delta(
    table: PlanTable,
    now: float,
    prev: CompiledPinnedBase,
    touched: Iterable[int],
) -> CompiledPinnedBase:
    """Advance *prev* to *now*, paying for the rows that moved.

    *prev* must have been pinned from the **same table structure**, with
    only the activities in *touched* having changed times since —
    exactly what a non-structural changelog window
    (:meth:`~repro.core.adg.ADG.delta_since`) written through by
    :meth:`PlanTable.refresh` certifies.  Only a touched row changes
    state, and a row newly pinned releases its successors (their
    unpinned-pred counts fall, some to zero).  So the running rows are
    *prev*'s untouched ones plus the touched rows now running, and the
    frontier is *prev*'s rows still unpinned plus the released ones.
    The per-activity columns copy at C speed; Python-level work runs
    over the touched rows, the running rows (their ends re-clamped to
    *now*, rebuilding ``busy``) and the frontier rows (their ready
    times, rebuilding ``ready_items``), which together recount
    ``peak_floor``.  The result equals :func:`compiled_pin` bit for bit,
    with ``busy`` and ``ready_items`` equal as multisets.
    """
    touched = set(touched)
    state = array("b", table.state)  # post-refresh truth == prev + touches
    start = table.start
    end = table.end
    duration = table.duration
    nsucc = table.nsucc
    succ0 = table.succ0
    succ1 = table.succ1
    succ_ptr = table.succ_ptr
    succ_ext = table.succ_ext

    ends = array("d", prev.ends)
    pp = array("q", prev.pp)
    to_schedule = prev.to_schedule
    running = prev.running
    frontier = prev.frontier
    if touched:
        running = [i for i in running if i not in touched]
        released: List[int] = []
        for aid in sorted(touched):
            s = state[aid]
            if s == PENDING:
                continue  # still pending: counts and (estimate) duration unchanged
            if s == FINISHED:
                ends[aid] = end[aid]
            else:
                running.append(aid)
            if pp[aid] == -1:
                continue
            pp[aid] = -1
            to_schedule -= 1
            c = nsucc[aid]
            if c:
                if c == 1:
                    succs = (succ0[aid],)
                elif c == 2:
                    succs = (succ0[aid], succ1[aid])
                else:
                    succs = succ_ext[succ_ptr[aid]:succ_ptr[aid + 1]]
                for s0 in succs:
                    cnt = pp[s0]
                    if cnt > 0:
                        pp[s0] = cnt - 1
                        if cnt == 1:
                            released.append(s0)
        running.sort()
        # A row released by one touched row may be pinned by a later one.
        frontier = [i for i in frontier if pp[i] == 0]
        if released:
            frontier.extend(i for i in released if pp[i] == 0)
            frontier.sort()

    # The running rows re-clamp to the new now, rebuilding the busy heap.
    busy: List[float] = []
    floor = 0
    for i in running:
        b = start[i]
        e = b + duration[i]
        if e < now:
            e = now
        ends[i] = e
        busy.append(e)
        if b <= now < e and e - b > _EPS:
            floor += 1
    heapq.heapify(busy)

    npred = table.npred
    pred0 = table.pred0
    pred1 = table.pred1
    pred_ptr = table.pred_ptr
    pred_ext = table.pred_ext
    ready_items: List[Tuple[float, int]] = []
    for i in frontier:
        r = now
        c = npred[i]
        if c:
            if c == 1:
                e = ends[pred0[i]]
                if e > r:
                    r = e
            elif c == 2:
                e = ends[pred0[i]]
                if e > r:
                    r = e
                e = ends[pred1[i]]
                if e > r:
                    r = e
            else:
                for p in pred_ext[pred_ptr[i]:pred_ptr[i + 1]]:
                    e = ends[p]
                    if e > r:
                        r = e
        ready_items.append((r, i))
        if r == now and (r + duration[i]) - r > _EPS:
            floor += 1
    return CompiledPinnedBase(
        now, ends, pp, state, busy, ready_items, to_schedule, floor,
        running, frontier,
    )


def compiled_best_effort(
    table: PlanTable, base: CompiledPinnedBase
) -> CompiledSchedule:
    """Infinite-LP schedule from a pinned base — array twin of
    :func:`~repro.core.schedule.best_effort_schedule`.

    The pinned rows keep the base's ends (a running row's clamped to
    ``base.now``) and the table's starts; only the unpinned rows are
    walked, in index (topological) order, each starting at the latest of
    ``base.now`` and its predecessors' ends.  These are the reference
    pass's float operations, so the schedule is the same bit for bit.
    *table* must stand at the revision *base* was pinned at.
    """
    now = base.now
    start = table.start
    duration = table.duration
    npred = table.npred
    pred0 = table.pred0
    pred1 = table.pred1
    pred_ptr = table.pred_ptr
    pred_ext = table.pred_ext

    starts = array("d", start)
    ends = array("d", base.ends)
    if base.to_schedule:
        for i in compress(range(table.n), map(operator.ne, base.pp, repeat(-1))):
            r = now
            c = npred[i]
            if c:
                if c == 1:
                    e = ends[pred0[i]]
                    if e > r:
                        r = e
                elif c == 2:
                    e = ends[pred0[i]]
                    if e > r:
                        r = e
                    e = ends[pred1[i]]
                    if e > r:
                        r = e
                else:
                    for p in pred_ext[pred_ptr[i]:pred_ptr[i + 1]]:
                        e = ends[p]
                        if e > r:
                            r = e
            starts[i] = r
            ends[i] = r + duration[i]
    return CompiledSchedule(
        "best-effort", now, None, starts, ends, base.state, table.names
    )


def compiled_schedule_pending(
    table: PlanTable,
    now: float,
    lp: int,
    base: CompiledPinnedBase,
    prio: list,
) -> CompiledSchedule:
    """Event-driven limited-LP pass 2 — array twin of
    :func:`~repro.core.schedule.schedule_pending` at ``critical-path``
    priority.

    *base* and *prio* are never mutated: the columns copy, the heaps are
    rebuilt, and *prio*'s prebuilt ``(-cp, aid)`` entries are shared by
    reference — one pinning pass plus one priority table seeds every LP
    of a scan.  A base with nothing to schedule never reads *prio*: the
    plan at any LP is then the pinned base itself.  Invariant exploited
    over the reference pass: stale busy entries are dropped eagerly, so
    the active-worker count is ``len(busy)`` instead of a per-iteration
    scan.
    """
    if lp < 1:
        raise SchedulingError(f"lp must be >= 1, got {lp}")

    starts = array("d", table.start)
    ends = array("d", base.ends)
    pp = array("q", base.pp)
    busy = list(base.busy)
    waiting = list(base.ready_items)
    heapq.heapify(waiting)
    to_schedule = base.to_schedule

    duration = table.duration
    nsucc = table.nsucc
    succ0 = table.succ0
    succ1 = table.succ1
    succ_ptr = table.succ_ptr
    succ_ext = table.succ_ext
    npred = table.npred
    pred0 = table.pred0
    pred1 = table.pred1
    pred_ptr = table.pred_ptr
    pred_ext = table.pred_ext
    heappush = heapq.heappush
    heappop = heapq.heappop

    ready: List[Tuple[float, int]] = []
    cursor = now
    scheduled = 0
    # Eagerly drop already-released workers: afterwards every busy entry
    # is > cursor + EPS, so len(busy) is the reference pass's `active` count.
    limit = cursor + _EPS
    while busy and busy[0] <= limit:
        heappop(busy)

    while scheduled < to_schedule:
        while waiting and waiting[0][0] <= limit:
            aid = heappop(waiting)[1]
            heappush(ready, prio[aid])
        if ready and len(busy) < lp:
            aid = heappop(ready)[1]
            d = duration[aid]
            e = cursor + d
            starts[aid] = cursor
            ends[aid] = e
            if d > _EPS:
                heappush(busy, e)
            scheduled += 1
            c = nsucc[aid]
            if c:
                if c == 1:
                    release = (succ0[aid],)
                elif c == 2:
                    release = (succ0[aid], succ1[aid])
                else:
                    release = succ_ext[succ_ptr[aid]:succ_ptr[aid + 1]]
                for s in release:
                    cnt = pp[s]
                    if cnt > 0:
                        cnt -= 1
                        pp[s] = cnt
                        if cnt == 0:
                            # max predecessor end, clamped to the cursor
                            # (inlined over hoisted columns — this runs
                            # once per scheduled activity per scanned LP).
                            r = cursor
                            pc = npred[s]
                            if pc:
                                if pc == 1:
                                    pe = ends[pred0[s]]
                                    if pe > r:
                                        r = pe
                                elif pc == 2:
                                    pe = ends[pred0[s]]
                                    if pe > r:
                                        r = pe
                                    pe = ends[pred1[s]]
                                    if pe > r:
                                        r = pe
                                else:
                                    o = pred_ptr[s]
                                    for p in pred_ext[o:o + pc]:
                                        pe = ends[p]
                                        if pe > r:
                                            r = pe
                            heappush(waiting, (r, s))
            continue
        # Advance the cursor to the next event: a worker freeing up or a
        # waiting activity becoming ready.
        if ready and busy:
            cand = busy[0]
            if waiting and waiting[0][0] < cand:
                cand = waiting[0][0]
        elif waiting:
            cand = waiting[0][0]
        else:
            raise SchedulingError(
                "list scheduler stalled: no ready work and no future events "
                f"({to_schedule - scheduled} activities unscheduled)"
            )
        if cand > cursor:
            cursor = cand
        limit = cursor + _EPS
        while busy and busy[0] <= limit:
            heappop(busy)
    return CompiledSchedule(
        "limited-lp", now, lp, starts, ends, base.state, table.names
    )


def compiled_minimal_lp(
    table: PlanTable,
    now: float,
    deadline: float,
    max_lp: Optional[int] = None,
    start_lp: int = 1,
    base: Optional[CompiledPinnedBase] = None,
    prio: Optional[list] = None,
    peak: Optional[int] = None,
) -> Optional[Tuple[int, CompiledSchedule]]:
    """Smallest LP whose greedy schedule meets *deadline* — array twin of
    :func:`~repro.core.schedule.minimal_lp_greedy`.

    One compiled table (plus one pinned base and one priority list,
    computed here when not passed in) is shared across every candidate
    LP, so each scanned LP pays only its frontier pass — and most
    candidates don't even pay that: with *lp* workers the pending
    worker-occupying work ``W`` cannot complete much before ``now + W /
    lp``, so any candidate whose work bound already misses the deadline
    (:meth:`CompiledPinnedBase.work_cutoff`, which allows for rounding)
    is rejected without running its schedule.  The bound is a true lower bound on the greedy schedule's
    computed WCT, so the returned answer — first feasible LP, its
    schedule, or ``None`` — is identical to the unpruned scan.
    """
    if base is None:
        base = compiled_pin(table, now)
    if peak is None:
        # A caller that already ran the best-effort pass (every analysis
        # recipe does) passes its peak in and skips this duplicate pass.
        peak = compiled_best_effort(table, base).peak(from_time=now)
    upper = max(peak, 1)
    if max_lp is not None:
        upper = min(upper, max_lp)
    if prio is None:
        _cp, prio = compiled_critical_path(table)
    pending_work = base.pending_work(table)
    cutoff = base.work_cutoff(table, deadline)
    for lp in range(max(1, start_lp), upper + 1):
        if now + pending_work / lp > cutoff:
            continue  # work bound: no lp-worker greedy schedule can fit
        schedule = compiled_schedule_pending(table, now, lp, base, prio)
        if schedule.wct <= deadline + _EPS:
            return lp, schedule
    return None
