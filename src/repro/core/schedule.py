"""WCT estimation and LP computation over an ADG (paper Section 4).

Three strategies, matching the paper:

* **best effort** — assumes infinite LP; every pending activity starts as
  soon as its predecessors end (clamped to *now*).  Computes the best
  achievable WCT ("the end time of the last activity with a best-effort
  strategy") with a simple greedy longest-path pass.
* **optimal LP** — the peak number of concurrently running activities of
  the best-effort schedule from *now* onwards (the paper's Figure 2
  timeline analysis: "a maximum requirement of 3 active threads …
  therefore the optimal LP is 3").
* **limited LP** — list scheduling with a fixed number of workers;
  estimates the WCT achievable under the current (or a hypothetical)
  level of parallelism.  The paper notes that computing the *minimal*
  number of threads guaranteeing a WCT goal is NP-complete; the greedy
  searches below (:func:`minimal_lp_greedy`) and the exponential exact
  solver (:func:`exact_minimal_lp`, for small graphs/ablations) bracket
  that problem from both sides.

Clamp rules (paper, Figure 1 discussion): an activity's estimated end is
``ti + t(m)``, "but if ti + t(m) is in the past, tf = currentTime"; a
pending activity's estimated start is ``max over predecessors of tf``,
clamped to *now*.

**This module is the reference oracle, not the runtime path.**  It states
the algorithms once, from scratch, over ``Activity`` objects and dicts, the
way the paper describes them; tests, the property harness and the
paper-figure benches call it directly.  The running system plans through
:class:`~repro.core.planning.PlanEngine`, whose compiled passes
(:mod:`repro.core.planning.table`) perform the same float operations in the
same order over flat arrays and must answer bit for bit what the functions
here answer.  The result types (:class:`ScheduledActivity`,
:class:`ScheduleResult`) and the timeline helpers are shared by both.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import SchedulingError
from .adg import ADG, Activity

__all__ = [
    "ScheduledActivity",
    "ScheduleResult",
    "PinnedPlanBase",
    "best_effort_schedule",
    "limited_lp_schedule",
    "remaining_critical_path",
    "pin_actuals",
    "schedule_pending",
    "optimal_lp",
    "minimal_lp_greedy",
    "exact_minimal_lp",
    "concurrency_timeline",
    "peak_concurrency",
]

_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class ScheduledActivity:
    """Start/end assigned to one activity by a scheduling strategy."""

    id: int
    name: str
    start: float
    end: float
    status: str  # "finished" | "running" | "pending" at scheduling time


@dataclass(slots=True)
class ScheduleResult:
    """Outcome of one scheduling pass over an ADG.

    Timelines and peaks memoize per ``from_time`` — a scheduling pass
    populates ``entries`` before the result is served, and results are
    never mutated after that, so repeated Figure-2 queries (the arbiter
    asks for the same peak on every report) pay the sweep once.
    """

    strategy: str
    now: float
    lp: Optional[int]  # None for best effort (infinite)
    entries: Dict[int, ScheduledActivity] = field(default_factory=dict)
    _timelines: Dict[Optional[float], List[Tuple[float, int]]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _peaks: Dict[Optional[float], int] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def wct(self) -> float:
        """Absolute end time of the last activity (the estimated WCT)."""
        return max((e.end for e in self.entries.values()), default=self.now)

    def remaining(self) -> float:
        """Estimated seconds from *now* until completion."""
        return max(0.0, self.wct - self.now)

    def timeline(self, from_time: Optional[float] = None) -> List[Tuple[float, int]]:
        """Step function ``(time, concurrent activities)`` — Figure 2."""
        cached = self._timelines.get(from_time)
        if cached is None:
            floor = from_time if from_time is not None else -float("inf")
            intervals = [
                (e.start, e.end) for e in self.entries.values() if e.end > floor
            ]
            cached = concurrency_timeline(intervals, from_time=from_time)
            self._timelines[from_time] = cached
        return cached

    def peak(self, from_time: Optional[float] = None) -> int:
        """Maximum concurrency (optionally only from *from_time* onwards)."""
        cached = self._peaks.get(from_time)
        if cached is None:
            cached = peak_concurrency(self.timeline(from_time))
            self._peaks[from_time] = cached
        return cached

    def start_of(self, aid: int) -> float:
        return self.entries[aid].start

    def end_of(self, aid: int) -> float:
        return self.entries[aid].end


def concurrency_timeline(
    intervals: List[Tuple[float, float]], from_time: Optional[float] = None
) -> List[Tuple[float, int]]:
    """Convert activity intervals into a concurrency step function.

    Zero-length intervals contribute no concurrency (they occupy no
    worker for any measurable time).  When *from_time* is given the step
    function is cropped to ``t >= from_time``.
    """
    deltas: Dict[float, int] = {}
    for start, end in intervals:
        if end - start <= _EPS:
            continue
        deltas[start] = deltas.get(start, 0) + 1
        deltas[end] = deltas.get(end, 0) - 1
    steps: List[Tuple[float, int]] = []
    level = 0
    for time in sorted(deltas):
        level += deltas[time]
        steps.append((time, level))
    if from_time is not None:
        cropped: List[Tuple[float, int]] = []
        level_at = 0
        for time, level in steps:
            if time < from_time:
                level_at = level
                continue
            if not cropped and time > from_time:
                cropped.append((from_time, level_at))
            cropped.append((time, level))
        if not cropped:
            cropped.append((from_time, level_at))
        steps = cropped
    return steps


def peak_concurrency(timeline: List[Tuple[float, int]]) -> int:
    """Maximum level of a concurrency step function."""
    return max((level for _t, level in timeline), default=0)


# ---------------------------------------------------------------------------
# best effort


def best_effort_schedule(adg: ADG, now: float) -> ScheduleResult:
    """Schedule with infinite parallelism (paper's best-effort strategy)."""
    result = ScheduleResult(strategy="best-effort", now=now, lp=None)
    ends: Dict[int, float] = {}
    for aid in adg.topological_order():
        act = adg.activity(aid)
        start, end, status = _actual_or_estimate(act, ends, now)
        ends[aid] = end
        result.entries[aid] = ScheduledActivity(aid, act.name, start, end, status)
    return result


def _actual_or_estimate(
    act: Activity, ends: Dict[int, float], now: float
) -> Tuple[float, float, str]:
    """Apply the paper's clamp rules to one activity."""
    if act.finished:
        return act.start, act.end, "finished"
    if act.started:
        # Running: estimated end is start + t(m), clamped forward to now.
        return act.start, max(act.start + act.duration, now), "running"
    ready = max((ends[p] for p in act.preds), default=now)
    start = max(ready, now)
    return start, start + act.duration, "pending"


# ---------------------------------------------------------------------------
# limited LP (greedy list scheduling)


@dataclass(slots=True)
class PinnedPlanBase:
    """Pass-1 output of limited-LP list scheduling: the actuals pinned.

    Finished/running activities and the derived pending-frontier state
    depend only on the ADG and *now* — never on the worker count — so one
    pinning pass can seed every LP of a minimal-LP scan
    (:func:`schedule_pending` re-schedules only the pending frontier per
    LP).
    """

    now: float
    entries: Dict[int, ScheduledActivity]
    ends: Dict[int, float]
    busy: List[float]  # heap of worker-release times (future only)
    pending_preds: Dict[int, int]
    ready_time: Dict[int, float]
    to_schedule: int


def remaining_critical_path(adg: ADG) -> Dict[int, float]:
    """Remaining dependency-chain length per activity (priority table).

    Depends only on the graph, durations and finished flags — i.e. it is
    constant for one projected ADG, whatever *now* or the LP.
    """
    remaining_cp: Dict[int, float] = {}
    for aid in reversed(adg.topological_order()):
        act = adg.activity(aid)
        succ_cp = max(
            (remaining_cp[s] for s in adg.successors(aid)), default=0.0
        )
        remaining_cp[aid] = succ_cp + (0.0 if act.finished else act.duration)
    return remaining_cp


def pin_actuals(adg: ADG, now: float) -> PinnedPlanBase:
    """Pin finished and running activities (list scheduling pass 1).

    Finished activities keep their actual times; running activities
    occupy a worker until their clamped estimated end.  Pending
    activities get their unpinned-predecessor counts and — when every
    predecessor is already pinned — their earliest ready time.
    """
    entries: Dict[int, ScheduledActivity] = {}
    ends: Dict[int, float] = {}
    pending_preds: Dict[int, int] = {}
    ready_time: Dict[int, float] = {}
    busy: List[float] = []
    to_schedule = 0
    for aid in adg.topological_order():
        act = adg.activity(aid)
        if act.finished:
            ends[aid] = act.end
            entries[aid] = ScheduledActivity(
                aid, act.name, act.start, act.end, "finished"
            )
        elif act.started:
            end = max(act.start + act.duration, now)
            ends[aid] = end
            entries[aid] = ScheduledActivity(
                aid, act.name, act.start, end, "running"
            )
            heapq.heappush(busy, end)  # occupies a worker until it ends
        else:
            to_schedule += 1
            pending_preds[aid] = sum(
                1 for p in act.preds if p not in ends
            )
            if pending_preds[aid] == 0:
                ready_time[aid] = max(
                    max((ends[p] for p in act.preds), default=now), now
                )
    return PinnedPlanBase(
        now=now,
        entries=entries,
        ends=ends,
        busy=busy,
        pending_preds=pending_preds,
        ready_time=ready_time,
        to_schedule=to_schedule,
    )


def limited_lp_schedule(
    adg: ADG,
    now: float,
    lp: int,
    priority: str = "critical-path",
) -> ScheduleResult:
    """Greedy list scheduling with *lp* workers from *now* onwards.

    Finished activities keep their actual times (they consumed workers in
    the past, which no longer matters); running activities occupy a worker
    until their clamped estimated end — even if more activities are
    running than *lp* allows (that can transiently happen right after the
    controller decreases the LP: shrinking never aborts running muscles).

    ``priority`` orders simultaneously-ready pending activities:
    ``"critical-path"`` (default — longest remaining dependency chain
    first, the classic greedy heuristic) or ``"fifo"`` (activity id, i.e.
    program order).

    This is the from-scratch composition of :func:`pin_actuals` +
    :func:`schedule_pending`.
    """
    return schedule_pending(
        adg, now, lp, priority, pin_actuals(adg, now), remaining_critical_path(adg)
    )


def schedule_pending(
    adg: ADG,
    now: float,
    lp: int,
    priority: str,
    base: PinnedPlanBase,
    remaining_cp: Dict[int, float],
) -> ScheduleResult:
    """Event-driven pass 2: schedule the pending frontier under *lp*.

    *base* is never mutated (its dicts and heap are copied), so one
    pinning pass seeds arbitrarily many LP evaluations.
    """
    if lp < 1:
        raise SchedulingError(f"lp must be >= 1, got {lp}")
    if priority not in ("critical-path", "fifo"):
        raise SchedulingError(f"unknown priority {priority!r}")

    result = ScheduleResult(strategy="limited-lp", now=now, lp=lp)
    result.entries = dict(base.entries)
    ends = dict(base.ends)
    pending_preds = dict(base.pending_preds)
    busy = list(base.busy)
    to_schedule = base.to_schedule

    def prio(aid: int) -> Tuple:
        if priority == "critical-path":
            return (-remaining_cp[aid], aid)
        return (aid,)

    # `waiting` holds activities whose predecessors are scheduled, keyed by
    # the time they become ready; `ready` holds those ready at or before
    # the cursor, ordered by priority.
    waiting: List[Tuple[float, int]] = [
        (r, aid) for aid, r in base.ready_time.items()
    ]
    heapq.heapify(waiting)
    ready: List[Tuple] = []
    cursor = now
    scheduled = 0

    def refresh_ready() -> None:
        while waiting and waiting[0][0] <= cursor + _EPS:
            _r, aid = heapq.heappop(waiting)
            heapq.heappush(ready, prio(aid) + (aid,))

    while scheduled < to_schedule:
        refresh_ready()
        active = sum(1 for b in busy if b > cursor + _EPS)
        if ready and active < lp:
            entry = heapq.heappop(ready)
            aid = entry[-1]
            act = adg.activity(aid)
            start = cursor
            end = start + act.duration
            ends[aid] = end
            result.entries[aid] = ScheduledActivity(
                aid, act.name, start, end, "pending"
            )
            if act.duration > _EPS:
                heapq.heappush(busy, end)
            scheduled += 1
            # Release successors.
            for s in adg.successors(aid):
                if s in pending_preds:
                    pending_preds[s] -= 1
                    if pending_preds[s] == 0:
                        r = max(
                            max(
                                (ends[p] for p in adg.activity(s).preds),
                                default=cursor,
                            ),
                            cursor,
                        )
                        heapq.heappush(waiting, (r, s))
            continue
        # Advance the cursor to the next event: a worker freeing up or a
        # waiting activity becoming ready.
        candidates = []
        future_busy = [b for b in busy if b > cursor + _EPS]
        if ready and future_busy:
            candidates.append(min(future_busy))
        if waiting:
            candidates.append(waiting[0][0])
        if not candidates:
            raise SchedulingError(
                "list scheduler stalled: no ready work and no future events "
                f"({to_schedule - scheduled} activities unscheduled)"
            )
        cursor = max(cursor, min(candidates))
        # Drop released workers from the heap.
        while busy and busy[0] <= cursor + _EPS:
            heapq.heappop(busy)
    return result


# ---------------------------------------------------------------------------
# derived quantities


def optimal_lp(adg: ADG, now: float) -> int:
    """Optimal LP: peak future concurrency of the best-effort schedule.

    "Optimal" in the paper's sense: the smallest LP that realizes the
    best-effort WCT (running the best-effort schedule needs exactly its
    peak number of simultaneous activities; fewer threads would delay some
    activity, more would sit idle).
    """
    return best_effort_schedule(adg, now).peak(from_time=now)


def minimal_lp_greedy(
    adg: ADG,
    now: float,
    deadline: float,
    max_lp: Optional[int] = None,
    start_lp: int = 1,
) -> Optional[Tuple[int, ScheduleResult]]:
    """Smallest LP whose greedy limited-LP schedule meets *deadline*.

    Linear search from ``start_lp`` up to ``min(optimal_lp, max_lp)``
    (greedy list schedules are not strictly monotonic in LP, so a linear
    scan is both simple and safe).  Returns ``(lp, schedule)`` or ``None``
    when even the best-effort-equivalent LP misses the deadline.

    This approximates the NP-complete minimal-threads problem from above:
    the returned LP always *does* meet the deadline under greedy list
    scheduling, but a cleverer schedule might meet it with fewer threads
    (see :func:`exact_minimal_lp`).
    """
    upper = max(optimal_lp(adg, now), 1)
    if max_lp is not None:
        upper = min(upper, max_lp)
    for lp in range(max(1, start_lp), upper + 1):
        schedule = limited_lp_schedule(adg, now, lp)
        if schedule.wct <= deadline + _EPS:
            return lp, schedule
    return None


def exact_minimal_lp(
    adg: ADG,
    now: float,
    deadline: float,
    max_lp: Optional[int] = None,
    max_activities: int = 18,
) -> Optional[int]:
    """Exact smallest LP meeting *deadline* — exponential search.

    Solves the paper's NP-complete problem by depth-first search over
    scheduling decisions with critical-path pruning and state memoization.
    Only usable for small graphs (guarded by *max_activities*); exists to
    validate :func:`minimal_lp_greedy` in tests and the ablation bench.
    """
    pending = [a for a in adg.activities if not a.started]
    running = [a for a in adg.activities if a.started and not a.finished]
    if len(pending) + len(running) > max_activities:
        raise SchedulingError(
            f"exact solver limited to {max_activities} unfinished activities, "
            f"got {len(pending) + len(running)}"
        )
    upper = max(1, optimal_lp(adg, now))
    if max_lp is not None:
        upper = min(upper, max_lp)

    for lp in range(1, upper + 1):
        if _feasible_with_lp(adg, now, deadline, lp):
            return lp
    return None


def _feasible_with_lp(adg: ADG, now: float, deadline: float, lp: int) -> bool:
    """DFS decision procedure: can all unfinished work end by *deadline*?

    State: the current time, the multiset of running-activity end times,
    the set of activities whose end is already decided (finished, running,
    or scheduled by this search), and the map of decided end times.  At
    each state we either start one ready pending activity (branching over
    which) or advance time to the next completion.
    """
    pending_ids = tuple(a.id for a in adg.activities if not a.started)

    # Remaining critical path per activity, for pruning.
    remaining_cp = remaining_critical_path(adg)

    initial_map: Dict[int, float] = {}
    for act in adg.activities:
        if act.finished:
            initial_map[act.id] = act.end
    running0: Tuple[Tuple[float, int], ...] = tuple(
        sorted(
            (max(a.start + a.duration, now), a.id)
            for a in adg.activities
            if a.started and not a.finished
        )
    )
    for end, aid in running0:
        initial_map[aid] = end

    seen = set()

    def dfs(
        time: float,
        running: Tuple[Tuple[float, int], ...],
        scheduled: frozenset,
        end_map: Dict[int, float],
    ) -> bool:
        remaining = [aid for aid in pending_ids if aid not in scheduled]
        if not remaining:
            final = max((r[0] for r in running), default=time)
            return final <= deadline + _EPS

        key = (round(time, 9), running, scheduled)
        if key in seen:
            return False
        seen.add(key)

        # Prune: lower bound on the finish of each unscheduled activity —
        # earliest possible start (max of decided pred ends, or `time`)
        # plus its remaining critical path.
        for aid in remaining:
            preds = adg.activity(aid).preds
            earliest = time
            for p in preds:
                if p in end_map:
                    earliest = max(earliest, end_map[p])
            if earliest + remaining_cp[aid] > deadline + _EPS:
                return False

        ready = [
            aid
            for aid in remaining
            if all(
                p in end_map and end_map[p] <= time + _EPS
                for p in adg.activity(aid).preds
            )
        ]
        if ready and len(running) < lp:
            for aid in ready:
                act = adg.activity(aid)
                new_end = time + act.duration
                new_running = tuple(sorted(running + ((new_end, aid),)))
                new_map = dict(end_map)
                new_map[aid] = new_end
                if dfs(time, new_running, scheduled | {aid}, new_map):
                    return True
            # Also branch on deliberately waiting for a completion (an
            # optimal schedule may leave a worker idle on purpose).
            if running:
                next_time = running[0][0]
                still = tuple(r for r in running if r[0] > next_time + _EPS)
                return dfs(next_time, still, scheduled, end_map)
            return False
        if running:
            next_time = running[0][0]
            still = tuple(r for r in running if r[0] > next_time + _EPS)
            return dfs(next_time, still, scheduled, end_map)
        # No ready work, nothing running, pending remains: the remaining
        # activities' predecessors end in the future only via end_map —
        # advance to the earliest such end.
        future = sorted(
            end
            for aid in remaining
            for p in adg.activity(aid).preds
            if (end := end_map.get(p)) is not None and end > time + _EPS
        )
        if not future:
            raise SchedulingError("exact solver stalled on an inconsistent ADG")
        return dfs(future[0], running, scheduled, end_map)

    scheduled0 = frozenset(initial_map)
    return dfs(now, running0, scheduled0, initial_map)
