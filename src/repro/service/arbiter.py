"""The LP arbiter — one global allocator instead of N fighting controllers.

The paper's :class:`~repro.core.controller.AutonomicController` owns
``platform.set_parallelism`` for a single execution.  Run N of them on a
shared platform and each one retunes the *global* knob for its own goal,
clobbering the others on every analysis tick.  The arbiter replaces their
Plan + Execute halves with a single global decision, in three layers:

1. **Priority classes** (``QoS.priority``) order the guaranteed phase:
   a higher class is served its deadline-meeting grants before any lower
   class sees the budget.  Because the whole split is recomputed from
   scratch on every rebalance (admissions force one), an urgent
   submission *preempts* running lower-class executions on the next tick
   — their grants shrink via :meth:`Platform.set_shares`, never below a
   one-worker floor (no starvation, no aborted muscles).
2. **EEDF within a class**: the most urgent execution is granted the
   *minimal* LP that meets its deadline (the paper's minimal-increase
   policy, applied per tenant), then the next.  Executions whose
   deadline is unreachable even with every worker the budget can still
   give are **flagged** (their handles' ``goal_at_risk``) and granted
   their best-effort peak.  Cold executions (estimators not ready yet)
   are guaranteed one worker each — the paper's LP-1 cold start as a
   floor.
3. **Weighted fair-share surplus**: whatever the guaranteed phase left
   over is divided across every execution that can still use workers
   (below its optimal LP / ``MaxLPGoal``) *in proportion to its weight*
   (``QoS.weight``, defaulting to the tenant's quota weight) by
   largest-remainder apportionment.  A starvation-free **decay** ages the
   weights of executions that wanted surplus but received none.  The
   aging clock is **virtual time**: the effective weight doubles per
   ``starvation_unit`` seconds starved on the platform clock, so the
   fairness horizon is independent of how densely analysis ticks (and
   therefore rebalances) arrive.

Analysis is pulled, not recomputed: every rebalance asks each
execution's :class:`~repro.core.analysis.ExecutionAnalyzer` for a
report, and the reports ride the per-execution
:class:`~repro.core.planning.PlanEngine` — projections are reused for
executions with no new events, and the minimal/optimal-LP queries below
resolve against cached plans instead of re-running schedules from
scratch per tick.

Execution happens through two platform knobs: the global level of
parallelism (``set_parallelism``, total pool size) and the per-execution
worker shares (``set_shares``) that the pool schedulers enforce when
picking tasks.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..core.analysis import AnalysisReport, ExecutionAnalyzer
from ..runtime.platform import Platform

__all__ = ["Rebalance", "LPArbiter"]

#: Cap on the starvation-aging exponent (2**32 dwarfs any real weight
#: ratio; the cap only guards float overflow under endless pressure).
_MAX_STARVED_ROUNDS = 32


@dataclass
class Rebalance:
    """One arbitration outcome, for observability and tests."""

    time: float
    trigger: str
    shares: Dict[int, int]  # execution id -> granted worker share
    total_lp: int  # global LP applied to the platform
    cold: Tuple[int, ...] = ()  # executions still waiting for estimates
    infeasible: Tuple[int, ...] = ()  # executions whose goal is at risk
    deadlines: Dict[int, Optional[float]] = field(default_factory=dict)
    #: Guaranteed phase of each grant (minimal deadline-meeting LP, or the
    #: one-worker floor) — what admission treats as committed budget.
    committed: Dict[int, int] = field(default_factory=dict)
    weights: Dict[int, float] = field(default_factory=dict)
    priorities: Dict[int, int] = field(default_factory=dict)


class LPArbiter:
    """Global Plan + Execute across all live executions (see module docs).

    Parameters
    ----------
    platform:
        The shared platform whose workers are being split.
    capacity:
        Total worker budget (defaults to the platform's
        ``max_parallelism``; one of the two must be set).
    min_interval:
        Throttle: skip rebalances closer than this many platform-clock
        seconds to the previous one (completions always rebalance).
    starvation_base:
        Aging base of the fair-share decay: a starved execution competes
        with weight ``weight * starvation_base**k``, where *k* is the
        seconds it has starved on the platform clock divided by
        ``starvation_unit`` — tick-density independent, so a storm of
        fine-grained events cannot fast-forward fairness and a sparse
        workload cannot stall it.  1.0 disables aging.
    starvation_unit:
        Seconds of starvation per doubling (default 1.0).
    history:
        How many recent :class:`Rebalance` records to retain for
        observability (:attr:`rebalances`, :meth:`shares_history`).  A
        long-lived service rebalances millions of times; the bounded
        window keeps memory flat.
    """

    def __init__(
        self,
        platform: Platform,
        capacity: Optional[int] = None,
        min_interval: float = 0.0,
        starvation_base: float = 2.0,
        starvation_unit: float = 1.0,
        history: int = 1024,
    ):
        capacity = capacity if capacity is not None else platform.max_parallelism
        if capacity is None or capacity < 1:
            raise ValueError(
                "LPArbiter needs a worker budget: pass capacity or give the "
                "platform a max_parallelism"
            )
        if starvation_base < 1.0:
            raise ValueError(
                f"starvation_base must be >= 1.0, got {starvation_base}"
            )
        if starvation_unit <= 0.0:
            raise ValueError(
                f"starvation_unit must be > 0, got {starvation_unit}"
            )
        self.platform = platform
        self.capacity = int(capacity)
        self.min_interval = min_interval
        self.starvation_base = float(starvation_base)
        self.starvation_unit = float(starvation_unit)
        self.rebalances: Deque[Rebalance] = deque(maxlen=history)
        #: Optional hook called after every *applied* rebalance with the
        #: outcome and the live execution ids in arbitration-input order
        #: (dict insertion order matters: stable sorts break allocation
        #: ties by it).  The durability layer's run recorder uses this to
        #: capture a replayable rebalance schedule.  Called under the
        #: arbiter lock — hooks must not re-enter the arbiter.
        self.on_rebalance: Optional[
            Callable[[Rebalance, Tuple[int, ...]], None]
        ] = None
        self._last: Optional[float] = None
        #: execution id -> (consecutive passed-over rounds, time first
        #: passed over): the aging clock reads the time, the round count
        #: is observability (:meth:`starved_rounds`).
        self._starved: Dict[int, Tuple[int, float]] = {}
        #: execution id -> (analyzer, cap, weight, priority): the
        #: scheduling class, resolved at an execution's first rebalance.
        self._classes: Dict[
            int, Tuple[ExecutionAnalyzer, Optional[int], float, int]
        ] = {}
        self._lock = threading.Lock()

    # -- arbitration ------------------------------------------------------------

    def due(self, now: float) -> bool:
        """Cheap lock-free throttle pre-check for hot event paths.

        May spuriously return ``True`` under a concurrent rebalance (the
        locked check in :meth:`rebalance` is authoritative); it never
        spuriously returns ``False`` for a tick that should run.
        """
        last = self._last
        return (
            self.min_interval <= 0
            or last is None
            or now - last >= self.min_interval
        )

    def rebalance(
        self,
        now: float,
        analyzers: Dict[int, ExecutionAnalyzer],
        trigger: str = "",
        force: bool = False,
    ) -> Optional[Rebalance]:
        """Re-split the worker budget across *analyzers* (id -> analyzer).

        Returns the applied :class:`Rebalance`, or ``None`` when throttled
        or nothing is live.  Thread-safe; concurrent callers serialize.
        """
        with self._lock:
            if (
                not force
                and self._last is not None
                and self.min_interval > 0
                and now - self._last < self.min_interval
            ):
                return None
            if not analyzers:
                self._starved.clear()
                self._classes.clear()
                self.platform.set_shares({})
                return None
            self._last = now
            outcome = self._allocate(now, analyzers, trigger)
            self.platform.set_parallelism(outcome.total_lp)
            self.platform.set_shares(outcome.shares)
            self.rebalances.append(outcome)
            if self.on_rebalance is not None:
                self.on_rebalance(outcome, tuple(analyzers.keys()))
            return outcome

    # -- per-execution scheduling class -----------------------------------------
    # Fixed for an execution's lifetime (the service stamps it at submit
    # time), so _allocate resolves it once per execution, not per rebalance.

    @staticmethod
    def _qos_cap(analyzer: ExecutionAnalyzer) -> Optional[int]:
        """The tenant's own LP ceiling (``MaxLPGoal``), if any."""
        qos = getattr(analyzer, "qos", None)
        return qos.max_threads if qos is not None else None

    @staticmethod
    def _weight_of(analyzer: ExecutionAnalyzer) -> float:
        """Fair-share weight: service-resolved attribute, else QoS, else 1.

        The service stamps ``share_weight`` on each analyzer at submit
        time (QoS override or the tenant's quota weight); bare analyzers
        fall back to their QoS so the arbiter works stand-alone.
        """
        weight = getattr(analyzer, "share_weight", None)
        if weight is None:
            qos = getattr(analyzer, "qos", None)
            weight = getattr(qos, "weight", None) if qos is not None else None
        return float(weight) if weight is not None and weight > 0 else 1.0

    @staticmethod
    def _priority_of(analyzer: ExecutionAnalyzer) -> int:
        """Preemption class: service-resolved attribute, else QoS, else 0."""
        priority = getattr(analyzer, "share_priority", None)
        if priority is None:
            qos = getattr(analyzer, "qos", None)
            priority = getattr(qos, "priority", 0) if qos is not None else 0
        return int(priority)

    def _aged_weight(self, eid: int, weight: float, now: float) -> float:
        """Effective fair-share weight after starvation aging.

        The exponent is seconds starved over ``starvation_unit``,
        capped against float overflow.
        """
        if self.starvation_base <= 1.0:
            return weight
        entry = self._starved.get(eid)
        if entry is None:
            return weight
        exponent = (now - entry[1]) / self.starvation_unit
        exponent = min(max(exponent, 0.0), _MAX_STARVED_ROUNDS)
        if exponent <= 0.0:
            return weight
        return weight * self.starvation_base**exponent

    # -- allocation -------------------------------------------------------------

    def _allocate(
        self, now: float, analyzers: Dict[int, ExecutionAnalyzer], trigger: str
    ) -> Rebalance:
        cold: List[int] = []
        warm: List[Tuple[int, AnalysisReport]] = []
        caps: Dict[int, Optional[int]] = {}
        weights: Dict[int, float] = {}
        priorities: Dict[int, int] = {}
        classes = self._classes
        for eid, analyzer in analyzers.items():
            resolved = classes.get(eid)
            if resolved is None or resolved[0] is not analyzer:
                resolved = classes[eid] = (
                    analyzer,
                    self._qos_cap(analyzer),
                    self._weight_of(analyzer),
                    self._priority_of(analyzer),
                )
            _analyzer, caps[eid], weights[eid], priorities[eid] = resolved
            report = analyzer.analyze(now)
            if report is None:
                cold.append(eid)
            else:
                warm.append((eid, report))

        # Guaranteed phase order: priority class first, then earliest
        # effective deadline; best-effort (deadline-less) tenants after
        # every deadline-bound one of their class.
        warm.sort(
            key=lambda pair: (
                -priorities[pair[0]],
                pair[1].deadline is None,
                pair[1].deadline or 0.0,
            )
        )
        cold.sort(key=lambda eid: (-priorities[eid], eid))

        shares: Dict[int, int] = {eid: 1 for eid in cold}
        deadlines: Dict[int, Optional[float]] = {eid: None for eid in cold}
        infeasible: List[int] = []
        budget = self.capacity - len(cold)

        remaining = len(warm)
        for eid, report in warm:
            remaining -= 1
            # Reserve one worker for every lower-ranked execution still to
            # be served, so urgency never turns into starvation; honour
            # the tenant's own MaxLPGoal ("never allocate more than N").
            available = max(1, budget - remaining)
            if caps[eid] is not None:
                available = min(available, caps[eid])
            deadlines[eid] = report.deadline
            if report.deadline is None:
                grant = 1  # best-effort floor; the surplus may top it up
            else:
                need = report.minimal_lp(cap=available)
                if need is None:
                    # Unreachable even with everything we can offer: flag
                    # it and give its best-effort peak (closest we get).
                    infeasible.append(eid)
                    grant = report.lp_ceiling(available)
                else:
                    grant = need
            grant = max(1, min(grant, available))
            shares[eid] = grant
            budget -= grant
        committed = dict(shares)

        # Surplus phase: divide the leftover budget across every
        # execution that can still use workers, proportionally to its
        # (starvation-aged) weight.  Ceilings: the optimal LP for warm
        # executions (beyond the best-effort peak extra workers idle, so
        # handing them out would break work conservation elsewhere), the
        # whole budget for cold ones (their LP-1 start is a floor, not a
        # ceiling — an idle pool must not serialize a submission just
        # because its estimators are not warm yet); MaxLPGoal always caps.
        # A warm ceiling runs no best-effort pass while the report's peak
        # floor already reaches the capacity or cap it is clamped to.
        order = [eid for eid, _report in warm] + cold
        if budget > 0:
            ceilings: Dict[int, int] = {}
            for eid, report in warm:
                ceilings[eid] = max(1, report.lp_ceiling(self._cap(caps[eid])))
            for eid in cold:
                ceilings[eid] = self._cap(caps[eid])
            aged = {
                eid: self._aged_weight(eid, weights[eid], now) for eid in order
            }
            self._split_surplus(budget, order, shares, ceilings, aged)
            # Age the weights of executions that wanted surplus but
            # received none; reset as soon as one worker flows their way.
            # Rounds with no surplus at all leave the counters untouched:
            # nobody was passed over, so aging there would let long-lived
            # tenants bank a 2**k head start over newcomers for free.
            for eid in order:
                if shares[eid] < ceilings[eid] and shares[eid] <= committed[eid]:
                    rounds, since = self._starved.get(eid, (0, now))
                    self._starved[eid] = (
                        min(rounds + 1, _MAX_STARVED_ROUNDS),
                        since,
                    )
                else:
                    self._starved.pop(eid, None)
        for eid in list(self._starved):
            if eid not in analyzers:
                del self._starved[eid]
        if len(classes) > len(analyzers):
            for eid in [eid for eid in classes if eid not in analyzers]:
                del classes[eid]

        total = min(self.capacity, sum(shares.values()))
        return Rebalance(
            time=now,
            trigger=trigger,
            shares=shares,
            total_lp=max(1, total),
            cold=tuple(cold),
            infeasible=tuple(infeasible),
            deadlines=deadlines,
            committed=committed,
            weights=weights,
            priorities=priorities,
        )

    def _cap(self, cap: Optional[int]) -> int:
        """The most workers one execution may hold: the capacity, or the
        tenant's ``MaxLPGoal`` when lower (never below one)."""
        return max(1, self.capacity if cap is None else min(self.capacity, cap))

    @staticmethod
    def _split_surplus(
        budget: int,
        order: List[int],
        shares: Dict[int, int],
        ceilings: Dict[int, int],
        weights: Dict[int, float],
    ) -> int:
        """Weight-proportional largest-remainder split of *budget*.

        Mutates *shares* in place; returns the undistributable remainder
        (non-zero only when every execution reached its ceiling).  Water-
        fills: budget a capped execution cannot absorb flows to the rest,
        re-divided by weight each round, so the final split matches exact
        proportionality within one worker for uncapped executions.
        """
        while budget > 0:
            eligible = [eid for eid in order if shares[eid] < ceilings[eid]]
            if not eligible:
                return budget
            total_weight = sum(weights[eid] for eid in eligible)
            round_budget = budget
            remainders: List[Tuple[float, int, int]] = []
            for position, eid in enumerate(eligible):
                exact = round_budget * weights[eid] / total_weight
                take = min(int(exact), ceilings[eid] - shares[eid])
                shares[eid] += take
                budget -= take
                remainders.append((exact - int(exact), -position, eid))
            # Largest-remainder pass: at most one extra worker each, by
            # descending fractional quota, ties in guaranteed-phase
            # order.  Guarantees progress even when every integer quota
            # was zero, so the outer loop (re-dividing what ceilings
            # could not absorb) always terminates.
            for _frac, _negpos, eid in sorted(remainders, reverse=True):
                if budget <= 0:
                    break
                if shares[eid] < ceilings[eid]:
                    shares[eid] += 1
                    budget -= 1
        return 0

    # -- introspection ----------------------------------------------------------

    @property
    def last_rebalance(self) -> Optional[Rebalance]:
        with self._lock:
            return self.rebalances[-1] if self.rebalances else None

    def starved_rounds(self, execution_id: int) -> int:
        """Consecutive rebalances *execution_id* wanted surplus in vain."""
        with self._lock:
            entry = self._starved.get(execution_id)
        return entry[0] if entry is not None else 0

    def starved_seconds(
        self, execution_id: int, now: Optional[float] = None
    ) -> float:
        """Platform-clock seconds *execution_id* has starved for surplus.

        0.0 when it is not currently starved.  *now* defaults to the
        platform clock; pass the rebalance time for exact accounting.
        """
        with self._lock:
            entry = self._starved.get(execution_id)
        if entry is None:
            return 0.0
        if now is None:
            now = self.platform.now()
        return max(0.0, now - entry[1])

    def shares_history(self, execution_id: int) -> List[int]:
        """Granted share of one execution across all rebalances it was in."""
        with self._lock:
            return [
                r.shares[execution_id]
                for r in self.rebalances
                if execution_id in r.shares
            ]
