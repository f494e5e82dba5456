"""Admission control — the service's front gate.

Every submission is evaluated before any of its tasks reach the shared
platform.  Three outcomes:

* **admit** — start running now;
* **hold** — park in the service's FIFO queue until capacity or a tenant
  slot frees (the submission stays ``QUEUED`` on its handle);
* **reject** — refuse outright; the handle resolves with
  :class:`~repro.errors.AdmissionError`.

Two feasibility gates connect admission to the paper's machinery.  Both
need a WCT goal **and** warm estimates (the paper's scenario-2
initialization — see ``warm_start`` on :meth:`SkeletonService.submit`);
cold submissions are admitted optimistically, exactly like the paper's
scenario-1 cold start.

* The **capacity gate** schedules the program's structural plan
  (:meth:`~repro.core.planning.PlanEngine.structural_plan`) under the
  service's *full* capacity.  If even that dedicated best case misses the
  goal, no arbitration can save it — waiting does not help either, so the
  submission is rejected immediately rather than admitted to fail slowly.
* The **load gate** (beyond an idle-machine check) projects against the
  workers the arbiter could actually hand the submission *right now*:
  capacity minus the budget committed to live executions of the same or
  a higher priority class (lower classes count only their preemption-
  proof one-worker floor).  A goal feasible on an idle machine but not
  under the current load is *held* until completions or progress free
  enough committed budget (or rejected, under the ``reject`` policy) —
  admitting it would guarantee a slow miss that EEDF alone cannot avoid.

Both gates plan through the submission's
:class:`~repro.core.planning.PlanEngine`, which holds its program and
estimators: the structural plan is compiled once per program shape and
estimate values, and scheduled at ``start=0.0`` — arithmetic that
depends only on the program shape and the current estimates, never on
the clock.  Re-evaluating a held queue therefore costs plan-cache
lookups until an estimate actually changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.planning import CompiledProjection, PlanEngine
from ..core.qos import QoS
from .tenancy import TenantBook

__all__ = ["AdmissionDecision", "AdmissionController"]

_EPS = 1e-9

ADMIT = "admit"
HOLD = "hold"
REJECT = "reject"


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission evaluation."""

    action: str  # "admit" | "hold" | "reject"
    reason: str = ""
    #: True when the load gate (not a quota/max_live start blocker) is
    #: among the reasons a held submission cannot start — the case the
    #: backfill reservation protects against.
    load_blocked: bool = False

    @property
    def admitted(self) -> bool:
        return self.action == ADMIT

    @property
    def held(self) -> bool:
        return self.action == HOLD

    @property
    def rejected(self) -> bool:
        return self.action == REJECT


class AdmissionController:
    """Queueing policy + per-tenant caps + WCT feasibility gates.

    Parameters
    ----------
    capacity:
        Total workers of the shared platform; the LP the capacity-gate
        projection assumes the execution could get at best.
    tenants:
        The :class:`TenantBook` tracking per-tenant quotas and counters
        (shared with the owning service, mutated under the service lock).
    policy:
        What to do with a submission that cannot start *right now* but
        could later (tenant active cap reached, global ``max_live``
        reached, goal infeasible under the current load): ``"hold"``
        queues it, ``"reject"`` refuses it.  Goals infeasible even on an
        idle machine are always rejected — waiting cannot make an
        impossible deadline possible.
    max_live:
        Optional global bound on concurrently running executions
        (``None``: bounded only by worker shares and tenant quotas).
    """

    def __init__(
        self,
        capacity: int,
        tenants: Optional[TenantBook] = None,
        policy: str = HOLD,
        max_live: Optional[int] = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if policy not in (HOLD, REJECT):
            raise ValueError(f"unknown admission policy {policy!r}")
        if max_live is not None and max_live < 1:
            raise ValueError(f"max_live must be >= 1 or None, got {max_live}")
        self.capacity = capacity
        self.tenants = tenants or TenantBook()
        self.policy = policy
        self.max_live = max_live

    # -- feasibility ------------------------------------------------------------

    @staticmethod
    def _project(
        qos: Optional[QoS], engine: PlanEngine
    ) -> Optional[CompiledProjection]:
        """Structural plan both gates schedule against, from the
        submission's plan cache.  ``None`` when no gate applies (no WCT
        goal) or the estimates are cold (admit optimistically, as in the
        paper)."""
        if qos is None or qos.wct is None:
            return None
        return engine.structural_plan()

    def _dedicated_lp(self, qos: QoS) -> int:
        """The LP the capacity gate assumes: full capacity, MaxLPGoal-capped."""
        if qos.max_threads is not None:
            return min(self.capacity, qos.max_threads)
        return self.capacity

    def _goal_infeasible(
        self,
        qos: Optional[QoS],
        projection: Optional[CompiledProjection],
        engine: PlanEngine,
    ) -> Optional[str]:
        """Reason string when the WCT goal is predicted unreachable."""
        if projection is None:
            return None
        lp_cap = self._dedicated_lp(qos)
        predicted = engine.limited(projection, 0.0, lp_cap).wct
        goal = qos.wct.effective_seconds
        if predicted > goal + _EPS:
            return (
                f"WCT goal {qos.wct.seconds:.3f}s is infeasible: projected "
                f"WCT is {predicted:.3f}s even with all {lp_cap} workers "
                f"dedicated to it"
            )
        return None

    def usable_lp(self, qos: Optional[QoS], available_lp: int) -> int:
        """Workers the load gate would project with: the available budget
        floored at one and capped by the submission's own ``MaxLPGoal``."""
        usable = max(1, available_lp)
        if qos is not None and qos.max_threads is not None:
            usable = min(usable, qos.max_threads)
        return usable

    def _load_blocker(
        self,
        qos: Optional[QoS],
        projection: Optional[CompiledProjection],
        available_lp: Optional[int],
        engine: PlanEngine,
        reserved: int,
    ) -> Optional[str]:
        """Reason the goal cannot be met under the *current* load.

        ``None`` when the gate does not apply (no goal, cold
        estimates, unknown load) or the goal fits the available budget.
        *available_lp* arrives with the held-queue head's backfill
        reservation already subtracted; *reserved* says how much, so a
        reservation that consumed the whole budget blocks outright —
        without it the one-worker floor below would let every tiny goal
        keep backfilling past the held head.
        """
        if available_lp is None or projection is None:
            return None
        if reserved > 0 and available_lp < 1:
            return (
                f"{reserved} worker(s) reserved for the held queue head "
                f"leave no budget for this submission right now"
            )
        usable = self.usable_lp(qos, available_lp)
        if usable >= self._dedicated_lp(qos):
            # The verdict cannot differ from the capacity gate's (which
            # already passed): projected WCT is non-increasing in LP, so
            # scheduling at usable >= dedicated meets any goal the
            # dedicated projection met.  This also covers the floored
            # usable == dedicated == 1 case (MaxLPGoal(1) on a committed
            # machine): the capacity gate evaluated exactly LP 1 there.
            return None
        predicted = engine.limited(projection, 0.0, usable).wct
        goal = qos.wct.effective_seconds
        if predicted > goal + _EPS:
            return (
                f"WCT goal {qos.wct.seconds:.3f}s is infeasible under the "
                f"current load: projected WCT is {predicted:.3f}s on the "
                f"{usable} worker(s) this submission could get now"
            )
        return None

    # -- evaluation -------------------------------------------------------------

    def evaluate(
        self,
        qos: Optional[QoS],
        engine: PlanEngine,
        tenant: str,
        live_count: int,
        available_lp: Optional[int] = None,
        reserved: int = 0,
    ) -> AdmissionDecision:
        """Decide admit/hold/reject for one submission (service-locked).

        *engine* is the submission's plan engine: it holds the program
        and its estimators, and both gates run on its cached structural
        plan.  *available_lp* is the worker budget the arbiter could
        grant this submission right now (capacity minus same-or-higher-
        priority commitments and minus any backfill *reserved* workers;
        ``None`` = unknown, skips the load gate).
        """
        projection = self._project(qos, engine)
        infeasible = self._goal_infeasible(qos, projection, engine)
        if infeasible is not None:
            return AdmissionDecision(REJECT, infeasible)
        start_blocked = self._start_blocker(tenant, live_count)
        load_blocked = self._load_blocker(
            qos, projection, available_lp, engine, reserved
        )
        blocked = start_blocked or load_blocked
        if blocked is None:
            return AdmissionDecision(ADMIT)
        if self.policy == REJECT:
            return AdmissionDecision(REJECT, blocked)
        if not self.tenants.can_queue(tenant):
            return AdmissionDecision(
                REJECT,
                f"tenant {tenant!r} exceeded its pending quota "
                f"({self.tenants.quota_for(tenant).max_pending})",
            )
        return AdmissionDecision(
            HOLD, blocked, load_blocked=load_blocked is not None
        )

    def _start_blocker(self, tenant: str, live_count: int) -> Optional[str]:
        """Reason the submission cannot start now (``None`` = it can)."""
        if self.max_live is not None and live_count >= self.max_live:
            return f"service at its live-execution cap ({self.max_live})"
        if not self.tenants.can_start(tenant):
            return (
                f"tenant {tenant!r} at its active quota "
                f"({self.tenants.quota_for(tenant).max_active})"
            )
        return None

    def can_start_now(self, tenant: str, live_count: int) -> bool:
        """Start blockers only (quotas, ``max_live``) — the cheap half of
        the promotion check; the load gate is :meth:`load_allows`."""
        return self._start_blocker(tenant, live_count) is None

    def load_allows(
        self,
        qos: Optional[QoS],
        engine: PlanEngine,
        available_lp: Optional[int],
        reserved: int = 0,
    ) -> bool:
        """Re-run the load gate for a held submission.

        True when the goal fits the budget the arbiter could grant now
        (or the gate does not apply) — the expensive promotion half, paid
        only after :meth:`can_start_now` passed.  The structural plan and
        its schedules resolve against the shared plan cache, so a held
        queue re-evaluates at cache-lookup cost until an estimate
        changes."""
        projection = self._project(qos, engine)
        return (
            self._load_blocker(qos, projection, available_lp, engine, reserved)
            is None
        )

    def reservation_for(
        self, qos: Optional[QoS], engine: PlanEngine
    ) -> Optional[int]:
        """Admission-time minimal LP of a goal-carrying held submission.

        The worker count the backfill reservation protects for the held
        queue's head: the smallest LP meeting its WCT goal on an idle
        machine, straight from its (cached) structural plan.  ``None``
        when no goal, cold estimates, or no LP up to the dedicated cap
        meets the goal.
        """
        if qos is None or qos.wct is None:
            return None
        return engine.structural_minimal_lp(
            qos.wct.effective_seconds, cap=self._dedicated_lp(qos)
        )
