"""The autonomic controller — the paper's self-configuration /
self-optimization loop.

A MAPE loop over the event stream of a running skeleton:

* **Monitor** — the :class:`~repro.core.statemachines.MachineRegistry`
  consumes every event, updating estimators and the live execution state;
* **Analyze** — on analysis points (AFTER events of muscles), once every
  muscle has at least one observation (or the estimators were
  warm-initialized), project the ADG into a report from which (a) the
  best-effort WCT and optimal LP, (b) the WCT under the current LP are
  derived when read;
* **Plan** — compare against the QoS deadline: if the current LP misses
  it, pick a higher LP (policy below); if half the current LP would still
  meet it, halve (the paper: "first checks if the goal could be targeted
  using half of threads, if it can, it decreases the number of threads to
  the half" — which is why Skandium "does not reduce the LP as fast as it
  increases it").  **Bounds first**: both tests are
  :meth:`~repro.core.analysis.AnalysisReport.meets`, where the work bound
  rejects an LP, Graham's list-scheduling bound accepts one, and only an
  LP between the two pays a schedule pass — the answer is the pass's
  either way.  Exact WCTs are computed for the reason of an applied
  change, and for a :class:`Decision`'s fields when they are read;
* **Execute** — apply the new LP to the platform, live.

Monitor and Analyze live in :class:`~repro.core.analysis.ExecutionAnalyzer`
(one per execution, reusable on a shared multi-tenant platform where the
service's :class:`~repro.service.arbiter.LPArbiter` owns actuation); this
class adds the single-tenant Plan + Execute policies on top.

Increase policies:

* ``"minimal"`` (default) — the smallest LP whose greedy limited-LP
  schedule meets the deadline (the paper's worked example: at WCT 70 with
  goal 100, limited-LP(2) = 115 misses, so "Skandium will autonomically
  increase LP to 3" — and 3 is exactly the smallest LP meeting 100 there).
  Falls back to the optimal LP (best-effort peak) when no LP meets the
  deadline.
* ``"optimal"`` — jump straight to the optimal LP whenever the current LP
  misses the deadline (more aggressive; used by the ablation bench).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence

from ..errors import QoSError
from ..events.bus import Listener
from ..events.types import Event
from ..runtime.platform import Platform
from ..skeletons.base import Skeleton
from .analysis import AnalysisReport, ExecutionAnalyzer, is_analysis_point
from .estimator import EstimatorRegistry
from .qos import QoS

__all__ = ["Decision", "AutonomicController"]

_UNREAD = object()

#: The fields of a :class:`Decision`, in the order ``repr`` shows them.
_FIELDS = (
    "time",
    "trigger",
    "lp_before",
    "lp_after",
    "wct_best_effort",
    "wct_current_lp",
    "optimal_lp",
    "deadline",
    "action",
    "reason",
)


class Decision:
    """One analysis outcome, for observability and the benches.

    A value of ten fields: ``==`` compares them all and ``repr`` shows
    them all.  ``time``, ``lp_before`` and ``deadline`` are the report's;
    the three quantities the controller decides without —
    ``wct_best_effort``, ``wct_current_lp`` and ``optimal_lp`` — are
    derived on first read from the decision's
    :class:`~repro.core.analysis.AnalysisReport`, at its ``(rev, time)``,
    so they read the same however long after the decision they are
    read.  Until all three have been read the decision retains that
    report, and with it one plan table snapshot (about 25 B per row of
    the projected graph); the third read drops it.
    """

    __slots__ = (
        "time",
        "trigger",
        "lp_before",
        "lp_after",
        "deadline",
        "action",
        "reason",
        "_report",
        "_wct_best_effort",
        "_wct_current_lp",
        "_optimal_lp",
    )

    def __init__(
        self,
        report: AnalysisReport,
        trigger: str,
        lp_after: int,
        action: str,  # "increase" | "decrease" | "hold" | "unreachable"
        reason: str = "",
    ):
        self.time = report.time
        self.trigger = trigger
        self.lp_before = report.current_lp
        self.lp_after = lp_after
        self.deadline = report.deadline
        self.action = action
        self.reason = reason
        self._report = report
        self._wct_best_effort = self._wct_current_lp = self._optimal_lp = _UNREAD

    def _derived(self, slot: str, name: str):
        """The report's *name*, read once into *slot*; the report is
        dropped once all three slots hold their value."""
        value = getattr(self, slot)
        if value is _UNREAD:
            report = self._report
            if report is None:  # another thread read the last one
                return getattr(self, slot)
            value = getattr(report, name)
            setattr(self, slot, value)
            if _UNREAD not in (
                self._wct_best_effort, self._wct_current_lp, self._optimal_lp
            ):
                self._report = None
        return value

    @property
    def wct_best_effort(self) -> float:
        return self._derived("_wct_best_effort", "wct_best_effort")

    @property
    def wct_current_lp(self) -> float:
        return self._derived("_wct_current_lp", "wct_current_lp")

    @property
    def optimal_lp(self) -> int:
        return self._derived("_optimal_lp", "optimal_lp")

    @property
    def changed(self) -> bool:
        return self.lp_after != self.lp_before

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in _FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # mutable, so unhashable

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(_FIELDS, self._values())
        )
        return f"Decision({fields})"


class AutonomicController(Listener):
    """Self-configuring / self-optimizing LP controller (see module docs).

    Parameters
    ----------
    platform:
        The platform whose parallelism is tuned.  The controller registers
        itself on the platform's event bus.
    skeleton:
        Optional: validate up front that the program contains only
        patterns the autonomic layer supports.
    qos:
        The goal(s): a WCT goal and/or a maximum LP.
    rho:
        Weight of the latest observation in the history estimators
        (paper default 0.5).
    increase_policy:
        ``"minimal"`` or ``"optimal"`` (see module docstring).
    decrease_policy:
        ``"halving"`` (paper) or ``"none"`` (never shrink — ablation).
    extensions:
        Allow If/Fork tracking (off by default, as in the paper).
    execution_id:
        When given, the controller only monitors that execution's events
        (scoped operation on a shared bus); default observes everything
        on the platform, as the paper's single-tenant Skandium did.
    """

    def __init__(
        self,
        platform: Platform,
        skeleton: Optional[Skeleton] = None,
        qos: Optional[QoS] = None,
        rho: float = 0.5,
        increase_policy: str = "minimal",
        decrease_policy: str = "halving",
        extensions: bool = False,
        estimators: Optional[EstimatorRegistry] = None,
        execution_id: Optional[int] = None,
    ):
        if qos is None:
            raise QoSError("AutonomicController needs a QoS specification")
        if increase_policy not in ("minimal", "optimal"):
            raise QoSError(f"unknown increase policy {increase_policy!r}")
        if decrease_policy not in ("halving", "none"):
            raise QoSError(f"unknown decrease policy {decrease_policy!r}")
        self.platform = platform
        self.qos = qos
        self.analyzer = ExecutionAnalyzer(
            qos=qos,
            execution_id=execution_id,
            skeleton=skeleton,
            rho=rho,
            estimators=estimators,
            extensions=extensions,
        )
        self.increase_policy = increase_policy
        self.decrease_policy = decrease_policy
        self.decisions: List[Decision] = []
        self._lock = threading.RLock()
        self._attached = False
        # Effective LP ceiling: intersect the QoS max with the platform max.
        self._max_lp = self._effective_max_lp()
        self.attach()

    # -- delegation to the per-execution analyzer --------------------------------

    @property
    def estimators(self) -> EstimatorRegistry:
        return self.analyzer.estimators

    @property
    def machines(self):
        return self.analyzer.machines

    def validate(self, skeleton: Skeleton) -> None:
        """Reject programs containing paper-unsupported patterns."""
        self.analyzer.validate(skeleton)

    def initialize_estimates(self, skeleton: Skeleton, snapshot: Dict[str, Any]) -> None:
        """Warm-start ``t(m)`` / ``|m|`` from a previous run's snapshot.

        See :mod:`repro.core.persistence` for producing snapshots.  With
        warm estimates the first analysis can react before every muscle
        has run once — the paper's scenario 2, where the LP rises right
        after the first (I/O-bound) split instead of after the first
        merge.
        """
        self.analyzer.initialize_estimates(skeleton, snapshot)

    # -- setup -----------------------------------------------------------------

    def _effective_max_lp(self) -> Optional[int]:
        caps = [
            c
            for c in (self.qos.max_threads, self.platform.max_parallelism)
            if c is not None
        ]
        return min(caps) if caps else None

    def attach(self) -> None:
        """Register on the platform's bus (idempotent)."""
        if not self._attached:
            self.platform.add_listener(self)
            self._attached = True

    def detach(self) -> None:
        if self._attached:
            self.platform.bus.remove_listener(self)
            self._attached = False

    # -- Listener API ----------------------------------------------------------------

    def accepts(self, event: Event) -> bool:
        return self.analyzer.accepts(event)

    def on_event(self, event: Event) -> Any:
        # Monitor: the analyzer's machine registry sees every event first.
        self.analyzer.observe(event)
        # Analyze on muscle-completion analysis points — unless the
        # execution still waits for an estimate, asked before the clock,
        # the lock and the platform are touched.
        if is_analysis_point(event) and not self.analyzer.cold:
            self._maybe_analyze(event)
        return event.value

    def on_batch(self, events: Sequence[Event]) -> None:
        """A batch without an analysis point (a fan-out's control
        markers) is monitored under one registry lock; any other is
        delivered event by event, each analysis point seeing exactly the
        events before it."""
        if any(map(is_analysis_point, events)):
            super().on_batch(events)
        else:
            self.analyzer.on_batch(events)

    # -- analysis ----------------------------------------------------------------------

    def _maybe_analyze(self, trigger: Event) -> None:
        if self.qos.wct is None:
            return  # nothing to plan for; max LP is enforced by clamping
        now = self.platform.now()
        with self._lock:
            report = self.analyzer.analyze(
                now, current_lp=self.platform.get_parallelism()
            )
            if report is not None:
                self._plan_and_execute(report, trigger)

    def _plan_and_execute(self, report: AnalysisReport, trigger: Event) -> None:
        """Plan against the deadline and apply the LP change (if any).

        Both tests are :meth:`AnalysisReport.meets`, which the work bound
        and Graham's bound mostly decide without a schedule pass; an
        exact WCT is computed only for the reason of an applied change.
        *trigger* is the analysis point itself: its label is formatted
        only here, for the recorded :class:`Decision` — most analysis
        points of a cold or finished execution never get this far.
        """
        deadline = report.deadline
        current_lp = report.current_lp
        lp_after = current_lp
        action = "hold"
        reason = ""
        if not report.meets(current_lp):
            # The current LP misses the goal: self-optimize upward.
            target = self._pick_increase(report)
            if target > current_lp:
                reason = (
                    f"limited-LP({current_lp}) WCT {report.wct_current_lp:.3f} "
                    f"misses deadline {deadline:.3f}"
                )
                lp_after = self.platform.set_parallelism(target)
                action = "increase"
            else:
                action = "unreachable"
                reason = (
                    f"no LP <= {self._max_lp or 'inf'} meets deadline "
                    f"{deadline:.3f}; best effort {report.wct_best_effort:.3f}"
                )
        elif self.decrease_policy == "halving" and current_lp > 1:
            # Goal is safe: can we do it with half the threads?
            half = current_lp // 2
            if report.meets(half):
                reason = (
                    f"limited-LP({half}) WCT {report.wct_at(half):.3f} still "
                    f"meets deadline {deadline:.3f}"
                )
                lp_after = self.platform.set_parallelism(half)
                action = "decrease"
        self.decisions.append(
            Decision(
                report,
                trigger=trigger.label,
                lp_after=lp_after,
                action=action,
                reason=reason,
            )
        )

    def _pick_increase(self, report: AnalysisReport) -> int:
        current_lp = report.current_lp
        if self.increase_policy == "minimal":
            found = report.minimal_lp(cap=self._max_lp, start_lp=current_lp + 1)
            if found is not None:
                return found
        # The optimal policy, or nothing meets the deadline: allocate the
        # best-effort peak (the closest we can get), clamped by the cap.
        cap = self._max_lp
        ceiling = report.optimal_lp if cap is None else report.lp_ceiling(cap)
        return max(current_lp, ceiling)

    # -- reporting -----------------------------------------------------------------------

    def changed_decisions(self) -> List[Decision]:
        """Only the decisions that actually changed the LP."""
        return [d for d in self.decisions if d.changed]

    def first_increase(self) -> Optional[Decision]:
        for d in self.decisions:
            if d.action == "increase" and d.changed:
                return d
        return None

    def summary(self) -> Dict[str, Any]:
        """Compact run summary used by the bench harness."""
        increases = [d for d in self.decisions if d.action == "increase" and d.changed]
        decreases = [d for d in self.decisions if d.action == "decrease" and d.changed]
        return {
            "analyses": len(self.decisions),
            "increases": len(increases),
            "decreases": len(decreases),
            "first_increase_time": increases[0].time if increases else None,
            "max_lp_set": max((d.lp_after for d in self.decisions), default=None),
        }
