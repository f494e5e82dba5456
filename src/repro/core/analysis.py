"""Per-execution Monitor + Analyze — the front half of the MAPE loop.

The paper's :class:`~repro.core.controller.AutonomicController` fuses all
four MAPE stages for a single execution: it monitors the event stream,
analyzes the projected ADG, plans an LP change and executes it with
``platform.set_parallelism``.  On a shared multi-tenant platform that
fusion breaks down — N controllers would fight over one global knob.

This module factors the *per-execution* half into a reusable component:

* :class:`ExecutionAnalyzer` — a listener that **monitors** one (or all)
  execution's events through a private
  :class:`~repro.core.statemachines.MachineRegistry` + estimator registry,
  and on demand **analyzes**: projects the live ADG and derives the
  paper's quantities (best-effort WCT, optimal LP, WCT under a given LP);
* :class:`AnalysisReport` — one analysis outcome, carrying the projected
  ADG so *planners* (the controller's local policies, or the service's
  global LP arbiter) can evaluate hypothetical allocations without
  re-projecting.

Actuation — who calls ``set_parallelism`` and with what — stays with the
caller: the single-tenant controller applies its increase/halving policies
directly, while :class:`~repro.service.arbiter.LPArbiter` pools the
reports of all live executions and splits the platform's workers by
deadline urgency.

Scoping: pass ``execution_id`` to bind the analyzer to one execution on a
shared bus (its machines and estimators then never see another tenant's
events); leave it ``None`` for the classic whole-platform behaviour.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import StateMachineError
from ..events.batch import ANALYSIS_POINT_WHERE
from ..events.bus import Listener
from ..events.types import Event, When
from ..skeletons.base import Skeleton
from .adg import ADG
from .estimator import EstimatorRegistry
from .planning import PlanCache, PlanEngine
from .planning.table import (
    CompiledPinnedBase,
    CompiledSchedule,
    PlanTable,
    compiled_best_effort,
    compiled_critical_path,
    compiled_pin,
    compiled_schedule_pending,
)
from .qos import QoS
from .statemachines import UNSUPPORTED_KINDS, MachineRegistry

__all__ = ["AnalysisReport", "ExecutionAnalyzer", "ANALYSIS_WHERE", "is_analysis_point"]

#: AFTER events that trigger an analysis (muscle completions change the
#: ADG materially; BEFORE events and control markers do not).  Aliases
#: the single definition in :mod:`repro.events.batch`, which the event
#: layer's batch summaries use too.
ANALYSIS_WHERE = ANALYSIS_POINT_WHERE


_UNSET = object()


def is_analysis_point(event: Event) -> bool:
    """True when *event* is one of the paper's analysis points."""
    return event.when is When.AFTER and event.where in ANALYSIS_WHERE


class AnalysisReport:
    """One Monitor/Analyze outcome for one (set of) execution(s).

    Carries the projected ADG so planners can evaluate hypothetical LP
    allocations (:meth:`wct_at`, :meth:`meets`, :meth:`minimal_lp`)
    without paying the projection again.

    **Frozen at** ``(rev, time)``, the graph revision and the instant the
    report was built at: ``deadline`` and the paper's three derived
    quantities — ``wct_current_lp``, ``wct_best_effort`` and
    ``optimal_lp`` — and all that derives from them (``slack``,
    ``goal_at_risk``, ``remaining_best_effort``, :meth:`lp_ceiling`).
    The three are derived on first read and memoized; most reports are
    never asked for them, since the controller decides by :meth:`meets`.
    A report built with ``None`` for any of them keeps a snapshot of its
    plan table (:meth:`~repro.core.planning.table.PlanTable.snapshot`:
    the columns an in-place refresh rewrites are copied, about 25 B per
    row).  A read while the graph stands uses the engine's kept plans,
    checked and computed under the machine lock that a patch of the
    graph holds (:meth:`~repro.core.planning.PlanEngine.projection`);
    a read after the graph moved answers from the snapshot, for the
    graph as it was.  Values passed in are taken as they are.

    **Live**: :meth:`wct_at`, :meth:`meets` and :meth:`minimal_lp` plan
    on ``adg`` as it is when they are called.  Since the delta pipeline,
    a later analysis may patch the same ADG object in place, so a
    held-over report re-queried after newer events answers these from
    the newer actuals.  An analyzer hands the *same* report back for as
    long as nothing it was derived from moved (see
    :meth:`ExecutionAnalyzer.analyze`).
    """

    __slots__ = (
        "time",
        "execution_id",
        "deadline",
        "current_lp",
        "adg",
        "engine",
        "_wct",
        "_peak",
        "_wct_current",
        "_rev",
        "_table",
        "_base",
        "_schedule",
        "_minimal",
        "_minimal_rev",
    )

    def __init__(
        self,
        time: float,
        execution_id: Optional[int],
        deadline: Optional[float],
        current_lp: Optional[int],
        wct_best_effort: Optional[float],
        wct_current_lp: Optional[float],
        optimal_lp: Optional[int],
        adg: ADG,
        engine: PlanEngine,
    ):
        self.time = time
        self.execution_id = execution_id
        self.deadline = deadline
        self.current_lp = current_lp
        self.adg = adg
        #: The planning engine that built this report: hypothetical
        #: evaluations (:meth:`wct_at`, :meth:`meets`, :meth:`minimal_lp`)
        #: pull the plans it keeps on its record of ``adg`` instead of
        #: re-running schedules from scratch.
        self.engine = engine
        self._wct = wct_best_effort
        self._peak = optimal_lp
        self._wct_current = wct_current_lp
        self._rev = adg.rev
        self._table: Optional[PlanTable] = None
        if (
            wct_best_effort is None
            or optimal_lp is None
            or (wct_current_lp is None and current_lp is not None)
        ):
            self._table = engine.table(adg).snapshot()
        self._base: Optional[CompiledPinnedBase] = None
        self._schedule: Optional[CompiledSchedule] = None
        #: ``(cap, start_lp) -> minimal LP`` answers of the engine for the
        #: graph revision in ``_minimal_rev``: a report the analyzer serves
        #: again answers the arbiter's scan without entering the engine.
        self._minimal: Dict = {}
        self._minimal_rev = -1

    def _kept(self, plan, *args):
        """``plan(adg, time, *args)`` — one of the engine's kept plans —
        while they are this report's: the graph has not moved and the
        engine keeps what it computes; else ``None``, and the caller
        derives the value from the table snapshot.  The check and the
        call run under the machine lock, which a patch of the graph
        holds, so no patch lands between the two."""
        engine = self.engine
        with engine.machines.lock:
            if self.adg.rev == self._rev and engine.cache.maxsize > 0:
                return plan(self.adg, self.time, *args)
        return None

    def _pinned(self) -> CompiledPinnedBase:
        """The pinned base at ``(rev, time)`` — the engine's kept one,
        which the minimal-LP scans share, while the graph stands."""
        base = self._base
        if base is None:
            base = self._kept(self.engine.pinned)
            if base is None:
                base = compiled_pin(self._table, self.time)
            self._base = base
        return base

    def _best_effort(self) -> CompiledSchedule:
        """The best-effort schedule at ``(rev, time)``, derived once —
        the engine's kept plan, the one a minimal-LP scan reads its top
        from, while the graph stands."""
        schedule = self._schedule
        if schedule is None:
            schedule = self._kept(self.engine.best_effort)
            if schedule is None:
                schedule = self._snapshot_pass(None)
            self._schedule = schedule
        return schedule

    @property
    def wct_current_lp(self) -> Optional[float]:
        """WCT under the current LP (its limited-LP schedule); ``None``
        for a report built without a current LP."""
        wct = self._wct_current
        if wct is None and self.current_lp is not None:
            wct = self._kept(self.engine.wct_at, self.current_lp)
            if wct is None:
                wct = self._snapshot_pass(self.current_lp).wct
            self._wct_current = wct
        return wct

    def _snapshot_pass(self, lp: Optional[int]) -> CompiledSchedule:
        """The engine's pass at ``(rev, time)`` over the table snapshot:
        the best-effort one for ``lp=None``, else the *lp*-worker frontier
        pass (with a priority pair of its own), counted as the engine
        counts its passes."""
        table = self._table
        base = self._pinned()
        if base.to_schedule:
            self.engine.cache.count_schedule_pass()
        if lp is None:
            return compiled_best_effort(table, base)
        prio = compiled_critical_path(table)[1] if base.to_schedule else None
        return compiled_schedule_pending(table, self.time, lp, base, prio)

    @property
    def wct_best_effort(self) -> float:
        """WCT under infinite parallelism (the paper's best effort)."""
        if self._wct is None:
            self._wct = self._best_effort().wct
        return self._wct

    @property
    def optimal_lp(self) -> int:
        """Peak concurrency of the best-effort schedule from ``time`` on."""
        if self._peak is None:
            self._peak = self._best_effort().peak(from_time=self.time)
        return self._peak

    def lp_ceiling(self, k: int) -> int:
        """``min(optimal_lp, k)``, with no schedule pass while the pinned
        base's peak floor (a lower bound on the peak) reaches *k*."""
        if self._peak is None and self._pinned().peak_floor >= k:
            return k
        return min(self.optimal_lp, k)

    @property
    def remaining_best_effort(self) -> float:
        """Seconds of wall-clock left under infinite parallelism."""
        return max(0.0, self.wct_best_effort - self.time)

    @property
    def slack(self) -> Optional[float]:
        """Deadline minus best-effort WCT (negative = goal at risk)."""
        if self.deadline is None:
            return None
        return self.deadline - self.wct_best_effort

    @property
    def goal_at_risk(self) -> bool:
        """True when not even infinite parallelism meets the deadline."""
        return self.deadline is not None and self.wct_best_effort > self.deadline

    def wct_at(self, lp: int) -> float:
        """Projected WCT under a hypothetical level of parallelism."""
        return self.engine.wct_at(self.adg, self.time, lp)

    def meets(self, lp: int) -> bool:
        """``wct_at(lp) <= deadline + EPS`` (the report needs a deadline):
        ``False`` when the work bound ``time + W / lp`` misses it,
        ``True`` when Graham's bound ``U(lp)`` meets it, and one frontier
        pass only between the two (:meth:`~repro.core.planning.
        PlanEngine.meets`)."""
        return self.engine.meets(self.adg, self.time, self.deadline, lp)

    def minimal_lp(
        self, cap: Optional[int] = None, start_lp: int = 1
    ) -> Optional[int]:
        """Smallest LP (``>= start_lp``, ``<= cap``) meeting the deadline.

        ``None`` when the report has no deadline or no LP up to *cap*
        meets it (the greedy bracket of the paper's NP-complete problem).
        """
        if self.deadline is None:
            return None
        rev = self.adg.rev
        if rev != self._minimal_rev:
            self._minimal = {}
            self._minimal_rev = rev
        key = (cap, start_lp)
        answer = self._minimal.get(key, _UNSET)
        if answer is _UNSET:
            engine = self.engine
            answer = engine.minimal_lp(
                self.adg, self.time, self.deadline, cap=cap, start_lp=start_lp
            )
            if engine.cache.maxsize:  # 0 is the from-scratch baseline
                self._minimal[key] = answer
        return answer


class ExecutionAnalyzer(Listener):
    """Monitor + Analyze for one execution (or a whole platform).

    Parameters
    ----------
    qos:
        The execution's goal(s); the deadline in reports derives from its
        WCT goal and the observed execution start.  May be ``None`` for a
        best-effort tenant (reports then carry ``deadline=None``).
    execution_id:
        When given, :meth:`accepts` filters the shared bus down to this
        execution's events — the scoping that keeps tenants' estimators
        and live state from cross-contaminating.
    skeleton:
        Optional: validate up front that the program contains only
        patterns the autonomic layer supports.  Also enables the
        *structural* pre-start analysis: with warm estimates (the paper's
        scenario-2 initialization) an execution that has not produced a
        single event yet can still be analyzed by projecting the skeleton
        structure itself, so a global planner can grant it its real
        worker need at admission instead of a cold-start floor.
    rho / estimators / extensions:
        As in :class:`~repro.core.controller.AutonomicController`.
    plan_cache:
        Backing store for the analyzer's :class:`~repro.core.planning.
        PlanEngine` (``self.plan``).  The service shares one cache across
        every live execution and the admission path; stand-alone
        analyzers get a private one.  ``PlanCache(maxsize=0)`` is the
        from-scratch baseline: nothing is reused between calls.
    """

    def __init__(
        self,
        qos: Optional[QoS] = None,
        execution_id: Optional[int] = None,
        skeleton: Optional[Skeleton] = None,
        rho: float = 0.5,
        estimators: Optional[EstimatorRegistry] = None,
        extensions: bool = False,
        plan_cache: Optional[PlanCache] = None,
    ):
        self.qos = qos
        self.execution_id = execution_id
        self.skeleton = skeleton
        self.estimators = estimators or EstimatorRegistry(rho=rho)
        self.machines = MachineRegistry(self.estimators, extensions=extensions)
        self.plan = PlanEngine(
            self.machines, self.estimators, skeleton=skeleton, cache=plan_cache
        )
        self.exec_start: Dict[int, float] = {}  # root index -> start time
        self._cold_root = None  # a live root waiting for an estimate, see cold
        # (key, report, report.adg.rev when built): the last report, see analyze.
        self._last_report: Optional[Tuple[Tuple, AnalysisReport, int]] = None
        if skeleton is not None:
            self.validate(skeleton)

    # -- setup -----------------------------------------------------------------

    def validate(self, skeleton: Skeleton) -> None:
        """Reject programs containing paper-unsupported patterns."""
        if self.machines.extensions:
            return
        for node in skeleton.walk():
            if node.kind in UNSUPPORTED_KINDS:
                raise StateMachineError(
                    f"skeleton contains {node.kind!r}, unsupported by the "
                    f"autonomic layer (paper §4); pass extensions=True to opt in"
                )

    def initialize_estimates(self, skeleton: Skeleton, snapshot: Dict[str, Any]) -> None:
        """Warm-start ``t(m)`` / ``|m|`` from a previous run's snapshot."""
        from .persistence import restore_estimates

        restore_estimates(skeleton, self.estimators, snapshot)

    # -- Monitor (Listener API) -------------------------------------------------

    def accepts(self, event: Event) -> bool:
        return self.execution_id is None or event.execution_id == self.execution_id

    def on_event(self, event: Event) -> Any:
        self.observe(event)
        return event.value

    def on_batch(self, events) -> None:
        """Consume one event batch — a single machine-registry lock.

        The batch-aware monitor half of the delta pipeline: the bus
        filters the batch down to accepted events (this analyzer's
        execution), the registry consumes them under one lock
        acquisition, and the per-root start bookkeeping runs inline.
        """
        self.machines.on_batch(events)
        for event in events:
            if event.parent_index is None and event.index not in self.exec_start:
                self._root_started(event)

    def observe(self, event: Event) -> None:
        """Feed one event into the tracking machines."""
        self.machines.on_batch((event,))
        if event.parent_index is None and event.index not in self.exec_start:
            self._root_started(event)

    def _root_started(self, event: Event) -> None:
        """First sight of a root: its start time, and whether it waits
        for estimates (see :attr:`cold`)."""
        self.exec_start[event.index] = event.timestamp
        if not self.estimators.ready_for(event.skeleton):
            self._cold_root = self.machines.machine(event.index)

    # -- Analyze ---------------------------------------------------------------

    def unfinished_roots(self) -> List:
        return self.machines.unfinished_roots()

    @property
    def finished(self) -> bool:
        """True once every observed root execution completed."""
        return bool(self.machines.roots) and not self.machines.unfinished_roots()

    @property
    def cold(self) -> bool:
        """True while a live root is known to wait for an estimate: the
        paper's cold-start gate as an edge.  A root is found cold once
        (at its first event, or by :meth:`ready`); from then on only the
        estimate it missed is looked at — no lock, no root list.  True
        implies :meth:`analyze` returns ``None``; False says nothing,
        and is one attribute read once the execution is warm."""
        root = self._cold_root
        if root is None:
            return False
        if root.finished_at is None and not self.estimators.ready_for(root.skel):
            return True
        self._cold_root = None
        return False

    def ready(self, roots: Optional[List] = None) -> bool:
        """True when an analysis is possible: live roots whose needed
        estimates are all available (the paper's cold-start gate)."""
        roots = roots if roots is not None else self.unfinished_roots()
        for root in roots:
            if not self.estimators.ready_for(root.skel):
                self._cold_root = root
                return False
        return bool(roots)

    def deadline(self, roots: Optional[List] = None) -> Optional[float]:
        """Earliest absolute planning deadline across live roots."""
        if self.qos is None or self.qos.wct is None:
            return None
        roots = roots if roots is not None else self.unfinished_roots()
        if not roots:
            return None
        return min(
            self.qos.wct.deadline(self.exec_start.get(m.index, 0.0)) for m in roots
        )

    def analyze(
        self, now: float, current_lp: Optional[int] = None
    ) -> Optional[AnalysisReport]:
        """Project the live execution(s) and derive the paper's quantities.

        Returns ``None`` when nothing is running or a needed estimate is
        still missing (first-run cold start waits for the first merge, as
        in the paper's scenario 1).  A warm-started execution that has
        not emitted any event yet (tasks queued, no worker reached them)
        is analyzed *structurally* instead — scenario 2's initialization,
        extended to the pre-start window.

        A report is a pure function of ``(machines.rev,
        estimators.version, now, current_lp)``, so the last one is kept
        and the *same object* returned while that key repeats — what a
        global planner pays for an execution that did not move since
        the previous rebalance at this instant.  The revision is read
        before anything is projected, so a hit is never older than the
        revision the caller could see.  A ``PlanCache(maxsize=0)`` (the
        from-scratch baseline) and a served graph mutated behind the
        engine both bypass the slot.
        """
        if self.cold:
            return None
        memo_key = None
        if self.plan.cache.maxsize:
            memo_key = (
                self.machines.rev, self.estimators.version, now, current_lp
            )
            last = self._last_report
            if (
                last is not None
                and last[0] == memo_key
                and last[1].adg.rev == last[2]
            ):
                return last[1]
        report = self._analyze(now, current_lp)
        if memo_key is not None and report is not None:
            self._last_report = (memo_key, report, report.adg.rev)
        return report

    def _analyze(
        self, now: float, current_lp: Optional[int]
    ) -> Optional[AnalysisReport]:
        roots = self.unfinished_roots()
        if not roots and not self.machines.roots:
            return self._structural_report(now, current_lp)
        if not self.ready(roots):
            return None
        adg = self.plan.projection(now, roots)
        if len(adg) == 0:
            return None
        return self._report_from_adg(now, current_lp, adg, self.deadline(roots))

    def _structural_report(
        self, now: float, current_lp: Optional[int]
    ) -> Optional[AnalysisReport]:
        """Pre-start analysis from the skeleton structure alone.

        Requires the skeleton and warm estimates for every muscle;
        otherwise the pre-start window stays a cold start (``None``).
        The deadline assumes the execution starts *now* — optimistic by
        at most the (tiny) submit-to-first-task latency.
        """
        adg = self.plan.structural_plan()
        if adg is None or len(adg) == 0:
            return None
        deadline = None
        if self.qos is not None and self.qos.wct is not None:
            deadline = self.qos.wct.deadline(now)
        return self._report_from_adg(now, current_lp, adg, deadline)

    def _report_from_adg(
        self,
        now: float,
        current_lp: Optional[int],
        adg: ADG,
        deadline: Optional[float],
    ) -> AnalysisReport:
        """A report at *now*: the paper's quantities are derived from
        (kept) plans of *adg* only when read (see :class:`AnalysisReport`)."""
        return AnalysisReport(
            time=now,
            execution_id=self.execution_id,
            deadline=deadline,
            current_lp=current_lp,
            wct_best_effort=None,
            wct_current_lp=None,
            optimal_lp=None,
            adg=adg,
            engine=self.plan,
        )
