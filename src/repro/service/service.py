"""The SkeletonService front door — non-blocking multi-tenant submission.

One service owns one shared platform.  Tenants call
:meth:`SkeletonService.submit` and get an
:class:`~repro.service.handle.ExecutionHandle` back immediately; the
service threads each submission through admission control, registers its
execution-scoped analyzer on the shared bus, launches it with a
per-execution worker share, and lets the LP arbiter re-split the pool on
every analysis tick and completion.

Locking: one re-entrant service lock guards the live table, the held
queue, tenant accounting and promotion; it is acquired from submitter
threads, from bus listeners (worker threads) and from future callbacks.
Platform internals (its condition variable) are never held while taking
the service lock, so the two layers cannot deadlock.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from ..core.analysis import ExecutionAnalyzer, is_analysis_point
from ..core.planning import PlanCache
from ..core.qos import Priority, QoS
from ..durability.checkpoint import (
    Checkpointer,
    program_fingerprint,
    qos_from_dict,
    qos_to_dict,
    remainder_program,
    remaining_qos,
)
from ..durability.store import KIND_FINAL, Checkpoint, CheckpointStore
from ..errors import DurabilityError, ExecutionCancelledError, ServiceError
from ..events.bus import Listener
from ..events.types import Event
from ..runtime.interpreter import submit as _submit_program
from ..runtime.platform import Platform
from ..runtime.registry import DEFAULT_REGISTRY
from ..runtime.spec import PlatformSpec
from ..runtime.task import Execution
from ..skeletons.base import Skeleton
from .admission import AdmissionController
from .arbiter import LPArbiter
from .handle import ExecutionHandle
from .stats import ServiceStats
from .tenancy import TenantBook, TenantQuota

__all__ = ["SkeletonService"]

DEFAULT_TENANT = "default"


class _AnalysisTicker(Listener):
    """Triggers a global rebalance on the paper's analysis points.

    Kept *last* in the bus order (the service moves it to the end
    whenever an analyzer registers) so every per-execution analyzer has
    consumed the event before the arbiter reads their state.
    """

    def __init__(self, service: "SkeletonService"):
        self._service = service

    def accepts(self, event: Event) -> bool:
        return is_analysis_point(event)

    def on_event(self, event: Event) -> Any:
        self._service._on_tick(event)
        return event.value


class _ExecutionRecord:
    """Service-internal record of one submission (live or held)."""

    __slots__ = (
        "handle",
        "analyzer",
        "blocked_usable",
        "load_held",
        "reserved_lp",
        "checkpointer",
    )

    def __init__(self, handle: ExecutionHandle, analyzer: ExecutionAnalyzer):
        self.handle = handle
        self.analyzer = analyzer
        #: The execution's boundary checkpointer, when it runs under a
        #: durable checkpoint key (None otherwise).
        self.checkpointer: Optional[Checkpointer] = None
        #: Largest usable-LP the load gate last failed this held
        #: submission at; promotion skips the (expensive) re-projection
        #: until the budget actually grows past it.
        self.blocked_usable: Optional[int] = None
        #: True when the load gate is (part of) why this record is held —
        #: the case the backfill reservation protects.
        self.load_held = False
        #: Admission-time minimal LP of a held goal (from its structural
        #: plan): while this record heads the held queue, that many
        #: workers are reserved against later same-or-lower-priority
        #: submissions so a stream of small goals cannot starve it.
        self.reserved_lp: Optional[int] = None


class SkeletonService:
    """Multi-tenant skeleton execution service on one shared platform.

    Parameters
    ----------
    platform:
        The shared execution platform.  When omitted, one is created via
        :func:`~repro.runtime.registry.make_platform` from *backend* and
        *capacity* (and owned — shut down with the service).
    backend:
        Backend for the self-created platform: a
        :class:`~repro.runtime.spec.PlatformSpec` (its ``workers`` /
        ``max_workers`` are overridden to ``1`` / *capacity*) or a
        backend name, shorthand for the all-defaults spec of that kind
        (default ``threads``).
    capacity:
        Total worker budget arbitrated across executions.  Defaults to
        the platform's ``max_parallelism``; required if neither is set.
    quotas / default_quota:
        Per-tenant caps (see :class:`~repro.service.tenancy.TenantQuota`).
    admission_policy:
        ``"hold"`` (default) parks submissions that cannot start yet;
        ``"reject"`` refuses them.  Infeasible WCT goals are always
        rejected.
    max_live:
        Optional global cap on concurrently running executions.
    rho / extensions:
        Passed to each execution's analyzer (paper defaults).
    min_rebalance_interval:
        Throttle between arbiter rebalances on analysis ticks, in
        platform-clock seconds (admissions and completions always
        rebalance).  The default 0.05 bounds arbitration overhead for
        fine-grained workloads — every rebalance projects *all* live
        executions on the worker thread that published the event; pass
        0.0 to re-arbitrate on every analysis point (e.g. on the
        simulator, where ticks are virtual-time).
    min_rebalance_events:
        Event-count throttle layered on the time-based one: a tick-driven
        rebalance also requires at least this many analysis points since
        the previous applied rebalance.  Useful against storms of very
        fine-grained muscles, where thousands of events can land inside
        one ``min_rebalance_interval`` window and each one pays the
        throttle pre-check; the default 1 disables it.
    load_aware_admission:
        Gate warm goal-carrying submissions against the budget the
        arbiter could actually grant them now (capacity minus same-or-
        higher-priority commitments), holding goals that are feasible
        only on an idle machine until load drains.  Default on.
    backfill_reservation:
        While the held queue's head is load-held with a warm WCT goal,
        reserve its admission-time minimal LP against later same-or-
        lower-priority submissions (their load gate sees that much less
        budget), so a steady stream of small feasible goals cannot
        indefinitely backfill past a held wide goal.  Default on.
    plan_cache:
        The shared :class:`~repro.core.planning.PlanCache` backing every
        execution's :class:`~repro.core.planning.PlanEngine` and the
        admission gates.  Defaults to a fresh cache; pass
        ``PlanCache(maxsize=0)`` for the from-scratch baseline (no plan
        is stored and no engine carries anything between calls).
    checkpoints:
        An optional :class:`~repro.durability.store.CheckpointStore`.
        When given, submissions carrying a ``checkpoint=`` key persist
        their progress at root skeleton boundaries, and
        :meth:`resubmit_from_checkpoint` re-admits crashed or preempted
        executions warm-started from their latest checkpoint.  ``None``
        (default) disables durable executions entirely.
    observability:
        An optional :class:`~repro.obs.Observability` facade.  When
        given, the service attaches it to the platform (bus instrument +
        flight recorder + tracer), binds :class:`~repro.service.stats.
        ServiceStats` and the plan cache as registry views, and traces
        the request path: a root ``execution`` span per submission
        (submit → admission → ... → outcome) plus ``rebalance`` spans,
        with execution durations feeding
        ``repro_execution_duration_seconds``.  ``None`` (default) keeps
        the service entirely un-instrumented.
    """

    def __init__(
        self,
        platform: Optional[Platform] = None,
        backend: Any = "threads",
        capacity: Optional[int] = None,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        default_quota: Optional[TenantQuota] = None,
        admission_policy: str = "hold",
        max_live: Optional[int] = None,
        rho: float = 0.5,
        extensions: bool = False,
        min_rebalance_interval: float = 0.05,
        min_rebalance_events: int = 1,
        load_aware_admission: bool = True,
        backfill_reservation: bool = True,
        plan_cache: Optional[PlanCache] = None,
        checkpoints: Optional[CheckpointStore] = None,
        observability: Optional[Any] = None,
    ):
        self._owns_platform = platform is None
        if platform is None:
            spec = backend if isinstance(backend, PlatformSpec) else PlatformSpec(kind=backend)
            if capacity is None:
                capacity = spec.max_workers
            if capacity is None:
                raise ServiceError(
                    "SkeletonService needs a worker budget: pass capacity, "
                    "set max_workers on the backend spec or pass an existing "
                    "platform with max_parallelism"
                )
            platform = DEFAULT_REGISTRY.build(
                spec.with_overrides(workers=1, max_workers=capacity)
            )
        if capacity is None:
            capacity = platform.max_parallelism
        if capacity is None or capacity < 1:
            raise ServiceError(
                "SkeletonService needs a worker budget: pass capacity or "
                "give the platform a max_parallelism"
            )
        self.platform = platform
        self.capacity = int(capacity)
        self.rho = rho
        self.extensions = extensions
        self.backfill_reservation = backfill_reservation
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.tenants = TenantBook(default_quota=default_quota, quotas=quotas)
        self.admission = AdmissionController(
            capacity=self.capacity,
            tenants=self.tenants,
            policy=admission_policy,
            max_live=max_live,
            load_aware=load_aware_admission,
        )
        self.arbiter = LPArbiter(
            platform,
            capacity=self.capacity,
            min_interval=min_rebalance_interval,
            min_events=min_rebalance_events,
        )
        self.stats = ServiceStats()
        self._lock = threading.RLock()
        self._idle = threading.Condition(self._lock)
        self._live: Dict[int, _ExecutionRecord] = {}
        self._held: List[_ExecutionRecord] = []
        self._closed = False
        self._ticker = _AnalysisTicker(self)
        self.platform.add_listener(self._ticker)
        # Observability wiring (all None/no-op when not configured: the
        # only residual cost is a couple of is-None checks per lifecycle
        # transition and a disabled-tracer start_span per rebalance).
        self.checkpoints = checkpoints
        self.observability = observability
        self._exec_spans: Dict[int, Any] = {}
        if observability is not None:
            observability.attach(self.platform)
            self.stats.bind_registry(observability.metrics)
            self._bind_plan_view(observability.metrics)
            self._exec_duration = observability.metrics.histogram(
                "repro_execution_duration_seconds",
                "End-to-end execution duration (admission start to finish)",
            )
            self._rebalance_duration = observability.metrics.histogram(
                "repro_rebalance_duration_seconds",
                "Wall-clock cost of one applied arbiter rebalance",
            )
            self._ckpt_counter = observability.metrics.counter(
                "repro_checkpoints_total",
                "Checkpoints committed, by kind (initial/boundary/final)",
            )
        else:
            self._exec_duration = None
            self._rebalance_duration = None
            self._ckpt_counter = None
        # One trace identity for the service's own control loop: every
        # rebalance span lands under it instead of each minting a fresh
        # single-span trace (execution spans get per-request traces).
        # Minted after attach() so it inherits the enabled sampling state.
        self._service_trace = self.platform.tracer.new_context()

    def _bind_plan_view(self, registry) -> None:
        """Expose the shared plan cache as callback gauges (a live view).

        ``plan_stats()`` remains the dict-shaped compatibility surface;
        the registry samples the very same counters lazily at export
        time, so there is no double bookkeeping to drift — new cache
        counters (``struct_compiles``/``struct_memo_hits``, ...) show up
        without service changes.
        """
        from ..obs.instrument import bind_stats_gauges

        bind_stats_gauges(
            registry,
            "repro_plan_cache",
            "Shared plan-cache counters (callback view)",
            self.plan_cache.stats_dict,
        )

    # -- submission -------------------------------------------------------------

    def submit(
        self,
        program: Skeleton,
        value: Any,
        qos: Optional[QoS] = None,
        tenant: str = DEFAULT_TENANT,
        name: Optional[str] = None,
        warm_start: Optional[Dict[str, Any]] = None,
        checkpoint: Optional[str] = None,
        _warm_program: Optional[Skeleton] = None,
        _ckpt_base: Optional[Dict[str, Any]] = None,
    ) -> ExecutionHandle:
        """Submit one skeleton execution; returns its handle immediately.

        *qos* carries the tenant's WCT goal and/or LP cap plus its
        scheduling class (``weight``, ``priority``); *warm_start* is an
        estimate snapshot (:func:`~repro.core.persistence.
        snapshot_estimates`) enabling the admission feasibility gates and
        immediate arbitration (the paper's scenario-2 initialization).
        Rejected submissions are **not** raised here: the handle reports
        ``REJECTED`` and :meth:`~ExecutionHandle.result` raises
        :class:`~repro.errors.AdmissionError`.

        *checkpoint* names the durable identity the execution persists
        its progress under (requires a ``checkpoints=`` store on the
        service); a crashed or preempted run resumes with
        :meth:`resubmit_from_checkpoint` under the same key.
        ``_warm_program`` / ``_ckpt_base`` are the resume path's private
        plumbing (restore targets and checkpoint-chain bases).
        """
        if checkpoint is not None and self.checkpoints is None:
            raise ServiceError(
                "submit(checkpoint=...) requires a checkpoint store: "
                "construct the service with checkpoints=DirectoryStore(...)"
            )
        with self._lock:
            if self._closed:
                raise ServiceError("service has been shut down")
            execution = Execution(self.platform.new_future(), name=name)
            # The request's trace identity is minted here, at the service
            # boundary, so admission/hold/launch all happen under it (the
            # interpreter would otherwise mint one at launch).
            execution.trace = self.platform.tracer.new_context()
            root_span = self.platform.tracer.start_span(
                "execution",
                context=execution.trace,
                tenant=tenant,
                execution_id=execution.id,
            )
            analyzer = ExecutionAnalyzer(
                qos=qos,
                execution_id=execution.id,
                skeleton=program,
                rho=self.rho,
                extensions=self.extensions,
                plan_cache=self.plan_cache,
            )
            # Resolve the scheduling class once, at the submission
            # boundary: QoS override first, tenant quota default second.
            # The arbiter reads these attributes on every rebalance.
            quota = self.tenants.quota_for(tenant)
            analyzer.share_weight = (
                qos.weight if qos is not None and qos.weight is not None
                else quota.weight
            )
            analyzer.share_priority = int(
                qos.priority if qos is not None else Priority.NORMAL
            )
            if warm_start is not None:
                # A resume restores against the *full* program (the
                # remainder shares its muscle objects, and snapshot keys
                # are structural indices of the full construction).
                analyzer.initialize_estimates(
                    _warm_program if _warm_program is not None else program,
                    warm_start,
                )
            handle = ExecutionHandle(
                execution=execution,
                program=program,
                value=value,
                qos=qos,
                tenant=tenant,
                submitted_at=self.platform.now(),
            )
            handle._service = self
            handle.analyzer = analyzer
            handle.checkpoint_key = checkpoint
            handle._ckpt_base = _ckpt_base
            self.stats.record_submitted(tenant)
            reserved = self._reserved_against_locked(
                analyzer.share_priority, requesting=None
            )
            decision = self.admission.evaluate(
                qos,
                analyzer.plan,
                tenant,
                live_count=len(self._live),
                available_lp=self._available_budget_locked(
                    analyzer.share_priority
                )
                - reserved,
                reserved=reserved,
            )
            if root_span.recording:
                self._exec_spans[execution.id] = root_span
            if decision.rejected:
                self.stats.record_rejected(tenant)
                handle._mark_rejected(decision.reason)
                self._finish_exec_span(execution.id, "rejected")
                return handle
            if decision.held:
                root_span.set_attr("held", True)
                self.stats.record_held(tenant)
                self.tenants.queued(tenant)
                record = _ExecutionRecord(handle, analyzer)
                record.load_held = decision.load_blocked
                if self.backfill_reservation:
                    record.reserved_lp = self.admission.reservation_for(
                        qos, analyzer.plan
                    )
                self._held.append(record)
                return handle
            self._launch_locked(handle, analyzer)
            return handle

    def _launch_locked(
        self, handle: ExecutionHandle, analyzer: ExecutionAnalyzer
    ) -> None:
        eid = handle.execution_id
        self.tenants.started(handle.tenant)
        record = _ExecutionRecord(handle, analyzer)
        self._live[eid] = record
        # Scoped Monitor first, then the checkpointer (so boundary
        # snapshots include the boundary event's own estimator update),
        # then the arbitration ticker last again (atomically — a
        # concurrent publish must never miss a tick), so ticks always
        # see fully updated per-execution state.
        self.platform.add_listener(analyzer)
        if self.checkpoints is not None and handle.checkpoint_key is not None:
            base = handle._ckpt_base or {}
            record.checkpointer = Checkpointer(
                store=self.checkpoints,
                key=handle.checkpoint_key,
                execution_id=eid,
                program=base.get("program", handle.program),
                estimators=analyzer.estimators,
                qos=base.get("qos", qos_to_dict(handle.qos)),
                base_progress=base.get("progress"),
                base_elapsed=base.get("elapsed", 0.0),
                clock=self.platform.now,
                meta={
                    "tenant": handle.tenant,
                    "name": handle.execution.name,
                    "execution_id": eid,
                },
                on_write=self._note_checkpoint,
            )
            self.platform.add_listener(record.checkpointer)
        self.platform.bus.move_to_end(self._ticker)
        handle.started_at = self.platform.now()
        if record.checkpointer is not None:
            record.checkpointer.start(handle.started_at, handle.value)
        self.stats.record_admitted(handle.tenant, handle.started_at)
        # Newcomers enter the arbitration cold: one worker guaranteed
        # (the paper's LP-1 cold start as a floor) plus whatever budget
        # the deadline-bound executions leave idle; their first
        # analyzable tick re-grants them precisely.
        self._rebalance_locked(trigger=f"admit:{eid}", force=True)
        handle.future.add_done_callback(lambda _f: self._on_done(handle))
        _submit_program(
            handle.program, handle.value, self.platform, execution=handle.execution
        )

    def resubmit_from_checkpoint(
        self,
        program: Skeleton,
        key: str,
        tenant: Optional[str] = None,
        name: Optional[str] = None,
    ) -> ExecutionHandle:
        """Re-admit a crashed/preempted execution from its latest checkpoint.

        *program* must be a construction of the **same program shape** the
        checkpoint was taken against (verified structurally via
        :func:`~repro.durability.checkpoint.program_fingerprint`); the
        service derives the remainder program from the recorded progress,
        warm-starts the estimators from the snapshot, shrinks the WCT goal
        by the wall-clock already consumed, and submits the remainder
        through the normal admission path — the arbiter plans only the
        work that is actually left.  Completed root stages/iterations are
        therefore *pinned*: their muscles never re-execute.

        A checkpoint of kind ``final`` short-circuits: the returned handle
        is already resolved with the recorded result (the crash happened
        after completion but before the caller observed it).

        Raises :class:`~repro.errors.DurabilityError` when no checkpoint
        exists under *key* or the fingerprint does not match, and
        :class:`~repro.errors.ServiceError` without a configured store.
        """
        if self.checkpoints is None:
            raise ServiceError(
                "resubmit_from_checkpoint() requires a checkpoint store: "
                "construct the service with checkpoints=DirectoryStore(...)"
            )
        ckpt = self.checkpoints.latest(key)
        if ckpt is None:
            raise DurabilityError(f"no checkpoint recorded under key {key!r}")
        fingerprint = program_fingerprint(program)
        if ckpt.fingerprint != fingerprint:
            raise DurabilityError(
                f"checkpoint {key!r} was taken against program "
                f"{ckpt.fingerprint}, not {fingerprint}: refusing to resume "
                "onto a different program shape"
            )
        if tenant is None:
            tenant = ckpt.meta.get("tenant", DEFAULT_TENANT)
        if name is None:
            name = ckpt.meta.get("name")
        if ckpt.kind == KIND_FINAL:
            # The run finished; only the acknowledgement was lost.  Hand
            # back a handle already resolved with the recorded result —
            # no admission, no stats, no re-execution.
            with self._lock:
                if self._closed:
                    raise ServiceError("service has been shut down")
                execution = Execution(self.platform.new_future(), name=name)
                execution.trace = self.platform.tracer.new_context()
                handle = ExecutionHandle(
                    execution=execution,
                    program=program,
                    value=ckpt.value,
                    qos=qos_from_dict(ckpt.qos),
                    tenant=tenant,
                    submitted_at=self.platform.now(),
                )
                handle._service = self
                handle.checkpoint_key = key
                handle.started_at = self.platform.now()
                handle._mark_finished(handle.started_at)
                execution.finish(ckpt.value)
                return handle
        original_qos = qos_from_dict(ckpt.qos)
        qos = remaining_qos(original_qos, ckpt.elapsed)
        remainder = remainder_program(program, ckpt.progress)
        warm = ckpt.estimates if ckpt.estimates.get("estimates") else None
        return self.submit(
            remainder,
            ckpt.value,
            qos=qos,
            tenant=tenant,
            name=name,
            warm_start=warm,
            checkpoint=key,
            _warm_program=program,
            _ckpt_base={
                "program": program,
                "qos": ckpt.qos,
                "progress": ckpt.progress,
                "elapsed": ckpt.elapsed,
            },
        )

    # -- lifecycle callbacks ----------------------------------------------------

    def _note_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Per-commit hook from the checkpointers (Telescope accounting)."""
        if self._ckpt_counter is not None:
            self._ckpt_counter.inc(kind=checkpoint.kind)

    def _finish_exec_span(self, execution_id: int, status: str) -> None:
        """Close the root request span of one execution (no-op untraced)."""
        span = self._exec_spans.pop(execution_id, None)
        if span is not None:
            span.finish(status="ok" if status == "completed" else status)

    def _on_done(self, handle: ExecutionHandle) -> None:
        # Stamp completion and settle the stats before anything that can
        # block: result() waiters wake before done-callbacks run and then
        # block on the handle's finalization event, so it must be set
        # without first contending for the service lock — but not before
        # ``stats`` (its own lock; needs only ``finished_at``) holds this
        # execution, or ``result()`` returns ahead of ``stats.completed``.
        handle._stamp_finished(self.platform.now())
        exc = handle.future.exception(timeout=0)
        if exc is None:
            outcome = "completed"
        elif isinstance(exc, ExecutionCancelledError):
            outcome = "cancelled"
        else:
            outcome = "failed"
        self.stats.record_finished(
            handle.tenant, outcome, handle.finished_at, handle.goal_met()
        )
        handle._mark_finished(handle.finished_at)
        with self._lock:
            record = self._live.pop(handle.execution_id, None)
            if record is None:
                return  # already finalized (e.g. during shutdown)
            self.platform.bus.remove_listener(record.analyzer)
            if record.checkpointer is not None:
                self.platform.bus.remove_listener(record.checkpointer)
            self.tenants.finished(handle.tenant)
            self._finish_exec_span(handle.execution_id, outcome)
            if self._exec_duration is not None and handle.started_at is not None:
                self._exec_duration.observe(
                    max(0.0, handle.finished_at - handle.started_at),
                    tenant=handle.tenant,
                    outcome=outcome,
                )
            self._promote_held_locked()
            self._rebalance_locked(trigger=f"done:{handle.execution_id}", force=True)
            self._idle.notify_all()

    def _available_budget_locked(self, priority: int) -> int:
        """Workers the arbiter could grant a *priority*-class newcomer now.

        Capacity minus the committed budget of live executions: the full
        guaranteed grant (minimal deadline-meeting LP, from the last
        rebalance) for same-or-higher classes, only the preemption-proof
        one-worker floor for lower classes — exactly what the arbiter's
        priority phase would leave them.  The held-queue head's backfill
        reservation (:meth:`_reserved_against_locked`) is layered on top
        by the call sites, which know who is asking.
        """
        last = self.arbiter.last_rebalance
        committed = 0
        for eid, record in self._live.items():
            if getattr(record.analyzer, "share_priority", 0) >= priority:
                committed += last.committed.get(eid, 1) if last else 1
            else:
                committed += 1
        return self.capacity - committed

    def _reservation_of_locked(
        self, head: Optional[_ExecutionRecord], priority: int
    ) -> int:
        """Backfill reservation: workers protected for the held *head*.

        While the held queue's head is load-held with a warm goal, its
        admission-time minimal LP is withheld from every later same-or-
        lower-priority submission's budget, so a steady stream of small
        feasible goals cannot indefinitely delay it (the classic
        backfill/reservation tradeoff the ROADMAP flagged).  Higher-class
        submissions pass through — they would preempt the head's class
        anyway — and quota-held heads reserve nothing: workers are not
        what they are waiting for.
        """
        if not self.backfill_reservation or head is None or not head.reserved_lp:
            return 0
        if not (head.load_held or head.blocked_usable is not None):
            return 0
        if not self.admission.can_start_now(
            head.handle.tenant, live_count=len(self._live)
        ):
            # A quota/max_live blocker is (now) what holds the head, not
            # the budget — reserving workers it could not use anyway
            # would starve everyone else for nothing.
            return 0
        if getattr(head.analyzer, "share_priority", 0) < priority:
            return 0
        return head.reserved_lp

    def _reserved_against_locked(
        self, priority: int, requesting: Optional[_ExecutionRecord]
    ) -> int:
        """Reservation the current held-queue head imposes on a request
        (the head itself is exempt)."""
        head = self._held[0] if self._held else None
        if head is requesting:
            head = None
        return self._reservation_of_locked(head, priority)

    def _promote_held_locked(self) -> None:
        """Launch every held submission whose blockers cleared (FIFO).

        Re-runs both the start blockers (quotas, ``max_live``) and the
        load gate: a load-held goal stays queued until enough committed
        budget drained (completions) or shrank (progress) to fit it.
        The expensive part of the gate — a full structural projection —
        is skipped while the usable budget has not grown past the value
        it last failed at (projected WCT is non-increasing in LP, so a
        smaller-or-equal budget cannot flip the verdict).
        """
        still_held: List[_ExecutionRecord] = []
        for record in self._held:
            handle = record.handle
            if self._closed or not self.admission.can_start_now(
                handle.tenant, live_count=len(self._live)
            ):
                still_held.append(record)
                continue
            # The reservation a record must respect comes from the first
            # record *still held this pass* — a head that just launched
            # above no longer reserves anything.
            reserved = self._reservation_of_locked(
                still_held[0] if still_held else None,
                record.analyzer.share_priority,
            )
            available = (
                self._available_budget_locked(record.analyzer.share_priority)
                - reserved
            )
            usable = self.admission.usable_lp(handle.qos, available)
            if (
                record.blocked_usable is not None
                and usable <= record.blocked_usable
                and reserved == 0
            ):
                still_held.append(record)
                continue
            if self.admission.load_allows(
                handle.qos,
                record.analyzer.plan,
                available,
                reserved=reserved,
            ):
                record.blocked_usable = None
                self.tenants.dequeued(handle.tenant)
                self._launch_locked(handle, record.analyzer)
            else:
                # The monotonicity memo only holds for WCT-gate failures;
                # a reservation-caused block can clear at the *same*
                # usable budget (the head launches), so it is not memoed.
                record.blocked_usable = usable if reserved == 0 else None
                record.load_held = True
                still_held.append(record)
        self._held = still_held

    def _on_tick(self, event: Event) -> None:
        # Throttle pre-check before the global lock: fine-grained muscles
        # publish analysis points far more often than rebalances are due,
        # and a discarded tick must not serialize the worker threads.
        self.arbiter.note_tick()
        if not self.arbiter.due(self.platform.now()):
            return
        with self._lock:
            outcome = self._rebalance_locked(trigger=event.label, force=False)
            if outcome is not None and self._held:
                # Progress shrinks committed budget: load-held submissions
                # may fit now, before any completion frees a whole slot.
                self._promote_held_locked()

    def _rebalance_locked(self, trigger: str, force: bool) -> Optional[Any]:
        analyzers = {eid: rec.analyzer for eid, rec in self._live.items()}
        started = (
            self.platform.now() if self._rebalance_duration is not None else None
        )
        span = self.platform.tracer.start_span(
            "rebalance", context=self._service_trace, trigger=trigger
        )
        outcome = self.arbiter.rebalance(
            self.platform.now(), analyzers, trigger=trigger, force=force
        )
        if span.recording:
            span.set_attr("applied", outcome is not None)
            span.set_attr("live", len(analyzers))
            span.finish()
        if started is not None and outcome is not None:
            self._rebalance_duration.observe(
                max(0.0, self.platform.now() - started)
            )
        if outcome is not None:
            infeasible = set(outcome.infeasible)
            cold = set(outcome.cold)
            for eid, record in self._live.items():
                if eid in infeasible:
                    record.handle.goal_at_risk = True
                elif eid in outcome.shares and eid not in cold:
                    # The goal became reachable again (e.g. a burst of
                    # other tenants drained): clear the stale flag.
                    record.handle.goal_at_risk = False
        return outcome

    # -- cancellation -----------------------------------------------------------

    def _cancel_handle(self, handle: ExecutionHandle) -> bool:
        with self._lock:
            if handle.future.done():
                return False
            for i, record in enumerate(self._held):
                if record.handle is handle:
                    del self._held[i]
                    self.tenants.dequeued(handle.tenant)
                    handle._mark_cancelled()
                    handle.execution.fail(
                        ExecutionCancelledError(
                            f"execution {handle.execution_id} cancelled while held"
                        )
                    )
                    # Never admitted: the platform never ran it, so the
                    # throughput busy-window must not stretch to now.
                    self.stats.record_finished(
                        handle.tenant, "cancelled", self.platform.now(), ran=False
                    )
                    self._finish_exec_span(handle.execution_id, "cancelled")
                    # The cancelled record may have been the queue head
                    # holding a backfill reservation: later load-held
                    # records could now fit, so re-run the promotion
                    # sweep instead of leaving them stuck until the next
                    # completion.
                    self._promote_held_locked()
                    self._idle.notify_all()
                    return True
            # Failing the execution resolves the future, which triggers
            # _on_done (re-entrant under this RLock) for the cleanup.
            handle.execution.fail(
                ExecutionCancelledError(f"execution {handle.execution_id} cancelled")
            )
            if not isinstance(
                handle.future.exception(timeout=0), ExecutionCancelledError
            ):
                # Lost the race: the execution resolved (success or its own
                # failure) between the done() check and our fail() — report
                # the truth instead of claiming the cancel took effect.
                return False
            handle._mark_cancelled()
            return True

    # -- introspection ----------------------------------------------------------

    @property
    def live_count(self) -> int:
        with self._lock:
            return len(self._live)

    @property
    def held_count(self) -> int:
        with self._lock:
            return len(self._held)

    def live_handles(self) -> List[ExecutionHandle]:
        with self._lock:
            return [rec.handle for rec in self._live.values()]

    def plan_stats(self) -> Dict[str, Any]:
        """Recompute accounting of the shared planning layer.

        The :class:`~repro.core.planning.PlanCache` counters — hits,
        misses, full projection walks vs in-place projection patches,
        pinning delta re-pins, schedule passes — as a plain dict, so
        benchmarks and operators read the event→plan cost of the service
        without reaching into planner internals.  Counters are
        service-lifetime cumulative; ``plan_cache.reset_stats()`` zeroes
        them.  ``hits``/``misses``/``evictions``/``size`` count the
        shared store only (the structural memo and the plans derived
        from it); a live execution's plans are kept on its engine's
        record of the graph and count in none of them.  With an
        :class:`~repro.obs.Observability` facade bound, the same
        counters export as the ``repro_plan_cache`` callback gauges —
        this dict stays the compatibility surface.
        """
        return self.plan_cache.stats_dict()

    # -- draining / shutdown ----------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no execution is live or held; True when drained.

        Only meaningful on self-driving platforms (threads, processes);
        on the simulator, drive each handle with ``result()`` instead.
        """
        with self._idle:
            return self._idle.wait_for(
                lambda: not self._live and not self._held, timeout=timeout
            )

    def shutdown(self, wait: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting work; optionally wait for live executions.

        Held submissions are rejected (their handles resolve with
        :class:`~repro.errors.AdmissionError`).  The platform is shut
        down only when the service created it.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            held, self._held = self._held, []
            for record in held:
                self.tenants.dequeued(record.handle.tenant)
                self.stats.record_rejected(record.handle.tenant)
                record.handle._mark_rejected("service shutting down")
                self._finish_exec_span(record.handle.execution_id, "rejected")
            self._idle.notify_all()
        if wait:
            with self._idle:
                self._idle.wait_for(lambda: not self._live, timeout=timeout)
        self.platform.bus.remove_listener(self._ticker)
        if self._owns_platform:
            # The platform dies with the service: executions still live
            # (wait=False, or the wait timed out) would never resolve
            # their futures once the workers exit — fail them now so no
            # caller blocks on a stranded handle.
            with self._lock:
                stranded = [record.handle for record in self._live.values()]
            for handle in stranded:
                handle._mark_cancelled()
                handle.execution.fail(
                    ExecutionCancelledError(
                        f"service shut down with execution "
                        f"{handle.execution_id} still live"
                    )
                )
            self.platform.shutdown()

    def __enter__(self) -> "SkeletonService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
