"""Backfill reservation: a held wide goal cannot be starved by a stream
of small feasible goals (ROADMAP item).

Load-aware admission holds a goal that only fits an idle machine.  Before
the reservation, admission consulted only *live* commitments, so every
later small-goal submission that fit the leftover budget (and the
one-worker floor guarantees the tiniest always did) kept being admitted —
each one re-extending the load that held the wide goal.  Now the held
queue head's admission-time minimal LP is reserved against later
same-or-lower-priority submissions: they queue up *behind* the wide goal
instead of backfilling past it.

Durations are structural: every assertion is on admission decisions and
ordering, which machine load cannot flip.
"""

import pytest

from repro import Priority, QoS, SkeletonService
from repro.core.analysis import ExecutionAnalyzer
from repro.service import ExecutionStatus
from repro.service.admission import AdmissionController
from tests.conftest import sleepy_map_program, sleepy_map_snapshot

pytestmark = [pytest.mark.integration, pytest.mark.service_stress]

CAPACITY = 4
HOG = dict(width=8, leaf=0.15)  # commits all 4 workers for its 0.4s goal
WIDE = dict(width=4, leaf=0.15)  # needs all 4 workers for its 0.28s goal
SMALL = dict(width=1, leaf=0.05)  # needs 1 worker for its loose 5s goal


def submit_map(service, tenant, width, leaf, value=1, qos=None):
    program = sleepy_map_program(width, leaf)
    return service.submit(
        program,
        value,
        qos=qos,
        tenant=tenant,
        warm_start=sleepy_map_snapshot(program, width, leaf),
    )


def make_service(**kwargs):
    kwargs.setdefault("backend", "threads")
    kwargs.setdefault("capacity", CAPACITY)
    kwargs.setdefault("min_rebalance_interval", 0.0)
    return SkeletonService(**kwargs)


class TestBackfillReservation:
    def test_small_goals_queue_behind_a_held_wide_goal(self):
        """The regression scenario: hog commits the pool, the wide goal is
        load-held and reserves its minimal LP, and the small-goal stream
        is held behind it instead of backfilling past."""
        with make_service() as service:
            hog = submit_map(service, "hog", qos=QoS.wall_clock(0.4), **HOG)
            wide = submit_map(
                service, "wide", value=2, qos=QoS.wall_clock(0.28), **WIDE
            )
            assert wide.status() is ExecutionStatus.QUEUED
            smalls = [
                submit_map(
                    service, f"small{i}", value=3, qos=QoS.wall_clock(5.0), **SMALL
                )
                for i in range(3)
            ]
            # Every small goal is feasible right now (1 worker always
            # squeezes in), yet all are held behind the wide goal.
            assert [h.status() for h in smalls] == [ExecutionStatus.QUEUED] * 3
            assert service.held_count == 4

            # Drain: the wide goal launches before any small one.
            assert hog.result(timeout=30.0) == 8
            assert wide.result(timeout=30.0) == 8
            for handle in smalls:
                assert handle.result(timeout=30.0) == 3
            assert wide.started_at is not None
            assert all(wide.started_at <= h.started_at for h in smalls)
            # Held, not missed: the wide goal is met after the drain.
            assert wide.goal_met() is True
            assert service.stats.tenant("wide").goals_missed == 0

    def test_higher_priority_submissions_pass_the_reservation(self):
        """The reservation binds same-or-lower classes only: a HIGH-class
        small goal is admitted past a NORMAL-class held head (it would
        preempt that class's grants anyway)."""
        with make_service() as service:
            hog = submit_map(service, "hog", qos=QoS.wall_clock(0.4), **HOG)
            wide = submit_map(
                service, "wide", value=2, qos=QoS.wall_clock(0.28), **WIDE
            )
            assert wide.status() is ExecutionStatus.QUEUED
            low = submit_map(
                service,
                "low",
                value=3,
                qos=QoS.wall_clock(5.0, priority=Priority.BATCH),
                **SMALL,
            )
            assert low.status() is ExecutionStatus.QUEUED  # lower: bound
            high = submit_map(
                service,
                "high",
                value=4,
                qos=QoS.wall_clock(5.0, priority=Priority.HIGH),
                **SMALL,
            )
            assert high.status() is ExecutionStatus.RUNNING  # higher: passes
            assert hog.result(timeout=30.0) == 8
            assert wide.result(timeout=30.0) == 8
            assert low.result(timeout=30.0) == 3
            assert high.result(timeout=30.0) == 4

    def test_goalless_submissions_are_not_gated(self):
        """Best-effort (no WCT goal) submissions never consulted the load
        gate, and the reservation does not change that."""
        with make_service() as service:
            hog = submit_map(service, "hog", qos=QoS.wall_clock(0.4), **HOG)
            wide = submit_map(
                service, "wide", value=2, qos=QoS.wall_clock(0.28), **WIDE
            )
            assert wide.status() is ExecutionStatus.QUEUED
            free = submit_map(service, "free", value=5, qos=None, **SMALL)
            assert free.status() is ExecutionStatus.RUNNING
            assert hog.result(timeout=30.0) == 8
            assert wide.result(timeout=30.0) == 8
            assert free.result(timeout=30.0) == 5

    def test_quota_blocked_head_stops_reserving(self):
        """A head that cannot start for quota reasons is not waiting for
        workers: its reservation is suspended, so later small goals are
        not held hostage to budget the head could not use anyway."""
        from repro.service import TenantQuota

        with make_service(quotas={"wide": TenantQuota(max_active=1)}) as service:
            hog = submit_map(
                service, "wide", qos=QoS.wall_clock(0.4), **HOG
            )
            # Same tenant, at its active quota AND load-infeasible: held,
            # with both blockers in force.
            wide = submit_map(
                service, "wide", value=2, qos=QoS.wall_clock(0.28), **WIDE
            )
            assert wide.status() is ExecutionStatus.QUEUED
            small = submit_map(
                service, "other", value=3, qos=QoS.wall_clock(5.0), **SMALL
            )
            # The quota, not the budget, holds the head: no reservation.
            assert small.status() is ExecutionStatus.RUNNING
            assert hog.result(timeout=30.0) == 8
            assert wide.result(timeout=30.0) == 8
            assert small.result(timeout=30.0) == 3

    def test_reservation_recorded_on_the_held_record(self):
        with make_service() as service:
            submit_map(service, "hog", qos=QoS.wall_clock(0.4), **HOG)
            wide = submit_map(
                service, "wide", value=2, qos=QoS.wall_clock(0.28), **WIDE
            )
            assert wide.status() is ExecutionStatus.QUEUED
            with service._lock:
                head = service._held[0]
                assert head.load_held
                # 4 x 0.15s leaves against a 0.28s goal: only LP 4 fits.
                assert head.reserved_lp == 4
            service.shutdown(wait=True, timeout=30.0)


class TestAdmissionReservedBlocker:
    """Controller-level contract of the reserved hard blocker."""

    def controller(self):
        return AdmissionController(capacity=CAPACITY)

    def warm_analyzer(self, width, leaf, qos):
        program = sleepy_map_program(width, leaf)
        analyzer = ExecutionAnalyzer(qos=qos, skeleton=program)
        analyzer.initialize_estimates(
            program, sleepy_map_snapshot(program, width, leaf)
        )
        return program, analyzer

    def test_reserved_budget_blocks_even_floor_feasible_goals(self):
        qos = QoS.wall_clock(5.0)
        _program, analyzer = self.warm_analyzer(qos=qos, **SMALL)
        admission = self.controller()
        open_decision = admission.evaluate(
            qos, analyzer.plan, "t", live_count=0, available_lp=0
        )
        assert open_decision.admitted  # floor-feasible on a busy machine
        reserved_decision = admission.evaluate(
            qos, analyzer.plan, "t", live_count=0, available_lp=-4, reserved=4
        )
        assert reserved_decision.held
        assert reserved_decision.load_blocked
        assert "reserved" in reserved_decision.reason

    def test_reservation_for_matches_minimal_idle_lp(self):
        qos = QoS.wall_clock(0.28)
        _program, analyzer = self.warm_analyzer(qos=qos, **WIDE)
        admission = self.controller()
        assert admission.reservation_for(qos, analyzer.plan) == 4
        assert admission.reservation_for(None, analyzer.plan) is None
