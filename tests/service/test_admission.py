"""Units: tenant quotas, the tenant book and the admission controller."""

import pytest

from repro import QoS
from repro.core.analysis import ExecutionAnalyzer
from repro.core.estimator import EstimatorRegistry
from repro.core.persistence import restore_estimates
from repro.service import AdmissionController, TenantQuota
from repro.service.tenancy import TenantBook
from tests.conftest import sleepy_chain_program, sleepy_chain_snapshot

# ---------------------------------------------------------------------------
# tenancy


class TestTenantQuota:
    def test_rejects_non_positive_caps(self):
        with pytest.raises(ValueError):
            TenantQuota(max_active=0)
        with pytest.raises(ValueError):
            TenantQuota(max_pending=-1)

    def test_unlimited_by_default(self):
        quota = TenantQuota()
        assert quota.max_active is None and quota.max_pending is None


class TestTenantBook:
    def test_quota_lookup_falls_back_to_default(self):
        book = TenantBook(
            default_quota=TenantQuota(max_active=2),
            quotas={"vip": TenantQuota(max_active=10)},
        )
        assert book.quota_for("vip").max_active == 10
        assert book.quota_for("anyone").max_active == 2

    def test_active_counting_and_caps(self):
        book = TenantBook(default_quota=TenantQuota(max_active=2))
        assert book.can_start("t")
        book.started("t")
        book.started("t")
        assert not book.can_start("t")
        book.finished("t")
        assert book.can_start("t")
        assert book.active("t") == 1 and book.total_active() == 1

    def test_pending_counting_and_caps(self):
        book = TenantBook(default_quota=TenantQuota(max_pending=1))
        assert book.can_queue("t")
        book.queued("t")
        assert not book.can_queue("t")
        book.dequeued("t")
        assert book.can_queue("t") and book.total_pending() == 0

    def test_negative_counter_raises(self):
        book = TenantBook()
        with pytest.raises(ValueError):
            book.finished("never-started")


# ---------------------------------------------------------------------------
# admission


def plan_engine(program, estimators=None):
    """The submission's plan engine, as the service builds it: the
    analyzer's, holding *program* and its (cold by default) estimators."""
    return ExecutionAnalyzer(skeleton=program, estimators=estimators).plan


def warm_estimators(program, stages, duration):
    estimators = EstimatorRegistry()
    restore_estimates(
        program, estimators, sleepy_chain_snapshot(program, stages, duration)
    )
    return estimators


def warm_chain(stages, duration):
    program = sleepy_chain_program(stages, duration)
    return plan_engine(program, warm_estimators(program, stages, duration))


@pytest.fixture
def cold_engine():
    return plan_engine(sleepy_chain_program(2, 0.1))


class TestAdmissionValidation:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            AdmissionController(capacity=0)

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            AdmissionController(capacity=1, policy="meh")

    def test_rejects_bad_max_live(self):
        with pytest.raises(ValueError):
            AdmissionController(capacity=1, max_live=0)


class TestFeasibilityGate:
    def test_cold_submission_admitted_optimistically(self):
        engine = plan_engine(sleepy_chain_program(4, 1.0))
        controller = AdmissionController(capacity=8)
        decision = controller.evaluate(
            QoS.wall_clock(0.001), engine, "t", live_count=0
        )
        assert decision.admitted  # no estimates -> paper's cold start

    def test_warm_infeasible_goal_rejected(self):
        engine = warm_chain(4, 1.0)  # serial chain: 4s minimum
        controller = AdmissionController(capacity=8)
        decision = controller.evaluate(
            QoS.wall_clock(1.0), engine, "t", live_count=0
        )
        assert decision.rejected
        assert "infeasible" in decision.reason

    def test_warm_feasible_goal_admitted(self):
        engine = warm_chain(4, 1.0)
        controller = AdmissionController(capacity=8)
        decision = controller.evaluate(
            QoS.wall_clock(10.0), engine, "t", live_count=0
        )
        assert decision.admitted

    def test_qos_max_lp_tightens_the_projection(self):
        # 4 independent 1s stages would fit a 2s goal at LP 4 but the
        # tenant itself capped its LP at 1 -> projection must miss.
        from tests.conftest import sleepy_map_program, sleepy_map_snapshot

        program = sleepy_map_program(4, 1.0)
        estimators = EstimatorRegistry()
        restore_estimates(program, estimators, sleepy_map_snapshot(program, 4, 1.0))
        engine = plan_engine(program, estimators)
        controller = AdmissionController(capacity=8)
        ok = controller.evaluate(QoS.wall_clock(2.0), engine, "t", live_count=0)
        assert ok.admitted
        capped = controller.evaluate(
            QoS.wall_clock(2.0, max_lp=1), engine, "t", live_count=0
        )
        assert capped.rejected

    def test_no_goal_never_gated(self):
        controller = AdmissionController(capacity=1)
        assert controller.evaluate(None, warm_chain(4, 1.0), "t", 0).admitted


class TestCapsAndPolicies:
    def test_max_live_holds_by_default(self, cold_engine):
        controller = AdmissionController(capacity=8, max_live=1)
        decision = controller.evaluate(None, cold_engine, "t", live_count=1)
        assert decision.held
        assert "live-execution cap" in decision.reason

    def test_max_live_rejects_under_reject_policy(self, cold_engine):
        controller = AdmissionController(capacity=8, policy="reject", max_live=1)
        decision = controller.evaluate(None, cold_engine, "t", live_count=1)
        assert decision.rejected

    def test_tenant_active_cap_holds(self, cold_engine):
        book = TenantBook(default_quota=TenantQuota(max_active=1))
        controller = AdmissionController(capacity=8, tenants=book)
        book.started("t")
        decision = controller.evaluate(None, cold_engine, "t", live_count=1)
        assert decision.held
        assert "active quota" in decision.reason

    def test_pending_cap_rejects_held_overflow(self, cold_engine):
        book = TenantBook(
            default_quota=TenantQuota(max_active=1, max_pending=1)
        )
        controller = AdmissionController(capacity=8, tenants=book)
        book.started("t")
        book.queued("t")  # pending slot already taken
        decision = controller.evaluate(None, cold_engine, "t", live_count=1)
        assert decision.rejected
        assert "pending quota" in decision.reason

    def test_can_start_now_mirrors_blockers(self):
        book = TenantBook(default_quota=TenantQuota(max_active=1))
        controller = AdmissionController(capacity=8, tenants=book, max_live=2)
        assert controller.can_start_now("t", live_count=0)
        assert not controller.can_start_now("t", live_count=2)
        book.started("t")
        assert not controller.can_start_now("t", live_count=1)


class TestLoadGate:
    """Load-aware admission: project against the *currently free* budget."""

    def controller(self, capacity=8, **kwargs):
        return AdmissionController(capacity=capacity, **kwargs)

    def warm_map(self, width=4, duration=1.0):
        from tests.conftest import sleepy_map_program, sleepy_map_snapshot

        program = sleepy_map_program(width, duration)
        estimators = EstimatorRegistry()
        restore_estimates(
            program, estimators, sleepy_map_snapshot(program, width, duration)
        )
        return plan_engine(program, estimators)

    def test_feasible_idle_infeasible_under_load_is_held(self):
        engine = self.warm_map(width=4, duration=1.0)
        controller = self.controller()
        idle = controller.evaluate(
            QoS.wall_clock(2.0), engine, "t", 0, available_lp=8
        )
        assert idle.admitted
        loaded = controller.evaluate(
            QoS.wall_clock(2.0), engine, "t", 1, available_lp=1
        )
        assert loaded.held
        assert "current load" in loaded.reason

    def test_load_gate_reports_the_capped_usable_budget(self):
        # available 5 but MaxLPGoal 1: the binding constraint (and the
        # number in the reason) must be the submission's own cap.
        engine = self.warm_map(width=4, duration=1.0)
        controller = self.controller()
        decision = controller.evaluate(
            QoS.wall_clock(2.0, max_lp=1), engine, "t", 1, available_lp=5
        )
        assert decision.rejected  # infeasible even dedicated (cap 1)
        assert "all 1 workers" in decision.reason

    def test_zero_availability_with_max_lp_one_matches_capacity_gate(self):
        # dedicated == usable == 1: the load gate must add nothing beyond
        # the capacity gate, whichever way the goal falls.
        engine = self.warm_map(width=4, duration=1.0)
        controller = self.controller()
        fits_on_one = controller.evaluate(
            QoS.wall_clock(9.0, max_lp=1), engine, "t", 1, available_lp=0
        )
        assert fits_on_one.admitted
        misses_on_one = controller.evaluate(
            QoS.wall_clock(2.0, max_lp=1), engine, "t", 1, available_lp=0
        )
        assert misses_on_one.rejected

    def test_unknown_load_skips_the_gate(self):
        engine = self.warm_map(width=4, duration=1.0)
        controller = self.controller()
        decision = controller.evaluate(
            QoS.wall_clock(2.0), engine, "t", 1, available_lp=None
        )
        assert decision.admitted

    def test_reject_policy_rejects_load_blocked(self):
        engine = self.warm_map(width=4, duration=1.0)
        controller = self.controller(policy="reject")
        decision = controller.evaluate(
            QoS.wall_clock(2.0), engine, "t", 1, available_lp=1
        )
        assert decision.rejected

    def test_cold_submission_not_load_gated(self):
        from tests.conftest import sleepy_map_program

        controller = self.controller()
        decision = controller.evaluate(
            QoS.wall_clock(0.001),
            plan_engine(sleepy_map_program(4, 1.0)),
            "t",
            3,
            available_lp=0,
        )
        assert decision.admitted  # cold start stays optimistic

    def test_load_allows_mirrors_the_gate(self):
        engine = self.warm_map(width=4, duration=1.0)
        controller = self.controller()
        assert controller.load_allows(QoS.wall_clock(2.0), engine, 4)
        assert not controller.load_allows(QoS.wall_clock(2.0), engine, 1)
        assert controller.load_allows(None, engine, 0)
