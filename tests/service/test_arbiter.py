"""Unit tests of the LP arbiter's EEDF allocation.

Stub analyzers return hand-built :class:`AnalysisReport` objects over
small ADGs, so the allocation policy is tested in isolation from any
platform timing.
"""

import pytest

from repro.core.adg import ADG
from repro.core.analysis import AnalysisReport
from repro.core.estimator import EstimatorRegistry
from repro.core.planning import PlanEngine
from repro.core.statemachines import MachineRegistry
from repro.runtime.clock import VirtualClock
from repro.runtime.platform import Platform
from repro.service import LPArbiter


def pending_fanout_adg(width, duration):
    """*width* independent pending activities of *duration* seconds."""
    adg = ADG()
    for i in range(width):
        adg.add(f"leaf{i}", duration)
    return adg


class StubAnalyzer:
    """Duck-typed ExecutionAnalyzer: returns a canned report (or None)."""

    def __init__(
        self, execution_id, deadline=None, width=4, duration=1.0, cold=False, qos=None
    ):
        self.execution_id = execution_id
        self.qos = qos
        self._cold = cold
        self._deadline = deadline
        self._width = width
        self._duration = duration

    def analyze(self, now, current_lp=None):
        if self._cold:
            return None
        adg = pending_fanout_adg(self._width, self._duration)
        from repro.core.schedule import best_effort_schedule

        best = best_effort_schedule(adg, now)
        est = EstimatorRegistry()
        return AnalysisReport(
            time=now,
            execution_id=self.execution_id,
            deadline=self._deadline,
            current_lp=current_lp,
            wct_best_effort=best.wct,
            wct_current_lp=None,
            optimal_lp=best.peak(from_time=now),
            adg=adg,
            engine=PlanEngine(MachineRegistry(est), est),
        )


def make_platform(capacity=8):
    return Platform(parallelism=1, max_parallelism=capacity, clock=VirtualClock())


class TestAllocation:
    def test_cold_executions_soak_up_idle_budget(self):
        # LP-1 cold start is a floor, not a ceiling: with nothing warm
        # to serve, the idle budget spreads across the cold executions.
        platform = make_platform()
        arbiter = LPArbiter(platform, capacity=8)
        outcome = arbiter.rebalance(
            0.0, {1: StubAnalyzer(1, cold=True), 2: StubAnalyzer(2, cold=True)}
        )
        assert outcome.shares == {1: 4, 2: 4}
        assert outcome.cold == (1, 2)
        assert platform.get_shares() == {1: 4, 2: 4}

    def test_cold_executions_never_displace_warm_deadlines(self):
        platform = make_platform(capacity=6)
        arbiter = LPArbiter(platform, capacity=6)
        outcome = arbiter.rebalance(
            0.0,
            {
                1: StubAnalyzer(1, deadline=1.2, width=4, duration=1.0),
                2: StubAnalyzer(2, cold=True),
            },
        )
        # The urgent warm execution gets its minimal LP (4) before the
        # cold one receives anything beyond its floor.
        assert outcome.shares[1] == 4
        assert outcome.shares[2] == 2  # floor 1 + the single idle worker
        assert sum(outcome.shares.values()) <= 6

    def test_urgent_deadline_granted_minimal_lp_first(self):
        platform = make_platform(capacity=6)
        arbiter = LPArbiter(platform, capacity=6)
        # Four 1s leaves each.  Tight deadline (1.2s away) needs LP 4;
        # loose deadline (4.5s away) needs LP 1.
        analyzers = {
            1: StubAnalyzer(1, deadline=4.5, width=4, duration=1.0),
            2: StubAnalyzer(2, deadline=1.2, width=4, duration=1.0),
        }
        outcome = arbiter.rebalance(0.0, analyzers)
        assert outcome.shares[2] == 4  # urgent first, minimal LP meeting 1.2s
        assert outcome.shares[1] >= 1
        assert outcome.infeasible == ()
        assert sum(outcome.shares.values()) <= 6

    def test_infeasible_goal_flagged_and_granted_best_effort(self):
        platform = make_platform(capacity=3)
        arbiter = LPArbiter(platform, capacity=3)
        # 4 x 1s leaves, deadline in 0.5s: not even LP 4 would meet it,
        # and only 3 workers exist anyway.
        analyzers = {7: StubAnalyzer(7, deadline=0.5, width=4, duration=1.0)}
        outcome = arbiter.rebalance(0.0, analyzers)
        assert outcome.infeasible == (7,)
        assert outcome.shares[7] == 3  # best-effort peak clamped to budget

    def test_leftover_budget_tops_up_to_optimal_lp(self):
        platform = make_platform(capacity=10)
        arbiter = LPArbiter(platform, capacity=10)
        # Each needs only LP 1 for its loose goal; optimal LP is 4.
        analyzers = {
            1: StubAnalyzer(1, deadline=100.0, width=4, duration=1.0),
            2: StubAnalyzer(2, deadline=200.0, width=4, duration=1.0),
        }
        outcome = arbiter.rebalance(0.0, analyzers)
        # Leftovers flow in urgency order, capped at the optimal LP of 4.
        assert outcome.shares[1] == 4
        assert outcome.shares[2] == 4
        assert outcome.total_lp == 8

    def test_everyone_keeps_a_worker_under_pressure(self):
        platform = make_platform(capacity=3)
        arbiter = LPArbiter(platform, capacity=3)
        analyzers = {
            i: StubAnalyzer(i, deadline=0.1 * i, width=4, duration=1.0)
            for i in range(1, 6)
        }
        outcome = arbiter.rebalance(0.0, analyzers)
        assert set(outcome.shares) == set(analyzers)
        assert all(s >= 1 for s in outcome.shares.values())
        assert outcome.total_lp <= 3

    def test_tenant_max_lp_goal_caps_the_grant(self):
        from repro import QoS

        platform = make_platform(capacity=10)
        arbiter = LPArbiter(platform, capacity=10)
        # Loose deadline, optimal LP 4, but the tenant capped itself at 2
        # ("never allocate more than N threads") — the top-up must stop
        # there even though the pool is idle.
        analyzers = {
            1: StubAnalyzer(
                1, deadline=100.0, width=4, duration=1.0,
                qos=QoS.wall_clock(100.0, max_lp=2),
            )
        }
        outcome = arbiter.rebalance(0.0, analyzers)
        assert outcome.shares[1] == 2

    def test_tenant_max_lp_goal_caps_cold_spread(self):
        from repro import QoS

        platform = make_platform(capacity=8)
        arbiter = LPArbiter(platform, capacity=8)
        analyzers = {
            1: StubAnalyzer(1, cold=True, qos=QoS.wall_clock(100.0, max_lp=3)),
            2: StubAnalyzer(2, cold=True),
        }
        outcome = arbiter.rebalance(0.0, analyzers)
        assert outcome.shares[1] == 3  # capped by its MaxLPGoal
        assert outcome.shares[2] == 5  # soaks up the rest

    def test_best_effort_tenants_arbitrate_after_deadlines(self):
        platform = make_platform(capacity=5)
        arbiter = LPArbiter(platform, capacity=5)
        analyzers = {
            1: StubAnalyzer(1, deadline=None, width=4, duration=1.0),
            2: StubAnalyzer(2, deadline=1.2, width=4, duration=1.0),
        }
        outcome = arbiter.rebalance(0.0, analyzers)
        assert outcome.shares[2] == 4  # deadline-bound first
        assert outcome.shares[1] == 1  # best-effort floor


class TestMechanics:
    def test_requires_budget(self):
        platform = Platform(parallelism=1, clock=VirtualClock())
        with pytest.raises(ValueError, match="budget"):
            LPArbiter(platform)

    def test_capacity_defaults_to_platform_max(self):
        platform = make_platform(capacity=6)
        assert LPArbiter(platform).capacity == 6

    def test_throttle_skips_close_rebalances(self):
        platform = make_platform()
        arbiter = LPArbiter(platform, capacity=8, min_interval=1.0)
        analyzers = {1: StubAnalyzer(1, cold=True)}
        assert arbiter.rebalance(0.0, analyzers) is not None
        assert arbiter.rebalance(0.5, analyzers) is None  # throttled
        assert arbiter.rebalance(0.5, analyzers, force=True) is not None
        assert arbiter.rebalance(2.0, analyzers) is not None

    def test_empty_live_set_clears_shares(self):
        platform = make_platform()
        arbiter = LPArbiter(platform, capacity=8)
        arbiter.rebalance(0.0, {1: StubAnalyzer(1, cold=True)})
        assert platform.get_shares() == {1: 8}  # lone cold exec: whole pool
        assert arbiter.rebalance(1.0, {}) is None
        assert platform.get_shares() == {}

    def test_shares_history_tracks_one_execution(self):
        platform = make_platform()
        arbiter = LPArbiter(platform, capacity=8)
        arbiter.rebalance(0.0, {1: StubAnalyzer(1, cold=True)})
        arbiter.rebalance(
            1.0, {1: StubAnalyzer(1, deadline=100.0, width=4, duration=1.0)}
        )
        history = arbiter.shares_history(1)
        # Cold floor + idle budget first, then the warm optimal LP.
        assert history[0] == 8 and history[-1] == 4

    def test_history_window_is_bounded(self):
        platform = make_platform()
        arbiter = LPArbiter(platform, capacity=8, history=4)
        for i in range(10):
            arbiter.rebalance(float(i), {1: StubAnalyzer(1, cold=True)})
        assert len(arbiter.rebalances) == 4
        assert arbiter.last_rebalance.time == 9.0
