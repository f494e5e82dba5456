"""Unit/integration tests for the autonomic controller (MAPE loop)."""

import pytest

from repro import (
    Execute,
    Map,
    Merge,
    Seq,
    SimulatedPlatform,
    Split,
)
from repro.core.controller import AutonomicController
from repro.core.persistence import snapshot_estimates
from repro.core.qos import QoS
from repro.errors import QoSError, StateMachineError
from repro.runtime.costmodel import TableCostModel


def two_level_app():
    """Small paper-style program: 3 branches x 4 executes."""
    fs1 = Split(lambda xs: [xs] * 3, name="fs1")
    fs2 = Split(lambda xs: [xs] * 4, name="fs2")
    fe = Execute(lambda xs: 1, name="fe")
    fm = Merge(lambda rs: sum(rs), name="fm")
    skel = Map(fs1, Map(fs2, Seq(fe), fm), fm)
    costs = TableCostModel({fs1: 4.0, fs2: 1.0, fe: 0.5, fm: 0.25})
    return skel, costs


def autonomic_run(goal, skel=None, costs=None, snapshot=None, **ctrl_kw):
    if skel is None:
        skel, costs = two_level_app()
    platform = SimulatedPlatform(parallelism=1, cost_model=costs, max_parallelism=16)
    controller = AutonomicController(
        platform, skel, qos=QoS.wall_clock(goal, max_lp=16), **ctrl_kw
    )
    if snapshot is not None:
        controller.initialize_estimates(skel, snapshot)
    result = skel.compute([1], platform=platform)
    return platform, controller, result


class TestConstruction:
    def test_requires_qos(self):
        with pytest.raises(QoSError):
            AutonomicController(SimulatedPlatform(), qos=None)

    def test_rejects_unknown_policies(self):
        with pytest.raises(QoSError):
            AutonomicController(
                SimulatedPlatform(), qos=QoS.wall_clock(1), increase_policy="warp"
            )
        with pytest.raises(QoSError):
            AutonomicController(
                SimulatedPlatform(), qos=QoS.wall_clock(1), decrease_policy="never"
            )

    def test_validates_unsupported_skeletons(self):
        from repro import If

        skel = If(lambda v: True, Seq(lambda v: v), Seq(lambda v: v))
        with pytest.raises(StateMachineError):
            AutonomicController(SimulatedPlatform(), skel, qos=QoS.wall_clock(1))

    def test_extensions_permit_if(self):
        from repro import If

        skel = If(lambda v: True, Seq(lambda v: v), Seq(lambda v: v))
        AutonomicController(
            SimulatedPlatform(), skel, qos=QoS.wall_clock(1), extensions=True
        )

    def test_detach(self):
        platform = SimulatedPlatform()
        ctrl = AutonomicController(platform, qos=QoS.wall_clock(1))
        assert ctrl in platform.bus.listeners()
        ctrl.detach()
        assert ctrl not in platform.bus.listeners()


class TestSelfOptimization:
    def test_increases_lp_to_meet_goal(self):
        # Sequential: 4 + 3*(1 + 4*0.5 + 0.25) + 0.25 = 14.0
        platform, ctrl, _ = autonomic_run(goal=10.0)
        assert platform.now() <= 10.0 + 1e-9
        assert any(d.action == "increase" for d in ctrl.decisions)
        assert platform.metrics.peak_active() > 1

    def test_no_increase_when_goal_loose(self):
        platform, ctrl, _ = autonomic_run(goal=30.0)
        assert platform.metrics.peak_active() == 1
        assert not any(d.action == "increase" and d.changed for d in ctrl.decisions)

    def test_cold_start_waits_for_first_merge(self):
        platform, ctrl, _ = autonomic_run(goal=10.0)
        first = ctrl.decisions[0]
        # first analysis only after every muscle observed once: first
        # branch finishes at 4 + 1 + 4*0.5 + 0.25 = 7.25.
        assert first.time == pytest.approx(7.25)

    def test_warm_start_reacts_at_first_event(self):
        _, cold_ctrl, _ = autonomic_run(goal=30.0)
        skel, costs = two_level_app()
        snapshot_src, _ = two_level_app()
        # snapshot from the cold run maps onto the fresh skeleton
        snapshot = snapshot_estimates(cold_ctrl.machines.roots[0].skel,
                                      cold_ctrl.estimators)
        platform, ctrl, _ = autonomic_run(
            goal=10.0, skel=skel, costs=costs, snapshot=snapshot
        )
        # The outer split runs [0, 4]; with warm estimates the first
        # increase decision lands right at its completion.
        first_inc = ctrl.first_increase()
        assert first_inc is not None
        assert first_inc.time == pytest.approx(4.0)

    def test_goal_met_with_lp_goal_cap(self):
        skel, costs = two_level_app()
        platform = SimulatedPlatform(parallelism=1, cost_model=costs,
                                     max_parallelism=16)
        ctrl = AutonomicController(
            platform, skel, qos=QoS.wall_clock(10.0, max_lp=2)
        )
        skel.compute([1], platform=platform)
        assert max((d.lp_after for d in ctrl.decisions), default=1) <= 2

    def test_unreachable_goal_uses_best_effort_cap(self):
        platform, ctrl, _ = autonomic_run(goal=4.5)
        # Impossible (first split alone takes 4 of the 4.5): controller
        # should still push LP up to the optimal/bounded value and flag
        # unreachable at some point.
        assert any(d.action in ("unreachable", "increase") for d in ctrl.decisions)

    def test_decrease_halves(self):
        # Force an over-allocation, then watch the halving decrease.
        skel, costs = two_level_app()
        platform = SimulatedPlatform(parallelism=12, cost_model=costs,
                                     max_parallelism=16)
        ctrl = AutonomicController(platform, skel, qos=QoS.wall_clock(28.0, max_lp=16))
        skel.compute([1], platform=platform)
        decreases = [d for d in ctrl.decisions if d.action == "decrease" and d.changed]
        assert decreases
        assert decreases[0].lp_after == decreases[0].lp_before // 2

    def test_decrease_policy_none(self):
        skel, costs = two_level_app()
        platform = SimulatedPlatform(parallelism=12, cost_model=costs,
                                     max_parallelism=16)
        ctrl = AutonomicController(
            platform, skel, qos=QoS.wall_clock(28.0, max_lp=16),
            decrease_policy="none",
        )
        skel.compute([1], platform=platform)
        assert not any(d.action == "decrease" for d in ctrl.decisions)

    def test_optimal_policy_jumps_higher_than_minimal(self):
        _, minimal, _ = autonomic_run(goal=10.0, increase_policy="minimal")
        _, optimal, _ = autonomic_run(goal=10.0, increase_policy="optimal")
        max_min = max(d.lp_after for d in minimal.decisions)
        max_opt = max(d.lp_after for d in optimal.decisions)
        assert max_opt >= max_min


class TestDecisionLog:
    def test_summary_fields(self):
        _, ctrl, _ = autonomic_run(goal=10.0)
        summary = ctrl.summary()
        assert summary["analyses"] == len(ctrl.decisions)
        assert summary["increases"] >= 1
        assert summary["first_increase_time"] is not None

    def test_decisions_carry_estimates(self):
        _, ctrl, _ = autonomic_run(goal=10.0)
        d = ctrl.decisions[0]
        assert d.wct_best_effort <= d.wct_current_lp + 1e-9
        assert d.deadline == pytest.approx(10.0)
        assert d.optimal_lp >= 1

    def test_functional_result_unaffected(self):
        _, _, result = autonomic_run(goal=10.0)
        assert result == 12  # 3 branches x 4 executes x 1
