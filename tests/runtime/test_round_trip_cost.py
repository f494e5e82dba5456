"""Communication cost on the plain simulator.

A virtual cluster whose every task pays one dispatch and one collect hop
is the simulator over a cost model shifted by the round trip: the task
occupies its worker for ``rtt + t(m)``.  These tests pin that model (the
distributed latency bench is built on it) and the paper's
platform-independence claim on it: the unchanged controller enrolls
workers to meet a goal, and the round trip is absorbed into the observed
``t(m)`` so planning stays honest.
"""

import pytest

from repro import (
    Execute,
    Map,
    Merge,
    PlatformError,
    PlatformSpec,
    Seq,
    SimulatedPlatform,
    SimulatedSpec,
    Split,
    make_platform,
    run,
)
from repro.core.controller import AutonomicController
from repro.core.qos import QoS
from repro.runtime.costmodel import (
    CallableCostModel,
    ConstantCostModel,
    TableCostModel,
)


def wide_map(width=4):
    return Map(
        Split(lambda v: [v + i for i in range(width)], name="w"),
        Seq(Execute(lambda v: v * 2, name="dbl")),
        Merge(sum, name="sum"),
    )


def shifted(base, rtt):
    """*base* with one round trip added to every task."""
    return CallableCostModel(lambda m, v: base.duration(m, v) + rtt)


class TestShiftedCostModel:
    def test_zero_round_trip_matches_base_simulator(self):
        base = SimulatedPlatform(parallelism=2, cost_model=ConstantCostModel(1.0))
        wired = SimulatedPlatform(
            parallelism=2, cost_model=shifted(ConstantCostModel(1.0), 0.0)
        )
        assert run(wide_map(4), 0, base) == run(wide_map(4), 0, wired)
        assert base.now() == wired.now()

    def test_round_trip_inflates_every_task(self):
        # 6 tasks (split, 4 leaves, merge) on one worker: each pays 0.1 + 1.0 + 0.1.
        plat = SimulatedPlatform(
            parallelism=1, cost_model=shifted(ConstantCostModel(1.0), 0.2)
        )
        run(wide_map(4), 0, plat)
        assert plat.now() == pytest.approx(6 * 1.2)

    def test_round_trip_is_paid_per_stage_not_per_job(self):
        # Enough workers for every leaf: split, one leaf wave, merge.
        plat = SimulatedPlatform(
            parallelism=4, cost_model=shifted(ConstantCostModel(1.0), 0.2)
        )
        run(wide_map(4), 0, plat)
        assert plat.now() == pytest.approx(3 * 1.2)

    def test_functional_result_unchanged(self):
        plat = SimulatedPlatform(
            parallelism=3, cost_model=shifted(ConstantCostModel(1.0), 0.1)
        )
        assert run(wide_map(5), 10, plat) == sum((10 + i) * 2 for i in range(5))

    def test_table_form_charges_the_round_trip_to_every_muscle(self):
        # The real-sockets reference curve's form: named leaves cost
        # t + rtt, every other muscle (split, merge) the round trip alone.
        rtt = 0.05
        plat = SimulatedPlatform(
            parallelism=1,
            cost_model=TableCostModel({"dbl": 1.0 + rtt}, default=rtt),
        )
        run(wide_map(4), 0, plat)
        assert plat.now() == pytest.approx(4 * (1.0 + rtt) + 2 * rtt)

    def test_spec_carries_the_shifted_model(self):
        spec = PlatformSpec(
            kind="simulated",
            workers=1,
            simulated=SimulatedSpec(cost_model=shifted(ConstantCostModel(1.0), 0.2)),
        )
        with make_platform(spec) as plat:
            run(wide_map(4), 0, plat)
            assert plat.now() == pytest.approx(6 * 1.2)

    def test_simulator_rejects_rtt_field(self):
        # On the simulator a round trip is a cost model, not a spec field.
        with pytest.raises(PlatformError, match="does not accept spec field 'rtt'"):
            make_platform(PlatformSpec(kind="simulated", rtt=0.1))


class TestAutonomicUnderRoundTrip:
    """The unchanged controller drives worker enrollment under
    communication cost exactly like thread allocation."""

    def make(self, latency):
        fs = Split(lambda xs: [xs] * 8, name="fs")
        fe = Execute(lambda xs: 1, name="fe")
        fm = Merge(sum, name="fm")
        skel = Map(fs, Seq(fe), fm)
        costs = TableCostModel({fs: 0.5, fe: 2.0, fm: 0.1})
        plat = SimulatedPlatform(
            parallelism=1, cost_model=shifted(costs, 2 * latency), max_parallelism=8
        )
        ctrl = AutonomicController(plat, skel, qos=QoS.wall_clock(7.0, max_lp=8))
        # fm runs last in a single-level map: warm-start it.
        ctrl.estimators.time_estimator(fm).initialize(0.1 + 2 * latency)
        return skel, plat, ctrl

    def test_controller_enrolls_workers(self):
        skel, plat, _ctrl = self.make(latency=0.0)
        # sequential: 0.5 + 8*2 + 0.1 = 16.6 > 7 -> must grow.
        assert skel.compute([1], platform=plat) == 8
        assert plat.now() <= 7.0 + 1e-9
        assert plat.metrics.peak_active() > 1

    def test_goal_still_met_under_latency(self):
        skel, plat, _ctrl = self.make(latency=0.1)
        assert skel.compute([1], platform=plat) == 8
        assert plat.now() <= 7.0 + 1e-9

    def test_estimators_absorb_communication(self):
        """Observed t(m) includes the round trip, so planning stays honest."""
        skel, plat, ctrl = self.make(latency=0.25)
        skel.compute([1], platform=plat)
        fe = skel.subskel.execute
        # true compute 2.0 + 0.5 round trip
        assert ctrl.estimators.t(fe) == pytest.approx(2.5)
