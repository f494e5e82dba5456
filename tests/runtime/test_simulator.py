"""Unit tests for the discrete-event simulator platform."""

import pytest

from repro import (
    EventRecorder,
    Execute,
    Map,
    Merge,
    Seq,
    SimulatedPlatform,
    Split,
    run,
)
from repro.errors import MuscleExecutionError, PlatformError
from repro.runtime.costmodel import ConstantCostModel, TableCostModel
from repro.skeletons import sequential_evaluate


def wide_map(width=4):
    return Map(
        Split(lambda v: [v + i for i in range(width)], name="w"),
        Seq(Execute(lambda v: v * 2, name="dbl")),
        Merge(sum, name="sum"),
    )


class TestVirtualTime:
    def test_sequential_time_adds_up(self):
        # split + 4 executes + merge at 1s each on one core = 6s.
        plat = SimulatedPlatform(parallelism=1, cost_model=ConstantCostModel(1.0))
        run(wide_map(4), 0, plat)
        assert plat.now() == pytest.approx(6.0)

    def test_parallel_time_shrinks(self):
        plat = SimulatedPlatform(parallelism=4, cost_model=ConstantCostModel(1.0))
        run(wide_map(4), 0, plat)
        # split 1s + executes in parallel 1s + merge 1s.
        assert plat.now() == pytest.approx(3.0)

    def test_more_cores_than_work_changes_nothing(self):
        p4 = SimulatedPlatform(parallelism=4, cost_model=ConstantCostModel(1.0))
        p9 = SimulatedPlatform(parallelism=9, cost_model=ConstantCostModel(1.0))
        run(wide_map(4), 0, p4)
        run(wide_map(4), 0, p9)
        assert p4.now() == p9.now()

    def test_zero_cost_default(self):
        plat = SimulatedPlatform(parallelism=2)
        run(wide_map(4), 0, plat)
        assert plat.now() == 0.0

    def test_per_muscle_costs(self):
        skel = wide_map(2)
        costs = TableCostModel({"w": 2.0, "dbl": 3.0, "sum": 1.0})
        plat = SimulatedPlatform(parallelism=1, cost_model=costs)
        run(skel, 0, plat)
        assert plat.now() == pytest.approx(2 + 3 + 3 + 1)


class TestCorrectness:
    def test_result_matches_reference(self):
        skel = wide_map(5)
        plat = SimulatedPlatform(parallelism=3, cost_model=ConstantCostModel(0.5))
        assert run(skel, 10, plat) == sequential_evaluate(wide_map(5), 10)

    def test_multiple_executions_same_platform(self):
        plat = SimulatedPlatform(parallelism=2)
        skel = wide_map(3)
        assert run(skel, 1, plat) == run(skel, 1, plat)

    def test_muscle_error_propagates(self):
        skel = Seq(lambda v: 1 / 0)
        plat = SimulatedPlatform()
        with pytest.raises(MuscleExecutionError) as exc_info:
            run(skel, 0, plat)
        assert isinstance(exc_info.value.cause, ZeroDivisionError)

    def test_execution_continues_after_error(self):
        plat = SimulatedPlatform()
        with pytest.raises(MuscleExecutionError):
            run(Seq(lambda v: 1 / 0), 0, plat)
        assert run(Seq(lambda v: v + 1), 1, plat) == 2


class TestDeterminism:
    def test_identical_event_logs(self):
        def execute_once():
            plat = SimulatedPlatform(parallelism=2, cost_model=ConstantCostModel(1.0))
            rec = EventRecorder()
            plat.add_listener(rec)
            run(wide_map(6), 3, plat)
            return [(e.label, e.index, round(e.timestamp, 9), e.worker)
                    for e in rec.events]

        assert execute_once() == execute_once()

    def test_task_log_deterministic(self):
        def execute_once():
            plat = SimulatedPlatform(
                parallelism=3, cost_model=ConstantCostModel(1.0), trace_tasks=True
            )
            run(wide_map(6), 3, plat)
            return plat.task_log

        assert execute_once() == execute_once()


class TestParallelismControl:
    def test_set_parallelism_clamps(self):
        plat = SimulatedPlatform(parallelism=2, max_parallelism=4)
        assert plat.set_parallelism(100) == 4
        assert plat.set_parallelism(0) == 1

    def test_grow_mid_run_takes_effect(self):
        # Raise LP right after the split: the 4 executes then run in
        # parallel instead of serially.
        skel = wide_map(4)
        plat = SimulatedPlatform(parallelism=1, cost_model=ConstantCostModel(1.0))
        plat.bus.add_callback(
            lambda e: (plat.set_parallelism(4), e.value)[1],
            kind="map",
        )
        run(skel, 0, plat)
        assert plat.now() == pytest.approx(3.0)

    def test_metrics_track_active(self):
        plat = SimulatedPlatform(parallelism=4, cost_model=ConstantCostModel(1.0))
        run(wide_map(4), 0, plat)
        assert plat.metrics.peak_active() == 4


class TestDepthFirst:
    def test_depth_first_finishes_first_branch_before_second(self):
        # Nested maps on one core: the first inner map must fully finish
        # (including its merge) before the second inner split starts.
        fs = Split(lambda v: [v, v + 1], name="fs")
        inner = Map(Split(lambda v: [v, v], name="fs2"), Seq(lambda v: v), sum)
        outer = Map(fs, inner, Merge(sum, name="fm"))
        plat = SimulatedPlatform(parallelism=1, cost_model=ConstantCostModel(1.0))
        rec = EventRecorder()
        plat.add_listener(rec)
        run(outer, 0, plat)
        labels = [(e.label, e.index) for e in rec.events]
        first_merge = labels.index(("map@am", 1))
        second_split = labels.index(("map@bs", 2))
        assert first_merge < second_split


class TestShutdown:
    def test_submit_after_shutdown_raises(self):
        plat = SimulatedPlatform()
        plat.shutdown()
        with pytest.raises(PlatformError):
            run(Seq(lambda v: v), 0, plat)
