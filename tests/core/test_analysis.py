"""ExecutionAnalyzer — the factored-out Monitor/Analyze half of the loop."""

import pytest

from repro import (
    Execute,
    Fork,
    Map,
    Merge,
    QoS,
    Seq,
    SimulatedPlatform,
    Split,
)
from repro.core.analysis import ExecutionAnalyzer, is_analysis_point
from repro.errors import StateMachineError
from repro.events.bus import Listener
from repro.events.types import When, Where
from repro.runtime.costmodel import ConstantCostModel
from repro.runtime.interpreter import submit
from repro.runtime.task import Execution


def timed_map(width=4):
    return Map(
        Split(lambda v, w=width: [v] * w, name="fs"),
        Seq(Execute(lambda v: v + 1, name="fe")),
        Merge(sum, name="fm"),
    )


def timed_platform(parallelism=2):
    return SimulatedPlatform(
        parallelism=parallelism,
        cost_model=ConstantCostModel(1.0),
        max_parallelism=8,
    )


class TestValidation:
    def test_rejects_unsupported_patterns(self):
        fork = Fork(
            Split(lambda v: [v], name="s"),
            [Seq(Execute(lambda v: v, name="e"))],
            Merge(sum, name="m"),
        )
        with pytest.raises(StateMachineError, match="fork"):
            ExecutionAnalyzer(skeleton=fork)

    def test_extensions_allow_them(self):
        fork = Fork(
            Split(lambda v: [v], name="s"),
            [Seq(Execute(lambda v: v, name="e"))],
            Merge(sum, name="m"),
        )
        ExecutionAnalyzer(skeleton=fork, extensions=True)  # no raise


class TestMonitoring:
    def test_not_ready_before_any_event(self):
        analyzer = ExecutionAnalyzer()
        assert not analyzer.ready()
        assert analyzer.analyze(0.0) is None
        assert not analyzer.finished

    def test_full_run_warms_estimators_and_finishes(self):
        platform = timed_platform()
        analyzer = ExecutionAnalyzer()
        platform.add_listener(analyzer)
        program = timed_map()
        assert submit(program, 1, platform).get() == 8
        assert analyzer.finished
        for muscle in program.muscles():
            assert analyzer.estimators.has_time(muscle)
        # The simulator charged 1 virtual second per muscle.
        assert analyzer.estimators.t(program.split) == pytest.approx(1.0)

    def test_scoped_analyzer_ignores_foreign_executions(self):
        platform = timed_platform()
        exec_a = Execution(platform.new_future())
        exec_b = Execution(platform.new_future())
        analyzer_a = ExecutionAnalyzer(execution_id=exec_a.id)
        platform.add_listener(analyzer_a)
        submit(timed_map(), 1, platform, execution=exec_a).get()
        submit(timed_map(), 1, platform, execution=exec_b).get()
        assert len(analyzer_a.machines.roots) == 1
        # Each of a's muscles observed exactly as often as it ran.
        root = analyzer_a.machines.roots[0]
        assert analyzer_a.estimators.time_estimator(root.skel.split).observations == 1


class TestAnalysisReports:
    def warmed_analyzer_and_platform(self, qos=None):
        """Run once to warm estimates, then start a second execution."""
        platform = timed_platform()
        program = timed_map()
        analyzer = ExecutionAnalyzer(qos=qos)
        platform.add_listener(analyzer)
        submit(program, 1, platform).get()
        return platform, program, analyzer

    def test_report_fields_mid_run(self):
        qos = QoS.wall_clock(100.0)
        platform, program, analyzer = self.warmed_analyzer_and_platform(qos)
        reports = []

        def on_split_done(event):
            if is_analysis_point(event) and event.where is Where.SPLIT:
                reports.append(analyzer.analyze(platform.now(), current_lp=2))
            return event.value

        platform.bus.add_callback(on_split_done, when=When.AFTER)
        submit(program, 1, platform).get()
        assert reports and reports[-1] is not None
        report = reports[-1]
        # Right after the second run's split: 4 leaves + merge pending.
        assert report.optimal_lp == 4
        assert report.wct_best_effort == pytest.approx(report.time + 2.0)
        # LP 2 runs the 4 leaves in two waves, then the merge.
        assert report.wct_current_lp == pytest.approx(report.time + 3.0)
        assert report.deadline == pytest.approx(analyzer.exec_start[
            analyzer.machines.roots[-1].index
        ] + 100.0)
        assert report.slack > 0 and not report.goal_at_risk
        assert report.minimal_lp(cap=8) == 1  # loose goal: LP 1 suffices
        assert report.wct_at(1) == pytest.approx(report.time + 5.0)

    def test_goal_at_risk_when_deadline_impossible(self):
        qos = QoS.wall_clock(0.5)  # each muscle costs 1 virtual second
        platform, program, analyzer = self.warmed_analyzer_and_platform(qos)
        reports = []

        def probe(event):
            if is_analysis_point(event):
                report = analyzer.analyze(platform.now())
                if report is not None:
                    reports.append(report)
            return event.value

        platform.bus.add_callback(probe, when=When.AFTER)
        submit(program, 1, platform).get()
        assert reports
        assert all(r.goal_at_risk for r in reports)
        assert all(r.minimal_lp(cap=8) is None for r in reports)

    def test_is_analysis_point(self):
        from tests.conftest import build_program

        platform = SimulatedPlatform(parallelism=1)
        seen = []
        platform.bus.add_callback(
            lambda e: (seen.append(is_analysis_point(e)), e.value)[1]
        )
        submit(build_program(("seq", 1)), 1, platform).get()
        assert any(seen)  # the seq AFTER is an analysis point


class TestStructuralPreStartAnalysis:
    """Warm-started executions analyze before their first event (ISSUE 3:
    lets the service arbiter grant real needs at the admit rebalance)."""

    def warm_analyzer(self, qos=None, execution_id=1):
        program = timed_map(width=4)
        analyzer = ExecutionAnalyzer(
            qos=qos, execution_id=execution_id, skeleton=program
        )
        from repro.core.persistence import snapshot_from_names

        analyzer.initialize_estimates(
            program,
            snapshot_from_names(
                program, times={"fs": 0.0, "fe": 1.0, "fm": 0.0}, cards={"fs": 4}
            ),
        )
        return program, analyzer

    def test_warm_prestart_analyzes_structurally(self):
        _program, analyzer = self.warm_analyzer(qos=QoS.wall_clock(10.0))
        report = analyzer.analyze(now=3.0)
        assert report is not None
        assert report.optimal_lp == 4  # the map's 4 estimated leaves
        assert report.deadline == 13.0  # assumes the execution starts now
        assert report.minimal_lp() == 1

    def test_cold_prestart_stays_cold(self):
        program = timed_map(width=4)
        analyzer = ExecutionAnalyzer(execution_id=1, skeleton=program)
        assert analyzer.analyze(now=0.0) is None

    def test_no_skeleton_stays_cold(self):
        analyzer = ExecutionAnalyzer(execution_id=1)
        assert analyzer.analyze(now=0.0) is None

    def test_observed_events_take_over_from_the_structure(self):
        platform = timed_platform()
        execution = Execution(platform.new_future())
        program, analyzer = self.warm_analyzer(
            qos=QoS.wall_clock(10.0), execution_id=execution.id
        )
        platform.add_listener(analyzer)
        submit(program, 1, platform, execution=execution)
        assert execution.future.get(timeout=5) == 8
        # Execution finished: analyze must NOT fall back to the structure
        # and report phantom pending work.
        assert analyzer.finished
        assert analyzer.analyze(platform.now()) is None


class TestReportMemo:
    """``analyze`` is a pure function of ``(machines.rev,
    estimators.version, now, current_lp)``: while that key repeats the
    analyzer hands back the *same* report; anything that moves the key,
    or a graph mutated behind the engine, makes a fresh one."""

    def live_analyzer(self, plan_cache=None):
        """A warm analyzer stopped mid-run, right after the split."""
        from repro.core.persistence import snapshot_from_names

        platform = timed_platform()
        program = timed_map(width=4)
        analyzer = ExecutionAnalyzer(
            qos=QoS.wall_clock(100.0), skeleton=program, plan_cache=plan_cache
        )
        analyzer.initialize_estimates(
            program,
            snapshot_from_names(
                program, times={"fs": 1.0, "fe": 1.0, "fm": 1.0}, cards={"fs": 4}
            ),
        )
        stopped = []

        class UntilSplit(Listener):
            def accepts(self, event):
                return not stopped

            def on_event(self, event):
                analyzer.observe(event)
                if is_analysis_point(event) and event.where is Where.SPLIT:
                    stopped.append(platform.now())
                return event.value

        platform.add_listener(UntilSplit())
        future = submit(program, 1, platform)
        future.get()
        assert stopped and analyzer.unfinished_roots()
        return analyzer, program, stopped[0]

    def test_same_object_while_nothing_moved(self):
        analyzer, _program, now = self.live_analyzer()
        first = analyzer.analyze(now)
        assert first is not None
        assert analyzer.analyze(now) is first
        assert first.minimal_lp(cap=8) == first.minimal_lp(cap=8) == 1

    def test_structural_report_is_memoized_too(self):
        _program, analyzer = TestStructuralPreStartAnalysis().warm_analyzer(
            qos=QoS.wall_clock(10.0)
        )
        first = analyzer.analyze(3.0)
        assert first is not None and analyzer.analyze(3.0) is first
        assert analyzer.analyze(4.0).deadline == 14.0

    def test_fresh_after_now_or_current_lp_moves(self):
        analyzer, _program, now = self.live_analyzer()
        first = analyzer.analyze(now)
        later = analyzer.analyze(now + 0.5)
        assert later is not first and later.time == now + 0.5
        at_two = analyzer.analyze(now + 0.5, current_lp=2)
        assert at_two is not later and at_two.wct_current_lp is not None
        assert analyzer.analyze(now + 0.5, current_lp=2) is at_two

    def test_fresh_after_an_event(self):
        from repro.events.types import Event

        analyzer, program, now = self.live_analyzer()
        first = analyzer.analyze(now)
        root = analyzer.machines.roots[0]
        rev = analyzer.machines.rev
        # A control marker: bumps the revision, touches no span.
        analyzer.observe(
            Event(
                skeleton=program,
                kind=program.kind,
                when=When.BEFORE,
                where=Where.NESTED,
                index=root.index,
                parent_index=None,
                value=None,
                timestamp=now,
            )
        )
        assert analyzer.machines.rev == rev + 1
        second = analyzer.analyze(now)
        assert second is not first
        assert second.wct_best_effort == first.wct_best_effort

    def test_plans_survive_a_window_of_pure_no_ops(self):
        """A fan-out marker moves the machine revision, not the graph:
        the next analysis at the same instant is a fresh report over the
        same graph, and its plans are the ones the graph's record kept —
        no schedule pass, no re-pin."""
        from repro.events.types import Event

        analyzer, program, now = self.live_analyzer()
        first = analyzer.analyze(now, current_lp=2)
        first.minimal_lp(cap=8)
        assert first.wct_best_effort > now
        before = analyzer.plan.cache.stats
        root = analyzer.machines.roots[0]
        analyzer.observe(
            Event(
                skeleton=program,
                kind=program.kind,
                when=When.BEFORE,
                where=Where.NESTED,
                index=root.index,
                parent_index=None,
                value=None,
                timestamp=now,
            )
        )
        second = analyzer.analyze(now, current_lp=2)
        assert second is not first and second.adg is first.adg
        assert second.minimal_lp(cap=8) == first.minimal_lp(cap=8)
        assert second.wct_best_effort == first.wct_best_effort
        after = analyzer.plan.cache.stats
        assert after.schedule_passes == before.schedule_passes
        assert after.pin_patches == before.pin_patches
        assert after.projection_patches == before.projection_patches + 1

    def test_fresh_after_the_estimator_version_moves(self):
        analyzer, program, now = self.live_analyzer()
        first = analyzer.analyze(now)
        leaf = next(m for m in program.muscles() if m.name == "fe")
        analyzer.estimators.initialize_time(leaf, 3.0)
        second = analyzer.analyze(now)
        assert second is not first
        assert second.wct_best_effort > first.wct_best_effort

    def test_fresh_after_the_served_graph_was_mutated(self):
        analyzer, _program, now = self.live_analyzer()
        first = analyzer.analyze(now)
        answer = first.minimal_lp(cap=8)
        first.adg.touch()  # mutated behind the engine
        second = analyzer.analyze(now)
        assert second is not first and second.adg is not first.adg
        # The held-over report does not answer from its retired revision.
        assert first.minimal_lp(cap=8) == answer
        assert first._minimal_rev == first.adg.rev

    def test_disabled_cache_is_the_from_scratch_baseline(self):
        from repro.core.planning import PlanCache

        cache = PlanCache(maxsize=0)
        analyzer, _program, now = self.live_analyzer(plan_cache=cache)
        first = analyzer.analyze(now)
        first.wct_best_effort  # the best-effort pass runs when read
        passes = cache.stats.schedule_passes
        second = analyzer.analyze(now)
        assert second is not first
        second.wct_best_effort
        assert cache.stats.schedule_passes > passes
        # LP 1 is certified without a pass; a second scan still starts
        # from scratch, compiling the table anew.
        first.minimal_lp(cap=8)
        compiles = cache.stats.table_compiles
        first.minimal_lp(cap=8)
        assert cache.stats.table_compiles > compiles

    def test_readiness_gate_is_memoized_per_version(self):
        analyzer, program, _now = self.live_analyzer()
        est = analyzer.estimators
        assert est.ready_for(program)
        walks = []
        original = program.muscles
        program.muscles = lambda: walks.append(1) or original()
        assert est.ready_for(program) and not walks  # no tree walk again
        leaf = next(m for m in original() if m.name == "fe")
        est.initialize_time(leaf, 2.0)  # version moves: asked anew, still flat
        assert est.ready_for(program) and not walks

    def test_direct_estimator_initialize_is_seen_without_a_version_bump(self):
        program = timed_map(width=4)
        analyzer = ExecutionAnalyzer(skeleton=program)
        est = analyzer.estimators
        assert not est.ready_for(program)
        version = est.version
        for muscle in program.muscles():
            est.time_estimator(muscle).initialize(1.0)
        est.card_estimator(program.split).initialize(4.0)
        assert est.version == version
        assert est.ready_for(program)
        assert analyzer.analyze(0.0) is not None
