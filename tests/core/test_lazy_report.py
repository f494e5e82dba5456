"""A report derives its best-effort pair on read, and it equals the reference.

An :class:`~repro.core.analysis.AnalysisReport` built by an analyzer keeps
a snapshot of its plan table at ``(rev, time)`` instead of the values of
``wct_best_effort`` and ``optimal_lp``, and derives them only when read.
At every analysis point of every generated program, at constant and at
value-dependent muscle cost, this checks against the reference passes of
:mod:`repro.core.schedule` on the graph as it stood:

* the lazy pair, read at once and read after the graph moved;
* the pinned base's peak floor is at most the peak;
* ``lp_ceiling(k) == min(optimal_lp, k)`` for ``k`` in 1..9;
* the minimal-LP scan, whose top stops at the floor, equals
  ``minimal_lp_greedy``.

The floor's edge rows get their own cases: a ready row no longer than
EPS, and a clock (``2**33``) at which ``now + d`` rounds back to ``now``
for a ``d`` well above EPS.  Standard library only.
"""

import pytest
from hypothesis import assume, given

from repro import SimulatedPlatform, run
from repro.core.adg import ADG
from repro.core.analysis import AnalysisReport, ExecutionAnalyzer, is_analysis_point
from repro.core.estimator import EstimatorRegistry
from repro.core.persistence import snapshot_estimates
from repro.core.planning import PlanEngine
from repro.core.qos import QoS
from repro.core.schedule import best_effort_schedule, minimal_lp_greedy
from repro.core.statemachines import MachineRegistry
from repro.events.bus import Listener
from repro.runtime.costmodel import CallableCostModel, ConstantCostModel
from tests.conftest import build_program, program_descriptions

pytestmark = pytest.mark.service_stress


def timed_sim():
    return SimulatedPlatform(
        parallelism=3, cost_model=ConstantCostModel(1.0), max_parallelism=8
    )


def _value_cost(_muscle, value):
    key = sum(value) if isinstance(value, (list, tuple)) else value
    return 1.0 + 0.05 * (key % 5)


def jittered_sim():
    """A value-dependent cost (1.0-1.2 s per muscle): most observations
    move a ``t(m)``, so the graph is retimed in place between points."""
    return SimulatedPlatform(
        parallelism=3, cost_model=CallableCostModel(_value_cost), max_parallelism=8
    )


def assert_pair(report, wct, peak):
    """The lazy pair and every ceiling against reference values."""
    assert report.wct_best_effort == wct
    assert report.optimal_lp == peak
    for k in range(1, 10):
        assert report.lp_ceiling(k) == min(peak, k), k


def assert_ceilings_then_pair(report, wct, peak):
    """Ceilings first, smallest ``k`` first, so that the floor answers
    before anything derives the peak; then the pair."""
    for k in range(1, 10):
        assert report.lp_ceiling(k) == min(peak, k), k
    assert report.optimal_lp == peak
    assert report.wct_best_effort == wct


class _LazyChecker(Listener):
    """At every analysis point: a fresh report against the reference, the
    floor against the peak, the scan against the greedy one; every other
    report is held and read only at the next point, after the analyzer
    moved the graph under it."""

    def __init__(self, analyzer, platform):
        self.analyzer = analyzer
        self.platform = platform
        self.held = None  # (report, adg rev when built, wct, peak)
        self.checked = 0
        self.moved = 0

    def on_event(self, event):
        if is_analysis_point(event):
            self.check(self.platform.now())
        return event.value

    def check(self, now):
        report = self.analyzer.analyze(now)
        self.read_held()
        if report is None:
            return
        adg = report.adg
        ref = best_effort_schedule(adg, now)
        wct = ref.wct
        peak = ref.peak(from_time=now)
        engine = self.analyzer.plan
        assert engine.pinned(adg, now).peak_floor <= peak
        for factor in (0.5, 1.0, 1.5, 4.0):
            deadline = now + (wct - now) * factor
            for cap in (None, 1, 2, 5):
                for start_lp in (1, 3):
                    got = engine.minimal_lp(
                        adg, now, deadline, cap=cap, start_lp=start_lp
                    )
                    want = minimal_lp_greedy(
                        adg, now, deadline, max_lp=cap, start_lp=start_lp
                    )
                    assert got == (None if want is None else want[0])
        if report.deadline is not None:
            want = minimal_lp_greedy(adg, now, report.deadline, max_lp=8)
            assert report.minimal_lp(cap=8) == (None if want is None else want[0])
        if self.checked % 2:
            self.held = (report, adg.rev, wct, peak)
        elif self.checked % 4:
            assert_pair(report, wct, peak)
        else:
            assert_ceilings_then_pair(report, wct, peak)
        self.checked += 1

    def read_held(self):
        if self.held is None:
            return
        report, rev, wct, peak = self.held
        self.held = None
        self.moved += report.adg.rev != rev
        assert_ceilings_then_pair(report, wct, peak)


def _warm_snapshot_for(desc):
    """A snapshot from one full run of a fresh construction of *desc*."""
    program = build_program(desc)
    platform = timed_sim()
    analyzer = ExecutionAnalyzer(skeleton=program, extensions=True)
    platform.add_listener(analyzer)
    run(program, 5, platform)
    return snapshot_estimates(program, analyzer.estimators)


def warm_analyzer(desc, goal=30.0):
    program = build_program(desc)
    analyzer = ExecutionAnalyzer(
        qos=QoS.wall_clock(goal), skeleton=program, extensions=True
    )
    analyzer.initialize_estimates(program, _warm_snapshot_for(desc))
    return program, analyzer


def checked_run(program, analyzer, sim):
    platform = sim()
    checker = _LazyChecker(analyzer, platform)
    platform.add_listener(analyzer)
    platform.add_listener(checker)
    run(program, 5, platform)
    checker.read_held()
    return checker


class TestLazyPairOnGeneratedPrograms:
    @pytest.mark.parametrize("sim", [timed_sim, jittered_sim])
    @given(desc=program_descriptions)
    def test_every_analysis_point(self, sim, desc):
        program, analyzer = warm_analyzer(desc)
        assume(analyzer.estimators.ready_for(program))
        checked_run(program, analyzer, sim)

    @pytest.mark.parametrize("sim", [timed_sim, jittered_sim])
    def test_held_reads_see_a_moved_graph(self, sim):
        """Non-vacuity: a two-level map is analyzed at many points, and
        the held reports are read after the graph moved under them."""
        program, analyzer = warm_analyzer(("map", 3, ("map", 2, ("seq", 1))), 4.0)
        checker = checked_run(program, analyzer, sim)
        assert checker.checked >= 10
        assert checker.moved >= 3


def foreign_report(adg, now, deadline=None):
    """A lazily derived report over a hand-built graph."""
    est = EstimatorRegistry()
    engine = PlanEngine(MachineRegistry(est), est)
    report = AnalysisReport(
        time=now,
        execution_id=None,
        deadline=deadline,
        current_lp=None,
        wct_best_effort=None,
        wct_current_lp=None,
        optimal_lp=None,
        adg=adg,
        engine=engine,
    )
    return report, engine


def reference(adg, now):
    ref = best_effort_schedule(adg, now)
    return ref.wct, ref.peak(from_time=now)


class TestPeakFloor:
    def test_a_ready_row_no_longer_than_eps_is_not_counted(self):
        adg = ADG()
        adg.add("tiny", 1e-10)
        adg.add("long", 1.0)
        report, engine = foreign_report(adg, 0.0)
        wct, peak = reference(adg, 0.0)
        assert peak == 1
        assert engine.pinned(adg, 0.0).peak_floor == 1
        assert_ceilings_then_pair(report, wct, peak)

    def test_a_far_clock_rounds_short_rows_away(self):
        # The spacing of floats at 2**33 is 2**-19; a 5e-7 s row ends at
        # now + 5e-7 == now there, so the sweep drops it, whatever its
        # duration says.
        now = float(2**33)
        assert (now + 5e-7) - now == 0.0
        adg = ADG()
        for i in range(3):
            adg.add(f"short{i}", 5e-7)
        report, engine = foreign_report(adg, now)
        wct, peak = reference(adg, now)
        assert peak == 0
        assert engine.pinned(adg, now).peak_floor == 0
        assert_ceilings_then_pair(report, wct, peak)

    def test_running_rows_count_only_while_they_run_at_now(self):
        adg = ADG()
        adg.add("running", 2.0, start=0.0)  # 0 .. 2: runs at now = 1
        adg.add("late", 2.0, start=1.5)  # starts after now: not counted
        adg.add("over", 0.5, start=0.0)  # clamped to now: ends at now
        adg.add("ready", 1.0)
        report, engine = foreign_report(adg, 1.0)
        wct, peak = reference(adg, 1.0)
        base = engine.pinned(adg, 1.0)
        assert base.peak_floor == 2 <= peak
        assert_pair(report, wct, peak)

    def test_a_report_answers_for_the_graph_it_was_built_on(self):
        """The engine refreshes its table in place when the graph moves;
        a report read afterwards answers from its snapshot."""
        adg = ADG()
        a = adg.add("a", 1.0)
        adg.add("b", 1.0)
        adg.add("c", 1.0, preds=(a,))
        report, engine = foreign_report(adg, 0.0, deadline=10.0)
        wct, peak = reference(adg, 0.0)
        assert report.minimal_lp(cap=8) == 1
        adg.update_activity(a, start=0.0, end=None, duration=5.0)
        engine.best_effort(adg, 0.0)  # the table is refreshed in place
        assert reference(adg, 0.0) != (wct, peak)
        assert_ceilings_then_pair(report, wct, peak)
