"""The controller decides by bounds and derives exact WCTs only on read.

:meth:`~repro.core.analysis.AnalysisReport.meets` answers ``wct_at(lp)
<= deadline + EPS`` with the bracket of the minimal-LP scan: the work
bound ``now + W / lp`` rejects, Graham's bound ``U(lp)`` accepts, and only
an LP between the two pays a frontier pass.  The controller's increase
and halving tests are that call, and a :class:`~repro.core.controller.
Decision` derives ``wct_current_lp``, ``wct_best_effort`` and
``optimal_lp`` from its report when they are read.  Checked here:

* ``meets`` against the reference pass of :mod:`repro.core.schedule` at
  every analysis point of generated programs, at deadlines on, around and
  below every ``wct(lp)``, with no pass run when a bound decides — and
  each of the three branches taken;
* the fields of every decision of the paper's Fig. 5-7 runs, read after
  the run ended, against a from-scratch recompute on the graph as it
  stood, and the schedule passes Fig. 5's run makes;
* a read that races a patch of the graph answers for the report's
  ``(rev, time)``;
* a decision is a value: ``==`` over all ten fields, ``repr``, ``changed``.
"""

import copy
import math
import sys
import threading
from collections import Counter

import pytest
from hypothesis import assume, given

from repro import EventRecorder, SimulatedPlatform, run
from repro.bench import run_twitter_scenario
from repro.core.analysis import ExecutionAnalyzer, is_analysis_point
from repro.core.controller import AutonomicController, Decision
from repro.core.persistence import snapshot_estimates, snapshot_from_names
from repro.core.qos import QoS
from repro.core.schedule import best_effort_schedule, limited_lp_schedule
from repro.events.bus import Listener
from repro.runtime.costmodel import CallableCostModel, ConstantCostModel
from repro.skeletons import Execute, Map, Merge, Seq, Split
from tests.conftest import build_program, program_descriptions

EPS = 1e-9
LPS = range(1, 9)


def constant_sim():
    return SimulatedPlatform(
        parallelism=3, cost_model=ConstantCostModel(1.0), max_parallelism=8
    )


def _jittered_cost(muscle, value):
    if muscle.name == "sum":
        return 0.0  # every merge: zero-length rows
    key = sum(value) if isinstance(value, (list, tuple)) else value
    return 1.0 + 0.05 * (key % 5)


def jittered_sim():
    return SimulatedPlatform(
        parallelism=3, cost_model=CallableCostModel(_jittered_cost), max_parallelism=8
    )


def branch(engine, adg, now, deadline, lp):
    """Which test of the bracket decides ``meets`` at *deadline*."""
    token, table, rec = engine._resolve(adg)
    base = engine._pinned_compiled(adg, now, token, table, rec)
    limit = deadline + EPS
    if now + base.pending_work(table) / lp > base.work_cutoff(table, deadline):
        return "work"
    cp = engine._critical_path_compiled(token, table, rec)[0]
    if base.wct_bound(table, lp, cp) <= limit:
        return "graham"
    return "pass"


class _MeetsChecker(Listener):
    """At every analysis point: ``meets`` equal to the reference test at
    every ``lp`` and deadline, no pass when a bound decides it."""

    def __init__(self, analyzer, platform):
        self.analyzer = analyzer
        self.platform = platform
        self.branches = Counter()

    def on_event(self, event):
        if is_analysis_point(event):
            self.check(self.platform.now())
        return event.value

    def check(self, now):
        report = self.analyzer.analyze(now, current_lp=2)
        if report is None:
            return
        adg, engine = report.adg, report.engine
        oracle = {lp: limited_lp_schedule(adg, now, lp).wct for lp in LPS}
        remaining = best_effort_schedule(adg, now).wct - now
        deadlines = [now, now + 0.5 * remaining, now + 4.0 * remaining]
        for wct in oracle.values():
            deadlines += [wct, math.nextafter(wct, -math.inf), wct - EPS, wct - 2 * EPS]
        for deadline in deadlines:
            for lp in LPS:
                taken = branch(engine, adg, now, deadline, lp)
                passes = engine.cache.stats.schedule_passes
                assert engine.meets(adg, now, deadline, lp) == (
                    oracle[lp] <= deadline + EPS
                ), (lp, deadline, taken)
                if taken != "pass":
                    assert engine.cache.stats.schedule_passes == passes
                self.branches[taken] += 1
        for lp in LPS:
            assert report.meets(lp) == (oracle[lp] <= report.deadline + EPS)
        assert report.wct_current_lp == oracle[2]


def _warm_snapshot(desc, sim):
    program = build_program(desc)
    platform = sim()
    analyzer = ExecutionAnalyzer(skeleton=program, extensions=True)
    platform.add_listener(analyzer)
    run(program, 5, platform)
    return snapshot_estimates(program, analyzer.estimators)


def checked_run(program, snapshot, sim, value=5):
    platform = sim()
    analyzer = ExecutionAnalyzer(
        qos=QoS.wall_clock(30.0), skeleton=program, extensions=True
    )
    analyzer.initialize_estimates(program, snapshot)
    checker = _MeetsChecker(analyzer, platform)
    platform.add_listener(analyzer)
    platform.add_listener(checker)
    if analyzer.estimators.ready_for(program):
        run(program, value, platform)
    return analyzer, checker


def nested_map():
    inner = Map(
        Split(lambda v: [v + i for i in range(4)], name="split4"),
        Seq(Execute(lambda v: v + 1, name="leaf")),
        Merge(sum, name="sum"),
    )
    return Map(
        Split(lambda v: [v + i for i in range(3)], name="split3"),
        inner,
        Merge(sum, name="sum"),
    )


class TestMeetsIsThePassTest:
    @pytest.mark.parametrize("sim", [constant_sim, jittered_sim])
    @given(desc=program_descriptions)
    def test_generated_programs(self, sim, desc):
        program = build_program(desc)
        analyzer, _checker = checked_run(program, _warm_snapshot(desc, sim), sim)
        assume(analyzer.estimators.ready_for(program))

    @pytest.mark.parametrize("sim", [constant_sim, jittered_sim])
    def test_every_branch_is_taken(self, sim):
        """Non-vacuity: on a 3x4 nested map the work bound rejects, the
        Graham bound accepts and a frontier pass decides, each many times."""
        program = nested_map()
        snapshot = snapshot_from_names(
            program,
            times={"split3": 1.0, "split4": 1.0, "leaf": 1.0, "sum": 1.0},
            cards={"split3": 3.0, "split4": 4.0},
        )
        _analyzer, checker = checked_run(program, snapshot, sim, value=1)
        assert min(checker.branches[b] for b in ("work", "graham", "pass")) >= 10


# ---------------------------------------------------------------------------
# The paper's Fig. 5-7 runs: lazily read fields equal a from-scratch recompute


def recorded_scenario(monkeypatch, name, goal, initialize_from=None):
    """Run one Twitter scenario, recording at every plan step the three
    derived fields recomputed by the reference passes on the graph as it
    stood (before the step, which may move it)."""
    expected = []
    plan_and_execute = AutonomicController._plan_and_execute

    def recording(self, report, trigger):
        adg, now = report.adg, report.time
        best = best_effort_schedule(adg, now)
        expected.append(
            (
                best.wct,
                limited_lp_schedule(adg, now, report.current_lp).wct,
                best.peak(from_time=now),
            )
        )
        plan_and_execute(self, report, trigger)

    with monkeypatch.context() as patch:
        patch.setattr(AutonomicController, "_plan_and_execute", recording)
        result = run_twitter_scenario(
            name, goal=goal, n_tweets=100, initialize_from=initialize_from
        )
    return result, expected


def assert_fields_read_late(result, expected):
    assert len(result.decisions) == len(expected) > 0
    for decision, (wct, wct_current, peak) in zip(result.decisions, expected):
        assert decision._report is not None  # nothing read yet
        assert decision.wct_current_lp == wct_current
        assert decision.optimal_lp == peak
        assert decision.wct_best_effort == wct
        assert decision._report is None  # dropped after the third read


class TestPaperFiguresReadLate:
    def test_fig5_6_7(self, monkeypatch):
        cold, expected = recorded_scenario(monkeypatch, "goal_without_init", 9.5)
        assert_fields_read_late(cold, expected)
        warm, expected = recorded_scenario(
            monkeypatch, "goal_with_init", 9.5, cold.estimate_snapshot
        )
        assert_fields_read_late(warm, expected)
        loose, expected = recorded_scenario(monkeypatch, "goal_10_5", 10.5)
        assert_fields_read_late(loose, expected)
        assert all(
            result.controller_summary["increases"] >= 1
            for result in (cold, warm, loose)
        )

    def test_fig5_schedule_passes(self, monkeypatch):
        """43 decisions, 3 LP changes, 6 passes: two for the candidates
        the increase's scan finds between its bounds, one for that
        increase's reason, one for each decrease's reason, and one for
        the only ``meets`` the bounds leave open.  Each decision computed
        its WCTs eagerly before: 100 passes."""
        controllers = []
        init = AutonomicController.__init__

        def keep(self, *args, **kwargs):
            init(self, *args, **kwargs)
            controllers.append(self)

        monkeypatch.setattr(AutonomicController, "__init__", keep)
        result = run_twitter_scenario("goal_without_init", goal=9.5, n_tweets=100)
        (controller,) = controllers
        assert len(result.decisions) == 43
        assert len(controller.changed_decisions()) == 3
        assert controller.analyzer.plan.cache.stats.schedule_passes == 6


# ---------------------------------------------------------------------------
# A read racing a patch of the graph


def _jittered_fe(muscle, value):
    return 1.0 + 0.3 * (value % 3) if muscle.name == "fe" else 1.0


def _moving_analyzer():
    """An analyzer three analysis points into a six-wide map, its report
    at the third point, and ``move()``: what a later analysis does to
    the same graph — the events up to the fifth point, then a patch."""
    program = Map(
        Split(lambda v: [v + i for i in range(6)], name="fs"),
        Seq(Execute(lambda v: v + 1, name="fe")),
        Merge(sum, name="fm"),
    )
    platform = SimulatedPlatform(
        parallelism=2, cost_model=CallableCostModel(_jittered_fe), max_parallelism=8
    )
    recorder = EventRecorder()
    platform.add_listener(recorder)
    run(program, 0, platform)
    events = recorder.events
    analyzer = ExecutionAnalyzer(qos=QoS.wall_clock(6.0))
    analyzer.initialize_estimates(
        program,
        snapshot_from_names(
            program, times={"fs": 1.0, "fe": 1.0, "fm": 1.0}, cards={"fs": 6.0}
        ),
    )
    points = [i for i, e in enumerate(events) if is_analysis_point(e)]
    for event in events[: points[2] + 1]:
        analyzer.observe(event)
    report = analyzer.analyze(events[points[2]].timestamp, current_lp=2)

    def move():
        for event in events[points[2] + 1 : points[4] + 1]:
            analyzer.observe(event)
        assert analyzer.analyze(events[points[4]].timestamp, current_lp=2).adg is report.adg

    return analyzer, report, move


def reference(adg, now, lp):
    best = best_effort_schedule(adg, now)
    return limited_lp_schedule(adg, now, lp).wct, best.wct, best.peak(from_time=now)


class TestReadRacingAPatch:
    def test_a_patch_cannot_land_between_the_check_and_the_call(self, monkeypatch):
        """Each engine call of a frozen read first lets another thread
        try to move the graph, once.  The thread only tries the machine
        lock, so the test never blocks: the read holds that lock, the
        thread finds it taken, and the graph moves only after the reads."""
        analyzer, report, move = _moving_analyzer()
        adg, now = report.adg, report.time
        expected = reference(adg, now, 2)
        lock = analyzer.machines.lock
        tries = []

        def try_to_move():
            if "moved" in tries:
                return
            if lock.acquire(blocking=False):
                try:
                    move()
                    tries.append("moved")
                finally:
                    lock.release()
            else:
                tries.append("held")

        engine = analyzer.plan
        for name in ("pinned", "best_effort", "wct_at"):
            call = getattr(engine, name)

            def racing(*args, call=call):
                thread = threading.Thread(target=try_to_move)
                thread.start()
                thread.join(timeout=30)
                assert not thread.is_alive()
                return call(*args)

            monkeypatch.setattr(engine, name, racing)

        got = (report.wct_current_lp, report.wct_best_effort, report.optimal_lp)
        assert got == expected
        assert tries and set(tries) == {"held"}
        monkeypatch.undo()
        rev = adg.rev
        move()  # non-vacuity: the move changes every answer's inputs
        assert adg.rev != rev and reference(adg, now, 2) != expected

    def test_a_read_after_the_move_answers_from_the_snapshot(self):
        _analyzer, report, move = _moving_analyzer()
        expected = reference(report.adg, report.time, 2)
        move()
        assert (report.wct_current_lp, report.wct_best_effort, report.optimal_lp) == expected


# ---------------------------------------------------------------------------
# Decision is a value


def two_runs():
    def one():
        program = nested_map()
        platform = constant_sim()
        controller = AutonomicController(
            platform, program, qos=QoS.wall_clock(6.0, max_lp=8)
        )
        controller.initialize_estimates(
            program,
            snapshot_from_names(
                program,
                times={"split3": 1.0, "split4": 1.0, "leaf": 1.0, "sum": 1.0},
                cards={"split3": 3.0, "split4": 4.0},
            ),
        )
        run(program, 1, platform)
        return controller.decisions

    return one(), one()


FIELDS = (
    "time",
    "trigger",
    "lp_before",
    "lp_after",
    "wct_best_effort",
    "wct_current_lp",
    "optimal_lp",
    "deadline",
    "action",
    "reason",
)


class TestDecisionValue:
    def test_equal_runs_decide_equal_values(self):
        first, second = two_runs()
        assert first and first == second
        assert any(d.changed for d in first)
        assert all(d.changed == (d.lp_after != d.lp_before) for d in first)

    def test_eq_compares_every_field(self):
        first, second = two_runs()
        a, b = first[0], second[0]
        assert a == b and not (a != b)
        for name in FIELDS:
            other = copy.copy(b)
            slot = name if name in Decision.__slots__ else "_" + name
            setattr(other, slot, "different")
            assert other != a, name
        assert a != object()

    def test_repr_shows_the_ten_fields_in_order(self):
        (decision, *_), _ = two_runs()
        text = repr(decision)
        assert text.startswith("Decision(time=")
        positions = [text.index(f"{name}=") for name in FIELDS]
        assert positions == sorted(positions)
        assert f"optimal_lp={decision.optimal_lp!r}" in text
        assert f"reason={decision.reason!r}" in text

    def test_threads_reading_the_same_decisions_agree(self):
        """Four threads read every field of one run's decisions at once,
        with a short switch interval; each sees the values a second,
        identical run's decisions give, and every report is dropped."""
        decisions, twin = two_runs()
        expected = [tuple(getattr(d, name) for name in FIELDS) for d in twin]
        seen = [None] * 4

        def read(i):
            seen[i] = [tuple(getattr(d, name) for name in FIELDS) for d in decisions]

        threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [expected] * 4
        assert all(d._report is None for d in decisions)

    def test_unhashable_like_any_mutable_value(self):
        (decision, *_), _ = two_runs()
        with pytest.raises(TypeError):
            hash(decision)
