"""The minimal-LP scan's two bounds, and the answers they leave alone.

``PlanEngine.minimal_lp`` brackets each candidate LP: the work bound
``now + W / lp`` rejects it, Graham's list-scheduling bound
``CompiledPinnedBase.wct_bound`` accepts it, and only an LP between the
two pays a frontier pass.  That is sound only if ``U(lp)`` really lies
above the pass, so at every analysis point of every generated program —
at constant cost and at a jittered one with zero-length and sub-epsilon
muscles — ``U(lp)`` is checked against the compiled pass and the
reference oracle for every ``lp`` in 1..8, including LPs below the number
of running rows.  The scan's answers are checked against
``minimal_lp_greedy`` at deadlines on, one float below and EPS below
every ``wct(lp)``, at 4x and 0.5x the best-effort remaining time, and at
*now*; the work bound never rejects an LP at a deadline its pass meets.
"""

import math

import pytest
from hypothesis import assume, given

from repro import SimulatedPlatform, run
from repro.core.analysis import ExecutionAnalyzer, is_analysis_point
from repro.core.persistence import snapshot_estimates, snapshot_from_names
from repro.core.planning.table import RUNNING, compiled_schedule_pending
from repro.core.qos import QoS
from repro.core.schedule import limited_lp_schedule, minimal_lp_greedy
from repro.events.bus import Listener
from repro.runtime.costmodel import CallableCostModel, ConstantCostModel
from repro.skeletons import Execute, Map, Merge, Pipe, Seq, Split
from tests.conftest import build_program, program_descriptions

LPS = range(1, 9)
EPS = 1e-9


def constant_sim():
    return SimulatedPlatform(
        parallelism=3, cost_model=ConstantCostModel(1.0), max_parallelism=8
    )


def _jittered_cost(muscle, value):
    if muscle.name == "sum":
        return 0.0  # every merge: zero-length rows
    if muscle.name == "halve":
        return 5e-10  # every D&C split: rows shorter than the scheduler's EPS
    key = sum(value) if isinstance(value, (list, tuple)) else value
    return 1.0 + 0.05 * (key % 5)


def jittered_sim():
    return SimulatedPlatform(
        parallelism=3, cost_model=CallableCostModel(_jittered_cost), max_parallelism=8
    )


class _BoundChecker(Listener):
    """At every analysis point: ``U(lp)`` above both passes for every
    ``lp``, and the engine's minimal LP equal to the greedy oracle's at
    the deadlines around every ``wct(lp)``."""

    def __init__(self, analyzer, platform):
        self.analyzer = analyzer
        self.platform = platform
        self.checked = 0
        self.below_running = 0

    def on_event(self, event):
        if not is_analysis_point(event):
            return event.value
        analyzer = self.analyzer
        engine = analyzer.plan
        with analyzer.machines.lock:
            roots = analyzer.unfinished_roots()
            if not roots or not analyzer.ready(roots):
                return event.value
            now = self.platform.now()
            adg = engine.projection(now, roots)
            token, table, rec = engine._resolve(adg)
            base = engine._pinned_compiled(adg, now, token, table, rec)
            cp, prio = engine._critical_path_compiled(token, table, rec)
            running = sum(1 for s in base.state if s == RUNNING)
            oracle = {}
            for lp in LPS:
                bound = base.wct_bound(table, lp, cp)
                if lp == 1:
                    assert base.wct_bound(table, lp) == bound  # no pair needed
                compiled = compiled_schedule_pending(table, now, lp, base, prio).wct
                oracle[lp] = limited_lp_schedule(adg, now, lp).wct
                assert compiled == oracle[lp]
                assert bound >= compiled, (lp, bound, compiled)
                met = compiled - EPS  # the pass meets it when rounding allows
                if compiled <= met + EPS:
                    work = now + base.pending_work(table) / lp
                    assert work <= base.work_cutoff(table, met), lp
                self.below_running += lp < running
            remaining = engine.best_effort(adg, now).wct - now
            deadlines = [now + 4.0 * remaining, now + 0.5 * remaining, now]
            for wct in oracle.values():
                deadlines += [wct, math.nextafter(wct, -math.inf), wct - EPS]
            for deadline in deadlines:
                found = minimal_lp_greedy(adg, now, deadline, max_lp=8)
                expected = found[0] if found is not None else None
                assert engine.minimal_lp(adg, now, deadline, cap=8) == expected
            self.checked += 1
        return event.value


def _warm_snapshot(desc, sim):
    program = build_program(desc)
    platform = sim()
    analyzer = ExecutionAnalyzer(skeleton=program, extensions=True)
    platform.add_listener(analyzer)
    run(program, 5, platform)
    return snapshot_estimates(program, analyzer.estimators)


def _checked_run(program, snapshot, sim):
    platform = sim()
    analyzer = ExecutionAnalyzer(
        qos=QoS.wall_clock(30.0), skeleton=program, extensions=True
    )
    analyzer.initialize_estimates(program, snapshot)
    checker = _BoundChecker(analyzer, platform)
    platform.add_listener(analyzer)
    platform.add_listener(checker)
    return analyzer, checker, platform


@pytest.mark.service_stress
class TestBoundAboveThePass:
    @pytest.mark.parametrize("sim", [constant_sim, jittered_sim])
    @given(desc=program_descriptions)
    def test_generated_programs(self, sim, desc):
        program = build_program(desc)
        analyzer, checker, platform = _checked_run(
            program, _warm_snapshot(desc, sim), sim
        )
        assume(analyzer.estimators.ready_for(program))
        run(program, 5, platform)
        assert checker.checked >= 0

    @pytest.mark.parametrize("sim", [constant_sim, jittered_sim])
    def test_nested_map_checks_lps_below_the_running_rows(self, sim):
        """Deterministic non-vacuity: a 3x4 nested map on three workers
        reaches points with several rows running, so LP 1 and 2 are
        checked below the running count."""
        inner = Map(
            Split(lambda v: [v + i for i in range(4)], name="split4"),
            Seq(Execute(lambda v: v + 1, name="leaf")),
            Merge(sum, name="sum"),
        )
        program = Map(
            Split(lambda v: [v + i for i in range(3)], name="split3"),
            inner,
            Merge(sum, name="sum"),
        )
        snapshot = snapshot_from_names(
            program,
            times={"split3": 1.0, "split4": 1.0, "leaf": 1.0, "sum": 1.0},
            cards={"split3": 3.0, "split4": 4.0},
        )
        _analyzer, checker, platform = _checked_run(program, snapshot, sim)
        run(program, 1, platform)
        assert checker.checked >= 12
        assert checker.below_running >= 1


class TestWorkBoundBelowThePass:
    def test_now_plus_w_over_lp_can_round_above_the_pass(self):
        """A farm of three-stage loops: at now = 1.0 under the jittered
        cost, ``now + W/1`` rounds to 3.1375 while the LP-1 pass ends at
        3.1374999999999993, so at the deadline ``wct - EPS`` a work bound
        without a rounding margin rejects the LP the pass accepts."""
        desc = ("farm", ("for", 3, ("seq", 3)))
        program = build_program(desc)
        _analyzer, checker, platform = _checked_run(
            program, _warm_snapshot(desc, jittered_sim), jittered_sim
        )
        run(program, 5, platform)
        assert checker.checked >= 3


def serial_engine(durations):
    """A warm analyzer's engine over ``Pipe`` of one stage per duration,
    and the structural plan: a chain of ``len(durations)`` rows."""
    program = Pipe(
        *[Seq(Execute(lambda v: v, name=f"s{i}")) for i in range(len(durations))]
    )
    analyzer = ExecutionAnalyzer(skeleton=program)
    analyzer.initialize_estimates(
        program,
        snapshot_from_names(program, times={f"s{i}": d for i, d in enumerate(durations)}),
    )
    engine = analyzer.plan
    return engine, engine.structural_plan()


def bound_and_pass(engine, plan, now, lp):
    """``(U(lp), the frontier pass's WCT, T0 + W)`` of *plan* at *now*."""
    token, table, rec = engine._resolve(plan)
    base = engine._pinned_compiled(plan, now, token, table, rec)
    cp, prio = engine._critical_path_compiled(token, table, rec)
    wct = compiled_schedule_pending(table, now, lp, base, prio).wct
    return base.wct_bound(table, lp, cp), wct, now + base.pending_work(table)


class TestSerialChain:
    """Five stages in a row: the LP-1 schedule is the work bound itself,
    so ``U(1)`` decides the scan whenever the deadline clears rounding."""

    DURATIONS = (0.3, 0.7, 1.1, 0.2, 0.9)

    def plan(self):
        engine, plan = serial_engine(self.DURATIONS)
        exact = limited_lp_schedule(engine.structural_projection(), 0.0, 1).wct
        engine.best_effort(plan, 0.0)  # the scan's upper LP, already paid
        return engine, plan, exact

    def scan(self, engine, plan, deadline, monkeypatch):
        """``(answer, schedule passes, priority-pair requests)``."""
        pairs = []
        pair = engine._critical_path_compiled
        monkeypatch.setattr(
            engine, "_critical_path_compiled", lambda *a: pairs.append(1) or pair(*a)
        )
        before = engine.cache.stats.schedule_passes
        answer = engine.minimal_lp(plan, 0.0, deadline)
        return answer, engine.cache.stats.schedule_passes - before, len(pairs)

    def test_deadline_at_the_exact_wct_takes_one_pass(self, monkeypatch):
        """``U(1)`` lies a rounding margin above the deadline: the LP-1
        pass decides, and that pass (not the scan) asks for the pair."""
        engine, plan, exact = self.plan()
        assert self.scan(engine, plan, exact, monkeypatch) == (1, 1, 1)

    def test_a_second_of_slack_takes_none(self, monkeypatch):
        engine, plan, exact = self.plan()
        assert self.scan(engine, plan, exact + 1.0, monkeypatch) == (1, 0, 0)


class TestTheMargins:
    def test_a_last_row_shorter_than_eps_is_the_eps(self):
        """Work counts only rows longer than EPS, so a sub-EPS last row
        ends after ``T0 + W``; the ``+ EPS`` covers it."""
        engine, plan = serial_engine((1.0, 5e-10))
        bound, wct, work_end = bound_and_pass(engine, plan, 0.0, 1)
        assert wct > work_end
        assert bound >= wct

    def test_rounding_far_from_the_clock_origin(self):
        """At ``now = 2**33`` one ulp is 2**-19 s: five 0.6 s stages land
        more than EPS after ``now + W``; the relative margin covers it."""
        engine, plan = serial_engine((0.6,) * 5)
        now = 2.0**33
        bound, wct, work_end = bound_and_pass(engine, plan, now, 1)
        assert wct > work_end + 1e-9
        assert bound >= wct
