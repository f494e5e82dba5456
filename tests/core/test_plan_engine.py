"""Plan-cache correctness properties for the incremental planning layer.

The :class:`~repro.core.planning.PlanEngine` promises that every cached
answer is **bit-for-bit equal** to a from-scratch
:mod:`repro.core.schedule` recompute at the same arguments.  These tests
pin that contract:

* seeded/generated scenarios compare every engine answer — WCT, minimal
  LP, optimal LP, full timelines — against direct ``schedule.py`` runs
  over a freshly projected ADG, both for structural (pre-start) plans
  and live (mid-execution) plans at real analysis points;
* explicit invalidation tests: a new event (ADG/machine revision) or an
  estimator update (version stamp) must produce fresh answers, while an
  unchanged world must hit the cache (same object back);
* compiled-vs-reference equivalence: every :mod:`repro.core.planning.
  table` array pass (best-effort, critical path, pinning, limited-LP
  frontier, minimal-LP scan) must equal the ``schedule.py`` reference
  pass bit for bit — structurally, live at analysis points, and across
  the delta/patch path;
* the from-scratch baseline: a ``PlanCache(maxsize=0)`` engine patches
  and carries nothing, and answers what the default engine answers.

The sweeps carry the ``service_stress`` marker so the dedicated CI job
runs them alongside the arbiter property harness.
"""

import pytest
from hypothesis import assume, given

from repro import SimulatedPlatform, run
from repro.core.adg import ADG
from repro.core.analysis import ExecutionAnalyzer, is_analysis_point
from repro.core.estimator import EstimatorRegistry
from repro.core.persistence import snapshot_from_names
from repro.core.planning import PlanCache, PlanTable
from repro.core.planning.compile import (
    CompiledProjection,
    compile_structural,
    structural_fingerprint,
)
from repro.errors import SchedulingError
from repro.core.planning.table import (
    RUNNING,
    compiled_best_effort,
    compiled_critical_path,
    compiled_minimal_lp,
    compiled_pin,
    compiled_schedule_pending,
)
from repro.core.projection import project_skeleton
from repro.core.qos import QoS
from repro.core.schedule import (
    best_effort_schedule,
    limited_lp_schedule,
    minimal_lp_greedy,
    pin_actuals,
    remaining_critical_path,
)
from repro.events.bus import Listener
from repro.events.recorder import EventRecorder
from repro.runtime.costmodel import CallableCostModel, ConstantCostModel
from repro.skeletons import Execute, Map, Merge, Seq, Split
from tests.conftest import build_program, program_descriptions


def projected_wct(skel, est, lp, start=0.0):
    """Reference WCT of a fresh *skel* run under *lp* workers: project
    the structural ADG and list-schedule it with :mod:`repro.core.
    schedule` — what every structural answer of the engine must equal."""
    adg = ADG()
    project_skeleton(skel, adg, [], est)
    return limited_lp_schedule(adg, start, lp).wct


def timed_sim(parallelism=3):
    platform = SimulatedPlatform(
        parallelism=parallelism,
        cost_model=ConstantCostModel(1.0),
        max_parallelism=8,
    )
    platform.add_listener(EventRecorder())
    return platform


def _value_cost(_muscle, value):
    key = sum(value) if isinstance(value, (list, tuple)) else value
    return 1.0 + 0.05 * (key % 5)


def jittered_sim(parallelism=3):
    """``timed_sim`` with a value-dependent cost (1.0-1.2 s per muscle):
    almost every observation moves its ``t(m)``, as on a real clock."""
    platform = SimulatedPlatform(
        parallelism=parallelism,
        cost_model=CallableCostModel(_value_cost),
        max_parallelism=8,
    )
    platform.add_listener(EventRecorder())
    return platform


def map_program(width=3):
    return Map(
        Split(lambda v, w=width: [v] * w, name="split"),
        Seq(Execute(lambda v: v, name="work")),
        Merge(lambda rs: rs[0], name="merge"),
    )


def warm_map_analyzer(width=3, qos=None, cache=None, work_t=1.0):
    program = map_program(width)
    analyzer = ExecutionAnalyzer(qos=qos, skeleton=program, plan_cache=cache)
    analyzer.initialize_estimates(
        program,
        snapshot_from_names(
            program,
            times={"split": 0.25, "work": work_t, "merge": 0.25},
            cards={"split": float(width)},
        ),
    )
    return program, analyzer


def warm_nested_map_analyzer(outer, inner):
    """An *outer* x *inner* two-level map whose estimates already equal
    what the simulator will observe (1.0 per muscle, exact cardinalities),
    so no observation moves the estimator version."""
    program = Map(
        Split(lambda v, w=outer: [v] * w, name="osplit"),
        map_program(inner),
        Merge(lambda rs: rs[0], name="omerge"),
    )
    analyzer = ExecutionAnalyzer(qos=QoS.wall_clock(60.0), skeleton=program)
    names = ("osplit", "omerge", "split", "work", "merge")
    analyzer.initialize_estimates(
        program,
        snapshot_from_names(
            program,
            times={name: 1.0 for name in names},
            cards={"osplit": float(outer), "split": float(inner)},
        ),
    )
    return program, analyzer


# ---------------------------------------------------------------------------
# version stamps


class TestVersionStamps:
    def test_adg_revision_bumps_on_add_and_touch(self):
        adg = ADG()
        assert adg.rev == 0
        adg.add("a", 1.0)
        assert adg.rev == 1
        adg.add("b", 1.0, preds=[0])
        assert adg.rev == 2
        assert adg.touch() == 3
        assert adg.rev == 3

    def test_estimator_version_bumps_on_observations(self):
        program = map_program()
        est = EstimatorRegistry()
        v0 = est.version
        work = next(m for m in program.muscles() if m.name == "work")
        est.observe_time(work, 1.0)
        assert est.version == v0 + 1
        split = next(m for m in program.muscles() if m.name == "split")
        est.observe_card(split, 3)
        assert est.version == v0 + 2
        est.initialize_time(work, 2.0)
        est.initialize_card(split, 2.0)
        assert est.version == v0 + 4

    def test_restore_estimates_bumps_version(self):
        program = map_program()
        analyzer = ExecutionAnalyzer(skeleton=program)
        v0 = analyzer.estimators.version
        analyzer.initialize_estimates(
            program,
            snapshot_from_names(
                program,
                times={"split": 0.1, "work": 1.0, "merge": 0.1},
                cards={"split": 3.0},
            ),
        )
        assert analyzer.estimators.version > v0

    def test_machine_revision_bumps_per_event(self):
        platform = timed_sim()
        analyzer = ExecutionAnalyzer(extensions=True)
        platform.add_listener(analyzer)
        assert analyzer.machines.rev == 0
        run(map_program(), 7, platform)
        after_run = analyzer.machines.rev
        assert after_run > 0
        analyzer.machines.reset()
        assert analyzer.machines.rev == after_run + 1


# ---------------------------------------------------------------------------
# structural plans == from-scratch projection + schedule


@pytest.mark.service_stress
class TestStructuralPlansMatchFromScratch:
    @given(program_descriptions)
    def test_structural_answers_equal_projected_wct(self, desc):
        program = build_program(desc)
        platform = timed_sim()
        analyzer = ExecutionAnalyzer(skeleton=program, extensions=True)
        platform.add_listener(analyzer)
        # One full run warms every estimator the projection needs.  A
        # program whose structure skips some muscle entirely (e.g. a For
        # with zero trips, an untaken If branch) stays cold — no
        # structural plan exists for it, with or without the engine.
        run(program, 5, platform)
        est = analyzer.estimators
        engine = analyzer.plan
        assume(est.ready_for(program))

        fresh = ADG()
        project_skeleton(program, fresh, [], est)
        structural = engine.structural_projection()
        assert structural is not None
        assert len(structural) == len(fresh)
        for a, b in zip(structural.activities, fresh.activities):
            assert (a.id, a.name, a.duration, a.preds) == (
                b.id,
                b.name,
                b.duration,
                b.preds,
            )

        for lp in (1, 2, 3, 5):
            assert engine.structural_wct(lp) == projected_wct(
                program, est, lp
            ), f"cached structural WCT diverged at lp={lp}"

        # Minimal LP against a goal that LP 2 provably meets.
        goal = projected_wct(program, est, 2) + 1e-6
        found = minimal_lp_greedy(fresh, 0.0, goal, max_lp=8)
        expected = found[0] if found is not None else None
        assert engine.structural_minimal_lp(goal, cap=8) == expected

        # Unchanged world -> the cache returns the same projection object.
        assert engine.structural_projection() is structural


# ---------------------------------------------------------------------------
# live plans == from-scratch projection + schedule, at real analysis points


class _LivePlanChecker(Listener):
    """At every analysis point, compare the engine-backed report against
    direct schedule.py recomputes over a freshly projected ADG."""

    def __init__(self, analyzer, platform):
        self.analyzer = analyzer
        self.platform = platform
        self.checked = 0

    def on_event(self, event):
        if not is_analysis_point(event):
            return event.value
        now = self.platform.now()
        report = self.analyzer.analyze(
            now, current_lp=self.platform.get_parallelism()
        )
        if report is None:
            return event.value
        adg, _terminals = self.analyzer.machines.project_roots(now)
        best = best_effort_schedule(adg, now)
        assert report.wct_best_effort == best.wct
        assert report.optimal_lp == best.peak(from_time=now)
        for lp in (1, 2, 3):
            reference = limited_lp_schedule(adg, now, lp)
            assert report.wct_at(lp) == reference.wct
            cached = report.engine.limited(report.adg, now, lp)
            assert cached.timeline() == reference.timeline()
        if report.deadline is not None:
            found = minimal_lp_greedy(adg, now, report.deadline, max_lp=6)
            expected = found[0] if found is not None else None
            assert report.minimal_lp(cap=6) == expected
        self.checked += 1
        return event.value


@pytest.mark.service_stress
class TestLivePlansMatchFromScratch:
    @given(program_descriptions)
    def test_engine_reports_equal_direct_schedules(self, desc):
        # Warm-up run on a fresh construction of the same program shape:
        # its estimate snapshot makes the checked run analyzable from the
        # very first analysis point (the paper's scenario 2).
        from repro.core.persistence import snapshot_estimates

        warm_program = build_program(desc)
        warm_platform = timed_sim()
        warm_analyzer = ExecutionAnalyzer(skeleton=warm_program, extensions=True)
        warm_platform.add_listener(warm_analyzer)
        run(warm_program, 5, warm_platform)
        snapshot = snapshot_estimates(warm_program, warm_analyzer.estimators)

        program = build_program(desc)
        platform = timed_sim()
        analyzer = ExecutionAnalyzer(
            qos=QoS.wall_clock(30.0), skeleton=program, extensions=True
        )
        analyzer.initialize_estimates(program, snapshot)
        assume(analyzer.estimators.ready_for(program))
        checker = _LivePlanChecker(analyzer, platform)

        # Pre-start: the structural report must match a from-scratch
        # structural projection + schedule.
        report = analyzer.analyze(platform.now())
        assert report is not None
        fresh = ADG()
        project_skeleton(program, fresh, [], analyzer.estimators)
        best = best_effort_schedule(fresh, platform.now())
        assert report.wct_best_effort == best.wct
        assert report.optimal_lp == best.peak(from_time=platform.now())

        platform.add_listener(analyzer)
        platform.add_listener(checker)  # after the analyzer: sees fresh state
        run(program, 5, platform)
        # A single-activity program finishes at its only analysis point
        # (no live report to check); anything wider was verified live.
        assert checker.checked >= 0

    def test_live_checks_actually_run_on_a_fanout(self):
        program, analyzer = warm_map_analyzer(width=4, qos=QoS.wall_clock(30.0))
        platform = timed_sim()
        checker = _LivePlanChecker(analyzer, platform)
        platform.add_listener(analyzer)
        platform.add_listener(checker)
        run(program, 5, platform)
        assert checker.checked >= 4  # split + the work muscles at least


# ---------------------------------------------------------------------------
# the patch path: patched projections/pinned bases == from-scratch walks


def assert_adg_content_equal(patched: ADG, fresh: ADG) -> None:
    """Bit-for-bit activity equality (ids, structure, times, roles)."""
    assert len(patched) == len(fresh)
    for a, b in zip(patched.activities, fresh.activities):
        assert (a.id, a.name, a.duration, a.preds, a.start, a.end, a.role) == (
            b.id,
            b.name,
            b.duration,
            b.preds,
            b.start,
            b.end,
            b.role,
        )


def assert_adg_layout_equal(patched: ADG, fresh: ADG) -> None:
    """Span provenance and walk layout equality: every activity reads its
    times from the span a fresh walk attaches (a wrongly bound source
    fails here, at the bind, not when its times move), and machines and
    free child slots sit on the same ids."""
    assert patched.span_sources() == fresh.span_sources()

    def layouts(adg):
        return {
            index: layout[:4] + (layout[4] or [],)
            for index, layout in adg._layouts.items()
        }

    assert layouts(patched) == layouts(fresh)


def assert_compiled_schedule_equal(compiled, reference) -> None:
    """A CompiledSchedule must equal its dict ScheduleResult twin on the
    whole public surface: WCT, timelines, peaks and materialized entries
    — bit for bit, no tolerances."""
    assert compiled.now == reference.now
    assert compiled.lp == reference.lp
    assert compiled.wct == reference.wct
    assert compiled.remaining() == reference.remaining()
    assert compiled.timeline() == reference.timeline()
    assert compiled.timeline(from_time=reference.now) == reference.timeline(
        from_time=reference.now
    )
    assert compiled.peak(from_time=reference.now) == reference.peak(
        from_time=reference.now
    )
    assert set(compiled.entries) == set(reference.entries)
    for aid, want in reference.entries.items():
        got = compiled.entries[aid]
        assert (got.id, got.name, got.start, got.end, got.status) == (
            want.id,
            want.name,
            want.start,
            want.end,
            want.status,
        )


def assert_compiled_pinned_equal(cbase, full) -> None:
    """A CompiledPinnedBase (array columns, -1 = pinned) must encode the
    exact state of a dict PinnedPlanBase from a full pin_actuals pass."""
    assert cbase.now == full.now
    n = len(cbase.pp)
    pinned = {i for i in range(n) if cbase.pp[i] == -1}
    assert pinned == set(full.ends)
    for i in pinned:
        assert cbase.ends[i] == full.ends[i]
    assert {
        i: cbase.pp[i] for i in range(n) if cbase.pp[i] >= 0
    } == full.pending_preds
    assert sorted(cbase.busy) == sorted(full.busy)
    assert {aid: r for r, aid in cbase.ready_items} == full.ready_time
    assert cbase.to_schedule == full.to_schedule
    # The rows a delta re-pin walks: the running ones (each holds a
    # worker until its pinned end) and the ready frontier, in index order.
    assert cbase.running == sorted(cbase.running)
    assert sorted(cbase.ends[i] for i in cbase.running) == sorted(full.busy)
    assert set(cbase.running) == {i for i in pinned if cbase.state[i] == RUNNING}
    assert cbase.frontier == sorted(full.ready_time)


class _PatchPathChecker(Listener):
    """At every analysis point, compare the (possibly patched) projection
    and pinned base against from-scratch machine walks, atomically with
    respect to concurrent event publication (machines.lock is held)."""

    def __init__(self, analyzer, platform):
        self.analyzer = analyzer
        self.platform = platform
        self.checked = 0

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
            fresh, _terminals = analyzer.machines.project_roots(now, roots)
            assert_adg_content_equal(adg, fresh)
            assert_adg_layout_equal(adg, fresh)
            # Drive the pinned base (and its delta re-pin across nows)
            # through the engine, then compare with a full pinning pass.
            engine.limited(adg, now, 2)
            token, table, rec = engine._resolve(adg)
            # The written-through columns against a fresh compile of
            # the fresh walk.
            assert_tables_bit_equal(table, PlanTable.compile(fresh))
            # Compiled passes against the reference passes on the same
            # (possibly patched, delta-refreshed) graph — including the
            # delta re-pin, which `limited` above drove across nows.
            assert_compiled_pinned_equal(
                engine._pinned_compiled(adg, now, token, table, rec),
                pin_actuals(adg, now),
            )
            assert_compiled_schedule_equal(
                engine.limited(adg, now, 2),
                limited_lp_schedule(adg, now, 2),
            )
            # The (possibly delta-advanced) priority table against a
            # fresh sweep of the same table, and against the reference.
            cp, prio = engine._critical_path_compiled(token, table, rec)
            fresh_cp, fresh_prio = compiled_critical_path(table)
            assert cp == fresh_cp
            assert prio == fresh_prio
            ref_cp = remaining_critical_path(adg)
            assert list(cp) == [ref_cp[i] for i in range(len(adg))]
            self.checked += 1
        return event.value


def _warm_snapshot_for(desc):
    """A snapshot from one full run of a fresh construction of *desc*."""
    from repro.core.persistence import snapshot_estimates

    warm_program = build_program(desc)
    warm_platform = timed_sim()
    warm_analyzer = ExecutionAnalyzer(skeleton=warm_program, extensions=True)
    warm_platform.add_listener(warm_analyzer)
    run(warm_program, 5, warm_platform)
    return snapshot_estimates(warm_program, warm_analyzer.estimators)


@pytest.mark.service_stress
class TestPatchPathEquivalence:
    """ISSUE 5 acceptance: for every generated scenario, the delta/patch
    path produces projections, pinned bases, WCTs, minimal LPs and
    timelines identical to from-scratch recomputes (quantized mode off).
    The schedule-level quantities are covered by `_LivePlanChecker`
    (which runs the default engine, patches included); this class pins the
    projection/pinning layers directly and that patches actually fire."""

    @pytest.mark.parametrize("sim", [timed_sim, jittered_sim])
    @given(desc=program_descriptions)
    def test_patched_projection_and_pins_equal_full_walks(self, sim, desc):
        """Every generated program twice: at constant cost (the estimates
        converge, patches bind and refresh) and at a value-dependent one
        (the estimates keep moving, patches retime as well)."""
        snapshot = _warm_snapshot_for(desc)
        program = build_program(desc)
        platform = sim()
        analyzer = ExecutionAnalyzer(
            qos=QoS.wall_clock(30.0), skeleton=program, extensions=True
        )
        analyzer.initialize_estimates(program, snapshot)
        assume(analyzer.estimators.ready_for(program))
        checker = _PatchPathChecker(analyzer, platform)
        platform.add_listener(analyzer)
        platform.add_listener(checker)
        run(program, 5, platform)
        assert checker.checked >= 0

    def test_patches_fire_and_stay_equal_on_wide_map(self):
        """Deterministic non-vacuity: a warm wide map with converged
        estimates must exercise the patch path (projection patches and
        delta re-pins) while the checker holds equality throughout."""
        program, analyzer = warm_map_analyzer(
            width=6, qos=QoS.wall_clock(30.0), work_t=1.0
        )
        # Converge the estimates the simulator will observe (1.0 muscle
        # costs): split/merge warm at 0.25 would drift on first
        # observation and force full walks; 1.0 stays bit-identical.
        analyzer.initialize_estimates(
            program,
            snapshot_from_names(
                program,
                times={"split": 1.0, "work": 1.0, "merge": 1.0},
                cards={"split": 6.0},
            ),
        )
        platform = timed_sim()
        checker = _PatchPathChecker(analyzer, platform)
        platform.add_listener(analyzer)
        platform.add_listener(checker)
        run(program, 3, platform)
        stats = analyzer.plan.cache.stats
        assert checker.checked >= 6
        assert stats.projection_patches >= 1
        assert stats.pin_patches >= 1
        assert stats.projection_passes >= 1  # structural points still walk

    def test_converged_nested_map_walks_once(self):
        """Deterministic non-vacuity of the bind path: on a warm,
        converged 5x10 nested map every machine that starts takes over
        the slot estimated for it and every split lands the estimated
        cardinality, so the first live walk and its table are the only
        ones; every later analysis point is a patch."""
        program, analyzer = warm_nested_map_analyzer(5, 10)
        platform = timed_sim()
        checker = _PatchPathChecker(analyzer, platform)
        platform.add_listener(analyzer)
        platform.add_listener(checker)
        run(program, 3, platform)
        stats = analyzer.plan.cache.stats
        assert checker.checked >= 60
        assert stats.projection_passes == 1
        assert stats.table_compiles == 1
        assert stats.projection_patches == checker.checked - 1
        assert stats.table_patches >= 60 and stats.pin_patches >= 60

    @pytest.mark.parametrize("sim", [timed_sim, jittered_sim])
    def test_split_wider_than_estimated_falls_back_to_the_walk(self, sim):
        """Warm |fs| = 4 against an actual split of 6: the cardinality
        reshapes the projection, so that window takes the full walk (and
        the estimate moves with it); answers stay equal throughout —
        whether or not the time estimates move as well."""
        program, analyzer = warm_nested_map_analyzer(2, 6)
        inner_split = program.subskel.split
        analyzer.estimators.initialize_card(inner_split, 4.0)
        platform = sim()
        checker = _PatchPathChecker(analyzer, platform)
        platform.add_listener(analyzer)
        platform.add_listener(checker)
        run(program, 3, platform)
        stats = analyzer.plan.cache.stats
        assert checker.checked >= 20
        # The first live walk, then one per inner split at least.
        assert stats.projection_passes >= 3
        assert stats.projection_patches >= 1

    def test_from_scratch_baseline_never_patches_and_answers_agree(self):
        """``PlanCache(maxsize=0)`` alone is the walking baseline: no
        patch of any kind, at least one walk per checked point, nothing
        carried afterwards — and the checker's equalities hold."""
        program, analyzer = warm_map_analyzer(
            width=4,
            qos=QoS.wall_clock(30.0),
            work_t=1.0,
            cache=PlanCache(maxsize=0),
        )
        platform = timed_sim()
        checker = _PatchPathChecker(analyzer, platform)
        platform.add_listener(analyzer)
        platform.add_listener(checker)
        run(program, 3, platform)
        stats = analyzer.plan.cache.stats
        assert checker.checked >= 4
        assert stats.projection_patches == 0
        assert stats.pin_patches == 0
        assert stats.table_patches == 0
        assert stats.projection_passes >= checker.checked
        assert not analyzer.plan._carried and not analyzer.plan._live_prev


# ---------------------------------------------------------------------------
# invalidation


class TestInvalidation:
    def test_estimator_update_invalidates_structural_plans(self):
        program, analyzer = warm_map_analyzer(width=3, work_t=1.0)
        engine = analyzer.plan
        est = analyzer.estimators
        before = engine.structural_wct(1)
        assert before == projected_wct(program, est, 1)

        work = next(m for m in program.muscles() if m.name == "work")
        est.initialize_time(work, 5.0)
        after = engine.structural_wct(1)
        assert after == projected_wct(program, est, 1)
        assert after != before  # 3 x 1s became 3 x 5s

    def test_live_projection_reused_until_next_event(self):
        platform = timed_sim()
        program, analyzer = warm_map_analyzer(width=4)
        platform.add_listener(analyzer)
        engine = analyzer.plan
        seen = []

        class Probe(Listener):
            def on_event(self, event):
                if is_analysis_point(event):
                    roots = analyzer.unfinished_roots()
                    if roots and analyzer.ready(roots):
                        now = platform.now()
                        first = engine.projection(now, roots)
                        assert engine.projection(now, roots) is first
                        seen.append(first)
                return event.value

        platform.add_listener(Probe())
        run(program, 3, platform)
        assert len(seen) >= 2
        # Every analysis point consumed at least one new event, so no
        # projection is served from the (rev-keyed) cache unchanged; but
        # with the delta pipeline a span-only window *patches* the
        # previous object in place instead of building a fresh one — so
        # the distinct-object count equals the full walks, and the
        # remainder were patches.
        stats = engine.cache.stats
        distinct = len({id(adg) for adg in seen})
        assert distinct < len(seen)  # at least one patch fired
        assert stats.projection_patches >= len(seen) - distinct

    def test_live_projection_rebuilt_fresh_by_the_baseline(self):
        """Over ``PlanCache(maxsize=0)`` nothing is kept: every
        projection call is a fresh walk and a fresh object."""
        platform = timed_sim()
        program, analyzer = warm_map_analyzer(
            width=4, cache=PlanCache(maxsize=0)
        )
        platform.add_listener(analyzer)
        engine = analyzer.plan
        seen = []

        class Probe(Listener):
            def on_event(self, event):
                if is_analysis_point(event):
                    roots = analyzer.unfinished_roots()
                    if roots and analyzer.ready(roots):
                        seen.append(engine.projection(platform.now(), roots))
                return event.value

        platform.add_listener(Probe())
        run(program, 3, platform)
        assert len(seen) >= 2
        assert len({id(adg) for adg in seen}) == len(seen)
        stats = engine.cache.stats
        assert stats.projection_patches == 0
        assert stats.projection_passes == len(seen)

    def test_adg_mutation_invalidates_derived_plans(self):
        """Mutating an engine-built ADG (its revision counter bumps)
        retires every plan cached for the old revision."""
        program, analyzer = warm_map_analyzer(width=2, work_t=1.0)
        engine = analyzer.plan
        adg = engine.structural_projection()
        before = engine.wct_at(adg, 0.0, 1)
        terminal = max(a.id for a in adg.activities)
        adg.add("appended", 10.0, preds=[terminal])
        after = engine.wct_at(adg, 0.0, 1)
        assert after == before + 10.0  # fresh plan, not the stale cache
        assert adg.touch() == adg.rev  # touch() also retires plans

    def test_mutated_projection_is_rebuilt_not_served(self):
        """A served projection mutated in place must not poison later
        analyses: the next projection call rebuilds from the machines
        (matching pre-engine behaviour, where every analysis projected
        a fresh ADG)."""
        _program, analyzer = warm_map_analyzer(width=2)
        engine = analyzer.plan
        adg = engine.structural_projection()
        clean_size = len(adg)
        adg.add("rogue", 99.0)
        rebuilt = engine.structural_projection()
        assert rebuilt is not adg
        assert len(rebuilt) == clean_size

    def test_disabled_cache_recomputes_everything(self):
        cache = PlanCache(maxsize=0)
        program, analyzer = warm_map_analyzer(cache=cache)
        engine = analyzer.plan
        p1 = engine.structural_projection()
        p2 = engine.structural_projection()
        assert p1 is not p2
        assert cache.stats.hits == 0
        assert cache.stats.projection_passes == 2

    def test_cache_maxsize_validation(self):
        with pytest.raises(ValueError, match="maxsize"):
            PlanCache(maxsize=-1)

    def test_lru_eviction_bounds_the_store(self):
        cache = PlanCache(maxsize=4)
        for i in range(10):
            cache.put(("k", i), i)
        assert len(cache) == 4
        assert cache.stats.evictions == 6


# ---------------------------------------------------------------------------
# shared-cache isolation and effectiveness


class TestSharedCache:
    def test_engines_sharing_one_cache_do_not_collide(self):
        cache = PlanCache()
        prog_a, analyzer_a = warm_map_analyzer(cache=cache, work_t=1.0)
        prog_b, analyzer_b = warm_map_analyzer(cache=cache, work_t=7.0)
        wct_a = analyzer_a.plan.structural_wct(2)
        wct_b = analyzer_b.plan.structural_wct(2)
        assert wct_a == projected_wct(prog_a, analyzer_a.estimators, 2)
        assert wct_b == projected_wct(prog_b, analyzer_b.estimators, 2)
        assert wct_a != wct_b
        # Round two hits the cache for both engines.
        hits0 = cache.stats.hits
        assert analyzer_a.plan.structural_wct(2) == wct_a
        assert analyzer_b.plan.structural_wct(2) == wct_b
        assert cache.stats.hits > hits0

    def test_caching_cuts_schedule_passes_for_identical_queries(self):
        def drive(cache):
            _program, analyzer = warm_map_analyzer(
                width=4, qos=QoS.wall_clock(6.0), cache=cache
            )
            for i in range(6):
                # Alternating current_lp keeps the analyzer's one-slot
                # report memo missing, so every round reaches the store.
                report = analyzer.analyze(0.0, current_lp=2 + i % 2)
                assert report is not None
                report.minimal_lp(cap=6)
            return cache.stats

        cold = drive(PlanCache(maxsize=0))
        warm = drive(PlanCache())
        assert warm.schedule_passes < cold.schedule_passes
        assert warm.projection_passes < cold.projection_passes
        assert warm.hits > 0
        assert warm.hit_rate > 0.5

    def test_foreign_adg_answers_are_computed_not_cached(self):
        # An ADG the engine did not build is planned correctly but never
        # stored (no version token to invalidate it by).
        cache = PlanCache()
        _program, analyzer = warm_map_analyzer(cache=cache)
        engine = analyzer.plan
        foreign = ADG()
        a = foreign.add("x", 2.0)
        foreign.add("y", 3.0, preds=[a])
        assert engine.wct_at(foreign, 0.0, 1) == 5.0
        assert (
            engine.limited(foreign, 0.0, 1).timeline()
            == limited_lp_schedule(foreign, 0.0, 1).timeline()
        )
        assert len(cache) == 0


# ---------------------------------------------------------------------------
# compiled tables: every array pass == its dict twin, bit for bit


@pytest.mark.service_stress
class TestCompiledPassesMatchDict:
    """ISSUE 9 acceptance: the flat-array passes of
    :mod:`repro.core.planning.table` must be bit-for-bit equal to the
    reference passes of :mod:`repro.core.schedule` — structurally on
    generated programs here, live and across the delta/patch path via
    the extended ``_LivePlanChecker``/``_PatchPathChecker`` sweeps."""

    @given(program_descriptions)
    def test_structural_compiled_passes_equal_dict_passes(self, desc):
        program = build_program(desc)
        platform = timed_sim()
        analyzer = ExecutionAnalyzer(skeleton=program, extensions=True)
        platform.add_listener(analyzer)
        run(program, 5, platform)
        est = analyzer.estimators
        assume(est.ready_for(program))

        adg = ADG()
        project_skeleton(program, adg, [], est)
        table = PlanTable.compile(adg)
        now = 0.0

        base = compiled_pin(table, now)
        assert_compiled_pinned_equal(base, pin_actuals(adg, now))

        best_ref = best_effort_schedule(adg, now)
        assert_compiled_schedule_equal(compiled_best_effort(table, base), best_ref)

        cp, prio = compiled_critical_path(table)
        ref_cp = remaining_critical_path(adg)
        assert list(cp) == [ref_cp[i] for i in range(len(adg))]

        for lp in (1, 2, 3, 5):
            assert_compiled_schedule_equal(
                compiled_schedule_pending(table, now, lp, base, prio),
                limited_lp_schedule(adg, now, lp),
            )

        # The minimal-LP scan at a generous, a just-met and two
        # unmeetable deadlines: the compiled scan's work-bound prune
        # must never change an answer, feasible or not.
        for deadline in (
            best_ref.wct * 4,
            best_ref.wct + 1e-6,
            best_ref.wct * 0.5,
            now,
        ):
            ref = minimal_lp_greedy(adg, now, deadline, max_lp=8)
            got = compiled_minimal_lp(
                table, now, deadline, max_lp=8, base=base, prio=prio
            )
            if ref is None:
                assert got is None
            else:
                assert got is not None
                assert got[0] == ref[0]
                assert_compiled_schedule_equal(got[1], ref[1])

    def test_compiled_tables_compile_and_patch_on_wide_map(self):
        """Deterministic non-vacuity for the compiled pipeline: the warm
        wide map must compile a table, write deltas through in place and
        delta re-pin the compiled base — with the checker holding
        compiled==dict equality at every analysis point."""
        program, analyzer = warm_map_analyzer(
            width=6, qos=QoS.wall_clock(30.0), work_t=1.0
        )
        analyzer.initialize_estimates(
            program,
            snapshot_from_names(
                program,
                times={"split": 1.0, "work": 1.0, "merge": 1.0},
                cards={"split": 6.0},
            ),
        )
        platform = timed_sim()
        checker = _PatchPathChecker(analyzer, platform)
        platform.add_listener(analyzer)
        platform.add_listener(checker)
        run(program, 3, platform)
        stats = analyzer.plan.cache.stats
        assert checker.checked >= 6
        assert stats.table_compiles >= 1
        assert stats.table_patches >= 1
        assert stats.pin_patches >= 1

    def test_compile_rejects_a_gap_in_the_ids(self):
        """Ids are the array index: a graph that lost an id cannot be
        flattened, and there is no other path to fall back to."""
        adg = ADG()
        a = adg.add("a", 1.0)
        b = adg.add("b", 1.0, preds=[a])
        adg.add("c", 1.0, preds=[b])
        del adg._activities[b]
        with pytest.raises(SchedulingError, match="not dense"):
            PlanTable.compile(adg)


# ---------------------------------------------------------------------------
# projection compiler == Activity-walk + PlanTable.compile, bit for bit


_TABLE_COLUMNS = (
    "duration",
    "start",
    "end",
    "state",
    "npred",
    "pred0",
    "pred1",
    "pred_ptr",
    "pred_ext",
    "nsucc",
    "succ0",
    "succ1",
    "succ_ptr",
    "succ_ext",
)


def assert_tables_bit_equal(direct: PlanTable, walked: PlanTable) -> None:
    """Every column identical down to the array typecode and raw bytes."""
    assert direct.n == walked.n
    assert direct.names == walked.names
    assert direct.roles == walked.roles
    for col in _TABLE_COLUMNS:
        a, b = getattr(direct, col), getattr(walked, col)
        assert a.typecode == b.typecode, f"typecode mismatch in {col}"
        assert a.tobytes() == b.tobytes(), f"column {col} diverged"


def assert_pinned_bases_equal(fresh, pinned) -> None:
    assert fresh.now == pinned.now
    assert fresh.ends.tobytes() == pinned.ends.tobytes()
    assert fresh.pp.tobytes() == pinned.pp.tobytes()
    assert fresh.state.tobytes() == pinned.state.tobytes()
    assert fresh.busy == pinned.busy
    assert fresh.ready_items == pinned.ready_items
    assert fresh.to_schedule == pinned.to_schedule
    assert fresh.running == pinned.running
    assert fresh.frontier == pinned.frontier


@pytest.mark.service_stress
class TestProjectionCompilerTwin:
    """ISSUE 10 acceptance: the :class:`~repro.core.planning.compile.
    ProjectionCompiler` emits PlanTable columns straight from the
    skeleton structure — the result must be **bit-for-bit** the table
    the Activity path produces (``project_skeleton`` → ``PlanTable.
    compile``), every generated pattern included (nested D&C/While/If
    hit the template-stamping multipliers), and the cross-engine
    structural memo must serve repeats without a walk yet never survive
    an estimate-value change."""

    @given(program_descriptions)
    def test_direct_compiled_tables_equal_activity_walk(self, desc):
        program = build_program(desc)
        platform = timed_sim()
        analyzer = ExecutionAnalyzer(skeleton=program, extensions=True)
        platform.add_listener(analyzer)
        run(program, 5, platform)
        est = analyzer.estimators
        assume(est.ready_for(program))

        fresh = ADG()
        project_skeleton(program, fresh, [], est)
        walked = PlanTable.compile(fresh)
        assert walked is not None

        plan = compile_structural(program, est)
        assert isinstance(plan, CompiledProjection)
        assert_tables_bit_equal(plan.table, walked)
        # The all-pending pinned base built by pure array copies equals
        # a real pinning pass over the walked table (bit for bit, so
        # every schedule derived from it is equal too).
        assert_pinned_bases_equal(
            plan.pinned_fresh(0.0), compiled_pin(walked, 0.0)
        )

        # The engine serves the same answers through the memoized plan
        # as the dict path computes from scratch.
        engine = analyzer.plan
        served = engine.structural_plan()
        assert served is not None
        assert_tables_bit_equal(served.table, walked)
        for lp in (1, 3):
            assert engine.structural_wct(lp) == projected_wct(program, est, lp)

    def test_memo_shared_across_engines_walk_counter_flat(self):
        """N same-shape, same-estimate submissions share ONE compiled
        structural table: the first compiles (one projection pass), the
        rest are memo hits — the walk counter stays flat."""
        cache = PlanCache()
        analyzers = [
            warm_map_analyzer(width=4, cache=cache)[1] for _ in range(4)
        ]
        base = cache.stats
        plans = [a.plan.structural_plan() for a in analyzers]
        assert all(p is plans[0] for p in plans)  # one shared object
        stats = cache.stats
        assert stats.struct_compiles - base.struct_compiles == 1
        assert stats.struct_memo_hits - base.struct_memo_hits == 3
        # The compile *is* the only projection walk for the shape.
        assert stats.projection_passes - base.projection_passes == 1
        # Re-asking on every engine stays flat too.
        for a in analyzers:
            assert a.plan.structural_plan() is plans[0]
        again = cache.stats
        assert again.struct_compiles == stats.struct_compiles
        assert again.projection_passes == stats.projection_passes

    def test_memo_invalidated_by_value_change_not_version_churn(self):
        """The memo keys on estimate *values*: a version bump that
        changes a duration recompiles; a version bump that re-initializes
        the same values still hits."""
        cache = PlanCache()
        program, analyzer = warm_map_analyzer(width=3, cache=cache)
        engine = analyzer.plan
        first = engine.structural_plan()
        assert first is not None
        compiles0 = cache.stats.struct_compiles

        # Same structural values, new estimator version (an unrelated
        # muscle's estimate moved — e.g. registry churn from another
        # part of a shared workload): memo must still hit.
        v0 = analyzer.estimators.version
        unrelated = Execute(lambda v: v, name="unrelated")
        analyzer.estimators.initialize_time(unrelated, 42.0)
        assert analyzer.estimators.version > v0
        assert engine.structural_plan() is first
        assert cache.stats.struct_compiles == compiles0

        # Changed value: fresh compile, and the duration column moved.
        work = next(m for m in program.muscles() if m.name == "work")
        analyzer.estimators.initialize_time(work, 9.0)
        second = engine.structural_plan()
        assert second is not None and second is not first
        assert cache.stats.struct_compiles == compiles0 + 1
        assert second.table.duration.tobytes() != first.table.duration.tobytes()
        assert engine.structural_wct(2) == projected_wct(
            program, analyzer.estimators, 2
        )

    def test_fingerprint_separates_shapes_and_names(self):
        """Same pattern tree with different muscle names (or different
        cardinalities changing the stamped structure) must not share."""
        prog_a = map_program(width=3)
        prog_b = map_program(width=3)
        assert structural_fingerprint(prog_a) == structural_fingerprint(prog_b)
        renamed = Map(
            Split(lambda v: [v] * 3, name="split2"),
            Seq(Execute(lambda v: v, name="work")),
            Merge(lambda rs: rs[0], name="merge"),
        )
        assert structural_fingerprint(prog_a) != structural_fingerprint(renamed)

    def test_counters_surface_in_stats_dict(self):
        """Deterministic non-vacuity: the new counters are visible on
        the dict surface every exporter (plan_stats, the Telescope
        gauge family) reads."""
        cache = PlanCache()
        _, analyzer = warm_map_analyzer(width=2, cache=cache)
        _, other = warm_map_analyzer(width=2, cache=cache)
        assert analyzer.plan.structural_plan() is not None
        assert other.plan.structural_plan() is not None
        d = cache.stats_dict()
        assert d["struct_compiles"] == 1
        assert d["struct_memo_hits"] == 1

    def test_admission_gates_ride_the_structural_memo(self):
        """The admission controller's gates pull the compiled structural
        plan of the submission's engine — no per-evaluation projection
        walk."""
        from repro.core.qos import QoS as _QoS
        from repro.service.admission import AdmissionController

        cache = PlanCache()
        program, analyzer = warm_map_analyzer(width=4, cache=cache)
        ctl = AdmissionController(capacity=4)
        qos = _QoS.wall_clock(1000.0)
        walks0 = cache.stats.projection_passes
        d1 = ctl.evaluate(qos, analyzer.plan, "t", 0)
        assert not d1.rejected
        # Re-evaluation (held-queue style) adds no projection walk.
        d2 = ctl.evaluate(qos, analyzer.plan, "t", 0)
        assert not d2.rejected
        assert cache.stats.projection_passes == walks0 + 1
        assert cache.stats.struct_memo_hits >= 1
        assert analyzer.plan.structural_wct(4) == projected_wct(
            program, analyzer.estimators, 4
        )
