"""The delta pipeline's building blocks, unit-by-unit.

The end-to-end equivalence (patched projections == full walks at real
analysis points) lives in ``test_plan_engine.py``; this module pins the
pieces: the ADG / machine-registry changelogs and their compaction
(ISSUE 5 satellite: O(activities) memory), the value-change estimator
version, ``pin_actuals_delta``, the quantized ``now``-bucket plan-cache
mode and its skew bound, and the patch path on the *real* thread/process
backends.
"""

import pytest

from repro import PlatformSpec, SimulatedPlatform, run
from repro.core.adg import ADG
from repro.core.analysis import ExecutionAnalyzer, is_analysis_point
from repro.core.delta import ChangeDelta
from repro.core.estimator import EstimatorRegistry
from repro.core.planning import PlanCache, PlanTable
from repro.core.planning import engine as engine_module
from repro.core.planning.table import (
    compiled_critical_path,
    compiled_critical_path_delta,
    compiled_minimal_lp,
    compiled_pin,
)
from repro.core.schedule import (
    limited_lp_schedule,
    pin_actuals,
    pin_actuals_delta,
)
from repro.events.bus import Listener
from repro.runtime.costmodel import ConstantCostModel
from repro.runtime.registry import make_platform
from repro.skeletons import Execute, Seq
from tests.conftest import make_warm_snapshot, sleepy_map_program
from tests.core.test_plan_engine import (
    _PatchPathChecker,
    assert_pinned_equal,
    warm_map_analyzer,
    warm_nested_map_analyzer,
)


def timed_sim(parallelism=3):
    return SimulatedPlatform(
        parallelism=parallelism,
        cost_model=ConstantCostModel(1.0),
        max_parallelism=8,
    )


# ---------------------------------------------------------------------------
# ChangeDelta


class TestChangeDelta:
    def test_empty_and_truthiness(self):
        empty = ChangeDelta(1, 1, structural=False)
        assert empty.empty and not empty
        touched = ChangeDelta(1, 3, structural=False, touched=(4,))
        assert not touched.empty and touched
        attached = ChangeDelta(1, 3, structural=False, attached=(4,))
        assert not attached.empty and attached
        structural = ChangeDelta(1, 2, structural=True)
        assert not structural.empty and structural


# ---------------------------------------------------------------------------
# ADG changelog


class TestADGChangelog:
    def build(self):
        adg = ADG()
        a = adg.add("a", 1.0)
        b = adg.add("b", 2.0, preds=[a])
        return adg, a, b

    def test_add_is_structural(self):
        adg, _a, _b = self.build()
        delta = adg.delta_since(0)
        assert delta is not None and delta.structural

    def test_update_activity_is_a_touch(self):
        adg, a, b = self.build()
        rev = adg.rev
        assert adg.update_activity(a, 0.0, 1.0, 1.0)
        delta = adg.delta_since(rev)
        assert delta == ChangeDelta(rev, adg.rev, False, (a,))
        # A no-op update records nothing.
        rev2 = adg.rev
        assert not adg.update_activity(a, 0.0, 1.0, 1.0)
        assert adg.delta_since(rev2).empty

    def test_bare_touch_is_structural(self):
        adg, _a, _b = self.build()
        rev = adg.rev
        adg.touch()
        assert adg.delta_since(rev).structural

    def test_future_rev_and_compaction_window(self):
        adg, a, _b = self.build()
        assert adg.delta_since(adg.rev + 5) is None
        adg.update_activity(a, 0.0, 1.0, 1.0)
        adg.compact_changelog(adg.rev)
        assert adg.delta_since(adg.rev - 1) is None  # below the floor
        assert adg.delta_since(adg.rev).empty

    def test_update_activity_validation(self):
        from repro.errors import ADGError

        adg, a, _b = self.build()
        with pytest.raises(ADGError):
            adg.update_activity(a, None, 1.0, 1.0)
        with pytest.raises(ADGError):
            adg.update_activity(a, 2.0, 1.0, 1.0)
        with pytest.raises(ADGError):
            adg.update_activity(a, 0.0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# MachineRegistry changelog


class _ChangelogProbe(Listener):
    """Record (rev window, delta) around every analysis point."""

    def __init__(self, analyzer):
        self.analyzer = analyzer
        self.samples = []
        self._last_rev = 0

    def on_event(self, event):
        machines = self.analyzer.machines
        with machines.lock:
            delta = machines.delta_since(self._last_rev)
            self.samples.append((event.label, delta))
            self._last_rev = machines.rev
        return event.value


class TestRegistryChangelog:
    def run_map(self, width=4, warm_card=None):
        program, analyzer = warm_map_analyzer(width=width, work_t=1.0)
        if warm_card is not None:
            analyzer.estimators.initialize_card(program.split, warm_card)
        platform = timed_sim()
        probe = _ChangelogProbe(analyzer)
        platform.add_listener(analyzer)
        platform.add_listener(probe)
        run(program, 3, platform)
        return analyzer, probe

    def test_span_only_and_structural_classification(self):
        analyzer, probe = self.run_map()
        by_label = {}
        for label, delta in probe.samples:
            by_label.setdefault(label, []).append(delta)
        # A new root changes the projected root set: structural.  The
        # BEFORE-SPLIT on the already-created machine only starts a
        # fixed span.
        assert all(d.structural for d in by_label["map@b"])
        assert all(
            not d.structural and d.touched and not d.attached
            for d in by_label["map@bs"]
        )
        # The split lands the cardinality the projection estimated (4):
        # the map is listed for a replay of its extent, not for a walk.
        root = analyzer.machines.roots[0].index
        assert [
            (d.structural, d.touched, d.attached) for d in by_label["map@as"]
        ] == [(False, (root,), (root,))]
        # A nested seq's BEFORE is its machine's first event: the child
        # is attached (it takes over the slot estimated for it); its
        # AFTER is the archetypal span-only touch.
        assert len(by_label["seq@b"]) == 4
        for d in by_label["seq@b"]:
            assert not d.structural and len(d.attached) == 1
            assert d.touched == d.attached != (root,)
        assert all(
            not d.structural and d.touched and not d.attached
            for d in by_label["seq@a"]
        )
        # Fan-out control markers are projection no-ops: no touch at all.
        assert all(d.empty for d in by_label["map@bn"])
        # The merge muscle closing is span-only; the root finishing is not.
        assert all(
            not d.structural and d.touched for d in by_label["map@bm"]
        )
        assert all(not d.structural for d in by_label["map@am"])
        assert all(d.structural for d in by_label["map@a"])

    def test_split_of_another_cardinality_is_structural(self):
        analyzer, probe = self.run_map(width=4, warm_card=6.0)
        (delta,) = [d for label, d in probe.samples if label == "map@as"]
        assert delta.structural and not delta.attached

    def test_nested_map_creation_and_completion_are_attached(self):
        program, analyzer = warm_nested_map_analyzer(2, 2)
        platform = timed_sim()
        probe = _ChangelogProbe(analyzer)
        platform.add_listener(analyzer)
        platform.add_listener(probe)
        run(program, 3, platform)
        root = analyzer.machines.roots[0]
        inner = [child.index for child in root.children]
        assert len(inner) == 2
        created = [d for _label, d in probe.samples if set(d.attached) & set(inner)]
        # Each inner map is listed three times and never forces a walk:
        # created (map@b), split as estimated (map@as), completed (map@a).
        assert sorted(d.attached[0] for d in created) == sorted(inner * 3)
        assert not any(d.structural for d in created)

    def test_while_condition_before_is_structural(self):
        from repro.skeletons import Condition, While

        state = {"left": 2}

        def cond(_v):
            if state["left"] > 0:
                state["left"] -= 1
                return True
            return False

        program = While(
            Condition(cond, name="wcond"),
            Seq(Execute(lambda v: v, name="wbody")),
        )
        analyzer = ExecutionAnalyzer(skeleton=program)
        platform = timed_sim()
        probe = _ChangelogProbe(analyzer)
        platform.add_listener(analyzer)
        platform.add_listener(probe)
        run(program, 1, platform)
        before_cond = [
            d for label, d in probe.samples if label == "while@bc"
        ]
        # The first is machine creation; every one is structural (a new
        # condition span appears, which a patch could not represent).
        assert before_cond and all(d.structural for d in before_cond)

    def test_delta_since_future_and_compacted_windows(self):
        analyzer, _probe = self.run_map()
        machines = analyzer.machines
        assert machines.delta_since(machines.rev + 1) is None
        machines.compact_changelog(machines.rev)
        assert machines.delta_since(0) is None
        assert machines.delta_since(machines.rev) is not None

    def test_reset_is_structural(self):
        analyzer, _probe = self.run_map()
        machines = analyzer.machines
        rev = machines.rev
        machines.reset()
        assert machines.delta_since(rev).structural
        assert machines.changelog_size() == 0

    def test_changelog_stays_bounded_on_long_run(self):
        """Satellite: a long-running execution's changelog is
        O(activities) — per-machine coalescing plus engine-driven
        compaction keep it far below the event count."""
        program, analyzer = warm_map_analyzer(
            width=8, qos=None, work_t=1.0
        )
        platform = timed_sim()
        sizes = []

        class SizeProbe(Listener):
            def on_event(self, event):
                sizes.append(analyzer.machines.changelog_size())
                # Rebalance-like consumption: project at every analysis
                # point so the engine compacts behind itself.
                if is_analysis_point(event):
                    roots = analyzer.unfinished_roots()
                    if roots and analyzer.ready(roots):
                        analyzer.plan.projection(platform.now(), roots)
                return event.value

        platform.add_listener(analyzer)
        platform.add_listener(SizeProbe())
        for wave in range(5):
            run(program, wave, platform)
        machines = analyzer.machines
        assert machines.rev > 100  # plenty of events flowed
        # O(activities): never more entries than machines exist, however
        # many events flowed (per-machine coalescing).
        assert max(sizes) <= len(machines)
        # Engine-driven compaction sheds history behind the live frontier
        # (the size drops back repeatedly instead of only growing)...
        late = sizes[len(sizes) // 2 :]
        assert min(late) < max(sizes)
        # ...and an explicit compaction to the current revision, as a
        # caller with no live plans would issue, empties the log.
        machines.compact_changelog(machines.rev)
        assert machines.changelog_size() == 0


# ---------------------------------------------------------------------------
# estimator version: value-change semantics


class TestEstimatorValueVersion:
    def test_converged_observation_does_not_bump(self):
        program, analyzer = warm_map_analyzer(width=2, work_t=1.0)
        est = analyzer.estimators
        work = next(m for m in program.muscles() if m.name == "work")
        v0 = est.version
        est.observe_time(work, 1.0)  # 0.5*1.0 + 0.5*1.0 == 1.0 exactly
        assert est.version == v0
        est.observe_time(work, 3.0)  # drifts -> must bump
        assert est.version > v0

    def test_identical_reinitialize_does_not_bump(self):
        est = EstimatorRegistry()
        program, _an = warm_map_analyzer(width=2)
        work = next(m for m in program.muscles() if m.name == "work")
        est.initialize_time(work, 2.0)
        v1 = est.version
        est.initialize_time(work, 2.0)
        assert est.version == v1
        est.initialize_time(work, 2.5)
        assert est.version == v1 + 1


# ---------------------------------------------------------------------------
# pin_actuals_delta


def staged_adg():
    """A 6-activity diamond mid-flight: finished, running and pending."""
    adg = ADG()
    a = adg.add("a", 1.0, start=0.0, end=1.0)
    b = adg.add("b", 2.0, preds=[a], start=1.0, end=3.0)
    c = adg.add("c", 2.0, preds=[a], start=1.0)  # running
    d = adg.add("d", 1.5, preds=[b])
    e = adg.add("e", 1.0, preds=[b, c])
    f = adg.add("f", 0.5, preds=[d, e])
    return adg, (a, b, c, d, e, f)


class TestPinActualsDelta:
    def test_advancing_now_matches_full_pin(self):
        adg, _ids = staged_adg()
        base = pin_actuals(adg, 2.0)
        for now in (2.5, 3.0, 4.5):
            delta = pin_actuals_delta(adg, now, base, touched=())
            assert_pinned_equal(delta, pin_actuals(adg, now))
            base = delta

    def test_touched_transitions_match_full_pin(self):
        adg, (a, b, c, d, e, f) = staged_adg()
        base = pin_actuals(adg, 2.0)
        # c finishes, d starts running.
        assert adg.update_activity(c, 1.0, 3.5, 2.5)
        assert adg.update_activity(d, 3.0, None, 1.5)
        patched = pin_actuals_delta(adg, 4.0, base, touched=(c, d))
        assert_pinned_equal(patched, pin_actuals(adg, 4.0))
        # And the patched base seeds identical frontier schedules.
        from repro.core.schedule import remaining_critical_path, schedule_pending

        cp = remaining_critical_path(adg)
        for lp in (1, 2, 3):
            assert (
                schedule_pending(adg, 4.0, lp, "critical-path", patched, cp).timeline()
                == limited_lp_schedule(adg, 4.0, lp).timeline()
            )

    def test_everything_finished_matches(self):
        adg, ids = staged_adg()
        base = pin_actuals(adg, 2.0)
        times = {ids[2]: (1.0, 3.0), ids[3]: (3.0, 4.5), ids[4]: (3.0, 4.0),
                 ids[5]: (4.5, 5.0)}
        for aid, (s, e) in times.items():
            adg.update_activity(aid, s, e, e - s)
        patched = pin_actuals_delta(adg, 6.0, base, touched=tuple(times))
        assert_pinned_equal(patched, pin_actuals(adg, 6.0))
        assert patched.to_schedule == 0


# ---------------------------------------------------------------------------
# compiled_critical_path_delta and the engine's carried priority table


class TestCriticalPathDelta:
    def advance(self, adg, table, pair, rev):
        """Refresh *table* over the window since *rev*, delta the pair."""
        delta = adg.delta_since(rev)
        assert delta is not None and not delta.structural
        table.refresh(adg, delta.touched)
        advanced = compiled_critical_path_delta(table, pair, delta.touched)
        fresh = compiled_critical_path(table)
        assert advanced[0] == fresh[0] and advanced[1] == fresh[1]
        return advanced

    def test_transitions_match_the_full_sweep(self):
        adg, (a, b, c, d, e, f) = staged_adg()
        table = PlanTable.compile(adg)
        pair = compiled_critical_path(table)
        before = (list(pair[0]), list(pair[1]))
        rev = adg.rev
        # d starts (no value moves), then c finishes: c's duration leaves
        # the chain and the change climbs through the finished a.
        adg.update_activity(d, 3.0, None, 1.5)
        advanced = self.advance(adg, table, pair, rev)
        assert list(advanced[0]) == before[0]
        rev = adg.rev
        adg.update_activity(c, 1.0, 3.5, 2.5)
        advanced = self.advance(adg, table, advanced, rev)
        assert advanced[0][c] == advanced[0][e] and advanced[0][a] < before[0][a]
        # The input pair is never mutated (it may still be cached).
        assert (list(pair[0]), list(pair[1])) == before

    def test_everything_finishing_drains_to_zero(self):
        adg, ids = staged_adg()
        table = PlanTable.compile(adg)
        pair = compiled_critical_path(table)
        rev = adg.rev
        times = {ids[2]: (1.0, 3.0), ids[3]: (3.0, 4.5), ids[4]: (3.0, 4.0),
                 ids[5]: (4.5, 5.0)}
        for aid, (s, e) in times.items():
            adg.update_activity(aid, s, e, e - s)
        advanced = self.advance(adg, table, pair, rev)
        assert list(advanced[0]) == [0.0] * len(adg)

    def test_changed_estimate_of_a_running_row_propagates(self):
        adg, (a, b, c, d, e, f) = staged_adg()
        table = PlanTable.compile(adg)
        pair = compiled_critical_path(table)
        rev = adg.rev
        adg.update_activity(c, 1.0, None, 7.0)  # running, longer than thought
        advanced = self.advance(adg, table, pair, rev)
        assert advanced[0][c] == 7.0 + advanced[0][e]
        assert advanced[0][a] == advanced[0][c]

    def test_pending_work_equals_the_per_row_sum(self):
        """The C-speed work bound (compress over the zeroed work column)
        is the per-row sum bit for bit, zero-length rows included, and
        follows the table through a refresh."""
        adg, (a, b, c, d, e, f) = staged_adg()
        zero = adg.add("zero", 0.0, preds=[f])
        tiny = adg.add("tiny", 1e-12, preds=[f])
        table = PlanTable.compile(adg)

        def per_row(base):
            return sum(
                table.duration[i]
                for i in range(table.n)
                if base.pp[i] != -1 and table.duration[i] > 1e-9
            )

        base = compiled_pin(table, 2.0)
        assert base.pending_work(table) == per_row(base) == 1.5 + 1.0 + 0.5
        assert table.work_column()[zero] == table.work_column()[tiny] == 0.0
        rev = adg.rev
        adg.update_activity(d, None, None, 0.1)
        adg.update_activity(e, None, None, 0.2)
        adg.update_activity(f, None, None, 1e-10)
        table.refresh(adg, adg.delta_since(rev).touched)
        base = compiled_pin(table, 2.0)
        assert base.pending_work(table) == per_row(base) == 0.1 + 0.2
        found = compiled_minimal_lp(table, 2.0, 100.0)
        assert found is not None and found[0] == 1

    def test_engine_carries_the_table_across_a_whole_run(self, monkeypatch):
        """Arbiter order — analyze, then ``minimal_lp`` (which pins, and
        compacts the changelog, *before* its first frontier pass asks
        for priorities): on a converged nested map the one full sweep is
        the first; every later revision is a delta."""
        sweeps, deltas = [], []
        full, delta = (
            engine_module.compiled_critical_path,
            engine_module.compiled_critical_path_delta,
        )
        monkeypatch.setattr(
            engine_module,
            "compiled_critical_path",
            lambda table: sweeps.append(1) or full(table),
        )
        monkeypatch.setattr(
            engine_module,
            "compiled_critical_path_delta",
            lambda table, prev, touched: deltas.append(len(tuple(touched)))
            or delta(table, prev, touched),
        )
        program, analyzer = warm_nested_map_analyzer(5, 10)
        platform = timed_sim()
        answers = []

        class ArbiterLike(Listener):
            def on_event(self, event):
                if is_analysis_point(event):
                    report = analyzer.analyze(platform.now())
                    if report is not None:
                        answers.append(report.minimal_lp(cap=8))
                        table = analyzer.plan._table_for(report.adg)
                        pair = analyzer.plan._critical_path_compiled(
                            report.adg, table
                        )
                        fresh = full(table)
                        assert pair[0] == fresh[0] and pair[1] == fresh[1]
                return event.value

        platform.add_listener(analyzer)
        platform.add_listener(ArbiterLike())
        run(program, 3, platform)
        assert len(answers) >= 60 and all(a is not None for a in answers)
        assert len(sweeps) == 1
        assert len(deltas) >= 60
        # A window touches the rows of the muscle that moved, not the table.
        assert max(deltas) <= 4


# ---------------------------------------------------------------------------
# quantized now-bucket mode


class TestQuantizedNowBuckets:
    def test_off_by_default_and_validation(self):
        assert PlanCache().now_quantum is None
        assert PlanCache().quantize(1.2345) == 1.2345
        with pytest.raises(ValueError, match="now_quantum"):
            PlanCache(now_quantum=0.0)
        with pytest.raises(ValueError, match="now_quantum"):
            PlanCache(now_quantum=-1.0)

    def test_quantize_floors_to_bucket(self):
        cache = PlanCache(now_quantum=0.25)
        assert cache.quantize(0.0) == 0.0
        assert cache.quantize(0.26) == 0.25
        assert cache.quantize(1.0) == 1.0
        assert cache.quantize(0.999) == 0.75

    def quantized_engines(self, q=0.25):
        _p1, exact = warm_map_analyzer(width=4, qos=None, work_t=1.0)
        _p2, quantized = warm_map_analyzer(
            width=4, qos=None, work_t=1.0, cache=PlanCache(now_quantum=q)
        )
        return exact.plan, quantized.plan

    def test_quantized_answers_equal_exact_answers_at_bucket_floor(self):
        """The quantized engine is *defined* as the exact engine driven
        by a clock floored to the bucket — decision skew comes only from
        the clock, never from the plan math."""
        exact, quantized = self.quantized_engines(q=0.25)
        adg_e = exact.structural_projection()
        adg_q = quantized.structural_projection()
        for now in (0.0, 0.1, 0.24, 0.26, 1.01, 2.76):
            floored = quantized.cache.quantize(now)
            for lp in (1, 2, 3):
                assert quantized.wct_at(adg_q, now, lp) == exact.wct_at(
                    adg_e, floored, lp
                )
            assert quantized.optimal_lp(adg_q, now) == exact.optimal_lp(
                adg_e, floored
            )
            assert quantized.minimal_lp(adg_q, now, now + 5.0) == exact.minimal_lp(
                adg_e, floored, now + 5.0
            )

    def test_skew_bounded_by_quantum(self):
        q = 0.25
        exact, quantized = self.quantized_engines(q=q)
        adg_e = exact.structural_projection()
        adg_q = quantized.structural_projection()
        for now in (0.01, 0.13, 0.24, 0.9, 1.49, 3.01):
            for lp in (1, 2, 4):
                skew = abs(
                    quantized.wct_at(adg_q, now, lp) - exact.wct_at(adg_e, now, lp)
                )
                assert skew <= q + 1e-9, (now, lp, skew)

    def test_same_bucket_reuses_plans_across_nows(self):
        _program, analyzer = warm_map_analyzer(
            width=4, qos=None, work_t=1.0, cache=PlanCache(now_quantum=0.5)
        )
        engine = analyzer.plan
        adg = engine.structural_projection()
        engine.wct_at(adg, 1.01, 2)
        passes = engine.cache.stats.schedule_passes
        hits = engine.cache.stats.hits
        engine.wct_at(adg, 1.3, 2)  # same 0.5-bucket
        engine.wct_at(adg, 1.49, 2)
        stats = engine.cache.stats
        assert stats.schedule_passes == passes  # no recompute
        assert stats.hits > hits
        engine.wct_at(adg, 1.51, 2)  # next bucket -> recompute
        assert engine.cache.stats.schedule_passes == passes + 1


# ---------------------------------------------------------------------------
# patch equivalence on the real backends (virtual is covered by the
# plan-engine property harness)


@pytest.mark.service_stress
@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_patch_path_equivalence_on_real_backends(backend):
    """Patched projections/schedules == from-scratch walks while real
    worker threads/processes publish concurrently (the checker compares
    under the machine lock at every analysis point)."""
    width = 4
    program = sleepy_map_program(width, 0.01)
    analyzer = ExecutionAnalyzer(skeleton=program)
    analyzer.initialize_estimates(
        program,
        make_warm_snapshot(
            program,
            times={"svc_split": 0.001, "svc_leaf": 0.01, "svc_merge": 0.001},
            cards={"svc_split": float(width)},
        ),
    )
    platform = make_platform(PlatformSpec(kind=backend, workers=2, max_workers=4))
    try:
        checker = _PatchPathChecker(analyzer, platform)
        platform.add_listener(analyzer)
        platform.add_listener(checker)
        for wave in range(3):
            assert run(program, wave, platform) == wave * width
        assert checker.checked >= width
    finally:
        platform.shutdown()
