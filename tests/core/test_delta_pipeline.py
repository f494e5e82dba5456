"""The delta pipeline's building blocks, unit-by-unit.

The end-to-end equivalence (patched projections == full walks at real
analysis points) lives in ``test_plan_engine.py``; this module pins the
pieces: the ADG / machine-registry changelogs and their compaction
(ISSUE 5 satellite: O(activities) memory), the value-change estimator
version and the estimator changelog beside it, ``ADG.retime`` and its
place in the engine's patch (retime, bind, refresh), ``compiled_pin_delta``,
the quantized ``now``-bucket plan-cache mode and its skew bound, and the
patch path on the *real* thread/process backends.
"""

import pytest

from repro import AutonomicController, PlatformSpec, SimulatedPlatform, run
from repro.core.adg import ADG
from repro.core.analysis import ExecutionAnalyzer, is_analysis_point
from repro.core.delta import ChangeDelta
from repro.core.estimator import EstimatorRegistry
from repro.core.persistence import snapshot_from_names
from repro.core.planning import PlanCache, PlanTable
from repro.core.planning import engine as engine_module
from repro.core.planning.table import (
    compiled_critical_path,
    compiled_critical_path_delta,
    compiled_minimal_lp,
    compiled_pin,
    compiled_pin_delta,
    compiled_schedule_pending,
)
from repro.core.schedule import limited_lp_schedule, pin_actuals
from repro.core.qos import QoS
from repro.core.statemachines.base import MuscleSpan, refresh_from_sources
from repro.events.bus import Listener
from repro.runtime.costmodel import ConstantCostModel
from repro.runtime.registry import make_platform
from repro.skeletons import Condition, Execute, If, Pipe, Seq, While
from repro.workloads import TweetCorpusGenerator
from repro.workloads.wordcount import TwitterCountApp
from tests.conftest import make_warm_snapshot, sleepy_map_program
from tests.core.test_plan_engine import (
    _PatchPathChecker,
    assert_compiled_pinned_equal,
    assert_compiled_schedule_equal,
    assert_pinned_bases_equal,
    jittered_sim,
    map_program,
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
# estimator changelog: what moved between two versions


@pytest.mark.service_stress
class TestEstimatorChangelog:
    def muscles(self):
        program = map_program(3)
        by_name = {m.name: m for m in program.muscles()}
        return by_name["split"], by_name["work"], by_name["merge"]

    def test_time_moves_are_logged_per_muscle(self):
        split, work, merge = self.muscles()
        est = EstimatorRegistry()
        est.initialize_time(work, 1.0)
        est.initialize_time(merge, 0.5)
        v0 = est.version
        assert est.changed_since(v0) == {}
        est.observe_time(work, 1.0)  # value-equal: nothing to report
        assert est.version == v0 and est.changed_since(v0) == {}
        est.observe_time(work, 2.0)
        assert est.changed_since(v0) == {work.uid: 1.5}
        v1 = est.version
        est.initialize_time(merge, 0.25)
        est.observe_time(work, 2.5)
        # Coalesced: one entry per muscle, carrying the live value.
        assert est.changed_since(v0) == {work.uid: 2.0, merge.uid: 0.25}
        assert est.changed_since(v1) == {work.uid: 2.0, merge.uid: 0.25}
        assert est.changed_since(est.version) == {}

    def test_card_drift_is_shape_only_across_an_integer(self):
        split, work, _merge = self.muscles()
        est = EstimatorRegistry()
        v0 = est.version
        est.initialize_card(split, 2.2)  # becomes ready: shape
        assert est.changed_since(v0) is None
        v1 = est.version
        est.initialize_card(split, 2.6)  # both readings stay 3
        assert est.version > v1 and est.changed_since(v1) == {}
        est.observe_card(split, 3)  # 2.8: still 3
        assert est.changed_since(v1) == {}
        v2 = est.version
        est.observe_card(split, 4)  # 3.4: card_int 3 -> 4
        assert est.changed_since(v2) is None
        assert est.changed_since(v1) is None
        assert est.changed_since(est.version) == {}

    def test_zero_reading_is_part_of_the_shape(self):
        """0.4 and 0.0 read the same ``card_int`` (1) but another
        ``card_int_zero`` (1 vs 0): a While that stops iterating."""
        cond = Condition(lambda v: False, name="again")
        est = EstimatorRegistry()
        est.initialize_card(cond, 0.4)
        v0 = est.version
        est.initialize_card(cond, 0.0)
        assert est.card_int(cond) == 1 and est.card_int_zero(cond) == 0
        assert est.changed_since(v0) is None

    def test_restore_estimates_logs(self):
        program, analyzer = warm_map_analyzer(width=3, work_t=1.0)
        est = analyzer.estimators
        work = next(m for m in program.muscles() if m.name == "work")
        v0 = est.version
        analyzer.initialize_estimates(
            program, snapshot_from_names(program, times={"work": 4.0})
        )
        assert est.changed_since(v0) == {work.uid: 4.0}
        analyzer.initialize_estimates(
            program, snapshot_from_names(program, times={}, cards={"split": 5.0})
        )
        assert est.changed_since(v0) is None

    def test_two_engines_read_one_registry_at_their_own_versions(self):
        """The log is not consumed by a reader: two analyzers share one
        registry; one projects at every analysis point, the other falls
        five analyses behind and still retimes across its whole window."""
        program, eager = warm_map_analyzer(width=8, work_t=1.0)
        lazy = ExecutionAnalyzer(skeleton=program, estimators=eager.estimators)
        platform = jittered_sim()
        points = []

        class Probe(Listener):
            def on_event(self, event):
                if is_analysis_point(event) and eager.unfinished_roots():
                    points.append(len(points))
                    for analyzer in (eager, lazy):
                        if analyzer is lazy and points[-1] not in (1, 6):
                            continue
                        roots = analyzer.unfinished_roots()
                        with analyzer.machines.lock:
                            adg = analyzer.plan.projection(platform.now(), roots)
                            fresh, _ = analyzer.machines.project_roots(
                                platform.now(), roots
                            )
                        assert [(a.start, a.end, a.duration) for a in adg] == [
                            (a.start, a.end, a.duration) for a in fresh
                        ]
                return event.value

        for listener in (eager, lazy, Probe()):
            platform.add_listener(listener)
        run(program, 3, platform)
        assert len(points) >= 8
        assert eager.plan.cache.stats.projection_passes == 1
        assert eager.plan.cache.stats.projection_patches == len(points) - 1
        assert lazy.plan.cache.stats.projection_passes == 1
        assert lazy.plan.cache.stats.projection_patches == 1


# ---------------------------------------------------------------------------
# ADG.retime


@pytest.mark.service_stress
class TestRetime:
    def build(self):
        """split finished, one work running, one pending, merge pending;
        plus a hand-built activity no muscle times."""
        program = map_program(2)
        split, work, merge = (
            next(m for m in program.muscles() if m.name == name)
            for name in ("split", "work", "merge")
        )
        est = EstimatorRegistry()
        for muscle, t in ((split, 0.5), (work, 1.0), (merge, 0.25)):
            est.initialize_time(muscle, t)
        done, running, pending = MuscleSpan(0.0), MuscleSpan(0.5), MuscleSpan()
        done.end = 0.5
        adg = ADG()
        s = done.add_to(adg, split, est, [], "split")
        w1 = running.add_to(adg, work, est, [s], "execute")
        w2 = pending.add_to(adg, work, est, [s], "execute")
        w3 = adg.add_muscle(work, est, [s], "execute")  # estimate only
        m = adg.add_muscle(merge, est, [w1, w2, w3], "merge")
        bare = adg.add("by hand", 1.0, preds=[m])
        return adg, est, (split, work, merge), (s, w1, w2, w3, m, bare)

    def test_unfinished_rows_take_the_estimate_and_are_touched(self):
        adg, _est, (_split, work, _merge), (s, w1, w2, w3, m, bare) = self.build()
        rev = adg.rev
        assert adg.retime(work.uid, 1.5) == 3
        assert [adg.activity(a).duration for a in (w1, w2, w3)] == [1.5] * 3
        assert adg.activity(w1).start == 0.5 and adg.activity(w1).end is None
        delta = adg.delta_since(rev)
        assert not delta.structural and delta.touched == (w1, w2, w3)
        # Source estimates move with the durations they back.
        sources = adg.span_sources()
        assert sources[w1][1] == sources[w2][1] == 1.5
        assert w3 not in sources
        # Other muscles and the hand-built row are left alone.
        assert adg.activity(m).duration == 0.25
        assert adg.activity(bare).duration == 1.0 and adg.activity(bare).muscle is None
        # Same value again: nothing moves, nothing is touched.
        rev = adg.rev
        assert adg.retime(work.uid, 1.5) == 0 and adg.rev == rev

    def test_finished_row_keeps_its_actual_but_its_source_estimate_moves(self):
        adg, est, (split, _work, _merge), (s, *_rest) = self.build()
        rev = adg.rev
        assert adg.retime(split.uid, 0.75) == 0
        assert adg.activity(s).duration == 0.5 and adg.rev == rev
        # A fresh walk records the current estimate beside every source.
        assert adg.span_sources()[s][1] == 0.75

    def test_retime_then_refresh_lands_the_actual_of_a_span_that_closed(self):
        adg, _est, (_split, work, _merge), (s, w1, w2, *_rest) = self.build()
        running = adg.span_sources()[w1][0]
        running.end = 2.0  # closes in the window its estimate moves
        adg.retime(work.uid, 1.5)
        refresh_from_sources(adg)
        assert adg.activity(w1).duration == 1.5 and adg.activity(w1).end == 2.0
        assert adg.activity(w2).duration == 1.5  # still pending: the estimate

    def test_unknown_muscle_is_a_no_op(self):
        adg, *_ = self.build()
        rev = adg.rev
        assert adg.retime(-1, 9.0) == 0 and adg.rev == rev

    def test_replay_checks_the_muscle(self):
        """Same name, role and predecessors, another muscle: the replayed
        projection is not what the graph holds."""
        est = EstimatorRegistry()
        one, other = Execute(lambda v: v, name="f"), Execute(lambda v: v, name="f")
        for muscle in (one, other):
            est.initialize_time(muscle, 1.0)
        adg = ADG()
        adg.add_muscle(one, est, [], "execute")
        assert adg.replay((0, 1, ()), lambda preds: adg.add_muscle(one, est, preds, "execute"))
        assert not adg.replay(
            (0, 1, ()), lambda preds: adg.add_muscle(other, est, preds, "execute")
        )


@pytest.mark.service_stress
class TestRetimeInTheEngine:
    def test_retime_then_bind_then_refresh(self, monkeypatch):
        """A nested map under a moving cost: inner maps start (bind) in
        windows in which ``t(m)`` of their muscles moved (retime) and
        spans closed (refresh).  A bind compares estimated durations and
        a closed span must end with its actual, so the order is retime,
        bind, refresh — and then no window needs a walk."""
        order = []
        retime, bind, refresh = (
            ADG.retime,
            engine_module.rebind,
            engine_module.refresh_from_sources,
        )
        monkeypatch.setattr(
            ADG, "retime", lambda *a: order.append("t") or retime(*a)
        )
        monkeypatch.setattr(
            engine_module, "rebind", lambda *a: order.append("b") or bind(*a)
        )
        monkeypatch.setattr(
            engine_module,
            "refresh_from_sources",
            lambda *a: order.append("f") or refresh(*a),
        )
        # Two workers for four inner maps: the later ones start while
        # earlier ones' muscles complete (a bind before the retime would
        # find stale durations and cost two more walks here).
        program, analyzer = warm_nested_map_analyzer(4, 3)
        platform = jittered_sim(parallelism=2)
        checker = _PatchPathChecker(analyzer, platform)
        platform.add_listener(analyzer)
        platform.add_listener(checker)
        run(program, 3, platform)
        stats = analyzer.plan.cache.stats
        assert stats.projection_passes == 1 and stats.table_compiles == 1
        assert stats.projection_patches == checker.checked - 1
        # One window per patch: retimes ("t"), binds ("b"), the refresh.
        windows = "".join(order).split("f")[:-1]
        assert len(windows) == stats.projection_patches
        assert all(w == "t" * w.count("t") + "b" * w.count("b") for w in windows)
        assert any("t" in w and "b" in w for w in windows)

    def test_card_drift_patches_within_an_integer_and_walks_across_one(self):
        """A not-yet-started While projected from ``|fc|``: moving the
        estimate inside one integer reading is a retime of zero rows,
        crossing one reshapes the projection and walks."""
        again = Condition(lambda v: False, name="again")
        program = Pipe(map_program(6), While(again, Seq(Execute(lambda v: v, name="body"))))
        analyzer = ExecutionAnalyzer(qos=QoS.wall_clock(60.0), skeleton=program)
        analyzer.initialize_estimates(
            program,
            snapshot_from_names(
                program,
                times={n: 1.0 for n in ("split", "work", "merge", "again", "body")},
                cards={"split": 6.0, "again": 2.2},
            ),
        )
        est = analyzer.estimators
        platform = timed_sim()
        checker = _PatchPathChecker(analyzer, platform)
        walks, sizes = [], []

        class Nudge(Listener):
            def on_event(self, event):
                if is_analysis_point(event) and checker.checked in (2, 4):
                    est.initialize_card(again, 2.6 if checker.checked == 2 else 3.2)
                return event.value

        class Record(Listener):
            def on_event(self, event):
                if is_analysis_point(event) and analyzer.ready():
                    walks.append(analyzer.plan.cache.stats.projection_passes)
                    sizes.append(
                        len(analyzer.plan.projection(platform.now(), analyzer.unfinished_roots()))
                    )
                return event.value

        for listener in (analyzer, Nudge(), checker, Record()):
            platform.add_listener(listener)
        run(program, 3, platform)
        # 2.2 -> 2.6 at the third analysis: patched; 2.6 -> 3.2 at the
        # fifth: one more (condition, body) pair, by a walk.
        assert walks[:6] == [1, 1, 1, 1, 2, 2]
        assert sizes[4] == sizes[3] + 2


    def test_an_if_branch_picked_by_estimated_work_walks(self):
        """The one place a projection's shape reads ``t(m)``: an
        undecided If projects its heavier branch, so a moved estimate
        can swap branches — such a graph is re-walked, never retimed."""
        heavy = Seq(Execute(lambda v: v, name="heavy"))
        light = Seq(Execute(lambda v: v, name="light"))
        program = Pipe(map_program(6), If(lambda v: True, heavy, light))
        analyzer = ExecutionAnalyzer(
            qos=QoS.wall_clock(60.0), skeleton=program, extensions=True
        )
        times = {n: 1.0 for n in ("split", "work", "merge", "light")}
        times[program.stages[1].condition.name] = 1.0
        analyzer.initialize_estimates(
            program,
            snapshot_from_names(program, times={**times, "heavy": 2.0}, cards={"split": 6.0}),
        )
        platform = timed_sim()
        checker = _PatchPathChecker(analyzer, platform)
        names = []

        class Nudge(Listener):
            def on_event(self, event):
                if is_analysis_point(event) and checker.checked == 2:
                    analyzer.estimators.initialize_time(light.execute, 3.0)
                return event.value

        class Record(Listener):
            def on_event(self, event):
                if is_analysis_point(event) and analyzer.ready():
                    adg = analyzer.plan.projection(
                        platform.now(), analyzer.unfinished_roots()
                    )
                    names.append({a.name for a in adg} & {"heavy", "light"})
                return event.value

        for listener in (analyzer, Nudge(), checker, Record()):
            platform.add_listener(listener)
        run(program, 3, platform)
        assert names[:4] == [{"heavy"}, {"heavy"}, {"light"}, {"light"}]
        assert analyzer.plan.cache.stats.projection_passes >= 2


@pytest.mark.service_stress
class TestRetimeWorkCounters:
    def run_twitter(self, cache):
        app = TwitterCountApp()
        corpus = TweetCorpusGenerator(seed=11).corpus(400)
        platform = SimulatedPlatform(
            parallelism=1, cost_model=app.cost_model(), max_parallelism=24
        )
        controller = AutonomicController(
            platform, app.skeleton, qos=QoS.wall_clock(9.5, max_lp=24)
        )
        controller.analyzer.plan.cache = cache
        assert run(app.skeleton, corpus, platform) == app.reference_count(corpus)
        decisions = [
            (d.time, d.trigger, d.lp_before, d.lp_after, d.action, d.wct_current_lp)
            for d in controller.decisions
        ]
        return decisions, cache.stats, platform.now()

    def test_a_learning_twitter_run_walks_once(self):
        """The paper's cold-start scenario: every muscle completion
        moves a ``t(m)``, and the one walk is the first analysis.  The
        ``PlanCache(maxsize=0)`` baseline walks at every one, patches
        nothing and decides the same."""
        decisions, stats, makespan = self.run_twitter(PlanCache())
        walked, walked_stats, walked_makespan = self.run_twitter(
            PlanCache(maxsize=0)
        )
        assert len(decisions) >= 10 and decisions == walked
        assert makespan == walked_makespan
        assert stats.projection_passes == 1 and stats.table_compiles == 1
        assert stats.projection_patches == len(decisions) - 1
        assert walked_stats.projection_passes >= len(decisions)
        assert walked_stats.projection_patches == 0
        assert walked_stats.pin_patches == 0
        assert walked_stats.table_patches == 0


# ---------------------------------------------------------------------------
# compiled_pin_delta


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


class TestCompiledPinDelta:
    """The delta re-pin against a full pin of the refreshed table, and
    against the reference ``pin_actuals`` of the graph."""

    def check(self, adg, table, now, base, touched):
        table.refresh(adg, touched)
        patched = compiled_pin_delta(table, now, base, touched)
        assert_pinned_bases_equal(compiled_pin(table, now), patched)
        assert_compiled_pinned_equal(patched, pin_actuals(adg, now))
        return patched

    def test_advancing_now_matches_full_pin(self):
        adg, _ids = staged_adg()
        table = PlanTable.compile(adg)
        base = compiled_pin(table, 2.0)
        for now in (2.5, 3.0, 4.5):
            base = self.check(adg, table, now, base, touched=())

    def test_touched_transitions_match_full_pin(self):
        adg, (a, b, c, d, e, f) = staged_adg()
        table = PlanTable.compile(adg)
        base = compiled_pin(table, 2.0)
        # c finishes, d starts running.
        assert adg.update_activity(c, 1.0, 3.5, 2.5)
        assert adg.update_activity(d, 3.0, None, 1.5)
        patched = self.check(adg, table, 4.0, base, touched=(c, d))
        # And the patched base seeds identical frontier schedules.
        _cp, prio = compiled_critical_path(table)
        for lp in (1, 2, 3):
            assert_compiled_schedule_equal(
                compiled_schedule_pending(table, 4.0, lp, patched, prio),
                limited_lp_schedule(adg, 4.0, lp),
            )

    def test_everything_finished_matches(self):
        adg, ids = staged_adg()
        table = PlanTable.compile(adg)
        base = compiled_pin(table, 2.0)
        times = {ids[2]: (1.0, 3.0), ids[3]: (3.0, 4.5), ids[4]: (3.0, 4.0),
                 ids[5]: (4.5, 5.0)}
        for aid, (s, e) in times.items():
            adg.update_activity(aid, s, e, e - s)
        patched = self.check(adg, table, 6.0, base, touched=tuple(times))
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
                        token, table, rec = analyzer.plan._resolve(report.adg)
                        pair = analyzer.plan._critical_path_compiled(
                            token, table, rec
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
