"""The listener side of the event path pays only for events that carry
information: readiness is an edge, a control marker is one table lookup,
a graph with nothing pending is not scheduled.

The numbers pinned here (806 events, 400 markers, 203 analysis points,
<= 2 ``analyze`` calls on a cold 200-wide map) are the ones README's
"What an event costs" quotes for the ``event_flood`` workload.
"""

import itertools

import pytest

from repro import (
    AutonomicController,
    DivideAndConquer,
    EventRecorder,
    Execute,
    Farm,
    For,
    Fork,
    If,
    Map,
    Merge,
    Pipe,
    QoS,
    Seq,
    SimulatedPlatform,
    Split,
    While,
)
from repro.core.analysis import ExecutionAnalyzer, is_analysis_point
from repro.core.estimator import EstimatorRegistry
from repro.core.persistence import snapshot_from_names
from repro.core.planning import PlanCache
from repro.core.planning import engine as engine_module
from repro.core.schedule import best_effort_schedule, limited_lp_schedule
from repro.core.statemachines import MACHINE_TYPES, MachineRegistry
from repro.core.statemachines.base import NOOP, REBIND, SPAN, STRUCTURAL
from repro.events.bus import Listener
from repro.events.types import Event, When, Where
from repro.runtime.costmodel import ConstantCostModel
from repro.runtime.interpreter import submit

pytestmark = pytest.mark.service_stress

WIDTH = 200


def wide_map(width=WIDTH):
    return Map(
        Split(lambda v, w=width: [v + i for i in range(w)], name="fs"),
        Seq(Execute(lambda v: v + 1, name="fe")),
        Merge(sum, name="fm"),
    )


def flood_platform():
    """The ``event_flood`` platform: zero-cost muscles, 4 of 8 workers."""
    return SimulatedPlatform(parallelism=4, max_parallelism=8)


def timed_platform(parallelism=2):
    return SimulatedPlatform(
        parallelism=parallelism, cost_model=ConstantCostModel(1.0), max_parallelism=8
    )


def recorded_run(program, value=0, platform=None):
    """Every event of one run of *program*, in publication order."""
    platform = platform or timed_platform()
    recorder = EventRecorder()
    platform.add_listener(recorder)
    submit(program, value, platform).get()
    return recorder.events


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# ---------------------------------------------------------------------------
# (a) the cold gate


class TestColdGate:
    def test_cold_flood_enters_analyze_at_most_twice(self, monkeypatch):
        entered = count_calls(monkeypatch, ExecutionAnalyzer, "analyze")
        platform = flood_platform()
        recorder = EventRecorder()
        platform.add_listener(recorder)
        controller = AutonomicController(platform, qos=QoS.wall_clock(1000.0, max_lp=8))
        program = wide_map()
        assert submit(program, 1, platform).get() == sum(range(2, WIDTH + 2))

        events = recorder.events
        assert len(events) == 806
        assert sum(e.where is Where.NESTED for e in events) == 400
        assert sum(map(is_analysis_point, events)) == 203
        assert len(entered) <= 2  # 203 before readiness became an edge

        (decision,) = controller.decisions
        assert decision.trigger == "map@am"
        assert (decision.lp_before, decision.lp_after, decision.action) == (4, 2, "decrease")
        assert decision.wct_best_effort == decision.wct_current_lp == 0.0
        assert decision.optimal_lp == 0

    def test_cold_answer_touches_no_lock_and_no_root_list(self, monkeypatch):
        """The service side: a cold tenant's ``analyze`` is the predicate."""
        events = recorded_run(wide_map(4))
        analyzer = ExecutionAnalyzer()
        for event in events[:6]:  # split done, children starting: fm unseen
            analyzer.observe(event)
        assert analyzer.cold
        listed = count_calls(monkeypatch, MachineRegistry, "unfinished_roots")
        walked = count_calls(monkeypatch, ExecutionAnalyzer, "ready")
        for _ in range(3):
            assert analyzer.analyze(1.0) is None
        assert not listed and not walked

    def test_ready_for_rechecks_only_the_missing_estimate(self):
        program = wide_map(4)
        est = EstimatorRegistry()
        assert not est.ready_for(program)
        looked = []

        class Spy(dict):
            def get(self, key, default=None):
                looked.append(key)
                return super().get(key, default)

        est._time = Spy(est._time)
        est._readiness.clear()  # the flattened needs captured the old table
        assert not est.ready_for(program)  # full scan finds the first gap
        del looked[:]
        for _ in range(5):
            assert not est.ready_for(program)
        assert looked == [program.split.uid] * 5
        est.observe_time(program.split, 1.0)
        assert not est.ready_for(program)  # arrived: look again, next gap
        del looked[:]
        assert not est.ready_for(program)
        (gap,) = looked
        assert gap != program.split.uid


# ---------------------------------------------------------------------------
# (b) the gate opens on the edge


class _InitializeAt(Listener):
    """Initializes one estimator *directly* (no version bump) when the
    n-th analysis point passes; registered ahead of the controller."""

    def __init__(self, nth, action):
        self.nth = nth
        self.action = action
        self.seen = 0
        self.label = None

    def on_event(self, event):
        if is_analysis_point(event):
            self.seen += 1
            if self.seen == self.nth:
                self.action()
                self.label = (event.label, event.timestamp)
        return event.value


class TestGateOpensOnTheEdge:
    def test_direct_time_initialize_opens_the_gate_at_the_next_point(self):
        platform = timed_platform()
        program = wide_map(4)
        trip = _InitializeAt(3, lambda: est.time_estimator(program.merge).initialize(1.0))
        platform.add_listener(trip)  # fires at the third point: split, seq, *seq*
        controller = AutonomicController(platform, qos=QoS.wall_clock(100.0, max_lp=8))
        est = controller.estimators
        submit(program, 0, platform).get()
        first = controller.decisions[0]
        # The controller sees the event the initializer saw, right after it.
        assert (first.trigger, first.time) == trip.label
        assert first.trigger == "seq@a"

    def test_without_it_the_first_analysis_waits_for_the_merge(self):
        platform = timed_platform()
        controller = AutonomicController(platform, qos=QoS.wall_clock(100.0, max_lp=8))
        submit(wide_map(4), 0, platform).get()
        assert controller.decisions[0].trigger == "map@am"

    def test_direct_card_initialize_opens_the_gate(self):
        program = wide_map(4)
        events = recorded_run(program)
        analyzer = ExecutionAnalyzer()
        for muscle in program.muscles():
            analyzer.estimators.initialize_time(muscle, 1.0)
        analyzer.observe(events[0])  # map@b: the root is live, |fs| unknown
        assert analyzer.cold and analyzer.analyze(0.0) is None
        version = analyzer.estimators.version
        analyzer.estimators.card_estimator(program.split).initialize(4.0)
        assert analyzer.estimators.version == version
        assert not analyzer.cold
        assert analyzer.analyze(0.0) is not None

    def test_warm_start_analyzes_at_its_first_point(self):
        """Paper scenario 2: initialized estimates, no waiting."""
        platform = timed_platform()
        program = wide_map(4)
        controller = AutonomicController(platform, qos=QoS.wall_clock(100.0, max_lp=8))
        controller.initialize_estimates(
            program,
            snapshot_from_names(
                program, times={"fs": 1.0, "fe": 1.0, "fm": 1.0}, cards={"fs": 4.0}
            ),
        )
        submit(program, 0, platform).get()
        first = controller.decisions[0]
        assert (first.trigger, first.time) == ("map@as", 1.0)

    def test_a_finished_cold_root_does_not_hold_the_gate_shut(self):
        events = recorded_run(Seq(Execute(lambda v: v, name="solo")))
        analyzer = ExecutionAnalyzer()
        analyzer.observe(events[0])
        assert analyzer.cold
        analyzer.observe(events[1])  # seq@a: warm *and* finished
        assert not analyzer.cold
        assert analyzer.analyze(2.0) is None  # nothing live, the full path says so


# ---------------------------------------------------------------------------
# (c) one classification table


def reference_classify(estimators, machine, event):
    """``MachineRegistry._classify`` as it stood before the table."""
    where = event.where
    if where is Where.NESTED:
        return NOOP
    if event.when is When.BEFORE:
        if where is Where.CONDITION and machine.kind == "while":
            return STRUCTURAL
        return SPAN
    if where is Where.MERGE:
        return SPAN
    if where is Where.SKELETON:
        if machine.parent_index is None:
            return STRUCTURAL
        return SPAN if machine.kind == "seq" else REBIND
    if where is Where.SPLIT:
        card = event.extra.get("fs_card")
        if card is None or machine.kind == "fork":
            return REBIND
        split = machine.skel.split
        if estimators.has_card(split) and estimators.card_int(split) == card:
            return REBIND
    return STRUCTURAL


def table_classify(machine, event):
    change = machine._table[event.when.value, event.where.value][1]
    return change if isinstance(change, int) else change(machine, event)


def one_of_each_kind():
    leaf = Seq(Execute(lambda v: v, name="fe"))
    split = Split(lambda v: [v, v], name="fs")
    merge = Merge(sum, name="fm")
    return {
        "seq": leaf,
        "farm": Farm(leaf),
        "pipe": Pipe(leaf, Seq(Execute(lambda v: v, name="g"))),
        "while": While(lambda v: False, leaf),
        "for": For(2, leaf),
        "map": Map(split, leaf, merge),
        "fork": Fork(split, [leaf, leaf], merge),
        "if": If(lambda v: True, leaf, leaf),
        "dac": DivideAndConquer(lambda v: False, split, leaf, merge),
    }


def ev(skel, index, when, where, ts=0.0, parent=None, **extra):
    return Event(
        skeleton=skel, kind=skel.kind, when=when, where=where,
        index=index, parent_index=parent, value=None, timestamp=ts, extra=extra,
    )


class TestClassificationTable:
    def test_equals_the_old_classify_for_every_kind_and_event(self):
        skeletons = one_of_each_kind()
        assert set(skeletons) == set(MACHINE_TYPES)
        checked = 0
        for kind, skel in skeletons.items():
            for parent in (None, 0):
                # |fs| absent, equal to the event's, different from it
                for known_card in (None, 2.0, 5.0):
                    est = EstimatorRegistry()
                    if known_card is not None and hasattr(skel, "split"):
                        est.initialize_card(skel.split, known_card)
                    machine = MACHINE_TYPES[kind](skel, 1, parent, est)
                    for when, where in itertools.product(When, Where):
                        extras = [{}]
                        if where is Where.SPLIT and hasattr(skel, "split"):
                            extras.append({"fs_card": 2})
                        for extra in extras:
                            event = ev(skel, 1, when, where, parent=parent, **extra)
                            assert table_classify(machine, event) == reference_classify(
                                est, machine, event
                            ), (kind, parent, known_card, when, where, extra)
                            checked += 1
        assert checked == 9 * 2 * 3 * 10 + 3 * 2 * 3 * 2  # + the fs_card rows

    def test_the_data_dependent_rows_by_name(self):
        skeletons = one_of_each_kind()
        est = EstimatorRegistry()
        a_map = MACHINE_TYPES["map"](skeletons["map"], 1, None, est)
        after_split = ev(skeletons["map"], 1, When.AFTER, Where.SPLIT, fs_card=2)
        assert table_classify(a_map, after_split) == STRUCTURAL  # |fs| absent
        est.initialize_card(skeletons["map"].split, 2.0)
        assert table_classify(a_map, after_split) == REBIND  # as projected
        est.initialize_card(skeletons["map"].split, 3.0)
        assert table_classify(a_map, after_split) == STRUCTURAL  # another fan-out
        a_fork = MACHINE_TYPES["fork"](skeletons["fork"], 2, None, est)
        assert table_classify(
            a_fork, ev(skeletons["fork"], 2, When.AFTER, Where.SPLIT, fs_card=9)
        ) == REBIND
        a_while = MACHINE_TYPES["while"](skeletons["while"], 3, None, est)
        assert table_classify(
            a_while, ev(skeletons["while"], 3, When.BEFORE, Where.CONDITION)
        ) == STRUCTURAL
        for kind, nested in (("seq", SPAN), ("map", REBIND), ("while", REBIND)):
            skel = skeletons[kind]
            done = ev(skel, 4, When.AFTER, Where.SKELETON)
            assert table_classify(MACHINE_TYPES[kind](skel, 4, None, est), done) == STRUCTURAL
            assert table_classify(MACHINE_TYPES[kind](skel, 4, 0, est), done) == nested

    def test_created_on_this_event(self):
        skel = one_of_each_kind()["map"]
        registry = MachineRegistry(EstimatorRegistry())
        registry.on_event(ev(skel, 0, When.BEFORE, Where.SKELETON))
        assert registry.delta_since(0).structural  # a new root
        rev = registry.rev
        child = ev(skel.subskel, 1, When.BEFORE, Where.SKELETON, parent=0)
        registry.on_event(child)
        delta = registry.delta_since(rev)
        assert not delta.structural and delta.attached == (1,) and delta.touched == (1,)
        assert registry.machine(1).started_at == 0.0

    def test_markers_bump_the_revision_and_nothing_else(self):
        skel = one_of_each_kind()["map"]
        registry = MachineRegistry(EstimatorRegistry())
        registry.on_event(ev(skel, 0, When.BEFORE, Where.SKELETON))
        rev = registry.rev
        markers = [ev(skel, 0, When.BEFORE, Where.NESTED, child=j) for j in range(5)]
        registry.on_batch(markers)
        registry.on_event(ev(skel, 0, When.AFTER, Where.NESTED, child=0))
        assert registry.rev == rev + 6
        delta = registry.delta_since(rev)
        assert not delta.structural and delta.touched == () and delta.attached == ()

    def test_a_marker_that_is_first_sight_still_creates_its_machine(self):
        skel = one_of_each_kind()["map"]
        registry = MachineRegistry(EstimatorRegistry())
        registry.on_event(ev(skel, 7, When.BEFORE, Where.NESTED, ts=3.0, child=0))
        machine = registry.machine(7)
        assert machine is not None and machine.started_at == 3.0
        assert registry.roots == [machine]
        assert registry.delta_since(0).structural

    def test_driving_a_machine_by_hand_still_finishes_it(self):
        skel = one_of_each_kind()["map"]
        machine = MACHINE_TYPES["map"](skel, 0, None, EstimatorRegistry())
        machine.on_event(ev(skel, 0, When.BEFORE, Where.SKELETON, ts=1.0))
        machine.on_event(ev(skel, 0, When.AFTER, Where.SKELETON, ts=4.0))
        assert (machine.started_at, machine.finished_at) == (1.0, 4.0)


# ---------------------------------------------------------------------------
# (d) nothing pending, nothing scheduled


def analyzer_after(events, upto, plan_cache=None):
    """An analyzer that has seen *events* up to and including the first
    one labelled *upto*; returns it with that event's timestamp."""
    analyzer = ExecutionAnalyzer(plan_cache=plan_cache)
    for event in events:
        analyzer.observe(event)
        if event.label == upto:
            return analyzer, event.timestamp
    raise AssertionError(f"no {upto} event")


class TestSettledGraph:
    @pytest.mark.parametrize("upto", ["map@am", "map@bm"])
    def test_no_schedule_pass_and_no_priority_sweep(self, monkeypatch, upto):
        """``map@am``: every row finished.  ``map@bm``: the merge runs,
        nothing is pending either."""
        sweeps = count_calls(monkeypatch, engine_module, "compiled_critical_path")
        events = recorded_run(wide_map(40), platform=timed_platform(4))
        cache = PlanCache()
        analyzer, now = analyzer_after(events, upto, plan_cache=cache)
        baseline, _ = analyzer_after(events, upto, plan_cache=PlanCache(maxsize=0))
        if upto == "map@bm":
            # The merge estimate a first run lacks until the merge ends.
            for a in (analyzer, baseline):
                a.estimators.time_estimator(a.machines.roots[0].skel.merge).initialize(1.0)
        report = analyzer.analyze(now, current_lp=4)
        reference = baseline.analyze(now, current_lp=4)
        assert report is not None and reference is not None
        half = report.wct_at(2)
        assert cache.stats.schedule_passes == 0
        assert not sweeps
        fields = ("wct_best_effort", "wct_current_lp", "optimal_lp", "deadline", "time")
        for name in fields:
            assert getattr(report, name) == getattr(reference, name), name
        assert half == reference.wct_at(2)
        # ... and the reference algorithms of the paper's section 4 agree.
        oracle = best_effort_schedule(report.adg, now)
        assert report.wct_best_effort == oracle.wct
        assert report.optimal_lp == oracle.peak(from_time=now)
        assert report.wct_current_lp == limited_lp_schedule(report.adg, now, 4).wct
        assert half == limited_lp_schedule(report.adg, now, 2).wct

    def test_a_pending_row_still_schedules(self):
        events = recorded_run(wide_map(8), platform=timed_platform(2))
        first = ExecutionAnalyzer()
        for event in events:
            first.observe(event)
        cache = PlanCache()
        analyzer = ExecutionAnalyzer(estimators=first.estimators, plan_cache=cache)
        seen = 0
        for event in events:
            analyzer.observe(event)
            seen += event.label == "seq@a"
            if seen == 3:
                break
        report = analyzer.analyze(event.timestamp, current_lp=2)
        assert report is not None and report.wct_current_lp is not None
        assert cache.stats.schedule_passes == 1
        assert report.wct_best_effort == best_effort_schedule(report.adg, event.timestamp).wct
        assert cache.stats.schedule_passes == 2


# ---------------------------------------------------------------------------
# (e) AutonomicController.on_batch == per-event delivery


def controller_pair():
    def one():
        platform = timed_platform(4)
        return AutonomicController(platform, qos=QoS.wall_clock(5.0, max_lp=8))

    return one(), one()


def state_of(controller):
    est = controller.estimators
    return (
        controller.machines.rev,
        est.version,
        sorted((uid, e.value) for uid, e in est._time.items()),
        sorted((uid, e.value) for uid, e in est._card.items()),
        controller.decisions,
        len(controller.machines),
    )


class TestControllerBatch:
    def test_a_marker_batch_is_one_registry_delivery(self, monkeypatch):
        events = recorded_run(wide_map(12))
        markers = [e for e in events if e.when is When.BEFORE and e.where is Where.NESTED]
        assert len(markers) == 12
        head = events[: events.index(markers[0])]
        per_event, batched = controller_pair()
        for event in head:
            per_event.on_event(event)
            batched.on_event(event)
        for event in markers:
            per_event.on_event(event)
        deliveries = count_calls(monkeypatch, MachineRegistry, "on_batch")
        batched.on_batch(markers)
        assert len(deliveries) == 1
        assert state_of(batched) == state_of(per_event)
        assert batched.machines.rev == len(head) + 12

    def test_a_batch_with_an_analysis_point_falls_back_to_per_event(self):
        program = wide_map(6)
        events = recorded_run(program)
        per_event, batched = controller_pair()
        snapshot = snapshot_from_names(
            program, times={"fs": 1.0, "fe": 1.0, "fm": 1.0}, cards={"fs": 6.0}
        )
        for controller in (per_event, batched):
            controller.initialize_estimates(program, snapshot)
        for event in events:
            per_event.on_event(event)
        chunks = [events[i:i + 5] for i in range(0, len(events), 5)]
        assert any(any(map(is_analysis_point, chunk)) for chunk in chunks)
        for chunk in chunks:
            batched.on_batch(chunk)
        assert per_event.decisions  # the warm run decided something
        assert state_of(batched) == state_of(per_event)

    def test_the_bus_hands_the_controller_its_marker_batch(self, monkeypatch):
        batches = count_calls(monkeypatch, AutonomicController, "on_batch")
        platform = flood_platform()
        AutonomicController(platform, qos=QoS.wall_clock(1000.0, max_lp=8))
        submit(wide_map(20), 0, platform).get()
        assert len(batches) == 1
