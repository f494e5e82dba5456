"""The delta re-pin walks only the rows that can move.

``compiled_pin_delta`` advances a pinned base across a non-structural
window from the base's own ``running`` and ``frontier`` rows plus the rows
the window touched, instead of rescanning the table.  Over generated
tables and windows — starts, finishes, retimes of running and pending
rows, and a ``now`` that moves either way — it must give what a full
``compiled_pin`` of the refreshed table gives: the same columns bit for
bit, the same floor, the same running and frontier rows, ``busy`` and
``ready_items`` equal as multisets, and the same frontier schedule at
every LP.
"""

from hypothesis import given, strategies as st

from repro.core.adg import ADG
from repro.core.planning.table import (
    PENDING,
    RUNNING,
    PlanTable,
    compiled_critical_path,
    compiled_pin,
    compiled_pin_delta,
    compiled_schedule_pending,
)
from tests.core.test_plan_engine import warm_map_analyzer

#: Durations around the scheduling epsilon (1e-9) as well as ordinary ones:
#: the floor only counts rows longer than it.
durations = st.one_of(
    st.sampled_from([0.0, 5e-10, 1e-9, 2e-9]),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)
instants = st.floats(0.0, 30.0, allow_nan=False, allow_infinity=False)


@st.composite
def staged_graphs(draw, max_nodes=14):
    """A random DAG mid-flight: a dependency-closed finished/running
    history over pending activities (edges only point forward)."""
    n = draw(st.integers(1, max_nodes))
    adg = ADG()
    for i in range(n):
        preds = []
        if i:
            preds = draw(
                st.lists(st.integers(0, i - 1), unique=True, max_size=min(i, 3))
            )
        adg.add(f"a{i}", draw(durations), preds)
    for act in adg.activities:
        if not all(adg.activity(p).end is not None for p in act.preds):
            continue
        fate = draw(st.sampled_from(("pending", "running", "finished")))
        if fate == "pending":
            continue
        start = max([0.0] + [adg.activity(p).end for p in act.preds])
        start += draw(st.floats(0.0, 2.0))
        end = None
        if fate == "finished":
            end = start + draw(durations)
        adg.update_activity(
            act.id, start, end, act.duration if end is None else end - start
        )
    return adg


def draw_now(data, adg):
    """A new *now*, ahead of or behind the old one — sometimes exactly an
    end or a start, where a ready time equals *now* and the floor counts."""
    marks = [0.0]
    for act in adg.activities:
        if act.start is not None:
            marks.append(act.start)
            marks.append(act.end if act.end is not None else act.start + act.duration)
    return data.draw(st.one_of(instants, st.sampled_from(marks)))


def draw_window(data, adg):
    """Apply up to four in-place updates to *adg*; returns the ids touched."""
    touched = set()
    for _ in range(data.draw(st.integers(0, 4))):
        acts = adg.activities
        ready = [
            a.id
            for a in acts
            if a.start is None
            and all(adg.activity(p).end is not None for p in a.preds)
        ]
        running = [a.id for a in acts if a.start is not None and a.end is None]
        pending = [a.id for a in acts if a.start is None]
        ops = []
        if ready:
            ops.append("start")
        if running:
            ops.append("finish")
        if running or pending:
            ops.append("retime")
        if not ops:
            break
        op = data.draw(st.sampled_from(ops))
        if op == "start":
            aid = data.draw(st.sampled_from(ready))
            act = adg.activity(aid)
            changed = adg.update_activity(aid, data.draw(instants), None, act.duration)
        elif op == "finish":
            aid = data.draw(st.sampled_from(running))
            act = adg.activity(aid)
            end = act.start + data.draw(durations)
            changed = adg.update_activity(aid, act.start, end, end - act.start)
        else:
            aid = data.draw(st.sampled_from(running + pending))
            act = adg.activity(aid)
            changed = adg.update_activity(aid, act.start, None, data.draw(durations))
        if changed:
            touched.add(aid)
    return touched


def assert_delta_equals_full(delta, full) -> None:
    assert delta.now == full.now
    assert delta.ends.tobytes() == full.ends.tobytes()
    assert delta.pp.tobytes() == full.pp.tobytes()
    assert delta.state.tobytes() == full.state.tobytes()
    assert delta.to_schedule == full.to_schedule
    assert delta.peak_floor == full.peak_floor
    assert set(delta.running) == set(full.running)
    assert set(delta.frontier) == set(full.frontier)
    assert sorted(delta.busy) == sorted(full.busy)
    assert sorted(delta.ready_items) == sorted(full.ready_items)


def assert_rows_are_what_they_say(base) -> None:
    """``running`` and ``frontier`` are, in index order, the running rows
    and the unpinned rows with no unpinned predecessor."""
    n = len(base.pp)
    assert base.running == [i for i in range(n) if base.state[i] == RUNNING]
    assert base.frontier == [i for i in range(n) if base.pp[i] == 0]
    assert all(base.state[i] == PENDING for i in base.frontier)
    assert sorted(base.busy) == sorted(base.ends[i] for i in base.running)
    assert [aid for _r, aid in base.ready_items] == base.frontier


def assert_same_frontier_schedules(table, now, delta, full) -> None:
    prio = compiled_critical_path(table)[1]
    for lp in (1, 2, 3, 4):
        ours = compiled_schedule_pending(table, now, lp, delta, prio)
        theirs = compiled_schedule_pending(table, now, lp, full, prio)
        assert ours._starts.tobytes() == theirs._starts.tobytes()
        assert ours._ends.tobytes() == theirs._ends.tobytes()


class TestDeltaEqualsFullPin:
    @given(staged_graphs(), st.data())
    def test_generated_windows(self, adg, data):
        table = PlanTable.compile(adg)
        base = compiled_pin(table, draw_now(data, adg))
        assert_rows_are_what_they_say(base)
        for _window in range(data.draw(st.integers(1, 4))):
            touched = draw_window(data, adg)
            now = draw_now(data, adg)
            table.refresh(adg, touched)
            delta = compiled_pin_delta(table, now, base, touched)
            full = compiled_pin(table, now)
            assert_delta_equals_full(delta, full)
            assert_rows_are_what_they_say(delta)
            assert_same_frontier_schedules(table, now, delta, full)
            base = delta

    def test_a_start_releases_its_successors_to_the_frontier(self):
        """A row waits for its *pending* predecessors only: ``d`` is ready
        behind the running ``b``, and ``e`` joins the frontier once ``c``
        starts."""
        adg = ADG()
        a = adg.add("a", 1.0, start=0.0, end=1.0)
        b = adg.add("b", 2.0, preds=[a], start=1.0)
        c = adg.add("c", 2.0, preds=[a])
        d = adg.add("d", 1.5, preds=[b])
        e = adg.add("e", 1.0, preds=[b, c])
        table = PlanTable.compile(adg)
        base = compiled_pin(table, 2.0)
        assert (base.running, base.frontier) == ([b], [c, d])
        assert base.pp[e] == 1
        adg.update_activity(c, 2.0, None, 2.0)
        table.refresh(adg, (c,))
        delta = compiled_pin_delta(table, 2.5, base, (c,))
        assert (delta.running, delta.frontier) == ([b, c], [d, e])
        assert sorted(delta.ready_items) == [(3.0, d), (4.0, e)]
        assert_delta_equals_full(delta, compiled_pin(table, 2.5))
        # b finishing releases nothing: nothing waited for it.
        adg.update_activity(b, 1.0, 3.0, 2.0)
        table.refresh(adg, (b,))
        done = compiled_pin_delta(table, 3.0, delta, (b,))
        assert (done.running, done.frontier) == ([c], [d, e])
        assert_delta_equals_full(done, compiled_pin(table, 3.0))

    def test_a_moving_now_reclamps_the_running_rows(self):
        adg = ADG()
        a = adg.add("a", 1.0)
        b = adg.add("b", 1.0, preds=[a])
        table = PlanTable.compile(adg)
        base = compiled_pin(table, 0.0)
        assert (base.running, base.frontier, base.peak_floor) == ([], [a], 1)
        adg.update_activity(a, 0.5, None, 1.0)
        table.refresh(adg, (a,))
        delta = compiled_pin_delta(table, 1.0, base, (a,))
        assert (delta.running, delta.frontier) == ([a], [b])
        assert list(delta.busy) == [1.5] and delta.ready_items == [(1.5, b)]
        # Past its estimated end the running row ends at now, and b is
        # ready at now: the floor counts b, not a.
        later = compiled_pin_delta(table, 4.0, delta, ())
        assert list(later.busy) == [4.0] and later.ends[a] == 4.0
        assert later.ready_items == [(4.0, b)] and later.peak_floor == 1
        assert_delta_equals_full(later, compiled_pin(table, 4.0))
        # And back: a runs at 0.75 again, b waits for it.
        earlier = compiled_pin_delta(table, 0.75, later, ())
        assert earlier.ready_items == [(1.5, b)] and earlier.peak_floor == 1
        assert_delta_equals_full(earlier, compiled_pin(table, 0.75))


class TestPinnedFresh:
    def test_structural_plan_pins_its_sources_as_the_frontier(self):
        _program, analyzer = warm_map_analyzer(width=3)
        plan = analyzer.plan.structural_plan()
        for now in (0.0, 2.5):
            fresh = plan.pinned_fresh(now)
            full = compiled_pin(plan.table, now)
            assert fresh.running == [] and fresh.frontier == plan.sources
            assert fresh.frontier == full.frontier
            assert_delta_equals_full(fresh, full)
