"""The simulator's indexed ready queue dispatches in the order of one queue.

:class:`~repro.runtime.simulator.SimulatedPlatform` keeps one deque of
ready tasks per execution and starts, on each free core, the task with the
smallest key among the executions below their worker share.  The oracle
here is the dispatch it replaces, kept verbatim: a single deque scanned
from the front on every dispatch, skipping the tasks of executions at
their share and dropping those of failed executions as it passes them.

Generated scenarios run several executions on both platforms under
depth-first and FIFO scheduling, with shares, share and LP changes and
execution failures fired from listeners — at BEFORE events too, which
land in the middle of a dispatch.  The task logs (start, end, core,
label), the ready-queue length at every AFTER event and the outcomes
must be identical.  Standard library only.
"""

import re
from collections import deque

import pytest
from hypothesis import given, strategies as st

from repro import SimulatedPlatform
from repro.events.bus import Listener
from repro.events.types import When
from repro.runtime.costmodel import CallableCostModel, ConstantCostModel
from repro.runtime.interpreter import submit
from repro.runtime.task import Execution
from tests.conftest import build_program, program_descriptions


class ScanOracle(SimulatedPlatform):
    """The dispatch before the ready queue was indexed: one deque,
    scanned from the front on every dispatch."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._ready = deque()

    def _append(self, task):
        self._ready.append(task)

    def _prepend(self, tasks):
        for task in reversed(tasks):
            self._ready.appendleft(task)

    def _dispatch(self):
        skipped = []
        while self._ready:
            task = self._ready.popleft()
            if task.execution.failed:
                continue
            if not self._share_allows(task):
                skipped.append(task)
                continue
            core = self._acquire_core()
            if core is None:
                skipped.append(task)
                break
            self._start_task(task, core)
        while skipped:
            self._ready.appendleft(skipped.pop())

    @property
    def pending_tasks(self):
        return len(self._ready)


def _value_cost(_muscle, value):
    key = sum(value) if isinstance(value, (list, tuple)) else value
    return 1.0 + 0.25 * (key % 3)


class Script(Listener):
    """Fires the scenario's actions at the n-th BEFORE or AFTER event and
    samples the ready-queue length at every AFTER event (never inside a
    dispatch; a muscle's BEFORE event always is)."""

    def __init__(self, platform, executions, actions):
        self.platform = platform
        self.executions = executions
        self.actions = {}
        for when, at, kind, target, value in actions:
            self.actions.setdefault((when, at), []).append((kind, target, value))
        self.seen = {When.BEFORE: 0, When.AFTER: 0}
        self.pending = []

    def on_event(self, event):
        platform = self.platform
        when = event.when
        if when is When.AFTER:
            self.pending.append(platform.pending_tasks)
        at = (when, self.seen[when])
        self.seen[when] += 1
        for kind, target, value in self.actions.get(at, ()):
            execution = self.executions[target % len(self.executions)]
            if kind == "share":
                shares = platform.get_shares()
                if value is None:
                    shares.pop(execution.id, None)
                else:
                    shares[execution.id] = value
                platform.set_shares(shares)
            elif kind == "fail":
                execution.fail(RuntimeError("cancelled"))
            else:
                platform.set_parallelism(value or 1)
        return event.value


def outcome(future):
    try:
        return ("ok", future.get())
    except RuntimeError as exc:
        return ("failed", str(exc))


def play(cls, scenario):
    programs, values, shares, lp, scheduling, jitter, actions = scenario
    platform = cls(
        parallelism=lp,
        cost_model=CallableCostModel(_value_cost) if jitter else ConstantCostModel(1.0),
        max_parallelism=8,
        trace_tasks=True,
        scheduling=scheduling,
    )
    executions = [Execution(platform.new_future()) for _ in programs]
    platform.set_shares(
        {e.id: share for e, share in zip(executions, shares) if share is not None}
    )
    script = Script(platform, executions, actions)
    platform.add_listener(script)
    for desc, value, execution in zip(programs, values, executions):
        submit(build_program(desc), value, platform, execution=execution)
    platform.drain()
    outcomes = [outcome(e.future) for e in executions]
    # Unnamed muscles carry a process-wide uid in their name; each run
    # builds its own programs.
    log = [
        (start, end, core, re.sub(r"#\d+$", "", label))
        for start, end, core, label in platform.task_log
    ]
    return log, script.pending, platform.pending_tasks, outcomes


actions = st.lists(
    st.tuples(
        st.sampled_from([When.BEFORE, When.AFTER]),
        st.integers(0, 40),
        st.sampled_from(["share", "share", "fail", "lp"]),
        st.integers(0, 4),
        st.one_of(st.none(), st.integers(1, 3)),
    ),
    max_size=8,
)

scenarios = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(program_descriptions, min_size=n, max_size=n),
        st.lists(st.integers(0, 50), min_size=n, max_size=n),
        st.lists(st.one_of(st.none(), st.integers(1, 3)), min_size=n, max_size=n),
        st.integers(1, 4),
        st.sampled_from(["depth-first", "fifo"]),
        st.booleans(),
        actions,
    )
)


class TestIndexedQueueKeepsTheScanOrder:
    @given(scenarios)
    def test_same_log_queue_and_outcomes(self, scenario):
        assert play(SimulatedPlatform, scenario) == play(ScanOracle, scenario)

    @staticmethod
    def mid_dispatch(action):
        """Two 4-wide maps on three cores, FIFO: the first at a share of
        one, its leaves 3 s long, the second unlimited, its leaves 1 s.
        When the second map's leaves become ready, the first map's three
        waiting ones are queued ahead of them, passed at their share;
        *action* fires at the second map's first leaf start, in the
        middle of that dispatch.  The next event is the AFTER of a
        1 s leaf, before any other dispatch."""
        logs = []
        for cls in (SimulatedPlatform, ScanOracle):
            platform = cls(
                parallelism=3,
                cost_model=CallableCostModel(
                    lambda muscle, _v: 3.0 if muscle.name == "leaf3" else 1.0
                ),
                max_parallelism=8,
                trace_tasks=True,
                scheduling="fifo",
            )
            first, second = (Execution(platform.new_future()) for _ in "ab")
            platform.set_shares({first.id: 1})
            pending = []

            class Fire(Listener):
                fired = False

                def on_event(self, event):
                    if event.when is When.AFTER:
                        pending.append(platform.pending_tasks)
                    elif (
                        not self.fired
                        and event.execution_id == second.id
                        and event.kind == "seq"
                    ):
                        self.fired = True
                        action(platform, first)
                    return event.value

            platform.add_listener(Fire())
            for leaf, execution in ((3, first), (1, second)):
                program = build_program(("map", 4, ("seq", leaf)))
                submit(program, 1, platform, execution=execution)
            platform.drain()
            logs.append((platform.task_log, pending, outcome(first.future)))
        assert logs[0] == logs[1]
        return logs[0]

    def test_a_share_widened_mid_dispatch_waits_for_the_next_one(self):
        """The first map's passed leaves are behind the scan: the widened
        share lets none of them start before the next dispatch."""
        log, _pending, result = self.mid_dispatch(
            lambda platform, first: platform.set_shares({first.id: 3})
        )
        starts = [(start, label[-5:]) for start, _e, _c, label in log]
        assert starts[2:5] == [(1.0, "leaf3"), (1.0, "leaf1"), (1.0, "leaf1")]
        assert (2.0, "leaf3") in starts and result[0] == "ok"

    def test_a_failure_mid_dispatch_keeps_what_the_scan_passed(self):
        """Failed in the middle of the dispatch, the first map keeps the
        three leaves the scan passed before the failure until the next
        dispatch passes them again."""
        _log, pending, result = self.mid_dispatch(
            lambda platform, first: first.fail(RuntimeError("cancelled"))
        )
        assert result == ("failed", "cancelled")
        assert 5 in pending

    @pytest.mark.parametrize(
        "staged, other, scheduling, grow, action",
        [
            (("map", 2, ("pipe", (("seq", 1), ("map", 2, ("seq", 1))))),
             ("map", 3, ("seq", 1)),
             "depth-first", 0, (When.BEFORE, 22, "fail", 0, None)),
            (("map", 3, ("pipe", (("seq", 2), ("map", 2, ("seq", 1))))),
             ("map", 2, ("seq", 2)),
             "fifo", 12, (When.BEFORE, 29, "share", 0, 3)),
        ],
        ids=["failed", "widened"],
    )
    def test_a_passed_execution_is_scanned_again(
        self, staged, other, scheduling, grow, action
    ):
        """A two-stage map at a share of one is passed at its share, then
        failed, or given a larger share, by another execution's leaf
        start later in the same dispatch (the pool has just grown to
        three cores): the scan keeps the tasks it passed before and
        reaches those that follow."""
        scenario = (
            [staged, other],
            [1, 2],
            [1, None],
            1,
            scheduling,
            False,
            [(When.AFTER, grow, "lp", 0, 3), action],
        )
        assert play(SimulatedPlatform, scenario) == play(ScanOracle, scenario)

    def test_share_capped_failed_and_widened_executions(self):
        """Non-vacuity: three wide maps under shares of one, one of them
        failed and another's share widened mid-dispatch, still agree —
        and the log shows the capped tasks waiting."""
        wide = ("map", 4, ("seq", 1))
        scenario = (
            [wide, wide, wide],
            [1, 2, 3],
            [1, 1, None],
            3,
            "depth-first",
            True,
            [
                (When.AFTER, 2, "share", 0, 2),
                (When.BEFORE, 6, "fail", 1, None),
                (When.AFTER, 9, "share", 2, 1),
            ],
        )
        log, pending, left, outcomes = play(SimulatedPlatform, scenario)
        assert (log, pending, left, outcomes) == play(ScanOracle, scenario)
        assert outcomes[1][0] == "failed" and outcomes[0][0] == "ok"
        assert max(pending) >= 3 and left == 0
