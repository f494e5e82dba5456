"""The ready queue takes in the order of one queue scanned from the front.

:class:`~repro.runtime.readyqueue.ReadyQueue` keeps one deque of entries
per execution and a heap of their head keys.  The oracle here,
:class:`ScanQueue`, is the dispatch it replaced, kept verbatim behind the
same interface: a single deque scanned from the front on every take,
skipping the entries of executions at their share and dropping those of
failed executions as it passes them.  Generated sequences of appends,
prepends, takes, share changes, completions and failures — with start
callbacks that fail executions, widen or narrow shares, append, or refuse
— must take the same entries, with the same payloads, and leave the same
length.  ``test_dispatch_order.py`` runs the same oracle inside the
simulator.  A stress test takes from a thread pool's queue while the
shares change under it.
"""

import sys
import threading
from collections import deque

from hypothesis import given, settings, strategies as st

from repro import Execute, Map, Merge, Seq, Split, ThreadPoolPlatform
from repro.runtime.futures import SkeletonFuture
from repro.runtime.interpreter import submit
from repro.runtime.platform import Platform
from repro.runtime.readyqueue import ReadyQueue
from repro.runtime.task import Execution
from tests.runtime.test_shares import PeakConcurrency


class ScanQueue:
    """The ready queue before it was indexed: one deque of ``(task,
    payload)`` entries, scanned from the front on every take."""

    def __init__(self, platform):
        self._platform = platform
        self._ready = deque()

    def __len__(self):
        return len(self._ready)

    def append(self, task, payload=None):
        self._ready.append((task, payload))

    def prepend(self, entries):
        for entry in reversed(entries):
            self._ready.appendleft(entry)

    def take(self, start):
        platform = self._platform
        skipped = []
        while self._ready:
            entry = self._ready.popleft()
            task, payload = entry
            eid = task.execution.id
            if task.execution.failed:
                continue
            share = platform.share_of(eid)
            if share is not None and platform.running_of(eid) >= share:
                skipped.append(entry)
                continue
            if not start(task, payload):
                skipped.append(entry)
                break
        while skipped:
            self._ready.appendleft(skipped.pop())


class Task:
    """What a ready queue reads of a task: its execution."""

    def __init__(self, execution, name):
        self.execution = execution
        self.name = name


class World:
    """A platform's share state, its executions and one ready queue."""

    def __init__(self, queue_cls, executions):
        self.platform = Platform()
        self.queue = queue_cls(self.platform)
        self.executions = [Execution(SkeletonFuture()) for _ in range(executions)]
        self.running = []
        self.made = 0

    def task(self, index):
        self.made += 1
        return Task(self.executions[index % len(self.executions)], f"t{self.made}")

    def share(self, index, value):
        shares = self.platform.get_shares()
        eid = self.executions[index % len(self.executions)].id
        if value is None:
            shares.pop(eid, None)
        else:
            shares[eid] = value
        self.platform.set_shares(shares)

    def take(self, reactions):
        """One take; each start consumes the next reaction, and refuses
        once they run out."""
        reactions = deque(reactions)
        taken = []

        def start(task, payload):
            if not reactions:
                return False
            reaction = reactions.popleft()
            if reaction[0] == "refuse":
                return False
            if reaction[0] == "fail":
                self.executions[reaction[1] % len(self.executions)].fail(
                    RuntimeError("cancelled")
                )
            elif reaction[0] == "share":
                self.share(reaction[1], reaction[2])
            elif reaction[0] == "append":
                self.queue.append(self.task(reaction[1]), reaction[2])
            self.platform._exec_started(task)
            self.running.append(task)
            taken.append((task.name, payload))
            return True

        self.queue.take(start)
        return taken

    def play(self, ops):
        trace = []
        for op in ops:
            kind = op[0]
            result = None
            if kind == "append":
                self.queue.append(self.task(op[1]), op[2])
            elif kind == "prepend":
                self.queue.prepend(
                    [(self.task(index), payload) for index, payload in op[1]]
                )
            elif kind == "take":
                result = self.take(op[1])
            elif kind == "share":
                self.share(op[1], op[2])
            elif kind == "done":
                if self.running:
                    self.platform._exec_released(self.running.pop(op[1] % len(self.running)))
            else:
                self.executions[op[1] % len(self.executions)].fail(RuntimeError("x"))
            trace.append((result, len(self.queue)))
        return trace


def churn(rnd, executions, length=60):
    """A random op sequence: appends, prepends, takes whose starts fail
    executions, change shares, append or refuse, share changes,
    completions and failures — weighted so that executions often sit at
    their share with tasks queued on both sides of other executions'."""

    def execution():
        return rnd.randrange(executions)

    def payload():
        return rnd.choice([None, None, rnd.randrange(10)])

    def share():
        return rnd.choice([None, 1, 1, 2, 3])

    ops = [("share", index, share()) for index in range(executions)]
    for _ in range(length):
        pick = rnd.random()
        if pick < 0.35:
            ops.append(("append", execution(), payload()))
        elif pick < 0.45:
            entries = [(execution(), payload()) for _ in range(rnd.randint(1, 4))]
            ops.append(("prepend", entries))
        elif pick < 0.7:
            reactions = []
            for _ in range(rnd.randint(1, 6)):
                kind = rnd.random()
                if kind < 0.55:
                    reactions.append(("ok",))
                elif kind < 0.75:
                    reactions.append(("share", execution(), share()))
                elif kind < 0.85:
                    reactions.append(("fail", execution()))
                elif kind < 0.93:
                    reactions.append(("append", execution(), payload()))
                else:
                    reactions.append(("refuse",))
            ops.append(("take", reactions))
        elif pick < 0.8:
            ops.append(("share", execution(), share()))
        elif pick < 0.97:
            ops.append(("done", rnd.randrange(8)))
        else:
            ops.append(("fail", execution()))
    return ops


@settings(max_examples=200)
@given(st.integers(2, 4), st.randoms(use_true_random=False))
def test_takes_what_one_scanned_queue_takes(executions, rnd):
    ops = churn(rnd, executions)
    ours = World(ReadyQueue, executions).play(ops)
    assert ours == World(ScanQueue, executions).play(ops)


class CountingShares(dict):
    """A share mapping that counts the lookups a take makes."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def at_their_share(queue_cls, executions, tasks):
    world = World(queue_cls, executions)
    for _ in range(tasks):
        for index in range(executions):
            world.queue.append(world.task(index))
    world.platform._shares = shares = CountingShares(
        {execution.id: 1 for execution in world.executions}
    )
    for execution in world.executions:
        world.platform._exec_started(Task(execution, "running"))
    return world, shares


def test_an_execution_at_its_share_costs_one_check():
    """E executions at their share, M queued tasks each: one take looks
    up each execution's share once and starts nothing; the scan it
    replaced looks at every task."""
    executions, tasks = 5, 7
    world, shares = at_their_share(ReadyQueue, executions, tasks)
    assert world.take([("ok",)] * 3) == []
    assert shares.lookups == executions
    assert len(world.queue) == executions * tasks
    # ... and the next take finds them all again.
    assert world.take([]) == [] and shares.lookups == 2 * executions

    world, shares = at_their_share(ScanQueue, executions, tasks)
    assert world.take([("ok",)] * 3) == []
    assert shares.lookups == executions * tasks


def both(play):
    """*play* on the ready queue and on the oracle: the same result."""
    ours = play(ReadyQueue)
    assert ours == play(ScanQueue)
    return ours


def passed_ahead(action):
    """Execution A (share 1) has four tasks queued ahead of B's four, and
    three starts are free.  The take starts A's first task, passes the
    other three at A's share, and *action* hits A at B's first start;
    then B's first task completes and one start is free."""

    def play(queue_cls):
        world = World(queue_cls, 2)
        for index in (0, 0, 0, 0, 1, 1, 1, 1):
            world.queue.append(world.task(index))
        world.share(0, 1)
        first = world.take([("ok",), action, ("ok",)])
        left = len(world.queue)
        world.platform._exec_released(world.running.pop(1))
        return first, left, world.take([("ok",)]), len(world.queue)

    return both(play)


def test_a_share_widened_mid_take_waits_for_the_next_one():
    """A's passed tasks are behind the scan: the widened share lets none
    of them take the third start, which goes to B's second task."""
    first, _left, then, _ = passed_ahead(("share", 0, 3))
    assert first == [("t1", None), ("t5", None), ("t6", None)]
    assert then == [("t2", None)]


def test_a_failure_mid_take_keeps_what_the_scan_passed():
    """Failed in the middle of the take, A keeps the three tasks the scan
    passed before the failure until the next take passes them again."""
    first, left, then, after = passed_ahead(("fail", 0))
    assert first == [("t1", None), ("t5", None), ("t6", None)]
    assert left == 5
    assert then == [("t7", None)] and after == 1


def test_a_passed_execution_is_scanned_again():
    """A widened execution's tasks *after* the start that widened it are
    reached by the same take; those before stay where they were."""

    def play(queue_cls):
        world = World(queue_cls, 2)
        for index in (0, 0, 1, 0, 0, 1):
            world.queue.append(world.task(index))
        world.share(0, 1)
        first = world.take([("ok",), ("share", 0, 5), ("ok",), ("ok",)])
        return first, world.take([("ok",), ("ok",)])

    first, then = both(play)
    assert first == [("t1", None), ("t3", None), ("t4", None), ("t5", None)]
    assert then == [("t2", None), ("t6", None)]


def test_prepended_payloads_run_first_in_order():
    def play(queue_cls):
        world = World(queue_cls, 2)
        world.queue.append(world.task(0))
        world.queue.prepend([(world.task(1), b"x"), (world.task(0), b"y")])
        world.queue.prepend([(world.task(1), None)])
        return world.take([("ok",)] * 4), len(world.queue)

    assert both(play) == (
        [("t4", None), ("t2", b"x"), ("t3", b"y"), ("t1", None)],
        0,
    )


def test_thread_workers_take_under_changing_shares():
    """Eight thread workers on two cores take from one queue while another
    thread keeps replacing the share mapping, under a 1 us switch
    interval: every execution completes with its result, none ever runs
    more tasks than the largest share it was given, and the queue and the
    in-flight counts end empty."""
    def program(width):
        return Map(
            Split(lambda v, w=width: [v] * w, name="ss"),
            Seq(Execute(lambda v: v + 1, name="se")),
            Merge(sum, name="sm"),
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolPlatform(parallelism=8, max_parallelism=8) as platform:
            peaks = PeakConcurrency()
            platform.add_listener(peaks)
            executions = [Execution(platform.new_future()) for _ in range(4)]
            stop = threading.Event()

            def churn():
                step = 0
                while not stop.is_set():
                    step += 1
                    platform.set_shares(
                        {e.id: 1 + (step + i) % 3 for i, e in enumerate(executions)}
                    )

            changer = threading.Thread(target=churn, daemon=True)
            changer.start()
            futures = [
                submit(program(40), i, platform, execution=e)
                for i, e in enumerate(executions)
            ]
            try:
                results = [f.get(timeout=30.0) for f in futures]
            finally:
                stop.set()
                changer.join(timeout=5.0)
            assert not changer.is_alive()
            assert results == [40 * (i + 1) for i in range(4)]
            assert all(peaks.peak[e.id] <= 3 for e in executions)
            assert platform.queued_tasks == 0
            assert all(platform.running_of(e.id) == 0 for e in executions)
    finally:
        sys.setswitchinterval(interval)
