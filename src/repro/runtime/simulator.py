"""Deterministic discrete-event multicore simulator.

This platform is the reproduction's substitute for the paper's 12-core /
24-hardware-thread Xeon (see DESIGN.md §1): CPython's GIL prevents
"add threads → CPU-bound wall-clock shrinks" from being observable
in-process, so the experiments run the *identical* interpreter, event bus,
state machines and autonomic controller against virtual time instead.

Model:

* ``parallelism`` virtual cores; a task occupies one core for the virtual
  duration given by the :class:`~repro.runtime.costmodel.CostModel`;
* run-to-completion: tasks are never preempted (matching Skandium's
  thread-pool semantics where a muscle runs to completion on its thread);
* ready tasks are dispatched to the lowest-id free core in **depth-first**
  order by default (tasks spawned by a completing task run before
  previously queued siblings — Skandium's work-first behaviour, which the
  paper's reported trace exhibits: with one thread, the first branch runs
  split → executes → merge before the second branch's split).  A plain
  FIFO policy is available for ablations.  Together with a deterministic
  tie-break on simultaneous completions every run is bit-for-bit
  reproducible;
* the ready queue is indexed by execution: one deque per execution, its
  tasks ordered by keys that place them in one queue, and a heap of the
  deques' head keys.  A core takes the smallest head key among the
  executions below their worker share — the task a scan of that one
  queue from the front would start — and an execution at its share is
  passed whole, not task by task;
* muscle *semantics* run for real at dispatch time (results are correct
  Python values); BEFORE events carry the dispatch timestamp and AFTER
  events the timestamp ``start + duration``;
* :meth:`Platform.set_parallelism` takes effect immediately: new cores
  start pulling ready tasks at the current virtual instant; removed cores
  finish their current task and retire (shrinking never aborts work);
* event emission is shared with the real backends: continuations running
  on virtual cores publish fan-out control markers through the batched
  bus path (:meth:`~repro.events.bus.EventBus.publish_batch`), so
  batch-aware monitors consume a whole fan-out under one lock on the
  simulator exactly as they do on threads and processes — with identical
  event order, preserving bit-for-bit determinism.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush, heapreplace
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from ..errors import PlatformError
from ..events.bus import EventBus
from .clock import VirtualClock
from .costmodel import CostModel, ZeroCostModel
from .futures import SkeletonFuture
from .platform import Platform
from .task import Execution, MuscleTask

__all__ = ["SimulatedPlatform"]


class SimulatedPlatform(Platform):
    """Discrete-event simulation of a multicore machine.

    Parameters
    ----------
    parallelism:
        Initial number of virtual cores (the paper starts executions with
        LP = 1 and lets the autonomic layer raise it).
    cost_model:
        Maps muscle executions to virtual durations; defaults to
        :class:`ZeroCostModel` (pure functional simulation).
    max_parallelism:
        Upper bound the autonomic layer may never exceed (the paper's
        protection against overloading; their machine had 24 hardware
        threads).
    trace_tasks:
        When true, keeps a log of ``(start, end, core, label)`` tuples for
        every task — used by tests and the ADG-vs-simulation cross checks.
    scheduling:
        ``"depth-first"`` (default, Skandium-like) or ``"fifo"``.
    """

    def __init__(
        self,
        parallelism: int = 1,
        cost_model: Optional[CostModel] = None,
        max_parallelism: Optional[int] = None,
        bus: Optional[EventBus] = None,
        trace_tasks: bool = False,
        scheduling: str = "depth-first",
    ):
        super().__init__(
            parallelism=parallelism,
            max_parallelism=max_parallelism,
            bus=bus,
            clock=VirtualClock(),
        )
        if scheduling not in ("depth-first", "fifo"):
            raise PlatformError(f"unknown scheduling policy {scheduling!r}")
        self.scheduling = scheduling
        self.cost_model = cost_model or ZeroCostModel()
        # The ready queue, indexed by execution: execution id ->
        # (execution, deque of (key, task)).  Keys order the tasks of all
        # executions as one queue would: an append takes the next key up,
        # a depth-first prepend the next key down (see _dispatch).
        self._queues: Dict[int, Tuple[Execution, Deque[Tuple[int, MuscleTask]]]] = {}
        # Heap of (head key, execution id), one entry per execution with
        # ready tasks; entries whose key is no longer the head are stale
        # and dropped when they surface.
        self._heads: List[Tuple[int, int]] = []
        self._queued = 0
        self._back_keys = itertools.count()
        self._front_keys = itertools.count(-1, -1)
        self._batch: Optional[List[MuscleTask]] = None
        # (completion_time, tiebreak, core, task, result)
        self._completions: List[Tuple[float, int, int, MuscleTask, Any]] = []
        self._tiebreak = itertools.count()
        self._busy_cores: Set[int] = set()
        self._retired_cores: Set[int] = set()
        self._next_core = 0
        self._current_worker: Optional[int] = None
        self._running_loop = False
        self._shutdown = False
        self.task_log: List[Tuple[float, float, int, str]] = [] if trace_tasks else None
        self.metrics.record(0.0, 0, parallelism)

    # -- Platform API -----------------------------------------------------

    def submit(self, task: MuscleTask) -> None:
        if self._shutdown:
            raise PlatformError("platform has been shut down")
        if self._batch is not None:
            # Collected during a continuation; prepended (in order) when
            # the continuation finishes — depth-first scheduling.
            self._batch.append(task)
        else:
            self._append(task)

    def current_worker(self) -> Optional[int]:
        return self._current_worker

    def new_future(self) -> SkeletonFuture:
        return SkeletonFuture(driver=self._drive)

    def set_parallelism(self, n: int) -> int:
        applied = super().set_parallelism(n)
        self._record_metrics()
        # Growth is realized lazily by _dispatch (new cores pick up ready
        # work at the current instant); shrink by _free_core (cores above
        # the target retire as they finish).
        return applied

    def shutdown(self) -> None:
        self._shutdown = True

    # -- core bookkeeping ---------------------------------------------------

    def _record_metrics(self) -> None:
        self.metrics.record(
            self.clock.now(), len(self._busy_cores), self.get_parallelism()
        )

    def _acquire_core(self) -> Optional[int]:
        """Pick the lowest free core id below the current LP, or None."""
        limit = self.get_parallelism()
        for core in range(limit):
            if core not in self._busy_cores:
                return core
        return None

    # -- event loop -----------------------------------------------------------

    def _drive(self, future: SkeletonFuture) -> None:
        """Run the simulation until *future* resolves (future driver)."""
        self.run_until(lambda: future.done())

    def drain(self) -> None:
        """Run the simulation until no work is left."""
        self.run_until(lambda: False)

    def run_until(self, stop) -> None:
        """Process simulation events until ``stop()`` or quiescence."""
        if self._running_loop:
            # get() called from inside a listener/muscle: the outer loop is
            # already advancing the simulation; nothing to do here (the
            # future will have resolved by the time the outer loop returns).
            return
        self._running_loop = True
        try:
            while not stop():
                self._dispatch()
                if not self._completions:
                    break
                self._complete_next()
        finally:
            self._running_loop = False

    def _queue_of(self, task: MuscleTask) -> Deque[Tuple[int, MuscleTask]]:
        """The ready deque of *task*'s execution, created on first use."""
        execution = task.execution
        entry = self._queues.get(execution.id)
        if entry is None:
            entry = self._queues[execution.id] = (execution, deque())
        return entry[1]

    def _append(self, task: MuscleTask) -> None:
        """Queue *task* behind every ready task."""
        key = next(self._back_keys)
        execution = task.execution
        entry = self._queues.get(execution.id)
        if entry is None:
            entry = self._queues[execution.id] = (execution, deque())
            heappush(self._heads, (key, execution.id))
        entry[1].append((key, task))
        self._queued += 1

    def _prepend(self, tasks: List[MuscleTask]) -> None:
        """Queue *tasks*, in order, ahead of every ready task."""
        queues = self._queues
        keys = self._front_keys
        fronts = {}
        for task in reversed(tasks):
            key = next(keys)
            execution = task.execution
            entry = queues.get(execution.id)
            if entry is None:
                entry = queues[execution.id] = (execution, deque())
            entry[1].appendleft((key, task))
            fronts[execution.id] = key
        for eid, key in fronts.items():
            heappush(self._heads, (key, eid))
        self._queued += len(tasks)

    def _dispatch(self) -> None:
        """Assign ready tasks to free cores at the current virtual time.

        The order is that of one queue scanned from the front: each free
        core takes the first task whose execution is below its worker
        share (multi-tenant service); tasks of executions at their share
        keep their position and dispatch as soon as one of their
        execution's tasks completes.  A failed execution's tasks are
        dropped as the scan passes them, and the scan stops at the first
        task it could start when no core is free.

        The scan visits executions, not tasks.  An execution's tasks sit
        in its own deque in key order, so the scan's next task is the
        head with the smallest key (``_heads``).  An execution found at
        its share is *parked*: the scan passes all its tasks without
        looking at them, unless a task started meanwhile fails it or
        grows its share (:meth:`_unpark`).  Parked executions rejoin the
        heap when the dispatch ends.
        """
        heads = self._heads
        queues = self._queues
        running = self._exec_running
        shares = self._shares  # replaced wholesale by set_shares
        # Executions passed at their share, and the tasks passed before
        # one was scanned again (see _unpark); made on first use.
        parked: Optional[Dict[int, Execution]] = None
        held: Optional[Dict[int, List[Tuple[int, MuscleTask]]]] = None
        while heads:
            key, eid = heads[0]
            entry = queues.get(eid)
            if (
                entry is None
                or entry[1][0][0] != key
                or (parked is not None and eid in parked)
            ):
                heappop(heads)  # stale
                continue
            execution, queue = entry
            task = None
            if not execution.failed:
                share = shares.get(eid)
                if share is not None and running.get(eid, 0) >= share:
                    heappop(heads)
                    if parked is None:
                        parked, held = {}, {}
                    parked[eid] = execution
                    continue
                core = self._acquire_core()
                if core is None:
                    break
                task = queue[0][1]
            queue.popleft()
            self._queued -= 1
            if queue:
                heapreplace(heads, (queue[0][0], eid))
            else:
                heappop(heads)
                del queues[eid]
            if task is not None:
                self._start_task(task, core)
                if parked:
                    self._unpark(parked, held, key, shares)
                shares = self._shares
        if parked is None:
            return
        rejoin = parked
        if held:
            for passed in held.values():
                self._queue_of(passed[0][1]).extendleft(reversed(passed))
            rejoin = parked.keys() | held.keys()
        for eid in rejoin:
            heappush(heads, (queues[eid][1][0][0], eid))

    def _unpark(
        self,
        parked: Dict[int, Execution],
        held: Dict[int, List[Tuple[int, MuscleTask]]],
        pos: int,
        shares: Dict[int, int],
    ) -> None:
        """After a task started at key *pos*: a parked execution that
        failed, or whose share grew, is scanned again from *pos* on.  Its
        tasks up to *pos* were passed, and stay held until the dispatch
        ends."""
        moved = self._shares is not shares
        for eid, execution in list(parked.items()):
            if not execution.failed:
                if not moved:
                    continue
                share = self._shares.get(eid)
                if share is not None and self._exec_running.get(eid, 0) >= share:
                    continue
            del parked[eid]
            queue = self._queues[eid][1]
            passed = held.setdefault(eid, [])
            while queue and queue[0][0] <= pos:
                passed.append(queue.popleft())
            if queue:
                heappush(self._heads, (queue[0][0], eid))
            else:
                del self._queues[eid]

    def _start_task(self, task: MuscleTask, core: int) -> None:
        start = self.clock.now()
        self._busy_cores.add(core)
        self._exec_started(task)
        self._record_metrics()
        self._current_worker = core
        try:
            value = task.emit_before(core)
            result = task.body(value)
            duration = self.cost_model.duration(task.muscle, value)
        except Exception as exc:
            task.execution.fail(exc)
            self._busy_cores.discard(core)
            self._exec_released(task)
            self._record_metrics()
            return
        finally:
            self._current_worker = None
        heappush(
            self._completions,
            (start + duration, next(self._tiebreak), core, task, result),
        )
        if self.task_log is not None:
            self.task_log.append((start, start + duration, core, task.label))

    def _complete_next(self) -> None:
        end, _tie, core, task, result = heappop(self._completions)
        self.clock.advance_to(end)
        self._exec_released(task)
        self._current_worker = core
        try:
            if not task.execution.failed:
                result = task.emit_after(result, core)
        except Exception as exc:
            task.execution.fail(exc)
        finally:
            self._current_worker = None
        self._free_core(core)
        self._current_worker = core
        if self.scheduling == "depth-first":
            self._batch = []
        try:
            if not task.execution.failed:
                # The continuation (barrier arrivals, successor submission,
                # control markers) runs at the completion instant; errors
                # are routed to the execution by the interpreter's guard.
                task.continuation(result)
        finally:
            self._current_worker = None
            if self._batch is not None:
                batch, self._batch = self._batch, None
                if batch:
                    self._prepend(batch)
        self._record_metrics()

    def _free_core(self, core: int) -> None:
        self._busy_cores.discard(core)
        # A core whose id is at or above the current LP target retires;
        # nothing to do explicitly — _acquire_core only hands out ids below
        # the target, so the core simply never picks up work again.
        self._record_metrics()

    # -- introspection -----------------------------------------------------------

    @property
    def pending_tasks(self) -> int:
        """Ready tasks waiting for a free core."""
        return self._queued

    @property
    def running_tasks(self) -> int:
        """Tasks currently occupying a core."""
        return len(self._busy_cores)
