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
* ready tasks are dispatched to the lowest-id free core in the depth-first
  order of the platform's :class:`~repro.runtime.readyqueue.ReadyQueue`;
  together with a deterministic tie-break on simultaneous completions
  every run is bit-for-bit reproducible;
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
from heapq import heappop, heappush
from typing import Any, List, Optional, Set, Tuple

from ..errors import PlatformError
from ..events.bus import EventBus
from .clock import VirtualClock
from .costmodel import CostModel, ZeroCostModel
from .futures import SkeletonFuture
from .platform import Platform
from .task import MuscleTask

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
    """

    def __init__(
        self,
        parallelism: int = 1,
        cost_model: Optional[CostModel] = None,
        max_parallelism: Optional[int] = None,
        bus: Optional[EventBus] = None,
        trace_tasks: bool = False,
    ):
        super().__init__(
            parallelism=parallelism,
            max_parallelism=max_parallelism,
            bus=bus,
            clock=VirtualClock(),
        )
        self.cost_model = cost_model or ZeroCostModel()
        self._batch: Optional[List[Tuple[MuscleTask, None]]] = None
        # (completion_time, tiebreak, core, task, result)
        self._completions: List[Tuple[float, int, int, MuscleTask, Any]] = []
        self._tiebreak = itertools.count()
        self._busy_cores: Set[int] = set()
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
            self._batch.append((task, None))
        else:
            self._ready.append(task)

    def current_worker(self) -> Optional[int]:
        return self._current_worker

    def new_future(self) -> SkeletonFuture:
        return SkeletonFuture(driver=self._drive)

    def set_parallelism(self, n: int) -> int:
        applied = super().set_parallelism(n)
        self._record_metrics()
        # Growth is realized lazily by _start (new cores pick up ready
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

    def _start(self, task: MuscleTask, _payload: None) -> bool:
        """Start *task* on the lowest free core id below the current LP;
        false when every such core is busy."""
        busy = self._busy_cores
        # One thread drives the simulator: the LP is read without the lock.
        for core in range(self._parallelism):
            if core not in busy:
                self._start_task(task, core)
                return True
        return False

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
                self._ready.take(self._start)
                if not self._completions:
                    break
                self._complete_next()
        finally:
            self._running_loop = False

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
        self._batch = []
        try:
            if not task.execution.failed:
                # The continuation (barrier arrivals, successor submission,
                # control markers) runs at the completion instant; errors
                # are routed to the execution by the interpreter's guard.
                task.continuation(result)
        finally:
            self._current_worker = None
            batch, self._batch = self._batch, None
            if batch:
                self._ready.prepend(batch)
        self._record_metrics()

    def _free_core(self, core: int) -> None:
        self._busy_cores.discard(core)
        # A core whose id is at or above the current LP target retires;
        # nothing to do explicitly — _start only hands out ids below
        # the target, so the core simply never picks up work again.
        self._record_metrics()

    # -- introspection -----------------------------------------------------------

    @property
    def running_tasks(self) -> int:
        """Tasks currently occupying a core."""
        return len(self._busy_cores)
