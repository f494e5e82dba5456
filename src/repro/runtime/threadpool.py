"""Resizable thread-pool platform — real execution on OS threads.

This is the Skandium-equivalent execution environment: a pool of worker
threads pulling muscle tasks from a depth-first ready queue
(:mod:`~repro.runtime.readyqueue`), whose size can be changed
*while skeletons execute* — the mechanism the autonomic controller drives.

Growing spawns new daemon worker threads immediately; shrinking is
graceful: workers whose id is at or above the new target retire after
finishing their current task (never aborting a muscle mid-flight), exactly
like the simulator's cores.  The parent-side plumbing shared with the
process pool (submit batching, seniority retirement, depth-first prepend,
per-execution worker shares) lives in
:class:`~repro.runtime.poolbase._PoolPlatformBase`.

Event emission rides the batched spine where the interpreter provides it:
fan-out control markers publish through
:meth:`~repro.events.bus.EventBus.publish_batch` on the worker running
the continuation (one listener snapshot and one monitor-lock round-trip
per fan-out), and every per-event publish reads the bus's cached listener
snapshot — no lock, no list copy — as long as the listener set is stable.

CPython note (DESIGN.md §1): for *CPU-bound pure-Python* muscles the GIL
serializes execution in this pool, so raising the LP does not shrink
wall-clock time here.  Use this pool for I/O-bound muscles and muscles
that release the GIL (NumPy, file I/O, ``time.sleep``-style waits); for
CPU-bound pure-Python muscles, real scaling is available on
:class:`repro.runtime.processpool.ProcessPoolPlatform`, whose OS-process
workers each own their own GIL.  The paper's quantitative figures are
reproduced deterministically on the simulator.
"""

from __future__ import annotations

import threading
from typing import Optional

from ..events.bus import EventBus
from .clock import Clock, RealClock
from .poolbase import _PoolPlatformBase
from .task import MuscleTask

__all__ = ["ThreadPoolPlatform"]


class _Worker(threading.Thread):
    """One pool worker; runs tasks until told to retire."""

    def __init__(self, pool: "ThreadPoolPlatform", worker_id: int):
        super().__init__(name=f"repro-worker-{worker_id}", daemon=True)
        self.pool = pool
        self.worker_id = worker_id

    def run(self) -> None:  # pragma: no cover - exercised via integration tests
        pool = self.pool
        while True:
            task = pool._next_task(self.worker_id)
            if task is None:
                return  # retired or shut down
            pool._run_task(task, self.worker_id)


class ThreadPoolPlatform(_PoolPlatformBase):
    """Real-thread execution platform with a live-resizable worker pool."""

    def __init__(
        self,
        parallelism: int = 1,
        max_parallelism: Optional[int] = None,
        bus: Optional[EventBus] = None,
        clock: Optional[Clock] = None,
    ):
        super().__init__(
            parallelism=parallelism,
            max_parallelism=max_parallelism,
            bus=bus,
            clock=clock or RealClock(),
        )
        self._init_pool()
        self.metrics.record(self.now(), 0, parallelism)
        self._ensure_workers()

    # -- Platform API ---------------------------------------------------------

    def set_parallelism(self, n: int) -> int:
        applied = super().set_parallelism(n)
        with self._cv:
            self.metrics.record(self.now(), self._active, applied)
            self._ensure_workers_locked()
            # Wake idle workers so surplus ones notice they must retire.
            self._cv.notify_all()
        return applied

    def shutdown(self) -> None:
        with self._cv:
            self._shutdown = True
            self._cv.notify_all()
        for worker in list(self._workers.values()):
            if worker is not threading.current_thread():
                worker.join(timeout=5.0)

    # -- worker management -------------------------------------------------------

    def _ensure_workers(self) -> None:
        with self._cv:
            self._ensure_workers_locked()

    def _ensure_workers_locked(self) -> None:
        """Spawn workers until the live count matches the target LP."""
        target = self.get_parallelism()
        live = len(self._workers)
        while live < target:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            worker = _Worker(self, worker_id)
            self._workers[worker_id] = worker
            worker.start()
            live += 1

    def _next_task(self, worker_id: int) -> Optional[MuscleTask]:
        """Blocking fetch; returns None when the worker must exit."""
        with self._cv:
            while True:
                if self._shutdown:
                    self._workers.pop(worker_id, None)
                    return None
                if worker_id in self._workers and self._rank_locked(
                    worker_id
                ) >= self.get_parallelism():
                    # Surplus worker: retire gracefully.  Pass the baton —
                    # a submit() may have woken *this* worker to run a
                    # task; without a re-notify that task would strand now
                    # that idle workers block instead of polling.
                    self._workers.pop(worker_id, None)
                    self._cv.notify_all()
                    return None
                taken = self._take_locked(1)
                if taken:
                    self._active += 1
                    self.metrics.record(self.now(), self._active, self.get_parallelism())
                    return taken[0][0]
                # Every state change that could satisfy this wait —
                # enqueue, batch prepend, resize, share change, task
                # completion, shutdown — notifies the condition variable,
                # so idle workers block outright instead of polling;
                # wakeups are event-driven.
                self._cv.wait()

    def _run_task(self, task: MuscleTask, worker_id: int) -> None:
        self._local.worker_id = worker_id
        try:
            value = task.emit_before(worker_id)
            # Threads run the body in place, so the true start is simply
            # "now"; stamping it gives AFTER events the same started_at
            # extra the process/distributed backends already attach.
            task.started_at = self.now()
            result = task.body(value)
            result = task.emit_after(result, worker_id)
        except Exception as exc:
            task.execution.fail(exc)
            return
        finally:
            self._local.worker_id = None
            with self._cv:
                self._active -= 1
                self._exec_finished_locked(task)
                self.metrics.record(self.now(), self._active, self.get_parallelism())
        self._run_continuation(task, result, worker_id)
