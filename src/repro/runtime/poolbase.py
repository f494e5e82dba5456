"""Shared parent-side plumbing of the real worker-pool platforms.

:class:`~repro.runtime.threadpool.ThreadPoolPlatform`,
:class:`~repro.runtime.processpool.ProcessPoolPlatform` and
:class:`~repro.runtime.remote.platform.DistributedPlatform` differ in
*where* muscle bodies run (OS threads, OS processes behind pipes, worker
processes behind sockets) but share the parent-side mechanics.
:class:`_PoolPlatformBase` hosts what all three share exactly once so the
backends cannot drift apart:

* **submit + thread-local continuation batching** — tasks spawned while a
  continuation runs are collected on the submitting thread and prepended
  to the platform's :class:`~repro.runtime.readyqueue.ReadyQueue` when
  the continuation ends (depth-first);
* **seniority-rank graceful retirement** — when the LP shrinks, the
  workers whose seniority rank (position among live worker ids) is at or
  above the new target retire after their current work, never aborting a
  muscle mid-flight;
* **per-execution share accounting** — the in-flight counts the ready
  queue's share checks read; completions notify the scheduler so capped
  work resumes the instant a slot frees.

:class:`_ChunkedPoolBase` adds the one dispatcher of the two backends
whose workers are other processes: a dispatcher thread pairs queued tasks
with idle workers by seniority and ships each a *chunk* of task
envelopes; the chunk's results come back on a backend-specific pump.

Subclasses call :meth:`_init_pool` (or :meth:`_ChunkedPoolBase.
_init_chunked`) from ``__init__`` and use the taking / accounting
helpers from their scheduling loops; everything here is guarded by the
single condition variable ``self._cv``.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..errors import PlatformError
from .platform import Platform
from .task import MuscleTask

__all__ = ["_PoolPlatformBase", "_ChunkedPoolBase"]


class _PoolPlatformBase(Platform):
    """Common parent-side machinery of the thread, process and socket pools."""

    # -- initialization ---------------------------------------------------------

    def _init_pool(self) -> None:
        """Set up the lock and worker table."""
        self._cv = threading.Condition()
        self._workers: Dict[int, object] = {}
        self._next_worker_id = 0
        self._active = 0
        self._shutdown = False
        self._local = threading.local()

    # -- Platform API -----------------------------------------------------------

    def submit(self, task: MuscleTask) -> None:
        batch = getattr(self._local, "batch", None)
        if batch is not None:
            # Collected during a continuation and prepended when it ends:
            # depth-first scheduling, like the simulator (and Skandium).
            batch.append((task, None))
            return
        with self._cv:
            if self._shutdown:
                raise PlatformError("platform has been shut down")
            self._ready.append(task)
            self._cv.notify_all()

    def current_worker(self) -> Optional[int]:
        return getattr(self._local, "worker_id", None)

    def _on_shares_changed(self) -> None:
        # A rebalance can raise an execution's cap: wake the scheduler so
        # previously capped queued tasks are reconsidered immediately.
        with self._cv:
            self._cv.notify_all()

    # -- seniority --------------------------------------------------------------

    def _rank_locked(self, worker_id: int) -> int:
        """Position of *worker_id* among live workers (0 = most senior)."""
        return sorted(self._workers).index(worker_id)

    # -- share accounting --------------------------------------------------------
    #
    # The counters themselves live on the Platform base (shared with the
    # simulator); this wrapper adds the pool-specific wakeup.

    def _exec_finished_locked(self, task: MuscleTask) -> None:
        """Release one in-flight slot; wake capped work waiting for it."""
        self._exec_released(task)
        # The wakeup only matters when a share cap could have parked
        # queued work; without shares, skipping it avoids a thundering
        # herd of idle workers on every completion.  (set_shares itself
        # notifies through _on_shares_changed, so the transition from
        # empty to non-empty shares never loses a wakeup.)
        if self._shares:
            self._cv.notify_all()

    def running_of(self, execution_id: int) -> int:
        """Tasks of *execution_id* currently in flight (introspection)."""
        with self._cv:
            return super().running_of(execution_id)

    # -- queue ------------------------------------------------------------------

    def _take_locked(self, take: int) -> List[Tuple[MuscleTask, Any]]:
        """Take up to *take* runnable ``(task, payload)`` entries off the
        ready queue, in ready order.

        Each counts toward its execution's worker share from here to its
        result (or failure), so chunking respects shares too.
        """
        taken: List[Tuple[MuscleTask, Any]] = []

        def start(task: MuscleTask, payload: Any) -> bool:
            if len(taken) == take:
                return False
            self._exec_started(task)
            taken.append((task, payload))
            return True

        self._ready.take(start)
        return taken

    def _run_continuation(self, task: MuscleTask, result, worker_id: int) -> None:
        """Run the continuation, batch-prepending depth-first spawns.

        Continuations run outside the busy-accounting window: they are
        bookkeeping, not muscle work (mirrors the simulator's zero-cost
        continuations).
        """
        self._local.worker_id = worker_id
        self._local.batch = []
        try:
            if not task.execution.failed:
                task.continuation(result)
        finally:
            self._local.worker_id = None
            batch, self._local.batch = self._local.batch, None
            if batch:
                with self._cv:
                    self._ready.prepend(batch)
                    self._cv.notify_all()

    # -- introspection ----------------------------------------------------------

    @property
    def active_tasks(self) -> int:
        with self._cv:
            return self._active

    @property
    def live_workers(self) -> int:
        with self._cv:
            return len(self._workers)


class _ChunkedPoolBase(_PoolPlatformBase):
    """The dispatcher of the pools that ship envelope chunks to processes.

    A subclass's workers are objects with a ``worker_id`` and a ``busy``
    slot (the chunk in flight, or ``None``), and the subclass provides
    the transport:

    * ``_spawn_missing_locked()`` — start workers up to the LP;
    * ``_retire_locked(worker)`` — ask an idle worker to exit;
    * ``_take_chunk_locked(worker, take)`` — take up to *take* entries
      (:meth:`_PoolPlatformBase._take_locked`) into ``worker.busy`` and
      return what ``_send_chunk`` ships (``None``: nothing runnable);
    * ``_send_chunk(worker, payload)`` — outside the lock, emit the BEFORE
      events, encode the chunk and hand it off;
    * its own result pump, which calls :meth:`_chunk_done_locked` when a
      chunk ends and :meth:`_finish_task` per result; what a lost worker
      costs (a failed chunk, a re-dispatch) stays the backend's own.
    """

    def _init_chunked(self, chunk_size: int, start_method: Optional[str]) -> None:
        """Validate the chunk size, resolve the start method, set up the pool."""
        if chunk_size < 1:
            raise PlatformError(f"chunk_size must be >= 1, got {chunk_size}")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._chunk_size = int(chunk_size)
        self._init_pool()

    def set_parallelism(self, n: int) -> int:
        applied = super().set_parallelism(n)
        with self._cv:
            if not self._shutdown:
                self.metrics.record(self.now(), self._active, applied)
            # The dispatcher spawns/retires workers to match the new LP.
            self._cv.notify_all()
        return applied

    # -- dispatcher --------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._cv:
                if self._shutdown:
                    for worker in list(self._workers.values()):
                        if worker.busy is None:
                            self._retire_locked(worker)
                    return
                self._spawn_missing_locked()
                self._retire_surplus_idle_locked()
                assignments = self._take_assignments_locked()
                if not assignments:
                    self._cv.wait()
                    continue
            for worker, payload in assignments:
                self._send_chunk(worker, payload)

    def _retire_surplus_idle_locked(self) -> None:
        lp = self.get_parallelism()
        for worker_id in sorted(self._workers, reverse=True):
            worker = self._workers[worker_id]
            if worker.busy is None and self._rank_locked(worker_id) >= lp:
                self._retire_locked(worker)

    def _take_assignments_locked(self) -> List[Tuple[Any, Any]]:
        """Pair idle workers, by seniority, with the chunks they ship."""
        assignments: List[Tuple[Any, Any]] = []
        if not self._ready:
            return assignments
        lp = self.get_parallelism()
        idle = [
            wid
            for rank, wid in enumerate(sorted(self._workers))
            if rank < lp and self._workers[wid].busy is None
        ]
        # With per-execution shares active, ship one task per handoff:
        # chunking computes its batch depth from the raw queue, which can
        # pack several capped executions' tasks onto one worker (serializing
        # them) while other workers idle.  Multi-tenant workloads trade the
        # IPC amortization for a correct parallel spread.
        shared_mode = bool(self.get_shares())
        for position, worker_id in enumerate(idle):
            backlog = len(self._ready)
            if not backlog:
                break
            # Batch only when the backlog is deeper than the remaining idle
            # workers: fine-grained floods amortize IPC, coarse work still
            # spreads one task per worker.
            depth = max(1, backlog // (len(idle) - position))
            take = 1 if shared_mode else min(self._chunk_size, depth)
            worker = self._workers[worker_id]
            payload = self._take_chunk_locked(worker, take)
            if payload is None:
                continue
            self._active += 1
            self.metrics.record(self.now(), self._active, lp)
            assignments.append((worker, payload))
        return assignments

    # -- results -----------------------------------------------------------------

    def _chunk_done_locked(self, worker) -> None:
        """A worker's chunk ended: free it, retire it if surplus, wake."""
        worker.busy = None
        self._active -= 1
        self.metrics.record(self.now(), self._active, self.get_parallelism())
        if worker.worker_id in self._workers and (
            self._shutdown or self._rank_locked(worker.worker_id) >= self.get_parallelism()
        ):
            self._retire_locked(worker)
        self._cv.notify_all()

    def _finish_task(self, task: MuscleTask, result, worker_id: int, started_at: float) -> None:
        """AFTER events + continuation, in-process on behalf of the worker."""
        task.started_at = started_at
        self._local.worker_id = worker_id
        try:
            result = task.emit_after(result, worker_id)
        except Exception as exc:
            task.execution.fail(exc)
            return
        finally:
            self._local.worker_id = None
        self._run_continuation(task, result, worker_id)
