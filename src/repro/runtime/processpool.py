"""Resizable process-pool platform — true parallel execution on OS processes.

This is the backend where raising the level of parallelism actually
shrinks wall-clock time for CPU-bound *pure-Python* muscles: each worker
is an OS process with its own interpreter (and its own GIL), so the
autonomic controller's LP decisions translate into real hardware
parallelism, not just more threads contending for one lock.

Architecture (everything stateful stays in the parent process):

* the depth-first ready queue of every backend
  (:mod:`~repro.runtime.readyqueue`) — continuations spawned during a
  task's epilogue are prepended; the batching/retirement/share plumbing
  of all three pools lives in
  :class:`~repro.runtime.poolbase._PoolPlatformBase`;
* a **dispatcher thread** that pairs queued tasks with idle workers — the
  one shared with the socket pool,
  :class:`~repro.runtime.poolbase._ChunkedPoolBase`.  It emits the BEFORE
  events (in-process, on behalf of the worker), snapshots each task into
  a picklable :class:`~repro.runtime.task.TaskEnvelope` and ships a
  *chunk* of envelopes per handoff — batching amortizes the IPC cost for
  fine-grained Map/Farm tasks;
* one **worker process** per LP unit, running a tiny loop: receive
  envelopes, run the muscle bodies, send back results (or exceptions),
  each tagged with the **worker-side start timestamp** of the body;
* a **collector (pump) thread** that receives worker results — streamed
  one message per task, so AFTER events carry true completion times even
  for batched chunks — and re-emits the AFTER events onto the in-process
  :class:`~repro.events.bus.EventBus` and runs the continuations; so
  listeners, barriers and the autonomic machinery behave identically to
  the thread pool.  BEFORE events of batched tasks are *published* at
  chunk handoff (listeners may transform the input value, which must
  happen before the value ships), but each AFTER event carries a
  ``started_at`` extra derived from the worker-side start timestamp, and
  the tracking machines use it to measure estimator spans — so duration
  observations of fine-grained chunk-batched muscles no longer include
  the chunk residence time;
* graceful shrink: surplus workers retire only *between* chunks, never
  mid-muscle; graceful grow: new processes join and start pulling work
  immediately.  Both are driven live by :meth:`set_parallelism`.

Constraints inherent to process execution: muscle bodies and their
input/result values must be picklable (a clear
:class:`~repro.errors.PlatformError` fails the execution otherwise), and
muscles must be pure — state mutated inside a worker process never flows
back to the parent.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
from multiprocessing import connection as mpconnection
from typing import Dict, List, Optional

from ..errors import PlatformError, pickle_safe_exception
from ..events.bus import EventBus
from .clock import Clock, RealClock
from .poolbase import _ChunkedPoolBase
from .task import MuscleTask, TaskEnvelope

__all__ = ["ProcessPoolPlatform"]

#: Sentinel chunk telling a worker to exit its loop.
_EXIT = pickle.dumps(None, protocol=pickle.HIGHEST_PROTOCOL)


def _send_result(
    res_conn, worker_id: int, index: int, ok: bool, value, start_mono: float
) -> None:
    """Send one ``(worker_id, index, ok, value, start_mono)`` message.

    A muscle may return (or raise) something unpicklable; apply the shared
    boundary treatment (:func:`repro.errors.pickle_safe_exception` — which
    keeps a :class:`~repro.errors.MuscleExecutionError`'s structured
    fields and replaces only the offending cause) instead of letting the
    send fail.  ``start_mono`` is the worker-side ``time.monotonic()``
    taken when the body started (CLOCK_MONOTONIC is system-wide, so the
    parent can translate it onto its platform clock).
    """
    try:
        res_conn.send((worker_id, index, ok, value, start_mono))
    except Exception as exc:
        if isinstance(value, BaseException):
            safe = pickle_safe_exception(value)
        else:
            safe = PlatformError(
                f"worker {worker_id} could not pickle a muscle "
                f"result of type {type(value).__name__}: {exc!r}"
            )
        res_conn.send((worker_id, index, False, safe, start_mono))


def _worker_main(worker_id: int, req_conn, res_conn) -> None:
    """Worker-process loop: run envelope chunks until told to exit.

    Requests arrive batched (one chunk per handoff) but results stream
    back one message per task, as soon as each muscle finishes — so the
    parent's AFTER events carry true completion times and continuations
    of early chunk items can schedule while the chunk is still running.
    Each result carries the worker-side start timestamp of its body, so
    the parent can correct BEFORE-event spans that were stamped at chunk
    handoff.
    """
    while True:
        try:
            blob = req_conn.recv_bytes()
        except (EOFError, OSError):
            break
        chunk = pickle.loads(blob)
        if chunk is None:  # _EXIT sentinel
            break
        for index, env_blob in enumerate(chunk):
            start_mono = time.monotonic()
            try:
                envelope = TaskEnvelope.decode(env_blob)
            except BaseException as exc:
                # Decoding can fail even though encoding succeeded: with
                # the fork start method a muscle defined *after* the pool
                # started is pickled by reference but absent from the
                # worker's memory snapshot.  Report it per-task instead of
                # letting the exception kill the worker.
                _send_result(
                    res_conn,
                    worker_id,
                    index,
                    False,
                    PlatformError(
                        f"worker {worker_id} could not deserialize a task "
                        f"envelope: {exc!r}.  If the muscle was defined "
                        f"after the platform started, create the platform "
                        f"afterwards (workers snapshot the parent process "
                        f"at spawn time)."
                    ),
                    start_mono,
                )
                continue
            start_mono = time.monotonic()
            try:
                _send_result(
                    res_conn, worker_id, index, True, envelope.run(), start_mono
                )
            except BaseException as exc:
                _send_result(res_conn, worker_id, index, False, exc, start_mono)
    res_conn.close()


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = (
        "worker_id",
        "process",
        "req_conn",
        "res_conn",
        "busy",
        "remaining",
        "sent_at",
        "sent_mono",
    )

    def __init__(self, worker_id: int, process, req_conn, res_conn):
        self.worker_id = worker_id
        self.process = process
        self.req_conn = req_conn  # parent -> worker (envelope chunks)
        self.res_conn = res_conn  # worker -> parent (streamed results)
        self.busy: Optional[List[MuscleTask]] = None  # chunk in flight
        self.remaining = 0  # chunk tasks whose result has not arrived yet
        self.sent_at = 0.0  # platform-clock time of the chunk handoff
        self.sent_mono = 0.0  # time.monotonic() at the chunk handoff


class ProcessPoolPlatform(_ChunkedPoolBase):
    """Real-process execution platform with a live-resizable worker pool.

    Parameters
    ----------
    parallelism:
        Initial number of worker processes.
    max_parallelism:
        Upper bound the autonomic layer may never exceed.
    chunk_size:
        Maximum number of tasks shipped to a worker per IPC handoff.  The
        dispatcher only batches when the queue is deeper than the idle
        worker count, so coarse tasks still spread across workers.
    start_method:
        ``multiprocessing`` start method; defaults to ``"fork"`` where
        available (fast, inherits imports) and ``"spawn"`` elsewhere.
    """

    def __init__(
        self,
        parallelism: int = 1,
        max_parallelism: Optional[int] = None,
        bus: Optional[EventBus] = None,
        clock: Optional[Clock] = None,
        chunk_size: int = 8,
        start_method: Optional[str] = None,
    ):
        super().__init__(
            parallelism=parallelism,
            max_parallelism=max_parallelism,
            bus=bus,
            clock=clock or RealClock(),
        )
        self._init_chunked(chunk_size, start_method)  # self._workers: id -> _WorkerHandle
        self._retiring: Dict[int, _WorkerHandle] = {}
        # Self-pipe waking the collector when the worker set changes.
        self._wake_r, self._wake_w = multiprocessing.Pipe(duplex=False)
        self._wake_lock = threading.Lock()
        self.metrics.record(self.now(), 0, parallelism)
        # Spawn the initial workers while the parent is still
        # single-threaded: with the fork start method this sidesteps the
        # classic fork-with-threads hazard (a child inheriting a lock some
        # other thread held at fork time) for the common create-once case.
        # Grow-path forks still happen from the dispatcher thread; prefer
        # start_method="spawn" if muscles take locks shared with listeners.
        with self._cv:
            self._spawn_missing_locked()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-pp-dispatcher", daemon=True
        )
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-pp-collector", daemon=True
        )
        self._dispatcher.start()
        self._collector.start()

    # -- Platform API ---------------------------------------------------------

    def shutdown(self) -> None:
        with self._cv:
            self._shutdown = True
            self._cv.notify_all()
        self._wake_collector()
        current = threading.current_thread()
        if current is not self._dispatcher:
            self._dispatcher.join(timeout=10.0)
        if current is not self._collector:
            self._collector.join(timeout=10.0)
        # Last resort for wedged workers (e.g. a muscle stuck forever).
        with self._cv:
            leftovers = list(self._workers.values()) + list(self._retiring.values())
            self._workers.clear()
            self._retiring.clear()
        for handle in leftovers:
            if handle.process.is_alive():
                handle.process.terminate()
            handle.process.join(timeout=1.0)

    # -- worker management -------------------------------------------------------

    def _wake_collector(self) -> None:
        with self._wake_lock:
            try:
                self._wake_w.send_bytes(b".")
            except (OSError, ValueError):  # pragma: no cover - closed at exit
                pass

    def _spawn_missing_locked(self) -> None:
        target = self.get_parallelism()
        while len(self._workers) < target and not self._shutdown:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            req_r, req_w = self._ctx.Pipe(duplex=False)
            res_r, res_w = self._ctx.Pipe(duplex=False)
            process = self._ctx.Process(
                target=_worker_main,
                args=(worker_id, req_r, res_w),
                name=f"repro-pworker-{worker_id}",
                daemon=True,
            )
            process.start()
            # Close the child's ends in the parent so the collector sees
            # EOF on res_conn as soon as the worker exits.
            req_r.close()
            res_w.close()
            self._workers[worker_id] = _WorkerHandle(worker_id, process, req_w, res_r)
            self._wake_collector()

    def _retire_locked(self, handle: _WorkerHandle) -> None:
        """Ask an idle worker to exit; the collector reaps it on EOF."""
        self._workers.pop(handle.worker_id, None)
        self._retiring[handle.worker_id] = handle
        try:
            handle.req_conn.send_bytes(_EXIT)
        except (OSError, ValueError):
            pass  # already dead; EOF reaches the collector either way
        self._wake_collector()

    # -- dispatcher --------------------------------------------------------------

    def _take_chunk_locked(
        self, handle: _WorkerHandle, take: int
    ) -> Optional[List[MuscleTask]]:
        tasks = [task for task, _ in self._take_locked(take)]
        if not tasks:
            return None
        handle.busy = tasks
        return tasks

    def _send_chunk(self, handle: _WorkerHandle, tasks: List[MuscleTask]) -> None:
        """Emit BEFORE events, envelope the chunk and ship it."""
        blobs: List[bytes] = []
        live: List[MuscleTask] = []
        dropped: List[MuscleTask] = []
        self._local.worker_id = handle.worker_id
        try:
            for task in tasks:
                if task.execution.failed:
                    dropped.append(task)
                    continue
                try:
                    value = task.emit_before(handle.worker_id)
                    blobs.append(task.envelope(value).encode())
                except Exception as exc:
                    task.execution.fail(exc)
                    dropped.append(task)
                    continue
                live.append(task)
        finally:
            self._local.worker_id = None
        with self._cv:
            if handle.busy is None:
                # The worker died between assignment and handoff; the
                # collector already failed the chunk and fixed the counters
                # (including the per-execution share accounting).
                return
            for task in dropped:
                self._exec_finished_locked(task)
            if not live:
                self._chunk_done_locked(handle)
                return
            handle.busy = live
            handle.remaining = len(live)
            # Reference pair for translating worker-side monotonic start
            # timestamps onto the platform clock (same host, shared
            # CLOCK_MONOTONIC; the pairing keeps it correct for any clock).
            handle.sent_at = self.now()
            handle.sent_mono = time.monotonic()
            try:
                handle.req_conn.send_bytes(
                    pickle.dumps(blobs, protocol=pickle.HIGHEST_PROTOCOL)
                )
            except (OSError, ValueError):
                pass  # worker died; the collector sees EOF and fails the chunk

    # -- collector (result/event pump) -------------------------------------------

    def _collect_loop(self) -> None:
        while True:
            with self._cv:
                if self._shutdown and not self._workers and not self._retiring:
                    return
                watch = {
                    handle.res_conn: handle
                    for handle in list(self._workers.values())
                    + list(self._retiring.values())
                }
            ready = mpconnection.wait(list(watch) + [self._wake_r])
            for conn in ready:
                if conn is self._wake_r:
                    try:
                        while self._wake_r.poll():
                            self._wake_r.recv_bytes()
                    except (EOFError, OSError):  # pragma: no cover
                        pass
                    continue
                handle = watch[conn]
                # Drain every message already buffered on this pipe in
                # one wakeup: a fine-grained chunk streams results faster
                # than the pump loops, so batching the drain (and the
                # AFTER events + continuations it feeds, in order) keeps
                # the collector from paying one wait() round per task.
                while True:
                    try:
                        _worker_id, index, ok, value, start_mono = conn.recv()
                    except (EOFError, OSError):
                        self._on_worker_gone(handle)
                        break
                    self._on_result(handle, index, ok, value, start_mono)
                    try:
                        if not conn.poll():
                            break
                    except (EOFError, OSError):  # pragma: no cover
                        self._on_worker_gone(handle)
                        break

    def _on_worker_gone(self, handle: _WorkerHandle) -> None:
        """EOF on a result pipe: planned retirement or a worker crash."""
        with self._cv:
            if handle.worker_id in self._retiring:
                del self._retiring[handle.worker_id]
                handle.process.join(timeout=5.0)
                handle.req_conn.close()
                handle.res_conn.close()
                self._cv.notify_all()
                return
            self._workers.pop(handle.worker_id, None)
            tasks = handle.busy
            if not tasks:
                unfinished = []
            elif handle.remaining == 0:
                # Assigned but not yet handed off (the dispatcher sets
                # ``remaining`` in _send_chunk): the whole chunk is lost.
                # Results stream in order, so otherwise the unfinished
                # tasks are exactly the tail of the chunk.
                unfinished = list(tasks)
            else:
                unfinished = tasks[-handle.remaining :]
            handle.busy = None
            handle.remaining = 0
            for task in unfinished:
                self._exec_finished_locked(task)
            if tasks is not None:
                self._active -= 1
                self.metrics.record(self.now(), self._active, self.get_parallelism())
            self._cv.notify_all()
        handle.process.join(timeout=5.0)
        for task in unfinished:
            task.execution.fail(
                PlatformError(
                    f"worker process {handle.worker_id} died while running "
                    f"muscle {task.muscle.name!r}"
                )
            )

    def _on_result(
        self, handle: _WorkerHandle, index: int, ok: bool, value, start_mono: float
    ) -> None:
        """One streamed task result; the chunk completes when all arrived."""
        with self._cv:
            tasks = handle.busy
            if tasks is None or not 0 <= index < len(tasks):
                return  # stale message from an already-failed chunk
            task = tasks[index]
            # Translate the worker-side monotonic start onto the platform
            # clock via the handoff reference pair; never earlier than the
            # handoff itself.
            started_at = handle.sent_at + max(0.0, start_mono - handle.sent_mono)
            handle.remaining -= 1
            self._exec_finished_locked(task)
            if handle.remaining == 0:
                self._chunk_done_locked(handle)
        if not ok:
            task.execution.fail(value)
            return
        self._finish_task(task, value, handle.worker_id, started_at)
