"""Socket-distributed platform — real remote workers behind the paper's API.

Paper §4: "a centralised distribution of tasks to a distributed set of
workers, adding or removing workers like adding or removing threads in a
centralised manner."  This module realizes that sketch with *actual
worker processes over localhost sockets* while keeping every autonomic
layer above unchanged.

Architecture — a managing-system master and managed-system workers:

* the **master** (this class) owns the listening socket, the task queue
  and all parent-side state.  It shares the process pool's dispatcher,
  :class:`~repro.runtime.poolbase._ChunkedPoolBase`: a dispatcher thread
  pairs queued tasks with idle enrolled workers and ships *chunks* of
  :class:`~repro.runtime.task.TaskEnvelope` blobs over the binary data
  plane (worker-side batching: one round trip per chunk, not per task),
  lost workers' encoded blobs first; an I/O thread (selector-driven)
  accepts enrollments, tracks heartbeats and pumps result frames back
  into AFTER events and continuations on the in-process bus — so the
  analyzer, ``PlanEngine`` and ``LPArbiter`` see exactly the event stream
  they see on every other backend, per-task ``started_at`` included;
* **workers** are separate OS processes that connect over TCP and speak
  the length-prefixed protocol of :mod:`~repro.runtime.remote.protocol`:
  a JSON control plane (ENROLL/HEARTBEAT/RETIRE/RESIZE) and a pickle
  data plane.  The master either spawns them locally (default) or waits
  for external processes to enroll (``spawn_workers=False``).

Fault model: a worker that drops its connections or stops heartbeating
past ``heartbeat_timeout`` is *lost* — its in-flight chunk is re-dispatched
to surviving workers (envelope blobs are kept parent-side precisely so a
re-send needs no second BEFORE event), the loss is surfaced as a
retirement in the worker set and metrics, and — in spawn mode — a
replacement is spawned to restore the target LP.  Muscles must therefore
be pure (they already must be for the process pool): a task whose result
frame was lost may execute twice, but its continuation runs exactly once.

Per-worker speeds are **never configured** here: heterogeneity shows up
in observed spans and the estimators learn it, which is what keeps the
planning layers platform-independent.

Internal module — construct through the front door:
``make_platform(PlatformSpec(kind="distributed", ...))``.
"""

from __future__ import annotations

import pickle
import secrets
import selectors
import socket
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ...errors import PlatformError, jsonable_error
from ...events.bus import EventBus
from ...obs.tracing import new_span_id as _span_id
from ..clock import Clock, RealClock
from ..poolbase import _ChunkedPoolBase
from ..task import MuscleTask
from . import protocol
from .protocol import (
    ATTACH,
    ATTACH_OK,
    ENROLL,
    ENROLL_ERR,
    ENROLL_OK,
    HEARTBEAT,
    RESIZE,
    RESIZE_OK,
    RETIRE,
    FrameBuffer,
    decode_json,
    encode_json,
)

__all__ = ["DistributedPlatform"]

_EXIT_FRAME = pickle.dumps(("exit",), protocol=pickle.HIGHEST_PROTOCOL)


class _Conn:
    """One accepted socket: role-less until its first frame identifies it."""

    __slots__ = ("sock", "buf", "role", "worker_id")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buf = FrameBuffer()
        self.role: Optional[str] = None  # None | "ctrl" | "data" | "admin"
        self.worker_id: Optional[int] = None


class _RemoteWorker:
    """Master-side bookkeeping for one enrolled worker."""

    __slots__ = (
        "worker_id",
        "pid",
        "token",
        "process",
        "ctrl",
        "data",
        "enrolled_at",
        "last_heartbeat",
        "busy",
        "blobs",
        "sent_at",
        "sent_mono",
        "tasks_done",
        "busy_seconds",
    )

    def __init__(self, worker_id: int, pid: Optional[int], token: str, ctrl: _Conn):
        self.worker_id = worker_id
        self.pid = pid
        self.token = token
        self.process = None  # multiprocessing.Process when master-spawned
        self.ctrl = ctrl
        self.data: Optional[_Conn] = None
        self.enrolled_at = time.monotonic()
        self.last_heartbeat = time.monotonic()
        self.busy: Optional[List[MuscleTask]] = None  # chunk in flight
        self.blobs: Optional[List[bytes]] = None  # None until handed off
        self.sent_at = 0.0  # platform clock at handoff
        self.sent_mono = 0.0  # time.monotonic() at handoff
        self.tasks_done = 0
        self.busy_seconds = 0.0  # worker-reported body time (introspection)


class DistributedPlatform(_ChunkedPoolBase):
    """Master of a real socket-distributed worker pool (see module docstring).

    Parameters
    ----------
    parallelism / max_parallelism / bus / clock:
        As on every platform.
    chunk_size:
        Maximum tasks shipped per data-plane frame — the worker-side
        batching knob that amortizes the round trip (``batching`` in
        :class:`~repro.runtime.spec.PlatformSpec`).
    rtt:
        Injected round-trip latency per network frame, split evenly into
        a dispatch half (worker sleeps it after receiving a chunk) and a
        collect half (before sending results).  Localhost sockets are too
        fast to study distribution effects; this knob makes the bench
        reproduce the simulator's latency curve for real.
    heartbeat_interval / heartbeat_timeout:
        Worker liveness cadence and the silence span after which a worker
        is declared lost.  The timeout must exceed the longest stretch a
        muscle can hold the worker's GIL without yielding.
    spawn_workers:
        ``True`` (default): the master spawns local worker processes to
        match the LP and replaces lost ones.  ``False``: enrollment-only
        mode — external processes join via ``ENROLL`` (see
        :func:`~repro.runtime.remote.worker.start_worker`) and a lost
        worker simply shrinks the pool.
    worker_delays:
        Per-enrollment-index artificial per-task delay handed to workers
        (test/bench heterogeneity; the planner never sees it).
    """

    def __init__(
        self,
        parallelism: int = 1,
        max_parallelism: Optional[int] = None,
        bus: Optional[EventBus] = None,
        clock: Optional[Clock] = None,
        chunk_size: int = 8,
        rtt: float = 0.0,
        heartbeat_interval: float = 0.2,
        heartbeat_timeout: float = 1.0,
        spawn_workers: bool = True,
        host: str = "127.0.0.1",
        port: int = 0,
        enroll_timeout: float = 10.0,
        worker_delays: Tuple[float, ...] = (),
        start_method: Optional[str] = None,
    ):
        super().__init__(
            parallelism=parallelism,
            max_parallelism=max_parallelism,
            bus=bus,
            clock=clock or RealClock(),
        )
        self._init_chunked(chunk_size, start_method)  # self._workers: id -> _RemoteWorker
        if rtt < 0:
            raise PlatformError(f"rtt must be non-negative, got {rtt}")
        if heartbeat_interval <= 0 or heartbeat_timeout <= heartbeat_interval:
            raise PlatformError(
                "need 0 < heartbeat_interval < heartbeat_timeout, got "
                f"{heartbeat_interval} / {heartbeat_timeout}"
            )
        self._dispatch_delay = rtt / 2.0
        self._collect_delay = rtt / 2.0
        self._hb_interval = float(heartbeat_interval)
        self._hb_timeout = float(heartbeat_timeout)
        self._spawn_workers = bool(spawn_workers)
        self._enroll_timeout = float(enroll_timeout)
        self._worker_delays = tuple(worker_delays)

        self._enrolling: Dict[int, _RemoteWorker] = {}  # ENROLLed, no data plane yet
        self._retiring: Dict[int, _RemoteWorker] = {}
        self._pending: Dict[int, object] = {}  # pid -> spawned, not yet enrolled
        self._requeue: Deque[Tuple[MuscleTask, bytes]] = deque()
        self._enroll_count = 0
        #: Workers declared lost (heartbeat timeout or dropped connection).
        self.lost_workers = 0

        self._listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listen.bind((host, port))
        self._listen.listen(64)
        self._listen.setblocking(False)
        #: ``(host, port)`` workers and control clients connect to.
        self.address: Tuple[str, int] = self._listen.getsockname()

        self._sel = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._sel.register(self._listen, selectors.EVENT_READ, "listen")
        self._sel.register(self._wake_r, selectors.EVENT_READ, "wake")

        self.metrics.record(self.now(), 0, parallelism)
        self._io = threading.Thread(
            target=self._io_loop, name="repro-remote-io", daemon=True
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-remote-dispatcher", daemon=True
        )
        self._io.start()
        self._dispatcher.start()

    # -- Platform API ---------------------------------------------------------

    def shutdown(self) -> None:
        with self._cv:
            self._shutdown = True
            self._cv.notify_all()
        self._wake_io()
        current = threading.current_thread()
        if current is not self._dispatcher:
            self._dispatcher.join(timeout=10.0)
        if current is not self._io:
            self._io.join(timeout=10.0)
        # Force whatever is left (e.g. a muscle stuck forever).
        with self._cv:
            leftovers = (
                list(self._workers.values())
                + list(self._retiring.values())
                + list(self._enrolling.values())
            )
            self._workers.clear()
            self._retiring.clear()
            self._enrolling.clear()
            pending = list(self._pending.values())
            self._pending.clear()
        for worker in leftovers:
            self._close_worker_sockets(worker)
            self._reap_process(worker)
        for process in pending:
            if process.is_alive():
                process.terminate()
            process.join(timeout=1.0)
        try:
            self._listen.close()
        except OSError:  # pragma: no cover
            pass
        try:
            self._sel.close()
        except (OSError, RuntimeError):  # pragma: no cover
            pass

    # -- introspection ---------------------------------------------------------

    def worker_pids(self) -> Dict[int, Optional[int]]:
        """Worker id → OS pid of every enrolled worker (chaos-test hook)."""
        with self._cv:
            return {wid: w.pid for wid, w in self._workers.items()}

    def busy_worker_pids(self) -> List[int]:
        """Pids of workers currently holding an in-flight chunk (chaos hook)."""
        with self._cv:
            return [
                w.pid
                for w in self._workers.values()
                if w.busy is not None and w.pid
            ]

    def worker_stats(self) -> Dict[int, Tuple[int, float]]:
        """Worker id → (tasks completed, worker-reported busy seconds).

        The per-worker speed story, observable: a slow worker shows a
        higher busy-seconds/task ratio.  The estimators learn the same
        thing from event spans; this is the introspection mirror.
        """
        with self._cv:
            return {
                wid: (w.tasks_done, w.busy_seconds) for wid, w in self._workers.items()
            }

    def round_trip_overhead(self) -> float:
        """Injected communication cost per data-plane frame (both ways)."""
        return self._dispatch_delay + self._collect_delay

    # -- plumbing helpers -------------------------------------------------------

    def _wake_io(self) -> None:
        try:
            self._wake_w.send(b".")
        except OSError:  # pragma: no cover - closing down
            pass

    def _close_worker_sockets(self, worker: _RemoteWorker) -> None:
        for conn in (worker.ctrl, worker.data):
            if conn is None:
                continue
            try:
                self._sel.unregister(conn.sock)
            except (KeyError, ValueError, RuntimeError, OSError):
                pass
            try:
                conn.sock.close()
            except OSError:  # pragma: no cover
                pass

    def _reap_process(self, worker: _RemoteWorker) -> None:
        process = worker.process
        if process is None:
            return
        if process.is_alive():
            process.terminate()
        process.join(timeout=2.0)

    # -- dispatcher --------------------------------------------------------------

    def _spawn_missing_locked(self) -> None:
        if not self._spawn_workers:
            return
        target = self.get_parallelism()
        have = len(self._workers) + len(self._enrolling) + len(self._pending)
        while have < target and not self._shutdown:
            process = self._ctx.Process(
                target=_spawned_worker_entry,
                args=(self.address[0], self.address[1]),
                name="repro-remote-worker",
                daemon=True,
            )
            process.start()
            self._pending[process.pid] = process
            have += 1

    def _retire_locked(self, worker: _RemoteWorker) -> None:
        """Ask an idle worker to exit; the I/O loop reaps it on EOF."""
        self._workers.pop(worker.worker_id, None)
        self._retiring[worker.worker_id] = worker
        try:
            protocol.send_frame(
                worker.ctrl.sock, encode_json({"type": RETIRE, "worker": worker.worker_id})
            )
        except OSError:
            pass
        if worker.data is not None:
            try:
                protocol.send_frame(worker.data.sock, _EXIT_FRAME)
            except OSError:
                pass  # already dead; EOF reaches the I/O loop either way
        self._wake_io()

    def _take_requeued_locked(self) -> Optional[Tuple[MuscleTask, bytes]]:
        """Pop the first runnable re-dispatch pair, respecting shares."""
        skipped: List[Tuple[MuscleTask, bytes]] = []
        found: Optional[Tuple[MuscleTask, bytes]] = None
        while self._requeue:
            task, blob = self._requeue.popleft()
            if task.execution.failed:
                continue
            if not self._share_allows_locked(task):
                skipped.append((task, blob))
                continue
            found = (task, blob)
            break
        while skipped:
            self._requeue.appendleft(skipped.pop())
        return found

    def _backlog_locked(self) -> int:
        return len(self._queue) + len(self._requeue)

    def _take_chunk_locked(
        self, worker: _RemoteWorker, take: int
    ) -> Optional[Tuple[List[MuscleTask], List[Tuple[MuscleTask, bytes]]]]:
        # Lost workers' tasks first: they are the oldest work and their
        # envelopes are already encoded.
        pairs: List[Tuple[MuscleTask, bytes]] = []
        while len(pairs) < take:
            pair = self._take_requeued_locked()
            if pair is None:
                break
            self._exec_started_locked(pair[0])
            pairs.append(pair)
        fresh = self._take_tasks_locked(take - len(pairs))
        if not pairs and not fresh:
            return None
        worker.busy = [task for task, _ in pairs] + fresh
        worker.blobs = None  # not handed off yet
        return fresh, pairs

    def _send_chunk(
        self,
        worker: _RemoteWorker,
        payload: Tuple[List[MuscleTask], List[Tuple[MuscleTask, bytes]]],
    ) -> None:
        """Emit BEFORE events for fresh tasks, frame the chunk and ship it.

        Re-dispatch pairs already emitted their BEFORE event at first
        handoff, so only their blobs ride along — a task never publishes
        BEFORE twice no matter how many workers die under it.
        """
        fresh, pairs = payload
        live: List[MuscleTask] = [task for task, _ in pairs]
        blobs: List[bytes] = [blob for _, blob in pairs]
        dropped: List[MuscleTask] = []
        self._local.worker_id = worker.worker_id
        try:
            for task in fresh:
                if task.execution.failed:
                    dropped.append(task)
                    continue
                try:
                    value = task.emit_before(worker.worker_id)
                    env = task.envelope(value)
                    ctx = task.execution.trace
                    if ctx is not None and ctx.sampled and self.tracer.enabled:
                        # Trace context crosses the wire inside the
                        # envelope; because re-dispatch reuses the encoded
                        # blob, a retried chunk keeps the original trace.
                        env.trace_id = ctx.trace_id
                        env.span_id = ctx.span_id
                    blobs.append(env.encode())
                except Exception as exc:
                    task.execution.fail(exc)
                    dropped.append(task)
                    continue
                live.append(task)
        finally:
            self._local.worker_id = None
        with self._cv:
            for task in dropped:
                self._exec_finished_locked(task)
            if not live:
                self._chunk_done_locked(worker)
                return
            if worker.worker_id not in self._workers:
                # Lost between assignment and handoff.  Everything live now
                # has a BEFORE event and an encoded envelope, so it all
                # re-dispatches as pairs; shares release until then.
                for task, blob in zip(reversed(live), reversed(blobs)):
                    self._requeue.appendleft((task, blob))
                for task in live:
                    self._exec_finished_locked(task)
                self._chunk_done_locked(worker)
                return
            worker.busy = live
            worker.blobs = blobs
            worker.sent_at = self.now()
            worker.sent_mono = time.monotonic()
            try:
                protocol.send_frame(
                    worker.data.sock,
                    pickle.dumps(("chunk", blobs), protocol=pickle.HIGHEST_PROTOCOL),
                )
            except OSError:
                pass  # dying socket: the I/O loop sees EOF and re-dispatches

    # -- I/O loop (control plane + result pump) -----------------------------------

    def _io_loop(self) -> None:
        poll = min(self._hb_interval, 0.1)
        while True:
            with self._cv:
                if self._shutdown:
                    # A worker may finish enrolling after the dispatcher's
                    # final retire sweep; retire it here or this loop (and
                    # shutdown joining on it) would hang until force-close.
                    for worker in list(self._workers.values()):
                        if worker.busy is None:
                            self._retire_locked(worker)
                    if (
                        not self._workers
                        and not self._retiring
                        and not self._enrolling
                    ):
                        return
            try:
                events = self._sel.select(timeout=poll)
            except OSError:  # pragma: no cover - selector torn down
                return
            for key, _mask in events:
                tag = key.data
                if tag == "wake":
                    try:
                        while self._wake_r.recv(4096):
                            pass
                    except (BlockingIOError, OSError):
                        pass
                elif tag == "listen":
                    self._accept_ready()
                else:
                    self._read_conn(tag)
            self._check_timeouts()

    def _accept_ready(self) -> None:
        while True:
            try:
                sock, _addr = self._listen.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(True)
            conn = _Conn(sock)
            try:
                self._sel.register(sock, selectors.EVENT_READ, conn)
            except (ValueError, KeyError):  # pragma: no cover
                sock.close()

    def _read_conn(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(1 << 16)
        except OSError:
            data = b""
        if not data:
            self._drop_conn(conn)
            return
        conn.buf.feed(data)
        try:
            frames = list(conn.buf.frames())
        except PlatformError:
            self._drop_conn(conn)
            return
        for frame in frames:
            try:
                self._on_frame(conn, frame)
            except PlatformError:
                self._drop_conn(conn)
                return

    def _drop_conn(self, conn: _Conn) -> None:
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError, RuntimeError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover
            pass
        if conn.worker_id is None:
            return
        worker = self._find_worker(conn.worker_id)
        if worker is not None:
            self._on_worker_gone(worker)

    def _find_worker(self, worker_id: int) -> Optional[_RemoteWorker]:
        with self._cv:
            return (
                self._workers.get(worker_id)
                or self._retiring.get(worker_id)
                or self._enrolling.get(worker_id)
            )

    # -- frame handling -----------------------------------------------------------

    def _on_frame(self, conn: _Conn, frame: bytes) -> None:
        if conn.role == "data":
            self._on_data_frame(conn, frame)
            return
        message = decode_json(frame)
        mtype = message.get("type")
        if conn.role is None:
            if mtype == ENROLL:
                self._handle_enroll(conn, message)
            elif mtype == ATTACH:
                self._handle_attach(conn, message)
            elif mtype == RESIZE:
                conn.role = "admin"
                self._handle_resize(conn, message)
            else:
                try:
                    protocol.send_frame(
                        conn.sock,
                        encode_json(
                            {
                                "type": "ERROR",
                                "error": jsonable_error(
                                    PlatformError(f"unexpected first message {mtype!r}")
                                ),
                            }
                        ),
                    )
                except OSError:
                    pass
                self._drop_conn(conn)
        elif conn.role == "ctrl":
            if mtype == HEARTBEAT:
                worker = self._find_worker(conn.worker_id)
                if worker is not None:
                    worker.last_heartbeat = time.monotonic()
        elif conn.role == "admin":
            if mtype == RESIZE:
                self._handle_resize(conn, message)

    def _handle_enroll(self, conn: _Conn, message: dict) -> None:
        pid = message.get("pid")
        with self._cv:
            if self._shutdown:
                error = PlatformError("platform is shutting down")
            elif (
                self.max_parallelism is not None
                and len(self._workers) + len(self._enrolling) >= self.max_parallelism
            ):
                error = PlatformError(
                    f"enrollment rejected: worker pool is at its cap of "
                    f"{self.max_parallelism}"
                )
            else:
                error = None
            if error is None:
                worker_id = self._next_worker_id
                self._next_worker_id += 1
                worker = _RemoteWorker(worker_id, pid, secrets.token_hex(8), conn)
                worker.process = self._pending.pop(pid, None)
                index = self._enroll_count
                self._enroll_count += 1
                self._enrolling[worker_id] = worker
                conn.role = "ctrl"
                conn.worker_id = worker_id
        if error is not None:
            try:
                protocol.send_frame(
                    conn.sock,
                    encode_json({"type": ENROLL_ERR, "error": jsonable_error(error)}),
                )
            except OSError:
                pass
            self._drop_conn(conn)
            return
        task_delay = (
            self._worker_delays[index] if index < len(self._worker_delays) else 0.0
        )
        try:
            protocol.send_frame(
                conn.sock,
                encode_json(
                    {
                        "type": ENROLL_OK,
                        "worker": worker.worker_id,
                        "token": worker.token,
                        "heartbeat_interval": self._hb_interval,
                        "dispatch_delay": self._dispatch_delay,
                        "collect_delay": self._collect_delay,
                        "task_delay": task_delay,
                    }
                ),
            )
        except OSError:
            self._drop_conn(conn)

    def _handle_attach(self, conn: _Conn, message: dict) -> None:
        worker_id = message.get("worker")
        token = message.get("token")
        with self._cv:
            worker = self._enrolling.get(worker_id)
            if worker is None or worker.token != token:
                worker = None
            else:
                del self._enrolling[worker_id]
                worker.data = conn
                conn.role = "data"
                conn.worker_id = worker_id
        if worker is None:
            try:
                protocol.send_frame(
                    conn.sock,
                    encode_json(
                        {
                            "type": "ATTACH_ERR",
                            "error": jsonable_error(
                                PlatformError(
                                    f"no enrolling worker {worker_id!r} (bad id or token)"
                                )
                            ),
                        }
                    ),
                )
            except OSError:
                pass
            self._drop_conn(conn)
            return
        # ATTACH_OK must hit the wire BEFORE the worker becomes visible to
        # the dispatcher: once published, a chunk frame may be sent on this
        # same socket, and the worker must never read it where it expects
        # the JSON ack.
        try:
            protocol.send_frame(conn.sock, encode_json({"type": ATTACH_OK}))
        except OSError:
            self._close_worker_sockets(worker)
            self._reap_process(worker)
            return
        with self._cv:
            worker.last_heartbeat = time.monotonic()
            self._workers[worker_id] = worker
            self._cv.notify_all()

    def _handle_resize(self, conn: _Conn, message: dict) -> None:
        try:
            applied = self.set_parallelism(int(message.get("parallelism")))
            reply = {"type": RESIZE_OK, "parallelism": applied}
        except Exception as exc:
            reply = {"type": "RESIZE_ERR", "error": jsonable_error(exc)}
        try:
            protocol.send_frame(conn.sock, encode_json(reply))
        except OSError:
            self._drop_conn(conn)

    # -- results ------------------------------------------------------------------

    def _on_data_frame(self, conn: _Conn, frame: bytes) -> None:
        try:
            message = pickle.loads(frame)
        except Exception:
            self._drop_conn(conn)
            return
        if (
            not isinstance(message, tuple)
            or len(message) not in (2, 3)
            or message[0] != "results"
        ):
            return
        worker = self._find_worker(conn.worker_id)
        if worker is None:
            return
        worker.last_heartbeat = time.monotonic()  # a result is proof of life
        finish: List[Tuple[MuscleTask, bool, object, float]] = []
        with self._cv:
            tasks = worker.busy
            if tasks is None:
                return  # stale frame of an already-requeued chunk
            worker.busy = None
            worker.blobs = None
            # Optional third element: span records of traced tasks.
            # Worker-side monotonic timestamps map onto this platform's
            # clock via the chunk's handoff reference pair, then the
            # spans re-emit into the in-process tracer — the same
            # treatment worker events get.
            if len(message) == 3 and self.tracer.enabled:
                for rec in message[2]:
                    try:
                        self.tracer.record_span(
                            str(rec.get("name", "muscle")),
                            str(rec["trace_id"]),
                            _span_id(),
                            rec.get("parent_id"),
                            worker.sent_at
                            + max(0.0, float(rec["start_mono"]) - worker.sent_mono),
                            worker.sent_at
                            + max(0.0, float(rec["end_mono"]) - worker.sent_mono),
                            status=str(rec.get("status", "ok")),
                            attrs={
                                **dict(rec.get("attrs") or {}),
                                "worker": worker.worker_id,
                            },
                        )
                    except (KeyError, TypeError, ValueError):
                        continue  # malformed span record; results still land
            for index, ok, value, start_mono, end_mono in message[1]:
                if not 0 <= index < len(tasks):
                    continue
                started_at = worker.sent_at + max(0.0, start_mono - worker.sent_mono)
                worker.tasks_done += 1
                worker.busy_seconds += max(0.0, end_mono - start_mono)
                finish.append((tasks[index], ok, value, started_at))
            for task in tasks:
                self._exec_finished_locked(task)
            self._chunk_done_locked(worker)
        for task, ok, value, started_at in finish:
            if not ok:
                task.execution.fail(value)
                continue
            self._finish_task(task, value, worker.worker_id, started_at)

    # -- liveness -----------------------------------------------------------------

    def _check_timeouts(self) -> None:
        now = time.monotonic()
        stale: List[_RemoteWorker] = []
        dead_pending = []
        with self._cv:
            for worker in list(self._workers.values()):
                if now - worker.last_heartbeat > self._hb_timeout:
                    stale.append(worker)
            for worker in list(self._enrolling.values()):
                if now - worker.enrolled_at > self._enroll_timeout:
                    stale.append(worker)
            for pid, process in list(self._pending.items()):
                if not process.is_alive():
                    dead_pending.append(pid)
            for pid in dead_pending:
                self._pending.pop(pid, None).join(timeout=1.0)
            if dead_pending:
                self._cv.notify_all()  # dispatcher respawns
        for worker in stale:
            self._on_worker_gone(worker)

    def _on_worker_gone(self, worker: _RemoteWorker) -> None:
        """A worker vanished: planned retirement, enroll drop, or a loss.

        Loss re-dispatches the worker's in-flight chunk (the envelope
        blobs were kept at handoff precisely for this) and surfaces the
        event as a retirement: the worker disappears from the live set
        and the metrics, and — in spawn mode — the dispatcher spawns a
        replacement on its next pass, so the unchanged autonomic
        controller simply sees capacity dip and recover.
        """
        self._close_worker_sockets(worker)
        with self._cv:
            worker_id = worker.worker_id
            if worker_id in self._retiring:
                del self._retiring[worker_id]
                self._cv.notify_all()
            elif worker_id in self._enrolling:
                del self._enrolling[worker_id]
                self._cv.notify_all()
            elif worker_id in self._workers:
                del self._workers[worker_id]
                if worker.busy is not None and worker.blobs is not None:
                    pairs = list(zip(worker.busy, worker.blobs))
                    for task, _ in pairs:
                        self._exec_finished_locked(task)
                    for pair in reversed(pairs):
                        self._requeue.appendleft(pair)
                    worker.busy = None
                    worker.blobs = None
                    self._active -= 1
                # busy set but blobs None: assignment not yet handed off —
                # the dispatcher's _send_chunk sees the worker missing and
                # requeues everything itself.
                self.lost_workers += 1
                self.metrics.record(self.now(), self._active, self.get_parallelism())
                self._cv.notify_all()
            else:
                return
        self._reap_process(worker)
        self._wake_io()


def _spawned_worker_entry(host: str, port: int) -> None:
    """Entry point of master-spawned worker processes."""
    from .worker import worker_main

    try:
        worker_main(host, port)
    except Exception:  # pragma: no cover - worker exit paths are master-tested
        pass
