"""Platform abstraction: where and how tasks actually run.

A :class:`Platform` owns

* a :class:`~repro.runtime.clock.Clock` (real or virtual),
* the :class:`~repro.events.bus.EventBus` events are published on,
* an :class:`~repro.runtime.metrics.LPSeries` recording the active-thread
  trajectory,
* the :class:`~repro.runtime.readyqueue.ReadyQueue` every backend
  dispatches from, with the per-execution worker shares it honours, and
* the *level of parallelism* (LP) — the paper's tunable knob.  The
  autonomic controller calls :meth:`set_parallelism` while a skeleton is
  running; platforms apply the change live.

Two implementations ship with the library:
:class:`repro.runtime.threadpool.ThreadPoolPlatform` (real OS threads) and
:class:`repro.runtime.simulator.SimulatedPlatform` (deterministic
discrete-event multicore simulation — the substitution for the paper's
24-hardware-thread Xeon, see DESIGN.md §1).
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Optional

from ..errors import PlatformError
from ..events.bus import EventBus, Listener
from ..obs.tracing import Tracer
from .clock import Clock
from .futures import SkeletonFuture
from .metrics import LPSeries
from .readyqueue import ReadyQueue
from .task import MuscleTask

__all__ = ["Platform"]


class Platform:
    """Abstract execution platform (see module docstring)."""

    def __init__(
        self,
        parallelism: int = 1,
        max_parallelism: Optional[int] = None,
        bus: Optional[EventBus] = None,
        clock: Optional[Clock] = None,
    ):
        if parallelism < 1:
            raise PlatformError(f"parallelism must be >= 1, got {parallelism}")
        if max_parallelism is not None and max_parallelism < parallelism:
            raise PlatformError(
                f"max_parallelism {max_parallelism} below initial "
                f"parallelism {parallelism}"
            )
        self._parallelism = parallelism
        self.max_parallelism = max_parallelism
        self.bus = bus or EventBus()
        self._clock = clock
        self.metrics = LPSeries()
        # Distributed-tracing identity source.  Disabled by default:
        # it still mints trace/span ids for executions (so event
        # correlation always works) but records no spans until an
        # Observability facade flips it on (see repro.obs).
        self.tracer = Tracer(enabled=False)
        self._lp_lock = threading.Lock()
        # Per-execution worker shares (execution id -> max concurrently
        # running tasks).  Executions absent from the mapping are
        # unlimited, so single-tenant use is unaffected.
        self._shares: Dict[int, int] = {}
        # In-flight task count per execution, backing the share checks.
        # The helpers below are NOT synchronized — each backend calls
        # them under its own scheduling lock (the pools' condition
        # variable; the simulator is single-threaded).
        self._exec_running: Dict[int, int] = {}
        # The one ready queue (depth-first; reads the two maps above).
        self._ready = ReadyQueue(self)
        # Instance indices are platform-scoped: unique across every
        # execution submitted to this platform (so tracking machines never
        # collide), deterministic for a fresh platform.
        from ..events.correlation import IndexAllocator

        self.indices = IndexAllocator()

    # -- clock ----------------------------------------------------------------

    @property
    def clock(self) -> Clock:
        if self._clock is None:
            raise PlatformError("platform has no clock configured")
        return self._clock

    def now(self) -> float:
        """Shorthand for ``self.clock.now()``."""
        return self.clock.now()

    # -- parallelism ------------------------------------------------------------

    def get_parallelism(self) -> int:
        """Currently allocated level of parallelism (pool size)."""
        with self._lp_lock:
            return self._parallelism

    def set_parallelism(self, n: int) -> int:
        """Change the allocated LP; returns the value actually applied.

        Values are clamped to ``[1, max_parallelism]``.  Subclasses extend
        this with the mechanics of growing/shrinking their worker set but
        must call ``super().set_parallelism(n)`` first to validate, clamp
        and store the new value.
        """
        n = int(n)
        if n < 1:
            n = 1
        if self.max_parallelism is not None:
            n = min(n, self.max_parallelism)
        with self._lp_lock:
            self._parallelism = n
        return n

    # -- per-execution shares ---------------------------------------------------

    def set_shares(self, shares: Mapping[int, int]) -> None:
        """Replace the per-execution worker-share mapping.

        ``shares`` maps execution ids (:attr:`repro.runtime.task.
        Execution.id`) to the maximum number of this platform's workers
        that may run that execution's tasks concurrently.  Executions not
        present are unlimited (bounded only by the global LP); shares are
        replaced wholesale on every call, so stale entries of finished
        executions vanish on the next rebalance.  The LP arbiter of the
        multi-tenant service drives this on every analysis tick.
        """
        cleaned: Dict[int, int] = {}
        for execution_id, share in shares.items():
            share = int(share)
            if share < 1:
                raise PlatformError(
                    f"share for execution {execution_id} must be >= 1, got {share}"
                )
            cleaned[int(execution_id)] = share
        with self._lp_lock:
            self._shares = cleaned
        self._on_shares_changed()

    def share_of(self, execution_id: int) -> Optional[int]:
        """Current worker share of *execution_id* (``None`` = unlimited)."""
        with self._lp_lock:
            return self._shares.get(execution_id)

    def get_shares(self) -> Dict[int, int]:
        """Snapshot of the current share mapping."""
        with self._lp_lock:
            return dict(self._shares)

    def _on_shares_changed(self) -> None:
        """Hook for subclasses: wake schedulers after a share change."""

    # -- share accounting (caller-synchronized, see __init__) -------------------

    def _exec_started(self, task: "MuscleTask") -> None:
        """Count one in-flight task of the task's execution."""
        eid = task.execution.id
        self._exec_running[eid] = self._exec_running.get(eid, 0) + 1

    def _exec_released(self, task: "MuscleTask") -> None:
        """Release one in-flight slot of the task's execution."""
        eid = task.execution.id
        remaining = self._exec_running.get(eid, 0) - 1
        if remaining > 0:
            self._exec_running[eid] = remaining
        else:
            self._exec_running.pop(eid, None)

    def running_of(self, execution_id: int) -> int:
        """Tasks of *execution_id* currently in flight (introspection)."""
        return self._exec_running.get(execution_id, 0)

    # -- work -------------------------------------------------------------------

    def submit(self, task: MuscleTask) -> None:
        """Queue *task* for execution."""
        raise NotImplementedError

    @property
    def queued_tasks(self) -> int:
        """Ready tasks waiting for a worker."""
        return len(self._ready)

    def current_worker(self) -> Optional[int]:
        """Identifier of the worker running the calling code, if any."""
        return None

    def new_future(self) -> SkeletonFuture:
        """Create a future suitable for this platform's driving model."""
        return SkeletonFuture()

    def shutdown(self) -> None:
        """Release platform resources.  Idempotent."""

    # -- convenience ---------------------------------------------------------------

    def add_listener(self, listener: Listener) -> Listener:
        """Register *listener* on the platform's event bus."""
        return self.bus.add_listener(listener)

    def __enter__(self) -> "Platform":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
