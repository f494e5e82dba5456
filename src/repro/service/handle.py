"""Execution handles — the tenant-facing side of a service submission.

:meth:`SkeletonService.submit` is non-blocking: it returns an
:class:`ExecutionHandle` immediately, whatever the admission outcome.  The
handle is the only object a tenant needs: it exposes the lifecycle
(:meth:`status`), the result (:meth:`result`, blocking with optional
timeout), cancellation (:meth:`cancel`) and the QoS outcome
(:meth:`goal_met`, :attr:`goal_at_risk`).

The handle is also **awaitable**: inside a coroutine, ``await handle``
(or :meth:`result_async`) suspends without blocking the event loop until
the worker threads resolve the execution, and ``async for status in
handle.statuses()`` streams the lifecycle transitions.  Both ride on
:meth:`~repro.runtime.futures.SkeletonFuture.wait_async`; on the
simulator the await drives virtual time to completion first, so async
consumers work on every backend.
"""

from __future__ import annotations

import enum
import threading
from typing import Any, AsyncIterator, Optional

from ..core.qos import QoS
from ..errors import AdmissionError, ExecutionCancelledError, ServiceError
from ..runtime.futures import SkeletonFuture
from ..runtime.task import Execution
from ..skeletons.base import Skeleton

__all__ = ["ExecutionStatus", "ExecutionHandle"]

_EPS = 1e-9


class ExecutionStatus(enum.Enum):
    """Lifecycle of one service submission."""

    QUEUED = "queued"  # held by admission control, waiting for capacity
    RUNNING = "running"  # admitted; tasks executing on the shared platform
    COMPLETED = "completed"  # finished successfully
    FAILED = "failed"  # a muscle or listener raised
    CANCELLED = "cancelled"  # cancelled through the handle
    REJECTED = "rejected"  # refused by admission control

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def terminal(self) -> bool:
        """True for states no execution ever leaves."""
        return self in _TERMINAL_STATUSES


_TERMINAL_STATUSES = frozenset(
    {
        ExecutionStatus.COMPLETED,
        ExecutionStatus.FAILED,
        ExecutionStatus.CANCELLED,
        ExecutionStatus.REJECTED,
    }
)


class ExecutionHandle:
    """Front-door handle of one submitted skeleton execution.

    Created by :meth:`repro.service.SkeletonService.submit`; never
    constructed by user code.  Thread-safe: any thread may poll
    :meth:`status`, block on :meth:`result` or :meth:`cancel`.
    """

    def __init__(
        self,
        execution: Execution,
        program: Skeleton,
        value: Any,
        qos: Optional[QoS],
        tenant: str,
        submitted_at: float,
    ):
        self.execution = execution
        self.program = program
        self.value = value
        self.qos = qos
        self.tenant = tenant
        self.submitted_at = submitted_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Set by the LP arbiter when, mid-flight, not even the full
        #: platform capacity is projected to meet this execution's WCT
        #: goal — the service's "flagged" signal for infeasible goals.
        self.goal_at_risk = False
        self._rejected_reason: Optional[str] = None
        self._cancelled = False
        # Set once the owning service has stamped finished_at: the future
        # wakes result() waiters *before* its done-callbacks run, so the
        # consumer thread could otherwise observe a completed result with
        # wall_clock()/goal_met() still None.
        self._finalized = threading.Event()
        self._lock = threading.Lock()
        # The owning service wires itself in so cancel() can remove held
        # submissions from the admission queue.
        self._service = None
        #: The execution's scoped Monitor/Analyze component
        #: (:class:`~repro.core.analysis.ExecutionAnalyzer`), attached by
        #: the service — observability into per-tenant estimates and live
        #: state, also after completion.
        self.analyzer = None

    # -- identity ---------------------------------------------------------------

    @property
    def execution_id(self) -> int:
        """The platform-wide unique id tagging this execution's tasks/events."""
        return self.execution.id

    @property
    def future(self) -> SkeletonFuture:
        return self.execution.future

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutionHandle(id={self.execution_id}, tenant={self.tenant!r}, "
            f"status={self.status().value})"
        )

    # -- lifecycle --------------------------------------------------------------

    def status(self) -> ExecutionStatus:
        with self._lock:
            if self._rejected_reason is not None:
                return ExecutionStatus.REJECTED
            if self._cancelled:
                return ExecutionStatus.CANCELLED
            if self.started_at is None:
                return ExecutionStatus.QUEUED
        if not self.future.done():
            return ExecutionStatus.RUNNING
        exc = self.future.exception(timeout=0)
        if isinstance(exc, ExecutionCancelledError):
            return ExecutionStatus.CANCELLED
        return ExecutionStatus.FAILED if exc is not None else ExecutionStatus.COMPLETED

    def done(self) -> bool:
        """True once a result, failure, rejection or cancellation is final."""
        return self.future.done()

    @property
    def rejected_reason(self) -> Optional[str]:
        """Why admission refused this submission (``None`` if admitted)."""
        with self._lock:
            return self._rejected_reason

    def _mark_rejected(self, reason: str) -> None:
        with self._lock:
            self._rejected_reason = reason
        self._finalized.set()
        self.future.set_exception(AdmissionError(reason))

    def _mark_cancelled(self) -> None:
        with self._lock:
            self._cancelled = True

    def _stamp_finished(self, finished_at: float) -> None:
        """Stamp the finish time (first stamp wins)."""
        if self.finished_at is None:
            self.finished_at = finished_at

    def _mark_finished(self, finished_at: float) -> None:
        """Stamp the finish time and release result() waiters."""
        self._stamp_finished(finished_at)
        self._finalized.set()

    # -- consumption ------------------------------------------------------------

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until the execution finishes; return its result.

        Raises the muscle failure for failed executions,
        :class:`~repro.errors.AdmissionError` for rejected submissions and
        :class:`~repro.errors.ExecutionCancelledError` after
        :meth:`cancel`.

        On return, completion bookkeeping is settled: :meth:`wall_clock`
        and :meth:`goal_met` never see a half-finalized handle.
        """
        value = self.future.get(timeout=timeout)
        self._finalized.wait(timeout)
        return value

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """Block until finished; return the failure (or ``None``)."""
        return self.future.exception(timeout=timeout)

    # -- async facade -----------------------------------------------------------

    def __await__(self):
        """``await handle`` == ``await handle.result_async()``."""
        return self.result_async().__await__()

    async def result_async(self) -> Any:
        """Await the execution's result without blocking the event loop.

        The async twin of :meth:`result`: raises the muscle failure,
        :class:`~repro.errors.AdmissionError` or
        :class:`~repro.errors.ExecutionCancelledError` exactly like it.
        Wrap in :func:`asyncio.wait_for` for a timeout.
        """
        await self.future.wait_async()
        return self.future.get(timeout=0)

    async def exception_async(self) -> Optional[BaseException]:
        """Await completion; return the failure (or ``None``)."""
        await self.future.wait_async()
        return self.future.exception(timeout=0)

    async def statuses(
        self, poll_interval: float = 0.01
    ) -> AsyncIterator[ExecutionStatus]:
        """Async-iterate the lifecycle: each *distinct* status once.

        Yields the current status immediately, then every transition
        until a terminal one (``COMPLETED``/``FAILED``/``CANCELLED``/
        ``REJECTED``), which is yielded last.  Completion interrupts the
        *poll_interval* wait, so the terminal state arrives promptly;
        intermediate hops (``QUEUED`` → ``RUNNING``) are observed at poll
        granularity.
        """
        last: Optional[ExecutionStatus] = None
        while True:
            current = self.status()
            if current is not last:
                yield current
                last = current
            if current.terminal:
                return
            await self.future.wait_async(timeout=poll_interval)

    # -- cancellation -----------------------------------------------------------

    def cancel(self) -> bool:
        """Cancel the execution; returns ``True`` when it took effect.

        A held submission leaves the admission queue; a running one has
        its remaining tasks dropped by the platform (in-flight muscles
        run to completion — the pools never abort a muscle mid-flight).
        Already-finished executions return ``False``.
        """
        service = self._service
        if service is None:
            raise ServiceError(
                "handle is not attached to a service; cancel() is only "
                "available on handles returned by SkeletonService.submit"
            )
        return service._cancel_handle(self)

    # -- QoS outcome ------------------------------------------------------------

    def wall_clock(self) -> Optional[float]:
        """Observed WCT (start to finish), ``None`` while running/held."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def goal_met(self) -> Optional[bool]:
        """Did the execution meet its WCT goal?

        ``None`` while unfinished, when no WCT goal was given, or when
        the submission never ran (rejected/cancelled before start).
        """
        if self.qos is None or self.qos.wct is None:
            return None
        wct = self.wall_clock()
        if wct is None:
            return None
        if self.status() is not ExecutionStatus.COMPLETED:
            return None
        return wct <= self.qos.wct.seconds + _EPS
