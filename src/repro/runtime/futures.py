"""Futures returned by :meth:`Skeleton.input` (paper Listing 1).

A :class:`SkeletonFuture` resolves with the skeleton's final result or
with the exception that aborted the execution.  On the thread-pool
platform resolution happens asynchronously; on the simulator the platform
drives its event loop inside :meth:`get` until the future resolves.

:meth:`wait_async` bridges the future into ``asyncio``: the done
callback wakes a loop-bound waiter via ``call_soon_threadsafe``, so a
coroutine can ``await`` a result produced by pool worker threads without
blocking the event loop.  The service's
:class:`~repro.service.handle.ExecutionHandle` builds its async facade
(``await handle``, ``async for status``) on top of it.  ``asyncio`` is
imported on the first await that has to wait, so a process that never
awaits a future never loads it.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional

from ..errors import ExecutionError

__all__ = ["SkeletonFuture"]

_UNSET = object()


class SkeletonFuture:
    """Write-once container for the result of one skeleton execution."""

    def __init__(self, driver: Optional[Callable[["SkeletonFuture"], None]] = None):
        self._result: Any = _UNSET
        self._exception: Optional[BaseException] = None
        self._done = threading.Event()
        self._resolved = False  # guarded by _lock; decided before _done is set
        self._callbacks: List[Callable[["SkeletonFuture"], None]] = []
        self._lock = threading.Lock()
        # The simulator installs a driver that runs its event loop until
        # this future resolves; the thread pool leaves it None and relies
        # on the worker threads resolving the future asynchronously.
        self._driver = driver

    # -- production ----------------------------------------------------------
    #
    # Resolution races are real on the service layer: a cancel() may run
    # concurrently with a worker delivering the result.  The _resolved
    # flag (checked and set under the lock) makes exactly one resolver
    # win; the _done event is only set afterwards, so done()/get() keep
    # their blocking semantics.

    def _resolve(self, value: Any, exc: Optional[BaseException]) -> bool:
        with self._lock:
            if self._resolved:
                return False
            self._resolved = True
            if exc is None:
                self._result = value
            else:
                self._exception = exc
            callbacks = list(self._callbacks)
        self._done.set()
        for cb in callbacks:
            cb(self)
        return True

    def set_result(self, value: Any) -> None:
        """Resolve the future successfully.  May be called only once."""
        if not self._resolve(value, None):
            raise ExecutionError("future already resolved")

    def set_exception(self, exc: BaseException) -> None:
        """Resolve the future with a failure.  May be called only once."""
        if not self._resolve(None, exc):
            raise ExecutionError("future already resolved")

    def try_set_result(self, value: Any) -> bool:
        """Like :meth:`set_result`, but loses resolution races quietly."""
        return self._resolve(value, None)

    def try_set_exception(self, exc: BaseException) -> bool:
        """Like :meth:`set_exception`, but loses resolution races quietly."""
        return self._resolve(None, exc)

    # -- consumption ----------------------------------------------------------

    def done(self) -> bool:
        """``True`` once a result or exception has been set."""
        return self._done.is_set()

    def get(self, timeout: Optional[float] = None) -> Any:
        """Block until resolved; return the result or raise the failure."""
        if not self.done() and self._driver is not None:
            self._driver(self)
        if not self._done.wait(timeout):
            raise TimeoutError(f"skeleton result not available within {timeout}s")
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """Block until resolved; return the failure (or ``None``)."""
        if not self.done() and self._driver is not None:
            self._driver(self)
        if not self._done.wait(timeout):
            raise TimeoutError(f"skeleton result not available within {timeout}s")
        return self._exception

    async def wait_async(self, timeout: Optional[float] = None) -> bool:
        """Await resolution without blocking the running event loop.

        Returns ``True`` once the future is resolved, ``False`` when
        *timeout* (seconds) elapsed first.  Unlike :meth:`get`, a timeout
        is a normal outcome, not an error — async consumers poll.

        On a driver-backed future (the simulator) the driver runs
        *synchronously* first: virtual time is not wall-clock time, so
        there is nothing to overlap with and the await returns resolved.
        """
        if not self.done() and self._driver is not None:
            self._driver(self)
        if self.done():
            return True
        import asyncio  # its only user: ``import repro`` stays asyncio-free

        loop = asyncio.get_running_loop()
        waiter: "asyncio.Future[None]" = loop.create_future()

        def _wake_waiter() -> None:
            if not waiter.done():
                waiter.set_result(None)

        def _on_done(_future: "SkeletonFuture") -> None:
            # Worker threads resolve the future; hop onto the loop.  The
            # loop may already be gone when an abandoned (timed-out)
            # waiter's callback finally fires — nobody is listening then.
            try:
                loop.call_soon_threadsafe(_wake_waiter)
            except RuntimeError:
                pass

        self.add_done_callback(_on_done)
        try:
            if timeout is None:
                await waiter
            else:
                await asyncio.wait({waiter}, timeout=timeout)
            return self.done()
        finally:
            # Deregister on every exit — timeout, cancellation (e.g.
            # asyncio.wait_for cancelling us mid-await) — so a polling
            # consumer cannot grow the callback list without bound, and
            # neutralize the waiter in case the resolver already
            # snapshotted the callbacks.  After resolution both calls
            # are no-ops.
            self.remove_done_callback(_on_done)
            _wake_waiter()

    def add_done_callback(self, fn: Callable[["SkeletonFuture"], None]) -> None:
        """Run ``fn(self)`` when resolved (immediately if already done)."""
        with self._lock:
            # Check the resolution flag, not the _done event: a winning
            # resolver snapshots the callback list before setting _done,
            # and a callback appended in that window would never fire.
            if not self._resolved:
                self._callbacks.append(fn)
                return
        fn(self)

    def remove_done_callback(self, fn: Callable[["SkeletonFuture"], None]) -> bool:
        """Deregister *fn*; ``False`` when absent (already fired or never
        added).  A resolver that snapshotted the list may still run *fn*
        once — removal only prevents unbounded growth, not the race."""
        with self._lock:
            try:
                self._callbacks.remove(fn)
                return True
            except ValueError:
                return False
