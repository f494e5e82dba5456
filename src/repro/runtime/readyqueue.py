"""The ready queue every backend dispatches from.

Ready order is **depth-first** (Skandium's work-first pool, which the
paper's reported trace exhibits: with one thread, the first branch runs
split → executes → merge before the second branch's split).  A task
submitted from outside a continuation joins the back of the queue; the
tasks a continuation spawns are collected while it runs and
:meth:`ReadyQueue.prepend`-ed, in order, ahead of every ready task when it
ends.  The simulator, the thread pool, the process pool and the socket
platform all keep one :class:`ReadyQueue`; the socket platform puts a lost
worker's tasks back through :meth:`~ReadyQueue.prepend` too, with their
encoded envelopes as payloads.

A :meth:`~ReadyQueue.take` visits the queue in the order of one queue
scanned from the front:

* a failed execution's entries are dropped as the scan passes them;
* on a shared multi-tenant platform each execution may be capped to a
  worker share (:meth:`~repro.runtime.platform.Platform.set_shares`); an
  execution whose in-flight count is at its share is passed *but keeps*
  its entries in place, so they run as soon as one of its tasks completes;
* every other entry is offered to the caller's ``start(task, payload)``,
  which returns false to stop the scan with that entry kept at the head
  (the simulator's "no free core", a pool's full chunk).

The queue is indexed by execution: one deque per execution, its entries
ordered by keys that place them in one queue (an append takes the next key
up, a prepend the next key down), and a heap of the deques' head keys.
The scan's next entry is the head with the smallest key, so the scan
visits executions, not tasks.  An execution found at its share is
*parked*: the scan passes all its entries without looking at them, unless
a start meanwhile fails it or grows its share (:meth:`ReadyQueue._unpark`).
Parked executions rejoin the heap when the take ends.

Not synchronized: the simulator is single-threaded and the pools call it
under their scheduling lock.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush, heapreplace
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .task import Execution, MuscleTask

__all__ = ["ReadyQueue"]

#: ``(key, task, payload)``
_Entry = Tuple[int, MuscleTask, Any]


class ReadyQueue:
    """Depth-first ready queue of one platform (see module docstring).

    Reads the platform's share mapping (replaced wholesale by
    ``set_shares``) and its per-execution in-flight counts.
    """

    def __init__(self, platform) -> None:
        self._platform = platform
        # Execution id -> (execution, deque of entries in key order).
        self._queues: Dict[int, Tuple[Execution, Deque[_Entry]]] = {}
        # Heap of (head key, execution id), one entry per execution with
        # ready tasks; entries whose key is no longer the head are stale
        # and dropped when they surface.
        self._heads: List[Tuple[int, int]] = []
        self._len = 0
        self._back_keys = itertools.count()
        self._front = 0  # the last key a prepend took; the next is one down

    def __len__(self) -> int:
        return self._len

    def append(self, task: MuscleTask, payload: Any = None) -> None:
        """Queue *task* behind every ready task."""
        key = next(self._back_keys)
        execution = task.execution
        entry = self._queues.get(execution.id)
        if entry is None:
            entry = self._queues[execution.id] = (execution, deque())
            heappush(self._heads, (key, execution.id))
        entry[1].append((key, task, payload))
        self._len += 1

    def prepend(self, entries: Sequence[Tuple[MuscleTask, Any]]) -> None:
        """Queue ``(task, payload)`` *entries*, in order, ahead of every
        ready task."""
        queues = self._queues
        key = self._front
        fronts = {}
        # A batch is mostly one execution's spawns: look its deque up once
        # per run of entries, not once per entry.
        last = None
        for task, payload in reversed(entries):
            execution = task.execution
            if execution is not last:
                if last is not None:
                    fronts[last.id] = key
                last = execution
                entry = queues.get(execution.id)
                if entry is None:
                    entry = queues[execution.id] = (execution, deque())
                queue = entry[1]
            key -= 1
            queue.appendleft((key, task, payload))
        if last is not None:
            fronts[last.id] = key
        for eid, front in fronts.items():
            heappush(self._heads, (front, eid))
        self._front = key
        self._len += len(entries)

    def take(self, start: Callable[[MuscleTask, Any], bool]) -> None:
        """Offer the runnable entries to *start* in ready order until it
        returns false or the scan reaches the end (see module docstring).

        An entry leaves the queue after its start returns, so *start* may
        append to the queue but must not prepend to it.
        """
        heads = self._heads
        queues = self._queues
        platform = self._platform
        running = platform._exec_running
        shares = platform._shares  # replaced wholesale by set_shares
        # Executions passed at their share, and the entries passed before
        # one was scanned again (see _unpark); made on first use.
        parked: Optional[Dict[int, Execution]] = None
        held: Optional[Dict[int, List[_Entry]]] = None
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
            started = False
            if not execution.failed:
                share = shares.get(eid)
                if share is not None and running.get(eid, 0) >= share:
                    heappop(heads)
                    if parked is None:
                        parked, held = {}, {}
                    parked[eid] = execution
                    continue
                self._len -= 1
                head = queue[0]
                if not start(head[1], head[2]):
                    self._len += 1
                    break
                started = True
            else:
                self._len -= 1
            queue.popleft()
            if queue:
                heapreplace(heads, (queue[0][0], eid))
            else:
                heappop(heads)
                del queues[eid]
            if started:
                if parked:
                    self._unpark(parked, held, key, shares)
                shares = platform._shares
        if parked is None:
            return
        rejoin = parked
        if held:
            for eid, passed in held.items():
                entry = queues.get(eid)
                if entry is None:
                    entry = queues[eid] = (passed[0][1].execution, deque())
                entry[1].extendleft(reversed(passed))
            rejoin = parked.keys() | held.keys()
        for eid in rejoin:
            heappush(heads, (queues[eid][1][0][0], eid))

    def _unpark(
        self,
        parked: Dict[int, Execution],
        held: Dict[int, List[_Entry]],
        pos: int,
        shares: Dict[int, int],
    ) -> None:
        """After a start at key *pos*: a parked execution that failed, or
        whose share grew, is scanned again from *pos* on.  Its entries up
        to *pos* were passed, and stay held until the take ends."""
        platform = self._platform
        moved = platform._shares is not shares
        for eid, execution in list(parked.items()):
            if not execution.failed:
                if not moved:
                    continue
                share = platform._shares.get(eid)
                if share is not None and platform._exec_running.get(eid, 0) >= share:
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
