"""Continuation-passing interpreter: skeleton AST → muscle tasks + events.

This module is the execution semantics of the library.  It decomposes a
skeleton program into :class:`~repro.runtime.task.MuscleTask` units, wires
them together with continuations and barriers, and emits the statically
defined events of every pattern (see the per-skeleton modules under
:mod:`repro.skeletons` for the event vocabularies).

Design rules:

* **every muscle execution is exactly one task** — the schedulable unit
  the platform assigns to a worker and, on the simulator, the unit that
  consumes virtual time;
* **BEFORE/AFTER events are emitted by the task phases** on the worker
  that runs the muscle (the paper's same-thread guarantee);
* **control markers** (``farm@b``, ``pipe@bn`` …) take no worker time;
  they are emitted inline from continuations.  The per-child markers of a
  fan-out (Map/Fork/D&C ``@bn``) are **batched**: one
  :meth:`~repro.events.bus.EventBus.publish_batch` transaction publishes
  all of them — one listener snapshot, one monitor-lock acquisition —
  whenever the children's sub-skeletons do not themselves emit events
  inline at start (Seq/Map/Fork/If/D&C children qualify; Farm/Pipe/
  While/For children emit their own ``@b`` during ``_start``, so their
  markers stay per-event to preserve the exact event order);
* **three shapes, each written once**: around its nested skeletons every
  pattern is a *fan-out* (split task → one child per part → barrier →
  merge task: Map, Fork, a D&C division), a *condition step* (one
  condition task whose boolean picks what runs next: While, If, a D&C
  node) or a *stage loop* (nested instances one after another: Pipe,
  For); Seq is one task and Farm wraps its one nested instance;
* **instance indices**: every skeleton-instance execution draws a fresh
  index; all its events carry that index (the ``i`` of the paper), plus
  the parent instance's index, which is how the autonomic layer attaches
  tracking machines to their parents.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from ..errors import ExecutionError
from ..events.batch import EventBatch
from ..events.types import Event, When, Where
from ..skeletons.base import Skeleton
from ..skeletons.conditional import If
from ..skeletons.dac import DivideAndConquer
from ..skeletons.farm import Farm
from ..skeletons.fork import Fork
from ..skeletons.loops import For, While
from ..skeletons.pipe import Pipe
from ..skeletons.seq import Seq
from ..skeletons.smap import Map
from .futures import SkeletonFuture
from .platform import Platform
from .task import Barrier, ConditionBody, Execution, MuscleTask

__all__ = ["submit", "run"]

Continuation = Callable[[Any], None]


class _Instance:
    """Execution context of one skeleton-instance (one index)."""

    __slots__ = ("skel", "index", "parent_index", "trace", "index_trace", "state")

    def __init__(self, skel: Skeleton, parent: Optional["_Instance"], state: "_ExecState"):
        self.skel = skel
        self.state = state
        self.index = state.indices.next()
        if parent is None:
            self.parent_index: Optional[int] = None
            self.trace: Tuple[Skeleton, ...] = (skel,)
            self.index_trace: Tuple[int, ...] = (self.index,)
        else:
            self.parent_index = parent.index
            self.trace = parent.trace + (skel,)
            self.index_trace = parent.index_trace + (self.index,)

    def build_event(
        self,
        when: When,
        where: Where,
        value: Any,
        worker: Optional[int] = None,
        **extra: Any,
    ) -> Event:
        """Construct (without publishing) one event for this instance."""
        platform = self.state.platform
        ctx = self.state.execution.trace
        return Event(
            skeleton=self.skel,
            kind=self.skel.kind,
            when=when,
            where=where,
            index=self.index,
            parent_index=self.parent_index,
            value=value,
            timestamp=platform.now(),
            trace=self.trace,
            index_trace=self.index_trace,
            worker=worker if worker is not None else platform.current_worker(),
            extra=extra,
            execution_id=self.state.execution.id,
            trace_id=ctx.trace_id if ctx is not None else None,
            span_id=ctx.span_id if ctx is not None else None,
        )

    def emit(
        self,
        when: When,
        where: Where,
        value: Any,
        worker: Optional[int] = None,
        **extra: Any,
    ) -> Any:
        """Publish one event for this instance; returns the final value."""
        return self.state.platform.bus.publish(
            self.build_event(when, where, value, worker=worker, **extra)
        )


class _ExecState:
    """Per-top-level-execution shared state (indices, platform, failure)."""

    __slots__ = ("platform", "indices", "execution")

    def __init__(self, platform: Platform, execution: Execution):
        self.platform = platform
        self.indices = platform.indices  # platform-scoped uniqueness
        self.execution = execution


def submit(
    skel: Skeleton,
    value: Any,
    platform: Platform,
    execution: Optional[Execution] = None,
) -> SkeletonFuture:
    """Start executing *skel* on *value*; return the result future.

    This is what :meth:`Skeleton.input` delegates to.  On the simulator
    the returned future drives the event loop when ``get()`` is called; on
    the thread pool the execution proceeds asynchronously right away.

    *execution* lets a caller pre-create the :class:`Execution` (with a
    future from :meth:`Platform.new_future`): the multi-tenant service
    needs the execution id *before* the first event is published, to
    register execution-scoped listeners and worker shares up front.
    """
    if execution is None:
        execution = Execution(platform.new_future())
    if execution.trace is None:
        # Trace identity is minted unconditionally (two string ids per
        # execution); whether *spans* are recorded is the tracer's
        # sampling decision, not the interpreter's.
        execution.trace = platform.tracer.new_context()
    future = execution.future
    state = _ExecState(platform, execution)

    def root_continuation(result: Any) -> None:
        execution.finish(result)

    try:
        _start(skel, value, state, None, root_continuation)
    except Exception as exc:  # structural errors surface via the future too
        execution.fail(exc)
    return future


def run(skel: Skeleton, value: Any, platform: Platform) -> Any:
    """Synchronously execute *skel* on *value* and return the result."""
    return submit(skel, value, platform).get()


# ---------------------------------------------------------------------------
# dispatch


def _start(
    skel: Skeleton,
    value: Any,
    state: _ExecState,
    parent: Optional[_Instance],
    cont: Continuation,
) -> None:
    """Begin execution of one skeleton instance."""
    if state.execution.failed:
        return
    inst = _Instance(skel, parent, state)
    starter = _STARTERS.get(type(skel))
    if starter is None:
        raise ExecutionError(f"no interpreter for skeleton type {type(skel).__name__}")
    starter(skel, value, state, inst, cont)


def _guarded(state: _ExecState, fn: Callable[[Any], None]) -> Continuation:
    """Wrap a continuation so library/listener errors fail the execution."""

    def guarded(result: Any) -> None:
        if state.execution.failed:
            return
        try:
            fn(result)
        except Exception as exc:
            state.execution.fail(exc)

    return guarded


def _submit_task(
    state: _ExecState,
    inst: _Instance,
    muscle,
    value: Any,
    before_events,
    after_events,
    continuation: Continuation,
    body: Optional[Callable[[Any], Any]] = None,
    label: str = "",
    event_payload: Callable[[Any], Any] = lambda result: result,
    rebuild: Callable[[Any, Any], Any] = lambda result, payload: payload,
) -> None:
    """Build and submit one muscle task.

    ``before_events`` / ``after_events`` are lists of
    ``(when, where, extra_fn)`` tuples where ``extra_fn(body_result)``
    produces the event extras (so e.g. ``fs_card`` can depend on the split
    result).  Events are emitted in list order.

    Condition tasks internally compute ``(value, bool)`` pairs; they pass
    ``event_payload`` to publish only the partial solution on the event
    and ``rebuild`` to re-attach the boolean to whatever the listeners
    returned, so user listeners never see interpreter internals.
    """

    def emit_before(worker: Optional[int]) -> Any:
        current = value
        for when, where, extra_fn in before_events:
            current = inst.emit(
                when, where, current, worker=worker, **(extra_fn(current) or {})
            )
        return current

    def emit_after(result: Any, worker: Optional[int]) -> Any:
        payload = event_payload(result)
        # Platforms that learn the body's true start after the fact (the
        # process pool ships worker-side timestamps back with results) set
        # task.started_at before calling us; attaching it to the AFTER
        # events lets tracking machines correct BEFORE-stamped spans.
        started = {"started_at": task.started_at} if task.started_at is not None else {}
        for when, where, extra_fn in after_events:
            payload = inst.emit(
                when, where, payload, worker=worker,
                **{**(extra_fn(result) or {}), **started},
            )
        return rebuild(result, payload)

    task = MuscleTask(
        muscle=muscle,
        value=value,
        emit_before=emit_before,
        body=body,
        emit_after=emit_after,
        continuation=_guarded(state, continuation),
        execution=state.execution,
        label=label or f"{inst.skel.kind}#{inst.index}:{muscle.name}",
    )
    state.platform.submit(task)


_NO_EXTRA = lambda _v: {}

#: The extras of an instance whose events carry none (shared, never mutated).
_NO_EXTRAS: dict = {}

#: Skeletons whose ``_start`` publishes events inline before any task is
#: submitted; starting them must stay interleaved with their fan-out
#: markers, so marker batching is skipped for children of these kinds.
_INLINE_EMITTING = (Farm, Pipe, While, For)


def _fanout_markers(inst: _Instance, parts, extra: dict) -> Optional[list]:
    """Batch-publish a fan-out's per-child ``BEFORE NESTED`` markers.

    Returns the listener-transformed child values (one bus transaction
    covering the whole fan-out), or ``None`` when batching is not
    worthwhile (a single child) — the caller then falls back to the
    classic per-child ``emit``.  The markers are independent events (one
    value pipeline per child), which is exactly the contract
    :meth:`~repro.events.bus.EventBus.publish_batch` requires.
    """
    if len(parts) <= 1:
        return None
    platform = inst.state.platform
    worker = platform.current_worker()
    batch = EventBatch(
        inst.build_event(
            When.BEFORE, Where.NESTED, part, worker=worker, child=j, **extra
        )
        for j, part in enumerate(parts)
    )
    return platform.bus.publish_batch(batch)


# ---------------------------------------------------------------------------
# the three shapes (see the design rules above)


def _fan_out(
    skel,
    value: Any,
    state: _ExecState,
    inst: _Instance,
    cont: Continuation,
    subs,
    start_child: Callable[..., None],
    extra: dict = _NO_EXTRAS,
    begins: bool = True,
) -> None:
    """Split → one nested child per part → barrier → merge.

    *subs* is the sub-skeleton every part runs (Map; a D&C division,
    whose parts are nodes of the D&C itself) or the tuple of one
    sub-skeleton per part (Fork, whose split must produce exactly that
    many parts).  ``start_child(sub, part, state, inst, cont)`` starts one
    child, with :func:`_start`'s signature.  *extra* holds the extras every
    event of the instance carries (a D&C node's ``depth``; read-only);
    *begins* says whether the split task also emits the instance's ``@b``
    (a D&C node emitted it with its condition).
    """
    per_part = isinstance(subs, tuple)
    inline = (
        any(isinstance(s, _INLINE_EMITTING) for s in subs)
        if per_part
        else isinstance(subs, _INLINE_EMITTING)
    )
    same = lambda _v: extra
    if extra:
        def nested(when: When, v: Any, j: int) -> Any:
            return inst.emit(when, Where.NESTED, v, child=j, **extra)
    else:
        def nested(when: When, v: Any, j: int) -> Any:
            return inst.emit(when, Where.NESTED, v, child=j)

    def merge_ready(results) -> None:
        _submit_task(
            state,
            inst,
            skel.merge,
            results,
            before_events=[(When.BEFORE, Where.MERGE, same)],
            after_events=[
                (When.AFTER, Where.MERGE, same),
                (When.AFTER, Where.SKELETON, same),
            ],
            continuation=cont,
        )

    def split_done(parts) -> None:
        parts = list(parts)
        if per_part and len(parts) != len(subs):
            raise ExecutionError(
                f"fork split produced {len(parts)} sub-problems for "
                f"{len(subs)} nested skeletons"
            )
        barrier = Barrier(len(parts), _guarded(state, merge_ready))
        batched = None if inline else _fanout_markers(inst, parts, extra)
        for j, part in enumerate(parts if batched is None else batched):
            if batched is None:
                part = nested(When.BEFORE, part, j)

            def child_done(result: Any, j: int = j) -> None:
                barrier.arrive(j, nested(When.AFTER, result, j))

            sub = subs[j] if per_part else subs
            start_child(sub, part, state, inst, _guarded(state, child_done))

    split_before = [(When.BEFORE, Where.SPLIT, same)]
    if begins:
        split_before.insert(0, (When.BEFORE, Where.SKELETON, same))
    _submit_task(
        state,
        inst,
        skel.split,
        value,
        before_events=split_before,
        after_events=[
            (When.AFTER, Where.SPLIT, lambda parts: {**extra, "fs_card": len(parts)})
        ],
        continuation=split_done,
    )


def _submit_condition(
    skel,
    value: Any,
    state: _ExecState,
    inst: _Instance,
    cont: Continuation,
    extra: dict = _NO_EXTRAS,
    begins: bool = False,
) -> None:
    """Run *skel*'s condition muscle as one task.

    The task computes a ``(value, flag)`` pair: its events carry only the
    value (plus ``cond_result`` after), listeners transform only that,
    and *cont* receives the rebuilt pair.  *extra* rides every event
    (read-only); *begins* says whether the task also emits the instance's
    ``@b`` (While emitted it inline before its first condition).
    """
    same = lambda _v: extra
    before = [(When.BEFORE, Where.CONDITION, same)]
    if begins:
        before.insert(0, (When.BEFORE, Where.SKELETON, same))
    _submit_task(
        state,
        inst,
        skel.condition,
        value,
        before_events=before,
        after_events=[
            (When.AFTER, Where.CONDITION, lambda pair: {**extra, "cond_result": pair[1]})
        ],
        continuation=cont,
        body=ConditionBody(skel.condition),
        event_payload=lambda pair: pair[0],
        rebuild=lambda pair, v: (v, pair[1]),
    )


def _run_stages(
    stages, key: str, value: Any, state: _ExecState, inst: _Instance, cont: Continuation
) -> None:
    """Run *stages* one after another, each a nested instance.

    ``@b``, then per stage ``k`` a ``@bn``/``@an`` pair carrying
    ``{key: k}`` around it, then ``@a``.
    """
    value = inst.emit(When.BEFORE, Where.SKELETON, value)

    def run_stage(k: int, current: Any) -> None:
        if k == len(stages):
            cont(inst.emit(When.AFTER, Where.SKELETON, current))
            return
        current = inst.emit(When.BEFORE, Where.NESTED, current, **{key: k})

        def stage_done(result: Any, k: int = k) -> None:
            run_stage(k + 1, inst.emit(When.AFTER, Where.NESTED, result, **{key: k}))

        _start(stages[k], current, state, inst, _guarded(state, stage_done))

    run_stage(0, value)


def _start_last(
    sub: Skeleton,
    value: Any,
    state: _ExecState,
    inst: _Instance,
    cont: Continuation,
    extra: dict = _NO_EXTRAS,
) -> None:
    """Start *sub* as the instance's last step; its result ends the instance."""

    def done(result: Any) -> None:
        cont(inst.emit(When.AFTER, Where.SKELETON, result, **extra))

    _start(sub, value, state, inst, _guarded(state, done))


# ---------------------------------------------------------------------------
# the patterns


def _start_seq(skel: Seq, value: Any, state: _ExecState, inst: _Instance, cont: Continuation) -> None:
    _submit_task(
        state,
        inst,
        skel.execute,
        value,
        before_events=[(When.BEFORE, Where.SKELETON, _NO_EXTRA)],
        after_events=[(When.AFTER, Where.SKELETON, _NO_EXTRA)],
        continuation=cont,
    )


def _start_farm(skel: Farm, value: Any, state: _ExecState, inst: _Instance, cont: Continuation) -> None:
    value = inst.emit(When.BEFORE, Where.SKELETON, value)
    _start_last(skel.subskel, value, state, inst, cont)


def _start_pipe(skel: Pipe, value: Any, state: _ExecState, inst: _Instance, cont: Continuation) -> None:
    _run_stages(skel.stages, "stage", value, state, inst, cont)


def _start_for(skel: For, value: Any, state: _ExecState, inst: _Instance, cont: Continuation) -> None:
    _run_stages((skel.subskel,) * skel.times, "iteration", value, state, inst, cont)


def _start_while(skel: While, value: Any, state: _ExecState, inst: _Instance, cont: Continuation) -> None:
    value = inst.emit(When.BEFORE, Where.SKELETON, value)

    def evaluate_condition(current: Any, iteration: int) -> None:
        def cond_done(pair) -> None:
            v, flag = pair
            if not flag:
                cont(inst.emit(When.AFTER, Where.SKELETON, v))
                return

            def body_done(result: Any) -> None:
                evaluate_condition(result, iteration + 1)

            _start(skel.subskel, v, state, inst, _guarded(state, body_done))

        _submit_condition(skel, current, state, inst, cond_done, {"iteration": iteration})

    evaluate_condition(value, 0)


def _start_if(skel: If, value: Any, state: _ExecState, inst: _Instance, cont: Continuation) -> None:
    def cond_done(pair) -> None:
        v, flag = pair
        _start_last(skel.true_skel if flag else skel.false_skel, v, state, inst, cont)

    _submit_condition(skel, value, state, inst, cond_done, begins=True)


def _start_map(skel: Map, value: Any, state: _ExecState, inst: _Instance, cont: Continuation) -> None:
    _fan_out(skel, value, state, inst, cont, skel.subskel, _start)


def _start_fork(skel: Fork, value: Any, state: _ExecState, inst: _Instance, cont: Continuation) -> None:
    _fan_out(skel, value, state, inst, cont, skel.subskels, _start)


# ---------------------------------------------------------------------------
# divide & conquer
#
# Every recursion node is its own skeleton instance (fresh index, parent =
# the enclosing dac node).  This mirrors the recursion tree into the event
# stream, which is exactly what the tracking machine needs to project the
# unexplored part of the tree from |fc| (estimated depth) and |fs| (fan-out).


def _start_dac(
    skel: DivideAndConquer,
    value: Any,
    state: _ExecState,
    inst: _Instance,
    cont: Continuation,
    depth: int = 0,
) -> None:
    extra = {"depth": depth}

    def start_node(sub, part, state, parent, child_cont) -> None:
        # Each sub-problem is a new dac *instance* one level deeper.  Its
        # condition is a task (no inline emits), so the markers batch.
        node = _Instance(sub, parent, state)
        _start_dac(sub, part, state, node, child_cont, depth + 1)

    def cond_done(pair) -> None:
        v, divide = pair
        if divide:
            _fan_out(skel, v, state, inst, cont, skel, start_node, extra, begins=False)
        else:
            _start_last(skel.subskel, v, state, inst, cont, extra)

    _submit_condition(skel, value, state, inst, cond_done, extra, begins=True)


_STARTERS = {
    Seq: _start_seq,
    Farm: _start_farm,
    Pipe: _start_pipe,
    While: _start_while,
    For: _start_for,
    If: _start_if,
    Map: _start_map,
    Fork: _start_fork,
    DivideAndConquer: _start_dac,
}
