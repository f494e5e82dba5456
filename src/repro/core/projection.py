"""Structural ADG projection of *not-yet-started* skeleton work.

When the tracking state machines project a live execution into an ADG,
parts of the program that have not produced any event yet (sub-problems
waiting for a worker, future loop iterations, the unexplored half of a
divide-and-conquer tree) have no machine to ask.  This module projects
those parts purely from the skeleton structure and the current estimates
``t(m)`` / ``|m|`` — exactly the "estimated activities" (white boxes) of
the paper's Figure 1.

The projection of each pattern mirrors the interpreter's task
decomposition one-to-one: the activities added here are the muscle tasks
the interpreter *will* submit, with the same dependency shape, so a
projected ADG converges to the actual trace as execution proceeds.
"""

from __future__ import annotations

from typing import List

from ..errors import ADGError
from ..skeletons.base import Skeleton
from ..skeletons.conditional import If
from ..skeletons.dac import DivideAndConquer
from ..skeletons.farm import Farm
from ..skeletons.fork import Fork
from ..skeletons.loops import For, While
from ..skeletons.pipe import Pipe
from ..skeletons.seq import Seq
from ..skeletons.smap import Map
from .adg import ADG
from .estimator import EstimatorRegistry

__all__ = ["project_skeleton", "heavier_branch", "projected_wct", "estimated_total_work"]


def project_skeleton(
    skel: Skeleton,
    adg: ADG,
    preds: List[int],
    est: EstimatorRegistry,
) -> List[int]:
    """Append the estimated activities of *skel* to *adg*.

    ``preds`` are the activity ids the first muscle(s) of *skel* depend
    on; the return value is the list of terminal activity ids other work
    may depend on.  Raises :class:`EstimateNotReadyError` when a needed
    estimate is missing — callers gate on
    :meth:`EstimatorRegistry.ready_for`.
    """
    if isinstance(skel, Seq):
        aid = adg.add_muscle(skel.execute, est, preds, "execute")
        return [aid]

    if isinstance(skel, Farm):
        return project_skeleton(skel.subskel, adg, preds, est)

    if isinstance(skel, Pipe):
        current = preds
        for stage in skel.stages:
            current = project_skeleton(stage, adg, current, est)
        return current

    if isinstance(skel, For):
        current = preds
        for _ in range(skel.times):
            current = project_skeleton(skel.subskel, adg, current, est)
        return current

    if isinstance(skel, While):
        # |fc| estimated true evaluations: (cond → body) × n, then the
        # final false condition evaluation.
        n = est.card_int_zero(skel.condition)
        current = preds
        for _ in range(n):
            cond = adg.add_muscle(skel.condition, est, current, "condition")
            current = project_skeleton(skel.subskel, adg, [cond], est)
        final = adg.add_muscle(skel.condition, est, current, "condition")
        return [final]

    if isinstance(skel, If):
        # Paper-unsupported pattern (ADG duplication); the extension
        # projects the branch with the larger estimated total work — a
        # conservative stand-in until the condition is observed.
        cond = adg.add_muscle(skel.condition, est, preds, "condition")
        return project_skeleton(heavier_branch(skel, adg, est), adg, [cond], est)

    if isinstance(skel, Map):
        split = adg.add_muscle(skel.split, est, preds, "split")
        terminals: List[int] = []
        for _ in range(est.card_int(skel.split)):
            terminals.extend(project_skeleton(skel.subskel, adg, [split], est))
        merge = adg.add_muscle(skel.merge, est, terminals, "merge")
        return [merge]

    if isinstance(skel, Fork):
        split = adg.add_muscle(skel.split, est, preds, "split")
        terminals = []
        for sub in skel.subskels:
            terminals.extend(project_skeleton(sub, adg, [split], est))
        merge = adg.add_muscle(skel.merge, est, terminals, "merge")
        return [merge]

    if isinstance(skel, DivideAndConquer):
        depth = est.card_int_zero(skel.condition)
        return _project_dac(skel, adg, preds, est, remaining_depth=depth)

    raise ADGError(f"cannot project skeleton type {type(skel).__name__}")


def heavier_branch(skel: If, adg: ADG, est: EstimatorRegistry) -> Skeleton:
    """The branch of *skel* to project before its condition is known:
    the one with the larger estimated total work.

    The only place a projection's *shape* is chosen from ``t(m)``
    values rather than from ``|m|`` integers, so *adg* is marked
    (:attr:`~repro.core.adg.ADG.shape_reads_times`): a moved estimate
    re-walks such a graph instead of retiming it.
    """
    adg.shape_reads_times = True
    return max(
        (skel.true_skel, skel.false_skel),
        key=lambda b: estimated_total_work(b, est),
    )


def _project_dac(
    skel: DivideAndConquer,
    adg: ADG,
    preds: List[int],
    est: EstimatorRegistry,
    remaining_depth: int,
) -> List[int]:
    """Project one d&c recursion node with *remaining_depth* levels left.

    ``|fc|`` estimates the recursion-tree depth (paper Section 4): a node
    with remaining depth 0 is a leaf (condition returns false → nested
    skeleton); deeper nodes divide into ``|fs|`` children.
    """
    cond = adg.add_muscle(skel.condition, est, preds, "condition")
    if remaining_depth <= 0:
        return project_skeleton(skel.subskel, adg, [cond], est)
    split = adg.add_muscle(skel.split, est, [cond], "split")
    terminals: List[int] = []
    for _ in range(est.card_int(skel.split)):
        terminals.extend(
            _project_dac(skel, adg, [split], est, remaining_depth - 1)
        )
    merge = adg.add_muscle(skel.merge, est, terminals, "merge")
    return [merge]


def projected_wct(
    skel: Skeleton, est: EstimatorRegistry, lp: int, start: float = 0.0
) -> float:
    """Projected WCT of a fresh *skel* execution under *lp* workers.

    Projects the structural ADG and list-schedules it — the feasibility
    arithmetic the admission controller runs before any task exists.
    Raises :class:`~repro.errors.EstimateNotReadyError` when an estimate
    is missing; callers gate on :meth:`EstimatorRegistry.ready_for`.
    """
    from .schedule import limited_lp_schedule

    adg = ADG()
    project_skeleton(skel, adg, [], est)
    return limited_lp_schedule(adg, start, lp).wct


def estimated_total_work(skel: Skeleton, est: EstimatorRegistry) -> float:
    """Total estimated sequential work of *skel* (sum of all ``t(m)``).

    Used to pick the conservative branch of an If projection and by the
    controller's decision log for observability.  Summed directly over
    the skeleton structure — no ADG is allocated — adding the same
    ``t(m)`` terms in the same order as a projection walk would create
    activities, so the value equals ``sum(a.duration for a in adg)`` of
    :func:`project_skeleton`'s output bit for bit (float addition is
    order-sensitive; the order is preserved, and both sums start from an
    exact zero).  That matters because :func:`project_skeleton` calls
    this for **every** ``If`` to pick the conservative branch — the old
    implementation projected a throwaway ADG per If per walk.
    """
    return _sum_work(skel, est, 0.0)


def _sum_work(skel: Skeleton, est: EstimatorRegistry, acc: float) -> float:
    """Thread *acc* through *skel*'s ``t(m)`` terms in projection order."""
    if isinstance(skel, Seq):
        return acc + est.t(skel.execute)

    if isinstance(skel, Farm):
        return _sum_work(skel.subskel, est, acc)

    if isinstance(skel, Pipe):
        for stage in skel.stages:
            acc = _sum_work(stage, est, acc)
        return acc

    if isinstance(skel, For):
        for _ in range(skel.times):
            acc = _sum_work(skel.subskel, est, acc)
        return acc

    if isinstance(skel, While):
        n = est.card_int_zero(skel.condition)
        tc = est.t(skel.condition)
        for _ in range(n):
            acc = _sum_work(skel.subskel, est, acc + tc)
        return acc + tc

    if isinstance(skel, If):
        branch = max(
            (skel.true_skel, skel.false_skel),
            key=lambda b: estimated_total_work(b, est),
        )
        return _sum_work(branch, est, acc + est.t(skel.condition))

    if isinstance(skel, Map):
        acc += est.t(skel.split)
        for _ in range(est.card_int(skel.split)):
            acc = _sum_work(skel.subskel, est, acc)
        return acc + est.t(skel.merge)

    if isinstance(skel, Fork):
        acc += est.t(skel.split)
        for sub in skel.subskels:
            acc = _sum_work(sub, est, acc)
        return acc + est.t(skel.merge)

    if isinstance(skel, DivideAndConquer):
        depth = est.card_int_zero(skel.condition)
        return _sum_dac(skel, est, acc, remaining_depth=depth)

    raise ADGError(f"cannot project skeleton type {type(skel).__name__}")


def _sum_dac(
    skel: DivideAndConquer,
    est: EstimatorRegistry,
    acc: float,
    remaining_depth: int,
) -> float:
    acc += est.t(skel.condition)
    if remaining_depth <= 0:
        return _sum_work(skel.subskel, est, acc)
    acc += est.t(skel.split)
    for _ in range(est.card_int(skel.split)):
        acc = _sum_dac(skel, est, acc, remaining_depth - 1)
    return acc + est.t(skel.merge)
