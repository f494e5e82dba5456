"""The planning engine — one seam under analyzer, admission and arbiter.

Every plan the runtime makes goes one way: machines or skeleton →
:class:`~repro.core.planning.table.PlanTable` → compiled pin / critical
path / frontier pass.  (:mod:`repro.core.schedule` holds the same
algorithms over ``Activity`` dicts as the readable reference of the
paper's §4; nothing here calls it.)  :class:`PlanEngine` owns that path
behind explicit invalidation:

* **projections** are kept per ``(machine revision, estimator
  version)`` — an execution that produced no events since the last
  rebalance reuses its projected ADG outright (projection walks machine
  state and estimates only; it is independent of *now*);
* **structural plans** (pre-start analysis, admission gates) are
  compiled straight from the skeleton and memoized *across engines* by
  ``(structural fingerprint, estimate values)`` in the shared
  :class:`~repro.core.planning.cache.PlanCache`, so same-shape
  submissions share one table without any walk
  (:meth:`PlanEngine.structural_plan`), and every schedule derived from
  one is kept beside it under the plan's engine-independent token;
* **a live graph's plans live on its record** — the pinned base, the
  critical-path priorities, the best-effort and limited-LP schedules
  and the minimal-LP answers, for the graph's current revision and one
  *now*, dropped when either moves.  They key on the *graph's*
  revision, so a window of pure no-ops, which moves the machine
  revision but not the graph, keeps them.  The pinned actuals
  (``compiled_pin``) and the priorities (``compiled_critical_path``)
  are computed once per ``(revision, now)`` / per revision, and a
  limited-LP plan re-schedules only the pending frontier
  (``compiled_schedule_pending``, all three in
  :mod:`repro.core.planning.table`).  The best-effort pass is a pass
  over the same pinned base, and nothing runs it unless a best-effort
  quantity is read (:class:`~repro.core.analysis.AnalysisReport` keeps
  the base instead of the pass).  A minimal-LP scan mostly runs no
  pass at all: it prunes an LP below the work bound, certifies one
  above Graham's list-scheduling bound, and runs a frontier pass only
  for an LP in the gap.  Its top is the best-effort peak, asked for
  only once a candidate exceeds the pinned base's peak floor, a count
  read off the pin (:meth:`PlanEngine.minimal_lp`);
* **admission arithmetic** schedules structural plans at ``start=0.0``,
  which is *now*-independent — held-queue re-evaluations hit the cache
  until an estimate actually changes.

What moved is paid for by what moved — the delta pipeline:

* **projection patching** — when the machine changelog
  (:meth:`~repro.core.statemachines.MachineRegistry.delta_since`)
  holds nothing structural since the previous live projection, the
  previous ADG is kept: a ``t(m)`` that moved retimes the rows that
  muscle feeds (:meth:`~repro.core.adg.ADG.retime`), machines the delta
  lists as attached (a started child, a split that landed the estimated
  cardinality, a nested completion) re-run their own ``project()``
  against a checking cursor over the ids they already occupy
  (:func:`~repro.core.statemachines.base.rebind`), and the spans the
  window's events moved are re-read in place — instead of re-walking
  every machine (``count_projection_patch``);
* **carried state** — per live graph the engine keeps one record: its
  table, its last pinned base, its last priority pair and its plans.
  One place (:meth:`PlanEngine._sync`) reads the ADG changelog: a
  non-structural window is written through to the table
  (``count_table_patch``) and its rows noted against the base and the
  pair, which are next advanced over exactly those rows
  (``compiled_pin_delta``, which walks only the base's running and
  frontier rows besides, ``count_pin_patch``;
  ``compiled_critical_path_delta``); a structural window recompiles the
  table and drops both.  The record a report's engine calls reach is
  resolved once per graph revision (:meth:`PlanEngine._resolve`).

**The from-scratch baseline** is ``PlanCache(maxsize=0)`` and nothing
else: an engine over a cache that stores nothing carries nothing either
— no previous projection, no table, no pinned base, no priority pair, no
plan on any record — so every call walks, compiles, pins and sweeps
anew.

Every answer is bit-for-bit equal to a from-scratch
:mod:`repro.core.schedule` recompute at the same arguments (a patched
graph equals the graph a full walk would rebuild, a compiled pass
performs the reference pass's float operations in its order), which the
plan-engine property tests pin.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Set, Tuple

from ...skeletons.base import Skeleton
from ..adg import ADG
from ..estimator import EstimatorRegistry
from ..projection import project_skeleton
from ..statemachines import MachineRegistry
from ..statemachines.base import rebind, refresh_from_sources
from .cache import PlanCache
from .compile import (
    CompiledProjection,
    compile_structural,
    structural_fingerprint,
    structural_values_key,
)
from .table import (
    CompiledPinnedBase,
    CompiledSchedule,
    PlanTable,
    compiled_best_effort,
    compiled_critical_path,
    compiled_critical_path_delta,
    compiled_pin,
    compiled_pin_delta,
    compiled_schedule_pending,
)

__all__ = ["PlanEngine"]

_EPS = 1e-9


class _Carried:
    """What the engine carries between plan calls for one ADG.

    Held by graph identity, weakly.  ``built`` marks a graph this engine
    built; of a foreign graph only the table is kept, nothing derived
    from it.  ``table`` is synced to graph revision ``rev``; ``base`` and
    ``pair`` are the last pinned base and ``(cp, prio)`` pair built for
    the graph, each with the rows the table has had written through
    since (what the next delta advances them over).  ``plans`` is
    ``(now, {key: plan})``: the graph's best-effort and limited-LP
    schedules and minimal-LP answers at revision ``rev`` and one *now*,
    dropped when either moves.
    """

    __slots__ = (
        "ref",
        "built",
        "table",
        "rev",
        "base",
        "base_stale",
        "pair",
        "pair_stale",
        "plans",
    )

    def __init__(self, adg: ADG):
        self.ref = weakref.ref(adg)
        self.built = False
        self.table: Optional[PlanTable] = None
        self.rev = -1
        self.base: Optional[CompiledPinnedBase] = None
        self.base_stale: Set[int] = set()
        self.pair: Optional[Tuple] = None
        self.pair_stale: Set[int] = set()
        self.plans: Optional[Tuple[float, Dict]] = None


class PlanEngine:
    """Cached schedule/LP/WCT computation for one execution (module docs).

    Parameters
    ----------
    machines:
        The execution's tracking-machine registry (live projections key
        on its :attr:`~repro.core.statemachines.MachineRegistry.rev`).
    estimators:
        The execution's estimator registry (projections key on its
        :attr:`~repro.core.estimator.EstimatorRegistry.version`).
    skeleton:
        Optional program structure, enabling the structural plan used by
        pre-start analysis and the admission gates.
    cache:
        The backing :class:`~repro.core.planning.cache.PlanCache`: the
        structural memo and the plans derived from structural plans,
        shared across engines (the service shares one service-wide), and
        the work counters.  ``None`` creates a private cache.
        ``PlanCache(maxsize=0)`` is the from-scratch baseline: the engine
        then carries nothing between calls either.
    """

    def __init__(
        self,
        machines: MachineRegistry,
        estimators: EstimatorRegistry,
        skeleton: Optional[Skeleton] = None,
        cache: Optional[PlanCache] = None,
    ):
        self.machines = machines
        self.estimators = estimators
        self.skeleton = skeleton
        self.cache = cache if cache is not None else PlanCache()
        # id(adg) -> carried record of every graph plan calls were
        # handed; empty for good over a cache that stores nothing.
        self._carried: Dict[int, _Carried] = {}
        # roots_key -> (machines rev, estimator version, adg, adg rev at
        # build/patch): the previous live projection — the projection
        # itself while both versions stand, else the patch candidate.
        self._live_prev: Dict[Tuple, Tuple[int, int, ADG, int]] = {}
        # (estimator version, adg, adg rev at build): the structural ADG.
        self._struct_adg: Optional[Tuple[int, ADG, int]] = None
        # (adg, adg rev, table, record): the graph resolved last.
        self._resolved: Optional[Tuple] = None
        # Lazy identity of the skeleton's structure (stable for the
        # engine's lifetime) and the estimate values the structural memo
        # keys on, re-derived only when the estimator version moves.
        self._struct_fp: Optional[str] = None
        self._struct_vkey: Optional[Tuple[int, Tuple]] = None
        self._lock = threading.RLock()

    # -- carried state ---------------------------------------------------------------

    def _record(self, adg: ADG) -> _Carried:
        """The carried record of *adg*, created on first sight — and
        kept, unless the cache stores nothing: then each call gets a
        blank one (a graph never seen, not built here) that nobody
        holds."""
        with self._lock:
            rec = self._carried.get(id(adg))
            if rec is None or rec.ref() is not adg:
                rec = _Carried(adg)
                if self.cache.maxsize:
                    if len(self._carried) > 64:
                        self._carried = {
                            key: held
                            for key, held in self._carried.items()
                            if held.ref() is not None
                        }
                    self._carried[id(adg)] = rec
        return rec

    def _remember(self, adg: ADG) -> None:
        """Mark *adg* as built by this engine: its plans are kept."""
        with self._lock:
            self._record(adg).built = True
            self._resolved = None

    def _sync(self, rec: _Carried, adg: ADG) -> None:
        """Bring *rec* to *adg*'s revision — the one reader of the ADG
        changelog.

        A non-structural window is written through to the table in place
        (``count_table_patch``) and its rows noted against the carried
        base and pair, which are next advanced over exactly those rows;
        anything else — first sight, a structural change, a window
        some caller compacted away — compiles afresh
        (``count_table_compile``) and drops both.  The plans kept for the
        old revision go either way.  The changelog of an engine-built
        graph is then compacted up to here: the record now holds all
        that a later delta needs.
        """
        if rec.rev == adg.rev:
            return
        delta = adg.delta_since(rec.rev) if rec.table is not None else None
        if delta is None or delta.structural:
            rec.table = PlanTable.compile(adg)
            rec.base = rec.pair = None
            self.cache.count_table_compile()
        else:
            rec.table.refresh(adg, delta.touched)
            self.cache.count_table_patch()
            if rec.base is not None:
                rec.base_stale.update(delta.touched)
            if rec.pair is not None:
                rec.pair_stale.update(delta.touched)
        rec.plans = None
        rec.rev = adg.rev
        if rec.built:
            adg.compact_changelog(adg.rev)

    def _resolve(
        self, adg: ADG
    ) -> Tuple[Optional[Tuple], PlanTable, Optional[_Carried]]:
        """``(shared token, table, record)`` of *adg*: the table, and
        where plans derived from it are kept.

        An engine-built graph keeps its plans on its record (token
        ``None``).  A :class:`CompiledProjection` *is* its table
        (immutable, no record) and carries an engine-independent token
        (shape fingerprint + estimate values), so schedules derived from
        a shared structural plan are kept in the shared cache under it,
        across engines.  Neither — a foreign graph, or nothing carried —
        means "compute, keep nothing".  Mutating a projected ADG
        (``add``/``touch``) moves its revision, which drops every plan
        the record held for the old one.

        The graph resolved last is remembered at its revision, so the
        engine calls one report makes over one graph reach the record
        without another lookup or sync until the graph moves.
        """
        if type(adg) is CompiledProjection:
            return adg.token, adg.table, None
        last = self._resolved
        if last is not None and last[0] is adg and last[1] == adg.rev:
            return None, last[2], last[3]
        with self._lock:
            rec = self._record(adg)
            self._sync(rec, adg)
            kept = rec if rec.built else None
            if self.cache.maxsize:
                self._resolved = (adg, rec.rev, rec.table, kept)
        return None, rec.table, kept

    def _kept(
        self, token: Optional[Tuple], rec: Optional[_Carried], now: float, key: Tuple
    ):
        """The plan kept under *key* for the graph at *now*, or ``None``."""
        if rec is not None:
            with self._lock:
                plans = rec.plans
                if plans is not None and plans[0] == now:
                    return plans[1].get(key)
            return None
        if token is not None:
            return self.cache.get((token, now) + key)
        return None

    def _keep(
        self,
        token: Optional[Tuple],
        rec: Optional[_Carried],
        now: float,
        key: Tuple,
        plan,
    ):
        """Keep *plan* under *key* for the graph at *now*; returns it."""
        if rec is not None:
            with self._lock:
                plans = rec.plans
                if plans is None or plans[0] != now:
                    plans = rec.plans = (now, {})
                plans[1][key] = plan
        elif token is not None:
            self.cache.put((token, now) + key, plan)
        return plan

    # -- projections ---------------------------------------------------------------

    def projection(self, now: float, roots: Optional[List] = None) -> ADG:
        """The live execution's projected ADG (kept per revision).

        Projection reads machine state and estimates only — *now* is
        threaded through for interface compatibility but does not shape
        the result — so the previous projection of the same root set is
        served again while ``(machines.rev, estimators.version)`` stands
        and nobody mutated it: an execution with no new events reuses
        its ADG across rebalances.

        Otherwise the **patch path** runs first (:meth:`_patch_projection`):
        when the machine changelog holds nothing structural since the
        previous projection, the previous ADG is kept and retimed,
        re-bound and refreshed in place — no machine is re-walked, no
        table recompiled.  A structural change (a new or finished root, a
        cardinality other than the projected one, condition outcomes), a
        ``|m|`` estimate that crossed an integer or a bind that finds
        another shape fall back to the full walk.
        """
        roots_key = (
            None if roots is None else tuple(m.index for m in roots)
        )
        # The machine lock makes (rev, projection) consistent under
        # concurrent worker-thread publishes.
        with self.machines.lock:
            rev = self.machines.rev
            est_version = self.estimators.version
            with self._lock:
                prev = self._live_prev.get(roots_key)
            if prev is not None:
                prev_rev, prev_est_version, adg, adg_rev = prev
                if adg.rev != adg_rev:
                    # Mutated behind the engine: rebuilt, not served or
                    # patched — matching the pre-engine behaviour, where
                    # each analysis projected fresh.
                    prev = None
                elif prev_rev == rev and prev_est_version == est_version:
                    return adg
            adg = None
            if prev is not None:
                adg = self._patch_projection(prev, rev, est_version, now)
            if adg is None:
                adg, _terminals = self.machines.project_roots(now, roots)
                self.cache.count_projection_pass()
                self._remember(adg)
            with self._lock:
                if self.cache.maxsize:  # else nothing is carried
                    self._live_prev[roots_key] = (rev, est_version, adg, adg.rev)
                while len(self._live_prev) > 4:
                    # Evict the stalest candidate (root sets that are
                    # gone never patch again); keeping the map tiny
                    # also lets the changelog compact close behind
                    # the live frontier.
                    stalest = min(
                        self._live_prev, key=lambda k: self._live_prev[k][0]
                    )
                    del self._live_prev[stalest]
                oldest = min(
                    (r for r, _v, _a, _ar in self._live_prev.values()),
                    default=rev,
                )
            self.machines.compact_changelog(oldest)
            return adg

    def _patch_projection(
        self, prev: Tuple[int, int, ADG, int], rev: int, est_version: int, now: float
    ) -> Optional[ADG]:
        """Patch the previous projection *prev* (an entry of
        ``_live_prev``, unmutated since), or ``None``.

        ``None`` means "no sound patch exists — do the full walk": a
        structural delta, a compacted changelog window, estimates whose
        move may reshape the graph (a ``|m|`` that crossed an integer,
        an ``If`` branch picked by estimated work), or an attached
        machine whose projection does not fit the ids held for it
        (:func:`~repro.core.statemachines.base.rebind`) — another shape
        than estimated, no free slot.

        A moved ``t(m)`` alone is data, not shape: the estimator's
        changelog (:meth:`~repro.core.estimator.EstimatorRegistry.
        changed_since`) names the muscles, and :meth:`~repro.core.adg.
        ADG.retime` writes each one's current estimate through the rows
        it times — first, then the binds, then the span refresh.
        """
        prev_rev, prev_est_version, adg, _adg_rev = prev
        delta = self.machines.delta_since(prev_rev)
        if delta is None or delta.structural:
            return None
        if prev_est_version != est_version:
            moved = self.estimators.changed_since(prev_est_version)
            if moved is None or (moved and adg.shape_reads_times):
                return None
            # Before the binds (a bind compares estimated durations) and
            # before the refresh (a span that closed in this window ends
            # with its actual duration, not the new estimate).
            for muscle, t in moved.items():
                adg.retime(muscle, t)
        for index in delta.attached:
            if not rebind(adg, self.machines.machine(index), now):
                return None
        # Re-read the spans of the machines whose events moved them.  A
        # window of pure no-ops (fan-out markers bump the revision but
        # touch nothing) reads none — the old graph already *is* what a
        # fresh walk would build.
        refresh_from_sources(adg, delta.touched + delta.attached)
        self.cache.count_projection_patch()
        return adg

    def structural_projection(self) -> Optional[ADG]:
        """The skeleton's structural ADG (kept per estimator version).

        The ``Activity`` form of :meth:`structural_plan`, for callers
        that want a graph to look at; plans are made from the compiled
        one.  ``None`` exactly when that is.  A graph mutated since it
        was served is rebuilt, not served again.
        """
        if self.skeleton is None or not self.estimators.ready_for(self.skeleton):
            return None
        version = self.estimators.version
        held = self._struct_adg
        if held is not None and held[0] == version and held[1].rev == held[2]:
            return held[1]
        adg = ADG()
        project_skeleton(self.skeleton, adg, [], self.estimators)
        self.cache.count_projection_pass()
        if self.cache.maxsize:
            self._struct_adg = (version, adg, adg.rev)
        self._remember(adg)
        return adg

    def structural_plan(self) -> Optional[CompiledProjection]:
        """The skeleton's structural projection, compiled straight to a
        table and memoized *across engines* by program shape.

        The :class:`~repro.core.planning.compile.ProjectionCompiler`
        walks the skeleton structure once and emits the PlanTable
        columns directly — no ``Activity`` objects, no intermediate ADG
        — and the result is cached in the (shared) :class:`PlanCache`
        under ``(structural fingerprint, estimate values)``.  Identical
        program shapes at identical estimates — multi-tenant
        same-workload submissions, admission gates, held-queue
        re-promotions — therefore share one compiled table *and*, since
        the plan's token is engine-independent, every schedule derived
        from it (``count_struct_memo_hit`` / ``count_struct_compile``).

        ``None`` without a skeleton or while its estimates are cold.
        """
        if self.skeleton is None or not self.estimators.ready_for(self.skeleton):
            return None
        fp = self._struct_fp
        if fp is None:
            fp = self._struct_fp = structural_fingerprint(self.skeleton)
        version = self.estimators.version
        cached_vkey = self._struct_vkey
        if cached_vkey is not None and cached_vkey[0] == version:
            vkey = cached_vkey[1]
        else:
            vkey = structural_values_key(self.skeleton, self.estimators)
            self._struct_vkey = (version, vkey)
        key = ("cproj", fp, vkey)
        plan = self.cache.get(key)
        if plan is not None:
            self.cache.count_struct_memo_hit()
            return plan
        plan = compile_structural(
            self.skeleton, self.estimators, token=("cstruct", fp, vkey)
        )
        self.cache.count_struct_compile()
        return self.cache.put(key, plan)

    # -- kept schedule primitives ------------------------------------------------------

    def _critical_path_compiled(
        self, token: Optional[Tuple], table: PlanTable, rec: Optional[_Carried]
    ) -> Tuple:
        """``(cp array, prio heap entries)`` for *table*, kept per rev.

        The pair of a live graph is its record's, advanced over the rows
        written through since it was built by :func:`~repro.core.
        planning.table.compiled_critical_path_delta`, which recomputes
        only those rows and the predecessors a changed value reaches.
        """
        if rec is not None:
            with self._lock:
                pair = rec.pair
                if pair is None:
                    pair = compiled_critical_path(table)
                elif rec.pair_stale:
                    pair = compiled_critical_path_delta(table, pair, rec.pair_stale)
                else:
                    return pair
                rec.pair = pair
                rec.pair_stale.clear()
            return pair
        if token is None:
            return compiled_critical_path(table)
        key = ("ccp", token)
        pair = self.cache.get(key)
        if pair is None:
            pair = self.cache.put(key, compiled_critical_path(table))
        return pair

    def _pinned_compiled(
        self,
        adg: ADG,
        now: float,
        token: Optional[Tuple],
        table: PlanTable,
        rec: Optional[_Carried],
    ) -> CompiledPinnedBase:
        """The pinned-actuals base for (adg, now), patched when possible.

        The base of a live graph is its record's at the current revision
        and *now*; any other is the **delta re-pin** of it — advanced to
        the new *now* over the rows written through since
        (:func:`~repro.core.planning.table.compiled_pin_delta`,
        ``count_pin_patch``), equal, bit for bit, to a full
        :func:`~repro.core.planning.table.compiled_pin` pass.  An
        all-pending structural plan pins by pure array copies
        (:meth:`CompiledProjection.pinned_fresh`).
        """
        if rec is not None:
            with self._lock:
                base = rec.base
                if base is None:
                    base = compiled_pin(table, now)
                elif rec.base_stale or base.now != now:
                    base = compiled_pin_delta(table, now, base, rec.base_stale)
                    self.cache.count_pin_patch()
                else:
                    return base
                rec.base = base
                rec.base_stale.clear()
            return base
        if token is None:
            return compiled_pin(table, now)
        key = (token, now, "cpin")
        base = self.cache.get(key)
        if base is None:
            base = self.cache.put(key, adg.pinned_fresh(now))
        return base

    def table(self, adg: ADG) -> PlanTable:
        """The plan table of *adg* at its current revision."""
        return self._resolve(adg)[1]

    def pinned(self, adg: ADG, now: float) -> CompiledPinnedBase:
        """The pinned base of *adg* at its current revision and *now*
        (kept), the one every pass at that ``(rev, now)`` starts from.
        Its ``peak_floor`` bounds the optimal LP from below."""
        token, table, rec = self._resolve(adg)
        return self._pinned_compiled(adg, now, token, table, rec)

    def best_effort(self, adg: ADG, now: float) -> CompiledSchedule:
        """Best-effort (infinite LP) schedule, kept per (rev, now).

        A pass over the pending rows of the pinned base — shared with the
        frontier passes and the minimal-LP scan at the same ``(rev,
        now)``.  A graph with nothing pending is not scheduled: its plan
        is its pinned base.
        """
        token, table, rec = self._resolve(adg)
        result = self._kept(token, rec, now, ("cbe",))
        if result is not None:
            return result
        base = self._pinned_compiled(adg, now, token, table, rec)
        result = compiled_best_effort(table, base)
        if base.to_schedule:
            self.cache.count_schedule_pass()
        return self._keep(token, rec, now, ("cbe",), result)

    def limited(self, adg: ADG, now: float, lp: int) -> CompiledSchedule:
        """Limited-LP list schedule, kept per (rev, now, lp).

        Otherwise only the pending frontier is re-scheduled: the pinned
        actuals and the priority pair are kept on their own, shared
        across every LP of a scan; a base that left nothing to schedule
        is the plan at any LP, without the pair.
        """
        token, table, rec = self._resolve(adg)
        key = ("clim", lp)
        result = self._kept(token, rec, now, key)
        if result is not None:
            return result
        base = self._pinned_compiled(adg, now, token, table, rec)
        prio = None
        if base.to_schedule:
            prio = self._critical_path_compiled(token, table, rec)[1]
            self.cache.count_schedule_pass()
        result = compiled_schedule_pending(table, now, lp, base, prio)
        return self._keep(token, rec, now, key, result)

    # -- derived quantities -----------------------------------------------------------

    def optimal_lp(self, adg: ADG, now: float) -> int:
        """Peak future concurrency of the best-effort schedule."""
        return self.best_effort(adg, now).peak(from_time=now)

    def wct_at(self, adg: ADG, now: float, lp: int) -> float:
        """Projected WCT under *lp* workers."""
        return self.limited(adg, now, lp).wct

    def minimal_lp(
        self,
        adg: ADG,
        now: float,
        deadline: float,
        cap: Optional[int] = None,
        start_lp: int = 1,
    ) -> Optional[int]:
        """Smallest LP whose greedy schedule meets *deadline*, or ``None``.

        Same linear scan (and same answers) as :func:`~repro.core.
        schedule.minimal_lp_greedy`, bracketed from both sides so that
        most candidates cost no schedule pass.  Below, the work bound
        ``now + W / lp`` (:meth:`~repro.core.planning.table.
        CompiledPinnedBase.pending_work`) rejects an LP that cannot fit.
        Above, Graham's list-scheduling bound ``U(lp)``
        (:meth:`~repro.core.planning.table.CompiledPinnedBase.wct_bound`)
        certifies an LP whose pass could only fit.  A frontier pass
        (:meth:`limited`) runs only for an LP in the gap between the two.
        Both bounds hold for the pass itself, so the first LP either
        accepts is the first LP the pass accepts.  ``U(1)`` needs no
        priority pair; it is requested once a candidate ``lp >= 2``
        survives the prune.

        The scan's top, the optimal LP, is bounded from below by the
        pinned base's peak floor (``CompiledPinnedBase.peak_floor``: the
        rows the best-effort schedule runs at *now*).  The best-effort
        pass behind the exact peak (:meth:`optimal_lp`) runs only once a
        candidate exceeds that floor — never for a scan that stops at or
        below it, nor for one capped there.
        """
        token, table, rec = self._resolve(adg)
        key = ("mlp", deadline, cap, start_lp)
        kept = self._kept(token, rec, now, key)
        if kept is not None:
            return kept[0]
        answer: Optional[int] = None
        base = self._pinned_compiled(adg, now, token, table, rec)
        pending_work = base.pending_work(table)
        cp = None
        # The scan's top is max(optimal LP, 1), capped.  The peak floor is
        # at most the optimal LP, so up to it no candidate needs the peak.
        upper = max(base.peak_floor, 1)
        exact = cap is not None and cap <= upper
        if exact:
            upper = cap
        lp = max(1, start_lp)
        while True:
            if lp > upper:
                if exact:
                    break
                upper = max(self.optimal_lp(adg, now), 1)
                if cap is not None:
                    upper = min(upper, cap)
                exact = True
                continue
            if now + pending_work / lp > deadline + _EPS:
                lp += 1
                continue  # below the work bound: no pass can fit
            if lp > 1 and cp is None and base.to_schedule:
                cp = self._critical_path_compiled(token, table, rec)[0]
            if (
                base.wct_bound(table, lp, cp) <= deadline + _EPS
                or self.limited(adg, now, lp).wct <= deadline + _EPS
            ):
                answer = lp
                break
            lp += 1
        self._keep(token, rec, now, key, (answer,))
        return answer

    # -- structural (admission) arithmetic ---------------------------------------------

    def structural_wct(self, lp: int, start: float = 0.0) -> Optional[float]:
        """Projected WCT of a fresh run under *lp* workers (cached).

        Scheduled at ``start=0.0`` by default — the admission gates'
        frame of reference — which makes the answer independent of the
        clock: held-queue re-evaluations hit the cache until an estimate
        changes.  ``None`` while the estimates are cold.
        """
        plan = self.structural_plan()
        if plan is None:
            return None
        return self.limited(plan, start, lp).wct

    def structural_minimal_lp(
        self, goal_seconds: float, cap: Optional[int] = None
    ) -> Optional[int]:
        """Smallest LP meeting *goal_seconds* on an idle machine.

        The admission-time quantity the backfill reservation pins for a
        held queue head.  ``None`` while cold or when no LP up to *cap*
        meets the goal.
        """
        plan = self.structural_plan()
        if plan is None:
            return None
        return self.minimal_lp(plan, 0.0, goal_seconds, cap=cap)
