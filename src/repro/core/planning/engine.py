"""The planning engine — one seam under analyzer, admission and arbiter.

Every plan the runtime makes goes one way: machines or skeleton →
:class:`~repro.core.planning.table.PlanTable` → compiled pin / critical
path / frontier pass.  (:mod:`repro.core.schedule` holds the same
algorithms over ``Activity`` dicts as the readable reference of the
paper's §4; nothing here calls it.)  :class:`PlanEngine` owns that path
behind explicit invalidation:

* **projections** are cached on ``(machine revision, estimator
  version)`` — an execution that produced no events since the last
  rebalance reuses its projected ADG outright (projection walks machine
  state and estimates only; it is independent of *now*);
* **structural plans** (pre-start analysis, admission gates) are
  compiled straight from the skeleton and memoized *across engines* by
  ``(structural fingerprint, estimate values)``, so same-shape
  submissions share one table without any walk
  (:meth:`PlanEngine.structural_plan`);
* **schedules** are cached on ``(adg revision, estimator version, lp,
  now)`` and recomputed *incrementally*: the pinned actuals
  (``compiled_pin``) and the critical-path priorities
  (``compiled_critical_path``) are computed once per ``(revision,
  now)`` / per revision, and each LP of a minimal-LP scan re-schedules
  only the pending frontier (``compiled_schedule_pending``, all three
  in :mod:`repro.core.planning.table`);
* **admission arithmetic** schedules structural plans at ``start=0.0``,
  which is *now*-independent — held-queue re-evaluations hit the cache
  until an estimate actually changes.

Cache *misses* are incremental too — the delta pipeline:

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
  table, its last pinned base and its last priority pair.  One place
  (:meth:`PlanEngine._sync`) reads the ADG changelog: a non-structural
  window is written through to the table (``count_table_patch``) and
  its rows noted against the base and the pair, which the next miss
  advances over exactly those rows (``compiled_pin_delta``,
  ``count_pin_patch``; ``compiled_critical_path_delta``); a structural
  window recompiles the table and drops both.

**The from-scratch baseline** is ``PlanCache(maxsize=0)`` and nothing
else: an engine over a cache that stores nothing carries nothing either
— no previous projection, no table, no pinned base, no priority pair —
so every call walks, compiles, pins and sweeps anew.

Every answer is bit-for-bit equal to a from-scratch
:mod:`repro.core.schedule` recompute at the same arguments (a patched
graph equals the graph a full walk would rebuild, a compiled pass
performs the reference pass's float operations in its order), which the
plan-engine property tests pin.
"""

from __future__ import annotations

import itertools
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
    PENDING,
    CompiledPinnedBase,
    CompiledSchedule,
    PlanTable,
    compiled_best_effort,
    compiled_critical_path,
    compiled_critical_path_delta,
    compiled_pin,
    compiled_pin_delta,
    compiled_schedule_pending,
    compiled_settled,
)

__all__ = ["PlanEngine"]

_EPS = 1e-9

_engine_ids = itertools.count(1)


class _Carried:
    """What the engine carries between plan calls for one ADG.

    Held by graph identity, weakly.  ``token`` is the version token of a
    graph this engine built (``None``: a foreign graph — its table is
    kept, nothing derived from it is cached or carried).  ``table`` is
    synced to graph revision ``rev``; ``base`` and ``pair`` are the last
    pinned base and ``(cp, prio)`` pair built for the graph, each with
    the rows the table has had written through since (what the next
    delta advances them over).
    """

    __slots__ = (
        "ref", "token", "table", "rev", "base", "base_stale", "pair", "pair_stale"
    )

    def __init__(self, adg: ADG):
        self.ref = weakref.ref(adg)
        self.token: Optional[Tuple] = None
        self.table: Optional[PlanTable] = None
        self.rev = -1
        self.base: Optional[CompiledPinnedBase] = None
        self.base_stale: Set[int] = set()
        self.pair: Optional[Tuple] = None
        self.pair_stale: Set[int] = set()


class PlanEngine:
    """Cached schedule/LP/WCT computation for one execution (module docs).

    Parameters
    ----------
    machines:
        The execution's tracking-machine registry (live projections key
        on its :attr:`~repro.core.statemachines.MachineRegistry.rev`).
    estimators:
        The execution's estimator registry (every cache key embeds its
        :attr:`~repro.core.estimator.EstimatorRegistry.version`).
    skeleton:
        Optional program structure, enabling the structural plan used by
        pre-start analysis and the admission gates.
    cache:
        The backing :class:`~repro.core.planning.cache.PlanCache`.  May
        be shared across engines (the service shares one service-wide);
        every key is namespaced by this engine's id.  ``None`` creates a
        private cache.  ``PlanCache(maxsize=0)`` is the from-scratch
        baseline: the engine then carries nothing between calls either.
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
        self._uid = next(_engine_ids)
        # id(adg) -> carried record of every graph plan calls were
        # handed; empty for good over a cache that stores nothing.
        self._carried: Dict[int, _Carried] = {}
        # roots_key -> (machines rev, estimator version, adg, adg rev at
        # build/patch): the previous live projection, i.e. the patch
        # candidate for the next one.
        self._live_prev: Dict[Tuple, Tuple[int, int, ADG, int]] = {}
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
        blank one (a graph never seen, no token) that nobody holds."""
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

    def _remember(self, adg: ADG, token: Tuple) -> None:
        """Stamp *adg* as built by this engine at version *token*."""
        self._record(adg).token = token

    def _sync(self, rec: _Carried, adg: ADG) -> None:
        """Bring *rec* to *adg*'s revision — the one reader of the ADG
        changelog.

        A non-structural window is written through to the table in place
        (``count_table_patch``) and its rows noted against the carried
        base and pair; anything else — first sight, a structural change,
        a window some caller compacted away — compiles afresh
        (``count_table_compile``) and drops both.  The changelog of an
        engine-built graph is then compacted up to here: the record now
        holds all that a later delta needs.
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
        rec.rev = adg.rev
        if rec.token is not None:
            adg.compact_changelog(adg.rev)

    def _resolve(
        self, adg: ADG
    ) -> Tuple[Optional[Tuple], PlanTable, Optional[_Carried]]:
        """``(version token, table, carried record)`` of *adg*.

        The token keys every plan derived from the graph; ``None`` means
        "compute, never cache" (a foreign graph, or nothing is carried).
        The ADG's own revision counter is folded in live, so mutating a
        projected ADG (``add``/``touch``) retires every plan derived
        from the old revision — the stale entries become LRU garbage.
        A :class:`CompiledProjection` *is* its table (immutable, no
        record) and carries an engine-independent token (shape
        fingerprint + estimate values, revision frozen at 0), so
        schedules derived from a shared structural plan are shared
        across engines too.
        """
        if type(adg) is CompiledProjection:
            return adg.token + (0,), adg.table, None
        rec = self._record(adg)
        self._sync(rec, adg)
        token = rec.token + (adg.rev,) if rec.token is not None else None
        return token, rec.table, rec

    # -- projections ---------------------------------------------------------------

    def projection(self, now: float, roots: Optional[List] = None) -> ADG:
        """The live execution's projected ADG (cached per revision).

        Projection reads machine state and estimates only — *now* is
        threaded through for interface compatibility but does not shape
        the result — so the cache key is ``(machines.rev,
        estimators.version, root set)`` and an execution with no new
        events reuses its ADG across rebalances.

        On a miss, the **patch path** runs first
        (:meth:`_patch_projection`): when the machine changelog holds
        nothing structural since the previous projection, the previous
        ADG is kept and retimed, re-bound and refreshed in place — no
        machine is re-walked, no table recompiled.  A structural change
        (a new or finished root, a cardinality other than the projected
        one, condition outcomes), a ``|m|`` estimate that crossed an
        integer or a bind that finds another shape fall back to the
        full walk.
        """
        roots_key = (
            None if roots is None else tuple(m.index for m in roots)
        )
        # The machine lock makes (rev, projection) consistent under
        # concurrent worker-thread publishes.
        with self.machines.lock:
            rev = self.machines.rev
            est_version = self.estimators.version
            token = (self._uid, "live", rev, est_version, roots_key)
            key = ("proj", token)
            adg = self._cached_projection(key)
            if adg is None:
                adg = self._patch_projection(roots_key, rev, est_version, now)
                if adg is None:
                    adg, _terminals = self.machines.project_roots(now, roots)
                    self.cache.count_projection_pass()
                self.cache.put(key, (adg, adg.rev))
                self._remember(adg, token)
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
        self, roots_key: Tuple, rev: int, est_version: int, now: float
    ) -> Optional[ADG]:
        """Patch the previous projection for *roots_key*, or ``None``.

        ``None`` means "no sound patch exists — do the full walk": no
        previous projection (the first one, or nothing is carried), a
        structural delta, a compacted changelog window, a previous ADG
        some caller mutated behind the engine's back, estimates whose
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
        with self._lock:
            prev = self._live_prev.get(roots_key)
        if prev is None:
            return None
        prev_rev, prev_est_version, adg, adg_rev = prev
        if adg.rev != adg_rev:
            return None
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

    def _cached_projection(self, key: Tuple) -> Optional[ADG]:
        """A cached projection, unless it was mutated since it was built.

        Entries store the ADG's revision at build time; a caller that
        mutated a served graph in place (``add``/``touch``) gets it
        rebuilt instead of poisoning every later analysis — matching the
        pre-engine behaviour, where each analysis projected fresh.
        """
        cached = self.cache.get(key)
        if cached is None:
            return None
        adg, rev_at_build = cached
        return adg if adg.rev == rev_at_build else None

    def structural_projection(self) -> Optional[ADG]:
        """The skeleton's structural ADG (cached per estimator version).

        The ``Activity`` form of :meth:`structural_plan`, for callers
        that want a graph to look at; plans are made from the compiled
        one.  ``None`` exactly when that is.
        """
        if self.skeleton is None or not self.estimators.ready_for(self.skeleton):
            return None
        token = (self._uid, "struct", self.estimators.version)
        key = ("proj", token)
        adg = self._cached_projection(key)
        if adg is None:
            adg = ADG()
            project_skeleton(self.skeleton, adg, [], self.estimators)
            self.cache.count_projection_pass()
            self.cache.put(key, (adg, adg.rev))
            self._remember(adg, token)
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

    # -- cached schedule primitives -------------------------------------------------

    def _critical_path_compiled(
        self, token: Optional[Tuple], table: PlanTable, rec: Optional[_Carried]
    ) -> Tuple:
        """``(cp array, prio heap entries)`` for *table*, cached per rev.

        A miss on a live graph first tries the **delta**: the pair last
        built for the graph is advanced over the rows written through
        since by :func:`~repro.core.planning.table.
        compiled_critical_path_delta`, which recomputes only those rows
        and the predecessors a changed value reaches.
        """
        if token is None:
            return compiled_critical_path(table)
        key = ("ccp", token)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        if rec is None or rec.pair is None:
            pair = compiled_critical_path(table)
        elif rec.pair_stale:
            pair = compiled_critical_path_delta(table, rec.pair, rec.pair_stale)
        else:
            pair = rec.pair  # evicted from the store, still current
        self.cache.put(key, pair)
        if rec is not None:
            rec.pair = pair
            rec.pair_stale.clear()
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

        A miss on a live graph first tries the **delta re-pin**: the
        base last built for the graph is advanced to the new *now* over
        the rows written through since (:func:`~repro.core.planning.
        table.compiled_pin_delta`, ``count_pin_patch``) — equal, bit for
        bit, to a full :func:`~repro.core.planning.table.compiled_pin`
        pass.  An all-pending structural plan pins by pure array copies
        (:meth:`CompiledProjection.pinned_fresh`).
        """
        if token is None:
            return compiled_pin(table, now)
        key = ("cpin", token, now)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        if rec is None:
            return self.cache.put(key, adg.pinned_fresh(now))
        if rec.base is None:
            base = compiled_pin(table, now)
        else:
            base = compiled_pin_delta(table, now, rec.base, rec.base_stale)
            self.cache.count_pin_patch()
        rec.base = base
        rec.base_stale.clear()
        return self.cache.put(key, base)

    def best_effort(self, adg: ADG, now: float) -> CompiledSchedule:
        """Best-effort (infinite LP) schedule, cached per (rev, now).

        A graph with nothing pending is not scheduled: its plan is its
        pinned base (``compiled_settled``).
        """
        token, table, rec = self._resolve(adg)
        key = ("cbe", token, now) if token is not None else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        if PENDING in table.state:
            result = compiled_best_effort(table, now)
            self.cache.count_schedule_pass()
        else:
            base = self._pinned_compiled(adg, now, token, table, rec)
            result = compiled_settled(table, base, "best-effort", None)
        if key is not None:
            self.cache.put(key, result)
        return result

    def limited(self, adg: ADG, now: float, lp: int) -> CompiledSchedule:
        """Limited-LP list schedule, cached per (rev, now, lp).

        On a miss only the pending frontier is re-scheduled: the pinned
        actuals and the priority pair come from their own caches, shared
        across every LP of a scan; a base that left nothing to schedule
        is the plan at any LP, without the pair.
        """
        token, table, rec = self._resolve(adg)
        key = ("clim", token, now, lp) if token is not None else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        base = self._pinned_compiled(adg, now, token, table, rec)
        if base.to_schedule:
            _cp, prio = self._critical_path_compiled(token, table, rec)
            result = compiled_schedule_pending(table, now, lp, base, prio)
            self.cache.count_schedule_pass()
        else:
            result = compiled_settled(table, base, "limited-lp", lp)
        if key is not None:
            self.cache.put(key, result)
        return result

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
        schedule.minimal_lp_greedy`, but the best-effort upper bound and
        every limited schedule come from the cache, and each scanned LP
        re-schedules only the pending frontier.
        """
        token, table, rec = self._resolve(adg)
        key = ("mlp", token, now, deadline, cap, start_lp) if token is not None else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached[0]
        upper = max(self.optimal_lp(adg, now), 1)
        if cap is not None:
            upper = min(upper, cap)
        answer: Optional[int] = None
        # Work-bound prune (see compiled_minimal_lp): with lp workers
        # the pending worker-occupying work W cannot finish before
        # now + W / lp, so candidates whose bound already misses the
        # deadline skip their frontier pass.  The bound is a true lower
        # bound on the greedy WCT, so the first feasible LP — the
        # answer — is unchanged.
        base = self._pinned_compiled(adg, now, token, table, rec)
        pending_work = base.pending_work(table)
        for lp in range(max(1, start_lp), upper + 1):
            if now + pending_work / lp > deadline + _EPS:
                continue
            if self.limited(adg, now, lp).wct <= deadline + _EPS:
                answer = lp
                break
        if key is not None:
            self.cache.put(key, (answer,))
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
