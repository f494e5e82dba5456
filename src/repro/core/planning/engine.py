"""The incremental planning engine — one seam under analyzer, admission
and arbiter.

Before this layer existed, planning was smeared across four call sites:
the analyzer drove :mod:`repro.core.schedule` from scratch on every
analysis point, admission re-projected skeletons on every held-queue
pass, and the arbiter's minimal-LP scans re-ran full list schedules (and
an extra best-effort pass inside :func:`~repro.core.schedule.
minimal_lp_greedy`) per execution per rebalance.  :class:`PlanEngine`
owns all of it behind explicit invalidation:

* **projections** are cached on ``(machine revision, estimator
  version)`` — an execution that produced no events since the last
  rebalance reuses its projected ADG outright (projection walks machine
  state and estimates only; it is independent of *now*);
* **structural projections** (pre-start analysis, admission gates) are
  cached on the estimator version alone — and, with compilation on,
  served as directly-compiled tables memoized *across engines* by
  ``(structural fingerprint, estimate values)``, so same-shape
  submissions share one table without any walk (:meth:`PlanEngine.
  structural_plan`);
* **schedules** are cached on ``(adg revision, estimator version, lp,
  now)`` and recomputed *incrementally*: the pinned actuals
  (:func:`~repro.core.schedule.pin_actuals`) and the critical-path
  priority table (:func:`~repro.core.schedule.remaining_critical_path`)
  are computed once per ``(revision, now)`` / per revision, and each LP
  of a minimal-LP scan re-schedules only the pending frontier
  (:func:`~repro.core.schedule.schedule_pending`);
* **admission arithmetic** schedules structural ADGs at ``start=0.0``,
  which is *now*-independent — held-queue re-evaluations hit the cache
  until an estimate actually changes.

Since the delta pipeline, cache *misses* are incremental too:

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
* **delta re-pinning** — the pinned-actuals base advances to a new
  ``now`` by re-pinning only the delta-touched activities
  (:func:`~repro.core.schedule.pin_actuals_delta`,
  ``count_pin_patch``), and the compiled critical-path priority table
  advances over the same changelog window
  (:func:`~repro.core.planning.table.compiled_critical_path_delta`);
* **quantized-now buckets** — with ``PlanCache(now_quantum=q)`` live
  schedules are computed and keyed at the bucket floor, so real-clock
  rebalances inside one bucket share plans at a decision skew bounded
  by ``q`` (off by default; exact timestamps preserve decisions bit
  for bit).

Every answer is bit-for-bit equal to a from-scratch
:mod:`repro.core.schedule` recompute at the same arguments (the
incremental pieces are the same code the from-scratch path composes,
and a patched graph equals the graph a full walk would rebuild), which
the plan-cache property tests pin — quantized mode excepted, whose skew
bound is tested separately.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Dict, List, Optional, Tuple

from ...skeletons.base import Skeleton
from ..adg import ADG
from ..estimator import EstimatorRegistry
from ..projection import project_skeleton
from ..schedule import (
    PinnedPlanBase,
    ScheduleResult,
    best_effort_schedule,
    pin_actuals,
    pin_actuals_delta,
    remaining_critical_path,
    schedule_pending,
)
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

_engine_ids = itertools.count(1)


def _hold(entries: Dict[int, Tuple], adg: ADG, value) -> None:
    """Record *value* as the latest built for *adg* at its revision
    (keyed by identity, held weakly), shedding the entries of collected
    graphs once the map has grown."""
    entries[id(adg)] = (weakref.ref(adg), adg.rev, value)
    if len(entries) > 64:
        for key in [k for k, entry in entries.items() if entry[0]() is None]:
            del entries[key]


class PlanEngine:
    """Cached schedule/LP/WCT computation for one execution (see module
    docs).

    Parameters
    ----------
    machines:
        The execution's tracking-machine registry (live projections key
        on its :attr:`~repro.core.statemachines.MachineRegistry.rev`).
    estimators:
        The execution's estimator registry (every cache key embeds its
        :attr:`~repro.core.estimator.EstimatorRegistry.version`).
    skeleton:
        Optional program structure, enabling the structural projection
        used by pre-start analysis and the admission gates.
    cache:
        The backing :class:`~repro.core.planning.cache.PlanCache`.  May
        be shared across engines (the service shares one service-wide);
        every key is namespaced by this engine's id.  ``None`` creates a
        private cache.
    patching:
        Enable the delta pipeline: when the machine changelog holds
        nothing structural since the previous live projection (and no
        ``|m|`` estimate crossed an integer), the previous ADG is patched
        in place (``count_projection_patch``) instead of re-walked, and
        pinned-actuals bases advance by delta re-pin
        (``count_pin_patch``).  Patched answers are bit-for-bit equal to
        full re-walks — pinned by the plan-engine property harness —
        so this flag exists for benchmarking the delta pipeline against
        the plain cached baseline, not for safety.
    compiled:
        Run the hot scheduling passes over :class:`~repro.core.planning.
        table.PlanTable` flat arrays (default).  A projected ADG is
        flattened once per revision (``count_table_compile``), kept
        current by writing non-structural deltas through in place
        (``count_table_patch``), and best-effort / pinning /
        critical-path / limited-LP passes run as index arithmetic over
        the table, sharing one pinned base and one priority list across
        every LP of a minimal-LP scan.  Answers are bit-for-bit equal to
        the dict path — pinned by the compiled-vs-dict property harness
        — and ``compiled=False`` restores the dict path outright.
    """

    def __init__(
        self,
        machines: MachineRegistry,
        estimators: EstimatorRegistry,
        skeleton: Optional[Skeleton] = None,
        cache: Optional[PlanCache] = None,
        patching: bool = True,
        compiled: bool = True,
    ):
        self.machines = machines
        self.estimators = estimators
        self.skeleton = skeleton
        self.cache = cache if cache is not None else PlanCache()
        self.patching = patching
        self.compiled = compiled
        self._uid = next(_engine_ids)
        # id(adg) -> (weakref, version token) for ADGs this engine built;
        # lets plan calls key correctly on any ADG they are handed back.
        self._known: Dict[int, Tuple[weakref.ref, Tuple]] = {}
        # roots_key -> (machines rev, estimator version, adg, adg rev at
        # build/patch): the previous live projection, i.e. the patch
        # candidate for the next one.
        self._live_prev: Dict[Tuple, Tuple[int, int, ADG, int]] = {}
        # id(adg) -> (weakref, adg rev, pinned base) for delta re-pinning
        # across rebalances (the base's `now` changes, the graph does not).
        self._pin_prev: Dict[int, Tuple[weakref.ref, int, PinnedPlanBase]] = {}
        # id(adg) -> (weakref, synced adg rev, table): the flattened
        # array form of each projected ADG, kept current by writing
        # non-structural deltas through in place.
        self._tables: Dict[int, Tuple[weakref.ref, int, PlanTable]] = {}
        # Compiled twin of _pin_prev (the two pin paths patch from their
        # own previous bases, so flipping `compiled` never mixes types).
        self._cpin_prev: Dict[
            int, Tuple[weakref.ref, int, CompiledPinnedBase]
        ] = {}
        # id(adg) -> (weakref, adg rev, (cp, prio)): the priority table
        # each live graph was last scheduled with, advanced across
        # revisions like the pinned base.
        self._ccp_prev: Dict[int, Tuple[weakref.ref, int, Tuple]] = {}
        # Lazy identity of the skeleton's structure (stable for the
        # engine's lifetime) and the estimate values the structural memo
        # keys on, re-derived only when the estimator version moves.
        self._struct_fp: Optional[str] = None
        self._struct_vkey: Optional[Tuple[int, Tuple]] = None
        self._lock = threading.RLock()

    # -- token bookkeeping --------------------------------------------------------

    def _remember(self, adg: ADG, token: Tuple) -> ADG:
        with self._lock:
            if len(self._known) > 64:
                self._known = {
                    key: entry
                    for key, entry in self._known.items()
                    if entry[0]() is not None
                }
            self._known[id(adg)] = (weakref.ref(adg), token)
        return adg

    def _token_of(self, adg: ADG) -> Optional[Tuple]:
        """The version token of an ADG this engine built, else ``None``
        (plans over foreign ADGs are computed but never cached).

        The ADG's own revision counter is folded in live, so mutating a
        projected ADG (``add``/``touch``) retires every plan derived
        from the old revision — the stale entries become LRU garbage.
        A :class:`CompiledProjection` carries its own engine-independent
        token (shape fingerprint + estimate values, revision frozen at
        0), so schedules derived from a shared structural plan are
        shared across engines too.
        """
        if type(adg) is CompiledProjection:
            return adg.token + (0,)
        with self._lock:
            entry = self._known.get(id(adg))
        if entry is not None and entry[0]() is adg:
            return entry[1] + (adg.rev,)
        return None

    # -- projections ---------------------------------------------------------------

    def projection(self, now: float, roots: Optional[List] = None) -> ADG:
        """The live execution's projected ADG (cached per revision).

        Projection reads machine state and estimates only — *now* is
        threaded through for interface compatibility but does not shape
        the result — so the cache key is ``(machines.rev,
        estimators.version, root set)`` and an execution with no new
        events reuses its ADG across rebalances.

        On a miss, the **patch path** runs first: when the machine
        changelog (:meth:`~repro.core.statemachines.MachineRegistry.
        delta_since`) holds nothing structural since the previous
        projection, the previous ADG is kept.  Muscles whose ``t(m)``
        moved since then retime the rows they feed (:meth:`~repro.core.
        adg.ADG.retime`), attached machines are bound over the ids a
        fresh walk would hand them (:func:`~repro.core.statemachines.
        base.rebind`), then the spans of the touched and attached
        machines are re-read in place (:func:`~repro.core.
        statemachines.base.refresh_from_sources`) — no machine is
        re-walked, no table recompiled.  A structural change (a new or
        finished root, a cardinality other than the projected one,
        condition outcomes), a ``|m|`` estimate that crossed an integer
        or a bind that finds another shape fall back to the full walk.
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
                    oldest = min(r for r, _v, _a, _ar in self._live_prev.values())
                self.machines.compact_changelog(oldest)
            return adg

    def _patch_projection(
        self, roots_key: Tuple, rev: int, est_version: int, now: float
    ) -> Optional[ADG]:
        """Patch the previous projection for *roots_key*, or ``None``.

        ``None`` means "no sound patch exists — do the full walk": no
        previous projection, a structural delta, a compacted changelog
        window, a previous ADG some caller mutated behind the engine's
        back, estimates whose move may reshape the graph (a ``|m|`` that
        crossed an integer, an ``If`` branch picked by estimated work),
        or an attached machine whose projection does not fit the ids
        held for it (:func:`~repro.core.statemachines.base.rebind`) —
        another shape than estimated, no free slot.

        A moved ``t(m)`` alone is data, not shape: the estimator's
        changelog (:meth:`~repro.core.estimator.EstimatorRegistry.
        changed_since`) names the muscles, and :meth:`~repro.core.adg.
        ADG.retime` writes each one's current estimate through the rows
        it times — first, then the binds, then the span refresh.
        """
        if not self.patching:
            return None
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

        ``None`` without a skeleton or while its estimates are cold.
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

        ``None`` with compilation off, without a skeleton, or while its
        estimates are cold — callers fall back to
        :meth:`structural_projection`.
        """
        if (
            not self.compiled
            or self.skeleton is None
            or not self.estimators.ready_for(self.skeleton)
        ):
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

    # -- compiled plan tables --------------------------------------------------------

    def _table_for(self, adg: ADG) -> Optional[PlanTable]:
        """The flat array form of *adg*, synced to its revision.

        ``None`` routes the caller to the dict path: compilation is off,
        or the ADG's ids are not dense (impossible for graphs built
        through the public API, guarded anyway).  A held table whose
        revision lags is advanced by writing the changelog window
        through in place (``count_table_patch``) when the window is
        non-structural, and recompiled from scratch otherwise
        (``count_table_compile``).  A :class:`CompiledProjection` *is*
        its table — immutable, no sync bookkeeping.
        """
        if not self.compiled:
            return None
        if type(adg) is CompiledProjection:
            return adg.table
        with self._lock:
            entry = self._tables.get(id(adg))
        if entry is not None and entry[0]() is adg:
            ref, synced_rev, table = entry
            if synced_rev == adg.rev:
                return table
            delta = adg.delta_since(synced_rev)
            if delta is not None and not delta.structural:
                table.refresh(adg, delta.touched)
                self.cache.count_table_patch()
                with self._lock:
                    self._tables[id(adg)] = (ref, adg.rev, table)
                return table
        table = PlanTable.compile(adg)
        if table is None:
            return None
        self.cache.count_table_compile()
        with self._lock:
            if len(self._tables) > 64:
                self._tables = {
                    k: e for k, e in self._tables.items() if e[0]() is not None
                }
            self._tables[id(adg)] = (weakref.ref(adg), adg.rev, table)
        return table

    def _critical_path_compiled(self, adg: ADG, table: PlanTable) -> Tuple:
        """``(cp array, prio heap entries)`` for *table*, cached per rev.

        A miss on a live graph first tries the **delta**: the pair this
        engine last built for the same ADG object is advanced across the
        changelog window by :func:`~repro.core.planning.table.
        compiled_critical_path_delta`, which recomputes only the rows
        the window touched and the predecessors a changed value reaches.
        """
        token = self._token_of(adg)
        key = ("ccp", token) if token is not None else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        live = key is not None and type(adg) is not CompiledProjection
        pair = self._patch_critical_path(adg, table) if live else None
        if pair is None:
            pair = compiled_critical_path(table)
        if key is not None:
            self.cache.put(key, pair)
        if live:
            with self._lock:
                _hold(self._ccp_prev, adg, pair)
        return pair

    def _patch_critical_path(self, adg: ADG, table: PlanTable) -> Optional[Tuple]:
        if not self.patching:
            return None
        with self._lock:
            entry = self._ccp_prev.get(id(adg))
        if entry is None or entry[0]() is not adg:
            return None
        _ref, prev_rev, prev_pair = entry
        if prev_rev == adg.rev:
            return prev_pair  # evicted from the store, still current
        delta = adg.delta_since(prev_rev)
        if delta is None or delta.structural:
            return None
        # Like the delta re-pin, this reads the table _table_for already
        # refreshed from the same window.
        return compiled_critical_path_delta(table, prev_pair, delta.touched)

    def _pinned_compiled(
        self, adg: ADG, now: float, table: PlanTable
    ) -> CompiledPinnedBase:
        """Compiled twin of :meth:`_pinned` (same caching and delta
        re-pin discipline, over array columns).

        Structural plans short-circuit: an all-pending immutable table
        pins by pure array copies (:meth:`CompiledProjection.
        pinned_fresh`), with no previous-base tracking or changelog
        compaction to maintain.
        """
        if type(adg) is CompiledProjection:
            key = ("cpin", adg.token + (0,), now)
            cached = self.cache.get(key)
            if cached is not None:
                return cached
            return self.cache.put(key, adg.pinned_fresh(now))
        token = self._token_of(adg)
        key = ("cpin", token, now) if token is not None else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        base = (
            self._patch_pinned_compiled(adg, now, table)
            if token is not None
            else None
        )
        if base is None:
            base = compiled_pin(table, now)
        if key is not None:
            self.cache.put(key, base)
            with self._lock:
                _hold(self._cpin_prev, adg, base)
                lagging = self._ccp_prev.get(id(adg))
            if (
                self.patching
                and lagging is not None
                and lagging[0]() is adg
                and lagging[1] != adg.rev
            ):
                # The priority table advances over the same changelog
                # window: take it across before the window is compacted
                # away (a minimal-LP scan pins before its first frontier
                # pass asks for priorities).
                self._critical_path_compiled(adg, table)
            adg.compact_changelog(adg.rev if self.patching else 0)
        return base

    def _patch_pinned_compiled(
        self, adg: ADG, now: float, table: PlanTable
    ) -> Optional[CompiledPinnedBase]:
        if not self.patching:
            return None
        with self._lock:
            entry = self._cpin_prev.get(id(adg))
        if entry is None or entry[0]() is not adg:
            return None
        _ref, prev_rev, prev_base = entry
        delta = adg.delta_since(prev_rev)
        if delta is None or delta.structural:
            return None
        # _table_for already wrote this window through to the table, so
        # the delta re-pin reads post-refresh truth.
        base = compiled_pin_delta(table, now, prev_base, delta.touched)
        self.cache.count_pin_patch()
        return base

    # -- cached schedule primitives -------------------------------------------------

    def best_effort(self, adg: ADG, now: float) -> ScheduleResult:
        """Best-effort (infinite LP) schedule, cached per (rev, now).

        Under the cache's quantized-now mode, *now* is floored to its
        bucket first — rebalances within one bucket share the schedule.
        With compilation on, the result is a :class:`~repro.core.
        planning.table.CompiledSchedule` (same public surface, lazy
        entries) computed over the flat table.
        """
        now = self.cache.quantize(now)
        token = self._token_of(adg)
        table = self._table_for(adg)
        if table is not None:
            key = ("cbe", token, now) if token is not None else None
            if key is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    return cached
            result = compiled_best_effort(table, now)
            self.cache.count_schedule_pass()
            if key is not None:
                self.cache.put(key, result)
            return result
        key = ("be", token, now) if token is not None else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        result = best_effort_schedule(adg, now)
        self.cache.count_schedule_pass()
        if key is not None:
            self.cache.put(key, result)
        return result

    def _critical_path(self, adg: ADG) -> Dict[int, float]:
        token = self._token_of(adg)
        key = ("cp", token) if token is not None else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        table = remaining_critical_path(adg)
        if key is not None:
            self.cache.put(key, table)
        return table

    def _pinned(self, adg: ADG, now: float) -> PinnedPlanBase:
        """The pinned-actuals base for (adg, now), patched when possible.

        Cache misses first try the **delta re-pin**: if this engine holds
        a previous base for the same ADG object and the ADG changelog
        (fed by the projection patch) lists only in-place time updates
        since, :func:`~repro.core.schedule.pin_actuals_delta` advances
        the old base to the new *now* touching only what changed —
        equal, bit for bit, to a full :func:`~repro.core.schedule.
        pin_actuals` pass.
        """
        token = self._token_of(adg)
        key = ("pin", token, now) if token is not None else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        base = self._patch_pinned(adg, now) if token is not None else None
        if base is None:
            base = pin_actuals(adg, now)
        if key is not None:
            self.cache.put(key, base)
            with self._lock:
                _hold(self._pin_prev, adg, base)
            adg.compact_changelog(adg.rev if self.patching else 0)
        return base

    def _patch_pinned(self, adg: ADG, now: float) -> Optional[PinnedPlanBase]:
        if not self.patching:
            return None
        with self._lock:
            entry = self._pin_prev.get(id(adg))
        if entry is None or entry[0]() is not adg:
            return None
        _ref, prev_rev, prev_base = entry
        delta = adg.delta_since(prev_rev)
        if delta is None or delta.structural:
            return None
        base = pin_actuals_delta(adg, now, prev_base, delta.touched)
        self.cache.count_pin_patch()
        return base

    def limited(self, adg: ADG, now: float, lp: int) -> ScheduleResult:
        """Limited-LP list schedule, cached per (rev, now, lp).

        On a miss only the pending frontier is re-scheduled: the pinned
        actuals and the critical-path table come from their own caches,
        shared across every LP of a scan.  Under the quantized-now mode,
        *now* is floored to its bucket first.  With compilation on, the
        frontier pass runs over the flat table's arrays.
        """
        now = self.cache.quantize(now)
        token = self._token_of(adg)
        table = self._table_for(adg)
        if table is not None:
            key = ("clim", token, now, lp) if token is not None else None
            if key is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    return cached
            _cp, prio = self._critical_path_compiled(adg, table)
            result = compiled_schedule_pending(
                table, now, lp, self._pinned_compiled(adg, now, table), prio
            )
            self.cache.count_schedule_pass()
            if key is not None:
                self.cache.put(key, result)
            return result
        key = ("lim", token, now, lp) if token is not None else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        result = schedule_pending(
            adg,
            now,
            lp,
            "critical-path",
            self._pinned(adg, now),
            self._critical_path(adg),
        )
        self.cache.count_schedule_pass()
        if key is not None:
            self.cache.put(key, result)
        return result

    # -- derived quantities -----------------------------------------------------------

    def optimal_lp(self, adg: ADG, now: float) -> int:
        """Peak future concurrency of the best-effort schedule."""
        now = self.cache.quantize(now)
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
        re-schedules only the pending frontier.  Under the quantized-now
        mode the scan runs at the bucket floor (the deadline itself is
        never quantized), so the answer can skew by at most the bucket
        width's worth of elapsed progress.
        """
        now = self.cache.quantize(now)
        token = self._token_of(adg)
        key = (
            ("mlp", token, now, deadline, cap, start_lp)
            if token is not None
            else None
        )
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached[0]
        upper = max(self.optimal_lp(adg, now), 1)
        if cap is not None:
            upper = min(upper, cap)
        answer: Optional[int] = None
        pending_work: Optional[float] = None
        table = self._table_for(adg)
        if table is not None:
            # Work-bound prune (see compiled_minimal_lp): with lp
            # workers the pending worker-occupying work W cannot finish
            # before now + W / lp, so candidates whose bound already
            # misses the deadline skip their frontier pass.  The bound
            # is a true lower bound on the greedy WCT, so the first
            # feasible LP — the answer — is unchanged.
            pending_work = self._pinned_compiled(adg, now, table).pending_work(
                table
            )
        for lp in range(max(1, start_lp), upper + 1):
            if (
                pending_work is not None
                and now + pending_work / lp > deadline + _EPS
            ):
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
        adg = self.structural_plan()
        if adg is None:
            adg = self.structural_projection()
        if adg is None:
            return None
        return self.limited(adg, start, lp).wct

    def structural_minimal_lp(
        self, goal_seconds: float, cap: Optional[int] = None
    ) -> Optional[int]:
        """Smallest LP meeting *goal_seconds* on an idle machine.

        The admission-time quantity the backfill reservation pins for a
        held queue head.  ``None`` while cold or when no LP up to *cap*
        meets the goal.
        """
        adg = self.structural_plan()
        if adg is None:
            adg = self.structural_projection()
        if adg is None:
            return None
        return self.minimal_lp(adg, 0.0, goal_seconds, cap=cap)
