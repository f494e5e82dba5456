"""Shared, bounded plan store with hit/recompute accounting.

One :class:`PlanCache` may back many :class:`~repro.core.planning.engine.
PlanEngine` instances (the service shares one across all live executions
and the admission path).  What it stores is what engines share: the
structural memo — skeleton structures compiled to tables, keyed by
``(structural fingerprint, estimate values)`` — and the schedules derived
from those shared structural plans, keyed by the plan's engine-independent
token.  A live graph's plans are not here: each engine keeps them on the
graph's carried record, for the graph's current revision and *now*.

Keys embed the estimate values a plan was built from, so stale entries
are never *served*; they are merely garbage, and the LRU bound reclaims
them.  Schedules are keyed on the exact ``now`` they were planned at, so
a stored answer is bit for bit the one a recompute would give.

``maxsize=0`` disables storage entirely (every lookup misses) **and is
the from-scratch baseline by itself**: an engine over a cache that
stores nothing carries nothing between calls either — no previous
projection to patch, no table, no pinned base, no priority pair, no plan
on a record — so every analysis walks, compiles, pins and sweeps anew.
That is how the rebalance-overhead and retime benchmarks build their
baselines.

Besides the store's hits, misses, evictions and size — which count the
shared store only — the cache carries the planning layer's full
recompute accounting: full projection walks versus in-place projection
**patches**, pinning passes versus delta re-pins, and schedule passes,
so benchmarks and operators can see exactly how much of the event→plan
work the delta pipeline avoided (see ``stats_dict``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple

__all__ = ["PlanCacheStats", "PlanCache"]


@dataclass(frozen=True)
class PlanCacheStats:
    """Immutable snapshot of one cache's counters."""

    hits: int
    misses: int
    evictions: int
    schedule_passes: int
    projection_passes: int
    projection_patches: int
    pin_patches: int
    table_compiles: int
    table_patches: int
    struct_compiles: int
    struct_memo_hits: int
    size: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanCache:
    """Thread-safe LRU of the plans engines share: the structural memo
    and the schedule/LP answers of shared structural plans (module docs).

    Besides the store it carries the planning layer's cost counters:

    * ``schedule_passes`` — full scheduling passes actually executed
      (best-effort longest-path walks, limited-LP frontier passes);
    * ``projection_passes`` — ADG projections actually *walked* (live
      machine projections and structural skeleton projections);
    * ``projection_patches`` — projections served by patching the
      previous ADG in place from the machine changelog instead of
      re-walking;
    * ``pin_patches`` — pinned-actuals bases advanced by the delta
      re-pin instead of a full pinning pass;
    * ``table_compiles`` / ``table_patches`` — projected ADGs flattened
      into :class:`~repro.core.planning.table.PlanTable` array form,
      versus tables kept current by writing a non-structural delta
      through in place;
    * ``struct_compiles`` / ``struct_memo_hits`` — skeleton structures
      compiled *directly* to tables by the :class:`~repro.core.planning.
      compile.ProjectionCompiler` (each also counts as a projection
      pass), versus structural plans served by the cross-engine
      ``(fingerprint, estimate values)`` shape memo without any walk.

    The rebalance-overhead benchmark compares these between the default
    path and a ``maxsize=0`` (from-scratch) run of the same workload.

    Parameters
    ----------
    maxsize:
        LRU bound on stored entries; ``0`` disables storage and, with
        it, everything the engines carry between calls — the
        from-scratch baseline (see the module docs).
    """

    def __init__(self, maxsize: int = 2048):
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._store: "OrderedDict[Tuple[Hashable, ...], Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._schedule_passes = 0
        self._projection_passes = 0
        self._projection_patches = 0
        self._pin_patches = 0
        self._table_compiles = 0
        self._table_patches = 0
        self._struct_compiles = 0
        self._struct_memo_hits = 0

    # -- store -------------------------------------------------------------------

    def get(self, key: Tuple[Hashable, ...]) -> Optional[Any]:
        """The cached value, or ``None`` (misses are counted)."""
        with self._lock:
            value = self._store.get(key)
            if value is None:
                self._misses += 1
                return None
            self._store.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Tuple[Hashable, ...], value: Any) -> Any:
        """Store *value* (a no-op at ``maxsize=0``); returns it."""
        if self.maxsize == 0:
            return value
        with self._lock:
            self._store[key] = value
            self._store.move_to_end(key)
            while len(self._store) > self.maxsize:
                self._store.popitem(last=False)
                self._evictions += 1
        return value

    def clear(self) -> None:
        with self._lock:
            self._store.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    # -- accounting --------------------------------------------------------------

    def count_schedule_pass(self) -> None:
        with self._lock:
            self._schedule_passes += 1

    def count_projection_pass(self) -> None:
        with self._lock:
            self._projection_passes += 1

    def count_projection_patch(self) -> None:
        with self._lock:
            self._projection_patches += 1

    def count_pin_patch(self) -> None:
        with self._lock:
            self._pin_patches += 1

    def count_table_compile(self) -> None:
        with self._lock:
            self._table_compiles += 1

    def count_table_patch(self) -> None:
        with self._lock:
            self._table_patches += 1

    def count_struct_compile(self) -> None:
        """One skeleton structure compiled directly to a PlanTable.

        The direct compile *is* this program shape's projection walk, so
        the walk counter moves with it: across N same-shape submissions
        sharing the memo, ``projection_passes`` advances exactly once.
        """
        with self._lock:
            self._struct_compiles += 1
            self._projection_passes += 1

    def count_struct_memo_hit(self) -> None:
        """One structural plan served from the cross-engine shape memo
        (no projection walk, no compile)."""
        with self._lock:
            self._struct_memo_hits += 1

    @property
    def stats(self) -> PlanCacheStats:
        with self._lock:
            return PlanCacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                schedule_passes=self._schedule_passes,
                projection_passes=self._projection_passes,
                projection_patches=self._projection_patches,
                pin_patches=self._pin_patches,
                table_compiles=self._table_compiles,
                table_patches=self._table_patches,
                struct_compiles=self._struct_compiles,
                struct_memo_hits=self._struct_memo_hits,
                size=len(self._store),
            )

    def reset_stats(self) -> None:
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._schedule_passes = 0
            self._projection_passes = 0
            self._projection_patches = 0
            self._pin_patches = 0
            self._table_compiles = 0
            self._table_patches = 0
            self._struct_compiles = 0
            self._struct_memo_hits = 0

    def stats_dict(self) -> Dict[str, Any]:
        """Counters as a plain dict (for reports and benches).

        ``hits``, ``misses``, ``evictions`` and ``size`` count the shared
        store only; plans kept on a live graph's record are neither.
        """
        s = self.stats
        return {
            "hits": s.hits,
            "misses": s.misses,
            "evictions": s.evictions,
            "schedule_passes": s.schedule_passes,
            "projection_passes": s.projection_passes,
            "projection_patches": s.projection_patches,
            "pin_patches": s.pin_patches,
            "table_compiles": s.table_compiles,
            "table_patches": s.table_patches,
            "struct_compiles": s.struct_compiles,
            "struct_memo_hits": s.struct_memo_hits,
            "size": s.size,
            "hit_rate": s.hit_rate,
        }
