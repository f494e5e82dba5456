"""The planning layer — the one path every runtime plan takes.

The paper's autonomic loop plans by repeatedly scheduling the ADG.  Here
that is machines or skeleton → :class:`PlanTable` → compiled pin /
critical path / frontier pass, and nothing else
(:mod:`repro.core.schedule` keeps the same algorithms over ``Activity``
dicts as the reference the tests compare against):

* :class:`~repro.core.planning.engine.PlanEngine` — per-execution facade
  owning projection + scheduling behind explicit invalidation (ADG
  revision counters, estimator version stamps); a live graph's plans
  live on the engine's record of that graph;
* :class:`~repro.core.planning.cache.PlanCache` — the shared bounded
  store of what engines share (the structural memo and the plans
  derived from it) with recompute accounting; ``PlanCache(maxsize=0)``
  is the from-scratch baseline;
* :class:`~repro.core.planning.table.PlanTable` — a projected ADG
  compiled once into struct-of-arrays form, over which the engine runs
  every scheduling pass as index arithmetic;
* :class:`~repro.core.planning.compile.ProjectionCompiler` — walks a
  skeleton structure and emits PlanTable columns *directly* (no
  ``Activity`` objects, no intermediate ADG), stamping repeated
  sub-structures from relocatable templates; its output is memoized
  across engines by ``(structural fingerprint, estimate values)``.

Consumers: :class:`~repro.core.analysis.ExecutionAnalyzer` builds its
reports through the engine, :class:`~repro.service.admission.
AdmissionController` runs its feasibility gates on cached structural
plans, and :class:`~repro.service.arbiter.LPArbiter` pulls per-execution
minimal/optimal LPs from kept plans during rebalances.
"""

from .cache import PlanCache, PlanCacheStats
from .compile import (
    CompiledProjection,
    ProjectionCompiler,
    compile_structural,
    structural_fingerprint,
)
from .engine import PlanEngine
from .table import CompiledPinnedBase, CompiledSchedule, PlanTable

__all__ = [
    "CompiledPinnedBase",
    "CompiledProjection",
    "CompiledSchedule",
    "PlanCache",
    "PlanCacheStats",
    "PlanEngine",
    "PlanTable",
    "ProjectionCompiler",
    "compile_structural",
    "structural_fingerprint",
]
