"""Metric names, units and regression bounds: one table for run and compare.

``BENCHMARK.json`` at the repo root is the contract with the driver.  It
lists the end-to-end metrics every workload reports and the per-layer
metrics of a traced run.  The metrics below ride along in the result files
and in ``compare.py``: they apply to some workloads only, or are exact
(possibly 0), so they cannot be end-to-end metrics of the contract.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


class Bound(NamedTuple):
    unit: str
    better: str
    #: Share of the base by which the metric may get worse.
    bound: float
    #: Absolute slack on top (the goal-miss rate on real threads).
    slack: float = 0.0


#: Workload-specific and exact metrics (see the tables in README.md).
EXTENDED: Dict[str, Bound] = {
    "bare_wall_s": Bound("s", "lower", 0.10),
    "wall_obs_s": Bound("s", "lower", 0.10),
    "decision_ms_p99": Bound("ms", "lower", 0.25),
    "submit_ms_p50": Bound("ms", "lower", 0.15),
    "goal_miss_rate": Bound("share", "lower", 0.0, slack=0.02),
    "virtual_makespan_s": Bound("s", "lower", 0.0),
    "failed_share": Bound("share", "lower", 0.0),
}


def load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end_bounds(benchmark: Optional[Dict[str, Any]] = None) -> Dict[str, Bound]:
    """Every metric ``compare.py`` judges: the contract's, then the extended."""
    benchmark = benchmark or load_benchmark()
    bounds = {
        m["name"]: Bound(m["unit"], m["better"], m["bound"]) for m in benchmark["end_to_end"]
    }
    bounds.update(EXTENDED)
    return bounds
