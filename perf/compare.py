"""Compare two result files: ``python3 perf/compare.py A.json B.json``.

For every workload and end-to-end metric both files hold, prints base, new,
their ratio, the metric's bound and a verdict:

``unresolved``  a side's quartile spread is wider than the bound, and the
                medians differ by no more than that spread
``regressed``   the new median is worse than the base by more than the bound
``improved``    better than the base by more than the bound
``unchanged``   within the bound either way

A file is what ``run.py`` writes under ``perf/out/``: one workload's result
or the combined file of all six.  Exits non-zero on any ``regressed``,
which includes a higher ``failed_share``.  A performance claim is made with
this table, not by eye.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, Sequence

if __package__ in (None, ""):
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perf.spec import Bound, end_to_end_bounds  # noqa: E402


def load(path: str) -> Dict[str, Dict[str, Any]]:
    """Result documents by workload name."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if "workloads" in document:
        return document["workloads"]
    return {document["workload"]: document}


def spread(metric: Dict[str, Any]) -> Optional[float]:
    """Distance between the quartiles as a share of the median, if recorded."""
    if "q1" not in metric or not metric["value"]:
        return None
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def judge(base: Dict[str, Any], new: Dict[str, Any], bound: Bound, simulated: bool) -> str:
    worse = new["value"] - base["value"]
    if bound.better == "higher":
        worse = -worse
    allowed = bound.bound * abs(base["value"]) + (0.0 if simulated else bound.slack)
    widest = max((s for s in (spread(base), spread(new)) if s is not None), default=0.0)
    if bound.bound and widest > bound.bound and abs(worse) <= widest * abs(base["value"]):
        return "unresolved"
    if worse > allowed:
        return "regressed"
    return "improved" if -worse > allowed else "unchanged"


def compare(base_path: str, new_path: str) -> List[Dict[str, Any]]:
    bounds = end_to_end_bounds()
    base_run, new_run = load(base_path), load(new_path)
    rows = []
    for workload, base_doc in base_run.items():
        new_doc = new_run.get(workload)
        if new_doc is None or base_doc["trace"] or new_doc["trace"]:
            continue  # end-to-end numbers come from untraced runs only
        for name, bound in bounds.items():
            base, new = base_doc["metrics"].get(name), new_doc["metrics"].get(name)
            if base is None or new is None:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": bound.unit,
                    "base": base["value"],
                    "new": new["value"],
                    "ratio": new["value"] / base["value"] if base["value"] else None,
                    "bound": bound.bound,
                    "verdict": judge(base, new, bound, base_doc.get("simulated", True)),
                }
            )
        if base_doc.get("decision_digest") != new_doc.get("decision_digest"):
            rows.append({"workload": workload, "metric": "decision_digest", "verdict": "differs"})
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    rows = compare(*argv)
    line = "{:14s} {:22s} {:>12s} {:>12s} {:>7s} {:>6s}  {}"
    print(line.format("workload", "metric", "base", "new", "ratio", "bound", "verdict"))
    for row in rows:
        cells = ["", "", "", ""]
        if "base" in row:
            ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "-"
            cells = [f"{row['base']:.6g}", f"{row['new']:.6g}", ratio, f"{row['bound']:.0%}"]
        print(line.format(row["workload"], row["metric"], *cells, row["verdict"]))
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"# {len(rows)} pairs, {len(regressed)} regressed, {len(unresolved)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
