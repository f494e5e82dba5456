"""Run the benchmark: one workload per process, checked, every metric by name.

The driver's form (see ``BENCHMARK.json``)::

    python3 perf/run.py --workload storm_shared --seed 7 --seconds 10 --trace 0

measures one workload for ``--seconds`` and prints, as the last line of its
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Without ``--workload`` it runs all six, each
in a fresh subprocess, and writes one combined file for ``compare.py``.
Everything it writes goes under ``perf/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"perf/run.py: no program to measure: {_ROOT / 'src' / 'repro'} is missing")
# Run as a script, sys.path[0] is perf/ itself, where trace.py would shadow
# the standard library's module of that name.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != _HERE]
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from perf import spec  # noqa: E402
from perf.trace import LAYERS, ROOT, LayerTracer  # noqa: E402
from perf.workloads import WORKLOADS, Repetition, Workload  # noqa: E402

SCHEMA = 1
#: Of every four repetitions of a traced run, the first is untraced: it is
#: the base of ``trace.overhead_x`` and of the submit timings.
TRACE_CYCLE = 4
SETUP_SAMPLES = 3
CHILD_TIMEOUT = 170.0
#: A 99th percentile needs at least ten samples beyond it.
P99_MIN_SAMPLES = 1000


# ---------------------------------------------------------------------------
# statistics


def quartiles(values: Sequence[float]) -> Dict[str, Any]:
    """Median, n and quartiles of a sample (quartiles need two values)."""
    summary: Dict[str, Any] = {"value": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3)
    return summary


def host_fingerprint() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# measuring one workload


def measure(
    workload: Workload, seconds: float, trace: bool, max_reps: Optional[int]
) -> Tuple[List[Repetition], List[Repetition], Optional[LayerTracer]]:
    """Repeat the workload until the time is spent.

    Returns the untraced repetitions, the traced ones and the tracer.
    """
    tracer = LayerTracer() if trace else None
    plain: List[Repetition] = []
    traced: List[Repetition] = []
    deadline = perf_counter() + seconds
    count = 0
    while True:
        tracing = tracer is not None and count % TRACE_CYCLE != 0
        if tracing:
            tracer.install()
            tracer.keep_spans = not traced
        try:
            rep = workload.repetition(tracer if tracing else None)
        finally:
            if tracing:
                tracer.uninstall()
        (traced if tracing else plain).append(rep)
        count += 1
        if max_reps is not None:
            if count >= max_reps:
                break
        elif perf_counter() >= deadline and count >= (2 if trace else 3):
            break
    return plain, traced, tracer


def verdict(workload: Workload, reps: Sequence[Repetition]) -> Dict[str, Any]:
    """Fold the output checks of every repetition into one verdict."""
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    failures = [why for rep in reps for why in rep.failures][:10]
    digest = makespan = None
    if workload.simulated:
        # Virtual time: every repetition of one seed decides the same.
        digest, makespan = reps[0].digest, reps[0].makespan
        for rep in reps[1:]:
            attempted += 1
            if (rep.digest, rep.makespan) != (digest, makespan):
                failed += 1
                failures.append(f"decisions differ between repetitions: {rep.digest}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "decision_digest": digest,
        "virtual_makespan_s": makespan,
    }


def end_to_end_metrics(
    workload: Workload, reps: Sequence[Repetition], checks: Dict[str, Any]
) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric this workload has, from untraced repetitions."""
    metrics: Dict[str, Dict[str, Any]] = {}

    def put(name: str, unit: str, summary: Dict[str, Any]) -> None:
        metrics[name] = {"unit": unit, **summary}

    wall = quartiles([rep.wall_s for rep in reps])
    bare = quartiles([rep.bare_s for rep in reps])
    put("wall_s", "s", wall)
    put("bare_wall_s", "s", bare)
    # Ratio of the medians; the quartiles are those of the interleaved pairs.
    pairs = quartiles([rep.wall_s / rep.bare_s for rep in reps])
    put("autonomic_overhead_x", "ratio", {**pairs, "value": wall["value"] / bare["value"]})
    if reps[0].obs_s is not None:
        put("wall_obs_s", "s", quartiles([rep.obs_s for rep in reps]))

    def latency(name: str, per_rep: List[List[float]]) -> None:
        """Median over all samples; quartiles of the per-repetition medians."""
        samples = [s * 1e3 for rep_samples in per_rep for s in rep_samples]
        if not samples:
            return
        medians = quartiles([statistics.median(r) * 1e3 for r in per_rep if r])
        p50 = {**medians, "value": statistics.median(samples), "n": len(samples)}
        put(f"{name}_p50", "ms", p50)
        if name == "decision_ms" and len(samples) >= P99_MIN_SAMPLES:
            p99 = statistics.quantiles(samples, n=100)[98]
            put(f"{name}_p99", "ms", {"value": p99, "n": len(samples)})

    latency("decision_ms", [rep.decisions_s for rep in reps])
    latency("submit_ms", [rep.submits_s for rep in reps])
    goals = sum(rep.goals for rep in reps)
    if goals:
        missed = sum(rep.goals_missed for rep in reps)
        put("goal_miss_rate", "share", {"value": missed / goals, "n": goals})
    if checks["virtual_makespan_s"] is not None:
        put("virtual_makespan_s", "s", {"value": checks["virtual_makespan_s"], "n": len(reps)})
    failed_share = checks["failed"] / checks["attempted"]
    put("failed_share", "share", {"value": failed_share, "n": checks["attempted"]})
    return metrics


def per_layer_metrics(
    workload: Workload,
    plain: Sequence[Repetition],
    traced: Sequence[Repetition],
    tracer: LayerTracer,
) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric, normalised per traced repetition.

    A layer the workload does not exercise reports 0 calls and 0 ms.
    """
    n = len(traced)
    metrics: Dict[str, Dict[str, Any]] = {}

    def put(name: str, unit: str, value: float) -> None:
        metrics[name] = {"unit": unit, "value": value, "n": n}

    auto, obs, bare = tracer.totals("auto"), tracer.totals("obs"), tracer.totals("bare")
    for layer in LAYERS:
        source = obs if layer == "obs" else auto
        put(f"{layer}.calls", "count", source["calls"][layer] / n)
        put(f"{layer}.self_ms", "ms", source["self_s"][layer] * 1e3 / n)

    counts: Dict[str, float] = {}
    for rep in traced:
        for key, value in rep.counts.items():
            counts[key] = counts.get(key, 0.0) + value

    def mean(key: str) -> float:
        return counts.get(key, 0.0) / n

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    put("events.published", "count", mean("events.published"))
    put("events.batches", "count", mean("events.batches"))
    put("events.batch_mean", "count", ratio(mean("events.batched"), mean("events.batches")))
    put("events.listener_errors", "count", mean("events.listener_errors"))
    put("statemachines.machines", "count", mean("statemachines.machines"))
    put("analysis.reports", "count", auto["reports"] / n)
    put("controller.decisions", "count", mean("controller.decisions"))
    put("controller.lp_changes", "count", mean("controller.lp_changes"))
    for key in (
        "projection_passes",
        "projection_patches",
        "struct_compiles",
        "struct_memo_hits",
        "table_compiles",
        "table_patches",
    ):
        put(f"planning.project.{key}", "count", mean(f"plan.{key}"))
    memo_hits, compiles = mean("plan.struct_memo_hits"), mean("plan.struct_compiles")
    put("planning.project.memo_hit_ratio", "share", ratio(memo_hits, memo_hits + compiles))
    put("planning.pin.pin_patches", "count", mean("plan.pin_patches"))
    put("planning.schedule.schedule_passes", "count", mean("plan.schedule_passes"))
    for key in ("hits", "misses", "evictions", "size"):
        put(f"planning.cache.{key}", "count", mean(f"plan.{key}"))
    hits, misses = mean("plan.hits"), mean("plan.misses")
    put("planning.cache.hit_ratio", "share", ratio(hits, hits + misses))
    for key in ("admission.admitted", "admission.held", "admission.rejected"):
        put(key, "count", mean(key))
    put("arbiter.applied", "count", mean("arbiter.applied"))
    put("arbiter.throttled", "count", mean("arbiter.throttled"))
    put("service.completed", "count", mean("service.completed"))
    put("service.cancelled", "count", mean("service.cancelled"))
    submits = [s * 1e3 for rep in plain for s in rep.submits_s]
    put("service.submit_ms_p50", "ms", statistics.median(submits) if submits else 0.0)

    traced_wall = sum(rep.wall_s for rep in traced)
    traced_bare = sum(rep.bare_s for rep in traced)
    tasks = auto["calls"]["platform.dispatch"]
    busy = counts.get("platform.busy_s", 0.0)
    workers = mean("platform.workers")
    put("platform.tasks", "count", tasks / n)
    put("platform.muscle_busy_ms", "ms", busy * 1e3 / n)
    # Busy time against capacity is real time on real workers only (the
    # simulator reports no workers); see README.md for the floor at 0.
    idle = 1.0 - ratio(busy, traced_wall * workers) if workers else 0.0
    overhead_us = ratio(traced_bare * workers - busy, tasks) * 1e6
    put("platform.idle_share", "share", max(0.0, idle))
    put("platform.task_overhead_us", "us", max(0.0, overhead_us))
    put("obs.spans", "count", mean("obs.spans"))
    put("obs.dropped", "count", mean("obs.dropped"))
    put("obs.flight_records", "count", mean("obs.flight_records"))

    def named(totals: Dict[str, Any]) -> float:
        return sum(s for layer, s in totals["self_s"].items() if layer != ROOT)

    put("trace.points_resolved", "count", len(tracer.resolved))
    put("trace.points_missing", "count", len(tracer.missing))
    put("trace.coverage", "share", ratio(named(auto), traced_wall))
    traced_median = statistics.median(rep.wall_s for rep in traced)
    put("trace.overhead_x", "ratio", traced_median / statistics.median(r.wall_s for r in plain))
    explained = named(auto) - named(bare)
    put("trace.overhead_attributed", "share", ratio(explained, traced_wall - traced_bare))
    # Worker and pump threads overlap the main thread, so on real backends
    # the layers sum to the thread-root spans, not to the wall.
    whole = traced_wall if workload.simulated else auto["thread_root_s"]
    put("trace.self_sum_ratio", "share", ratio(named(auto) + auto["self_s"][ROOT], whole))
    return metrics


def measure_setup(name: str, seed: int, samples: int) -> Dict[str, Any]:
    """Set the workload up in fresh subprocesses: start of process to ready."""
    times = []
    for _ in range(samples):
        started = perf_counter()
        command = [sys.executable, str(_HERE / "run.py"), "--workload", name, "--seed", str(seed)]
        child = subprocess.Popen(command + ["--setup-only"], stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            elapsed = perf_counter() - started
            child.communicate(timeout=CHILD_TIMEOUT)
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up of {name} failed in a subprocess")
        times.append(elapsed)
    return quartiles(times)


def run_workload(args: argparse.Namespace) -> int:
    benchmark = spec.load_benchmark()
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        workload.setup()
        print("ready", flush=True)
        workload.teardown()
        return 0
    trace = bool(args.trace)
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    workload.setup()
    # Imports and inputs stay for the whole run: keep them out of every
    # later collection.
    gc.collect()
    gc.freeze()
    try:
        plain, traced, tracer = measure(workload, seconds, trace, args.reps)
    finally:
        workload.teardown()
    checks = verdict(workload, plain + traced)
    spec.OUT.mkdir(exist_ok=True)
    if trace:
        metrics = per_layer_metrics(workload, plain, traced, tracer)
        wanted = benchmark["per_layer"]
        header = {"workload": workload.name, "seed": args.seed, "host": host_fingerprint()}
        tracer.dump(spec.OUT / f"trace_{workload.name}.json", {**header, "traced": len(traced)})
    else:
        metrics = end_to_end_metrics(workload, plain, checks)
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # The pools are shut down: their workers count as waited-for children.
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = {"unit": "MiB", "value": usage / 1024.0, "n": 1}
        metrics["setup_s"] = {"unit": "s", **measure_setup(workload.name, args.seed, SETUP_SAMPLES)}
        wanted = benchmark["end_to_end"]

    document = {
        "schema": SCHEMA,
        "workload": workload.name,
        "simulated": workload.simulated,
        "seed": args.seed,
        "seconds": seconds,
        "trace": int(trace),
        "repetitions": len(plain) + len(traced),
        "host": host_fingerprint(),
        **checks,
        "metrics": metrics,
    }
    path = spec.OUT / f"{workload.name}_seed{args.seed}_trace{int(trace)}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")

    print(f"# {workload.name} seed={args.seed} trace={int(trace)} -> {path}")
    for name, m in metrics.items():
        spread = f" q1={m['q1']:.6g} q3={m['q3']:.6g}" if "q1" in m else ""
        print(f"{name:42s} {m['value']:>14.6g} {m['unit']:6s} n={m['n']}{spread}")
    print(f"decision_digest {checks['decision_digest']}")
    for why in checks["failures"]:
        print(f"FAILED {why}")
    print(
        json.dumps(
            {
                "correct": checks["correct"],
                "attempted": checks["attempted"],
                "failed": checks["failed"],
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0 if checks["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh subprocess; one combined file for compare.py."""
    combined: Dict[str, Any] = {
        "schema": SCHEMA,
        "seed": args.seed,
        "trace": int(bool(args.trace)),
        "host": host_fingerprint(),
        "workloads": {},
    }
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(_HERE / "run.py"), "--workload", name]
        command += ["--seed", str(args.seed), "--trace", str(combined["trace"])]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.reps is not None:
            command += ["--reps", str(args.reps)]
        status |= subprocess.run(command, timeout=CHILD_TIMEOUT).returncode
        path = spec.OUT / f"{name}_seed{args.seed}_trace{combined['trace']}.json"
        if path.exists():
            with open(path, encoding="utf-8") as handle:
                combined["workloads"][name] = json.load(handle)
    target = args.out or spec.OUT / f"run_seed{args.seed}_trace{combined['trace']}.json"
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(combined, handle, indent=1)
        handle.write("\n")
    print(f"# all workloads -> {target}")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all six")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--reps", type=int, help="exactly this many repetitions, whatever the time")
    parser.add_argument("--out", type=Path, help="combined result file (all workloads)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
