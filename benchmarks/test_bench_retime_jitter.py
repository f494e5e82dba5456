"""OVERHEAD (retime) — the delta path under durations that jitter.

The delta pipeline's other benches run at constant muscle cost: the
estimates converge, the estimator version stops moving and every
analysis after the first is a patch.  No real clock behaves like that.
Here a 10x20 two-level map (222 activities) runs under one
``AutonomicController`` on the simulator with a value-dependent cost of
1.0-1.2 s per muscle against estimates warm at 1.1 s, so almost every
muscle completion moves a ``t(m)``:

* **walk** — ``PlanCache(maxsize=0)``, the from-scratch baseline:
  nothing is stored or carried, so every analysis re-walks the machines,
  recompiles the table, pins from scratch and sweeps the critical path;
* **retime** — the default: the moved muscle's rows are retimed in
  place and the rest of the delta pipeline engages as for a landed
  actual.

The two runs' decisions are asserted identical before anything is
timed, the retimed run must walk exactly once, and the speedup is the
ratio of medians over interleaved repeats.
"""

import statistics
import time

from repro import AutonomicController, SimulatedPlatform, run
from repro.core.persistence import snapshot_from_names
from repro.core.planning import PlanCache
from repro.core.qos import QoS
from repro.runtime.costmodel import CallableCostModel
from repro.skeletons import Execute, Map, Merge, Seq, Split

OUTER, INNER = 10, 20
ACTIVITIES = 2 + OUTER * (INNER + 2)
ROUNDS = 5  #: interleaved walk/retime timing pairs
SPEEDUP_FLOOR = 1.5


def _cost(_muscle, value):
    key = sum(value) if isinstance(value, list) else value
    return 1.0 + 0.05 * (key % 5)


def program():
    return Map(
        Split(lambda v: [v + 7 * i for i in range(OUTER)], name="osplit"),
        Map(
            Split(lambda v: [v + i for i in range(INNER)], name="split"),
            Seq(Execute(lambda v: v + 1, name="work")),
            Merge(sum, name="merge"),
        ),
        Merge(sum, name="omerge"),
    )


def managed_run(cache=None):
    """One jittered run; ``(decisions, plan stats, wall seconds)``.
    *cache* replaces the controller's default plan cache."""
    skel = program()
    platform = SimulatedPlatform(
        parallelism=2, cost_model=CallableCostModel(_cost), max_parallelism=16
    )
    controller = AutonomicController(
        platform, skel, qos=QoS.wall_clock(60.0, max_lp=16)
    )
    controller.initialize_estimates(
        skel,
        snapshot_from_names(
            skel,
            times={n: 1.1 for n in ("osplit", "split", "work", "merge", "omerge")},
            cards={"osplit": float(OUTER), "split": float(INNER)},
        ),
    )
    if cache is not None:
        controller.analyzer.plan.cache = cache
    t0 = time.perf_counter()
    run(skel, 3, platform)
    wall = time.perf_counter() - t0
    decisions = [
        (d.time, d.trigger, d.lp_before, d.lp_after, d.action, d.wct_current_lp)
        for d in controller.decisions
    ]
    return decisions, controller.analyzer.plan.cache.stats, wall


def test_retime_jitter_overhead(benchmark, report):
    walked, walk_stats, _ = managed_run(PlanCache(maxsize=0))
    retimed, retime_stats, _ = managed_run()
    assert len(retimed) >= ACTIVITIES and retimed == walked
    assert retime_stats.projection_passes == 1 and retime_stats.table_compiles == 1
    assert walk_stats.projection_passes >= len(walked)
    assert (
        walk_stats.projection_patches
        == walk_stats.pin_patches
        == walk_stats.table_patches
        == 0
    )

    walk_s, retime_s = [], []
    for _ in range(ROUNDS):
        walk_s.append(managed_run(PlanCache(maxsize=0))[2])
        retime_s.append(managed_run()[2])
    speedup = statistics.median(walk_s) / statistics.median(retime_s)
    benchmark.pedantic(managed_run, rounds=3, iterations=1)

    report("OVERHEAD — a jittered 10x20 map: re-walk vs retime per analysis")
    report()
    report(f"{ACTIVITIES} activities, {len(retimed)} identical decisions per run")
    report(
        f"walk:   {walk_stats.projection_passes} walks, "
        f"{walk_stats.table_compiles} table compiles, "
        f"median {statistics.median(walk_s) * 1e3:.1f} ms"
    )
    report(
        f"retime: {retime_stats.projection_passes} walk, "
        f"{retime_stats.projection_patches} patches, "
        f"{retime_stats.table_compiles} table compile, "
        f"median {statistics.median(retime_s) * 1e3:.1f} ms"
    )
    report(
        f"speedup: {speedup:.2f}x, ratio of medians over {ROUNDS} "
        f"interleaved pairs (floor {SPEEDUP_FLOOR}x)"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"retiming only {speedup:.2f}x faster than re-walking a jittered "
        f"run (floor {SPEEDUP_FLOOR}x)"
    )
