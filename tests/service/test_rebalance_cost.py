"""What a rebalance costs, counted — and what ``result()`` settles.

Two properties of the service that wall-clock benches can only hint at:

* **A rebalance pays for the execution that moved.**  On a 16-tenant
  simulator storm (deterministic: virtual clock, fixed submission order)
  the planner's work counters are exact constants, and the table and pin
  patches of a rebalance are bounded by the executions that moved since
  the previous one — not by how many executions are live, each of which
  used to be re-analyzed from the top on every tick.
* **``result()`` returns after the stats hold the execution.**  The
  done-callback records the completion in ``ServiceStats`` *before* it
  releases the handle's waiters (the ordering race behind the logged
  ``test_stats_aggregate[threads]`` flake).
"""

import threading

from repro import QoS, SimulatedPlatform, SkeletonService
from repro.core.persistence import snapshot_from_names
from repro.core.qos import Priority
from repro.runtime.costmodel import ConstantCostModel
from repro.skeletons import Execute, Map, Merge, Seq, Split
from tests.conftest import sleepy_map_program, sleepy_map_snapshot

TENANTS = 16
CAPACITY = 8
GOALS = (6.0, 12.0, 30.0, 90.0)
WEIGHTS = (0.5, 1.0, 4.0)
PRIORITIES = (Priority.BATCH, Priority.NORMAL, Priority.HIGH)


def flat_map(width):
    return Map(
        Split(lambda v, w=width: [v + i for i in range(w)], name=f"split{width}"),
        Seq(Execute(lambda v: v + 1, name="leaf")),
        Merge(sum, name="sum"),
    )


def run_storm():
    """16 warm tenants over four map widths, a rebalance on every tick.

    Returns ``(per-rebalance rows, plan stats)``; a row is ``(trigger,
    time, live executions, pin patches, table patches, shared-store
    lookups)`` — the last three counted over the rebalance.
    """
    platform = SimulatedPlatform(
        parallelism=1, cost_model=ConstantCostModel(1.0), max_parallelism=CAPACITY
    )
    service = SkeletonService(
        platform=platform, capacity=CAPACITY, min_rebalance_interval=0.0
    )
    rows = []
    seen = [(0, 0, 0)]

    def on_rebalance(outcome, live_ids):
        stats = service.plan_cache.stats
        work = (stats.pin_patches, stats.table_patches, stats.hits + stats.misses)
        moved = tuple(after - before for after, before in zip(work, seen[0]))
        rows.append((outcome.trigger, outcome.time, len(live_ids)) + moved)
        seen[0] = work

    service.arbiter.on_rebalance = on_rebalance
    submitted = []
    for i in range(TENANTS):
        width = 2 + i % 4
        program = flat_map(width)
        qos = None
        if i % 5:
            qos = QoS.wall_clock(
                GOALS[i % 4], weight=WEIGHTS[i % 3], priority=PRIORITIES[i % 3]
            )
        warm = snapshot_from_names(
            program,
            times={f"split{width}": 1.0, "leaf": 1.0, "sum": 1.0},
            cards={f"split{width}": float(width)},
        )
        handle = service.submit(
            program, i, qos=qos, tenant=f"tenant-{i}", warm_start=warm
        )
        submitted.append((handle, sum(i + k + 1 for k in range(width))))
    for handle, expected in submitted:
        assert handle.result(timeout=10.0) == expected
    stats = service.plan_stats()
    service.shutdown(wait=False)
    return rows, stats


class TestRebalanceCost:
    def test_work_counters_are_the_parents_constants(self):
        """Exact planner work of the storm, unchanged by the memo, the
        carried priority table, the size-gated peak and the cold gate
        (every tenant here is warm and never meets it): those remove
        lookups and sweeps, never a projection pass or a compile.  Of
        the 473 schedule passes the storm used to run, 77 were over
        graphs with nothing pending (a tenant's last merge running or
        done) — those plans are now read off the pinned base — and 15
        priority-table lookups went with them (1231 misses before).  Of
        the 396 left, the 167 frontier passes of the minimal-LP scans
        went too: every scan here answers LP 1, and the list-scheduling
        bound certifies each without a pass.  With them went 201
        limited-plan and 107 priority-pair lookups that missed (1216
        misses before).  Of the 229 left, 157 were best-effort passes
        that no decision read: a report derives the pair only when read,
        and the scans' tops and the arbiter's ceilings stop at the pinned
        base's peak floor.  166 lookups that missed went with them (908
        misses before).  Of the 72 left, 3 repeated a plan of a graph
        whose revision had not moved — a window of pure no-ops re-stamps
        the projection, not the graph — and its record kept them.  Since
        a live graph's plans live on its record, the shared store sees
        only the structural plans: 643 of the 742 misses left with the
        live graphs' lookups.  Of the 99 left, 46 were the structural
        plans' minimal-LP scans, which the engine no longer keeps (each
        report keeps its own answers); the 53 left are the shape memo and
        the schedules of the plans it shares."""
        _rows, stats = run_storm()
        assert stats["schedule_passes"] == 473 - 77 - 167 - 157 - 3
        assert stats["projection_passes"] == 20
        assert stats["projection_patches"] == 158
        assert stats["table_compiles"] == 16
        assert stats["table_patches"] == 155
        assert stats["pin_patches"] == 184
        assert stats["misses"] == 742 - 643 - 46

    def test_a_cold_tenant_is_answered_by_the_gate(self, monkeypatch):
        """A tenant without estimates is asked for a report on every
        tick; while it waits for its first merge the answer is the O(1)
        predicate — no root list, no readiness re-scan, no planner."""
        from repro.core.analysis import ExecutionAnalyzer

        asked, walked = [], []
        analyze, slow_path = ExecutionAnalyzer.analyze, ExecutionAnalyzer._analyze
        monkeypatch.setattr(
            ExecutionAnalyzer,
            "analyze",
            lambda self, *a, **k: asked.append(1) or analyze(self, *a, **k),
        )
        monkeypatch.setattr(
            ExecutionAnalyzer,
            "_analyze",
            lambda self, *a, **k: walked.append(1) or slow_path(self, *a, **k),
        )
        platform = SimulatedPlatform(
            parallelism=1, cost_model=ConstantCostModel(1.0), max_parallelism=CAPACITY
        )
        service = SkeletonService(
            platform=platform, capacity=CAPACITY, min_rebalance_interval=0.0
        )
        cold_rounds = []
        service.arbiter.on_rebalance = lambda outcome, live: cold_rounds.append(
            bool(outcome.cold)
        )
        width = 24
        handle = service.submit(flat_map(width), 0, qos=QoS.wall_clock(90.0), tenant="cold")
        assert handle.result(timeout=10.0) == sum(k + 1 for k in range(width))
        service.shutdown(wait=False)
        assert sum(cold_rounds) >= width  # one tick per leaf, at least
        assert len(asked) >= len(cold_rounds)
        # Pre-start (no machine yet), the first warm report, the end.
        assert len(walked) <= 3

    def test_lookups_are_bounded_by_the_moved_execution(self):
        rows, _stats = run_storm()
        # Tick-driven rebalances at an instant the arbiter already
        # rebalanced at: exactly one execution moved since (the tick's),
        # and no clock advance re-times the others.
        same_instant = [
            row
            for previous, row in zip(rows, rows[1:])
            if not row[0].startswith(("admit", "done")) and row[1] == previous[1]
        ]
        assert len(same_instant) >= 80
        crowded = [row for row in same_instant if row[2] >= 12]
        assert len(crowded) >= 40
        # A moved execution costs one table patch (its rows written
        # through) and one pin patch (its base advanced over them); at
        # these ticks at most two executions moved since the previous
        # rebalance.
        assert max(row[3] for row in same_instant) <= 2
        assert max(row[4] for row in same_instant) <= 2
        # ... it does not grow with the crowd ...
        for column in (3, 4):
            sparse = [row[column] for row in same_instant if 5 <= row[2] < 12]
            assert max(row[column] for row in crowded) <= max(sparse)
        # ... and no live plan reaches the shared store: each is kept on
        # its graph's record.
        assert all(row[5] == 0 for row in same_instant)

    def test_storm_is_deterministic(self):
        first_rows, first = run_storm()
        second_rows, second = run_storm()
        assert first == second
        assert [row[1:] for row in first_rows] == [row[1:] for row in second_rows]


class TestPlanStatsContract:
    #: Every ``plan_stats()`` key the benchmark harness under ``perf/``
    #: reads: its per-layer counts, and ``size`` unconditionally (the
    #: threads workload reports the store's size after each wave).
    PERF_READS = (
        "projection_passes",
        "projection_patches",
        "struct_compiles",
        "struct_memo_hits",
        "table_compiles",
        "table_patches",
        "pin_patches",
        "schedule_passes",
        "hits",
        "misses",
        "evictions",
        "size",
    )

    def test_plan_stats_carries_every_key_perf_reads(self):
        _rows, stats = run_storm()
        for key in self.PERF_READS:
            assert key in stats, key
            assert isinstance(stats[key], int), key
        # The store keys count the shared store: structural plans only.
        assert stats["evictions"] == 0
        assert stats["size"] == stats["misses"]


class TestResultSettlesStats:
    def test_result_waits_for_the_stats_record(self):
        """Hold ``stats.record_finished`` on a gate: ``result()`` must not
        return while the completion is still missing from the stats."""
        width, leaf = 2, 0.01
        with SkeletonService(
            backend="threads", capacity=2, min_rebalance_interval=0.0
        ) as service:
            entered = threading.Event()
            gate = threading.Event()
            record_finished = service.stats.record_finished

            def held(*args, **kwargs):
                entered.set()
                assert gate.wait(timeout=10.0)
                return record_finished(*args, **kwargs)

            service.stats.record_finished = held
            program = sleepy_map_program(width, leaf)
            handle = service.submit(
                program,
                1,
                qos=QoS.wall_clock(5.0),
                tenant="t",
                warm_start=sleepy_map_snapshot(program, width, leaf),
            )
            returned = threading.Event()
            seen = {}

            def consume():
                seen["value"] = handle.result(timeout=10.0)
                seen["completed"] = service.stats.completed
                seen["goal_met"] = handle.goal_met()
                returned.set()

            consumer = threading.Thread(target=consume, daemon=True)
            consumer.start()
            assert entered.wait(timeout=10.0)  # the execution finished...
            assert handle.future.done()
            # ...but while its stats record is held, result() is too.
            assert not returned.wait(timeout=0.2)
            assert service.stats.completed == 0
            gate.set()
            assert returned.wait(timeout=10.0)
            consumer.join(timeout=10.0)
            assert not consumer.is_alive()
            assert seen == {"value": width, "completed": 1, "goal_met": True}
            assert service.drain(timeout=10.0)
