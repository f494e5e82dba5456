"""Record/replay determinism: the replayed Rebalance log equals the live one.

The acceptance bar from the durability tentpole: replaying a recorded
run's event log through the simulator reproduces an **identical
normalized Rebalance log** — every grant, cold-start, infeasibility flag
and committed budget re-derived offline from the saved artifact.
"""

import pytest

from repro import (
    Execute,
    Map,
    Merge,
    QoS,
    Seq,
    SimulatedPlatform,
    SkeletonService,
    Split,
)
from repro.durability import (
    MemoryStore,
    ReplayLog,
    RunRecorder,
    normalize_rebalance,
    replay_rebalances,
)
from repro.errors import DurabilityError
from repro.runtime.costmodel import ConstantCostModel
from repro.service import TenantQuota


def timed_map_program(width):
    return Map(
        Split(lambda v, w=width: [v] * w, name="split"),
        Seq(Execute(lambda v: v, name="leaf")),
        Merge(sum, name="merge"),
    )


def sim_service(**kwargs):
    platform = SimulatedPlatform(
        parallelism=1, cost_model=ConstantCostModel(1.0), max_parallelism=4
    )
    return SkeletonService(platform=platform, **kwargs)


def run_and_record(service, widths, qos_list=None):
    """Submit one program per width, track each, drive to completion."""
    recorder = RunRecorder(service)
    programs, handles = {}, []
    for i, width in enumerate(widths):
        program = timed_map_program(width)
        qos = qos_list[i] if qos_list else QoS.wall_clock(100.0)
        handle = service.submit(program, i, qos=qos)
        recorder.track(handle, label=f"run-{i}")
        programs[handle.execution_id] = program
        handles.append(handle)
    results = [h.result() for h in handles]
    return recorder.finish(), programs, results


def fresh_programs(log, widths):
    """Fresh constructions keyed by recorded execution id (eid order ==
    submission order on the process-global id counter)."""
    return {
        eid: timed_map_program(width)
        for eid, width in zip(sorted(log.executions), widths)
    }


class TestReplayDeterminism:
    def test_replay_reproduces_identical_rebalance_log(self):
        widths = [3, 4, 2]
        log, programs, _results = run_and_record(sim_service(), widths)
        live = log.recorded_rebalances()
        assert live, "source run produced no rebalances"
        replayed = replay_rebalances(log, programs)
        assert len(replayed) == len(live)
        assert [normalize_rebalance(r) for r in replayed] == [
            normalize_rebalance(r) for r in live
        ]

    def test_replay_against_fresh_construction(self):
        widths = [3, 3]
        log, _programs, _results = run_and_record(sim_service(), widths)
        live = [normalize_rebalance(r) for r in log.recorded_rebalances()]
        replayed = replay_rebalances(log, fresh_programs(log, widths))
        assert [normalize_rebalance(r) for r in replayed] == live

    def test_replay_round_trips_through_disk(self, tmp_path):
        widths = [4, 2]
        log, _programs, _results = run_and_record(sim_service(), widths)
        path = tmp_path / "run.json"
        log.save(path)
        loaded = ReplayLog.load(path)
        replayed = replay_rebalances(loaded, fresh_programs(loaded, widths))
        assert [normalize_rebalance(r) for r in replayed] == [
            normalize_rebalance(r) for r in log.recorded_rebalances()
        ]

    def test_replay_with_mixed_qos_classes(self):
        qos_list = [
            QoS.wall_clock(100.0, weight=3.0),
            QoS.wall_clock(100.0, priority=1),
            QoS.wall_clock(100.0),
        ]
        log, programs, _results = run_and_record(
            sim_service(quotas={"default": TenantQuota(weight=1.0)}),
            [3, 3, 3],
            qos_list,
        )
        replayed = replay_rebalances(log, programs)
        assert [normalize_rebalance(r) for r in replayed] == [
            normalize_rebalance(r) for r in log.recorded_rebalances()
        ]
        # The recorded classes made it into the log (and thus the replay).
        weights = {m["weight"] for m in log.executions.values()}
        assert 3.0 in weights

    def test_fingerprint_mismatch_rejected(self):
        log, _programs, _results = run_and_record(sim_service(), [3])
        # A structurally different program (the map width only changes
        # the split lambda, not the shape — it fingerprints identically).
        wrong = {
            eid: Seq(Execute(lambda v: v, name="other"))
            for eid in log.executions
        }
        with pytest.raises(DurabilityError, match="fingerprint"):
            replay_rebalances(log, wrong)

    def test_missing_program_rejected(self):
        log, _programs, _results = run_and_record(sim_service(), [3])
        with pytest.raises(DurabilityError, match="program"):
            replay_rebalances(log, {})

    def test_future_log_version_rejected(self, tmp_path):
        log, _programs, _results = run_and_record(sim_service(), [2])
        path = tmp_path / "run.json"
        log.save(path)
        import json

        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DurabilityError, match="version"):
            ReplayLog.load(path)

    def test_old_log_with_removed_config_keys_still_replays(self, tmp_path):
        """A log saved before the planner had one path: its config still
        holds the patch switch (which never changed a decision) and
        names the aging clock.  It must end in the recorded outcomes —
        not in a ``TypeError`` from a removed keyword."""
        import json

        widths = [3, 4]
        log, _programs, _results = run_and_record(sim_service(), widths)
        assert "plan_patching" not in log.config and "aging" not in log.config
        path = tmp_path / "old.json"
        log.save(path)
        doc = json.loads(path.read_text())
        doc["config"].update({"plan_patching": False, "aging": "virtual-time"})
        path.write_text(json.dumps(doc))
        loaded = ReplayLog.load(path)
        assert loaded.config["plan_patching"] is False
        replayed = replay_rebalances(loaded, fresh_programs(loaded, widths))
        assert replayed
        assert [normalize_rebalance(r) for r in replayed] == [
            normalize_rebalance(r) for r in log.recorded_rebalances()
        ]

    def test_log_recorded_under_round_aging_is_refused(self):
        """Round aging *did* change grants and is gone: such a log gets
        the typed error, never a silently different replay."""
        log, programs, _results = run_and_record(sim_service(), [3])
        log.config["aging"] = "rounds"
        with pytest.raises(DurabilityError, match="rounds"):
            replay_rebalances(log, programs)

    def test_untracked_executions_dropped_not_fatal(self):
        service = sim_service()
        recorder = RunRecorder(service)
        tracked = service.submit(
            timed_map_program(3), 1, qos=QoS.wall_clock(100.0)
        )
        recorder.track(tracked)
        untracked = service.submit(
            timed_map_program(3), 2, qos=QoS.wall_clock(100.0)
        )
        assert tracked.result() == 3 and untracked.result() == 6
        log = recorder.finish()
        assert recorder.dropped_events > 0
        assert set(log.executions) == {tracked.execution_id}
        # Every kept event belongs to the tracked execution.
        assert all(
            e["execution_id"] == tracked.execution_id for e in log.events
        )

    def test_recorder_detaches_cleanly(self):
        service = sim_service()
        recorder = RunRecorder(service)
        generation = service.platform.bus.generation
        log = recorder.finish()
        assert service.platform.bus.generation > generation
        assert service.arbiter.on_rebalance is None
        assert log.points == [] and log.events == []


class TestReplayWithCheckpoints:
    def test_recorded_checkpointed_run_still_replays(self):
        """Checkpointing must not perturb the arbitration decisions."""
        store = MemoryStore()
        service = sim_service(checkpoints=store)
        recorder = RunRecorder(service)
        programs = {}
        handles = []
        for i in range(2):
            program = timed_map_program(3)
            handle = service.submit(
                program,
                i,
                qos=QoS.wall_clock(100.0),
                checkpoint=f"job-{i}",
            )
            recorder.track(handle)
            programs[handle.execution_id] = program
            handles.append(handle)
        assert [h.result() for h in handles] == [0, 3]
        log = recorder.finish()
        replayed = replay_rebalances(log, programs)
        assert [normalize_rebalance(r) for r in replayed] == [
            normalize_rebalance(r) for r in log.recorded_rebalances()
        ]
        assert store.latest("job-0").kind == "final"
