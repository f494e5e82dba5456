"""Event-log record/replay — deterministic postmortems of service runs.

A :class:`RunRecorder` attached to a live :class:`~repro.service.service.
SkeletonService` captures everything the arbiter's decisions depend on:

* the full event stream (an :class:`~repro.events.recorder.EventRecorder`
  registered *before* any analyzer, so it has consumed every event by the
  time a rebalance fires);
* per-submission scheduling state (QoS, resolved weight/priority, the
  warm-start estimate snapshot at admission);
* the rebalance schedule — for each applied rebalance, its trigger, its
  platform time, the live execution ids **in arbitration-input order**
  (stable sorts break allocation ties by dict insertion order) and how
  many events had been published when it fired (captured through
  :attr:`~repro.service.arbiter.LPArbiter.on_rebalance`);
* the arbitration configuration (capacity, rho, extensions, the
  starvation-aging base and unit).

:func:`replay_rebalances` re-runs that schedule offline: fresh analyzers
consume the recorded event prefixes, and a fresh arbiter re-decides every
rebalance at the recorded times.  On a deterministic source run (the
simulator) the replayed :class:`~repro.service.arbiter.Rebalance` log is
**identical** to the recorded one — the property the durability test
suite locks in, and what makes a saved :class:`ReplayLog` a faithful
postmortem artifact: every grant, flag and preemption can be re-derived
(and single-stepped) long after the run, on a machine that never saw it.

Events are serialized structurally: each event's skeleton node becomes
its pre-order index in the owning program, so a saved log replays against
a *fresh construction* of the same program — the same structural-identity
trick the estimate snapshots use.  Event values are not recorded (the
tracking machines never read them); a replayed event carries ``value=None``.

Capture is simulator-faithful by design; on free-running thread/process
backends the recorded schedule is still replayable, but worker-timing
nondeterminism in the *source* run means two live runs would not match
each other either.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.analysis import ExecutionAnalyzer
from ..core.persistence import atomic_write_text, snapshot_estimates
from ..core.planning import PlanCache
from ..core.qos import QoS
from ..errors import DurabilityError
from ..events.recorder import EventRecorder
from ..events.types import Event, When, Where
from ..service.arbiter import LPArbiter, Rebalance
from ..skeletons.base import Skeleton
from .checkpoint import program_fingerprint, qos_from_dict, qos_to_dict

__all__ = [
    "REPLAY_LOG_VERSION",
    "event_to_record",
    "record_to_event",
    "rebalance_to_record",
    "normalize_rebalance",
    "ReplayLog",
    "RunRecorder",
    "replay_rebalances",
]

REPLAY_LOG_VERSION = 1

#: Event-extra values worth keeping for replay: plain scalars only (the
#: machines read fs_card / cond_result / iteration / stage / child /
#: depth / started_at — all scalars; anything richer is user payload).
_SCALAR = (int, float, bool, str, type(None))


def event_to_record(event: Event, node_index: Dict[int, int]) -> Dict[str, Any]:
    """Serialize one event structurally (skeleton → pre-order node index)."""
    node = node_index.get(id(event.skeleton))
    if node is None:
        raise DurabilityError(
            f"event references a skeleton node outside the recorded "
            f"program (execution {event.execution_id}, label {event.label})"
        )
    return {
        "node": node,
        "kind": event.kind,
        "when": event.when.value,
        "where": event.where.value,
        "index": event.index,
        "parent_index": event.parent_index,
        "timestamp": event.timestamp,
        "worker": event.worker,
        "extra": {
            k: v for k, v in event.extra.items() if isinstance(v, _SCALAR)
        },
        "execution_id": event.execution_id,
    }


def record_to_event(record: Dict[str, Any], nodes: Sequence[Skeleton]) -> Event:
    """Rebuild a replayable event against a fresh program construction.

    The value and trace fields are not round-tripped — the tracking
    machines (the only replay consumers) never read them.
    """
    return Event(
        skeleton=nodes[record["node"]],
        kind=record["kind"],
        when=When(record["when"]),
        where=Where(record["where"]),
        index=record["index"],
        parent_index=record["parent_index"],
        value=None,
        timestamp=record["timestamp"],
        worker=record.get("worker"),
        extra=record.get("extra") or {},
        execution_id=record.get("execution_id"),
    )


def rebalance_to_record(outcome: Rebalance) -> Dict[str, Any]:
    """Serialize one arbitration outcome (JSON object keys are strings)."""
    return {
        "time": outcome.time,
        "trigger": outcome.trigger,
        "shares": {str(k): v for k, v in outcome.shares.items()},
        "total_lp": outcome.total_lp,
        "cold": list(outcome.cold),
        "infeasible": list(outcome.infeasible),
        "committed": {str(k): v for k, v in outcome.committed.items()},
        "weights": {str(k): v for k, v in outcome.weights.items()},
        "priorities": {str(k): v for k, v in outcome.priorities.items()},
    }


def _record_to_rebalance(record: Dict[str, Any]) -> Rebalance:
    return Rebalance(
        time=record["time"],
        trigger=record["trigger"],
        shares={int(k): v for k, v in record["shares"].items()},
        total_lp=record["total_lp"],
        cold=tuple(record.get("cold", ())),
        infeasible=tuple(record.get("infeasible", ())),
        committed={int(k): v for k, v in record.get("committed", {}).items()},
        weights={int(k): v for k, v in record.get("weights", {}).items()},
        priorities={int(k): v for k, v in record.get("priorities", {}).items()},
    )


def normalize_rebalance(outcome: Rebalance) -> Tuple:
    """One rebalance as a comparable tuple (sorted, deadline-free).

    Deadlines are derived values (goal + start time) and not part of the
    decision identity; everything the arbiter *decided* is.
    """
    return (
        outcome.time,
        outcome.trigger,
        tuple(sorted(outcome.shares.items())),
        outcome.total_lp,
        tuple(sorted(outcome.cold)),
        tuple(sorted(outcome.infeasible)),
        tuple(sorted(outcome.committed.items())),
        tuple(sorted(outcome.weights.items())),
        tuple(sorted(outcome.priorities.items())),
    )


@dataclass
class ReplayLog:
    """A saved run: events + rebalance schedule + per-execution metadata.

    ``executions`` maps execution id → ``{"qos", "weight", "priority",
    "warm", "fingerprint"}``; ``points`` carries one entry per applied
    rebalance (``{"events_seen", "time", "trigger", "live"}``);
    ``outcomes`` is the recorded ground truth the replayed log is
    compared against.
    """

    config: Dict[str, Any] = field(default_factory=dict)
    executions: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    points: List[Dict[str, Any]] = field(default_factory=list)
    outcomes: List[Dict[str, Any]] = field(default_factory=list)

    def recorded_rebalances(self) -> List[Rebalance]:
        """The source run's arbitration outcomes, deserialized."""
        return [_record_to_rebalance(r) for r in self.outcomes]

    def save(self, path) -> None:
        document = {
            "version": REPLAY_LOG_VERSION,
            "config": self.config,
            "executions": {str(k): v for k, v in self.executions.items()},
            "events": self.events,
            "points": self.points,
            "outcomes": self.outcomes,
        }
        atomic_write_text(path, json.dumps(document))

    @classmethod
    def load(cls, path) -> "ReplayLog":
        from pathlib import Path

        data = json.loads(Path(path).read_text())
        version = data.get("version", REPLAY_LOG_VERSION)
        if version != REPLAY_LOG_VERSION:
            raise DurabilityError(
                f"replay log has unknown version {version!r} (this library "
                f"reads version {REPLAY_LOG_VERSION})"
            )
        return cls(
            config=data.get("config", {}),
            executions={
                int(k): v for k, v in data.get("executions", {}).items()
            },
            events=data.get("events", []),
            points=data.get("points", []),
            outcomes=data.get("outcomes", []),
        )


class RunRecorder:
    """Capture a live service run into a :class:`ReplayLog`.

    Usage::

        recorder = RunRecorder(service)
        handle = service.submit(program, value, qos=qos)
        recorder.track(handle)          # right after submit
        ... drive the run ...
        log = recorder.finish()         # detaches; returns the ReplayLog

    ``track`` must be called before the submission's events start
    flowing (immediate on the simulator, where submit only enqueues);
    it captures the admission-time warm-start snapshot and the resolved
    scheduling class.  Untracked executions' events are dropped from
    the log (counted in :attr:`dropped_events`).
    """

    def __init__(self, service):
        self.service = service
        self.recorder = EventRecorder()
        self.dropped_events = 0
        self._node_index: Dict[int, Dict[int, int]] = {}
        self._executions: Dict[int, Dict[str, Any]] = {}
        self._points: List[Dict[str, Any]] = []
        self._outcomes: List[Dict[str, Any]] = []
        # The event recorder registers before any analyzer, so by the
        # time the ticker (always last) triggers a rebalance, every
        # event that fed it has been recorded — len(recorder) is then
        # the exact prefix length the replay must feed back.
        service.platform.add_listener(self.recorder)
        self._prev_hook = service.arbiter.on_rebalance
        service.arbiter.on_rebalance = self._on_rebalance
        self._finished = False

    def _on_rebalance(self, outcome: Rebalance, live: Tuple[int, ...]) -> None:
        self._points.append(
            {
                "events_seen": len(self.recorder),
                "time": outcome.time,
                "trigger": outcome.trigger,
                "live": list(live),
            }
        )
        self._outcomes.append(rebalance_to_record(outcome))
        if self._prev_hook is not None:
            self._prev_hook(outcome, live)

    def track(self, handle, label: Optional[str] = None) -> None:
        """Register one submission (call immediately after ``submit``)."""
        eid = handle.execution_id
        program = handle.program
        self._node_index[eid] = {
            id(node): i for i, node in enumerate(program.walk())
        }
        analyzer = handle.analyzer
        warm = snapshot_estimates(program, analyzer.estimators)
        self._executions[eid] = {
            "label": label or handle.execution.name or str(eid),
            "qos": qos_to_dict(handle.qos),
            "weight": getattr(analyzer, "share_weight", None),
            "priority": getattr(analyzer, "share_priority", 0),
            "warm": warm if warm.get("estimates") else None,
            "fingerprint": program_fingerprint(program),
        }

    def finish(self) -> ReplayLog:
        """Detach from the service and build the log."""
        if not self._finished:
            self._finished = True
            self.service.platform.bus.remove_listener(self.recorder)
            self.service.arbiter.on_rebalance = self._prev_hook
        events = []
        for event in self.recorder.events:
            index = self._node_index.get(event.execution_id)
            if index is None:
                self.dropped_events += 1
                continue
            events.append(event_to_record(event, index))
        arbiter = self.service.arbiter
        return ReplayLog(
            config={
                "capacity": self.service.capacity,
                "rho": self.service.rho,
                "extensions": self.service.extensions,
                "starvation_base": arbiter.starvation_base,
                "starvation_unit": arbiter.starvation_unit,
            },
            executions=self._executions,
            events=events,
            points=self._points,
            outcomes=self._outcomes,
        )


def replay_rebalances(
    log: ReplayLog, programs: Dict[int, Skeleton]
) -> List[Rebalance]:
    """Re-run a recorded rebalance schedule offline; returns the outcomes.

    *programs* maps each recorded execution id to a **fresh construction**
    of its program (validated against the recorded fingerprint).  The
    replay feeds each rebalance's event prefix into per-execution
    analyzers, then asks a fresh arbiter to decide at the recorded time —
    including the starvation-aging state, which evolves across rebalances
    exactly as it did live.

    Older logs may carry two more config keys.  The planner's
    patch/walk switch never changed a decision; its key is ignored.
    ``"aging"`` did: ``"virtual-time"`` (or absent) is what the arbiter
    does; a log recorded under the removed ``"rounds"`` clock cannot be
    reproduced and raises :class:`~repro.errors.DurabilityError`.
    """
    from ..runtime.simulator import SimulatedPlatform

    config = log.config
    aging = config.get("aging", "virtual-time")
    if aging != "virtual-time":
        raise DurabilityError(
            f"replay log was recorded under starvation aging {aging!r}, "
            f"which this library no longer implements (only 'virtual-time')"
        )
    for eid, meta in log.executions.items():
        program = programs.get(eid)
        if program is None:
            raise DurabilityError(
                f"replay needs the program of recorded execution {eid}"
            )
        expected = meta.get("fingerprint")
        if expected and program_fingerprint(program) != expected:
            raise DurabilityError(
                f"program for execution {eid} does not match the recorded "
                f"fingerprint {expected!r}"
            )

    capacity = int(config.get("capacity", 1))
    platform = SimulatedPlatform(
        parallelism=1, max_parallelism=capacity
    )
    arbiter = LPArbiter(
        platform,
        capacity=capacity,
        min_interval=0.0,
        starvation_base=float(config.get("starvation_base", 2.0)),
        starvation_unit=float(config.get("starvation_unit", 1.0)),
    )
    cache = PlanCache()
    nodes: Dict[int, List[Skeleton]] = {
        eid: list(program.walk()) for eid, program in programs.items()
    }
    analyzers: Dict[int, ExecutionAnalyzer] = {}

    def make_analyzer(eid: int) -> ExecutionAnalyzer:
        meta = log.executions[eid]
        qos: Optional[QoS] = qos_from_dict(meta.get("qos"))
        analyzer = ExecutionAnalyzer(
            qos=qos,
            execution_id=eid,
            skeleton=programs[eid],
            rho=float(config.get("rho", 0.5)),
            extensions=bool(config.get("extensions", False)),
            plan_cache=cache,
        )
        weight = meta.get("weight")
        analyzer.share_weight = weight
        analyzer.share_priority = int(meta.get("priority", 0))
        warm = meta.get("warm")
        if warm:
            analyzer.initialize_estimates(programs[eid], warm)
        return analyzer

    outcomes: List[Rebalance] = []
    consumed = 0
    for point in log.points:
        live: Dict[int, ExecutionAnalyzer] = {}
        for eid in point["live"]:
            if eid not in analyzers:
                analyzers[eid] = make_analyzer(eid)
            live[eid] = analyzers[eid]
        seen = int(point["events_seen"])
        for record in log.events[consumed:seen]:
            analyzer = analyzers.get(record["execution_id"])
            if analyzer is not None:
                analyzer.observe(
                    record_to_event(record, nodes[record["execution_id"]])
                )
        consumed = seen
        outcome = arbiter.rebalance(
            point["time"], live, trigger=point["trigger"], force=True
        )
        if outcome is not None:
            outcomes.append(outcome)
    return outcomes
