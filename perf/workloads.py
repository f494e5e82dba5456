"""The six workloads, their inputs, their output checks and their probes.

Every workload is closed-loop and driven from one process: a repetition
submits work through the program's public front doors, waits for it, and
checks every result against a reference computed here.  ``--seed`` picks
the input values, the tweet corpus and, where the load does not depend on
it, the tenant order; it never changes how much work a repetition holds,
so runs with different seeds measure the same load.

Each repetition has two timed parts: the *managed* run (autonomic layer
attached) and its *bare twin* (the same programs on the same kind of
platform with no listener at all).  ``storm_shared`` adds a third, the
managed run with Telescope attached.
"""

from __future__ import annotations

import gc
import hashlib
import random
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import (
    AutonomicController,
    Execute,
    Listener,
    Map,
    Merge,
    Observability,
    PlatformSpec,
    Priority,
    QoS,
    Seq,
    SimulatedPlatform,
    SkeletonService,
    Split,
    make_platform,
    submit,
)
from repro.core.analysis import is_analysis_point
from repro.core.persistence import snapshot_from_names
from repro.events.types import When, Where
from repro.runtime.costmodel import ConstantCostModel
from repro.workloads.synthetic_text import TweetCorpusGenerator
from repro.workloads.wordcount import TwitterCountApp

from .trace import LayerTracer

CAPACITY = 8
MODULUS = 10_000_019
RESULT_TIMEOUT = 60.0

# ---------------------------------------------------------------------------
# muscles: module-level functions, so they pickle onto the process backend


def iota(value: int, width: int) -> List[int]:
    return [value + i for i in range(width)]


def leaf(value: int, kind: int) -> int:
    return value * 2 + kind


def sum_mod(results: Sequence[int]) -> int:
    return sum(results) % MODULUS


def increment(value: int) -> int:
    return value + 1


def replicate(value: int, width: int) -> List[int]:
    return [value] * width


def sleep_echo(value: int, seconds: float) -> int:
    time.sleep(seconds)
    return value


def total(results: Sequence[int]) -> int:
    return sum(results)


def flat_map(width: int, kind: int) -> Map:
    """``map(iota_w, seq(leaf_k), sum)`` with the names the warm snapshot uses."""
    return Map(
        Split(partial(iota, width=width), name=f"split{width}"),
        Seq(Execute(partial(leaf, kind=kind), name=f"leaf{kind}")),
        Merge(sum_mod, name="sum"),
    )


def flat_map_reference(value: int, width: int, kind: int) -> int:
    return sum((value + i) * 2 + kind for i in range(width)) % MODULUS


def nested_map(outer: int, inner: int, kind: int) -> Map:
    """A two-level map of ``outer * (inner + 2) + 2`` activities."""
    return Map(
        Split(partial(iota, width=outer), name=f"outer{outer}"),
        Map(
            Split(partial(iota, width=inner), name=f"inner{inner}"),
            Seq(Execute(partial(leaf, kind=kind), name=f"leaf{kind}")),
            Merge(sum_mod, name="sum"),
        ),
        Merge(sum_mod, name="sum"),
    )


def nested_map_reference(value: int, outer: int, inner: int, kind: int) -> int:
    return (
        sum(flat_map_reference(value + i, inner, kind) for i in range(outer)) % MODULUS
    )


def wide_map(width: int) -> Map:
    """A ``width``-wide map of trivial muscles (the event floods)."""
    return Map(
        Split(partial(iota, width=width), name="fs"),
        Seq(Execute(increment, name="fe")),
        Merge(total, name="fm"),
    )


def wide_map_reference(value: int, width: int) -> int:
    return sum(value + i + 1 for i in range(width))


def sleepy_map(width: int, seconds: float) -> Map:
    return Map(
        Split(partial(replicate, width=width), name="svc_split"),
        Seq(Execute(partial(sleep_echo, seconds=seconds), name="svc_leaf")),
        Merge(total, name="svc_merge"),
    )


# ---------------------------------------------------------------------------
# probes


class DecisionProbe:
    """Event→decision latency, sampled on the thread that carries the event.

    ``first`` is registered before anything else on the platform bus and
    stamps ``perf_counter`` when an analysis point reaches it; whoever
    applies the decision for that event calls :meth:`decided` on the same
    thread.  An analysis point that leads to no decision (a throttled tick)
    gives no sample and is counted in ``ticks`` only; the next analysis
    point on the thread stamps afresh.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.first = _OnAnalysisPoint(self.stamp)
        #: Registered after a controller: its decision for the event is applied.
        self.last = _OnAnalysisPoint(self.decided)
        self.reset()

    def reset(self) -> None:
        """Start a new repetition (call while no event is in flight)."""
        self.samples: List[float] = []
        self.ticks = 0

    def stamp(self) -> None:
        with self._lock:
            self.ticks += 1
        self._local.stamped = perf_counter()

    def decided(self) -> bool:
        """Close the sample opened on this thread; False when none is open."""
        now = perf_counter()
        stamped = getattr(self._local, "stamped", None)
        if stamped is None:
            return False
        self._local.stamped = None
        self.samples.append(now - stamped)
        return True


class _OnAnalysisPoint(Listener):
    """Calls *action* for every analysis point; leaves the value alone."""

    def __init__(self, action: Callable[[], Any]):
        self._action = action

    def accepts(self, event) -> bool:
        return is_analysis_point(event)

    def on_event(self, event) -> Any:
        self._action()
        return event.value


class RebalanceLedger:
    """``LPArbiter.on_rebalance`` hook: decision samples and a running digest.

    Every applied rebalance is folded into the digest as it happens (the
    arbiter's own ``rebalances`` deque keeps only the last 1024).  Execution
    ids are process-wide, so they are renumbered from the first id the
    repetition sees.  The digest is only meaningful on the simulator, where
    rebalance times are virtual.
    """

    def __init__(self, probe: DecisionProbe):
        self._probe = probe
        self._hash = hashlib.blake2b(digest_size=16)
        self._base: Optional[int] = None
        self.applied = 0
        self.tick_driven = 0

    def __call__(self, outcome, live_ids: Tuple[int, ...]) -> None:
        self.applied += 1
        trigger = outcome.trigger
        head, _, eid = trigger.partition(":")
        forced = head in ("admit", "done")
        # A completion's rebalance answers the execution's last event on
        # the same thread; an admission's answers no event at all.
        if head != "admit" and self._probe.decided() and not forced:
            self.tick_driven += 1
        if self._base is None:
            self._base = min(live_ids)
        base = self._base
        if forced:
            trigger = f"{head}:{int(eid) - base}"
        self._hash.update(
            repr(
                (
                    round(outcome.time, 9),
                    trigger,
                    tuple(eid - base for eid in live_ids),
                    sorted((eid - base, lp) for eid, lp in outcome.shares.items()),
                    sorted((eid - base, lp) for eid, lp in outcome.committed.items()),
                    outcome.total_lp,
                    tuple(eid - base for eid in outcome.cold),
                    tuple(eid - base for eid in outcome.infeasible),
                )
            ).encode()
        )

    def digest(self) -> str:
        return self._hash.hexdigest()


class BusyMeter(Listener):
    """Sums ``AFTER.timestamp - started_at`` once per muscle (real backends)."""

    def __init__(self) -> None:
        self.busy_s = 0.0
        self._lock = threading.Lock()

    def accepts(self, event) -> bool:
        if event.when is not When.AFTER or "started_at" not in event.extra:
            return False
        return event.where in (Where.SPLIT, Where.MERGE) or (
            event.where is Where.SKELETON and event.kind == "seq"
        )

    def on_event(self, event) -> Any:
        with self._lock:
            self.busy_s += max(0.0, event.timestamp - event.extra["started_at"])
        return event.value


# ---------------------------------------------------------------------------
# one repetition's record


@dataclass
class Repetition:
    """What one repetition measured; the runner folds these into metrics."""

    wall_s: float = 0.0
    bare_s: float = 0.0
    obs_s: Optional[float] = None
    decisions_s: List[float] = field(default_factory=list)
    submits_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    goals: int = 0
    goals_missed: int = 0
    makespan: Optional[float] = None
    digest: Optional[str] = None
    counts: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    def check(self, what: str, wait: Callable[[], Any], expected: Any) -> bool:
        """Count one operation; it fails when it raises, times out or is wrong."""
        self.attempted += 1
        try:
            got = wait()
        except Exception as exc:  # a failed, rejected or timed-out execution
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return False
        if got != expected:
            self.fail(f"{what}: got {got!r}, expected {expected!r}")
            return False
        return True

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(why)


@contextmanager
def timed(tracer: Optional[LayerTracer], section: str) -> Iterator[List[float]]:
    """Time a part of a repetition; under tracing it is also a root span."""
    elapsed: List[float] = []
    scope = tracer.span(section, section) if tracer is not None else nullcontext()
    # Start every timed part from a collected heap: otherwise a full
    # collection of the previous part's garbage lands in whichever part
    # happens to allocate next, and the twin's time turns bimodal.
    gc.collect()
    started = perf_counter()
    with scope:
        yield elapsed
    elapsed.append(perf_counter() - started)


def bus_counts(bus, since: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    counts = {
        "events.published": bus.published,
        "events.batches": bus.batches,
        "events.batched": bus.batched_events,
        "events.listener_errors": bus.listener_errors,
    }
    if since is not None:
        counts = {key: value - since[key] for key, value in counts.items()}
    return counts


def plan_counts(stats: Dict[str, Any]) -> Dict[str, float]:
    return {f"plan.{key}": value for key, value in stats.items() if key != "hit_rate"}


def service_counts(service: SkeletonService) -> Dict[str, float]:
    tenants = service.stats.tenants().values()
    return {
        "admission.admitted": sum(t.admitted for t in tenants),
        "admission.held": sum(t.held for t in tenants),
        "admission.rejected": sum(t.rejected for t in tenants),
        "service.completed": sum(t.completed for t in tenants),
        "service.cancelled": sum(t.cancelled for t in tenants),
    }


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Tenant:
    """One submission of a service workload."""

    name: str
    build: Callable[[], Map]
    value: int
    expected: int
    qos: Optional[QoS]
    times: Dict[str, float]
    cards: Dict[str, float]


class Workload:
    """Base: ``setup`` once, ``repetition`` until the time is spent, ``teardown``."""

    name = ""
    #: Virtual time: decisions and makespan repeat exactly within a seed.
    simulated = True

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def setup(self) -> None:
        """Build inputs and long-lived platforms, then warm up once, untimed."""
        self.prepare()
        self.repetition(None)

    def prepare(self) -> None:
        raise NotImplementedError

    def repetition(self, tracer: Optional[LayerTracer]) -> Repetition:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop every thread and process ``prepare`` started."""


class _ServiceWorkload(Workload):
    """Shared driver of the three workloads that go through SkeletonService."""

    waves: List[List[Tenant]]

    def _submit_wave(self, service, wave, rep: Repetition) -> List[Tuple[Tenant, Any]]:
        handles = []
        for tenant in wave:
            program = tenant.build()
            warm = snapshot_from_names(program, tenant.times, tenant.cards)
            started = perf_counter()
            handle = service.submit(
                program, tenant.value, qos=tenant.qos, tenant=tenant.name, warm_start=warm
            )
            rep.submits_s.append(perf_counter() - started)
            handles.append((tenant, handle))
        return handles

    def _collect_wave(self, handles, rep: Repetition) -> int:
        """Check every result and goal; returns the tracking machines used."""
        machines = 0
        for tenant, handle in handles:
            right = rep.check(
                tenant.name, partial(handle.result, timeout=RESULT_TIMEOUT), tenant.expected
            )
            if tenant.qos is not None and tenant.qos.wct is not None:
                rep.goals += 1
                if not right or handle.goal_met() is not True:
                    rep.goals_missed += 1
            machines += len(handle.analyzer.machines)
        return machines

    def _bare_wave(self, platform, wave, rep: Repetition) -> None:
        futures = [
            (tenant, submit(tenant.build(), tenant.value, platform)) for tenant in wave
        ]
        for tenant, future in futures:
            wait = partial(future.get, timeout=RESULT_TIMEOUT)
            rep.check(f"bare {tenant.name}", wait, tenant.expected)


class _StormWorkload(_ServiceWorkload):
    """A churn storm on the simulator: a fresh platform and service per storm.

    Virtual time makes wall time pure master-side cost of the autonomic
    layer; every muscle costs one virtual second.
    """

    def _platform(self, parallelism: int) -> SimulatedPlatform:
        return SimulatedPlatform(
            parallelism=parallelism,
            cost_model=ConstantCostModel(1.0),
            max_parallelism=CAPACITY,
        )

    def _storm(self, tracer, section: str, observability=None) -> Repetition:
        rep = Repetition()
        platform = self._platform(1)
        probe = DecisionProbe()
        platform.add_listener(probe.first)
        service = SkeletonService(
            platform=platform,
            capacity=CAPACITY,
            min_rebalance_interval=0.0,
            observability=observability,
        )
        ledger = RebalanceLedger(probe)
        service.arbiter.on_rebalance = ledger
        machines = 0
        with timed(tracer, section) as elapsed:
            for wave in self.waves:
                machines += self._collect_wave(self._submit_wave(service, wave, rep), rep)
        rep.wall_s = elapsed[0]
        rep.makespan = platform.now()
        rep.digest = ledger.digest()
        rep.decisions_s = probe.samples
        rep.counts.update(bus_counts(platform.bus))
        rep.counts.update(plan_counts(service.plan_stats()))
        rep.counts.update(service_counts(service))
        rep.counts["statemachines.machines"] = machines
        rep.counts["arbiter.applied"] = ledger.applied
        rep.counts["arbiter.throttled"] = probe.ticks - ledger.tick_driven
        service.shutdown(wait=False)
        return rep

    def _bare_storm(self, rep: Repetition, tracer) -> None:
        platform = self._platform(CAPACITY)
        with timed(tracer, "bare") as elapsed:
            for wave in self.waves:
                self._bare_wave(platform, wave, rep)
        rep.bare_s = elapsed[0]
        platform.shutdown()

    def repetition(self, tracer) -> Repetition:
        rep = self._storm(tracer, "auto")
        self._bare_storm(rep, tracer)
        return rep


class StormShared(_StormWorkload):
    """3 waves x 16 tenants over four small repeating map shapes."""

    name = "storm_shared"
    WAVES = 3
    TENANTS = 16
    GOALS = (6.0, 12.0, 30.0, 90.0)
    WEIGHTS = (0.5, 1.0, 4.0)
    PRIORITIES = (Priority.BATCH, Priority.NORMAL, Priority.HIGH)

    def prepare(self) -> None:
        base = self.rng.randrange(1_000_000)
        self.waves = []
        for wave in range(self.WAVES):
            order = list(range(self.TENANTS))
            self.rng.shuffle(order)
            self.waves.append([self._tenant(i, base + wave * self.TENANTS + i) for i in order])

    def _tenant(self, i: int, value: int) -> Tenant:
        width, kind = 2 + i % 4, i % 4
        qos = None
        if i % 5:
            qos = QoS.wall_clock(
                self.GOALS[i % 4],
                weight=self.WEIGHTS[i % 3],
                priority=self.PRIORITIES[i % 3],
            )
        return Tenant(
            name=f"tenant-{i}",
            build=partial(flat_map, width, kind),
            value=value,
            expected=flat_map_reference(value, width, kind),
            qos=qos,
            times={f"split{width}": 1.0, f"leaf{kind}": 1.0, "sum": 1.0},
            cards={f"split{width}": float(width)},
        )

    def repetition(self, tracer) -> Repetition:
        rep = super().repetition(tracer)
        obs = Observability(sample_rate=1.0)
        watched = self._storm(tracer, "obs", observability=obs)
        rep.obs_s = watched.wall_s
        rep.attempted += watched.attempted
        rep.failed += watched.failed
        rep.failures += watched.failures
        if (watched.digest, watched.makespan) != (rep.digest, rep.makespan):
            rep.fail("Telescope changed the storm's decisions")
        rep.counts["obs.spans"] = len(obs.tracer.finished())
        rep.counts["obs.dropped"] = obs.tracer.dropped
        rep.counts["obs.flight_records"] = len(obs.flight)
        return rep


class StormUnique(_StormWorkload):
    """2 waves x 4 tenants, every tenant a distinct two-level map (23-222 activities)."""

    name = "storm_unique"
    #: ``(outer, inner, goal as a multiple of the sequential work)``; the
    #: goals are loose enough that every tenant is admitted.
    SHAPES = (
        (3, 5, 0.6),
        (3, 20, 2.0),
        (5, 10, 0.8),
        (5, 14, 1.2),
        (8, 10, 1.2),
        (8, 14, 0.8),
        (10, 5, 2.0),
        (10, 20, 0.6),
    )

    def prepare(self) -> None:
        base = self.rng.randrange(1_000_000)
        tenants = [self._tenant(i, base + i, *shape) for i, shape in enumerate(self.SHAPES)]
        # Fixed order: permuting it moves the storm's schedule passes by
        # +-4 %, more than the noise of a run, so here the seed only picks
        # the input values.
        self.waves = [tenants[0::2], tenants[1::2]]

    def _tenant(self, i: int, value: int, outer: int, inner: int, factor: float) -> Tenant:
        kind = i % 4
        work = outer * (inner + 2) + 2
        return Tenant(
            name=f"tenant-{i}",
            build=partial(nested_map, outer, inner, kind),
            value=value,
            expected=nested_map_reference(value, outer, inner, kind),
            qos=QoS.wall_clock(work * factor),
            times={f"outer{outer}": 1.0, f"inner{inner}": 1.0, f"leaf{kind}": 1.0, "sum": 1.0},
            cards={f"outer{outer}": float(outer), f"inner{inner}": float(inner)},
        )


class ThreadsGoals(_ServiceWorkload):
    """Waves of sleep-leaf maps on real worker threads, default throttling."""

    name = "threads_goals"
    simulated = False
    WIDTHS = (2, 3, 4, 6)
    GOALS = (0.25, 0.5, 1.0, 5.0)
    LEAF_S = 0.04

    def prepare(self) -> None:
        base = self.rng.randrange(1_000_000)
        # Fixed order and pairing: 30 leaves of 40 ms on 8 workers finish in
        # four rounds or five depending on them, so here the seed only
        # picks the input values.
        widths = list(self.WIDTHS) * 2
        goals = list(self.GOALS) + list(reversed(self.GOALS))
        self.wave = [
            Tenant(
                name=f"tenant-{i}",
                build=partial(sleepy_map, width, self.LEAF_S),
                value=base + i,
                expected=(base + i) * width,
                qos=QoS.wall_clock(goal),
                times={"svc_split": 1e-4, "svc_leaf": self.LEAF_S, "svc_merge": 1e-4},
                cards={"svc_split": float(width)},
            )
            for i, (width, goal) in enumerate(zip(widths, goals))
        ]
        self.service = SkeletonService(backend="threads", capacity=CAPACITY)
        self.probe = DecisionProbe()
        self.service.platform.add_listener(self.probe.first)
        self.busy = BusyMeter()
        self.bare = make_platform(
            PlatformSpec(kind="threads", workers=CAPACITY, max_workers=CAPACITY)
        )

    def _counters(self) -> Dict[str, float]:
        """The long-lived service's cumulative counters."""
        service = self.service
        return {
            **bus_counts(service.platform.bus),
            **plan_counts(service.plan_stats()),
            **service_counts(service),
        }

    def repetition(self, tracer) -> Repetition:
        rep = Repetition()
        service, probe = self.service, self.probe
        probe.reset()
        ledger = service.arbiter.on_rebalance = RebalanceLedger(probe)
        before = self._counters()
        self.busy.busy_s = 0.0
        if tracer is not None:
            service.platform.add_listener(self.busy)
        with timed(tracer, "auto") as elapsed:
            machines = self._collect_wave(self._submit_wave(service, self.wave, rep), rep)
        rep.wall_s = elapsed[0]
        if tracer is not None:
            service.platform.bus.remove_listener(self.busy)
        after = self._counters()
        rep.counts = {key: after[key] - before[key] for key in after}
        rep.counts["plan.size"] = after["plan.size"]
        rep.counts["statemachines.machines"] = machines
        rep.counts["arbiter.applied"] = ledger.applied
        rep.counts["arbiter.throttled"] = probe.ticks - ledger.tick_driven
        rep.counts["platform.busy_s"] = self.busy.busy_s
        rep.counts["platform.workers"] = CAPACITY
        rep.decisions_s = probe.samples
        with timed(tracer, "bare") as elapsed:
            self._bare_wave(self.bare, self.wave, rep)
        rep.bare_s = elapsed[0]
        return rep

    def teardown(self) -> None:
        self.service.shutdown(wait=True, timeout=RESULT_TIMEOUT)
        self.bare.shutdown()


class _ControllerWorkload(Workload):
    """One program under one AutonomicController, beside its bare twin."""

    goal_bearing = False

    def _program(self) -> Tuple[Any, Any, Any]:
        """``(skeleton, input, expected result)`` of one run, built afresh."""
        raise NotImplementedError

    def _platform(self):
        """The platform of the program ``_program`` returned last."""
        raise NotImplementedError

    def _controller(self, platform, skeleton) -> AutonomicController:
        raise NotImplementedError

    def _release(self, platform) -> None:
        platform.shutdown()

    def repetition(self, tracer) -> Repetition:
        rep = Repetition()
        skeleton, value, expected = self._program()
        platform = self._platform()
        workers = platform.get_parallelism()
        bus = platform.bus
        before = bus_counts(bus)
        probe = DecisionProbe()
        platform.add_listener(probe.first)
        controller = self._controller(platform, skeleton)
        platform.add_listener(probe.last)
        listeners = [probe.first, controller, probe.last]
        busy = BusyMeter()
        if tracer is not None and not self.simulated:
            platform.add_listener(busy)
            listeners.append(busy)
        with timed(tracer, "auto") as elapsed:
            rep.check(self.name, partial(self._run, skeleton, value, platform), expected)
        rep.wall_s = elapsed[0]
        for listener in listeners:
            bus.remove_listener(listener)
        rep.decisions_s = probe.samples
        decisions = controller.decisions
        if self.simulated:
            rep.makespan = platform.now()
            rep.digest = hashlib.blake2b(
                repr(
                    [(round(d.time, 9), d.lp_before, d.lp_after, d.action) for d in decisions]
                ).encode(),
                digest_size=16,
            ).hexdigest()
        if self.goal_bearing:
            rep.goals = 1
            rep.goals_missed = int(platform.now() > controller.qos.wct.seconds + 1e-9)
        rep.counts.update(bus_counts(bus, since=before))
        rep.counts.update(plan_counts(controller.analyzer.plan.cache.stats_dict()))
        rep.counts["statemachines.machines"] = len(controller.machines)
        rep.counts["controller.decisions"] = len(decisions)
        rep.counts["controller.lp_changes"] = len(controller.changed_decisions())
        if not self.simulated:
            rep.counts["platform.busy_s"] = busy.busy_s
            rep.counts["platform.workers"] = workers
        self._release(platform)

        skeleton, value, expected = self._program()
        platform = self._bare_platform()
        with timed(tracer, "bare") as elapsed:
            rep.check(f"bare {self.name}", partial(self._run, skeleton, value, platform), expected)
        rep.bare_s = elapsed[0]
        self._release(platform)
        return rep

    @staticmethod
    def _run(skeleton, value, platform) -> Any:
        return submit(skeleton, value, platform).get(timeout=RESULT_TIMEOUT)

    def _bare_platform(self):
        return self._platform()


class PaperTwitter(_ControllerWorkload):
    """The paper's Twitter count under a 9.5 s goal (its Fig. 5 scenario)."""

    name = "paper_twitter"
    goal_bearing = True
    TWEETS = 2000
    GOAL_S = 9.5
    MAX_LP = 24

    def prepare(self) -> None:
        self.corpus = TweetCorpusGenerator(seed=self.seed).corpus(self.TWEETS)
        self.expected = TwitterCountApp().reference_count(self.corpus)

    def _program(self):
        self.app = TwitterCountApp()
        return self.app.skeleton, self.corpus, self.expected

    def _platform(self):
        return SimulatedPlatform(
            parallelism=1, cost_model=self.app.cost_model(), max_parallelism=self.MAX_LP
        )

    def _controller(self, platform, skeleton):
        return AutonomicController(
            platform, skeleton, qos=QoS.wall_clock(self.GOAL_S, max_lp=self.MAX_LP)
        )


class EventFlood(_ControllerWorkload):
    """A 200-wide map of trivial muscles: the bus and the tracking machines."""

    name = "event_flood"
    WIDTH = 200

    def prepare(self) -> None:
        self.value = self.rng.randrange(1_000_000)

    def _program(self):
        return wide_map(self.WIDTH), self.value, wide_map_reference(self.value, self.WIDTH)

    def _platform(self):
        return SimulatedPlatform(parallelism=4, max_parallelism=8)

    def _controller(self, platform, skeleton):
        return AutonomicController(platform, qos=QoS.wall_clock(1000.0, max_lp=8))


class ProcsFlood(_ControllerWorkload):
    """A 500-wide map on two worker processes: chunked IPC and event re-emission."""

    name = "procs_flood"
    simulated = False
    WIDTH = 500
    WORKERS = 2

    def prepare(self) -> None:
        self.value = self.rng.randrange(1_000_000)
        spec = PlatformSpec(kind="processes", workers=self.WORKERS, max_workers=self.WORKERS)
        self.managed = make_platform(spec)
        self.twin = make_platform(spec)

    def _program(self):
        return wide_map(self.WIDTH), self.value, wide_map_reference(self.value, self.WIDTH)

    def _platform(self):
        # The controller's last decision of a run halves the pool (the goal
        # is loose); every run starts from the full pool again.
        self.managed.set_parallelism(self.WORKERS)
        return self.managed

    def _bare_platform(self):
        return self.twin

    def _controller(self, platform, skeleton):
        return AutonomicController(
            platform, qos=QoS.wall_clock(1000.0, max_lp=self.WORKERS)
        )

    def _release(self, platform) -> None:
        """The two pools live as long as the workload."""

    def teardown(self) -> None:
        self.managed.shutdown()
        self.twin.shutdown()


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (StormShared, StormUnique, PaperTwitter, EventFlood, ThreadsGoals, ProcsFlood)
}
