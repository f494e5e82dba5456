"""QoS scheduling classes, live on the real service (threads + processes).

The arbiter-level properties are pinned by
``tests/service/test_arbiter_properties.py`` against stub analyzers; this
module locks the same contracts in end-to-end service runs on both real
backends:

* a higher-priority submission **preempts** running lower-class tenants
  at the very rebalance its admission forces (shares shrink mid-flight
  via ``Platform.set_shares``);
* **load-aware admission** holds a goal that plain EEDF would have
  admitted and missed, then launches it once the committed budget
  drains — and the goal is met;
* **fair-share weights** shape the surplus split between live tenants;
* the **async facade** (``await handle``, ``async for status``) delivers
  results, failures and lifecycle transitions on every backend;
* cancelled executions never count toward the **goal-miss rate**
  (regression for the ServiceStats accounting);
* **event-count rebalance throttling** bounds arbitration under muscle
  storms (deterministically shown on the simulator).

Durations are chosen so that the *scheduling* outcomes are structural:
sleeps can only overrun on a loaded CI machine, and every assertion is
on the side that overruns cannot flip.
"""

import asyncio

import pytest

from repro import PlatformSpec, Priority, QoS, SimulatedSpec, SkeletonService
from repro.errors import AdmissionError, ExecutionCancelledError
from repro.runtime.costmodel import ConstantCostModel
from repro.service import ExecutionStatus, ServiceStats
from tests.conftest import sleepy_map_program, sleepy_map_snapshot

pytestmark = [pytest.mark.integration, pytest.mark.service_stress]

BACKENDS = ["threads", "processes"]

#: The simulator with every muscle costing one virtual second.
UNIT_COST_SIM = PlatformSpec(
    kind="simulated", simulated=SimulatedSpec(cost_model=ConstantCostModel(1.0))
)


def submit_map(service, tenant, width, leaf, value=1, qos=None):
    program = sleepy_map_program(width, leaf)
    return service.submit(
        program,
        value,
        qos=qos,
        tenant=tenant,
        warm_start=sleepy_map_snapshot(program, width, leaf),
    )


# ---------------------------------------------------------------------------
# priority / preemption


class TestPreemption:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_urgent_submission_preempts_at_its_admit_rebalance(self, backend):
        """The acceptance scenario: preemption within one rebalance tick.

        A hog needs the whole 4-worker pool for its goal (12 x 0.15s
        leaves, 0.6s goal -> minimal LP 4).  An URGENT submission with a
        0.4s goal needs 2 workers; its admission forces a rebalance that
        must shrink the hog's grant mid-flight, priority over deadline
        order (the hog's deadline is earlier).
        """
        with SkeletonService(
            backend=backend, capacity=4, min_rebalance_interval=0.0
        ) as service:
            hog = submit_map(
                service, "hog", width=12, leaf=0.15, qos=QoS.wall_clock(0.6)
            )
            before = service.arbiter.last_rebalance
            assert before.shares[hog.execution_id] == 4  # alone: whole pool
            urgent = submit_map(
                service,
                "urgent",
                width=4,
                leaf=0.15,
                qos=QoS.wall_clock(0.4, priority=Priority.URGENT),
            )
            after = service.arbiter.last_rebalance
            assert after.trigger == f"admit:{urgent.execution_id}"
            # One rebalance tick later the urgent class holds its minimal
            # LP and the hog is preempted down to what remains.
            assert after.shares[urgent.execution_id] == 2
            assert after.shares[hog.execution_id] == 2
            assert after.priorities[urgent.execution_id] == Priority.URGENT
            assert after.committed[urgent.execution_id] == 2
            # Preemption degrades the hog's promise and flags it.
            assert hog.execution_id in after.infeasible
            assert urgent.result(timeout=30.0) == 4
            assert hog.result(timeout=30.0) == 12

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_equal_priority_does_not_preempt_minimal_grants(self, backend):
        """A same-class newcomer only takes the genuinely spare budget."""
        with SkeletonService(
            backend=backend, capacity=4, min_rebalance_interval=0.0
        ) as service:
            hog = submit_map(
                service, "hog", width=12, leaf=0.15, qos=QoS.wall_clock(0.6)
            )
            spare = submit_map(
                service, "spare", width=8, leaf=0.05, value=2, qos=None
            )
            after = service.arbiter.last_rebalance
            # The hog keeps its deadline-meeting 4 workers minus only the
            # newcomer's floor; no preemption below its need ever happens
            # for an equal class (grants: hog >= 3, newcomer the floor).
            assert after.shares[hog.execution_id] >= 3
            assert after.shares[spare.execution_id] == 1
            assert hog.result(timeout=30.0) == 12
            assert spare.result(timeout=30.0) == 16


# ---------------------------------------------------------------------------
# load-aware admission


class TestLoadAwareAdmission:
    HOG = dict(width=8, leaf=0.15)  # needs LP 4 for a 0.4s goal
    LATE = dict(width=4, leaf=0.15)  # needs LP 4 for a 0.28s goal

    def run_scenario(self, backend, load_aware):
        with SkeletonService(
            backend=backend,
            capacity=4,
            min_rebalance_interval=0.0,
            load_aware_admission=load_aware,
        ) as service:
            hog = submit_map(
                service, "hog", qos=QoS.wall_clock(0.4), **self.HOG
            )
            late = submit_map(
                service, "late", value=2, qos=QoS.wall_clock(0.28), **self.LATE
            )
            status_at_submit = late.status()
            assert hog.result(timeout=30.0) == 8
            assert late.result(timeout=30.0) == 8
            return service.stats.tenant("late"), status_at_submit, late

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_eedf_alone_admits_and_misses(self, backend):
        """Without the load gate the goal is admitted into a sure miss.

        With the hog committed to all 4 workers, the late goal can get at
        most 3 (the hog's floor is preemption-proof): 2 rounds of 0.15s
        leaves >= 0.30s against a 0.28s goal — a structural miss, however
        fast the machine.
        """
        stats, status_at_submit, late = self.run_scenario(
            backend, load_aware=False
        )
        assert status_at_submit is ExecutionStatus.RUNNING
        assert stats.held == 0
        assert late.goal_met() is False
        assert stats.goals_missed == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_load_gate_holds_then_meets(self, backend):
        """The same submission is held until the hog drains, then met.

        Feasible on an idle machine (0.15s at LP 4 vs the 0.28s goal), so
        the capacity gate admits it; infeasible under the current load,
        so it waits — and because the WCT goal is relative to its own
        start, the post-drain run meets it comfortably.
        """
        stats, status_at_submit, late = self.run_scenario(
            backend, load_aware=True
        )
        assert status_at_submit is ExecutionStatus.QUEUED
        assert stats.held == 1
        assert late.goal_met() is True
        assert stats.goals_missed == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reject_policy_turns_load_hold_into_reject(self, backend):
        with SkeletonService(
            backend=backend,
            capacity=4,
            min_rebalance_interval=0.0,
            admission_policy="reject",
        ) as service:
            hog = submit_map(
                service, "hog", qos=QoS.wall_clock(0.4), **self.HOG
            )
            late = submit_map(
                service, "late", value=2, qos=QoS.wall_clock(0.28), **self.LATE
            )
            assert late.status() is ExecutionStatus.REJECTED
            assert "current load" in late.rejected_reason
            with pytest.raises(AdmissionError):
                late.result(timeout=1.0)
            assert hog.result(timeout=30.0) == 8


# ---------------------------------------------------------------------------
# fair-share weights, live


class TestLiveWeights:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_surplus_follows_the_weights(self, backend):
        """Two best-effort tenants, weights 4:1 on 5 workers -> 3:2 split
        (floors of one each, surplus 3 by largest remainder)."""
        with SkeletonService(
            backend=backend, capacity=5, min_rebalance_interval=0.0
        ) as service:
            heavy = submit_map(
                service, "heavy", width=10, leaf=0.05,
                qos=QoS.best_effort(weight=4.0),
            )
            light = submit_map(
                service, "light", width=10, leaf=0.05, value=2,
                qos=QoS.best_effort(weight=1.0),
            )
            split = service.arbiter.last_rebalance
            assert split.shares[heavy.execution_id] == 3
            assert split.shares[light.execution_id] == 2
            assert split.weights[heavy.execution_id] == 4.0
            assert heavy.result(timeout=30.0) == 10
            assert light.result(timeout=30.0) == 20

    def test_tenant_quota_weight_is_the_default(self):
        from repro.service import TenantQuota

        with SkeletonService(
            backend="threads",
            capacity=5,
            min_rebalance_interval=0.0,
            quotas={"gold": TenantQuota(weight=4.0)},
        ) as service:
            gold = submit_map(
                service, "gold", width=10, leaf=0.05, qos=None
            )
            plain = submit_map(
                service, "plain", width=10, leaf=0.05, value=2, qos=None
            )
            split = service.arbiter.last_rebalance
            # The quota weight flows in when the QoS does not set one.
            assert split.weights[gold.execution_id] == 4.0
            assert split.weights[plain.execution_id] == 1.0
            assert split.shares[gold.execution_id] == 3
            assert gold.result(timeout=30.0) == 10
            assert plain.result(timeout=30.0) == 20


# ---------------------------------------------------------------------------
# async facade


class TestAsyncFacade:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_await_handle_returns_the_result(self, backend):
        with SkeletonService(backend=backend, capacity=4) as service:
            handle = submit_map(service, "t", width=4, leaf=0.05)

            async def consume():
                return await handle

            assert asyncio.run(consume()) == 4

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_statuses_streams_the_lifecycle(self, backend):
        with SkeletonService(backend=backend, capacity=2) as service:
            handle = submit_map(service, "t", width=6, leaf=0.05)

            async def consume():
                return [s async for s in handle.statuses()]

            seen = asyncio.run(consume())
            assert seen[0] is ExecutionStatus.RUNNING
            assert seen[-1] is ExecutionStatus.COMPLETED
            assert len(seen) == len(set(seen))  # each state exactly once

    def test_statuses_observes_queued_then_running(self):
        with SkeletonService(
            backend="threads", capacity=2, max_live=1
        ) as service:
            first = submit_map(service, "t", width=4, leaf=0.1)
            held = submit_map(service, "t", width=2, leaf=0.05, value=2)
            assert held.status() is ExecutionStatus.QUEUED

            async def consume():
                return [s async for s in held.statuses()]

            seen = asyncio.run(consume())
            assert seen[0] is ExecutionStatus.QUEUED
            assert seen[-1] is ExecutionStatus.COMPLETED
            assert first.result(timeout=10.0) == 4

    def test_await_rejected_handle_raises_admission_error(self):
        with SkeletonService(backend="threads", capacity=2) as service:
            # A serial 0.3s chain cannot meet 0.01s however many workers.
            from tests.conftest import (
                sleepy_chain_program,
                sleepy_chain_snapshot,
            )

            chain = sleepy_chain_program(3, 0.1)
            doomed = service.submit(
                chain,
                0,
                qos=QoS.wall_clock(0.01),
                tenant="greedy",
                warm_start=sleepy_chain_snapshot(chain, 3, 0.1),
            )

            async def consume():
                try:
                    await doomed
                except AdmissionError as exc:
                    statuses = [s async for s in doomed.statuses()]
                    return exc, statuses
                raise AssertionError("await did not raise")

            exc, statuses = asyncio.run(consume())
            assert "infeasible" in str(exc)
            assert statuses == [ExecutionStatus.REJECTED]

    def test_await_cancelled_handle_raises(self):
        with SkeletonService(backend="threads", capacity=2) as service:
            handle = submit_map(service, "t", width=8, leaf=0.2)

            async def consume():
                await asyncio.sleep(0.05)
                assert handle.cancel()
                with pytest.raises(ExecutionCancelledError):
                    await handle
                return await handle.exception_async()

            exc = asyncio.run(consume())
            assert isinstance(exc, ExecutionCancelledError)

    def test_await_works_on_the_simulator(self):
        """The driver-backed future drives virtual time inside await."""
        with SkeletonService(
            backend=UNIT_COST_SIM,
            capacity=4,
            min_rebalance_interval=0.0,
        ) as service:
            handle = submit_map(service, "t", width=4, leaf=0.0)

            async def consume():
                statuses = [s async for s in handle.statuses()]
                return await handle, statuses

            result, statuses = asyncio.run(consume())
            assert result == 4
            assert statuses[-1] is ExecutionStatus.COMPLETED


# ---------------------------------------------------------------------------
# stats: cancelled executions are not goal misses (regression)


class TestCancelledNotAMiss:
    def test_cancelled_mid_flight_excluded_from_miss_rate(self):
        with SkeletonService(backend="threads", capacity=2) as service:
            handle = submit_map(
                service, "t", width=8, leaf=0.2, qos=QoS.wall_clock(60.0)
            )
            import time

            time.sleep(0.05)
            assert handle.cancel()
            with pytest.raises(ExecutionCancelledError):
                handle.result(timeout=5.0)
            tenant = service.stats.tenant("t")
            assert tenant.cancelled == 1
            assert tenant.goals_met == 0 and tenant.goals_missed == 0
            assert service.stats.goal_miss_rate() is None

    def test_record_finished_ignores_goal_claims_for_cancelled(self):
        """The structural guard: even an (erroneous) goal_met=False from
        the caller must not move the miss counters for a cancellation."""
        stats = ServiceStats()
        stats.record_finished("t", "cancelled", 1.0, goal_met=False)
        stats.record_finished("t", "cancelled", 2.0, goal_met=True)
        tenant = stats.tenant("t")
        assert tenant.cancelled == 2
        assert tenant.goals_met == 0 and tenant.goals_missed == 0
        assert stats.goal_miss_rate() is None
        # ...while completed executions are judged as before.
        stats.record_finished("t", "completed", 3.0, goal_met=False)
        assert stats.tenant("t").goals_missed == 1
        assert stats.goal_miss_rate() == 1.0


# ---------------------------------------------------------------------------
# event-count rebalance throttling (service level, deterministic on the sim)


class TestEventCountThrottling:
    def tick_rebalances(self, service):
        """Rebalances triggered by analysis ticks (not admit/done)."""
        return [
            r
            for r in service.arbiter.rebalances
            if not r.trigger.startswith(("admit:", "done:"))
        ]

    def run_storm(self, min_events):
        with SkeletonService(
            backend=UNIT_COST_SIM,
            capacity=4,
            min_rebalance_interval=0.0,
            min_rebalance_events=min_events,
        ) as service:
            # A fine-grained muscle storm: 24 leaves = 24+ analysis points.
            handle = submit_map(service, "t", width=24, leaf=0.0)
            assert handle.result(timeout=30.0) == 24
            return self.tick_rebalances(service)

    def test_storms_rebalance_on_every_tick_by_default(self):
        assert len(self.run_storm(min_events=1)) >= 24

    def test_event_count_throttle_bounds_the_storm(self):
        per_tick = len(self.run_storm(min_events=1))
        throttled = len(self.run_storm(min_events=8))
        assert throttled <= per_tick // 8 + 1
        assert throttled >= 1  # still rebalances, just less often

    def test_forced_rebalances_unaffected(self):
        with SkeletonService(
            backend=UNIT_COST_SIM,
            capacity=4,
            min_rebalance_interval=0.0,
            min_rebalance_events=10**9,
        ) as service:
            handle = submit_map(service, "t", width=8, leaf=0.0)
            assert handle.result(timeout=30.0) == 8
            triggers = [r.trigger for r in service.arbiter.rebalances]
            assert self.tick_rebalances(service) == []
            assert any(t.startswith("admit:") for t in triggers)
