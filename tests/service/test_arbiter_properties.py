"""Property harness: scheduler invariants of the QoS-class LP arbiter.

Seeded random tenant/goal generators produce hundreds of arbitration
scenarios (mixes of cold/warm executions, deadlines, weights, priority
classes, per-tenant LP caps) and every resulting :class:`Rebalance` is
checked against the invariants the multi-tenant service relies on:

* **budget** — the applied global LP never exceeds the worker budget,
  and neither does the sum of shares while the budget can hold the
  per-execution floors;
* **floors** — every live execution keeps at least one worker, whatever
  the pressure (no starvation by urgency or by class);
* **ceilings** — no execution is granted more than its useful peak
  (optimal LP) or its own ``MaxLPGoal``;
* **work conservation** — budget is only left idle when every execution
  already sits at its ceiling;
* **no priority inversion** — when a higher-class deadline cannot be
  met, the grant maxed out everything not protected by lower-class
  floors: no lower-class execution holds surplus that could have helped;
* **weighted surplus** — leftover budget splits proportionally to the
  tenant weights (largest-remainder, ±1 worker);
* **starvation-free decay** — a feather-weight tenant under constant
  pressure wins surplus after logarithmically many rounds;
* **churn** — invariants hold across arrivals/departures, and the share
  map applied to the platform always matches the arbitration outcome.

The same sweep runs against the bare virtual-clock platform and against
*real* ``threads`` and ``processes`` pool platforms (idle pools: the
sweep exercises ``set_parallelism``/``set_shares`` resizing, not muscle
execution), so the scheduler contract is pinned on every backend.
"""

import random

import pytest

from repro.core.qos import QoS
from repro.runtime.clock import VirtualClock
from repro.runtime.platform import Platform
from repro.runtime.registry import make_platform
from repro.runtime.spec import PlatformSpec
from repro.service import LPArbiter
from tests.service.test_arbiter import StubAnalyzer

pytestmark = pytest.mark.service_stress

CAPACITY = 6
SEEDS = range(10)
SCENARIOS_PER_SEED = 22  # x 10 seeds = 220 scenarios per backend


@pytest.fixture(scope="module", params=["virtual", "threads", "processes"])
def shared_platform(request):
    """One platform per backend, reused across the whole sweep."""
    if request.param == "virtual":
        yield Platform(
            parallelism=1, max_parallelism=CAPACITY, clock=VirtualClock()
        )
        return
    platform = make_platform(
        PlatformSpec(kind=request.param, workers=1, max_workers=CAPACITY)
    )
    yield platform
    platform.shutdown()


def random_analyzers(rng, capacity):
    """One random scenario: execution id -> stub analyzer."""
    n = rng.randint(1, 2 * capacity)
    analyzers = {}
    for eid in range(1, n + 1):
        cap = rng.choice([None, None, None, rng.randint(1, capacity)])
        weight = rng.choice([0.1, 0.5, 1.0, 1.0, 2.0, 8.0])
        priority = rng.choice([-1, 0, 0, 0, 1, 2])
        qos = QoS(
            max_lp=None,
            weight=weight,
            priority=priority,
        )
        if cap is not None:
            qos = QoS.wall_clock(1e9, max_lp=cap, weight=weight, priority=priority)
        if rng.random() < 0.25:
            analyzers[eid] = StubAnalyzer(eid, cold=True, qos=qos)
        else:
            deadline = (
                None if rng.random() < 0.3 else rng.uniform(0.2, 30.0)
            )
            analyzers[eid] = StubAnalyzer(
                eid,
                deadline=deadline,
                width=rng.randint(1, 10),
                duration=rng.choice([0.1, 0.5, 1.0, 2.0]),
                qos=qos,
            )
    return analyzers


def scenario_ceiling(outcome, analyzers, eid, capacity):
    """The useful peak the arbiter must not exceed for *eid*."""
    analyzer = analyzers[eid]
    cap = analyzer.qos.max_threads if analyzer.qos else None
    if eid in outcome.cold:
        ceiling = capacity
    else:
        report = analyzer.analyze(outcome.time)
        ceiling = min(report.optimal_lp, capacity)
    if cap is not None:
        ceiling = min(ceiling, cap)
    return max(1, ceiling)


def check_invariants(outcome, analyzers, capacity):
    n = len(analyzers)
    shares = outcome.shares
    assert set(shares) == set(analyzers)

    # budget
    assert 1 <= outcome.total_lp <= capacity
    assert sum(shares.values()) <= max(capacity, n)

    ceilings = {
        eid: scenario_ceiling(outcome, analyzers, eid, capacity)
        for eid in analyzers
    }
    for eid, share in shares.items():
        # floors and ceilings
        assert share >= 1
        assert share <= ceilings[eid], (
            f"execution {eid} granted {share} beyond its ceiling "
            f"{ceilings[eid]}"
        )
        # the guaranteed phase never exceeds the final grant
        assert 1 <= outcome.committed[eid] <= share

    # work conservation: idle budget only when everyone is saturated
    if n <= capacity and sum(shares.values()) < capacity:
        assert all(shares[eid] == ceilings[eid] for eid in analyzers), (
            f"idle budget left while executions below their ceilings: "
            f"shares={shares} ceilings={ceilings}"
        )

    # no priority inversion: an unmet higher-class deadline means the
    # grant already maxed out everything lower-class floors allow
    for hot in outcome.infeasible:
        if shares[hot] >= ceilings[hot]:
            continue  # saturated: more workers would idle, not help
        lower = [
            eid
            for eid in analyzers
            if outcome.priorities[eid] < outcome.priorities[hot]
        ]
        assert all(shares[eid] == 1 for eid in lower), (
            f"priority inversion: {hot} (class {outcome.priorities[hot]}) "
            f"missed its deadline below ceiling while lower classes hold "
            f"surplus: shares={shares}"
        )


class TestRandomizedSweep:
    """220 seeded scenarios per backend, every invariant on every one."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_invariants_hold(self, shared_platform, seed):
        rng = random.Random(1000 + seed)
        for scenario in range(SCENARIOS_PER_SEED):
            arbiter = LPArbiter(shared_platform, capacity=CAPACITY)
            analyzers = random_analyzers(rng, CAPACITY)
            now = rng.uniform(0.0, 5.0)
            outcome = arbiter.rebalance(now, analyzers, trigger="sweep")
            check_invariants(outcome, analyzers, CAPACITY)
            # the platform always carries exactly the arbitrated split
            assert shared_platform.get_shares() == outcome.shares
            assert shared_platform.get_parallelism() == outcome.total_lp

    @pytest.mark.parametrize("seed", SEEDS)
    def test_invariants_hold_under_churn(self, shared_platform, seed):
        """Arrivals and departures between rebalances of one arbiter."""
        rng = random.Random(7000 + seed)
        arbiter = LPArbiter(shared_platform, capacity=CAPACITY)
        analyzers = random_analyzers(rng, CAPACITY)
        now = 0.0
        for step in range(20):
            now += rng.uniform(0.01, 1.0)
            outcome = arbiter.rebalance(
                now, analyzers, trigger=f"churn:{step}", force=True
            )
            check_invariants(outcome, analyzers, CAPACITY)
            # churn: drop up to one execution, add up to two
            if analyzers and rng.random() < 0.5:
                analyzers.pop(rng.choice(sorted(analyzers)))
            for _ in range(rng.randint(0, 2)):
                eid = max(analyzers, default=0) + 1
                fresh = random_analyzers(rng, CAPACITY)
                analyzers[eid] = fresh[rng.choice(sorted(fresh))]
                analyzers[eid].execution_id = eid
            if not analyzers:
                analyzers = random_analyzers(rng, CAPACITY)


class TestWeightedSurplus:
    """Leftover budget splits by weight, largest-remainder, ±1 worker."""

    @staticmethod
    def surplus_analyzers(weights, capacity):
        """Warm, loose-deadline tenants: minimal grant 1, huge ceilings."""
        return {
            eid: StubAnalyzer(
                eid,
                deadline=1e6,
                width=4 * capacity,  # optimal LP far above any grant
                duration=1.0,
                qos=QoS(weight=weight),
            )
            for eid, weight in weights.items()
        }

    @pytest.mark.parametrize("seed", SEEDS)
    def test_split_proportional_to_weights(self, seed):
        rng = random.Random(3000 + seed)
        for _ in range(20):
            capacity = rng.randint(4, 24)
            n = rng.randint(2, min(6, capacity))
            weights = {
                eid: rng.choice([0.25, 0.5, 1.0, 2.0, 4.0, 10.0])
                for eid in range(1, n + 1)
            }
            platform = Platform(
                parallelism=1, max_parallelism=capacity, clock=VirtualClock()
            )
            arbiter = LPArbiter(platform, capacity=capacity)
            outcome = arbiter.rebalance(
                0.0, self.surplus_analyzers(weights, capacity)
            )
            leftover = capacity - n  # everyone's guaranteed grant is 1
            total_weight = sum(weights.values())
            for eid, weight in weights.items():
                exact = leftover * weight / total_weight
                surplus = outcome.shares[eid] - outcome.committed[eid]
                assert abs(surplus - exact) <= 1.0, (
                    f"weight split off by more than one worker: "
                    f"weights={weights} shares={outcome.shares}"
                )

    def test_equal_weights_split_evenly(self):
        platform = Platform(
            parallelism=1, max_parallelism=9, clock=VirtualClock()
        )
        arbiter = LPArbiter(platform, capacity=9)
        outcome = arbiter.rebalance(
            0.0, self.surplus_analyzers({1: 1.0, 2: 1.0, 3: 1.0}, 9)
        )
        assert outcome.shares == {1: 3, 2: 3, 3: 3}

    def test_double_weight_doubles_surplus(self):
        platform = Platform(
            parallelism=1, max_parallelism=8, clock=VirtualClock()
        )
        arbiter = LPArbiter(platform, capacity=8)
        outcome = arbiter.rebalance(
            0.0, self.surplus_analyzers({1: 2.0, 2: 1.0}, 8)
        )
        # 6 surplus workers at weights 2:1 -> 4 and 2, on top of the floors.
        assert outcome.shares == {1: 5, 2: 3}

    def test_capped_surplus_flows_to_the_rest(self):
        platform = Platform(
            parallelism=1, max_parallelism=10, clock=VirtualClock()
        )
        arbiter = LPArbiter(platform, capacity=10)
        analyzers = self.surplus_analyzers({1: 100.0, 2: 1.0}, 10)
        analyzers[1] = StubAnalyzer(
            1,
            deadline=1e6,
            width=40,
            duration=1.0,
            qos=QoS.wall_clock(1e9, max_lp=3, weight=100.0),
        )
        outcome = arbiter.rebalance(0.0, analyzers)
        # The heavyweight is capped at 3; the rest of the pool water-falls
        # to the lightweight instead of idling.
        assert outcome.shares == {1: 3, 2: 7}


class TestStarvationFreeDecay:
    def test_feather_weight_tenant_wins_surplus_eventually(self):
        platform = Platform(
            parallelism=1, max_parallelism=3, clock=VirtualClock()
        )
        arbiter = LPArbiter(platform, capacity=3)
        analyzers = {
            1: StubAnalyzer(1, deadline=1e6, width=12, duration=1.0,
                            qos=QoS(weight=1000.0)),
            2: StubAnalyzer(2, deadline=1e6, width=12, duration=1.0,
                            qos=QoS(weight=1.0)),
        }
        # One surplus worker; the heavyweight takes it round after round
        # until the feather weight's aged weight overtakes (2**k > 1000).
        won_at = None
        for round_number in range(1, 16):
            outcome = arbiter.rebalance(
                float(round_number), analyzers, force=True
            )
            if outcome.shares[2] > 1:
                won_at = round_number
                break
            assert arbiter.starved_rounds(2) == round_number
        assert won_at is not None, "feather-weight tenant starved forever"
        assert won_at <= 12  # log2(1000) ~ 10 rounds of doubling
        assert arbiter.starved_rounds(2) == 0  # fed -> aging resets

    def test_aging_state_pruned_with_the_execution(self):
        platform = Platform(
            parallelism=1, max_parallelism=3, clock=VirtualClock()
        )
        arbiter = LPArbiter(platform, capacity=3)
        analyzers = {
            1: StubAnalyzer(1, deadline=1e6, width=8, duration=1.0,
                            qos=QoS(weight=50.0)),
            2: StubAnalyzer(2, deadline=1e6, width=8, duration=1.0,
                            qos=QoS(weight=1.0)),
        }
        arbiter.rebalance(0.0, analyzers, force=True)
        assert arbiter.starved_rounds(2) == 1
        arbiter.rebalance(1.0, {1: analyzers[1]}, force=True)
        assert arbiter.starved_rounds(2) == 0

    def test_zero_surplus_rounds_do_not_age(self):
        """A saturated guaranteed phase leaves the aging counters alone:
        nobody was passed over, so nobody banks a head start."""
        platform = Platform(
            parallelism=1, max_parallelism=2, clock=VirtualClock()
        )
        arbiter = LPArbiter(platform, capacity=2)
        analyzers = {
            1: StubAnalyzer(1, deadline=1e6, width=8, duration=1.0,
                            qos=QoS(weight=50.0)),
            2: StubAnalyzer(2, deadline=1e6, width=8, duration=1.0,
                            qos=QoS(weight=1.0)),
        }
        for round_number in range(5):
            arbiter.rebalance(float(round_number), analyzers, force=True)
            assert arbiter.starved_rounds(1) == 0
            assert arbiter.starved_rounds(2) == 0

    def test_disabled_aging_keeps_pure_weights(self):
        platform = Platform(
            parallelism=1, max_parallelism=3, clock=VirtualClock()
        )
        arbiter = LPArbiter(platform, capacity=3, starvation_base=1.0)
        analyzers = {
            1: StubAnalyzer(1, deadline=1e6, width=12, duration=1.0,
                            qos=QoS(weight=1000.0)),
            2: StubAnalyzer(2, deadline=1e6, width=12, duration=1.0,
                            qos=QoS(weight=1.0)),
        }
        for round_number in range(1, 20):
            outcome = arbiter.rebalance(
                float(round_number), analyzers, force=True
            )
            assert outcome.shares[2] == 1  # starves: aging is off


class TestPriorityClasses:
    def test_higher_class_served_before_earlier_deadline(self):
        platform = Platform(
            parallelism=1, max_parallelism=4, clock=VirtualClock()
        )
        arbiter = LPArbiter(platform, capacity=4)
        analyzers = {
            # Lower class, *earlier* deadline, needs the whole pool.
            1: StubAnalyzer(1, deadline=4.0, width=4, duration=3.0,
                            qos=QoS(weight=1.0, priority=0)),
            # Higher class, later deadline, needs 3 of 4.
            2: StubAnalyzer(2, deadline=9.0, width=8, duration=3.0,
                            qos=QoS(weight=1.0, priority=2)),
        }
        outcome = arbiter.rebalance(0.0, analyzers)
        # Class 2 is served first: 8 x 3s leaves by t=9 needs LP 3; the
        # lower class keeps only what is left (its floor), deadline or not.
        assert outcome.shares[2] == 3
        assert outcome.shares[1] == 1
        assert outcome.infeasible == (1,)

    def test_batch_class_yields_to_normal(self):
        platform = Platform(
            parallelism=1, max_parallelism=4, clock=VirtualClock()
        )
        arbiter = LPArbiter(platform, capacity=4)
        analyzers = {
            1: StubAnalyzer(1, deadline=3.5, width=6, duration=1.0,
                            qos=QoS(weight=1.0, priority=-1)),
            2: StubAnalyzer(2, deadline=3.5, width=6, duration=1.0,
                            qos=QoS(weight=1.0, priority=0)),
        }
        outcome = arbiter.rebalance(0.0, analyzers)
        # Same deadline: the NORMAL class arbitrates strictly first (6 x
        # 1s leaves by 3.5 -> LP 2), BATCH takes what remains.
        assert outcome.shares[2] >= outcome.shares[1]
        assert outcome.priorities == {1: -1, 2: 0}


class TestEventCountThrottle:
    """Rebalance throttling: forced rebalances bypass the time throttle."""

    def analyzers(self):
        return {1: StubAnalyzer(1, deadline=1e6, width=4, duration=1.0)}

    def test_forced_rebalance_bypasses_and_resets(self):
        platform = Platform(
            parallelism=1, max_parallelism=4, clock=VirtualClock()
        )
        arbiter = LPArbiter(platform, capacity=4, min_interval=5.0)
        analyzers = self.analyzers()
        assert arbiter.rebalance(0.0, analyzers) is not None
        assert arbiter.rebalance(1.0, analyzers) is None
        assert arbiter.rebalance(1.0, analyzers, force=True) is not None
        # the forced rebalance restarted the interval from 1.0
        assert arbiter.rebalance(5.5, analyzers) is None
        assert not arbiter.due(5.5)
        assert arbiter.due(6.0)
        assert arbiter.rebalance(6.0, analyzers) is not None

    def test_layered_with_time_throttle(self):
        platform = Platform(
            parallelism=1, max_parallelism=4, clock=VirtualClock()
        )
        arbiter = LPArbiter(platform, capacity=4, min_interval=1.0)
        analyzers = self.analyzers()
        assert arbiter.rebalance(0.0, analyzers, force=True) is not None
        # not enough time: a tick is throttled, a forced rebalance is not
        assert not arbiter.due(0.5)
        assert arbiter.rebalance(0.5, analyzers) is None
        assert arbiter.rebalance(0.5, analyzers, force=True) is not None
        # the forced rebalance restarted the interval
        assert arbiter.rebalance(1.0, analyzers) is None
        assert arbiter.due(2.0)
        assert arbiter.rebalance(2.0, analyzers) is not None

    def test_validation(self):
        platform = Platform(
            parallelism=1, max_parallelism=4, clock=VirtualClock()
        )
        with pytest.raises(ValueError, match="starvation_base"):
            LPArbiter(platform, capacity=4, starvation_base=0.5)
