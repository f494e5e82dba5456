"""Virtual-time starvation aging: fairness horizon independent of tick
density (ROADMAP item).

Aging by *rebalance round* would double a passed-over tenant's effective
weight per round — so a storm of fine-grained analysis ticks would
fast-forward fairness while a sparse workload stalled it.  The arbiter
ages by ``starvation_unit`` *seconds starved* on the platform clock
instead; the round count survives as an observability reader
(``starved_rounds``) only.
"""

import pytest

from repro.core.qos import QoS
from repro.runtime.clock import VirtualClock
from repro.runtime.platform import Platform
from repro.service import LPArbiter
from tests.service.test_arbiter import StubAnalyzer


def make_platform(capacity=3):
    return Platform(parallelism=1, max_parallelism=capacity, clock=VirtualClock())


def contested_analyzers(heavy_weight=1000.0):
    """Two loose-deadline tenants fighting over one surplus worker."""
    return {
        1: StubAnalyzer(1, deadline=1e6, width=12, duration=1.0,
                        qos=QoS(weight=heavy_weight)),
        2: StubAnalyzer(2, deadline=1e6, width=12, duration=1.0,
                        qos=QoS(weight=1.0)),
    }


def rounds_until_feather_wins(arbiter, analyzers, dt, max_rounds=4000):
    """Drive rebalances *dt* apart; return (round, time) of the first
    surplus worker granted to the feather-weight tenant, or None."""
    now = 0.0
    for round_number in range(1, max_rounds + 1):
        now += dt
        outcome = arbiter.rebalance(now, analyzers, force=True)
        if outcome.shares[2] > 1:
            return round_number, now
    return None


class TestVirtualTimeAging:
    def test_fairness_horizon_is_tick_density_independent(self):
        """Same weights, 40x different tick densities: the feather-weight
        tenant wins at (nearly) the same virtual *time*, not the same
        number of rounds."""
        win_times = {}
        for dt in (0.25, 10.0):
            arbiter = LPArbiter(make_platform(), capacity=3)
            won = rounds_until_feather_wins(arbiter, contested_analyzers(), dt)
            assert won is not None, f"starved forever at dt={dt}"
            win_times[dt] = won[1]
        # log2(1000) ~ 9.97 doublings at 1s per doubling; winning requires
        # aged weight > heavy weight, reached within one dt of ~10s.
        assert 9.0 <= win_times[0.25] <= 11.0
        assert 10.0 <= win_times[10.0] <= 20.0  # first rebalance past ~10s

    def test_round_count_follows_tick_density_not_the_other_way(self):
        """The win *time* is fixed by the weights, so the number of
        rounds it takes scales with how densely rebalances arrive: 40x
        denser ticks, ~40x more rounds — no round count buys fairness."""
        win = {}
        for dt in (0.25, 10.0):
            arbiter = LPArbiter(make_platform(), capacity=3)
            won = rounds_until_feather_wins(arbiter, contested_analyzers(), dt)
            assert won is not None
            win[dt] = won
        assert win[10.0][0] <= 2
        assert 36 <= win[0.25][0] <= 44
        assert win[0.25][0] == pytest.approx(win[0.25][1] / 0.25)

    def test_event_storm_cannot_fast_forward_fairness(self):
        """Thousands of rebalances inside one starvation unit leave the
        heavyweight in control: elapsed starvation, not round count, is
        what ages the weight."""
        arbiter = LPArbiter(make_platform(), capacity=3)
        analyzers = contested_analyzers(heavy_weight=1000.0)
        now = 0.0
        for _ in range(2000):
            now += 1e-4  # 2000 rebalances within 0.2 virtual seconds
            outcome = arbiter.rebalance(now, analyzers, force=True)
            assert outcome.shares[2] == 1
        # The round counter saturated long ago (2**32 >> 1000: a per-round
        # clock would have flipped the split within ten rounds); the
        # clock that ages the weight has barely moved.
        assert arbiter.starved_rounds(2) == 32
        assert arbiter.starved_seconds(2, now=now) == pytest.approx(0.2, rel=1e-3)

    def test_starvation_unit_scales_the_horizon(self):
        """Halving the unit halves the virtual time to parity."""
        fast = LPArbiter(make_platform(), capacity=3, starvation_unit=0.5)
        slow = LPArbiter(make_platform(), capacity=3, starvation_unit=2.0)
        fast_win = rounds_until_feather_wins(fast, contested_analyzers(), 0.25)
        slow_win = rounds_until_feather_wins(slow, contested_analyzers(), 0.25)
        assert fast_win is not None and slow_win is not None
        assert fast_win[1] < slow_win[1]
        assert slow_win[1] == pytest.approx(fast_win[1] * 4.0, rel=0.15)

    def test_starved_seconds_tracks_and_resets(self):
        arbiter = LPArbiter(make_platform(), capacity=3)
        analyzers = contested_analyzers()
        arbiter.rebalance(1.0, analyzers, force=True)
        assert arbiter.starved_seconds(2, now=1.0) == 0.0  # just marked
        arbiter.rebalance(4.0, analyzers, force=True)
        assert arbiter.starved_seconds(2, now=4.0) == pytest.approx(3.0)
        assert arbiter.starved_seconds(1, now=4.0) == 0.0  # heavy is fed
        # Winning resets the clock.
        won = rounds_until_feather_wins(arbiter, analyzers, dt=2.0)
        assert won is not None
        assert arbiter.starved_seconds(2, now=won[1]) == 0.0

    def test_rounds_counter_still_reported(self):
        arbiter = LPArbiter(make_platform(), capacity=3)
        analyzers = contested_analyzers()
        for k in range(1, 4):
            arbiter.rebalance(float(k), analyzers, force=True)
            assert arbiter.starved_rounds(2) == k

    def test_departed_execution_prunes_both_clocks(self):
        arbiter = LPArbiter(make_platform(), capacity=3)
        analyzers = contested_analyzers()
        arbiter.rebalance(1.0, analyzers, force=True)
        assert arbiter.starved_rounds(2) == 1
        arbiter.rebalance(2.0, {1: analyzers[1]}, force=True)
        assert arbiter.starved_rounds(2) == 0
        assert arbiter.starved_seconds(2, now=2.0) == 0.0

    def test_validation(self):
        platform = make_platform()
        with pytest.raises(ValueError, match="starvation_unit"):
            LPArbiter(platform, capacity=3, starvation_unit=0.0)
