"""``CompiledSchedule.peak`` — the sweep against the step-function oracle.

The peak is read straight off the start/end columns by one sweep
(``_sweep_peak``), or off the step function when a timeline at the same
crop is already memoized.  Both must equal the dict scheduler's
``peak_concurrency(concurrency_timeline(...))`` on every input and at
every size, so reading it off the columns can only ever move time, never
a decision.
"""

import random
from array import array

import pytest
from hypothesis import given, strategies as st

from repro.core.planning import table as table_module
from repro.core.planning.table import CompiledSchedule
from repro.core.schedule import concurrency_timeline, peak_concurrency


def schedule(intervals):
    starts = array("d", (s for s, _e in intervals))
    ends = array("d", (e for _s, e in intervals))
    names = [f"a{i}" for i in range(len(intervals))]
    state = array("b", bytes(len(intervals)))
    return CompiledSchedule("best-effort", 0.0, None, starts, ends, state, names)


def reference(intervals, from_time):
    floor = from_time if from_time is not None else -float("inf")
    kept = [(s, e) for s, e in intervals if e > floor]
    return peak_concurrency(concurrency_timeline(kept, from_time=from_time))


#: The two ways ``peak`` answers: the column sweep on a fresh schedule,
#: or ``peak_concurrency`` of a timeline memoized at the same crop.
PATHS = ("sweep", "timeline")


def peak(intervals, from_time, path="sweep"):
    result = schedule(intervals)
    if path == "timeline":
        result.timeline(from_time)
    return result.peak(from_time=from_time)


#: Times on a coarse grid (ties, zero-length and sub-epsilon intervals are
#: the cases the grouping and crop rules exist for).
grid = st.integers(min_value=0, max_value=6).map(float)
lengths = st.sampled_from((0.0, 5e-10, 1.0, 1.0, 2.0, 3.5))
interval_lists = st.lists(
    st.tuples(grid, lengths).map(lambda p: (p[0], p[0] + p[1])), max_size=12
)
crops = st.one_of(st.none(), st.sampled_from((-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 6.0, 9.5, 20.0)))


class TestThePeakEqualsTheReference:
    @given(interval_lists, crops)
    def test_generated_schedules(self, intervals, from_time):
        expected = reference(intervals, from_time)
        for path in PATHS:
            assert peak(intervals, from_time, path) == expected

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize(
        "from_time,expected",
        [
            (None, 3),
            (0.0, 3),
            (1.0, 3),  # a kept time equal to the crop: no entry level added
            (1.5, 3),  # strictly inside: the entry level is the peak
            (2.0, 2),  # one interval ends exactly at the crop
            (2.5, 2),
            (4.0, 0),  # the last end: nothing lies beyond it
            (9.0, 0),  # past everything
        ],
    )
    def test_crop_edges(self, from_time, expected, path):
        intervals = [(0.0, 2.0), (1.0, 3.0), (1.0, 4.0)]
        assert reference(intervals, from_time) == expected
        assert peak(intervals, from_time, path) == expected

    @pytest.mark.parametrize("path", PATHS)
    def test_zero_length_intervals_occupy_nothing(self, path):
        intervals = [(1.0, 1.0), (1.0, 1.0 + 5e-10), (1.0, 2.0), (2.0, 2.0)]
        for from_time in (None, 0.0, 1.0, 1.5):
            assert peak(intervals, from_time, path) == 1
        only_empty = [(1.0, 1.0), (3.0, 3.0)]
        for from_time in (None, 0.0, 2.0):
            assert peak(only_empty, from_time, path) == 0

    @pytest.mark.parametrize("path", PATHS)
    def test_empty_schedule(self, path):
        assert peak([], None, path) == 0
        assert peak([], 1.0, path) == 0


class TestWideTables:
    """The sizes of the planner's largest best-effort schedules."""

    @staticmethod
    def tied(rows):
        return [(float(i % 7), float(i % 7) + 1.0 + (i % 3)) for i in range(rows)]

    @staticmethod
    def scattered(rows, seed):
        rng = random.Random(seed)
        out = []
        for _ in range(rows):
            s = rng.randrange(0, 400) * 0.25
            out.append((s, s + rng.choice((0.0, 5e-10, 0.25, 1.0, 7.5, 40.0))))
        return out

    @pytest.mark.parametrize("shape", ["tied", "scattered"])
    @pytest.mark.parametrize("rows", [256, 842, 1000])
    def test_wide_schedules_match_the_reference(self, rows, shape):
        if shape == "tied":
            intervals = self.tied(rows)
        else:
            intervals = self.scattered(rows, seed=rows)
        for from_time in (None, 0.0, 2.0, 3.0, 7.5, 50.0, 200.0):
            assert peak(intervals, from_time) == reference(intervals, from_time)

    def test_peaks_are_memoized_and_reuse_a_memoized_timeline(self, monkeypatch):
        called = []
        real = table_module._sweep_peak
        monkeypatch.setattr(
            table_module, "_sweep_peak", lambda *args: called.append(1) or real(*args)
        )
        intervals = self.tied(842)
        result = schedule(intervals)
        assert result.peak(from_time=1.0) == reference(intervals, 1.0)
        assert called == [1]
        assert result.peak(from_time=1.0) == reference(intervals, 1.0)
        assert called == [1]  # memoized per from_time
        result.timeline(2.0)
        assert result.peak(from_time=2.0) == reference(intervals, 2.0)
        assert called == [1]  # a memoized timeline is reused for free
