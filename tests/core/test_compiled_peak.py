"""``CompiledSchedule.peak`` — the size gate and its two paths.

Below ``_NP_PEAK_MIN_ROWS`` rows the peak is the pure-Python sweep of the
step function, from it on numpy reads it straight off the start/end
columns.  Both must equal the dict scheduler's
``peak_concurrency(concurrency_timeline(...))`` on every input, so the
gate can only ever move time, never a decision.

Runs without numpy too (CI's numpy-free leg): the numpy path is then
unreachable and every gate value must still answer, through the sweep.
"""

from array import array
from contextlib import contextmanager

import pytest
from hypothesis import given, strategies as st

from repro.core.planning import table as table_module
from repro.core.planning.table import CompiledSchedule
from repro.core.schedule import concurrency_timeline, peak_concurrency

HAS_NUMPY = table_module._np is not None

#: (gate, label): 0 sends every table through numpy (when present), the
#: huge one through the pure-Python sweep.
GATES = ((0, "numpy"), (10**9, "python"))


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


@contextmanager
def gate_at(rows):
    shipped = table_module._NP_PEAK_MIN_ROWS
    table_module._NP_PEAK_MIN_ROWS = rows
    try:
        yield
    finally:
        table_module._NP_PEAK_MIN_ROWS = shipped


def peak_through(gate, intervals, from_time):
    with gate_at(gate):
        return schedule(intervals).peak(from_time=from_time)


#: Times on a coarse grid (ties, zero-length and sub-epsilon intervals are
#: the cases the grouping and crop rules exist for).
grid = st.integers(min_value=0, max_value=6).map(float)
lengths = st.sampled_from((0.0, 5e-10, 1.0, 1.0, 2.0, 3.5))
interval_lists = st.lists(
    st.tuples(grid, lengths).map(lambda p: (p[0], p[0] + p[1])), max_size=12
)
crops = st.one_of(st.none(), st.sampled_from((-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 6.0, 9.5, 20.0)))


class TestBothPathsEqualTheReference:
    @given(interval_lists, crops)
    def test_generated_schedules(self, intervals, from_time):
        expected = reference(intervals, from_time)
        for gate, _label in GATES:
            assert peak_through(gate, intervals, from_time) == expected

    @pytest.mark.parametrize("gate,label", GATES)
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
    def test_crop_edges(self, gate, label, from_time, expected):
        intervals = [(0.0, 2.0), (1.0, 3.0), (1.0, 4.0)]
        assert reference(intervals, from_time) == expected
        assert peak_through(gate, intervals, from_time) == expected

    @pytest.mark.parametrize("gate,label", GATES)
    def test_zero_length_intervals_occupy_nothing(self, gate, label):
        intervals = [(1.0, 1.0), (1.0, 1.0 + 5e-10), (1.0, 2.0), (2.0, 2.0)]
        for from_time in (None, 0.0, 1.0, 1.5):
            assert peak_through(gate, intervals, from_time) == 1
        only_empty = [(1.0, 1.0), (3.0, 3.0)]
        for from_time in (None, 0.0, 2.0):
            assert peak_through(gate, only_empty, from_time) == 0

    @pytest.mark.parametrize("gate,label", GATES)
    def test_empty_schedule(self, gate, label):
        assert peak_through(gate, [], None) == 0
        assert peak_through(gate, [], 1.0) == 0


class TestTheGate:
    def wide(self, rows):
        return [(float(i % 7), float(i % 7) + 1.0 + (i % 3)) for i in range(rows)]

    def test_both_sides_of_the_shipped_gate_agree(self):
        gate = table_module._NP_PEAK_MIN_ROWS
        for rows in (gate - 1, gate, gate + 1):
            intervals = self.wide(rows)
            for from_time in (None, 0.0, 2.0, 3.0, 7.5):
                assert schedule(intervals).peak(from_time=from_time) == reference(
                    intervals, from_time
                )

    def test_small_tables_never_enter_numpy(self, monkeypatch):
        called = []
        monkeypatch.setattr(
            table_module, "_np_peak", lambda *args: called.append(args) or 0
        )
        gate = table_module._NP_PEAK_MIN_ROWS
        intervals = self.wide(gate - 1)
        assert schedule(intervals).peak(from_time=1.0) == reference(intervals, 1.0)
        assert not called

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy path needs numpy")
    def test_large_tables_do_unless_the_timeline_is_already_there(self, monkeypatch):
        called = []
        real = table_module._np_peak
        monkeypatch.setattr(
            table_module,
            "_np_peak",
            lambda *args: called.append(1) or real(*args),
        )
        intervals = self.wide(table_module._NP_PEAK_MIN_ROWS)
        result = schedule(intervals)
        assert result.peak(from_time=1.0) == reference(intervals, 1.0)
        assert called == [1]
        assert result.peak(from_time=1.0) == reference(intervals, 1.0)
        assert called == [1]  # memoized per from_time
        result.timeline(2.0)
        assert result.peak(from_time=2.0) == reference(intervals, 2.0)
        assert called == [1]  # a memoized timeline is reused for free

    def test_without_numpy_every_size_takes_the_sweep(self, monkeypatch):
        monkeypatch.setattr(table_module, "_np", None)
        intervals = self.wide(table_module._NP_PEAK_MIN_ROWS + 5)
        for from_time in (None, 2.0):
            assert schedule(intervals).peak(from_time=from_time) == reference(
                intervals, from_time
            )
