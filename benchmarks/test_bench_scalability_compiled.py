"""SCALABILITY (compiled) — dict scheduler passes vs PlanTable arrays.

Same two-level map programs and the same analysis-pass recipe as
``test_bench_scalability``, run twice per size: once through the classic
dict passes of :mod:`repro.core.schedule`, once through the flat-array
passes of :mod:`repro.core.planning.table` (projection + table compile
included in the compiled timing, so the column is the honest end-to-end
cost of one from-scratch compiled analysis).  Decisions are asserted
bit-identical before anything is timed; the largest row must clear the
ISSUE 9 floor of a 5x speedup over the dict path.
"""

import time

import pytest

from repro.bench import comparison_table, format_row
from repro.core.adg import ADG
from repro.core.planning.table import (
    PlanTable,
    compiled_best_effort,
    compiled_critical_path,
    compiled_minimal_lp,
    compiled_pin,
    compiled_schedule_pending,
)
from repro.core.projection import project_skeleton
from repro.core.schedule import (
    best_effort_schedule,
    limited_lp_schedule,
    minimal_lp_greedy,
)
from test_bench_scalability import SIZES, analysis_pass, make_program

SPEEDUP_FLOOR = 5.0  # on the largest (842-activity) row


def compiled_analysis_pass(skel, reg):
    adg = ADG()
    project_skeleton(skel, adg, [], reg)
    table = PlanTable.compile(adg)
    base = compiled_pin(table, 0.0)
    best = compiled_best_effort(table, base)
    _cp, prio = compiled_critical_path(table)
    compiled_schedule_pending(table, 0.0, 4, base, prio)
    compiled_minimal_lp(
        table, 0.0, best.wct * 1.5, max_lp=24, base=base, prio=prio
    )
    return len(adg)


def assert_decisions_identical(skel, reg):
    """The compiled pass must reach the dict pass's decisions bit for bit."""
    adg = ADG()
    project_skeleton(skel, adg, [], reg)
    table = PlanTable.compile(adg)
    assert table is not None

    base = compiled_pin(table, 0.0)
    best_ref = best_effort_schedule(adg, 0.0)
    best = compiled_best_effort(table, base)
    assert best.wct == best_ref.wct
    assert best.timeline() == best_ref.timeline()
    assert best.peak(from_time=0.0) == best_ref.peak(from_time=0.0)

    _cp, prio = compiled_critical_path(table)
    lim_ref = limited_lp_schedule(adg, 0.0, 4)
    lim = compiled_schedule_pending(table, 0.0, 4, base, prio)
    assert lim.wct == lim_ref.wct
    assert lim.timeline() == lim_ref.timeline()

    deadline = best_ref.wct * 1.5
    ref = minimal_lp_greedy(adg, 0.0, deadline, max_lp=24)
    got = compiled_minimal_lp(
        table, 0.0, deadline, max_lp=24, base=base, prio=prio
    )
    if ref is None:
        assert got is None
    else:
        assert got is not None and got[0] == ref[0]
        assert got[1].wct == ref[1].wct
        assert got[1].timeline() == ref[1].timeline()


def best_of(fn, *args, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn(*args)
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best


@pytest.mark.parametrize("outer,inner", SIZES, ids=[f"{o}x{i}" for o, i in SIZES])
def test_compiled_analysis_scaling(benchmark, outer, inner):
    skel, reg = make_program(outer, inner)
    n = benchmark(compiled_analysis_pass, skel, reg)
    assert n == 2 + outer * (inner + 2)


def test_compiled_vs_dict_summary(benchmark, report):
    rows = []
    speedups = []
    for outer, inner in SIZES:
        skel, reg = make_program(outer, inner)
        assert_decisions_identical(skel, reg)
        n = 2 + outer * (inner + 2)
        t_dict = best_of(analysis_pass, skel, reg)
        t_comp = best_of(compiled_analysis_pass, skel, reg)
        speedup = t_dict / t_comp
        speedups.append(speedup)
        rows.append(
            format_row(
                f"{n} activities",
                round(t_dict * 1e3, 3),
                round(t_comp * 1e3, 3),
                f"{speedup:.1f}x",
            )
        )
    benchmark.pedantic(
        compiled_analysis_pass, args=make_program(5, 10), rounds=5, iterations=1
    )
    report("SCALABILITY — dict passes vs compiled PlanTable passes")
    report()
    report(
        comparison_table(
            rows,
            title=(
                "measured: paper col = dict path ms/analysis, "
                "measured col = compiled ms/analysis"
            ),
        )
    )
    report()
    report(f"largest-row speedup: {speedups[-1]:.1f}x (floor {SPEEDUP_FLOOR}x)")
    assert speedups[-1] >= SPEEDUP_FLOOR, (
        f"compiled tables only {speedups[-1]:.1f}x faster than the dict "
        f"path on the largest row (floor {SPEEDUP_FLOOR}x)"
    )
