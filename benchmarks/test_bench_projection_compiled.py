"""SCALABILITY (projection compiler) — Activity walk vs direct compile.

Same two-level map programs as ``test_bench_scalability``, with the
structural table built two ways per size:

* **walk** — the PR 9 path: ``project_skeleton`` materializes Activity
  objects into an ADG, then ``PlanTable.compile`` flattens them;
* **direct** — the :class:`~repro.core.planning.compile.
  ProjectionCompiler` emits the PlanTable columns straight from the
  skeleton structure (sub-template stamping, no Activity objects).

The tables are asserted **bit-identical** (every column, typecode and
raw bytes) before anything is timed; the largest row must clear a 3x
floor on table construction alone and the full analysis pass (build +
best-effort + critical path + pin + LP frontier + minimal-LP scan) must
beat the PR 9 full pass by the ISSUE 10 floor.
"""

import time

import pytest

from repro.bench import comparison_table, format_row
from repro.core.adg import ADG
from repro.core.planning.compile import compile_structural
from repro.core.planning.table import (
    PlanTable,
    compiled_best_effort,
    compiled_critical_path,
    compiled_minimal_lp,
    compiled_pin,
    compiled_schedule_pending,
)
from repro.core.projection import project_skeleton
from test_bench_scalability import SIZES, make_program

BUILD_SPEEDUP_FLOOR = 3.0  # table construction, largest (842-activity) row
FULL_PASS_SPEEDUP_FLOOR = 1.75  # full analysis pass vs the PR 9 recipe

_COLUMNS = (
    "duration",
    "start",
    "end",
    "state",
    "npred",
    "pred0",
    "pred1",
    "pred_ptr",
    "pred_ext",
    "nsucc",
    "succ0",
    "succ1",
    "succ_ptr",
    "succ_ext",
)


def walk_table(skel, reg):
    """The PR 9 structural path: Activity walk, then flatten."""
    adg = ADG()
    project_skeleton(skel, adg, [], reg)
    return PlanTable.compile(adg)


def direct_table(skel, reg):
    """The PR 10 path: emit the columns straight from the structure."""
    return compile_structural(skel, reg).table


def assert_tables_bit_identical(skel, reg):
    walked = walk_table(skel, reg)
    direct = direct_table(skel, reg)
    assert walked is not None
    assert direct.n == walked.n
    assert direct.names == walked.names
    assert direct.roles == walked.roles
    for col in _COLUMNS:
        a, b = getattr(direct, col), getattr(walked, col)
        assert a.typecode == b.typecode, f"typecode mismatch in {col}"
        assert a.tobytes() == b.tobytes(), f"column {col} diverged"


def full_pass_walk(skel, reg):
    """The PR 9 from-scratch compiled analysis pass, unchanged."""
    table = walk_table(skel, reg)
    base = compiled_pin(table, 0.0)
    best = compiled_best_effort(table, base)
    _cp, prio = compiled_critical_path(table)
    compiled_schedule_pending(table, 0.0, 4, base, prio)
    compiled_minimal_lp(
        table, 0.0, best.wct * 1.5, max_lp=24, base=base, prio=prio
    )
    return table.n


def full_pass_direct(skel, reg):
    """The PR 10 pass: direct compile, array-copied pin, shared peak."""
    plan = compile_structural(skel, reg)
    table = plan.table
    base = plan.pinned_fresh(0.0)
    best = compiled_best_effort(table, base)
    _cp, prio = compiled_critical_path(table)
    compiled_schedule_pending(table, 0.0, 4, base, prio)
    compiled_minimal_lp(
        table,
        0.0,
        best.wct * 1.5,
        max_lp=24,
        base=base,
        prio=prio,
        peak=best.peak(from_time=0.0),
    )
    return table.n


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
def test_projection_compile_scalability(benchmark, outer, inner):
    skel, reg = make_program(outer, inner)
    assert_tables_bit_identical(skel, reg)
    table = benchmark(direct_table, skel, reg)
    assert table.n == 2 + outer * (inner + 2)


def test_projection_vs_walk_scalability_summary(benchmark, report):
    build_rows, build_speedups = [], []
    pass_rows, pass_speedups = [], []
    for outer, inner in SIZES:
        skel, reg = make_program(outer, inner)
        assert_tables_bit_identical(skel, reg)
        n = 2 + outer * (inner + 2)
        t_walk = best_of(walk_table, skel, reg)
        t_direct = best_of(direct_table, skel, reg)
        build_speedups.append(t_walk / t_direct)
        build_rows.append(
            format_row(
                f"{n} activities",
                round(t_walk * 1e3, 3),
                round(t_direct * 1e3, 3),
                f"{build_speedups[-1]:.1f}x",
            )
        )
        t_pass_walk = best_of(full_pass_walk, skel, reg)
        t_pass_direct = best_of(full_pass_direct, skel, reg)
        pass_speedups.append(t_pass_walk / t_pass_direct)
        pass_rows.append(
            format_row(
                f"{n} activities",
                round(t_pass_walk * 1e3, 3),
                round(t_pass_direct * 1e3, 3),
                f"{pass_speedups[-1]:.1f}x",
            )
        )
    benchmark.pedantic(
        full_pass_direct, args=make_program(5, 10), rounds=5, iterations=1
    )
    report("SCALABILITY — Activity-walk tables vs direct projection compile")
    report()
    report(
        comparison_table(
            build_rows,
            title=(
                "table build: paper col = walk+flatten ms, "
                "measured col = direct compile ms"
            ),
        )
    )
    report()
    report(
        comparison_table(
            pass_rows,
            title=(
                "full analysis pass: paper col = PR 9 recipe ms, "
                "measured col = direct-compile recipe ms"
            ),
        )
    )
    report()
    report(
        f"largest-row build speedup: {build_speedups[-1]:.1f}x "
        f"(floor {BUILD_SPEEDUP_FLOOR}x); full-pass speedup: "
        f"{pass_speedups[-1]:.1f}x (floor {FULL_PASS_SPEEDUP_FLOOR}x)"
    )
    assert build_speedups[-1] >= BUILD_SPEEDUP_FLOOR, (
        f"direct compile only {build_speedups[-1]:.1f}x faster than the "
        f"Activity walk on the largest row (floor {BUILD_SPEEDUP_FLOOR}x)"
    )
    assert pass_speedups[-1] >= FULL_PASS_SPEEDUP_FLOOR, (
        f"full pass only {pass_speedups[-1]:.1f}x faster than the PR 9 "
        f"recipe on the largest row (floor {FULL_PASS_SPEEDUP_FLOOR}x)"
    )
