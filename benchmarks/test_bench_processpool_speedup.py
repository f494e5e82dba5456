"""EXTENSION — real wall-clock speedup of the process pool on CPU-bound work.

The paper's premise is that raising the level of parallelism shrinks
wall-clock time.  For CPU-bound *pure-Python* muscles CPython's GIL makes
that impossible on the thread pool; the process pool is the backend that
delivers it for real.  This bench runs the same pure-Python block-matmul
map program on both real backends at LP 1 and LP 4 and records the
measured speedups.

The speedup assertion only fires on hosts with >= 4 CPUs (CI runners);
on smaller containers the numbers are reported, not asserted — a single
core cannot exhibit parallel speedup no matter the backend.
"""

import os
import time
from functools import partial

from repro import Execute, Map, Merge, PlatformSpec, Seq, Split, make_platform, run

N = 96        # matrix dimension: N^3 ≈ 0.9M multiply-adds per product
BLOCKS = 8    # row-slab tasks per execution
ROUNDS = 3    # timed repetitions; best-of is reported


def _make_matrix(n, seed):
    # Deterministic small integers; no numpy — the point is pure-Python,
    # GIL-holding arithmetic.
    return [[(i * 31 + j * 17 + seed) % 13 - 6 for j in range(n)] for i in range(n)]


def _split_rows(ab, blocks):
    a, b = ab
    step = (len(a) + blocks - 1) // blocks
    return [(a[i : i + step], b) for i in range(0, len(a), step)]


def _matmul_slab(slab_b):
    slab, b = slab_b
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in slab]


def _stack(parts):
    rows = []
    for part in parts:
        rows.extend(part)
    return rows


def make_skeleton():
    return Map(
        Split(partial(_split_rows, blocks=BLOCKS), name="fs-rows"),
        Seq(Execute(_matmul_slab, name="fe-pymatmul")),
        Merge(_stack, name="fm-stack"),
    )


def _reference(ab):
    return _matmul_slab(ab)


def _timed(backend, lp, ab, expected):
    with make_platform(PlatformSpec(kind=backend, workers=lp)) as pool:
        # Warm-up excludes worker start-up (fork/thread spawn) from the
        # measurement — the paper's LP knob tunes a *running* pool.
        small = ([row[:8] for row in ab[0][:8]], [row[:8] for row in ab[1][:8]])
        run(make_skeleton(), small, pool)
        best = float("inf")
        for _ in range(ROUNDS):
            start = time.perf_counter()
            result = run(make_skeleton(), ab, pool)
            best = min(best, time.perf_counter() - start)
        assert result == expected, f"{backend}@lp{lp} produced a wrong product"
    return best


def test_processpool_speedup(report):
    ab = (_make_matrix(N, seed=1), _make_matrix(N, seed=2))
    expected = _reference(ab)
    cpus = os.cpu_count() or 1

    times = {
        (backend, lp): _timed(backend, lp, ab, expected)
        for backend in ("threads", "processes")
        for lp in (1, 4)
    }
    proc_speedup = times[("processes", 1)] / times[("processes", 4)]
    if cpus >= 4 and proc_speedup <= 1.5:
        # One noisy sample on a shared CI runner must not fail the tier-1
        # gate: re-measure the process numbers once with more headroom
        # before concluding the backend does not scale.
        retry = {lp: _timed("processes", lp, ab, expected) for lp in (1, 4)}
        times[("processes", 1)] = min(times[("processes", 1)], retry[1])
        times[("processes", 4)] = min(times[("processes", 4)], retry[4])
        proc_speedup = times[("processes", 1)] / times[("processes", 4)]
    thread_speedup = times[("threads", 1)] / times[("threads", 4)]
    vs_threads = times[("threads", 4)] / times[("processes", 4)]

    report("EXTENSION — process-pool speedup on CPU-bound pure-Python matmul")
    report(f"host CPUs: {cpus}; matrix {N}x{N}, {BLOCKS} row slabs, best of {ROUNDS}")
    report()
    for (backend, lp), elapsed in sorted(times.items()):
        report(f"  {backend:>9} lp={lp}: {elapsed * 1e3:8.1f} ms")
    report()
    report(f"  processes lp4 vs lp1 speedup : {proc_speedup:5.2f}x")
    report(f"  threads   lp4 vs lp1 speedup : {thread_speedup:5.2f}x (GIL-bound)")
    report(f"  processes vs threads at lp4  : {vs_threads:5.2f}x")

    if cpus >= 4:
        assert proc_speedup > 1.5, (
            f"expected >1.5x process speedup on a {cpus}-CPU host, "
            f"got {proc_speedup:.2f}x"
        )
    else:
        report()
        report(
            f"  NOTE: {cpus} CPU(s) visible — speedup recorded, not asserted "
            f"(asserted on >=4-CPU hosts)"
        )
