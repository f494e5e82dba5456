#!/usr/bin/env python3
"""Backend matrix: one skeleton program, every execution backend.

The platform registry (`repro.make_platform`) constructs backends from
a typed ``PlatformSpec``, so programs, benchmarks and tests can enumerate
them instead of hard-coding platform classes.  This example runs the same
Map program on every shipped backend — simulated, threads, OS processes
and real socket workers — and checks they agree with the sequential
reference evaluator.

The muscles are module-level functions (plus ``functools.partial``) —
the one extra rule the process backend imposes: everything that crosses
a process boundary must be picklable and pure.

Run:  python examples/backend_matrix.py
"""

from functools import partial

from repro import (
    Execute,
    Map,
    Merge,
    PlatformSpec,
    Seq,
    Split,
    available_backends,
    make_platform,
)
from repro.runtime.registry import DEFAULT_REGISTRY
from repro.skeletons import sequential_evaluate


def block_indices(v, width):
    return [v + i for i in range(width)]


def triple(v):
    return v * 3


def make_program():
    return Map(
        Split(partial(block_indices, width=8), name="fs"),
        Seq(Execute(triple, name="fe")),
        Merge(sum, name="fm"),
    )


def main() -> None:
    value = 42
    expected = sequential_evaluate(make_program(), value)
    descriptions = DEFAULT_REGISTRY.describe()

    print(f"program : {make_program().pretty()}")
    print(f"input   : {value}   reference result: {expected}")
    print()
    for name in available_backends():
        spec = PlatformSpec(kind=name, workers=2, max_workers=4)
        with make_platform(spec) as platform:
            result = make_program().compute(value, platform=platform)
        status = "ok" if result == expected else f"MISMATCH ({result})"
        print(f"  {name:>11}: result={result} [{status}] — {descriptions[name]}")


if __name__ == "__main__":
    main()
