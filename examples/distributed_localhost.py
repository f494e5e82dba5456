#!/usr/bin/env python3
"""Real distributed execution: worker processes over localhost sockets.

This example runs the paper's future-work sketch — a centralised
distribution of tasks to a distributed set of workers — for real: the
master opens a listening socket, worker processes enroll over a JSON
control plane, and chunks of muscle tasks ship over a binary data plane.  Everything above
the platform — skeletons, events, the autonomic machinery — is unchanged:
the workers re-emit their execution events on the in-process bus.

Shown here:
  * building the backend from a typed ``PlatformSpec``
  * per-worker introspection (pids, tasks done, busy seconds)
  * live resizing through the socket control plane (``request_resize``)
  * surviving a worker killed mid-run (the chunk is re-dispatched)

Run:  python examples/distributed_localhost.py
"""

import os
import signal
import threading
import time
from functools import partial

from repro import (
    Execute,
    Map,
    Merge,
    PlatformSpec,
    RemoteSpec,
    Seq,
    Split,
    make_platform,
    request_resize,
    run,
)
from repro.skeletons import sequential_evaluate


def block(v, width):
    return [v + i for i in range(width)]


def slow_square(v):
    time.sleep(0.05)
    return v * v


def make_program(width=12):
    return Map(
        Split(partial(block, width=width), name="split"),
        Seq(Execute(slow_square, name="square")),
        Merge(sum, name="merge"),
    )


def main() -> None:
    spec = PlatformSpec(
        kind="distributed",
        workers=3,
        max_workers=6,
        batching=2,
        remote=RemoteSpec(heartbeat_interval=0.1, heartbeat_timeout=0.8),
    )
    program = make_program()
    expected = sequential_evaluate(make_program(), 5)

    with make_platform(spec) as platform:
        host, port = platform.address
        print(f"master listening on {host}:{port}")
        result = run(program, 5, platform)
        assert result == expected
        print(f"map over 12 items on 3 socket workers: {result}")
        for wid, (done, busy) in sorted(platform.worker_stats().items()):
            print(f"  worker {wid}: {done} tasks, {busy * 1000:.0f} ms busy")

        applied = request_resize(platform.address, 5)
        print(f"resized over the socket control plane: parallelism={applied}")

        # Chaos: kill a busy worker mid-run; the master re-dispatches the
        # lost chunk to a surviving worker (muscles are pure, so the
        # at-least-once retry is semantically invisible).
        results = []
        driver = threading.Thread(
            target=lambda: results.append(run(program, 9, platform))
        )
        driver.start()
        while not platform.busy_worker_pids():
            time.sleep(0.005)
        victim = platform.busy_worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        driver.join(timeout=60)
        assert results == [sequential_evaluate(make_program(), 9)]
        print(
            f"killed worker pid {victim} mid-run: result {results[0]} still "
            f"correct, {platform.lost_workers} loss detected and re-dispatched"
        )

    print("clean shutdown: all workers retired over the control plane")


if __name__ == "__main__":
    main()
