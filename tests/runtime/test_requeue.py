"""A lost socket worker's tasks are queued work again, and counted as such.

The socket platform puts a lost worker's in-flight chunk back at the
front of the one ready queue, with the encoded envelopes as payloads, so
``queued_tasks`` (the length of that queue on every backend) counts them.
With no worker left to take them, they stay queued.
"""

import os
import signal
import time
from functools import partial

from repro import (
    EventRecorder,
    Execute,
    Map,
    Merge,
    PlatformSpec,
    RemoteSpec,
    Seq,
    Split,
    make_platform,
    start_worker,
)
from repro.events.types import When
from repro.runtime.interpreter import submit
from tests.conftest import px_iota, px_sleep_echo, px_sum_mod


def _wait(condition, what, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.005)


def test_a_lost_workers_chunk_counts_as_queued():
    width = 3
    program = Map(
        Split(partial(px_iota, width=width), name="qsplit"),
        Seq(Execute(partial(px_sleep_echo, duration=5.0), name="qleaf")),
        Merge(px_sum_mod, name="qsum"),
    )
    spec = PlatformSpec(
        kind="distributed",
        workers=1,
        batching=width,
        remote=RemoteSpec(
            heartbeat_interval=0.1, heartbeat_timeout=0.6, spawn_workers=False
        ),
    )
    with make_platform(spec) as platform:
        recorder = EventRecorder()
        platform.add_listener(recorder)
        worker = start_worker(platform.address)
        try:
            _wait(lambda: platform.live_workers == 1, "the worker never enrolled")
            submit(program, 1, platform)
            # The three leaves ship as one chunk: BEFORE is published at
            # handoff.
            _wait(
                lambda: sum(
                    e.when is When.BEFORE and e.kind == "seq"
                    for e in list(recorder.events)
                )
                == width,
                "the leaves were never handed off",
            )
            assert platform.queued_tasks == 0
            os.kill(worker.pid, signal.SIGKILL)
            _wait(lambda: platform.lost_workers == 1, "the loss went unnoticed")
            _wait(
                lambda: platform.queued_tasks == width,
                "the lost chunk's tasks never counted as queued",
            )
            assert platform.live_workers == 0
        finally:
            if worker.is_alive():
                worker.terminate()
            worker.join(timeout=5)
