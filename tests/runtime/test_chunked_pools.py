"""The dispatcher the process pool and the socket pool share.

Both backends ship chunks of task envelopes through
:class:`~repro.runtime.poolbase._ChunkedPoolBase`: the same chunk-size
check, the same seniority pairing of idle workers with chunks, and the
same share rule (one task per handoff while per-execution shares are
set).  Each test here runs on both.
"""

import pytest

from repro import DistributedPlatform, PlatformError, ProcessPoolPlatform
from repro.events import Listener, When
from repro.runtime.interpreter import submit
from repro.runtime.task import Execution
from tests.conftest import sleepy_map_program

WORKERS = 4


def processes():
    return ProcessPoolPlatform(parallelism=WORKERS, max_parallelism=WORKERS)


def distributed():
    return DistributedPlatform(
        parallelism=WORKERS,
        max_parallelism=WORKERS,
        heartbeat_interval=0.1,
        heartbeat_timeout=0.6,
    )


@pytest.mark.parametrize("backend", [ProcessPoolPlatform, DistributedPlatform])
def test_chunk_size_zero_is_rejected(backend):
    with pytest.raises(PlatformError, match="chunk_size"):
        backend(parallelism=1, chunk_size=0)


class PeakInFlight(Listener):
    """Peak of the platform's in-flight count per execution.

    Read at every leaf handoff (the BEFORE event a task publishes once
    the dispatcher has popped it), from the same counters the share cap
    is enforced on.
    """

    def __init__(self, platform):
        self.platform = platform
        self.peak = {}

    def accepts(self, event):
        return event.kind == "seq" and event.when is When.BEFORE

    def on_event(self, event):
        eid = event.execution_id
        running = self.platform.running_of(eid)
        self.peak[eid] = max(self.peak.get(eid, 0), running)
        return event.value


@pytest.mark.parametrize("make", [processes, distributed])
def test_an_execution_never_exceeds_its_share(make):
    with make() as platform:
        peaks = PeakInFlight(platform)
        platform.add_listener(peaks)
        capped = Execution(platform.new_future())
        wider = Execution(platform.new_future())
        platform.set_shares({capped.id: 1, wider.id: 3})
        fa = submit(sleepy_map_program(8, 0.02), 1, platform, execution=capped)
        fb = submit(sleepy_map_program(8, 0.02), 2, platform, execution=wider)
        assert fa.get(timeout=30.0) == 8
        assert fb.get(timeout=30.0) == 16
        assert 1 <= peaks.peak[capped.id] <= 1
        assert 1 <= peaks.peak[wider.id] <= 3
        # The capped execution still finished: skipped tasks were kept.
        assert platform.queued_tasks == 0
