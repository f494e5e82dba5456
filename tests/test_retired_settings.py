"""Settings the autonomic layer no longer has stay gone.

Each keyword below once switched a behaviour off or throttled the loop,
and no workload ever set it to anything but its default: the load gate
and the backfill reservation are always on, ticks rebalance under the
time throttle alone, and every analysis point analyzes the execution's
unfinished roots.  Passing one — even at its old default — is a
``TypeError``, so a caller still relying on a removed switch fails
loudly instead of silently getting the one remaining path.
"""

import pytest

from repro.core.analysis import ExecutionAnalyzer
from repro.core.controller import AutonomicController
from repro.core.qos import QoS
from repro.obs import BusInstrument, MetricsRegistry
from repro.service import LPArbiter, SkeletonService
from repro.service.admission import AdmissionController

#: (owner, keyword, old default, call that passes it)
RETIRED = [
    ("SkeletonService", "backfill_reservation", True,
     lambda kw: SkeletonService(backend="simulated", capacity=2, **kw)),
    ("SkeletonService", "load_aware_admission", True,
     lambda kw: SkeletonService(backend="simulated", capacity=2, **kw)),
    ("SkeletonService", "min_rebalance_events", 1,
     lambda kw: SkeletonService(backend="simulated", capacity=2, **kw)),
    ("AdmissionController", "load_aware", True,
     lambda kw: AdmissionController(capacity=2, **kw)),
    ("LPArbiter", "min_events", 1,
     lambda kw: LPArbiter(None, capacity=2, **kw)),
    ("AutonomicController", "min_analysis_interval", 0.0,
     lambda kw: AutonomicController(None, qos=QoS.wall_clock(1.0), **kw)),
    ("BusInstrument", "span_batches", True,
     lambda kw: BusInstrument(MetricsRegistry(), **kw)),
    ("ExecutionAnalyzer.analyze", "roots", None,
     lambda kw: ExecutionAnalyzer().analyze(0.0, **kw)),
]


@pytest.mark.parametrize(
    "owner, keyword, default, call",
    RETIRED,
    ids=[f"{owner}-{keyword}" for owner, keyword, _d, _c in RETIRED],
)
def test_retired_keyword_is_refused(owner, keyword, default, call):
    with pytest.raises(TypeError, match=keyword):
        call({keyword: default})
