"""repro — autonomic algorithmic skeletons using events.

A from-scratch Python reproduction of *Pabon & Henrio, "Self-Configuration
and Self-Optimization Autonomic Skeletons using Events"* (PMAM/PPoPP 2014):
a Skandium-style nestable skeleton library, the event-driven
separation-of-concerns layer it builds on, and the paper's autonomic layer
that guarantees a wall-clock-time goal by retuning the number of threads
*while a skeleton executes*.

Quickstart::

    from repro import Map, Seq, SimulatedPlatform, AutonomicController, WCTGoal

    skel = Map(split_fn, Seq(work_fn), merge_fn)
    platform = SimulatedPlatform(parallelism=1, cost_model=my_costs,
                                 max_parallelism=24)
    controller = AutonomicController(platform, skel, qos=QoS(wct=WCTGoal(9.5)))
    result = skel.compute(data, platform=platform)

See ``examples/quickstart.py`` for a complete runnable program.

This module is the **stable front door**: everything in ``__all__`` here
is the supported public API.  Submodules whose docstrings say "internal"
(wire protocols, pool plumbing, worker entry points) may change without
notice — import from ``repro`` directly.
"""

from .errors import (
    ADGError,
    AdmissionError,
    EstimateNotReadyError,
    ExecutionCancelledError,
    ExecutionError,
    MuscleExecutionError,
    MuscleTypeError,
    PlatformError,
    QoSError,
    RemoteProtocolError,
    ReproError,
    SchedulingError,
    ServiceError,
    SkeletonDefinitionError,
    StateMachineError,
    WorkerLostError,
    WorkloadError,
)
from .events import (
    CountingListener,
    Event,
    EventBus,
    EventRecorder,
    ExecutionScopedListener,
    GenericListener,
    LatchListener,
    Listener,
    LoggingListener,
    When,
    Where,
    split_by_execution,
)
from .runtime import (
    CallableCostModel,
    ConstantCostModel,
    CostModel,
    DistributedPlatform,
    PerItemCostModel,
    Platform,
    PlatformRegistry,
    PlatformSpec,
    ProcessPoolPlatform,
    ProcessSpec,
    RealClock,
    RemoteSpec,
    SimulatedPlatform,
    SimulatedSpec,
    SkeletonFuture,
    TableCostModel,
    ThreadPoolPlatform,
    VirtualClock,
    ZeroCostModel,
    available_backends,
    make_platform,
    request_resize,
    run,
    start_worker,
    submit,
)
from .skeletons import (
    Condition,
    DivideAndConquer,
    Execute,
    Farm,
    For,
    Fork,
    If,
    Map,
    Merge,
    Muscle,
    Pipe,
    Seq,
    Skeleton,
    Split,
    While,
    sequential_evaluate,
)
from .version import __version__

from .core import (
    ADG,
    Activity,
    AnalysisReport,
    AutonomicController,
    EstimatorRegistry,
    ExecutionAnalyzer,
    HistoryEstimator,
    Priority,
    QoS,
    WCTGoal,
    best_effort_schedule,
    limited_lp_schedule,
    minimal_lp_greedy,
    optimal_lp,
)
from .service import (
    AdmissionController,
    ExecutionHandle,
    ExecutionStatus,
    LPArbiter,
    ServiceStats,
    SkeletonService,
    TenantQuota,
)
from .obs import (
    FlightRecorder,
    MetricsRegistry,
    Observability,
    Tracer,
)

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SkeletonDefinitionError",
    "MuscleTypeError",
    "ExecutionError",
    "MuscleExecutionError",
    "PlatformError",
    "RemoteProtocolError",
    "WorkerLostError",
    "SchedulingError",
    "ADGError",
    "EstimateNotReadyError",
    "QoSError",
    "StateMachineError",
    "WorkloadError",
    "ServiceError",
    "AdmissionError",
    "ExecutionCancelledError",
    # events
    "Event",
    "EventBus",
    "EventRecorder",
    "Listener",
    "GenericListener",
    "LoggingListener",
    "CountingListener",
    "LatchListener",
    "When",
    "Where",
    "ExecutionScopedListener",
    "split_by_execution",
    # skeletons
    "Skeleton",
    "Seq",
    "Farm",
    "Pipe",
    "While",
    "For",
    "If",
    "Map",
    "Fork",
    "DivideAndConquer",
    "Muscle",
    "Execute",
    "Split",
    "Merge",
    "Condition",
    "sequential_evaluate",
    # runtime
    "Platform",
    "SimulatedPlatform",
    "DistributedPlatform",
    "ThreadPoolPlatform",
    "ProcessPoolPlatform",
    "PlatformRegistry",
    "PlatformSpec",
    "SimulatedSpec",
    "ProcessSpec",
    "RemoteSpec",
    "make_platform",
    "available_backends",
    "request_resize",
    "start_worker",
    "SkeletonFuture",
    "run",
    "submit",
    "RealClock",
    "VirtualClock",
    "CostModel",
    "ZeroCostModel",
    "ConstantCostModel",
    "TableCostModel",
    "CallableCostModel",
    "PerItemCostModel",
    # autonomic core
    "ADG",
    "Activity",
    "AnalysisReport",
    "AutonomicController",
    "EstimatorRegistry",
    "ExecutionAnalyzer",
    "HistoryEstimator",
    "Priority",
    "QoS",
    "WCTGoal",
    "best_effort_schedule",
    "limited_lp_schedule",
    "minimal_lp_greedy",
    "optimal_lp",
    # multi-tenant service
    "SkeletonService",
    "ExecutionHandle",
    "ExecutionStatus",
    "AdmissionController",
    "LPArbiter",
    "ServiceStats",
    "TenantQuota",
    # observability
    "Observability",
    "MetricsRegistry",
    "Tracer",
    "FlightRecorder",
]
