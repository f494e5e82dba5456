"""Execution runtime: interpreter, platforms, clocks, cost models, metrics.

The runtime executes skeleton programs on three interchangeable platforms
— :class:`ThreadPoolPlatform` (real OS threads, resizable live),
:class:`ProcessPoolPlatform` (real OS processes, true parallelism for
CPU-bound picklable muscles) and :class:`SimulatedPlatform`
(deterministic discrete-event multicore simulation with virtual time) —
through a single continuation-passing interpreter that emits the paper's
events at every muscle boundary.  :class:`DistributedPlatform` (real
worker processes over localhost sockets) completes the matrix.
:func:`make_platform` constructs any of the four from a typed
:class:`PlatformSpec`.
"""

from .clock import Clock, RealClock, VirtualClock
from .costmodel import (
    CallableCostModel,
    ConstantCostModel,
    CostModel,
    PerItemCostModel,
    TableCostModel,
    ZeroCostModel,
)
from .futures import SkeletonFuture
from .interpreter import run, submit
from .metrics import LPSample, LPSeries
from .platform import Platform
from .processpool import ProcessPoolPlatform
from .registry import (
    DEFAULT_REGISTRY,
    PlatformRegistry,
    available_backends,
    make_platform,
)
from .remote import DistributedPlatform, request_resize, start_worker
from .simulator import SimulatedPlatform
from .spec import PlatformSpec, ProcessSpec, RemoteSpec, SimulatedSpec
from .task import Barrier, ConditionBody, Execution, MuscleTask, TaskEnvelope
from .threadpool import ThreadPoolPlatform

__all__ = [
    "Clock",
    "RealClock",
    "VirtualClock",
    "CostModel",
    "ZeroCostModel",
    "ConstantCostModel",
    "TableCostModel",
    "CallableCostModel",
    "PerItemCostModel",
    "SkeletonFuture",
    "run",
    "submit",
    "LPSample",
    "LPSeries",
    "Platform",
    "SimulatedPlatform",
    "DistributedPlatform",
    "ThreadPoolPlatform",
    "ProcessPoolPlatform",
    "PlatformRegistry",
    "DEFAULT_REGISTRY",
    "PlatformSpec",
    "SimulatedSpec",
    "ProcessSpec",
    "RemoteSpec",
    "make_platform",
    "available_backends",
    "request_resize",
    "start_worker",
    "MuscleTask",
    "Barrier",
    "Execution",
    "ConditionBody",
    "TaskEnvelope",
]
