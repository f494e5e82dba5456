"""Typed platform construction: :class:`PlatformSpec` and its sub-specs.

A spec is the one way to describe an execution platform:

* :class:`PlatformSpec` — the validated, backend-agnostic request
  (``kind``, ``workers``, ``max_workers``, ``rtt``, ``batching``, shared
  ``bus``/``clock``) plus optional backend-specific sub-specs;
* :class:`SimulatedSpec` / :class:`ProcessSpec` / :class:`RemoteSpec` —
  the per-backend knobs, each validated in one place.

The registry (:mod:`repro.runtime.registry`) registers factories *against
specs*: every factory receives a ``PlatformSpec`` and nothing else, so a
request is fully validated before any worker process or socket exists.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any, Mapping, Optional, Tuple

from ..errors import PlatformError

__all__ = [
    "PlatformSpec",
    "SimulatedSpec",
    "ProcessSpec",
    "RemoteSpec",
]


@dataclass(frozen=True)
class SimulatedSpec:
    """Knobs specific to the simulated (virtual-time) backend."""

    cost_model: Any = None
    trace_tasks: bool = False


@dataclass(frozen=True)
class ProcessSpec:
    """Knobs specific to OS-process workers (local pool or remote)."""

    start_method: Optional[str] = None

    def __post_init__(self):
        if self.start_method is not None and self.start_method not in (
            "fork",
            "spawn",
            "forkserver",
        ):
            raise PlatformError(
                f"unknown multiprocessing start method {self.start_method!r}"
            )


@dataclass(frozen=True)
class RemoteSpec:
    """Knobs specific to the socket-distributed backend.

    ``spawn_workers=False`` runs the master in *enrollment-only* mode: it
    spawns nothing and waits for external worker processes to ENROLL over
    its listening socket (the managing-system/managed-system split).
    ``worker_delays`` injects an artificial per-task slowdown into the
    n-th enrolled worker — a test/bench heterogeneity knob applied on the
    *worker* side; the master and planner never see it, which is exactly
    what forces the estimators to learn per-worker speeds from spans.
    """

    heartbeat_interval: float = 0.2
    heartbeat_timeout: float = 1.0
    spawn_workers: bool = True
    host: str = "127.0.0.1"
    port: int = 0
    enroll_timeout: float = 10.0
    worker_delays: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.heartbeat_interval <= 0:
            raise PlatformError("heartbeat_interval must be positive")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise PlatformError(
                "heartbeat_timeout must exceed heartbeat_interval "
                f"({self.heartbeat_timeout} <= {self.heartbeat_interval})"
            )
        if self.enroll_timeout <= 0:
            raise PlatformError("enroll_timeout must be positive")
        if any(d < 0 for d in self.worker_delays):
            raise PlatformError("worker delays must be non-negative")
        object.__setattr__(self, "worker_delays", tuple(self.worker_delays))


@dataclass(frozen=True)
class PlatformSpec:
    """A validated request for one execution platform.

    Parameters
    ----------
    kind:
        Backend name (or alias) as registered in the platform registry:
        ``"simulated"``, ``"threads"``, ``"processes"``,
        ``"distributed"``, ...
    workers:
        Initial worker count (the paper's level of parallelism).
    max_workers:
        Upper bound the autonomic layer may never exceed.
    rtt:
        Round-trip communication latency per network message, in seconds.
        Only meaningful for the distributed kind (split evenly into
        dispatch and collect halves); other kinds reject a non-zero value.
    batching:
        Maximum tasks shipped per worker handoff (IPC chunk / socket
        frame).  Only meaningful for the process-based and distributed
        kinds; ``None`` means the backend default.
    bus / clock:
        Shared event bus and clock, as on every platform constructor.
    simulated / processes / remote:
        Backend-specific sub-specs; each backend factory validates that
        only its own sub-spec is populated.
    extra:
        Free-form options for third-party backends registered by
        applications; built-in backends reject non-empty extras.
    """

    kind: str
    workers: int = 1
    max_workers: Optional[int] = None
    rtt: float = 0.0
    batching: Optional[int] = None
    bus: Any = None
    clock: Any = None
    simulated: Optional[SimulatedSpec] = None
    processes: Optional[ProcessSpec] = None
    remote: Optional[RemoteSpec] = None
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str) or not self.kind:
            raise PlatformError(f"spec kind must be a non-empty string, got {self.kind!r}")
        if int(self.workers) < 1:
            raise PlatformError(f"workers must be >= 1, got {self.workers}")
        object.__setattr__(self, "workers", int(self.workers))
        if self.max_workers is not None:
            if int(self.max_workers) < self.workers:
                raise PlatformError(
                    f"max_workers {self.max_workers} below workers {self.workers}"
                )
            object.__setattr__(self, "max_workers", int(self.max_workers))
        if self.rtt < 0:
            raise PlatformError(f"rtt must be non-negative, got {self.rtt}")
        if self.batching is not None and int(self.batching) < 1:
            raise PlatformError(f"batching must be >= 1, got {self.batching}")
        for name, cls in (
            ("simulated", SimulatedSpec),
            ("processes", ProcessSpec),
            ("remote", RemoteSpec),
        ):
            value = getattr(self, name)
            if value is not None and not isinstance(value, cls):
                raise PlatformError(
                    f"spec field {name!r} must be a {cls.__name__}, "
                    f"got {type(value).__name__}"
                )

    def with_overrides(self, **changes: Any) -> "PlatformSpec":
        """A copy of this spec with *changes* applied (validated again)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human summary (non-default fields only)."""
        parts = [f"kind={self.kind!r}"]
        for f in fields(self):
            if f.name in ("kind", "bus", "clock"):
                continue
            value = getattr(self, f.name)
            if f.default is not MISSING:
                default = f.default
            elif f.default_factory is not MISSING:
                default = f.default_factory()
            else:  # pragma: no cover - every field has a default
                default = None
            if value != default:
                parts.append(f"{f.name}={value!r}")
        return f"PlatformSpec({', '.join(parts)})"
