"""Platform registry: construct execution backends from typed specs.

The front door is :func:`make_platform` with a
:class:`~repro.runtime.spec.PlatformSpec`::

    from repro import PlatformSpec, make_platform

    with make_platform(PlatformSpec(kind="distributed", workers=4,
                                    rtt=0.05, batching=8)) as platform:
        result = skeleton.compute(data, platform=platform)

Factories are registered *against specs*: every factory receives one
validated ``PlatformSpec`` and nothing else, and each rejects the spec
fields that do not apply to its backend (``rtt`` on a thread pool,
``batching`` on a simulator, a ``remote`` sub-spec anywhere but the
socket-distributed backend) — a misdirected knob fails loudly instead of
being silently ignored.

A spec is the only way to describe a platform.  A bare name —
``make_platform("threads")`` — is shorthand for the all-defaults spec of
that kind; keyword arguments are a :class:`TypeError`.

Backends shipped with the library:

=========== ======================================================= ==================
kind        class                                                   aliases
=========== ======================================================= ==================
simulated   :class:`~repro.runtime.simulator.SimulatedPlatform`     sim
threads     :class:`~repro.runtime.threadpool.ThreadPoolPlatform`   threadpool, thread
processes   :class:`~repro.runtime.processpool.ProcessPoolPlatform` processpool, procs
distributed :class:`~repro.runtime.remote.platform.                 remote, sockets
            DistributedPlatform`
=========== ======================================================= ==================
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Union

from ..errors import PlatformError
from .platform import Platform
from .processpool import ProcessPoolPlatform
from .remote.platform import DistributedPlatform
from .simulator import SimulatedPlatform
from .spec import PlatformSpec, ProcessSpec, RemoteSpec, SimulatedSpec
from .threadpool import ThreadPoolPlatform

__all__ = [
    "PlatformRegistry",
    "DEFAULT_REGISTRY",
    "make_platform",
    "available_backends",
]


class PlatformRegistry:
    """Kind → spec-factory mapping with alias support."""

    def __init__(self):
        self._factories: Dict[str, Callable[[PlatformSpec], Platform]] = {}
        self._canonical: Dict[str, str] = {}  # any accepted name -> canonical
        self._descriptions: Dict[str, str] = {}

    def register(
        self,
        kind: str,
        factory: Callable[[PlatformSpec], Platform],
        *,
        aliases: Iterable[str] = (),
        description: str = "",
    ) -> None:
        """Register *factory* under *kind* (and optional aliases).

        The factory receives exactly one argument: the fully validated
        :class:`PlatformSpec` (with ``spec.kind`` already resolved to the
        canonical name).  Applications can register third-party backends
        here; free-form options reach such factories via ``spec.extra``.
        """
        kind = kind.lower()
        if kind in self._canonical:
            raise PlatformError(f"backend {kind!r} is already registered")
        self._factories[kind] = factory
        self._descriptions[kind] = description
        self._canonical[kind] = kind
        for alias in aliases:
            alias = alias.lower()
            if alias in self._canonical:
                raise PlatformError(f"backend alias {alias!r} is already registered")
            self._canonical[alias] = kind

    def resolve(self, kind: str) -> str:
        """Canonical name for *kind* (or alias); raises on unknown."""
        canonical = self._canonical.get(str(kind).lower())
        if canonical is None:
            raise PlatformError(
                f"unknown execution backend {kind!r}; available: "
                f"{', '.join(self.names())}"
            )
        return canonical

    def build(self, spec: PlatformSpec) -> Platform:
        """Instantiate the backend the (typed, validated) *spec* requests."""
        canonical = self.resolve(spec.kind)
        if spec.kind != canonical:
            spec = spec.with_overrides(kind=canonical)
        return self._factories[canonical](spec)

    def names(self) -> List[str]:
        """Sorted canonical backend names."""
        return sorted(self._factories)

    def describe(self) -> Dict[str, str]:
        """Canonical name → one-line description."""
        return dict(self._descriptions)

    def __contains__(self, name: object) -> bool:
        return str(name).lower() in self._canonical


# -- spec hygiene shared by the built-in factories ------------------------------


def _reject_unused(spec: PlatformSpec, *allowed: str) -> None:
    """Fail when *spec* populates a field this backend cannot honour."""
    checks = {
        "rtt": spec.rtt != 0.0,
        "batching": spec.batching is not None,
        "clock": spec.clock is not None,
        "simulated": spec.simulated is not None,
        "processes": spec.processes is not None,
        "remote": spec.remote is not None,
    }
    for name, populated in checks.items():
        if populated and name not in allowed:
            raise PlatformError(
                f"backend {spec.kind!r} does not accept spec field {name!r}"
            )
    if spec.extra:
        raise PlatformError(
            f"backend {spec.kind!r} does not accept extra options: "
            f"{sorted(spec.extra)}"
        )


def _build_simulated(spec: PlatformSpec) -> Platform:
    _reject_unused(spec, "simulated")
    sub = spec.simulated or SimulatedSpec()
    return SimulatedPlatform(
        parallelism=spec.workers,
        cost_model=sub.cost_model,
        max_parallelism=spec.max_workers,
        bus=spec.bus,
        trace_tasks=sub.trace_tasks,
    )


def _build_threads(spec: PlatformSpec) -> Platform:
    _reject_unused(spec, "clock")
    return ThreadPoolPlatform(
        parallelism=spec.workers,
        max_parallelism=spec.max_workers,
        bus=spec.bus,
        clock=spec.clock,
    )


def _build_processes(spec: PlatformSpec) -> Platform:
    _reject_unused(spec, "batching", "clock", "processes")
    sub = spec.processes or ProcessSpec()
    return ProcessPoolPlatform(
        parallelism=spec.workers,
        max_parallelism=spec.max_workers,
        bus=spec.bus,
        clock=spec.clock,
        chunk_size=spec.batching if spec.batching is not None else 8,
        start_method=sub.start_method,
    )


def _build_distributed(spec: PlatformSpec) -> Platform:
    _reject_unused(spec, "rtt", "batching", "clock", "processes", "remote")
    remote = spec.remote or RemoteSpec()
    processes = spec.processes or ProcessSpec()
    return DistributedPlatform(
        parallelism=spec.workers,
        max_parallelism=spec.max_workers,
        bus=spec.bus,
        clock=spec.clock,
        chunk_size=spec.batching if spec.batching is not None else 8,
        rtt=spec.rtt,
        heartbeat_interval=remote.heartbeat_interval,
        heartbeat_timeout=remote.heartbeat_timeout,
        spawn_workers=remote.spawn_workers,
        host=remote.host,
        port=remote.port,
        enroll_timeout=remote.enroll_timeout,
        worker_delays=remote.worker_delays,
        start_method=processes.start_method,
    )


#: The registry behind :func:`make_platform`; extendable by applications.
DEFAULT_REGISTRY = PlatformRegistry()
DEFAULT_REGISTRY.register(
    "simulated",
    _build_simulated,
    aliases=("sim",),
    description="deterministic discrete-event multicore simulation (virtual time)",
)
DEFAULT_REGISTRY.register(
    "threads",
    _build_threads,
    aliases=("threadpool", "thread"),
    description="resizable OS-thread pool (best for GIL-releasing or I/O muscles)",
)
DEFAULT_REGISTRY.register(
    "processes",
    _build_processes,
    aliases=("processpool", "procs"),
    description="resizable OS-process pool (true parallelism for picklable muscles)",
)
DEFAULT_REGISTRY.register(
    "distributed",
    _build_distributed,
    aliases=("remote", "sockets"),
    description="real worker processes over localhost sockets "
    "(enroll/heartbeat/retire control plane, batched data plane)",
)


def make_platform(spec: Union[PlatformSpec, str], **kwargs: Any) -> Platform:
    """Construct an execution platform from a spec::

        make_platform(PlatformSpec(kind="processes", workers=4, batching=8))

    A bare backend name — ``make_platform("threads")`` — is shorthand for
    an all-defaults spec of that kind.  Keyword arguments are rejected:
    every knob lives on the spec.
    """
    if kwargs:
        raise TypeError(
            f"make_platform() takes a PlatformSpec, not keyword arguments "
            f"({', '.join(sorted(kwargs))}); put them on the spec, e.g. "
            f"PlatformSpec(kind=..., workers=...) or spec.with_overrides(...)"
        )
    if not isinstance(spec, PlatformSpec):
        spec = PlatformSpec(kind=spec)
    return DEFAULT_REGISTRY.build(spec)


def available_backends() -> List[str]:
    """Canonical names of all registered backends."""
    return DEFAULT_REGISTRY.names()
