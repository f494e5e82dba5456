"""Tests for PlatformSpec validation: the one way to describe a platform."""

import dataclasses

import pytest

from repro import (
    PlatformError,
    PlatformSpec,
    ProcessPoolPlatform,
    ProcessSpec,
    RemoteSpec,
    SimulatedPlatform,
    SimulatedSpec,
    make_platform,
)
from repro.events.bus import EventBus
from repro.runtime.clock import RealClock
from repro.runtime.costmodel import ConstantCostModel
from repro.runtime.remote.platform import DistributedPlatform


class TestSpecValidation:
    def test_defaults(self):
        spec = PlatformSpec(kind="threads")
        assert spec.workers == 1
        assert spec.max_workers is None
        assert spec.rtt == 0.0
        assert spec.batching is None

    def test_workers_must_be_positive(self):
        with pytest.raises(PlatformError, match="workers must be >= 1"):
            PlatformSpec(kind="threads", workers=0)

    def test_max_workers_must_cover_workers(self):
        with pytest.raises(PlatformError, match="below workers"):
            PlatformSpec(kind="threads", workers=4, max_workers=2)

    def test_rtt_non_negative(self):
        with pytest.raises(PlatformError, match="rtt"):
            PlatformSpec(kind="distributed", rtt=-0.1)

    def test_batching_positive(self):
        with pytest.raises(PlatformError, match="batching"):
            PlatformSpec(kind="processes", batching=0)

    def test_kind_required(self):
        with pytest.raises(PlatformError, match="kind"):
            PlatformSpec(kind="")

    def test_subspec_types_enforced(self):
        with pytest.raises(PlatformError, match="RemoteSpec"):
            PlatformSpec(kind="distributed", remote={"heartbeat_interval": 1})

    def test_remote_spec_heartbeat_ordering(self):
        with pytest.raises(PlatformError, match="heartbeat_timeout"):
            RemoteSpec(heartbeat_interval=1.0, heartbeat_timeout=0.5)

    def test_process_spec_start_method(self):
        with pytest.raises(PlatformError, match="start method"):
            ProcessSpec(start_method="teleport")

    def test_with_overrides_revalidates(self):
        spec = PlatformSpec(kind="threads", workers=2)
        assert spec.with_overrides(workers=5).workers == 5
        with pytest.raises(PlatformError):
            spec.with_overrides(workers=0)

    def test_describe_mentions_non_defaults_only(self):
        text = PlatformSpec(kind="distributed", workers=4, rtt=0.05).describe()
        assert "kind='distributed'" in text
        assert "workers=4" in text and "rtt=0.05" in text
        assert "batching" not in text

    def test_simulated_spec_has_no_worker_speeds(self):
        # Heterogeneous speeds belonged to the virtual cluster; the real
        # distributed backend injects them worker-side (RemoteSpec).
        with pytest.raises(TypeError, match="worker_speeds"):
            SimulatedSpec(worker_speeds=(1.0, 0.5))


#: The keyword vocabulary ``make_platform(name, **kwargs)`` once accepted,
#: mapped to where each knob lives now: a ``PlatformSpec`` field, a
#: ``(sub-spec field, sub-spec class, field)`` triple, or ``None`` when
#: the knob is gone (with its backend, or, like ``scheduling``, with the
#: one policy it switched to).
LEGACY_KEYWORDS = {
    "parallelism": "workers",
    "workers": "workers",
    "max_parallelism": "max_workers",
    "max_workers": "max_workers",
    "chunk_size": "batching",
    "batching": "batching",
    "rtt": "rtt",
    "dispatch_latency": "rtt",
    "collect_latency": "rtt",
    "bus": "bus",
    "clock": "clock",
    "cost_model": ("simulated", SimulatedSpec, "cost_model"),
    "trace_tasks": ("simulated", SimulatedSpec, "trace_tasks"),
    "scheduling": None,
    "worker_speeds": None,
    "start_method": ("processes", ProcessSpec, "start_method"),
    "heartbeat_interval": ("remote", RemoteSpec, "heartbeat_interval"),
    "heartbeat_timeout": ("remote", RemoteSpec, "heartbeat_timeout"),
    "spawn_workers": ("remote", RemoteSpec, "spawn_workers"),
    "host": ("remote", RemoteSpec, "host"),
    "port": ("remote", RemoteSpec, "port"),
    "enroll_timeout": ("remote", RemoteSpec, "enroll_timeout"),
    "worker_delays": ("remote", RemoteSpec, "worker_delays"),
}


def _field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


class TestLegacyKeywordVocabulary:
    """Every keyword the old form took is refused; its knob is on the spec."""

    def test_vocabulary_is_complete(self):
        assert len(LEGACY_KEYWORDS) == 23

    @pytest.mark.parametrize("keyword", sorted(LEGACY_KEYWORDS))
    def test_keyword_refused_and_knob_on_the_spec(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            make_platform("simulated", **{keyword: 1})
        home = LEGACY_KEYWORDS[keyword]
        spec_fields = _field_names(PlatformSpec)
        if home is None:
            every = spec_fields.union(
                *(_field_names(c) for c in (SimulatedSpec, ProcessSpec, RemoteSpec))
            )
            assert keyword not in every
        elif isinstance(home, str):
            assert home in spec_fields
        else:
            slot, cls, name = home
            assert slot in spec_fields
            assert name in _field_names(cls)


class TestSpecKnobsReachThePlatform:
    """The registry's factories are the one conversion left: every spec
    field lands on the constructed backend."""

    def test_simulated_subspec(self):
        model = ConstantCostModel(2.0)
        spec = PlatformSpec(
            kind="simulated",
            workers=2,
            max_workers=6,
            simulated=SimulatedSpec(cost_model=model, trace_tasks=True),
        )
        with make_platform(spec) as platform:
            assert isinstance(platform, SimulatedPlatform)
            assert (platform.get_parallelism(), platform.max_parallelism) == (2, 6)
            assert platform.cost_model is model
            assert platform.task_log == []

    def test_simulated_defaults(self):
        with make_platform("simulated") as platform:
            assert platform.task_log is None

    def test_shared_bus_and_clock_reach_a_thread_pool(self):
        bus, clock = EventBus(), RealClock()
        spec = PlatformSpec(kind="threads", bus=bus, clock=clock)
        with make_platform(spec) as platform:
            assert platform.bus is bus
            assert platform.clock is clock

    def test_process_knobs(self):
        spec = PlatformSpec(
            kind="processes",
            max_workers=3,
            batching=4,
            processes=ProcessSpec(start_method="fork"),
        )
        with make_platform(spec) as platform:
            assert isinstance(platform, ProcessPoolPlatform)
            assert platform.max_parallelism == 3
            assert platform._chunk_size == 4
            assert platform._ctx.get_start_method() == "fork"

    def test_remote_knobs_and_rtt(self):
        spec = PlatformSpec(
            kind="distributed",
            workers=2,
            max_workers=5,
            rtt=0.04,
            batching=3,
            remote=RemoteSpec(
                heartbeat_interval=0.1,
                heartbeat_timeout=0.7,
                spawn_workers=False,
                enroll_timeout=3.0,
                worker_delays=(0.0, 0.5),
            ),
        )
        with make_platform(spec) as platform:
            assert isinstance(platform, DistributedPlatform)
            assert platform.max_parallelism == 5
            assert platform._chunk_size == 3
            # rtt splits evenly into the dispatch and collect hops.
            assert platform._dispatch_delay == pytest.approx(0.02)
            assert platform._collect_delay == pytest.approx(0.02)
            assert (platform._hb_interval, platform._hb_timeout) == (0.1, 0.7)
            assert platform._enroll_timeout == 3.0
            assert platform._worker_delays == (0.0, 0.5)
            assert platform._spawn_workers is False
            assert platform.address[0] == "127.0.0.1"


class TestDeprecationShim:
    """The typed construction paths emit no deprecation warning."""

    def test_typed_call_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            platform = make_platform(PlatformSpec(kind="threads", workers=2))
        platform.shutdown()

    def test_service_builds_spec_path_without_warning(self):
        import warnings

        from repro import SkeletonService

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            service = SkeletonService(backend="threads", capacity=2)
        service.shutdown()

    def test_service_accepts_platform_spec(self):
        from repro import SkeletonService

        service = SkeletonService(
            backend=PlatformSpec(kind="threads"), capacity=3
        )
        try:
            assert service.capacity == 3
            assert service.platform.max_parallelism == 3
        finally:
            service.shutdown()

    def test_service_backend_name_is_the_all_defaults_spec(self):
        from repro import SkeletonService

        service = SkeletonService(backend="sim", capacity=4)
        try:
            assert isinstance(service.platform, SimulatedPlatform)
            assert service.platform.get_parallelism() == 1
            assert service.platform.max_parallelism == 4
        finally:
            service.shutdown()

    def test_service_takes_no_platform_keywords(self):
        from repro import SkeletonService

        with pytest.raises(TypeError, match="chunk_size"):
            SkeletonService(backend="processes", capacity=2, chunk_size=4)
