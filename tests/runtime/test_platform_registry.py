"""Tests for the platform registry and make_platform (spec-based API)."""

import pytest

from repro import (
    PlatformError,
    PlatformRegistry,
    PlatformSpec,
    ProcessPoolPlatform,
    SimulatedPlatform,
    ThreadPoolPlatform,
    available_backends,
    make_platform,
)
from repro.runtime.registry import DEFAULT_REGISTRY


def _sim_factory(spec):
    return SimulatedPlatform(
        parallelism=spec.workers, max_parallelism=spec.max_workers
    )


class TestDefaultRegistry:
    def test_all_builtin_backends_registered(self):
        assert {
            "simulated",
            "threads",
            "processes",
            "distributed",
        } <= set(available_backends())

    @pytest.mark.parametrize(
        "kind, cls",
        [
            ("simulated", SimulatedPlatform),
            ("threads", ThreadPoolPlatform),
            ("processes", ProcessPoolPlatform),
        ],
    )
    def test_build_constructs_the_right_class(self, kind, cls):
        platform = make_platform(PlatformSpec(kind=kind))
        try:
            assert isinstance(platform, cls)
            assert platform.get_parallelism() == 1
        finally:
            platform.shutdown()

    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("sim", "simulated"),
            ("threadpool", "threads"),
            ("Thread", "threads"),
            ("PROCESSPOOL", "processes"),
            ("procs", "processes"),
            ("remote", "distributed"),
            ("sockets", "distributed"),
        ],
    )
    def test_aliases_and_case_insensitivity(self, alias, canonical):
        assert DEFAULT_REGISTRY.resolve(alias) == canonical

    def test_spec_fields_reach_the_constructor(self):
        spec = PlatformSpec(kind="threads", workers=2, max_workers=5)
        with make_platform(spec) as platform:
            assert platform.get_parallelism() == 2
            assert platform.max_parallelism == 5

    def test_bare_name_is_an_all_defaults_spec_without_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            platform = make_platform("threads")
        try:
            assert isinstance(platform, ThreadPoolPlatform)
        finally:
            platform.shutdown()

    def test_unknown_backend_lists_available_names(self):
        with pytest.raises(PlatformError, match="processes.*simulated.*threads"):
            make_platform("gpu")

    def test_spec_with_kwargs_rejected(self):
        with pytest.raises(TypeError, match="with_overrides"):
            make_platform(PlatformSpec(kind="threads"), parallelism=3)


class TestSpecFieldRejection:
    """Backends fail loudly on spec fields they cannot honour."""

    def test_threads_reject_rtt(self):
        with pytest.raises(PlatformError, match="does not accept spec field 'rtt'"):
            make_platform(PlatformSpec(kind="threads", rtt=0.1))

    def test_simulated_rejects_batching(self):
        with pytest.raises(PlatformError, match="'batching'"):
            make_platform(PlatformSpec(kind="simulated", batching=4))

    def test_processes_reject_remote_subspec(self):
        from repro import RemoteSpec

        with pytest.raises(PlatformError, match="'remote'"):
            make_platform(PlatformSpec(kind="processes", remote=RemoteSpec()))

    def test_builtin_backends_reject_extras(self):
        with pytest.raises(PlatformError, match="extra options"):
            make_platform(PlatformSpec(kind="threads", extra={"gpu": True}))


class TestErrorPaths:
    def test_unknown_backend_raises_platform_error(self):
        with pytest.raises(PlatformError, match="unknown execution backend"):
            make_platform("quantum")

    def test_unknown_backend_on_custom_registry(self):
        registry = PlatformRegistry()
        registry.register("only", _sim_factory)
        with pytest.raises(PlatformError, match="only"):
            registry.build(PlatformSpec(kind="other"))

    def test_bad_kwargs_surface_as_type_error(self):
        # Knobs live on the spec: keyword arguments are refused outright.
        with pytest.raises(TypeError, match="bogus_knob"):
            make_platform("simulated", bogus_knob=3)

    def test_invalid_platform_arguments_still_validate(self):
        with pytest.raises(PlatformError):
            make_platform(PlatformSpec(kind="simulated", workers=0))
        with pytest.raises(PlatformError):
            make_platform(PlatformSpec(kind="threads", workers=4, max_workers=1))

    def test_name_colliding_with_existing_alias_rejected(self):
        registry = PlatformRegistry()
        registry.register("a", _sim_factory, aliases=("b",))
        with pytest.raises(PlatformError, match="already registered"):
            registry.register("b", _sim_factory)

    def test_alias_colliding_with_existing_name_rejected(self):
        registry = PlatformRegistry()
        registry.register("a", _sim_factory)
        with pytest.raises(PlatformError, match="already registered"):
            registry.register("c", _sim_factory, aliases=("a",))


class TestAvailableBackendsOrdering:
    def test_sorted_canonical_names_only(self):
        names = available_backends()
        assert names == sorted(names)
        # Canonical names only — aliases are resolvable but not listed.
        assert "sim" not in names and "procs" not in names
        assert "simulated" in names and "processes" in names
        assert "distributed" in names

    def test_custom_registry_names_sorted(self):
        registry = PlatformRegistry()
        registry.register("zeta", _sim_factory)
        registry.register("alpha", _sim_factory)
        registry.register("mid", _sim_factory)
        assert registry.names() == ["alpha", "mid", "zeta"]


class TestCustomRegistry:
    def test_register_and_build(self):
        registry = PlatformRegistry()
        registry.register("sim", _sim_factory, description="virtual")
        platform = registry.build(PlatformSpec(kind="sim", workers=3))
        assert isinstance(platform, SimulatedPlatform)
        assert platform.get_parallelism() == 3
        assert registry.describe() == {"sim": "virtual"}
        assert "sim" in registry and "nope" not in registry

    def test_factory_sees_canonical_kind(self):
        seen = {}

        def factory(spec):
            seen["kind"] = spec.kind
            return _sim_factory(spec)

        registry = PlatformRegistry()
        registry.register("canon", factory, aliases=("nick",))
        registry.build(PlatformSpec(kind="NICK"))
        assert seen["kind"] == "canon"

    def test_third_party_factories_receive_extras(self):
        def factory(spec):
            assert spec.extra == {"device": 2}
            return _sim_factory(spec)

        registry = PlatformRegistry()
        registry.register("accel", factory)
        platform = registry.build(PlatformSpec(kind="accel", extra={"device": 2}))
        assert isinstance(platform, SimulatedPlatform)

    def test_duplicate_names_rejected(self):
        registry = PlatformRegistry()
        registry.register("a", _sim_factory, aliases=("b",))
        with pytest.raises(PlatformError):
            registry.register("a", _sim_factory)
        with pytest.raises(PlatformError):
            registry.register("c", _sim_factory, aliases=("b",))
