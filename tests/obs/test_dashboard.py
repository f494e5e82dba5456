"""Dashboard rendering and the BusInstrument/Observability wiring."""

from repro import ConstantCostModel, Execute, Map, Merge, SimulatedPlatform, Split, run
from repro.events.types import Event, When, Where
from repro.obs import (
    BusInstrument,
    MetricsRegistry,
    Observability,
    Tracer,
    render_dashboard,
)


def make_event(**kw):
    defaults = dict(
        skeleton=None,
        kind="seq",
        when=When.AFTER,
        where=Where.SKELETON,
        index=1,
        parent_index=None,
        value=1,
        timestamp=1.0,
        trace_id="tid",
        span_id="sid",
    )
    defaults.update(kw)
    return Event(**defaults)


def sim_program(width=4):
    return Map(
        Split(lambda v, w=width: [v] * w, name="split"),
        Seq_leaf(),
        Merge(sum, name="merge"),
    )


def Seq_leaf():
    from repro import Seq

    return Seq(Execute(lambda v: v, name="leaf"))


class TestBusInstrument:
    def test_counts_events_by_label(self):
        reg = MetricsRegistry()
        inst = BusInstrument(reg)
        inst.on_event(make_event())
        inst.on_batch([make_event(), make_event(kind="map")])
        assert reg.get("repro_events_total").value(label="seq@a") == 2
        assert reg.get("repro_events_total").value(label="map@a") == 1
        assert reg.get("repro_event_batches_total").value() == 1

    def test_after_with_started_at_feeds_latency(self):
        reg = MetricsRegistry()
        inst = BusInstrument(reg)
        inst.on_event(make_event(timestamp=1.5, extra={"started_at": 1.0}))
        hist = reg.get("repro_muscle_latency_seconds")
        assert hist.count(kind="seq") == 1
        assert hist.sum(kind="seq") == 0.5

    def test_batch_records_one_span(self):
        reg = MetricsRegistry()
        tracer = Tracer(enabled=True)
        inst = BusInstrument(reg, tracer=tracer)
        inst.on_batch([make_event(timestamp=1.0), make_event(timestamp=3.0)])
        (span,) = tracer.finished()
        assert span.name == "event_batch"
        assert span.trace_id == "tid"
        assert span.duration == 2.0
        assert span.attrs["size"] == 2


class TestObservabilityFacade:
    def test_attach_detach_cycle(self):
        platform = SimulatedPlatform(parallelism=2, cost_model=ConstantCostModel(1.0))
        obs = Observability(sample_rate=1.0)
        obs.attach(platform)
        assert obs.attach(platform) is obs  # idempotent
        assert platform.tracer.enabled
        run(sim_program(), 3, platform)
        assert obs.metrics.get("repro_events_total").total() > 0
        assert len(obs.flight) > 0
        obs.detach()
        assert not platform.tracer.enabled
        before = obs.metrics.get("repro_events_total").total()
        run(sim_program(), 3, platform)
        assert obs.metrics.get("repro_events_total").total() == before

    def test_second_platform_rejected_while_attached(self):
        import pytest

        a = SimulatedPlatform(parallelism=1, cost_model=ConstantCostModel(1.0))
        b = SimulatedPlatform(parallelism=1, cost_model=ConstantCostModel(1.0))
        obs = Observability()
        obs.attach(a)
        with pytest.raises(RuntimeError):
            obs.attach(b)

    def test_the_tracer_keeps_the_platform_time(self):
        platform = SimulatedPlatform(parallelism=2, cost_model=ConstantCostModel(1.0))
        obs = Observability(sample_rate=1.0)
        obs.attach(platform)
        run(sim_program(), 3, platform)
        assert platform.now() > 0.0
        assert obs.tracer.now() == platform.now()

    def test_export_surfaces(self, tmp_path):
        platform = SimulatedPlatform(parallelism=2, cost_model=ConstantCostModel(1.0))
        obs = Observability(sample_rate=1.0)
        obs.attach(platform)
        run(sim_program(), 3, platform)
        assert "repro_events_total" in obs.prometheus()
        prom = tmp_path / "m.prom"
        obs.export_prometheus(str(prom))
        assert "# TYPE repro_events_total counter" in prom.read_text()
        flight = tmp_path / "f.jsonl"
        n = obs.export_jsonl(str(flight))
        assert n == len(flight.read_text().strip().splitlines())


class TestDashboard:
    def test_render_plain_registry(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.histogram("lat").observe(0.2)
        frame = render_dashboard(reg, title="test frame")
        assert "test frame" in frame
        assert "c = 5" in frame
        assert "p95" in frame

    def test_render_with_spans_and_timeline(self):
        reg = MetricsRegistry()
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        frame = render_dashboard(
            reg, tracer=tracer, lp_steps=[(0.0, 1), (1.0, 3), (2.0, 2)]
        )
        assert "outer" in frame and "inner" in frame
        assert "LP timeline" in frame

    def test_live_dashboard_from_facade(self):
        platform = SimulatedPlatform(parallelism=2, cost_model=ConstantCostModel(1.0))
        obs = Observability(sample_rate=1.0)
        obs.attach(platform)
        run(sim_program(), 3, platform)
        dash = obs.dashboard(title="live")
        frame = dash.render()
        assert "live · frame 1" in frame
        assert "repro_events_total" in frame
