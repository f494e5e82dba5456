"""Bus-level instrumentation: events → metrics + spans.

``BusInstrument`` is a batch-aware :class:`~repro.events.bus.Listener`
that turns the existing event stream into registry metrics and tracer
spans, without touching the interpreter:

* every event increments ``repro_events_total{label=...}``;
* AFTER events whose extras carry ``started_at`` (real backends stamp
  it; the simulator's virtual clock does too for timed tasks) feed the
  ``repro_muscle_latency_seconds`` histogram;
* one span is recorded **per batch** (not per event) under the batch's
  dominant trace — the batch spine is the hot path, and a per-batch
  span keeps tracing cost proportional to transactions, not events.

Cost model: when observability is off the instrument simply is not
registered on the bus, so the hot path pays nothing at all.  When on,
the per-event cost is one counter increment (dict lookup + add under a
small lock) and, for AFTER events with a start stamp, one histogram
observe; both are bound once per label value, so the event path never
builds a label key.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from ..events.bus import Listener
from ..events.types import Event, When, event_label
from .registry import MetricsRegistry
from .tracing import TraceContext, Tracer

__all__ = ["BusInstrument", "bind_stats_gauges"]


def bind_stats_gauges(
    metrics: MetricsRegistry,
    name: str,
    help_text: str,
    stats_fn: Callable[[], Dict[str, Any]],
) -> None:
    """Expose every key of a stats dict as one callback-gauge family.

    The registry samples ``stats_fn`` lazily at export time, so there is
    no double bookkeeping to drift, and counters added to the source
    dict later (e.g. new :class:`~repro.core.planning.cache.
    PlanCacheStats` fields) appear as gauges automatically — the key set
    is read once at bind time, the *values* on every scrape.
    """
    family = metrics.gauge(name, help_text)

    def reader(key: str):
        return lambda: float(stats_fn().get(key, 0))

    for key in stats_fn():
        family.set_function(reader(key), stat=key)


class BusInstrument(Listener):
    """Listener that mirrors the event stream into metrics and spans."""

    def __init__(
        self,
        metrics: MetricsRegistry,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.events_total = metrics.counter(
            "repro_events_total", "Skeleton events published on the bus"
        )
        self.batches_total = metrics.counter(
            "repro_event_batches_total", "publish_batch transactions observed"
        )
        self.muscle_latency = metrics.histogram(
            "repro_muscle_latency_seconds",
            "Muscle execution latency (AFTER.timestamp - started_at)",
        )
        #: label -> its bound ``inc``; kind -> its bound ``observe``.
        self._count_label: Dict[str, Callable[[], None]] = {}
        self._latency_kind: Dict[str, Callable[[float], None]] = {}

    def on_event(self, event: Event):
        # No span for a lone event: it is already in the flight log with
        # its trace ids, and a zero-duration span would only add cost.
        label = event_label(event.kind, event.when, event.where)
        inc = self._count_label.get(label)
        if inc is None:
            inc = self._count_label[label] = self.events_total.bound_inc(label=label)
        inc()
        if event.when is When.AFTER:
            started = event.extra.get("started_at")
            if started is not None:
                kind = event.kind
                observe = self._latency_kind.get(kind)
                if observe is None:
                    observe = self._latency_kind[kind] = (
                        self.muscle_latency.bound_observe(kind=kind)
                    )
                observe(max(0.0, event.timestamp - started))
        return event.value

    def on_batch(self, events: Sequence[Event]) -> None:
        self.batches_total.inc()
        for event in events:
            self.on_event(event)
        if self.tracer is not None and self.tracer.enabled:
            ctx = None
            for event in events:
                ctx = _event_context(event)
                if ctx is not None:
                    break
            if ctx is not None:
                stamps = [e.timestamp for e in events]
                span = self.tracer.start_span(
                    "event_batch", context=ctx, start=min(stamps), size=len(events)
                )
                span.finish(end=max(stamps))


def _event_context(event: Event):
    if event.trace_id is None:
        return None
    return TraceContext(event.trace_id, event.span_id or "", sampled=True)
