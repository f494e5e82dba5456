"""Exporters: Prometheus text exposition and the JSONL flight recorder.

Three export surfaces, matched to three consumers:

* :func:`prometheus_text` — a point-in-time snapshot of a
  :class:`~repro.obs.registry.MetricsRegistry` in Prometheus
  text-exposition format 0.0.4, for scrapers and CI artifacts;
* :class:`FlightRecorder` — a bus listener that captures the event
  stream (the same fields :class:`~repro.events.recorder.EventRecorder`
  keeps in memory), tracer spans and metric snapshots as typed JSONL
  records, for postmortem trace queries;
* :func:`load_jsonl` / :func:`trace_records` — the readback half: load
  a flight-recording and pull every record of one ``trace_id`` back
  out, which is how the acceptance bench proves a single trace is
  queryable end to end across the socket boundary.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, List, Optional, Sequence

from ..events.bus import Listener
from ..events.types import Event
from .registry import MetricsRegistry, iter_prometheus_lines
from .tracing import Span, Tracer

__all__ = [
    "prometheus_text",
    "write_prometheus",
    "FlightRecorder",
    "load_jsonl",
    "trace_records",
]


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render *registry* in Prometheus text-exposition format 0.0.4."""
    return "\n".join(iter_prometheus_lines(registry)) + "\n"


def write_prometheus(path, registry: MetricsRegistry) -> str:
    text = prometheus_text(registry)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def _safe_value(value: Any) -> Any:
    """Best-effort JSON-safe rendering of an event payload."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_safe_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _safe_value(v) for k, v in value.items()}
    return repr(value)


def event_record(event: Event, include_value: bool = False) -> Dict[str, Any]:
    """The JSONL framing of one event (EventRecorder's fields, serialized)."""
    rec: Dict[str, Any] = {
        "type": "event",
        "label": event.label,
        "kind": event.kind,
        "when": event.when.value,
        "where": event.where.value,
        "index": event.index,
        "parent_index": event.parent_index,
        "timestamp": event.timestamp,
        "worker": event.worker,
        "execution_id": event.execution_id,
        "trace_id": event.trace_id,
        "span_id": event.span_id,
    }
    if event.extra:
        rec["extra"] = _safe_value(dict(event.extra))
    if include_value:
        rec["value"] = _safe_value(event.value)
    return rec


def span_record(span: Span) -> Dict[str, Any]:
    rec = span.as_dict()
    rec["attrs"] = _safe_value(rec.get("attrs") or {})
    rec["type"] = "span"
    return rec


class FlightRecorder(Listener):
    """JSONL flight recorder: events + spans + metric snapshots.

    Register it on a platform bus like any listener; it accumulates
    typed records in memory (bounded by ``max_records``) and serializes
    them with :meth:`dump`.  Call :meth:`record_spans` (typically with
    ``tracer.drain()``) and :meth:`record_metrics` before dumping to
    fold the other two streams into the same file.
    """

    def __init__(self, include_values: bool = False, max_records: int = 200_000) -> None:
        self.include_values = include_values
        self.max_records = max_records
        self._lock = threading.Lock()
        # Events are buffered *raw* and serialized lazily at readback —
        # the bus hot path pays one lock + one list append per event
        # (one per batch), nothing more; dict building is deferred to
        # export time, which is off any latency path.
        self._records: List[Any] = []
        self.dropped = 0

    def _append_many(self, records: List[Dict[str, Any]]) -> None:
        with self._lock:
            room = self.max_records - len(self._records)
            if room <= 0:
                self.dropped += len(records)
                return
            if len(records) > room:
                self.dropped += len(records) - room
                records = records[:room]
            self._records.extend(records)

    # -- bus listener --------------------------------------------------

    def on_event(self, event: Event):
        with self._lock:
            if len(self._records) < self.max_records:
                self._records.append(event)
            else:
                self.dropped += 1
        return event.value

    def on_batch(self, events: Sequence[Event]) -> None:
        self._append_many(list(events))

    # -- other streams -------------------------------------------------

    def record_spans(self, spans: Sequence[Span]) -> None:
        self._append_many([span_record(s) for s in spans])

    def record_tracer(self, tracer: Tracer) -> None:
        self.record_spans(tracer.drain())

    def record_metrics(self, registry: MetricsRegistry, label: str = "snapshot") -> None:
        self._append_many(
            [{"type": "metrics", "label": label, "snapshot": registry.snapshot()}]
        )

    # -- readback ------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        with self._lock:
            raw = list(self._records)
        return [
            event_record(rec, include_value=self.include_values)
            if isinstance(rec, Event)
            else rec
            for rec in raw
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self.dropped = 0

    def dump(self, path) -> int:
        """Write all records as JSON lines; returns the record count."""
        records = self.records()
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, separators=(",", ":"), default=repr))
                fh.write("\n")
        return len(records)

    def dumps(self) -> str:
        return "".join(
            json.dumps(rec, separators=(",", ":"), default=repr) + "\n"
            for rec in self.records()
        )


def load_jsonl(path) -> List[Dict[str, Any]]:
    """Load a flight-recording back into a list of typed records."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def trace_records(
    records: Sequence[Dict[str, Any]], trace_id: str, type: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Every record belonging to *trace_id*, in recording order.

    This is the end-to-end trace query: on the distributed backend it
    returns the submit-side events, the remote workers' muscle spans
    and the result-side events of one request, all under one id.
    """
    out = []
    for rec in records:
        if rec.get("trace_id") != trace_id:
            continue
        if type is not None and rec.get("type") != type:
            continue
        out.append(rec)
    return out
