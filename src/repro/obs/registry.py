"""Process-wide metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the single aggregation point for the runtime's
self-knowledge.  Individual layers (event bus, service, plan cache,
remote fabric) either write into it directly (counters/histograms on
hot paths) or expose themselves through *callback gauges* that are
sampled lazily at export time — so a registry full of views costs
nothing until somebody asks for a snapshot.

Design notes
------------
* Metric families are identified by name; each family holds one child
  per label-value tuple.  Labels are ordered ``(key, value)`` pairs so
  a family's children are directly renderable in Prometheus
  text-exposition order.
* ``Histogram`` uses fixed upper bounds (seconds by default).  Quantile
  queries (p50/p95/p99) interpolate linearly inside the winning bucket,
  which is exactly what a Prometheus ``histogram_quantile`` would do
  server-side — good enough for SLO checks, and O(#buckets) per query.
* Everything is thread-safe.  Counters and histograms take one small
  lock per family; increments are a dict lookup + float add, cheap
  enough for the event hot path (and the hot path only runs when an
  instrument listener is registered at all).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from functools import partial
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

LabelTuple = Tuple[Tuple[str, str], ...]

#: Default latency buckets (seconds): micro-task to multi-minute tails.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _label_tuple(labels: Optional[Mapping[str, str]]) -> LabelTuple:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing counter family."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._children: Dict[LabelTuple, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self._add(_label_tuple(labels), amount)

    def bound_inc(self, **labels: str) -> Callable[..., None]:
        """``inc`` for one label set, its key resolved once (for hot paths)."""
        return partial(self._add, _label_tuple(labels))

    def _add(self, key: LabelTuple, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._children.get(_label_tuple(labels), 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._children.values())

    def samples(self) -> List[Tuple[LabelTuple, float]]:
        with self._lock:
            return sorted(self._children.items())


class Gauge:
    """A settable gauge family; children may instead be callbacks.

    Callback children are sampled when read, which is how existing
    stat surfaces (``PlanCache.stats``, ``ServiceStats``) become
    registry *views* without double bookkeeping.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._children: Dict[LabelTuple, float] = {}
        self._callbacks: Dict[LabelTuple, Callable[[], float]] = {}

    def set(self, value: float, **labels: str) -> None:
        key = _label_tuple(labels)
        with self._lock:
            self._callbacks.pop(key, None)
            self._children[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_tuple(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def set_function(self, fn: Callable[[], float], **labels: str) -> None:
        key = _label_tuple(labels)
        with self._lock:
            self._children.pop(key, None)
            self._callbacks[key] = fn

    def value(self, **labels: str) -> float:
        key = _label_tuple(labels)
        with self._lock:
            fn = self._callbacks.get(key)
            if fn is None:
                return self._children.get(key, 0.0)
        return float(fn())

    def samples(self) -> List[Tuple[LabelTuple, float]]:
        with self._lock:
            static = list(self._children.items())
            callbacks = list(self._callbacks.items())
        out = static + [(key, float(fn())) for key, fn in callbacks]
        return sorted(out)


class _HistogramChild:
    __slots__ = ("counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets  # per-bucket (non-cumulative)
        self.total = 0.0
        self.count = 0


class Histogram:
    """Fixed-bucket histogram family with quantile queries.

    ``observe`` bisects the bucket bounds; ``quantile`` interpolates
    linearly within the winning bucket.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self._lock = threading.Lock()
        self._children: Dict[LabelTuple, _HistogramChild] = {}

    def _child(self, key: LabelTuple) -> _HistogramChild:
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _HistogramChild(len(self.buckets) + 1)
        return child

    def observe(self, value: float, **labels: str) -> None:
        self._observe(_label_tuple(labels), value)

    def bound_observe(self, **labels: str) -> Callable[[float], None]:
        """``observe`` for one label set, its key resolved once (for hot paths)."""
        return partial(self._observe, _label_tuple(labels))

    def _observe(self, key: LabelTuple, value: float) -> None:
        # The first bound >= value; NaN compares false to every bound
        # and lands in the +Inf bucket.
        idx = bisect_left(self.buckets, value) if value == value else len(self.buckets)
        with self._lock:
            child = self._children.get(key) or self._child(key)
            child.counts[idx] += 1
            child.total += value
            child.count += 1

    def count(self, **labels: str) -> int:
        with self._lock:
            child = self._children.get(_label_tuple(labels))
            return child.count if child else 0

    def sum(self, **labels: str) -> float:
        with self._lock:
            child = self._children.get(_label_tuple(labels))
            return child.total if child else 0.0

    def quantile(self, q: float, **labels: str) -> Optional[float]:
        """Estimate the q-quantile (0 < q <= 1), or None when empty.

        Linear interpolation inside the winning bucket; values in the
        +Inf bucket clamp to the largest finite bound.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        with self._lock:
            child = self._children.get(_label_tuple(labels))
            if child is None or child.count == 0:
                return None
            counts = list(child.counts)
            total = child.count
        rank = q * total
        seen = 0.0
        for i, c in enumerate(counts):
            if c == 0:
                continue
            if seen + c >= rank:
                if i >= len(self.buckets):
                    return self.buckets[-1]
                lo = self.buckets[i - 1] if i > 0 else 0.0
                hi = self.buckets[i]
                frac = (rank - seen) / c
                return lo + (hi - lo) * frac
            seen += c
        return self.buckets[-1]

    def percentiles(self, **labels: str) -> Dict[str, Optional[float]]:
        return {
            "p50": self.quantile(0.50, **labels),
            "p95": self.quantile(0.95, **labels),
            "p99": self.quantile(0.99, **labels),
        }

    def samples(self) -> List[Tuple[LabelTuple, List[int], float, int]]:
        """(labels, per-bucket counts incl. +Inf, sum, count) per child."""
        with self._lock:
            return sorted(
                (key, list(ch.counts), ch.total, ch.count)
                for key, ch in self._children.items()
            )


class MetricsRegistry:
    """A named collection of metric families.

    ``counter``/``gauge``/``histogram`` are get-or-create: calling them
    twice with the same name returns the same family, so independent
    layers can share families without coordination.  Re-registering a
    name as a different kind is an error.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, object] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            family = cls(name, help, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str):
        with self._lock:
            return self._families.get(name)

    def families(self) -> List[object]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._families)

    def unregister(self, name: str) -> bool:
        with self._lock:
            return self._families.pop(name, None) is not None

    def snapshot(self) -> Dict[str, Dict]:
        """A plain-dict snapshot of every family (for JSONL export/tests)."""
        out: Dict[str, Dict] = {}
        for family in self.families():
            if isinstance(family, Histogram):
                out[family.name] = {
                    "kind": family.kind,
                    "buckets": list(family.buckets),
                    "samples": [
                        {
                            "labels": dict(key),
                            "counts": counts,
                            "sum": total,
                            "count": count,
                        }
                        for key, counts, total, count in family.samples()
                    ],
                }
            else:
                out[family.name] = {
                    "kind": family.kind,
                    "samples": [
                        {"labels": dict(key), "value": value}
                        for key, value in family.samples()
                    ],
                }
        return out


def iter_prometheus_lines(registry: MetricsRegistry) -> Iterable[str]:
    """Yield Prometheus text-exposition (0.0.4) lines for a registry."""

    def fmt_labels(key: LabelTuple, extra: Optional[Tuple[Tuple[str, str], ...]] = None) -> str:
        pairs = list(key) + list(extra or ())
        if not pairs:
            return ""
        inner = ",".join(
            '%s="%s"' % (k, str(v).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n"))
            for k, v in pairs
        )
        return "{%s}" % inner

    def fmt_value(v: float) -> str:
        if v == float("inf"):
            return "+Inf"
        as_int = int(v)
        return str(as_int) if v == as_int else repr(v)

    for family in registry.families():
        if family.help:
            yield f"# HELP {family.name} {family.help}"
        yield f"# TYPE {family.name} {family.kind}"
        if isinstance(family, Histogram):
            for key, counts, total, count in family.samples():
                cumulative = 0
                for bound, c in zip(family.buckets, counts):
                    cumulative += c
                    le = (("le", fmt_value(bound)),)
                    yield f"{family.name}_bucket{fmt_labels(key, le)} {cumulative}"
                cumulative += counts[-1]
                yield f'{family.name}_bucket{fmt_labels(key, (("le", "+Inf"),))} {cumulative}'
                yield f"{family.name}_sum{fmt_labels(key)} {fmt_value(total)}"
                yield f"{family.name}_count{fmt_labels(key)} {count}"
        else:
            for key, value in family.samples():
                yield f"{family.name}{fmt_labels(key)} {fmt_value(value)}"
