"""Unit tests of the metrics registry: families, labels, quantiles, export."""

import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    prometheus_text,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("requests_total")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labeled_children_are_independent(self):
        c = Counter("events_total")
        c.inc(label="map@bs")
        c.inc(3, label="farm@as")
        assert c.value(label="map@bs") == 1
        assert c.value(label="farm@as") == 3
        assert c.value(label="missing") == 0
        assert c.total() == 4

    def test_label_order_does_not_matter(self):
        c = Counter("x")
        c.inc(a="1", b="2")
        assert c.value(b="2", a="1") == 1

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_bound_inc_counts_into_its_labels(self):
        c = Counter("events_total")
        inc = c.bound_inc(label="map@bs")
        inc()
        inc(2)
        c.inc(label="map@bs")
        assert c.value(label="map@bs") == 4
        assert c.samples() == [((("label", "map@bs"),), 4.0)]
        with pytest.raises(ValueError):
            inc(-1)

    def test_concurrent_increments_are_lost_update_free(self):
        c = Counter("x")

        def hammer():
            for _ in range(1000):
                c.inc(worker="w")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value(worker="w") == 8000


class TestGauge:
    def test_set_and_inc_dec(self):
        g = Gauge("live")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value() == 6

    def test_callback_children_sample_lazily(self):
        g = Gauge("view")
        state = {"n": 1}
        g.set_function(lambda: float(state["n"]), stat="n")
        assert g.value(stat="n") == 1
        state["n"] = 42
        assert g.value(stat="n") == 42

    def test_set_replaces_callback(self):
        g = Gauge("view")
        g.set_function(lambda: 7.0)
        g.set(1.0)
        assert g.value() == 1.0


class TestHistogram:
    def test_count_sum_and_bucket_placement(self):
        h = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(55.55)
        ((_, counts, _, _),) = h.samples()
        assert counts == [1, 1, 1, 1]  # one per bucket incl. +Inf

    def test_a_bound_is_inclusive_and_nan_lands_in_inf(self):
        h = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.1, 1.0, 10.0, 10.5, float("nan")):
            h.observe(v)
        ((_, counts, _, count),) = h.samples()
        assert counts == [1, 1, 1, 2]
        assert count == 5

    def test_bound_observe_counts_into_its_labels(self):
        h = Histogram("lat", buckets=(1.0, 2.0))
        observe = h.bound_observe(kind="map")
        observe(0.5)
        observe(1.5)
        h.observe(3.0, kind="map")
        assert h.count(kind="map") == 3
        assert h.sum(kind="map") == pytest.approx(5.0)
        assert h.count() == 0
        ((labels, counts, _, _),) = h.samples()
        assert labels == (("kind", "map"),)
        assert counts == [1, 1, 1]

    def test_quantiles_interpolate(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            h.observe(1.5)
        # All mass in the (1, 2] bucket: p50 interpolates to its middle.
        assert h.quantile(0.5) == pytest.approx(1.5)
        assert h.quantile(1.0) == pytest.approx(2.0)

    def test_quantile_empty_is_none(self):
        assert Histogram("lat").quantile(0.5) is None

    def test_quantile_clamps_to_last_finite_bound(self):
        h = Histogram("lat", buckets=(1.0,))
        h.observe(100.0)
        assert h.quantile(0.99) == 1.0

    def test_percentiles_keys(self):
        h = Histogram("lat")
        h.observe(0.02)
        assert set(h.percentiles()) == {"p50", "p95", "p99"}

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(2.0, 1.0))

    def test_default_buckets_are_ascending(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c", "help").inc(label="x")
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["c"]["kind"] == "counter"
        assert snap["c"]["samples"] == [{"labels": {"label": "x"}, "value": 1.0}]
        assert snap["h"]["samples"][0]["count"] == 1

    def test_unregister(self):
        reg = MetricsRegistry()
        reg.counter("a")
        assert reg.unregister("a")
        assert not reg.unregister("a")
        assert reg.names() == []


class TestPrometheusExposition:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "a counter").inc(2, tenant="acme")
        reg.gauge("g").set(1.5)
        text = prometheus_text(reg)
        assert "# HELP c_total a counter" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{tenant="acme"} 2' in text
        assert "g 1.5" in text

    def test_histogram_lines_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(99.0)
        text = prometheus_text(reg)
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(label='sa"id\nx')
        text = prometheus_text(reg)
        assert '\\"' in text and "\\n" in text
