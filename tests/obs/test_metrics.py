"""Tests for the metrics registry and Prometheus exposition."""

import threading

import pytest

from repro.obs import metrics
from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    render_prometheus,
)


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("hits_total", "hits")
        assert counter.value() == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_rejects_negative_increments(self):
        counter = Counter("hits_total", "hits")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labelled_series_are_independent(self):
        counter = Counter("req_total", "reqs", labelnames=("code",))
        counter.inc(code="200")
        counter.inc(code="200")
        counter.inc(code="500")
        assert counter.value(code="200") == 2.0
        assert counter.value(code="500") == 1.0

    def test_rejects_undeclared_labels(self):
        counter = Counter("req_total", "reqs", labelnames=("code",))
        with pytest.raises(ValueError):
            counter.inc(status="200")
        with pytest.raises(ValueError):
            counter.inc()


class TestGauge:
    def test_set_inc_value(self):
        gauge = Gauge("depth", "queue depth")
        gauge.set(4)
        gauge.inc(-1.5)
        assert gauge.value() == 2.5


class TestHistogram:
    def test_observe_and_count(self):
        histogram = Histogram("lat", "latency", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count() == 3

    def test_rendered_buckets_are_cumulative_and_monotonic(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "lat_seconds", "latency", buckets=(0.1, 0.5, 1.0)
        )
        for value in (0.05, 0.05, 0.3, 0.7, 9.0):
            histogram.observe(value)
        text = render_prometheus(registry)
        buckets = {}
        for line in text.splitlines():
            if line.startswith("lat_seconds_bucket"):
                le = line.split('le="')[1].split('"')[0]
                buckets[le] = float(line.rsplit(" ", 1)[1])
        assert list(buckets) == ["0.1", "0.5", "1", "+Inf"]
        counts = list(buckets.values())
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert buckets["0.1"] == 2.0
        assert buckets["0.5"] == 3.0
        assert buckets["1"] == 4.0
        assert buckets["+Inf"] == 5.0
        assert "lat_seconds_count 5" in text
        assert "lat_seconds_sum" in text

    def test_requires_at_least_one_bucket(self):
        with pytest.raises(ValueError):
            Histogram("lat", "latency", buckets=())


class TestHistogramQuantile:
    def test_empty_series_has_no_quantile(self):
        histogram = Histogram("lat", "latency", buckets=(0.1, 1.0))
        assert histogram.quantile(0.5) is None
        assert histogram.quantile(0.99) is None
        labelled = Histogram(
            "lat", "latency", labelnames=("op",), buckets=(0.1, 1.0)
        )
        labelled.observe(0.05, op="read")
        assert labelled.quantile(0.5, op="write") is None

    def test_quantile_is_the_first_bucket_reaching_the_rank(self):
        histogram = Histogram("lat", "latency", buckets=(0.1, 0.5, 1.0))
        for value in (0.05, 0.05, 0.3, 0.7):
            histogram.observe(value)
        assert histogram.quantile(0.25) == 0.1
        assert histogram.quantile(0.5) == 0.1  # rank 2 reached at 0.1
        assert histogram.quantile(0.51) == 0.5
        assert histogram.quantile(0.75) == 0.5
        assert histogram.quantile(0.99) == 1.0
        assert histogram.quantile(1.0) == 1.0

    def test_exact_bucket_edges_land_in_their_own_bucket(self):
        histogram = Histogram("lat", "latency", buckets=(0.1, 0.5, 1.0))
        histogram.observe(0.1)
        histogram.observe(0.5)
        assert histogram.quantile(0.5) == 0.1
        assert histogram.quantile(1.0) == 0.5

    def test_quantile_past_the_last_finite_bound_is_none(self):
        histogram = Histogram("lat", "latency", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(5.0)
        assert histogram.quantile(0.5) == 0.1
        assert histogram.quantile(0.99) is None
        only_past = Histogram("lat", "latency", buckets=(0.1, 1.0))
        only_past.observe(1.5)
        assert only_past.quantile(0.5) is None

    def test_sum_tracks_observations(self):
        histogram = Histogram("lat", "latency", buckets=(0.1, 1.0))
        assert histogram.sum() == 0.0
        histogram.observe(0.25)
        histogram.observe(2.0)
        assert histogram.sum() == pytest.approx(2.25)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("hits_total", "hits")
        b = registry.counter("hits_total", "hits")
        assert a is b

    def test_rejects_kind_conflicts(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "x")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "x")

    def test_rejects_labelname_conflicts(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "x", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", "x", labelnames=("b",))

    def test_instruments_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("b_total", "b")
        registry.gauge("a_depth", "a")
        assert [i.name for i in registry.instruments()] == [
            "a_depth",
            "b_total",
        ]

    def test_process_default_reset(self):
        previous = metrics.registry()
        fresh = metrics.reset_registry()
        try:
            assert metrics.registry() is fresh
            assert fresh is not previous
            assert fresh.instruments() == []
        finally:
            metrics.set_registry(previous)


class TestExposition:
    def test_content_type_is_prometheus_text(self):
        assert PROMETHEUS_CONTENT_TYPE.startswith("text/plain")
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE

    def test_help_and_type_emitted_before_samples(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "How many hits.")
        text = render_prometheus(registry)
        lines = text.splitlines()
        assert "# HELP hits_total How many hits." in lines
        assert "# TYPE hits_total counter" in lines

    def test_label_value_escaping(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'
        registry = MetricsRegistry()
        counter = registry.counter(
            "odd_total", "odd labels", labelnames=("path",)
        )
        counter.inc(path='we"ird\\path\nline')
        text = render_prometheus(registry)
        assert 'path="we\\"ird\\\\path\\nline"' in text

    def test_integral_floats_render_as_ints(self):
        registry = MetricsRegistry()
        registry.counter("n_total", "n").inc(3)
        assert "n_total 3\n" in render_prometheus(registry)

    def test_render_defaults_to_process_registry(self):
        previous = metrics.registry()
        fresh = metrics.reset_registry()
        try:
            fresh.counter("scoped_total", "scoped").inc()
            assert "scoped_total 1" in render_prometheus()
        finally:
            metrics.set_registry(previous)

    def test_concurrent_increments_do_not_lose_counts(self):
        counter = Counter("race_total", "race")

        def bump():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value() == 4000.0


class TestStageHelper:
    def test_stage_observes_histogram_without_tracer(self):
        from repro import obs

        previous = metrics.registry()
        metrics.reset_registry()
        try:
            with obs.stage("eval.test"):
                pass
            assert obs.stage_histogram().count(stage="eval.test") == 1
        finally:
            metrics.set_registry(previous)

    def test_stage_records_span_with_tracer(self):
        from repro import obs

        previous = metrics.registry()
        metrics.reset_registry()
        try:
            with obs.tracing() as tracer:
                with obs.stage("eval.test", n=1):
                    pass
            assert [s.name for s in tracer.spans()] == ["eval.test"]
            assert obs.stage_histogram().count(stage="eval.test") == 1
        finally:
            metrics.set_registry(previous)
