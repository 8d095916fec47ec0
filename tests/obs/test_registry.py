"""Unit tests for the metrics registry: instruments, export, snapshot."""

import json

import pytest

from repro.obs import LOG2_BUCKETS, MetricsRegistry


class TestInstruments:
    def test_counter_increments_and_rejects_decrease(self):
        registry = MetricsRegistry()
        counter = registry.counter("px_test_events_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_counter_set_total_mirrors_a_live_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("px_test_events_total")
        counter.set_total(17)
        counter.set_total(17)  # idempotent: a re-scrape must not double
        assert counter.value == 17
        with pytest.raises(ValueError):
            counter.set_total(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("px_test_depth")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7

    def test_series_are_get_or_create_per_label_set(self):
        registry = MetricsRegistry()
        a = registry.counter("px_test_total", direction="in")
        b = registry.counter("px_test_total", direction="in")
        c = registry.counter("px_test_total", direction="out")
        assert a is b
        assert a is not c
        assert registry.series_count() == 2

    def test_type_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("px_test_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("px_test_total")

    def test_name_and_label_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("px bad name")
        with pytest.raises(ValueError):
            registry.counter("px_ok_total", **{"bad-label": "x"})


class TestHistogram:
    def test_default_bounds_are_log2(self):
        assert LOG2_BUCKETS[0] == 1
        assert LOG2_BUCKETS[-1] == 128 * 1024
        assert all(b == 2 * a for a, b in zip(LOG2_BUCKETS, LOG2_BUCKETS[1:]))

    def test_observe_buckets_and_overflow(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("px_test_bytes", bounds=(10, 100))
        histogram.observe(5)
        histogram.observe(10)  # boundary counts into its own bucket (le)
        histogram.observe(50, weight=3)
        histogram.observe(1000)
        assert histogram.bucket_counts == [2, 3, 1]
        assert histogram.count == 6
        assert histogram.sum == 5 + 10 + 150 + 1000

    def test_load_is_idempotent(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("px_test_bytes", bounds=(10, 100))
        for _ in range(2):  # a second scrape must not double-count
            histogram.load({5: 2, 50: 1})
        assert histogram.count == 3
        assert histogram.sum == 60

    def test_samples_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("px_test_bytes", bounds=(10, 100))
        histogram.observe(5)
        histogram.observe(1000)
        flat = {name + str(dict(labels)): value
                for name, labels, value in histogram.samples()}
        assert flat["px_test_bytes_bucket{'le': '10'}"] == 1
        assert flat["px_test_bytes_bucket{'le': '100'}"] == 1
        assert flat["px_test_bytes_bucket{'le': '+Inf'}"] == 2
        assert flat["px_test_bytes_count{}"] == 2

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("px_test_bytes", bounds=(100, 10))


class TestExport:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("px_b_total", "B help", direction="out").inc(2)
        registry.counter("px_b_total", direction="in").inc(1)
        registry.gauge("px_a_depth", "A help").set(1.5)
        return registry

    def test_prometheus_text_is_sorted_and_typed(self):
        text = self.build().to_prometheus_text()
        lines = text.splitlines()
        assert lines == [
            "# HELP px_a_depth A help",
            "# TYPE px_a_depth gauge",
            "px_a_depth 1.5",
            "# HELP px_b_total B help",
            "# TYPE px_b_total counter",
            'px_b_total{direction="in"} 1',
            'px_b_total{direction="out"} 2',
        ]
        assert text.endswith("\n")

    def test_collectors_run_at_scrape_time(self):
        registry = MetricsRegistry()
        live = {"count": 0}
        registry.register_collector(
            lambda reg: reg.counter("px_live_total").set_total(live["count"])
        )
        live["count"] = 3
        assert "px_live_total 3" in registry.to_prometheus_text()
        live["count"] = 9
        assert registry.snapshot()["px_live_total"] == 9

    def test_to_json_round_trips(self):
        registry = self.build()
        registry.histogram("px_c_bytes", bounds=(8,)).observe(4)
        dump = json.loads(json.dumps(registry.to_json()))
        by_name = {}
        for entry in dump["series"]:
            by_name.setdefault(entry["name"], []).append(entry)
        assert by_name["px_a_depth"][0]["value"] == 1.5
        assert {e["labels"]["direction"] for e in by_name["px_b_total"]} == \
            {"in", "out"}
        histogram = by_name["px_c_bytes"][0]
        assert histogram["buckets"] == {"8": 1}
        assert histogram["count"] == 1

    def test_snapshot_diff_reports_only_movement(self):
        registry = self.build()
        before = registry.snapshot()
        registry.counter("px_b_total", direction="in").inc(5)
        registry.gauge("px_new_depth").set(2)
        after = registry.snapshot()
        assert MetricsRegistry.diff(before, after) == {
            'px_b_total{direction="in"}': 5,
            "px_new_depth": 2,
        }

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("px_q_total", flow='a"b').inc()
        assert 'flow="a\\"b"' in registry.to_prometheus_text()

