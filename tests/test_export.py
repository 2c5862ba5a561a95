"""Unit tests for telemetry egress: exporters, buckets, merges."""

from __future__ import annotations

import json

from repro.observability import (
    BUCKET_BOUNDS,
    NULL_METRICS,
    AuditTrail,
    MetricsRegistry,
    read_chain,
    registry_from_events,
    render_otlp,
    render_prometheus,
    verify_events,
)


class TestHistogramBuckets:
    def test_fixed_bounds_are_decade_grid(self):
        assert len(BUCKET_BOUNDS) == 16
        assert BUCKET_BOUNDS[0] == 1e-06
        assert BUCKET_BOUNDS[-1] == 1e09

    def test_observations_land_in_le_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("x.seconds")
        histogram.observe(0.001)  # exactly on a bound -> that bucket
        histogram.observe(0.0005)
        histogram.observe(5e9)  # beyond the last bound -> overflow
        buckets = histogram.summary()["buckets"]
        assert len(buckets) == len(BUCKET_BOUNDS) + 1
        assert buckets[BUCKET_BOUNDS.index(0.001)] == 2
        assert buckets[-1] == 1
        assert sum(buckets) == 3

    def test_empty_summary_has_no_buckets(self):
        registry = MetricsRegistry()
        summary = registry.histogram("x").summary()
        assert summary == {
            "count": 0,
            "total": 0.0,
            "min": 0.0,
            "max": 0.0,
        }

    def test_bucket_counts_deterministic_across_splits(self):
        # Summing the same observations through 1, 2 or 4 registries
        # then merging must yield identical buckets — the property
        # that makes exports worker-count-invariant.
        values = [((i * 37) % 100 + 1) / 13.0 for i in range(60)]
        merged_summaries = []
        for splits in (1, 2, 4):
            registries = [MetricsRegistry() for _ in range(splits)]
            for index, value in enumerate(values):
                registries[index % splits].histogram(
                    "work.seconds"
                ).observe(value)
            target = MetricsRegistry()
            for registry in registries:
                target.merge(registry.snapshot())
            merged_summaries.append(
                target.snapshot()["histograms"]["work.seconds"]
            )
        assert merged_summaries[0] == merged_summaries[1]
        assert merged_summaries[1] == merged_summaries[2]


class TestMergeSemantics:
    def test_counters_and_gauges_merge_differently(self):
        left = MetricsRegistry()
        right = MetricsRegistry()
        left.counter("events").inc(3)
        right.counter("events").inc(4)
        left.gauge("depth").set(5)
        right.gauge("depth").set(2)
        left.merge(right.snapshot())
        snapshot = left.snapshot()
        # Counters accumulate; gauges keep the maximum observed (the
        # peak-occupancy semantics the pipeline merge relies on).
        assert snapshot["counters"]["events"] == 7
        assert snapshot["gauges"]["depth"] == 5
        right.merge(left.snapshot())
        assert right.snapshot()["gauges"]["depth"] == 5

    def test_merge_skips_absent_min_max(self):
        # A summary claiming count>0 but missing min/max (a hostile
        # or truncated snapshot) must not fold 0.0 into the running
        # extrema.
        registry = MetricsRegistry()
        registry.histogram("x").observe(5.0)
        registry.merge({"histograms": {"x": {"count": 2, "total": 9.0}}})
        summary = registry.snapshot()["histograms"]["x"]
        assert summary["min"] == 5.0
        assert summary["max"] == 5.0
        assert summary["count"] == 3

    def test_merge_empty_summary_is_noop_on_extrema(self):
        registry = MetricsRegistry()
        registry.histogram("x").observe(2.0)
        empty = MetricsRegistry()
        empty.histogram("x")  # count == 0
        registry.merge(empty.snapshot())
        summary = registry.snapshot()["histograms"]["x"]
        assert summary["min"] == 2.0 and summary["max"] == 2.0


class TestPrometheusRenderer:
    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry().snapshot()) == ""
        assert render_otlp(MetricsRegistry().snapshot())  # valid doc

    def test_counter_gauge_histogram_series(self):
        registry = MetricsRegistry()
        registry.counter("pipeline.records").inc(12)
        registry.gauge("audit.chain.intact").set(1)
        registry.histogram("run.seconds").observe(0.5)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE repro_pipeline_records_total counter" in text
        assert "repro_pipeline_records_total 12" in text
        assert "repro_audit_chain_intact 1" in text
        assert 'repro_run_seconds_bucket{le="1.0"} 1' in text
        assert 'repro_run_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_run_seconds_sum 0.5" in text
        assert "repro_run_seconds_count 1" in text
        assert text.endswith("\n")

    def test_bucket_series_is_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("x")
        for value in (1e-05, 1e-03, 1e-01):
            histogram.observe(value)
        lines = render_prometheus(registry.snapshot()).splitlines()
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if "_bucket" in line
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 3

    def test_rendering_is_byte_stable(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc(2)
        registry.histogram("c.d").observe(0.25)
        snapshot = registry.snapshot()
        assert render_prometheus(snapshot) == render_prometheus(
            snapshot
        )


class TestPrometheusHelpLines:
    def test_help_precedes_type_for_described_instruments(self):
        registry = MetricsRegistry()
        registry.counter("ops.cache.hits").inc(3)
        registry.gauge("audit.chain.length").set(9)
        registry.histogram("pipeline.run.seconds").observe(0.5)
        lines = render_prometheus(registry.snapshot()).splitlines()
        for metric in (
            "repro_ops_cache_hits_total",
            "repro_audit_chain_length",
            "repro_pipeline_run_seconds",
        ):
            type_index = lines.index(
                next(
                    line
                    for line in lines
                    if line.startswith(f"# TYPE {metric} ")
                )
            )
            assert lines[type_index - 1].startswith(
                f"# HELP {metric} "
            )

    def test_help_lines_alphabetical_within_kind(self):
        registry = MetricsRegistry()
        registry.counter("pipeline.records").inc(1)
        registry.counter("audit.events").inc(1)
        registry.counter("ops.cache.misses").inc(1)
        lines = render_prometheus(registry.snapshot()).splitlines()
        help_lines = [
            line for line in lines if line.startswith("# HELP")
        ]
        assert help_lines == sorted(help_lines)
        assert len(help_lines) == 3

    def test_prefix_families_and_unknown_names(self):
        registry = MetricsRegistry()
        registry.histogram("span.stage.seal.seconds").observe(0.1)
        registry.counter(
            "audit.events.pipeline.run_started"
        ).inc(1)
        registry.counter("made.up.instrument").inc(1)
        text = render_prometheus(registry.snapshot())
        assert (
            "# HELP repro_span_stage_seal_seconds "
            "Duration distribution in seconds" in text
        )
        assert (
            "# HELP repro_audit_events_pipeline_run_started_total "
            "Audit events observed" in text
        )
        # Unknown instruments get no made-up HELP line.
        assert "# HELP repro_made_up_instrument" not in text
        assert "# TYPE repro_made_up_instrument_total counter" in text

    def test_describe_instrument_resolution(self):
        from repro.observability.export import (
            INSTRUMENT_HELP,
            describe_instrument,
        )

        assert describe_instrument("ops.cache.hits") == (
            INSTRUMENT_HELP["ops.cache.hits"]
        )
        # Exact entries win over the matching prefix family.
        assert describe_instrument("audit.events") == (
            INSTRUMENT_HELP["audit.events"]
        )
        assert describe_instrument("audit.events.a.b") != (
            INSTRUMENT_HELP["audit.events"]
        )
        assert describe_instrument("nope") is None
        assert sorted(INSTRUMENT_HELP) == list(INSTRUMENT_HELP)


class TestOtlpRenderer:
    def test_document_shape(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(4)
        registry.gauge("ratio").set(0.5)
        registry.histogram("lat").observe(0.1)
        document = json.loads(render_otlp(registry.snapshot()))
        metrics = document["resourceMetrics"][0]["scopeMetrics"][0][
            "metrics"
        ]
        by_name = {metric["name"]: metric for metric in metrics}
        assert by_name["events"]["sum"]["isMonotonic"] is True
        assert by_name["events"]["sum"]["dataPoints"] == [
            {"asInt": "4"}
        ]
        assert by_name["ratio"]["gauge"]["dataPoints"] == [
            {"asDouble": 0.5}
        ]
        point = by_name["lat"]["histogram"]["dataPoints"][0]
        assert point["count"] == "1"
        assert point["explicitBounds"] == list(BUCKET_BOUNDS)
        assert set(document) == {"resourceMetrics"}


class TestRegistryFromEvents:
    def _trail_chain(self, tmp_path):
        trail = AuditTrail(tmp_path / "audit.jsonl")
        trail.event("pipeline", "run-started", workers=2)
        trail.event("pipeline", "stage-applied", subject="seal")
        trail.event("pipeline", "stage-applied", subject="scrub")
        trail.event("storage", "sealed", subject="blob")
        trail.close()
        chain = read_chain(trail.path)
        assert chain[1].ok
        return chain

    def test_counters_and_anchors(self, tmp_path):
        chain = self._trail_chain(tmp_path)
        snapshot = registry_from_events(*chain).snapshot()
        assert snapshot["counters"]["audit.events"] == 4
        assert (
            snapshot["counters"][
                "audit.events.pipeline.stage_applied"
            ]
            == 2
        )
        assert snapshot["counters"]["audit.events.storage.sealed"] == 1
        assert snapshot["gauges"]["audit.chain.length"] == 4
        assert snapshot["gauges"]["audit.chain.intact"] == 1

    def test_same_events_same_bytes(self, tmp_path):
        chain = self._trail_chain(tmp_path)
        first = render_prometheus(
            registry_from_events(*chain).snapshot()
        )
        second = render_prometheus(
            registry_from_events(*chain).snapshot()
        )
        assert first == second
        assert render_otlp(
            registry_from_events(*chain).snapshot()
        ) == render_otlp(registry_from_events(*chain).snapshot())

    def test_obs_export_walks_the_chain_once(self, tmp_path, monkeypatch):
        """``obs export`` takes its chain gauges from the walk that
        read the log: one ``verify_events`` call, so no event is
        hashed twice."""
        from repro.cli.main import main
        from repro.observability import export, log

        self._trail_chain(tmp_path)
        walks = []

        def counting(events, **anchors):
            walks.append(1)
            return verify_events(events, **anchors)

        for module in (log, export):
            if hasattr(module, "verify_events"):
                monkeypatch.setattr(module, "verify_events", counting)
        assert main(["obs", "export", str(tmp_path / "audit.jsonl")]) == 0
        assert len(walks) == 1

    def test_empty_chain(self):
        snapshot = registry_from_events([], verify_events([])).snapshot()
        assert snapshot["counters"]["audit.events"] == 0
        assert snapshot["gauges"]["audit.chain.intact"] == 1


class TestNullInstrumentPassthrough:
    def test_null_registry_accepts_everything(self):
        # Instrumented code must not branch on enablement: the null
        # registry swallows the whole instrument API at no cost.
        NULL_METRICS.counter("a.b").inc(5)
        NULL_METRICS.gauge("c.d").set(2)
        NULL_METRICS.histogram("e.f").observe(0.5)
        assert NULL_METRICS.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert not NULL_METRICS.enabled

    def test_null_registry_renders_empty(self):
        assert render_prometheus(NULL_METRICS.snapshot()) == ""
