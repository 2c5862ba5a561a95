"""E16 — telemetry egress costs: exporters, profiler, flight recorder.

Four budgets from ``docs/observability.md`` /
``docs/performance.md``:

* **Exporters are not a bottleneck** — rendering a realistic registry
  snapshot (counters + gauges + bucketed histograms) as Prometheus
  text and OTLP-style JSON must each clear 200 renders/second, i.e.
  scraping at 1 Hz costs well under 1% of a core.
* **The profiler obeys the master switch** — with the observer
  disabled, :meth:`~repro.observability.profiler.SamplingProfiler.
  start` refuses to spin up the sampler thread, so a ``with
  SamplingProfiler():`` block around the workload must cost the same
  as no profiler at all (asserted with a generous 1.35× tolerance
  for single-core scheduling noise), and must capture zero samples.
  Enabled, the sampler thread runs concurrently: its overhead on the
  workload is reported (not asserted — it is scheduling-dependent)
  along with the samples it captured.
* **The flight recorder rides along for free** — a serial, cache-
  disabled batch run under a flight-only observer must cost at most
  5% over the same run unobserved (min-of-trials ratio over
  alternating plain and flight trials, so host speed drift hits
  both alike: the ring tap is a bounded-deque append per audit
  event).
* **SLO evaluation is scrape-friendly** — judging an error-rate plus
  rolling burn-rate spec against a couple of hundred outcome windows
  must clear 100 evaluations/second.

Writes the numbers to ``BENCH_observability.json`` at the repo root
(each test merges its own section, so running one test never drops
the other's numbers).
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

from repro.observability import (
    FlightRecorder,
    MetricsRegistry,
    Observer,
    SamplingProfiler,
    SloSpec,
    Tracer,
    WindowSeries,
    evaluate_slo,
    observed,
    render_otlp,
    render_prometheus,
)

RESULT_PATH = Path(__file__).parent.parent / "BENCH_observability.json"

EXPORT_ROUNDS = 300
WORKLOAD_ROUNDS = 40
MIN_RENDERS_PER_SECOND = 200.0
DISABLED_OVERHEAD_TOLERANCE = 1.35
FLIGHT_TRIALS = 25
FLIGHT_BATCH_REQUESTS = 30
FLIGHT_OVERHEAD_TOLERANCE = 1.05
SLO_ROUNDS = 200
MIN_SLO_EVALS_PER_SECOND = 100.0


def _merge_report(section: str, body: dict) -> dict:
    """Update one section of the shared benchmark JSON."""
    report: dict = {}
    if RESULT_PATH.exists():
        report = json.loads(RESULT_PATH.read_text(encoding="utf-8"))
    report.pop("note", None)  # pre-section-merge layout leftover
    report[section] = body
    report["cpu_count"] = os.cpu_count()
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _demo_snapshot() -> dict:
    """A registry shaped like a real pipeline run's."""
    registry = MetricsRegistry()
    for index in range(20):
        registry.counter(f"pipeline.stage_{index}.records").inc(
            1000 + index
        )
    for index in range(10):
        registry.gauge(f"audit.chain.anchor_{index}").set(index / 7)
    for index in range(10):
        histogram = registry.histogram(f"span.stage_{index}.seconds")
        for sample in range(50):
            histogram.observe((sample + 1) * 10.0 ** (index % 6 - 4))
    return registry.snapshot()


def _workload() -> int:
    """A pure-Python busy loop the profiler can sample."""
    total = 0
    for value in range(120_000):
        total += value * value % 2_147_483_647
    return total


def _timed(fn) -> tuple[object, float]:
    gc.collect()
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def test_e16_exporter_throughput_and_profiler_overhead():
    snapshot = _demo_snapshot()

    def render_many(renderer) -> int:
        emitted = 0
        for _ in range(EXPORT_ROUNDS):
            emitted += len(renderer(snapshot))
        return emitted

    prom_bytes, prom_seconds = _timed(
        lambda: render_many(render_prometheus)
    )
    otlp_bytes, otlp_seconds = _timed(
        lambda: render_many(lambda s: render_otlp(s, indent=None))
    )
    prom_rate = EXPORT_ROUNDS / prom_seconds
    otlp_rate = EXPORT_ROUNDS / otlp_seconds

    # Profiler: plain workload, disabled profiler, enabled profiler.
    def run_workload() -> int:
        checksum = 0
        for _ in range(WORKLOAD_ROUNDS):
            checksum ^= _workload()
        return checksum

    # Warm-up evens out allocator/interpreter state before timing.
    run_workload()
    plain_checksum, plain_seconds = _timed(run_workload)

    disabled_profiler = SamplingProfiler(interval=0.001)
    with disabled_profiler:
        disabled_checksum, disabled_seconds = _timed(run_workload)
    assert not disabled_profiler.running
    assert disabled_profiler.sample_count == 0
    assert disabled_checksum == plain_checksum

    registry = MetricsRegistry()
    observer = Observer(metrics=registry, tracer=Tracer(registry))
    enabled_profiler = SamplingProfiler(interval=0.001)
    with observed(observer), enabled_profiler:
        enabled_checksum, enabled_seconds = _timed(run_workload)
    assert enabled_checksum == plain_checksum
    assert enabled_profiler.sample_count > 0

    disabled_overhead = disabled_seconds / plain_seconds
    enabled_overhead = enabled_seconds / plain_seconds

    _merge_report(
        "exporters",
        {
            "snapshot": {
                "counters": len(snapshot["counters"]),
                "gauges": len(snapshot["gauges"]),
                "histograms": len(snapshot["histograms"]),
            },
            "rounds": EXPORT_ROUNDS,
            "prometheus": {
                "renders_per_second": round(prom_rate, 1),
                "bytes_per_render": prom_bytes // EXPORT_ROUNDS,
            },
            "otlp_json": {
                "renders_per_second": round(otlp_rate, 1),
                "bytes_per_render": otlp_bytes // EXPORT_ROUNDS,
            },
        },
    )
    report = _merge_report(
        "profiler",
        {
            "interval_seconds": 0.001,
            "workload_seconds_plain": round(plain_seconds, 4),
            "workload_seconds_profiler_disabled": round(
                disabled_seconds, 4
            ),
            "workload_seconds_profiler_enabled": round(
                enabled_seconds, 4
            ),
            "disabled_overhead_ratio": round(disabled_overhead, 3),
            "enabled_overhead_ratio": round(enabled_overhead, 3),
            "enabled_samples": enabled_profiler.sample_count,
            "note": (
                "disabled_overhead_ratio compares a workload "
                "wrapped in a SamplingProfiler context under a "
                "disabled observer against the bare workload; the "
                "profiler refuses to start its sampler thread, so "
                "the ratio is pure noise. enabled_overhead_ratio "
                "is reported, not asserted — it depends on how the "
                "host schedules the sampler thread."
            ),
        },
    )

    assert prom_rate >= MIN_RENDERS_PER_SECOND, report
    assert otlp_rate >= MIN_RENDERS_PER_SECOND, report
    assert disabled_overhead <= DISABLED_OVERHEAD_TOLERANCE, report


def test_e16_flight_recorder_overhead_and_slo_throughput():
    from repro.ops.batch import BatchExecutor, BatchRequest

    # The heavier catalog operations: per-request work must dominate
    # the constant ring-tap cost for the ratio to measure the tap.
    ops = (
        ("stats", {}),
        ("legend", {}),
        ("table1", {"format": "csv"}),
    )
    requests = tuple(
        BatchRequest(
            index=index,
            op=ops[index % len(ops)][0],
            args=ops[index % len(ops)][1],
        )
        for index in range(FLIGHT_BATCH_REQUESTS)
    )
    executor = BatchExecutor(workers=1, use_cache=False)

    def run_plain() -> int:
        result = executor.run(requests)
        return result.summary["ok"]

    def run_with_flight() -> int:
        recorder = FlightRecorder(capacity=256)
        with observed(Observer(flight=recorder)):
            result = executor.run(requests)
        # Every request bracket plus the batch bracket and the
        # metric deltas landed in the ring — the tap really ran.
        assert len(recorder) > 2 * FLIGHT_BATCH_REQUESTS
        return result.summary["ok"]

    run_plain()  # warm the per-process operation/registry memos
    run_with_flight()
    # Alternate the two runs: the host's speed drifts over seconds,
    # and timing all plain trials before all flight trials would
    # charge that drift to one side.
    plain_times: list[float] = []
    flight_times: list[float] = []
    for _ in range(FLIGHT_TRIALS):
        plain_times.append(_timed(run_plain)[1])
        flight_times.append(_timed(run_with_flight)[1])
    plain_seconds = min(plain_times)
    flight_seconds = min(flight_times)
    flight_overhead = flight_seconds / plain_seconds

    # SLO evaluation throughput over a 200-window outcome series,
    # the shape `obs slo` windows out of an audit chain.
    series = WindowSeries(window_size=50)
    for index in range(10_000):
        series.observe(index % 17 != 0)
    spec = SloSpec.from_dict(
        {
            "name": "bench",
            "window": 50,
            "objectives": [
                {
                    "id": "errors",
                    "metric": "error_rate",
                    "threshold": 0.1,
                },
                {
                    "id": "burn",
                    "metric": "error_budget_burn",
                    "threshold": 1.0,
                    "budget": 0.1,
                    "windows": 6,
                },
            ],
        }
    )

    def evaluate_many() -> int:
        judged = 0
        for _ in range(SLO_ROUNDS):
            judged += len(evaluate_slo(spec, series).results)
        return judged

    evaluate_many()  # warm-up
    _, slo_seconds = _timed(evaluate_many)
    slo_rate = SLO_ROUNDS / slo_seconds

    report = _merge_report(
        "flight_and_slo",
        {
            "flight": {
                "batch_requests": FLIGHT_BATCH_REQUESTS,
                "trials": FLIGHT_TRIALS,
                "batch_seconds_plain": round(plain_seconds, 4),
                "batch_seconds_with_flight": round(
                    flight_seconds, 4
                ),
                "overhead_ratio": round(flight_overhead, 3),
                "tolerance": FLIGHT_OVERHEAD_TOLERANCE,
            },
            "slo": {
                "windows": len(series.windows()),
                "objectives": len(spec.objectives),
                "rounds": SLO_ROUNDS,
                "evaluations_per_second": round(slo_rate, 1),
            },
            "note": (
                "overhead_ratio is min-of-trials over alternating "
                "serial, cache-disabled batch runs: the flight-only "
                "observer adds one bounded-deque append per audit "
                "event, so the ratio must stay within 5% of the "
                "unobserved run."
            ),
        },
    )

    assert flight_overhead <= FLIGHT_OVERHEAD_TOLERANCE, report
    assert slo_rate >= MIN_SLO_EVALS_PER_SECOND, report
