"""Tests of the end-to-end benchmark's own machinery.

Collected by ``pytest benchmarks/``, not by the tier-1 suite: the
statistics, the stack timer's self-time accounting, and a smoke run
of every workload with every correctness check on.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import layertrace
from stats import median, quartiles, spread, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def test_median_and_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    assert median(values) == 4.0
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    q1, q2, q3 = quartiles(values)
    assert spread(values) == pytest.approx((q3 - q1) / q2)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile([float(i) for i in range(1, 8001)]) == (99, 7920.0)
    assert tail_percentile([float(i) for i in range(1, 101)]) == (90, 90.0)
    assert tail_percentile([float(i) for i in range(1, 21)]) == (50, 10.0)
    assert tail_percentile([1.0] * 19) is None


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_stack_timer_self_time_on_nested_calls(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(layertrace.time, "perf_counter", clock)
    timer = layertrace.StackTimer(("outer", "inner"))

    def inner():
        clock.now += 2.0

    inner = timer.wrap(1, inner)

    def outer():
        clock.now += 1.0
        inner()
        clock.now += 0.5
        inner()

    outer = timer.wrap(0, outer)
    outer()
    assert timer.calls == [1, 2]
    assert timer.self_s == [1.5, 4.0]
    assert sum(timer.self_s) == clock.now


def test_stack_timer_times_each_next_of_a_wrapped_iterator(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(layertrace.time, "perf_counter", clock)
    timer = layertrace.StackTimer(("gen",))

    def produce():
        for item in range(3):
            clock.now += 1.0
            yield item

    produce = timer.wrap_iterator(0, produce)
    consumed = []
    for item in produce():
        clock.now += 10.0  # consumer time is not the layer's
        consumed.append(item)
    assert consumed == [0, 1, 2]
    assert timer.calls == [4]  # three items and the final StopIteration
    assert timer.self_s == [3.0]


def test_every_layer_target_exists():
    import importlib

    for targets in layertrace.LAYERS.values():
        for target in targets:
            module, qualname = target.removeprefix("iter:").split(":")
            owner = importlib.import_module(module)
            for part in qualname.split("."):
                owner = getattr(owner, part)
            assert callable(owner), target


def _run(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=30,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_run_passes_every_check_and_reports_every_metric():
    result = _run("--smoke")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    expected = {
        f"{workload}.{metric['name']}"
        for workload in workloads
        for metric in benchmark["end_to_end"]
    }
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_trace_shares_add_up_on_the_pool_workload():
    result = _run("--smoke", "--trace", "1", "--workload", "assess-pool-audited")
    metrics = result["metrics"]
    shares = sum(
        metric["value"]
        for name, metric in metrics.items()
        if name.endswith(".share")
    )
    assert result["correct"] is True
    assert shares == pytest.approx(1.0, abs=0.1)
    assert metrics["ops.pool.submit.calls"]["value"] > 0
    assert metrics["tracing_overhead"]["value"] > 0
