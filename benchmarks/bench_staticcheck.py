"""Staticcheck performance — cold and warm-cache lint.

The lint gate runs inside every tier-1 test invocation and inside
``repro-ethics verify``, so it has a latency budget: a full cold lint
of ``src/repro`` (single parse per file, all ten rules R1–R10
including the interprocedural project-graph pass, baseline check)
must stay under 2 seconds on this tree. The incremental cache is what
keeps the gate honest as the package grows: a warm lint re-hashes
file contents and serves findings without parsing, and the measured
contract (asserted here, recorded in ``BENCH_staticcheck.json``) is a
>= 5x speedup with byte-identical findings.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.staticcheck import (
    LintEngine,
    default_registry,
    lint_repo,
    render_json,
    unsuppressed,
)

RESULT_PATH = Path(__file__).parent.parent / "BENCH_staticcheck.json"

#: The warm-cache contract asserted below and recorded in the JSON.
MIN_WARM_SPEEDUP = 5.0


def _lint(cache_path=None):
    return LintEngine(default_registry()).lint_package(
        cache_path=cache_path
    )


def test_cold_warm_lint(tmp_path):
    """Measure cold and warm-cache lint; write BENCH_staticcheck.json."""
    cache = tmp_path / "lint-cache.json"

    start = time.perf_counter()
    cold = _lint(cache_path=cache)
    cold_s = time.perf_counter() - start
    assert cache.exists()

    start = time.perf_counter()
    warm = _lint(cache_path=cache)
    warm_s = time.perf_counter() - start

    assert unsuppressed(cold) == []
    assert render_json(cold) == render_json(warm)
    speedup = cold_s / warm_s if warm_s else float("inf")
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm lint only {speedup:.1f}x faster than cold"
    )

    registry = default_registry()
    bench = {
        "cpu_count": os.cpu_count(),
        "rules": list(registry.rule_ids),
        "lint": {
            "cold_s": round(cold_s, 4),
            "warm_cache_s": round(warm_s, 4),
            "warm_speedup": round(speedup, 1),
            "min_warm_speedup_asserted": MIN_WARM_SPEEDUP,
            "findings_byte_identical": True,
        },
        "note": (
            "warm lint re-hashes file contents and serves "
            "content-addressed findings without parsing."
        ),
    }
    RESULT_PATH.write_text(json.dumps(bench, indent=2) + "\n")


def test_full_package_lint(benchmark):
    # incremental=False: benchmark the real cold path, and never
    # touch the repo-level cache from a timing loop.
    findings = benchmark(lint_repo, incremental=False)
    assert unsuppressed(findings) == []


def test_full_package_cold_lint_under_two_seconds():
    start = time.perf_counter()
    lint_repo(incremental=False)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"full-package lint took {elapsed:.2f}s"


def test_single_rule_lint(benchmark):
    # The cheapest configuration (determinism only) bounds the fixed
    # cost of the walk itself.
    findings = benchmark(lint_repo, ("R2",), incremental=False)
    assert unsuppressed(findings) == []
