"""Staticcheck performance — full-package cold lint.

The lint gate runs inside every tier-1 test invocation and inside
``repro-ethics verify``, so it has a latency budget: a full lint of
``src/repro`` (one parse and one walk per file, all ten rules R1–R10
including the interprocedural project-graph pass, baseline check)
must stay under 2 seconds on this tree. There is no cache: every lint
is cold, and ``BENCH_staticcheck.json`` records the median of five.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

from repro.staticcheck import (
    default_registry,
    lint_repo,
    render_json,
    unsuppressed,
)

RESULT_PATH = Path(__file__).parent.parent / "BENCH_staticcheck.json"

#: Cold lints timed for the recorded median (after one warm-up).
RUNS = 5


def test_cold_lint_median():
    """Time five cold lints; write BENCH_staticcheck.json."""
    first = lint_repo()
    assert unsuppressed(first) == []
    runs = []
    for _ in range(RUNS):
        start = time.perf_counter()
        findings = lint_repo()
        runs.append(time.perf_counter() - start)
        assert render_json(findings) == render_json(first)

    bench = {
        "cpu_count": os.cpu_count(),
        "rules": list(default_registry().rule_ids),
        "lint": {
            "cold_runs_s": [round(run, 4) for run in runs],
            "cold_median_s": round(statistics.median(runs), 4),
            "findings_byte_identical": True,
        },
        "note": (
            "in-process lint_repo() after one warm-up call; every "
            "run parses and walks each file once, with no cache."
        ),
    }
    RESULT_PATH.write_text(json.dumps(bench, indent=2) + "\n")


def test_full_package_lint(benchmark):
    findings = benchmark(lint_repo)
    assert unsuppressed(findings) == []


def test_full_package_cold_lint_under_two_seconds():
    start = time.perf_counter()
    lint_repo()
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"full-package lint took {elapsed:.2f}s"


def test_single_rule_lint(benchmark):
    # The cheapest configuration (determinism only) bounds the fixed
    # cost of the parse and the walk itself.
    findings = benchmark(lint_repo, ("R2",))
    assert unsuppressed(findings) == []
