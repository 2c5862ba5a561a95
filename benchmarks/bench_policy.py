"""E19 — policy-pack economics: compiled tables and hot-swap.

The budget from ``docs/policy.md`` and ``docs/performance.md``:
**compiled decision tables beat the reference interpreter ≥5x**. The
pack compiler interns facts to bit positions, lowers rule conditions
to integer masks and reuses each issue's resolved finding per
distinct pattern of the facts it reads; the naive
:class:`PolicyInterpreter` (the test oracle, ``tests/policy_oracle.py``)
re-derives everything per call. The benchmark measures both engines
on the same steady-state legal-report workload (Table 1-shaped
synthetic profiles, repeated rounds) and asserts the floor.

Mass-assessment throughput is measured end to end by the
``assess-serial`` and ``assess-pool-audited`` workloads of
``benchmarks/e2e``; batch byte-identity across worker counts is
``tests/test_policy.py::TestBatchByteIdentity``.

Plus the hot-swap demonstration: the same warm executor, the same
request bytes, a pack file edited in place between runs — the second
run must see the new pack (changed digest, changed verdict) without
a restart or cache flush, because the pack content digest is part of
every pack-scoped cache key.

Writes the numbers to ``BENCH_policy.json`` at the repo root.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

from repro.datasets import ResearchProjectGenerator
from repro.ops import (
    BatchExecutor,
    load_requests,
    shutdown_warm_pools,
)
from repro.policy import (
    DEFAULT_PACK,
    PRECAUTIONARY_PACK,
    CompiledPolicy,
    PolicyPack,
)
from tests.policy_oracle import PolicyInterpreter

RESULT_PATH = Path(__file__).parent.parent / "BENCH_policy.json"

WORKERS = 4
PROFILE_SAMPLE = 200
ENGINE_ROUNDS = 5
MIN_COMPILED_SPEEDUP = 5.0
#: A seed whose verdict differs between the bundled packs (the
#: precautionary pack escalates any applicable legal exposure).
SWAP_SEED = 3


def _timed(fn) -> tuple[object, float]:
    gc.collect()
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def _request_file(tmp_path: Path, count: int, pack: Path) -> Path:
    path = tmp_path / f"assess-{count}.jsonl"
    lines = []
    for seed in range(count):
        args = {"seed": seed, "pack": str(pack)}
        lines.append(
            json.dumps({"op": "policy.assess", "args": args})
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _engine_rate(policy, projects) -> float:
    """Steady-state legal reports/s over the sampled workload."""
    for project in projects:  # populate interned-vector tables
        policy.legal_report(
            project.profile,
            project.jurisdictions,
            reb_approved=project.reb_approved,
        )

    def run() -> None:
        for _ in range(ENGINE_ROUNDS):
            for project in projects:
                policy.legal_report(
                    project.profile,
                    project.jurisdictions,
                    reb_approved=project.reb_approved,
                )

    _, seconds = _timed(run)
    return ENGINE_ROUNDS * len(projects) / seconds


def _hot_swap_demo(tmp_path: Path) -> dict:
    """Edit a pack file under a live warm executor; no restart."""
    pack_path = tmp_path / "live-pack.json"
    pack_path.write_text(
        json.dumps(DEFAULT_PACK), encoding="utf-8"
    )
    requests = load_requests(
        _request_file(tmp_path, SWAP_SEED + 1, pack=pack_path)
    )
    executor = BatchExecutor(workers=WORKERS, warm=True)
    before = executor.run(requests)
    # Swap the pack in place: same path, same executor, same pool.
    pack_path.write_text(
        json.dumps(PRECAUTIONARY_PACK), encoding="utf-8"
    )
    after = executor.run(requests)

    def verdict(result, seed: int) -> tuple[str, str]:
        line = json.loads(result.text().splitlines()[seed])
        payload = line["payload"]
        return (
            payload["verdict"],
            payload["pack"]["digest"],
        )

    verdict_before, digest_before = verdict(before, SWAP_SEED)
    verdict_after, digest_after = verdict(after, SWAP_SEED)
    assert digest_before != digest_after, (
        "the edited pack file must change the pack digest"
    )
    assert verdict_before != verdict_after, (
        f"seed {SWAP_SEED} must change verdict under the "
        f"precautionary pack"
    )
    return {
        "seed": SWAP_SEED,
        "digest_before": digest_before,
        "digest_after": digest_after,
        "verdict_before": verdict_before,
        "verdict_after": verdict_after,
        "restart_required": False,
    }


def test_e19_policy_pack_benchmark(tmp_path):
    shutdown_warm_pools()
    try:
        # -- compiled vs interpreted decision tables -----------------
        projects = ResearchProjectGenerator(0).generate(
            PROFILE_SAMPLE
        )
        compiled = CompiledPolicy(
            PolicyPack.from_data(DEFAULT_PACK)
        )
        interpreted = PolicyInterpreter(
            PolicyPack.from_data(DEFAULT_PACK)
        )
        compiled_rate = _engine_rate(compiled, projects)
        interpreted_rate = _engine_rate(interpreted, projects)
        speedup = compiled_rate / interpreted_rate
        assert speedup >= MIN_COMPILED_SPEEDUP, (
            f"compiled tables only {speedup:.1f}x over the "
            f"interpreter (floor {MIN_COMPILED_SPEEDUP}x)"
        )

        hot_swap = _hot_swap_demo(tmp_path)

        bench = {
            "engines": {
                "workload": (
                    f"{PROFILE_SAMPLE} synthetic profiles x "
                    f"{ENGINE_ROUNDS} rounds, steady-state"
                ),
                "compiled_reports_per_second": round(
                    compiled_rate, 1
                ),
                "interpreted_reports_per_second": round(
                    interpreted_rate, 1
                ),
                "speedup": round(speedup, 1),
                "min_speedup_asserted": MIN_COMPILED_SPEEDUP,
            },
            "hot_swap": hot_swap,
            "note": (
                "policy.assess resolves seed -> synthetic project "
                "-> full legal + Menlo + verdict fold under the "
                "requested pack; pack digests key the result "
                "cache, so editing a pack file invalidates without "
                "restart"
            ),
        }
        RESULT_PATH.write_text(
            json.dumps(bench, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    finally:
        shutdown_warm_pools()
