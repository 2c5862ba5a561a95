"""End-to-end benchmark of the ``batch`` and ``pipeline`` operations.

Run from the repository root::

    python3 benchmarks/e2e/run.py                      # every workload
    python3 benchmarks/e2e/run.py --workload service-repeat --seed 3
    python3 benchmarks/e2e/run.py --workload assess-serial --trace 1
    python3 benchmarks/e2e/run.py --smoke              # ~1 % size, all checks

Each workload runs in fresh child processes (``child.py``), one at a
time: four set-up-only children and one measuring child whose set-up
is the fifth ``setup_s`` sample. ``--trace 1`` instead runs one
untraced and one traced child and reports the per-layer table plus
the tracing overhead between the two. Every metric prints as
``workload metric value unit`` with its change against the medians
recorded in ``results.json``; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A failed
check prints what failed on stderr, reports no numbers and exits 1.
Uses the standard library only; the program under test is imported
from ``src/`` of the same checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

from stats import median, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORK = ROOT / ".bench_e2e"

#: Fresh processes whose set-up is timed; the median is ``setup_s``.
SETUP_SAMPLES = 5

#: Per-workload limit: its children are killed, with their pool
#: workers, once this many seconds have passed since it started.
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    """A child failed, timed out, or the checkout is incomplete."""


def provenance() -> dict:
    """Host and source identity recorded with every result."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=False,
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_recorded() -> dict:
    """Recorded medians and quartiles, by workload and metric."""
    path = HERE / "results.json"
    return json.loads(path.read_text())["workloads"] if path.exists() else {}


def run_child(
    workload: str,
    mode: str,
    tag: str,
    args: argparse.Namespace,
    deadline: float,
) -> dict:
    """Run ``child.py`` in its own session; returns its JSON result."""
    work = WORK / workload / tag
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    env["TMPDIR"] = str(tmp)
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--work", str(work),
    ]
    if args.smoke:
        command.append("--smoke")
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        output, _ = child.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        output = None
    finally:
        # Pool workers share the child's session; none may outlive it.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if output is None:
        raise BenchmarkError(f"{workload} {tag}: timed out")
    if child.returncode != 0:
        raise BenchmarkError(
            f"{workload} {tag}: child exited with {child.returncode}"
        )
    return json.loads(output.strip().splitlines()[-1])


def end_to_end(
    workload: str, args: argparse.Namespace, deadline: float
) -> tuple[dict, dict, dict]:
    """Untraced measurement: ``(metrics, counts, detail)``."""
    samples = 1 if args.smoke else SETUP_SAMPLES
    setups = [
        run_child(workload, "setup", f"setup{n}", args, deadline)["setup_s"]
        for n in range(samples - 1)
    ]
    main = run_child(workload, "measure", "main", args, deadline)
    setups.append(main["setup_s"])
    durations = main["durations"]
    tail = tail_percentile(durations)
    # Calls within a workload are equal in size, so the median rate is
    # the rate at the median call time: robust to the slow calls a
    # shared host injects, where total items over total time is not.
    rates = [n / d for n, d in zip(main["items"], durations)]
    metrics = {
        "throughput": median(rates),
        "setup_s": median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    detail = {
        "calls": len(durations),
        "items": sum(main["items"]),
        "p50_ms": median(durations) * 1e3,
        "setup_samples": setups,
        "tail": (
            {"percentile": tail[0], "ms": tail[1] * 1e3} if tail else None
        ),
    }
    return metrics, counts_of(main), detail


def traced(
    workload: str, args: argparse.Namespace, deadline: float
) -> tuple[dict, dict, dict]:
    """Per-layer run: ``(metrics, counts, detail)``."""
    plain = run_child(workload, "measure", "untraced", args, deadline)
    layered = run_child(workload, "trace", "traced", args, deadline)
    failures = plain["failures"] + layered["failures"]
    if failures or "layers" not in layered:
        return {}, counts_of(plain, layered), {}
    per_item = [
        sum(run["durations"]) / sum(run["items"]) for run in (plain, layered)
    ]
    metrics = dict(layered["layers"])
    metrics["tracing_overhead"] = per_item[1] / per_item[0]
    detail = {"calls": len(layered["durations"])}
    return metrics, counts_of(plain, layered), detail


def counts_of(*runs: dict) -> dict:
    return {
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "failures": [f for run in runs for f in run["failures"]],
    }


def describe(
    workload: str,
    name: str,
    value: float,
    definition: dict,
    recorded: dict,
) -> str:
    """``workload metric value unit`` plus the change against results.json."""
    line = f"{workload} {name} {value:.6g} {definition['unit']}"
    baseline = recorded.get(workload, {}).get(name, {}).get("median")
    if not baseline:
        return line
    change = (value - baseline) / baseline
    worse = change if definition["better"] == "lower" else -change
    verdict = ""
    if "bound" in definition:
        over = worse > definition["bound"]
        verdict = " (over bound)" if over else " (within bound)"
    return f"{line} {change:+.1%} vs recorded{verdict}"


def main(argv: list[str] | None = None) -> int:
    benchmark = load_benchmark()
    names = tuple(workload["name"] for workload in benchmark["workloads"])
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", choices=names + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        default=0,
        help="1 (or bare --trace): report per-layer metrics instead",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one pass over ~1 %% of each input, every check on",
    )
    parser.add_argument(
        "--out", type=Path, help="also write the full record as JSON"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {ROOT / 'src' / 'repro'} is missing; run from a "
            "full checkout",
            file=sys.stderr,
        )
        return 2
    recorded = load_recorded()
    definitions = {
        metric["name"]: metric
        for metric in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    if args.smoke:
        args.seconds = 0
    expected = {
        metric["name"]
        for metric in benchmark["per_layer" if args.trace else "end_to_end"]
    }
    workloads = names if args.workload == "all" else (args.workload,)
    host = {**provenance(), "seed": args.seed}
    print(
        "# host nproc={nproc} python={python} platform={platform} "
        "commit={commit} seed={seed}".format(**host)
    )
    measure = traced if args.trace else end_to_end
    records = []
    totals = {"attempted": 0, "failed": 0}
    reported: dict = {}
    failures: list[str] = []
    for workload in workloads:
        deadline = time.monotonic() + DEADLINE_S
        try:
            metrics, counts, detail = measure(workload, args, deadline)
        except BenchmarkError as exc:
            failures.append(str(exc))
            continue
        totals["attempted"] += counts["attempted"]
        totals["failed"] += counts["failed"]
        failures.extend(f"{workload}: {f}" for f in counts["failures"])
        if counts["failures"]:
            continue
        if set(metrics) != expected:
            failures.append(
                f"{workload}: metrics {sorted(set(metrics) ^ expected)} "
                "do not match BENCHMARK.json"
            )
            continue
        for name in sorted(metrics):
            print(
                describe(
                    workload, name, metrics[name], definitions[name], recorded
                )
            )
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            reported[key] = {
                "value": metrics[name],
                "unit": definitions[name]["unit"],
            }
        if "p50_ms" in detail:
            tail = detail["tail"]
            print(
                f"# {workload} call latency n={detail['calls']} "
                f"p50={detail['p50_ms']:.4g} ms"
                + (
                    f" p{tail['percentile']}={tail['ms']:.4g} ms"
                    if tail
                    else ""
                )
            )
        records.append(
            {
                "workload": workload,
                "trace": args.trace,
                "seconds": args.seconds,
                "metrics": metrics,
                **counts,
                **detail,
            }
        )
    correct = not failures and totals["attempted"] > 0
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(
            json.dumps(
                {"provenance": host, "correct": correct, "records": records},
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": totals["attempted"],
                "failed": totals["failed"],
                "metrics": reported if correct else {},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
