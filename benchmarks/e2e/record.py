"""Repeat the benchmark over seeds; report spreads, optionally record.

Run from the repository root::

    python3 benchmarks/e2e/record.py --runs 10            # check spreads
    python3 benchmarks/e2e/record.py --runs 5 --write     # new results.json

Each run is one ``run.py --workload W --seed S`` invocation, seeds
``--first-seed`` onwards, workloads one after another. For every
end-to-end metric the table gives the median, the quartiles and the
spread -- interquartile distance over median, as
``statistics.quantiles(values, n=4)`` gives them -- next to the
metric's bound, and the median's change against ``results.json``.
Exits 1 if a run fails its checks or a spread other than
``setup_s``'s exceeds its bound. ``--write`` replaces
``results.json`` with these medians and quartiles.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, WORK, load_benchmark, load_recorded, provenance
from stats import quartiles, spread


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    benchmark = load_benchmark()
    names = tuple(workload["name"] for workload in benchmark["workloads"])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument(
        "--workload", choices=names + ("all",), default="all"
    )
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    recorded = load_recorded()
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    workloads = names if args.workload == "all" else (args.workload,)
    WORK.mkdir(parents=True, exist_ok=True)
    results: dict = {}
    ok = True
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seeds:
            with tempfile.NamedTemporaryFile(
                dir=WORK, suffix=".json"
            ) as out:
                run = subprocess.run(
                    [
                        sys.executable,
                        str(HERE / "run.py"),
                        "--workload", workload,
                        "--seed", str(seed),
                        "--out", out.name,
                    ],
                    cwd=ROOT,
                    capture_output=True,
                    text=True,
                    check=False,
                )
                if run.returncode != 0:
                    print(f"{workload} seed {seed} FAILED", file=sys.stderr)
                    print(run.stderr, file=sys.stderr)
                    ok = False
                    continue
                record = json.loads(Path(out.name).read_text())
            for name, value in record["records"][0]["metrics"].items():
                values[name].append(value)
        results[workload] = {}
        for name, series in values.items():
            if not series:
                continue
            q1, q2, q3 = quartiles(series)
            share = spread(series)
            bound = bounds[name]["bound"]
            before = recorded.get(workload, {}).get(name, {}).get("median")
            change = f"{(q2 - before) / before:+.1%}" if before else "n/a"
            verdict = "ok" if share <= bound / 3 else "WIDE"
            if share > bound:
                verdict = "OVER"
                ok = ok and name == "setup_s"
            print(
                f"{workload} {name} median={q2:.6g} q1={q1:.6g} "
                f"q3={q3:.6g} spread={share:.1%} bound={bound:.0%} "
                f"{verdict} median vs recorded {change}"
            )
            results[workload][name] = {
                "median": q2,
                "q1": q1,
                "q3": q3,
                "spread": share,
                "values": series,
            }
    if args.write and ok:
        (HERE / "results.json").write_text(
            json.dumps(
                {
                    "provenance": provenance(),
                    "runs": args.runs,
                    "seeds": seeds,
                    "workloads": results,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
