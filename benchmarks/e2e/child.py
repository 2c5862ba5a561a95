"""One workload in one fresh process: inputs, set-up, timed loop, checks.

``run.py`` starts this script once per measurement, with
``PYTHONPATH`` pointing at the checkout's ``src``::

    python3 child.py --workload W --seed S --seconds T \
        --mode measure|setup|trace --work DIR [--smoke]

The child writes its inputs with the standard library only, then
starts the set-up clock, imports ``repro``, warms the context or pool
and stops the clock. ``--mode setup`` exits there. Otherwise it
drives the workload through registered operations via
``repro.ops.execute`` -- the code path the CLI uses -- until
``--seconds`` have passed and at least one full rotation of its input
files is done, checks every output, and prints one JSON object as its
last stdout line. ``--mode trace`` installs the layer wrappers before
anything else, so forked pool workers inherit them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
#: The only directory children write under (``run.WORK``).
SCRATCH = HERE.parent.parent / ".bench_e2e"

#: Batch request files per batch workload, rotated in order.
FILES = 8


def digest(text: str) -> str:
    """BLAKE2b-128 of *text*; transcripts and counters are compared by it."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def write_jsonl(path: Path, requests: list[dict]) -> Path:
    """One ``{"op": ..., "args": ...}`` request per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "".join(json.dumps(request) + "\n" for request in requests),
        encoding="utf-8",
    )
    return path


def assess(seed: int) -> dict:
    return {"op": "policy.assess", "args": {"seed": seed}}


class Workload:
    """Inputs, set-up, one timed call, and the checks of one workload."""

    #: Worker processes the workload's pool adds next to the
    #: coordinator, and which pool they belong to (trace shares).
    pool_workers = 0
    pool_kind: str | None = None
    #: Calls the timed loop makes however short ``--seconds`` is.
    min_calls = 1

    def __init__(self, seed: int, smoke: bool, work: Path) -> None:
        self.seed = seed
        self.scale = "smoke" if smoke else "full"
        self.work = work
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.counts = {
            "transcript_bytes": 0,
            "cache_hits": 0,
            "cache_misses": 0,
        }
        self.ops = None

    def write_inputs(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def call(self, number: int):
        """Run one request, and nothing else: this is what is timed."""
        raise NotImplementedError

    def observe(self, number: int, outcome) -> int:
        """Check one call's outcome; returns the work items it completed."""
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def import_repro(self) -> None:
        import repro.ops

        self.ops = repro.ops
        self.ops.default_registry()

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def expect_golden(self, key: str, value: str) -> None:
        """At seed 0 the digest must match the one recorded."""
        if self.seed != 0:
            return
        goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
        recorded = goldens.get(key, {}).get(self.scale)
        self.expect(
            recorded == value,
            f"{key} digest {value} != golden {recorded} "
            f"({self.scale}, seed 0)",
        )

    def count_batch(self, response) -> dict:
        """Tally one ``batch`` response; returns its summary."""
        summary = response.payload
        self.attempted += summary["requests"]
        self.failed += summary["failed"]
        self.counts["transcript_bytes"] += len(response.text)
        self.counts["cache_hits"] += summary["cache"]["hits"]
        self.counts["cache_misses"] += summary["cache"]["misses"]
        return summary

    def check_transcripts(self, golden: str) -> None:
        """Each file's transcript (``self.digests``, in file order)
        against direct kernel calls, and all of them against the golden."""
        for k, path in enumerate(self.files):
            self.expect(
                self.digests[k] == self.reference_digest(path),
                f"file {k} transcript differs from direct kernel calls",
            )
        self.expect_golden(golden, digest("".join(self.digests)))

    def reference_digest(self, path: Path) -> str:
        """The transcript a file *should* produce, built without the
        batch executor or any cache: one direct kernel call per line."""
        ops = self.ops
        context = ops.RunContext()
        lines = []
        with path.open(encoding="utf-8") as stream:
            for index, raw in enumerate(stream):
                request = json.loads(raw)
                response = ops.execute(
                    request["op"], request["args"], context=context
                )
                body = response.to_dict()
                body.update(index=index, op=request["op"])
                lines.append(ops.emit_jsonl(body) + "\n")
        return digest("".join(lines))

    def close(self) -> None:
        if self.ops is not None:
            self.ops.shutdown_warm_pools()


class AssessSerial(Workload):
    """Distinct ``policy.assess`` seeds through one warm serial batch."""

    min_calls = FILES
    lines = {"full": 500, "smoke": 25}
    batch_args: dict = {"warm": True}

    def write_inputs(self) -> None:
        size = self.lines[self.scale]
        # Seeds 20000·S onwards, so no two --seed values share a
        # project. 8 files of distinct seeds outnumber the 1024-entry
        # FIFO result cache, so every request misses and evicts.
        base = 20000 * self.seed
        self.files = [
            write_jsonl(
                self.work / f"assess-{k}.jsonl",
                [assess(base + k * size + i) for i in range(size)],
            )
            for k in range(FILES)
        ]
        self.warmup = write_jsonl(
            self.work / "warmup.jsonl", [assess(-1), assess(-2)]
        )
        self.size = size
        self.digests: list[str] = []

    def setup(self) -> None:
        self.import_repro()
        self.ops.warm_pool(1, True).context.warm_up()
        self.ops.execute(
            "batch", {"requests": str(self.warmup), **self.batch_args}
        )

    def call(self, number: int):
        return self.ops.execute(
            "batch",
            {"requests": str(self.files[number % FILES]), **self.batch_args},
        )

    def observe(self, number: int, response) -> int:
        k = number % FILES
        summary = self.count_batch(response)
        self.expect(
            summary["failed"] == 0 and summary["requests"] == self.size,
            f"call {number}: {summary['failed']} of "
            f"{summary['requests']} requests failed",
        )
        self.expect(
            summary["cache"]["hits"] == 0,
            f"call {number}: {summary['cache']['hits']} cache hits, "
            "expected every request to miss",
        )
        text_digest = digest(response.text)
        if number < FILES:
            self.digests.append(text_digest)
        self.expect(
            self.digests[k] == text_digest,
            f"call {number}: file {k} transcript changed between visits",
        )
        return self.size

    def check(self) -> None:
        self.check_transcripts("assess")


class AssessPoolAudited(AssessSerial):
    """The same files through a warm two-worker pool, audited."""

    pool_workers = 2
    pool_kind = "ops"

    def write_inputs(self) -> None:
        super().write_inputs()
        self.logs: list[tuple[str, int, str]] = []
        self.batch_args = {
            "workers": 2,
            "warm": True,
            "flight_dir": str(self.work / "flight"),
        }

    def setup(self) -> None:
        self.import_repro()
        pool = self.ops.warm_pool(2, True)
        pool.context.warm_up()
        pool.start()
        self.ops.execute(
            "batch",
            {
                "requests": str(self.warmup),
                "audit_log": str(self.work / "audit-warmup.jsonl"),
                **self.batch_args,
            },
        )

    def call(self, number: int):
        return self.ops.execute(
            "batch",
            {
                "requests": str(self.files[number % FILES]),
                "audit_log": str(self.work / f"audit-{number}.jsonl"),
                **self.batch_args,
            },
        )

    def observe(self, number: int, response) -> int:
        items = super().observe(number, response)
        audit = response.payload["observability"]
        self.expect(
            audit["chain_intact"], f"call {number}: audit chain broken"
        )
        self.expect(
            not response.payload["flight"]["incidents"],
            f"call {number}: flight recorder dumped an incident",
        )
        self.logs.append(
            (audit["audit_log"], audit["audit_events"], audit["tail_digest"])
        )
        return items

    def check(self) -> None:
        for log, events, tail in self.logs:
            verified = self.ops.execute(
                "audit.verify",
                {
                    "log": log,
                    "expect_length": events,
                    "expect_tail": tail,
                },
            )
            self.expect(
                verified.exit_code == 0,
                f"{log}: {verified.text.strip()}",
            )
        super().check()


def _service_file(k: int, seeds: list[int]) -> list[dict]:
    """16 requests: 6 assessments plus one line of 10 catalog ops.

    Every file holds the same op mix, so the per-batch cost does not
    depend on which file a call draws and the median is steady. Only
    argument variants of similar cost rotate between files. ``report``
    is left out: its Markdown ``repr()``s Python sets
    (``repro/reporting/experiments.py``), so its bytes change with the
    hash seed and no golden digest could hold.
    """
    catalog = [
        {"op": "table1", "args": {"format": ("text", "csv", "markdown")[k % 3]}},
        {"op": "stats", "args": {}},
        {
            "op": "codebook.merge",
            "args": {"strategy": ("union", "intersection")[k % 2]},
        },
        {"op": "report.render", "args": {}},
        {"op": "table.latex", "args": {"style": ("booktabs", "plain")[k % 2]}},
        {"op": "legend", "args": {}},
        {"op": "intervals", "args": {}},
        {
            "op": "policy.show",
            "args": {"pack": ("default", "precautionary")[k % 2]},
        },
        {"op": "similarity", "args": {"threshold": (0.5, 0.6, 0.7, 0.8)[k % 4]}},
        {"op": "bibliography", "args": {}},
    ]
    return catalog + [assess(seed) for seed in seeds]


class ServiceRepeat(Workload):
    """16-request batches rotated over 8 files, all served from cache."""

    min_calls = FILES
    size = 16

    def write_inputs(self) -> None:
        rng = random.Random(self.seed)
        self.files = []
        for k in range(FILES):
            seeds = [20000 * self.seed + 6 * k + i for i in range(6)]
            requests = _service_file(k, seeds)
            rng.shuffle(requests)
            self.files.append(
                write_jsonl(self.work / f"service-{k}.jsonl", requests)
            )
        self.digests: list[str] = []

    def setup(self) -> None:
        self.import_repro()
        self.ops.warm_pool(1, True).context.warm_up()
        # Prefill: every line computed once, so the timed phase only reads.
        for path in self.files:
            response = self.ops.execute(
                "batch", {"requests": str(path), "warm": True}
            )
            self.digests.append(digest(response.text))

    def call(self, number: int):
        return self.ops.execute(
            "batch", {"requests": str(self.files[number % FILES]), "warm": True}
        )

    def observe(self, number: int, response) -> int:
        k = number % FILES
        summary = self.count_batch(response)
        self.expect(
            summary["failed"] == 0,
            f"call {number}: {summary['failed']} requests failed",
        )
        self.expect(
            summary["cache"]["hits"] == self.size,
            f"call {number}: {summary['cache']['misses']} cache misses, "
            "expected every request to hit",
        )
        self.expect(
            digest(response.text) == self.digests[k],
            f"call {number}: cached transcript of file {k} differs "
            "from the computed one",
        )
        return self.size

    def check(self) -> None:
        self.check_transcripts("service-repeat")


class PipelineBooter(Workload):
    """Repeated runs of the safeguard pipeline over one booter dump."""

    pool_workers = 2
    pool_kind = "pipeline"
    users = {"full": 2400, "smoke": 240}

    def write_inputs(self) -> None:
        # The pipeline op generates its dump from these arguments.
        self.args = {
            "dataset": "booter",
            "users": self.users[self.scale],
            "days": 90,
            "seed": self.seed,
            "workers": 2,
            "chunk_size": 1024,
        }
        self.counters: list[str] = []

    def setup(self) -> None:
        self.import_repro()
        # A tiny run with the same keys builds the stage runners the
        # coordinator memoises and imports every stage's module.
        self.ops.execute("pipeline", {**self.args, "users": 10})

    @staticmethod
    def deterministic(metrics: dict) -> str:
        """Per-stage counters that must not depend on scheduling."""
        stages = [
            {
                key: value
                for key, value in stage.items()
                if not key.startswith("cache_")
                and key not in ("seconds", "records_per_second")
            }
            for stage in metrics["stages"]
        ]
        return json.dumps(
            {
                "chunks": metrics["chunks"],
                "records": metrics["records"],
                "stages": stages,
            },
            sort_keys=True,
        )

    def call(self, number: int):
        try:
            return self.ops.execute("pipeline", self.args)
        except self.ops.ReproError as exc:
            return exc

    def observe(self, number: int, outcome) -> int:
        self.attempted += 1
        if isinstance(outcome, Exception):
            self.failed += 1
            self.failures.append(f"run {number}: {outcome}")
            return 0
        metrics = outcome.payload
        self.counters.append(self.deterministic(metrics))
        for stage in metrics["stages"]:
            if stage["name"] == "anonymize":
                self.counts["cache_hits"] += stage["cache_hits"]
                self.counts["cache_misses"] += stage["cache_misses"]
        return metrics["records"]

    def check(self) -> None:
        if not self.counters:
            return
        first = self.counters[0]
        self.expect(
            all(counters == first for counters in self.counters),
            "pipeline counters changed between identical runs",
        )
        serial = self.ops.execute("pipeline", {**self.args, "workers": 1})
        self.expect(
            self.deterministic(serial.payload) == first,
            "parallel pipeline counters differ from the serial run",
        )
        self.expect_golden("pipeline-booter", digest(first))


WORKLOADS: dict[str, type[Workload]] = {
    "assess-serial": AssessSerial,
    "assess-pool-audited": AssessPoolAudited,
    "service-repeat": ServiceRepeat,
    "pipeline-booter": PipelineBooter,
}


def _layer_metrics(timer, workload: Workload, wall: float, items: int) -> dict:
    """Per-layer calls and self time per item, and shares of the run.

    A share is self time over the process-seconds of the run: the
    timed wall time times the coordinator plus its pool workers.
    Worker time outside every wrapped layer (idle, IPC, unwrapped
    glue) is the ``workers.untraced`` row, so the shares add up to 1
    exactly when the coordinator's time is fully attributed.
    """
    worker_calls, worker_self = timer.worker_view()
    processes = 1 + workload.pool_workers
    budget = wall * processes
    metrics: dict[str, float] = {}
    for index, name in enumerate(timer.names):
        self_s = timer.self_s[index] + worker_self[index]
        metrics[f"{name}.calls"] = (
            timer.calls[index] + worker_calls[index]
        ) / items
        metrics[f"{name}.self_us"] = self_s / items * 1e6
        metrics[f"{name}.share"] = self_s / budget
    worker_busy = sum(worker_self)
    untraced = wall * workload.pool_workers - worker_busy
    metrics["workers.untraced.self_us"] = untraced / items * 1e6
    metrics["workers.untraced.share"] = untraced / budget
    for kind in ("ops.pool", "pipeline"):
        busy = worker_busy if workload.pool_kind == kind else 0.0
        metrics[f"{kind}.worker_busy_us"] = busy / items * 1e6
        metrics[f"{kind}.utilization"] = (
            busy / (wall * workload.pool_workers) if busy else 0.0
        )
    kernel = timer.names.index("ops.kernel")
    submit = timer.names.index("ops.pool.submit")
    chunks = timer.calls[submit]
    metrics["ops.pool.requests_per_chunk"] = (
        worker_calls[kernel] / chunks
        if chunks and workload.pool_kind == "ops"
        else 0.0
    )
    counts = workload.counts
    lookups = counts["cache_hits"] + counts["cache_misses"]
    hit_ratio = counts["cache_hits"] / lookups if lookups else 0.0
    batch = workload.pool_kind != "pipeline"
    metrics["ops.batch.transcript_bytes"] = counts["transcript_bytes"] / items
    metrics["ops.cache.hits"] = counts["cache_hits"] / items if batch else 0.0
    metrics["ops.cache.misses"] = (
        counts["cache_misses"] / items if batch else 0.0
    )
    metrics["ops.cache.hit_ratio"] = hit_ratio if batch else 0.0
    metrics["anonymization.ip.cache_hit_ratio"] = (
        0.0 if batch else hit_ratio
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--mode", choices=("measure", "setup", "trace"), required=True
    )
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if SCRATCH not in args.work.resolve().parents:
        parser.error(f"--work must lie inside {SCRATCH}")
    # Audit trails append, so a log left by an earlier run would break
    # the chain check: every child starts from an empty directory.
    shutil.rmtree(args.work, ignore_errors=True)
    args.work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, args.work)
    workload.write_inputs()
    timer = None
    if args.mode == "trace":
        import layertrace

        timer = layertrace.install()
    result: dict = {}
    try:
        started = time.perf_counter()
        workload.setup()
        result["setup_s"] = time.perf_counter() - started
        if args.mode != "setup":
            if timer is not None:
                timer.reset()
            durations: list[float] = []
            items: list[int] = []
            loop_started = time.perf_counter()
            while (
                len(durations) < workload.min_calls
                or time.perf_counter() - loop_started < args.seconds
            ):
                number = len(durations)
                call_started = time.perf_counter()
                outcome = workload.call(number)
                durations.append(time.perf_counter() - call_started)
                items.append(workload.observe(number, outcome))
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if timer is not None and sum(items):
                result["layers"] = _layer_metrics(
                    timer, workload, sum(durations), sum(items)
                )
            workload.check()
            result.update(
                attempted=workload.attempted,
                failed=workload.failed,
                failures=workload.failures,
                durations=durations,
                items=items,
                peak_rss_mb=peak_kib / 1024,
            )
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
