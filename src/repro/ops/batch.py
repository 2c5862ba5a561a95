"""The batch executor: a JSONL stream of requests through the kernel.

``repro-ethics batch requests.jsonl --workers 4`` reads one JSON
object per line (``{"op": "table1", "args": {"format": "csv"}}``),
fans the requests out over a pool of pre-warmed worker processes,
and emits one compact JSON response line per request **in input
order** — byte-identical for any worker count, because results
come back through the warm pool's ordered drain
(:class:`~repro.ops.pool.OrderedDrain`), the same one the safeguard
pipeline runs on. Each response
line carries the operation's structured payload plus the exact
stdout the equivalent subcommand would have produced, so a batch run
is a verifiable transcript of serial CLI invocations.

The parallel path is **cache-aware** and **chunked** (see
:mod:`repro.ops.pool`): the coordinator validates every distinct
operation once up front (an unknown op never spins up a worker),
serves pure requests whose content address is already in its shared
:class:`~repro.ops.cache.ResultCache` without touching the pool,
groups the rest into contiguous per-worker chunks, and folds the
``(key, response)`` pairs each chunk computed back into the shared
cache — so a pure result computed by worker A is a coordinator hit
for worker B's identical request. With ``warm=True`` the pool, the
coordinator context and the shared cache all persist across batch
runs, which is what turns the old cold-start inversion (402 req/s at
4 workers vs 2802 serial) into a strict win.

Observability mirrors the pipeline's cross-process design: when the
coordinator runs an enabled observer, each worker request executes
under a :class:`~repro.observability.worker.TelemetryShard` whose
captured events (``ops/request-started``, ``ops/request-completed``
or ``ops/request-failed``) replay into the coordinator's single-
writer chain in input order — coordinator-served cache hits emit the
same bracket inline, so the chain content stays invariant under both
the worker count and the dispatch plan.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections.abc import Sequence
from pathlib import Path

from ..errors import BatchError, ReproError
from ..observability import (
    RequestSample,
    audit_event,
    flight_recorder,
    get_observer,
    window_series,
)
from ..observability.worker import replay_shard
from .cache import ResultCache, cache_key
from .context import RunContext
from .failures import describe_failure
from .kernel import execute
from .pool import (
    ChunkResult,
    WarmPool,
    auto_chunk_size,
    warm_pool,
)
from .spec import (
    Arg,
    Operation,
    OpResponse,
    build_request,
    emit_jsonl,
)

__all__ = [
    "BatchExecutor",
    "BatchRequest",
    "BatchResult",
    "batch_operation",
    "load_requests",
]


@dataclasses.dataclass(frozen=True)
class BatchRequest:
    """One parsed line of a batch request file."""

    index: int
    op: str
    args: dict


@dataclasses.dataclass(frozen=True)
class BatchResult:
    """Everything a batch run produced: ordered lines + summary."""

    lines: tuple[dict, ...]
    summary: dict

    def text(self) -> str:
        """The JSONL transcript (one compact line per request)."""
        return "".join(
            emit_jsonl(line) + "\n" for line in self.lines
        )


def _parse_request(
    path: str | Path, number: int, line: str, index: int
) -> BatchRequest | None:
    """Parse one raw line; ``None`` for blanks, BatchError otherwise."""
    if not line.strip():
        return None
    try:
        body = json.loads(line)
    except json.JSONDecodeError as exc:
        raise BatchError(
            f"{path}:{number}: invalid JSON: {exc}"
        ) from exc
    if not isinstance(body, dict) or not isinstance(
        body.get("op"), str
    ):
        raise BatchError(
            f"{path}:{number}: each request needs an 'op' string"
        )
    args = body.get("args", {})
    if not isinstance(args, dict):
        raise BatchError(
            f"{path}:{number}: 'args' must be an object"
        )
    unknown = set(body) - {"op", "args"}
    if unknown:
        raise BatchError(
            f"{path}:{number}: unknown request keys "
            f"{sorted(unknown)}"
        )
    return BatchRequest(index=index, op=body["op"], args=args)


def load_requests(path: str | Path) -> tuple[BatchRequest, ...]:
    """Parse a JSONL request file; blank lines are skipped.

    Every line must be a JSON object with an ``op`` string and an
    optional ``args`` object; anything else raises
    :class:`~repro.errors.BatchError` naming the offending line.
    The file is streamed line by line, so a 100k-request file is
    never held in memory twice (once raw, once parsed).
    """
    requests: list[BatchRequest] = []
    try:
        with Path(path).open(encoding="utf-8") as stream:
            for number, line in enumerate(stream, start=1):
                request = _parse_request(
                    path, number, line, len(requests)
                )
                if request is not None:
                    requests.append(request)
    except OSError as exc:
        raise BatchError(
            f"cannot read batch file {str(path)!r}: {exc}"
        ) from exc
    return tuple(requests)


#: Per-process memo of batch-admitted operations, resolved once per
#: distinct name (coordinator *and* worker) instead of per request.
_BATCHABLE_OPS: dict[str, Operation] = {}


def _batchable_operation(name: str) -> Operation:
    """Resolve *name* to a batch-admitted operation, memoised.

    The registry lookup and the batchable check run once per
    distinct operation name per process — the old per-request
    ``default_registry()`` round trip is gone from the hot path.
    """
    operation = _BATCHABLE_OPS.get(name)
    if operation is None:
        from .catalog import default_registry

        operation = default_registry().get(name)
        if not operation.batchable:
            raise BatchError(
                f"operation {operation.name!r} is not batchable"
            )
        _BATCHABLE_OPS[name] = operation
    return operation


def _resolve_operations(
    requests: Sequence[BatchRequest],
) -> dict[str, Operation]:
    """Validate every distinct op up front, before any pool work.

    Returns the admitted operations by name; a name that is unknown
    or not batchable is simply absent — its requests fail fast as
    local error lines without a single worker being spawned.
    """
    operations: dict[str, Operation] = {}
    for name in {request.op for request in requests}:
        try:
            operations[name] = _batchable_operation(name)
        except ReproError:
            continue
    return operations


def _run_one(
    index: int, name: str, values: dict, ctx: RunContext
) -> dict:
    """Execute one request; domain failures become failed lines.

    Emits the per-request audit bracket around the kernel call —
    captured by the worker shard in parallel mode, chained inline in
    serial mode — and never lets a :class:`ReproError` escape: the
    failure maps through the kernel's error table into the line body,
    so one bad request cannot abort the batch.
    """
    audit_event("ops", "request-started", subject=name, index=index)
    try:
        operation = _batchable_operation(name)
        response = execute(operation, values, context=ctx)
    except ReproError as exc:
        message, code = describe_failure(exc)
        audit_event(
            "ops",
            "request-failed",
            subject=name,
            index=index,
            error=message,
        )
        return {
            "error": message,
            "error_type": type(exc).__name__,
            "exit_code": code,
            "index": index,
            "ok": False,
            "op": name,
        }
    audit_event(
        "ops",
        "request-completed",
        subject=name,
        index=index,
        exit_code=response.exit_code,
    )
    return {
        "exit_code": response.exit_code,
        "index": index,
        "ok": response.exit_code == 0,
        "op": name,
        "output": response.text,
        "payload": dict(response.payload),
    }


#: Worker-process persistent contexts, keyed by cache enablement.
_WORKER_CONTEXTS: dict[bool, RunContext] = {}


def _worker_context(use_cache: bool) -> RunContext:
    """The process-local persistent context for batch workers."""
    ctx = _WORKER_CONTEXTS.get(use_cache)
    if ctx is None:
        ctx = RunContext(
            cache=ResultCache() if use_cache else None
        )
        _WORKER_CONTEXTS[use_cache] = ctx
    return ctx


def _stats_delta(
    cache: ResultCache, hits_before: int, misses_before: int
) -> dict:
    """This run's slice of a possibly long-lived cache's counters."""
    return {
        "entries": len(cache),
        "hits": cache.hits - hits_before,
        "maxsize": cache.maxsize,
        "misses": cache.misses - misses_before,
    }


#: Dispatch-plan entry kinds: serve locally vs drain from a chunk.
_LOCAL = "local"
_POOL = "pool"

#: Requests listed verbatim in a flight-recorded logical plan before
#: the remainder is summarised as an ``omitted`` count (no silent
#: truncation — the header says exactly what fell off).
_PLAN_ORDER_LIMIT = 64


def _logical_plan(requests: Sequence[BatchRequest]) -> dict:
    """The *logical* dispatch plan the flight recorder rings.

    Input-order request descriptors and per-op totals — a pure
    function of the request file, so incident-bundle bodies stay
    byte-identical across worker counts. The physical configuration
    (worker count, chunking) is deliberately absent: it lives in the
    bundle envelope and in the audit chain's honest ``workers``
    fields.
    """
    ops: dict[str, int] = {}
    for request in requests:
        ops[request.op] = ops.get(request.op, 0) + 1
    order = [
        [request.index, request.op]
        for request in requests[:_PLAN_ORDER_LIMIT]
    ]
    plan = {
        "ops": dict(sorted(ops.items())),
        "order": order,
        "requests": len(requests),
    }
    if len(requests) > len(order):
        plan["omitted"] = len(requests) - len(order)
    return plan


def _cache_outcome(
    cache: ResultCache | None, hits_before: int, misses_before: int
) -> str | None:
    """Classify one request's cache interaction from counter deltas."""
    if cache is None:
        return None
    if cache.hits > hits_before:
        return "hit"
    if cache.misses > misses_before:
        return "miss"
    return None


class BatchExecutor:
    """Streams batch requests through the kernel, in input order.

    ``workers=1`` executes inline under the installed observer;
    more workers fan requests out over a pool of pre-warmed worker
    processes (:class:`~repro.ops.pool.WarmPool`) in contiguous
    chunks, with cache-aware dispatch: pure requests whose content
    address is already in the coordinator's shared cache never reach
    the pool, and every chunk ships the pure results it computed
    back for the coordinator to learn from. Results — and telemetry
    shards — drain strictly in input order, so the JSONL transcript
    and the audit-chain content are invariant under the worker
    count, the chunk size and the dispatch plan.

    ``warm=True`` reuses the process-lifetime pool (and its shared
    cache) registered for this configuration instead of building and
    tearing down a pool per run — the service mode. With
    ``warm=False`` (the default) the pool and cache live for one
    :meth:`run` call, matching the one-shot CLI invocation.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        use_cache: bool = True,
        warm: bool = False,
        chunk_size: int | None = None,
    ) -> None:
        if workers < 1:
            raise BatchError("workers must be at least 1")
        if chunk_size is not None and chunk_size < 1:
            raise BatchError("chunk size must be at least 1")
        self.workers = workers
        self.use_cache = use_cache
        self.warm = warm
        self.chunk_size = chunk_size

    def run(
        self, requests: Sequence[BatchRequest]
    ) -> BatchResult:
        """Execute *requests*; returns ordered lines and a summary."""
        recorder = flight_recorder()
        incidents_before = (
            len(recorder.incidents) if recorder is not None else 0
        )
        if recorder is not None:
            recorder.note_plan(_logical_plan(requests))
        audit_event(
            "ops",
            "batch-started",
            requests=len(requests),
            workers=self.workers,
        )
        operations = _resolve_operations(requests)
        try:
            if self.workers == 1:
                lines, cache_stats = self._run_serial(requests)
            else:
                lines, cache_stats = self._run_parallel(
                    requests, operations
                )
        except ReproError as exc:
            # Dump the ring unless a deeper layer (the warm pool's
            # worker-lost path) already captured this failure — one
            # incident per fault, not one per stack frame.
            if (
                recorder is not None
                and len(recorder.incidents) == incidents_before
            ):
                recorder.incident(
                    "batch-error",
                    reason=f"{type(exc).__name__}: {exc}",
                    workers=self.workers,
                )
            raise
        ok = sum(1 for line in lines if line["ok"])
        failed = len(lines) - ok
        if recorder is not None:
            recorder.record_metric("ops.batch.requests", len(lines))
            recorder.record_metric("ops.batch.ok", ok)
            recorder.record_metric("ops.batch.failed", failed)
        audit_event(
            "ops",
            "batch-finished",
            requests=len(requests),
            ok=ok,
            failed=failed,
        )
        if recorder is not None and failed:
            # Degraded-but-completed runs dump too: failed lines are
            # input-order facts, so this bundle's body is the
            # byte-identical artifact the acceptance gate compares
            # across worker counts.
            recorder.incident(
                "batch-degraded",
                reason=(
                    f"{failed} of {len(lines)} requests failed"
                ),
                workers=self.workers,
            )
        summary = {
            "cache": {
                "enabled": self.use_cache,
                "scope": self._cache_scope(),
            },
            "failed": len(lines) - ok,
            "ok": ok,
            "requests": len(requests),
            "workers": self.workers,
        }
        if cache_stats is not None:
            summary["cache"].update(cache_stats)
        return BatchResult(lines=lines, summary=summary)

    def _cache_scope(self) -> str:
        """The summary label for where cached results live."""
        if self.workers == 1:
            return "warm" if self.warm else "run"
        return "shared-warm" if self.warm else "shared-run"

    def _run_serial(
        self, requests: Sequence[BatchRequest]
    ) -> tuple[tuple[dict, ...], dict | None]:
        """Inline execution under the installed observer."""
        if self.warm:
            # The workers=1 warm pool never spawns a process; it is
            # purely the persistent coordinator context + cache.
            ctx = warm_pool(1, self.use_cache).context
        else:
            ctx = RunContext(
                cache=ResultCache() if self.use_cache else None
            )
        cache = ctx.cache
        hits_before = cache.hits if cache is not None else 0
        misses_before = cache.misses if cache is not None else 0
        series = window_series()
        if series is None:
            lines = tuple(
                _run_one(
                    request.index, request.op, request.args, ctx
                )
                for request in requests
            )
        else:
            collected: list[dict] = []
            for request in requests:
                run_hits = cache.hits if cache is not None else 0
                run_misses = (
                    cache.misses if cache is not None else 0
                )
                started = time.perf_counter()
                line = _run_one(
                    request.index, request.op, request.args, ctx
                )
                elapsed = time.perf_counter() - started
                collected.append(line)
                series.observe(
                    RequestSample(
                        ok=line["ok"],
                        latency=elapsed,
                        queue_depth=0,
                        busy_workers=1,
                        workers=1,
                        cache=_cache_outcome(
                            cache, run_hits, run_misses
                        ),
                    )
                )
            lines = tuple(collected)
        stats = None
        if cache is not None:
            stats = _stats_delta(cache, hits_before, misses_before)
        return lines, stats

    def _run_parallel(
        self,
        requests: Sequence[BatchRequest],
        operations: dict[str, Operation],
    ) -> tuple[tuple[dict, ...], dict | None]:
        """Cache-aware, chunked fan-out with strict in-order drain."""
        pool = (
            warm_pool(self.workers, self.use_cache)
            if self.warm
            else WarmPool(self.workers, use_cache=self.use_cache)
        )
        try:
            return self._dispatch(pool, requests, operations)
        finally:
            if not self.warm:
                pool.shutdown()

    def _plan(
        self,
        requests: Sequence[BatchRequest],
        operations: dict[str, Operation],
        ctx: RunContext,
    ) -> tuple[list[tuple], list[tuple]]:
        """Split requests into local serves and contiguous chunks.

        A request stays **local** (served by the coordinator at its
        drain position, without touching the pool) when it cannot be
        dispatched at all — unknown or non-batchable op, malformed
        pure-op arguments — or when it is a pure request whose
        content address is already in the shared cache *or* already
        scheduled on an earlier chunk of this run: the ordered drain
        guarantees the earlier chunk's results merge in before the
        duplicate is served. Everything else lands in chunk order on
        the pool.
        """
        cache = ctx.cache
        entries: list[tuple] = []
        pending: list[tuple[int, str | None]] = []
        scheduled: set[str] = set()
        for request in requests:
            operation = operations.get(request.op)
            if operation is None:
                entries.append((_LOCAL, request, 0, 0))
                continue
            key = None
            if cache is not None and operation.pure:
                try:
                    built = build_request(operation, request.args)
                    digest = ctx.cache_digest(operation, built)
                except ReproError:
                    # Doomed request: fails identically inline.
                    entries.append((_LOCAL, request, 0, 0))
                    continue
                key = cache_key(operation.name, built, digest)
                if key in cache or key in scheduled:
                    entries.append((_LOCAL, request, 0, 0))
                    continue
                scheduled.add(key)
            entries.append((_POOL, request, 0, 0))
            pending.append((len(entries) - 1, key))
        size = self.chunk_size or auto_chunk_size(
            len(pending), self.workers
        )
        chunks: list[tuple] = []
        for offset in range(0, len(pending), size):
            block = pending[offset : offset + size]
            chunk_id = len(chunks)
            chunk = []
            for position, (entry_index, key) in enumerate(block):
                _, request, _, _ = entries[entry_index]
                entries[entry_index] = (
                    _POOL,
                    request,
                    chunk_id,
                    position,
                )
                chunk.append(
                    (request.index, request.op, request.args, key)
                )
            chunks.append(tuple(chunk))
        return entries, chunks

    def _dispatch(
        self,
        pool: WarmPool,
        requests: Sequence[BatchRequest],
        operations: dict[str, Operation],
    ) -> tuple[tuple[dict, ...], dict | None]:
        """Run the dispatch plan; drain strictly in input order."""
        ctx = pool.context
        cache = pool.cache
        hits_before = cache.hits if cache is not None else 0
        misses_before = cache.misses if cache is not None else 0
        plan, chunks = self._plan(requests, operations, ctx)
        drain = pool.map_requests(
            chunks, get_observer().enabled, window=self.workers * 2
        )
        drained = -1
        result: ChunkResult | None = None
        worker_hits = 0
        worker_misses = 0
        lines: list[dict] = []
        series = window_series()

        def observe_line(
            line: dict, latency: float, outcome: str | None
        ) -> None:
            if series is None:
                return
            series.observe(
                RequestSample(
                    ok=line["ok"],
                    latency=latency,
                    queue_depth=len(drain),
                    busy_workers=min(len(drain), self.workers),
                    workers=self.workers,
                    cache=outcome,
                )
            )

        try:
            for kind, request, chunk_id, position in plan:
                if kind == _LOCAL:
                    local_hits = cache.hits if cache is not None else 0
                    local_misses = (
                        cache.misses if cache is not None else 0
                    )
                    started = time.perf_counter()
                    line = _run_one(
                        request.index,
                        request.op,
                        request.args,
                        ctx,
                    )
                    lines.append(line)
                    observe_line(
                        line,
                        time.perf_counter() - started,
                        _cache_outcome(cache, local_hits, local_misses),
                    )
                    continue
                # Plan entries name chunks in submission order, so the
                # drain reaches this one after merging every earlier
                # chunk's pure results into the shared cache.
                while drained < chunk_id:
                    result = next(drain)
                    if cache is not None:
                        cache.merge(result.pairs)
                    worker_hits += result.hits
                    worker_misses += result.misses
                    drained += 1
                shard = result.shards[position]
                if shard is not None:
                    replay_shard(shard)
                line = result.lines[position]
                lines.append(line)
                # Latency and cache outcome were measured in the worker
                # around the request itself, so queue wait is not
                # charged to the request.
                observe_line(line, *result.samples[position])
        finally:
            drain.close()
        stats = None
        if cache is not None:
            coordinator = _stats_delta(
                cache, hits_before, misses_before
            )
            stats = {
                "coordinator": coordinator,
                "entries": coordinator["entries"],
                "hits": coordinator["hits"] + worker_hits,
                "misses": coordinator["misses"] + worker_misses,
                "workers": {
                    "hits": worker_hits,
                    "misses": worker_misses,
                },
            }
        return tuple(lines), stats


def _run_batch(request: dict, ctx: RunContext) -> OpResponse:
    """The ``batch`` operation handler."""
    from ..observability import FlightRecorder, Observer, observed

    requests = load_requests(request["requests"])
    executor = BatchExecutor(
        workers=request["workers"],
        use_cache=not request["no_cache"],
        warm=request["warm"],
        chunk_size=request["chunk_size"],
    )
    recorder = None
    if request["flight_dir"] is not None:
        recorder = FlightRecorder(
            capacity=request["flight_capacity"],
            dump_dir=request["flight_dir"],
        )
    observability = None
    if request["audit_log"] is not None:
        observer = ctx.make_observer(request["audit_log"]).attach(
            flight=recorder
        )
        with observed(observer):
            try:
                result = executor.run(requests)
            finally:
                observer.trail.close()
        verification = observer.trail.verify()
        observability = {
            "audit_events": len(observer.trail),
            "audit_log": str(observer.trail.path),
            "chain_intact": verification.ok,
            "tail_digest": observer.trail.tail_digest,
        }
    elif recorder is not None:
        with observed(Observer(flight=recorder)):
            result = executor.run(requests)
    else:
        result = executor.run(requests)
    payload = dict(result.summary)
    if observability is not None:
        payload["observability"] = observability
    if recorder is not None:
        payload["flight"] = {
            "capacity": recorder.capacity,
            "dir": str(recorder.dump_dir),
            "incidents": [
                {
                    "digest": bundle.digest(),
                    "frames": len(bundle.records),
                    "kind": bundle.kind,
                }
                for bundle in recorder.incidents
            ],
        }
    return OpResponse(
        payload=payload,
        text=result.text(),
        exit_code=0 if payload["failed"] == 0 else 1,
    )


def batch_operation() -> Operation:
    """The registered ``batch`` operation definition."""
    return Operation(
        name="batch",
        help=(
            "stream a JSONL file of operation requests through the "
            "service kernel and print one response line per request"
        ),
        handler=_run_batch,
        args=(
            Arg(
                "requests",
                required=True,
                help=(
                    "path to a JSONL file; each line is "
                    '{"op": NAME, "args": {...}}'
                ),
            ),
            Arg(
                "--workers",
                kind=int,
                default=1,
                help=(
                    "process-pool size; responses are byte-identical "
                    "for any value"
                ),
            ),
            Arg(
                "--warm",
                flag=True,
                help=(
                    "reuse the process-lifetime warm worker pool and "
                    "shared result cache across batch runs (service "
                    "mode) instead of building a pool per run"
                ),
            ),
            Arg(
                "--chunk-size",
                kind=int,
                default=None,
                metavar="N",
                help=(
                    "requests per worker chunk (default: sized from "
                    "the request count and worker count); the "
                    "transcript is byte-identical for any value"
                ),
            ),
            Arg(
                "--audit-log",
                default=None,
                metavar="PATH",
                help=(
                    "record per-request audit events as a tamper-"
                    "evident JSONL trail (merged in input order from "
                    "worker telemetry shards)"
                ),
            ),
            Arg(
                "--no-cache",
                flag=True,
                help=(
                    "disable the content-addressed result cache for "
                    "pure operations"
                ),
            ),
            Arg(
                "--flight-dir",
                default=None,
                metavar="PATH",
                help=(
                    "enable the flight recorder and dump hash-"
                    "chained incident bundles (worker loss, batch "
                    "errors, failed requests) into this directory"
                ),
            ),
            Arg(
                "--flight-capacity",
                kind=int,
                default=256,
                metavar="N",
                help=(
                    "flight-recorder ring size: how many recent "
                    "events/spans/metric deltas an incident bundle "
                    "carries (default: 256)"
                ),
            ),
        ),
        batchable=False,
    )
