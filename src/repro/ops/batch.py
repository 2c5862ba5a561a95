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

Every run executes one **cache-aware**, **chunked** dispatch plan
(see :mod:`repro.ops.pool`): the coordinator validates every distinct
operation once up front (an unknown op never spins up a worker),
serves pure requests whose content address is already in its
:class:`~repro.ops.cache.ResultCache` without touching the pool,
groups the rest into contiguous per-worker chunks, and folds the
response lines each chunk computed into that cache — so a pure
result computed by worker A is a coordinator hit for worker B's
identical request. Workers keep no cache of their own: the
coordinator's is the only place a pure result is stored, and it
counts every pure request it dispatches as one miss, so hits and
misses read the same at any worker count. ``workers=1`` is the same
plan with every request served locally: no chunk, no worker process.
With ``warm=True`` the pool, the coordinator context and the cache
all persist across batch runs, which is what turns the old
cold-start inversion (402 req/s at 4 workers vs 2802 serial) into a
strict win. Every request, local or in a worker, is run by one
helper (:func:`_run_one`). The executor reads no clock: runtime
timing belongs to the tracer's spans, whose registry each chunk
ships back.

Observability mirrors the pipeline's cross-process design: when the
coordinator runs an enabled observer, each worker chunk executes
under one :class:`~repro.observability.worker.TelemetryShard`, cut
into one shard per request, whose captured events
(``ops/request-started``, ``ops/request-completed`` or
``ops/request-failed``) replay into the coordinator's single-writer
chain in input order — coordinator-served cache hits emit the same
bracket inline, so the chain content stays invariant under both the
worker count and the dispatch plan. The plan computes each pure
request's canonical form and cache key once; a worker serves under
the form its chunk entry carries, and the coordinator keeps the key.
A coordinator-served cache hit finds by that key the transcript body
its cache entry keeps (:meth:`~repro.ops.cache.ResultCache.body`), so
a repeated hit encodes only its line's four-member head.

A warm, cached executor also memoises each hit's raw line bytes to
its parsed op and args, canonical request and cache key
(:meth:`~repro.ops.cache.ResultCache.remember`), for as long as the
cache entry lives. The next run reads that line back from the memo
(:meth:`BatchExecutor.load`) instead of parsing, canonicalising and
hashing it again, so a repeated line costs one dict lookup before its
cache hit. Misses memoise nothing, and neither do lines whose key
depends on more than their bytes: a pack-scoped request naming a pack
file is rehashed on every run, so an edited pack is a miss at once.
"""

from __future__ import annotations

import dataclasses
import json
import os
from collections.abc import Iterator, Sequence
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path

from ..errors import BatchError, ReproError
from ..observability import audit_event, flight_recorder, get_observer
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


#: Memo state: left out of equality and ``repr``, so a memo-served
#: :class:`BatchRequest` equals its plainly parsed twin.
_MEMO_STATE = {"default": None, "compare": False, "repr": False}


@dataclasses.dataclass(slots=True)
class BatchRequest:
    """One parsed line of a batch request file.

    A line read back from a warm executor's memo also carries its
    canonical request (*built*) and cache *key*; a line parsed
    against a memo keeps its raw bytes (*line*), so a cache hit can
    memoise it. Plain :func:`load_requests` output sets none of them.
    Not frozen: a memo-served line is one dict lookup and this
    constructor, and frozen fields would each cost an
    ``object.__setattr__`` call. Nothing mutates a request.
    """

    index: int
    op: str
    args: dict
    built: dict | None = dataclasses.field(**_MEMO_STATE)
    key: str | None = dataclasses.field(**_MEMO_STATE)
    line: bytes | None = dataclasses.field(**_MEMO_STATE)


def _line_body(line: dict) -> str:
    """The encoded ``"output":…,"payload":…`` of a successful line."""
    return emit_jsonl(
        {"output": line["output"], "payload": line["payload"]}
    )[1:-1]


def _encode_line(line: dict, body: str | None) -> str:
    """One transcript line, byte-identical to ``emit_jsonl(line)``.

    A successful line's four small members (``exit_code``,
    ``index``, ``ok``, ``op``) sort before ``output`` and
    ``payload``, so the line is that head joined to the body: the
    kept *body* of a cache hit, or one encoded now. A failed line is
    encoded whole.
    """
    if "output" not in line:
        return emit_jsonl(line) + "\n"
    if body is None:
        body = _line_body(line)
    ok = "true" if line["ok"] else "false"
    return (
        f'{{"exit_code":{line["exit_code"]},"index":{line["index"]},'
        f'"ok":{ok},"op":{encode_basestring_ascii(line["op"])},'
        f"{body}}}\n"
    )


@dataclasses.dataclass(frozen=True)
class BatchResult:
    """Everything a batch run produced: ordered lines + summary.

    ``bodies`` holds, per line, the body its cache entry keeps (a
    coordinator-served hit) or ``None`` (encoded by :meth:`text`).
    """

    lines: tuple[dict, ...]
    summary: dict
    bodies: tuple[str | None, ...] = dataclasses.field(
        repr=False, compare=False
    )

    def text(self) -> str:
        """The JSONL transcript (one compact line per request)."""
        return "".join(map(_encode_line, self.lines, self.bodies))


def _parse_request(
    path: str | Path, number: int, line: bytes, index: int, keep: bool
) -> BatchRequest | None:
    """Parse one raw line; ``None`` for blanks, BatchError otherwise.

    With *keep* the request holds on to its raw *line*.
    """
    if not line.strip():
        return None
    try:
        body = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
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
    return BatchRequest(
        index=index,
        op=body["op"],
        args=args,
        line=line if keep else None,
    )


def load_requests(
    path: str | Path, memo: ResultCache | None = None
) -> tuple[BatchRequest, ...]:
    """Parse a JSONL request file; blank lines are skipped.

    Every line must be UTF-8 encoding a JSON object with an ``op``
    string and an optional ``args`` object; anything else (nesting
    too deep to parse included) raises
    :class:`~repro.errors.BatchError` naming the offending line.
    The file is streamed line by line, so without a *memo* a
    100k-request file is never held in memory twice (once raw, once
    parsed).

    With a *memo* (see :meth:`BatchExecutor.load`), a line whose
    bytes it recalls becomes its memoised request unparsed, and every
    parsed line keeps its raw bytes for the executor to memoise.
    """
    requests: list[BatchRequest] = []
    recall = memo.recall if memo is not None else None
    try:
        with open(os.fspath(path), "rb") as stream:
            for number, line in enumerate(stream, start=1):
                if recall is not None:
                    known = recall(line)
                    if known is not None:
                        requests.append(
                            BatchRequest(len(requests), *known)
                        )
                        continue
                request = _parse_request(
                    path, number, line, len(requests), memo is not None
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


def _memoisable(operation: Operation, built: dict) -> bool:
    """Whether a pure request's cache key follows from its line alone.

    A pack-scoped request naming a pack file keys on the file's
    current digest, so its line is rehashed on every run (hot-swap);
    the default and bundled packs are in-memory constants.
    """
    if not operation.pack_scoped:
        return True
    from ..policy import bundled_pack_names

    pack = built.get("pack")
    return pack is None or pack in bundled_pack_names()


def _run_one(
    index: int,
    name: str,
    values: dict | None,
    ctx: RunContext,
    built: dict | None = None,
    key: str | None = None,
) -> dict:
    """Execute one request; domain failures become failed lines.

    Emits the per-request audit bracket around the kernel call —
    captured by the worker shard when a worker serves it, chained
    inline when the coordinator does — and never lets a
    :class:`ReproError` escape: the failure maps through the kernel's
    error table into the line body, so one bad request cannot abort
    the batch. *built*/*key* are the canonical request and cache key
    the dispatch plan already computed, if it did.
    """
    audit_event("ops", "request-started", subject=name, index=index)
    try:
        operation = _batchable_operation(name)
        response = execute(
            operation, values, context=ctx, request=built, key=key
        )
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


def _responses(
    keys: tuple[str | None, ...], lines: Sequence[dict]
) -> Iterator[tuple[str, OpResponse]]:
    """The ``(key, response)`` of each pure line a worker answered.

    A line with an ``output`` came from a response (exit code 0 or
    not), which a serial run would have stored; the entry gets a
    payload dict of its own, apart from the line's.
    """
    for key, line in zip(keys, lines):
        if key is not None and "output" in line:
            yield key, OpResponse(
                payload=dict(line["payload"]),
                text=line["output"],
                exit_code=line["exit_code"],
            )


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


class BatchExecutor:
    """Streams batch requests through the kernel, in input order.

    Every run goes through one dispatch plan on a
    :class:`~repro.ops.pool.WarmPool`. More than one worker fans
    requests out over pre-warmed worker processes in contiguous
    chunks, with cache-aware dispatch: pure requests whose content
    address is already in the coordinator's cache never reach the
    pool, and the pure results every chunk computed are folded into
    that cache. ``workers=1`` is the same plan with every request
    served locally, inline under the installed observer, and no
    process spawned. Results — and telemetry shards — drain strictly
    in input order, so the JSONL transcript and the audit-chain
    content are invariant under the worker count, the chunk size and
    the dispatch plan.

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
        pool = (
            warm_pool(self.workers, self.use_cache)
            if self.warm
            else WarmPool(self.workers, use_cache=self.use_cache)
        )
        try:
            lines, bodies, cache_stats = self._dispatch(
                pool, requests, operations
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
        finally:
            if not self.warm:
                pool.shutdown()
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
        return BatchResult(lines=lines, summary=summary, bodies=bodies)

    def load(self, path: str | Path) -> tuple[BatchRequest, ...]:
        """:func:`load_requests` for this executor's runs.

        A warm executor with a cache reads *path* through its pool
        cache's line memo, so a line an earlier run served as a hit
        is not parsed again; any other executor parses every line.
        """
        memo = None
        if self.warm and self.use_cache:
            memo = warm_pool(self.workers, True).cache
        return load_requests(path, memo)

    def _cache_scope(self) -> str:
        """The summary label for where cached results live."""
        if self.workers == 1:
            return "warm" if self.warm else "run"
        return "shared-warm" if self.warm else "shared-run"

    def _plan(
        self,
        requests: Sequence[BatchRequest],
        operations: dict[str, Operation],
        ctx: RunContext,
    ) -> tuple[list[tuple], list[tuple], list[tuple]]:
        """Split requests into local serves and contiguous chunks.

        A request stays **local** (served by the coordinator at its
        drain position, without touching the pool) when it cannot be
        dispatched at all — unknown or non-batchable op, malformed
        pure-op arguments — or when it is a pure request whose
        content address is already in the shared cache *or* already
        scheduled on an earlier chunk of this run: the ordered drain
        guarantees the earlier chunk's results merge in before the
        duplicate is served. Everything else lands in chunk order on
        the pool. With one worker every request is local and no chunk
        is built.

        Each plan entry is ``(request, built, key, slot)``: *built*
        and *key* are the canonical request and cache key computed
        here for a pure request (``None`` otherwise) and served
        under as they are, locally or in a worker chunk, so neither
        is computed twice, and a coordinator hit finds its entry's
        kept body by *key*; a request read back from the line memo
        brings both along. *slot* is ``(chunk, position)`` for a
        pool entry and ``None`` for a local one. A pure request sent
        to the pool counts one miss in the cache here, as a serial
        miss does when it is served.

        A chunk entry ``(index, op, args, built)`` ships *built* in
        place of *args* when there is one, and no key: workers keep
        no cache, so each chunk's keys are returned beside it.
        """
        cache = ctx.cache
        entries: list[tuple] = []
        pending: list[int] = []
        scheduled: set[str] = set()
        for request in requests:
            operation = operations.get(request.op)
            if operation is None:
                entries.append((request, None, None, None))
                continue
            built, key = request.built, request.key
            if key is None and cache is not None and operation.pure:
                try:
                    built = build_request(operation, request.args)
                    digest = ctx.cache_digest(operation, built)
                except ReproError:
                    # Doomed request: fails identically inline.
                    entries.append((request, None, None, None))
                    continue
                key = cache_key(operation.name, built, digest)
            if self.workers == 1 or (
                key is not None and (key in cache or key in scheduled)
            ):
                entries.append((request, built, key, None))
                continue
            if key is not None:
                cache.get(key)  # the miss its worker serves
                scheduled.add(key)
            pending.append(len(entries))
            entries.append((request, built, key, None))
        size = self.chunk_size or auto_chunk_size(
            len(pending), self.workers
        )
        chunks: list[tuple] = []
        keys: list[tuple] = []
        for offset in range(0, len(pending), size):
            chunk = []
            span = pending[offset : offset + size]
            for position, entry_index in enumerate(span):
                request, built, key, _ = entries[entry_index]
                entries[entry_index] = (
                    request,
                    built,
                    key,
                    (len(chunks), position),
                )
                args = request.args if built is None else None
                chunk.append((request.index, request.op, args, built))
            chunks.append(tuple(chunk))
            keys.append(tuple(entries[index][2] for index in span))
        return entries, chunks, keys

    def _dispatch(
        self,
        pool: WarmPool,
        requests: Sequence[BatchRequest],
        operations: dict[str, Operation],
    ) -> tuple[tuple[dict, ...], tuple[str | None, ...], dict | None]:
        """Run the dispatch plan; drain strictly in input order.

        Returns the lines, their kept bodies (see
        :class:`BatchResult`) and the cache statistics.
        """
        ctx = pool.context
        cache = pool.cache
        hits_before = cache.hits if cache is not None else 0
        misses_before = cache.misses if cache is not None else 0
        plan, chunks, keys = self._plan(requests, operations, ctx)
        drain = None
        if chunks:
            drain = pool.map_requests(
                chunks, get_observer().enabled, window=self.workers * 2
            )
        drained = -1
        result: ChunkResult | None = None
        lines: list[dict] = []
        bodies: list[str | None] = []
        try:
            for request, built, key, slot in plan:
                body = None
                if slot is None:
                    # A planned key implies a cache, and execute's get
                    # finds this very entry.
                    hit = key is not None and key in cache
                    line = _run_one(
                        request.index,
                        request.op,
                        request.args,
                        ctx,
                        built,
                        key,
                    )
                    if hit:
                        # A hit's body depends only on the cached
                        # response: encode it once per cache entry.
                        body = cache.body(key, partial(_line_body, line))
                        if request.line is not None and _memoisable(
                            operations[request.op], built
                        ):
                            cache.remember(
                                key,
                                request.line,
                                (request.op, request.args, built, key),
                            )
                else:
                    chunk_id, position = slot
                    # Plan entries name chunks in submission order, so
                    # the drain reaches this one after merging every
                    # earlier chunk's pure results into the cache.
                    while drained < chunk_id:
                        result = next(drain)
                        drained += 1
                        if cache is not None:
                            cache.merge(
                                _responses(keys[drained], result.lines)
                            )
                    shard = result.shards[position]
                    if shard is not None:
                        replay_shard(shard)
                    line = result.lines[position]
                lines.append(line)
                bodies.append(body)
        finally:
            if drain is not None:
                drain.close()
        if cache is None:
            return tuple(lines), tuple(bodies), None
        return (
            tuple(lines),
            tuple(bodies),
            _stats_delta(cache, hits_before, misses_before),
        )


def _run_batch(request: dict, ctx: RunContext) -> OpResponse:
    """The ``batch`` operation handler."""
    from ..observability import FlightRecorder, Observer, observed

    executor = BatchExecutor(
        workers=request["workers"],
        use_cache=not request["no_cache"],
        warm=request["warm"],
        chunk_size=request["chunk_size"],
    )
    requests = executor.load(request["requests"])
    recorder = None
    if request["flight_dir"] is not None:
        recorder = FlightRecorder(
            capacity=request["flight_capacity"],
            dump_dir=request["flight_dir"],
        )
    observability = None
    if request["audit_log"] is not None:
        observer = Observer.recording(request["audit_log"]).attach(
            flight=recorder
        )
        with observed(observer), observer.trail:
            result = executor.run(requests)
        observability = observer.trail.anchors()
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
                    "events and metric deltas an incident bundle "
                    "carries (default: 256)"
                ),
            ),
        ),
        batchable=False,
    )
