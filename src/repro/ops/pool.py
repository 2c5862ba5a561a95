"""The warm worker pool: pre-forked, pre-warmed, process-lifetime.

``BENCH_ops.json`` recorded the standing inversion this module
removes: a 24-request batch ran at 402 req/s with ``workers=4``
against 2802 req/s serial, because every parallel batch paid full
process-pool startup and each worker rebuilt its
:class:`~repro.ops.context.RunContext` — corpus, content digest and
result cache — from nothing. A :class:`WarmPool` pays those costs
once per *process lifetime* instead of once per *batch run*:

* **Pre-forked, pre-warmed workers.** The pool's
  ``ProcessPoolExecutor`` is built lazily on first submission (a
  batch of invalid requests never spawns a process) and each worker
  runs :func:`_warm_worker` at startup: the operation registry is
  assembled, the per-process :class:`RunContext` is constructed and
  its corpus + BLAKE2b content digest materialised, and the worker's
  :class:`~repro.ops.cache.ResultCache` is primed — so the first
  real request a worker sees costs only the request.
* **A shared coordinator cache.** The pool owns a coordinator-side
  :class:`~repro.ops.cache.ResultCache` and the coordinator
  :class:`RunContext` wrapping it; both persist across batch runs.
  Workers ship the ``(key, response)`` pairs they computed back with
  every chunk (:class:`ChunkResult`), the coordinator merges them,
  and the batch executor serves later identical pure requests
  without touching the pool at all — the per-worker cache islands
  become one content-addressed cache that learns from every worker.
* **Chunked submission.** Requests cross the pickle/IPC boundary in
  contiguous chunks (:func:`auto_chunk_size` targets ~4 chunks per
  worker, capped so a chunk never grows unbounded), amortising the
  submission overhead that dominated small-request batches.
* **One ordered drain.** :meth:`WarmPool.map_ordered` is the only
  way work reaches the workers: a bounded submit window of
  module-level chunk tasks, drained strictly in submission order
  (:class:`OrderedDrain`). The batch executor's request chunks and
  the safeguard pipeline's record chunks both run on it, so both get
  the same in-order merge, warm workers and failure handling.
* **Graceful degradation.** A crashed or unpicklable worker
  surfaces as a typed :class:`~repro.errors.ReproError` naming the
  affected requests or chunk (:class:`~repro.errors.BatchError` for
  batches) — never a raw ``BrokenProcessPool`` traceback — an
  ``ops/worker-lost`` audit event is emitted, the flight recorder
  dumps a ``worker-lost`` incident, and the pool discards its broken
  executor so the next use rebuilds lazily.

Pools are keyed by ``(workers, cache enablement)`` in a module-level
registry (:func:`warm_pool`); :func:`shutdown_warm_pools` tears all
of them down (tests and benchmarks use it for isolation), and the
first pool creation registers an ``atexit`` teardown — opt out with
:func:`set_atexit_shutdown` — so a long-lived session never leaks
pre-forked workers. :meth:`WarmPool.health` is the liveness/
readiness report (live workers, rebuilds, cache counters, optional
probe round-trip) behind ``repro-ethics obs health``. Everything
submitted to the pool is a module-level function — staticcheck rule
R9 (worker-safety) audits every :meth:`WarmPool.map_ordered` call.
"""

from __future__ import annotations

import atexit
import dataclasses
import time
from collections import deque
from collections.abc import Callable, Iterable
from concurrent.futures import BrokenExecutor

from ..errors import BatchError, ReproError
from ..observability import audit_event, flight_recorder
from ..observability.worker import TelemetryShard, WorkerTelemetry
from .cache import ResultCache
from .context import RunContext

__all__ = [
    "ChunkResult",
    "OrderedDrain",
    "WarmPool",
    "active_pools",
    "auto_chunk_size",
    "set_atexit_shutdown",
    "shutdown_warm_pools",
    "warm_pool",
]

#: Chunks per worker the auto-sizer aims for: small enough that a
#: slow chunk cannot starve the drain, large enough to amortise IPC.
_CHUNKS_PER_WORKER = 4

#: Ceiling on the auto-sized chunk (requests per pickle crossing).
_MAX_AUTO_CHUNK = 32


def auto_chunk_size(pending: int, workers: int) -> int:
    """The default requests-per-chunk for *pending* dispatches.

    Targets :data:`_CHUNKS_PER_WORKER` chunks per worker so the
    ordered drain always has work in flight, clamped to
    ``[1, _MAX_AUTO_CHUNK]`` so tiny batches still parallelise and
    huge ones keep bounded pickle payloads.
    """
    if pending <= 0:
        return 1
    ideal = -(-pending // (workers * _CHUNKS_PER_WORKER))
    return max(1, min(_MAX_AUTO_CHUNK, ideal))


@dataclasses.dataclass(frozen=True)
class ChunkResult:
    """Everything one worker chunk ships back to the coordinator.

    ``lines`` are the response line bodies in chunk order;
    ``shards`` is the parallel tuple of per-request telemetry
    captures (``None`` when the coordinator's observer is disabled);
    ``samples`` the parallel ``(latency seconds, cache outcome)``
    pairs measured in the worker, for the coordinator's window
    series; ``pairs`` are the content-addressed ``(key, response)``
    entries for pure operations this chunk computed, ready to merge
    into the coordinator cache; ``hits``/``misses`` are the
    worker-cache counter deltas this chunk incurred, aggregated into
    the batch summary.
    """

    lines: tuple[dict, ...]
    shards: tuple[WorkerTelemetry | None, ...]
    samples: tuple[tuple[float, str | None], ...] = ()
    pairs: tuple[tuple[str, object], ...] = ()
    hits: int = 0
    misses: int = 0


def _warm_worker(use_cache: bool) -> None:
    """Pool initializer: build and warm the per-process state.

    Runs once in every worker at spawn time, before any request:
    assembles the operation registry (so per-request dispatch is a
    dict hit), constructs the persistent worker
    :class:`RunContext`, and materialises the corpus and its content
    digest — the costs that previously made every worker's first
    request ~100x slower than its second.
    """
    from .batch import _worker_context
    from .catalog import default_registry

    default_registry()
    _worker_context(use_cache).warm_up()


def _execute_chunk(
    chunk: tuple, telemetry: bool, use_cache: bool
) -> ChunkResult:
    """Worker-side entry point: run one contiguous request chunk.

    *chunk* is a tuple of ``(index, op, args, key)`` entries, where
    *key* is the cache key the coordinator's plan computed for a pure
    request (``None`` otherwise). Each request executes through the
    same :func:`~repro.ops.batch._run_one` path a serial run uses,
    under its own :class:`~repro.observability.worker.TelemetryShard`
    when the coordinator observes, so per-request audit brackets
    replay in exact submission order. Each request's latency and
    cache outcome are measured here, where the request ran, so the
    coordinator's window series sees the same samples a serial run
    records. Successful pure results are exported as ``(key,
    response)`` pairs for the coordinator cache, looked up under the
    planned key rather than hashed again.
    """
    from .batch import _cache_outcome, _run_one, _worker_context

    ctx = _worker_context(use_cache)
    cache = ctx.cache
    hits_before = cache.hits if cache is not None else 0
    misses_before = cache.misses if cache is not None else 0
    lines: list[dict] = []
    shards: list[WorkerTelemetry | None] = []
    samples: list[tuple[float, str | None]] = []
    pairs: list[tuple[str, object]] = []
    for index, name, values, key in chunk:
        hits = cache.hits if cache is not None else 0
        misses = cache.misses if cache is not None else 0
        started = time.perf_counter()
        if telemetry:
            with TelemetryShard() as shard:
                line = _run_one(index, name, values, ctx)
            shards.append(shard.telemetry())
        else:
            line = _run_one(index, name, values, ctx)
            shards.append(None)
        samples.append(
            (
                time.perf_counter() - started,
                _cache_outcome(cache, hits, misses),
            )
        )
        lines.append(line)
        if cache is None or key is None or not line["ok"]:
            continue
        response = cache.peek(key)
        if response is not None:
            pairs.append((key, response))
    return ChunkResult(
        lines=tuple(lines),
        shards=tuple(shards),
        samples=tuple(samples),
        pairs=tuple(pairs),
        hits=(cache.hits - hits_before) if cache is not None else 0,
        misses=(
            cache.misses - misses_before
        ) if cache is not None else 0,
    )


def _request_span(chunk: tuple) -> str:
    """How a worker-lost error names a request chunk's indexes."""
    first, last = chunk[0][0], chunk[-1][0]
    if first == last:
        return f"request {first}"
    return f"requests {first}-{last}"


class OrderedDrain:
    """A bounded submit window over a :class:`WarmPool`, drained in order.

    Built by :meth:`WarmPool.map_ordered`. Construction submits jobs
    until *window* are in flight; each ``next()`` waits for the
    **oldest** job, submits one more and returns the oldest result —
    so results come back in submission order whatever order workers
    finish in, and the job source (possibly a lazy generator) is
    consumed at most *window* jobs ahead of the consumer.
    ``len(drain)`` is the number of jobs in flight, the queue depth
    the batch executor reports.

    A job that raises re-raises here after :meth:`close` cancels
    everything still queued. A lost worker is always charged to the
    oldest undrained job, whichever submit or wait first noticed the
    broken pool, so the typed *error* names the same span on every
    run.
    """

    def __init__(
        self,
        pool: "WarmPool",
        task: Callable,
        jobs: Iterable[tuple[str, tuple]],
        window: int,
        error: type[ReproError],
    ) -> None:
        self._pool = pool
        self._task = task
        self._jobs = iter(jobs)
        self._window = window
        self._error = error
        self._pending: deque = deque()
        self._unsubmitted: tuple[str, tuple] | None = None
        self._fill()

    def __iter__(self) -> "OrderedDrain":
        return self

    def __len__(self) -> int:
        return len(self._pending)

    def __next__(self):
        if not self._pending:
            raise StopIteration
        span, future = self._pending.popleft()
        try:
            result = self._pool.outcome(future)
        except BrokenExecutor as exc:
            self.close()
            raise self._pool._lost(span, exc, self._error) from exc
        except BaseException:
            self.close()
            raise
        self._fill()
        return result

    def close(self) -> None:
        """Cancel every submitted job that has not started yet."""
        while self._pending:
            self._pending.popleft()[1].cancel()

    def _fill(self) -> None:
        while len(self._pending) < self._window:
            job = self._unsubmitted or next(self._jobs, None)
            if job is None:
                return
            span, args = job
            try:
                future = self._pool.submit_chunk(self._task, args)
            except (BrokenExecutor, RuntimeError) as exc:
                if not self._pending:
                    raise self._pool._lost(
                        span, exc, self._error
                    ) from exc
                # An in-flight job's worker broke the pool: keep this
                # job and let the oldest one's wait report the loss.
                self._unsubmitted = job
                return
            self._unsubmitted = None
            self._pending.append((span, future))


class WarmPool:
    """A lazily built, reusable pool of pre-warmed worker processes.

    Owns the coordinator-side shared :class:`ResultCache` and the
    coordinator :class:`RunContext` wrapping it — both survive
    across batch runs, which is what makes a second batch on the
    same pool free of every cold-start cost. The executor itself is
    built on first submission and discarded (for lazy rebuild) when
    a worker is lost.
    """

    #: Coordinator caches outlive single runs; give them headroom
    #: beyond the per-worker default so a service working set fits.
    COORDINATOR_CACHE_SIZE = 1024

    def __init__(self, workers: int, use_cache: bool = True) -> None:
        if workers < 1:
            raise BatchError("workers must be at least 1")
        self.workers = workers
        self.use_cache = use_cache
        self.cache = (
            ResultCache(maxsize=self.COORDINATOR_CACHE_SIZE)
            if use_cache
            else None
        )
        self.context = RunContext(cache=self.cache)
        self.rebuilds = 0
        self._executor = None

    @property
    def live(self) -> bool:
        """Whether worker processes currently back this pool."""
        return self._executor is not None

    def _ensure(self):
        """The executor, built (with warm-up initializer) on demand."""
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_warm_worker,
                initargs=(self.use_cache,),
            )
            self._executor = executor
        return self._executor

    def start(self) -> int:
        """Pre-fork and warm every worker now; returns the count.

        Submission normally spawns workers on demand; a server (or
        benchmark) that wants the fork+warm-up cost paid up front
        submits one empty probe chunk per worker, which forces the
        full complement of processes to spawn and run
        :func:`_warm_worker`.
        """
        probe = ("a warm-up probe", ((), False, self.use_cache))
        for _ in self.map_ordered(
            _execute_chunk,
            [probe] * self.workers,
            window=self.workers,
        ):
            pass
        return self.workers

    def map_ordered(
        self,
        task: Callable,
        jobs: Iterable[tuple[str, tuple]],
        *,
        window: int,
        error: type[ReproError] = BatchError,
    ) -> OrderedDrain:
        """Run ``task(*args)`` for each ``(span, args)`` job, in order.

        *task* must be a module-level function (staticcheck rule R9
        audits every call site); *span* names the job in the
        worker-lost error (``"requests 3-5"``, ``"chunk 7"``), which
        is raised as *error*. At most *window* jobs are in flight.
        """
        return OrderedDrain(self, task, jobs, window, error)

    def map_requests(
        self, chunks: Iterable[tuple], telemetry: bool, *, window: int
    ) -> OrderedDrain:
        """Run batch request chunks; yields :class:`ChunkResult` in order."""
        return self.map_ordered(
            _execute_chunk,
            (
                (_request_span(chunk), (chunk, telemetry, self.use_cache))
                for chunk in chunks
            ),
            window=window,
        )

    def submit_chunk(self, task: Callable, args: tuple):
        """Submit one ``task(*args)`` job; returns its future.

        Raises ``BrokenExecutor`` (or ``RuntimeError`` after a
        shutdown) for :class:`OrderedDrain` to map to a typed error.
        """
        executor = self._ensure()
        # The one forwarding site: R9 audits *task* where it is
        # named, at every map_ordered call.
        return executor.submit(  # repro: noqa[R9] see map_ordered
            task, *args
        )

    def outcome(self, future):
        """Wait for one job future; the drain's only blocking point."""
        return future.result()

    def health(self, *, probe: bool = False) -> dict:
        """The pool's liveness/readiness report, JSON-safe and sorted.

        Reports whether worker processes currently back the pool,
        how many times a broken executor was discarded and rebuilt,
        whether the coordinator context is warm (corpus + digest
        materialised) and the shared cache's counters. With
        ``probe=True`` it also performs a full **probe round-trip**:
        one empty chunk per worker through :meth:`start`, forcing
        the complement of processes to spawn, warm and answer — the
        readiness check a server loop would poll. A failed probe is
        reported (``ok: False`` with the failure text), never
        raised, so a health endpoint cannot crash on the very
        condition it exists to report.
        """
        cache = self.cache
        report: dict = {
            "cache": (
                {
                    "enabled": True,
                    "entries": len(cache),
                    "hits": cache.hits,
                    "maxsize": cache.maxsize,
                    "misses": cache.misses,
                }
                if cache is not None
                else {"enabled": False}
            ),
            "context_warm": self.context.is_warm,
            "live": self.live,
            "rebuilds": self.rebuilds,
            "workers": self.workers,
        }
        if probe:
            try:
                self.start()
            except BatchError as exc:
                report["probe"] = {"ok": False, "error": str(exc)}
            else:
                report["probe"] = {
                    "ok": True,
                    "round_trips": self.workers,
                }
            report["live"] = self.live
        return report

    def _lost(
        self,
        span: str,
        exc: BaseException,
        error: type[ReproError],
    ) -> ReproError:
        """Discard the broken executor; describe the loss precisely."""
        self.discard()
        audit_event(
            "ops",
            "worker-lost",
            subject="pool",
            workers=self.workers,
            span=span,
        )
        recorder = flight_recorder()
        if recorder is not None:
            # The worker-lost dump happens here, at the failure
            # boundary, so the ring still holds the events that led
            # up to the loss; the free-text cause and the affected
            # span are envelope material (they vary with chunking).
            recorder.incident(
                "worker-lost",
                reason=f"{type(exc).__name__}: {exc}",
                span=span,
                workers=self.workers,
                rebuilds=self.rebuilds,
            )
        return error(
            f"worker process lost while running {span} "
            f"({type(exc).__name__}: {exc}); the pool was discarded "
            "and will rebuild on next use"
        )

    def discard(self) -> None:
        """Drop the executor (broken or not); next use rebuilds it."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
            self.rebuilds += 1

    def shutdown(self) -> None:
        """Terminate the worker processes, keeping the shared cache."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


#: Process-lifetime pool registry, keyed by (workers, cache on/off).
_WARM_POOLS: dict[tuple[int, bool], WarmPool] = {}

#: Exit-hook state: registered once per process, opt-out via
#: :func:`set_atexit_shutdown`. A dict (not two globals) so the
#: mutation sites stay the memo-idiom shape R8 recognises.
_ATEXIT = {"enabled": True, "registered": False}


def _atexit_shutdown() -> None:
    """The exit hook: tear down pools unless the user opted out."""
    if _ATEXIT["enabled"]:
        shutdown_warm_pools()


def set_atexit_shutdown(enabled: bool) -> bool:
    """Opt in or out of the exit-time pool teardown; returns the
    previous setting.

    The hook is on by default so a long-lived session (REPL, server,
    notebook) that touched ``warm_pool()`` does not leak pre-forked
    worker processes past interpreter exit. Embedders that manage
    pool lifetime themselves call ``set_atexit_shutdown(False)``.
    """
    previous = _ATEXIT["enabled"]
    _ATEXIT["enabled"] = bool(enabled)
    return previous


def active_pools() -> tuple[WarmPool, ...]:
    """Registered warm pools, ordered by (workers, cache) key."""
    return tuple(
        _WARM_POOLS[key] for key in sorted(_WARM_POOLS)
    )


def warm_pool(workers: int, use_cache: bool = True) -> WarmPool:
    """The process-lifetime :class:`WarmPool` for this configuration.

    Successive ``BatchExecutor(..., warm=True)`` runs with the same
    worker count and cache setting share one pool — and therefore
    one set of warmed workers and one coordinator cache. With
    ``workers=1`` the pool never spawns a process; only its
    persistent coordinator context (and cache) is used.
    """
    key = (workers, use_cache)
    pool = _WARM_POOLS.get(key)
    if pool is None:
        if not _ATEXIT["registered"]:
            # Register lazily, on first pool creation, so importing
            # the module costs nothing and the hook exists exactly
            # when there is something to clean up.
            _ATEXIT["registered"] = True
            atexit.register(_atexit_shutdown)
        pool = WarmPool(workers, use_cache=use_cache)
        _WARM_POOLS[key] = pool
    return pool


def shutdown_warm_pools() -> int:
    """Shut down every registered warm pool; returns how many.

    Drops the pools' coordinator caches too — after this call the
    process is back to a fully cold state (tests and benchmarks use
    it as the isolation boundary).
    """
    pools = list(_WARM_POOLS.values())
    _WARM_POOLS.clear()
    for pool in pools:
        pool.shutdown()
    return len(pools)
