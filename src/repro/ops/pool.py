"""The warm worker pool: pre-forked, pre-warmed, process-lifetime.

``BENCH_ops.json`` recorded the standing inversion this module
removes: a 24-request batch ran at 402 req/s with ``workers=4``
against 2802 req/s serial, because every parallel batch paid full
process-pool startup and each worker rebuilt its
:class:`~repro.ops.context.RunContext` — corpus and content digest —
from nothing. A :class:`WarmPool` pays those costs once per *process
lifetime* instead of once per *batch run*:

* **Pre-forked, pre-warmed workers.** The pool's
  ``ProcessPoolExecutor`` is built lazily on first submission (a
  batch of invalid requests never spawns a process) and each worker
  runs :func:`_warm_worker` at startup: the operation registry is
  assembled and the worker's cache-less :class:`RunContext` builds
  its corpus — so the first real request a worker sees costs only
  the request.
* **One result cache, on the coordinator.** The pool owns the only
  :class:`~repro.ops.cache.ResultCache` and the coordinator
  :class:`RunContext` wrapping it; both persist across batch runs.
  Workers keep no cache: the batch executor only sends them pure
  requests the coordinator's cache lacks, counting each as one miss
  there, and folds the response lines a chunk ships back
  (:class:`ChunkResult`) into that cache, so it serves later
  identical pure requests without touching the pool.
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
first pool creation registers an ``atexit`` teardown, so a
long-lived session never leaks pre-forked workers; a worker whose
coordinator dies without it exits on its own. The registry is per
process: a forked worker inherits its parent's entries but never
uses, lists or shuts them down. :meth:`WarmPool.health` is the
liveness/readiness report (live workers, rebuilds, cache counters,
optional probe round-trip) behind ``repro-ethics obs health``.
Everything submitted to the pool is a module-level function —
staticcheck rule R9 (worker-safety) audits every
:meth:`WarmPool.map_ordered` call.
"""

from __future__ import annotations

import atexit
import contextlib
import dataclasses
import os
from collections import deque
from collections.abc import Callable, Iterable
from concurrent.futures import BrokenExecutor

from ..errors import BatchError, ReproError
from ..observability import audit_event, flight_recorder, set_observer
from ..observability.worker import TelemetryShard, WorkerTelemetry
from .cache import ResultCache
from .context import RunContext

__all__ = [
    "ChunkResult",
    "OrderedDrain",
    "WarmPool",
    "active_pools",
    "auto_chunk_size",
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
    ``shards`` is the parallel tuple of per-request telemetry cuts
    of the chunk's one capture, the last carrying its metrics
    (``None`` when the coordinator's observer is disabled).
    """

    lines: tuple[dict, ...]
    shards: tuple[WorkerTelemetry | None, ...]


#: The worker process's persistent context. It has no cache: a pure
#: result is stored and counted only in the coordinator's cache.
_WORKER_CONTEXT = RunContext()


def _warm_worker() -> None:
    """Pool initializer: build and warm the per-process state.

    Runs once in every worker at spawn time, before any request.
    It first drops the observer a forked worker inherits: a pool
    first used inside an ``observed(...)`` block would otherwise
    write every later untelemetered chunk's events into the
    coordinator's (by then closed) audit log. It then assembles the
    operation registry (so per-request dispatch is a dict hit) and
    builds the worker context's corpus — the cost that previously
    made every worker's first request ~100x slower than its second.
    A daemon thread ends the worker when its coordinator dies, which
    a killed coordinator's idle workers would otherwise never notice.
    """
    import threading

    from .catalog import default_registry

    threading.Thread(target=_exit_with_parent, daemon=True).start()
    set_observer(None)
    default_registry()
    _WORKER_CONTEXT.corpus()


def _exit_with_parent() -> None:
    """Wait for the coordinator process to end, then end this one."""
    import multiprocessing

    multiprocessing.parent_process().join()
    os._exit(1)


def _execute_chunk(chunk: tuple, telemetry: bool) -> ChunkResult:
    """Worker-side entry point: run one contiguous request chunk.

    *chunk* is a tuple of ``(index, op, args, request, key)``
    entries. For a pure request the coordinator's plan already built
    the canonical *request* (and its cache *key*, which the
    coordinator keeps to store the result); the worker serves under
    it as it is, so it never rebuilds the request. Other entries
    carry ``None`` for both, and the kernel builds the request from
    *args*. Each request is run by the same
    :func:`~repro.ops.batch._run_one` a coordinator-local serve uses.
    When the coordinator observes, the whole chunk runs under one
    :class:`~repro.observability.worker.TelemetryShard` that is cut
    into one shard per request — the last also carrying the chunk's
    metrics snapshot — so per-request audit brackets replay in exact
    submission order.
    """
    from .batch import _run_one

    lines: list[dict] = []
    shards: list[WorkerTelemetry | None] = []
    last = len(chunk) - 1
    capture = TelemetryShard() if telemetry else contextlib.nullcontext()
    with capture:
        for position, (index, name, values, built, key) in enumerate(
            chunk
        ):
            lines.append(
                _run_one(index, name, values, _WORKER_CONTEXT, built, key)
            )
            if not telemetry:
                shards.append(None)
            elif position < last:
                shards.append(capture.cut())
            else:
                shards.append(capture.telemetry())
    return ChunkResult(lines=tuple(lines), shards=tuple(shards))


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
    ``len(drain)`` is the number of jobs in flight.

    A job that raises, or a job source that raises, re-raises here
    after :meth:`close` cancels everything still queued. A lost worker is always charged to the
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
        try:
            self._fill()
        except BaseException:
            self.close()
            raise

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
            self._fill()
        except BrokenExecutor as exc:
            self.close()
            raise self._pool._lost(span, exc, self._error) from exc
        except BaseException:
            self.close()
            raise
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

    Owns the one :class:`ResultCache` (workers keep none) and the
    coordinator :class:`RunContext` wrapping it — both survive
    across batch runs, which is what makes a second batch on the
    same pool free of every cold-start cost. The executor itself is
    built on first submission and discarded (for lazy rebuild) when
    a worker is lost.
    """

    #: Coordinator caches outlive single runs; give them headroom
    #: beyond the :class:`ResultCache` default so a service working
    #: set fits.
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
                max_workers=self.workers, initializer=_warm_worker
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
        probe = ("a warm-up probe", ((), False))
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
            ((_request_span(chunk), (chunk, telemetry)) for chunk in chunks),
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
                {"enabled": True, **cache.stats()}
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


#: Process-lifetime pool registry, keyed by (owning pid, workers,
#: cache on/off). A forked worker inherits the parent's entries: each
#: executor copy there has no manager thread, and its shutdown lock
#: may be held (workers fork inside ``submit``), so the worker must
#: neither use one nor let one be collected — its weakref callback
#: would block on that lock. Keying by pid leaves them unused and
#: referenced.
_WARM_POOLS: dict[tuple[int, int, bool], WarmPool] = {}

#: Whether the exit hook is registered: once per process, on first
#: pool creation. A dict (not a global) so the mutation site stays
#: the memo-idiom shape R8 recognises.
_ATEXIT = {"registered": False}


def active_pools() -> tuple[WarmPool, ...]:
    """This process's warm pools, ordered by (workers, cache) key."""
    pid = os.getpid()
    return tuple(
        _WARM_POOLS[key] for key in sorted(_WARM_POOLS) if key[0] == pid
    )


def warm_pool(workers: int, use_cache: bool = True) -> WarmPool:
    """The process-lifetime :class:`WarmPool` for this configuration.

    Successive ``BatchExecutor(..., warm=True)`` runs with the same
    worker count and cache setting share one pool — and therefore
    one set of warmed workers and one coordinator cache. Parallel
    :class:`~repro.pipeline.SafeguardPipeline` runs use
    ``warm_pool(workers, use_cache=False)``. With
    ``workers=1`` the pool never spawns a process; only its
    persistent coordinator context (and cache) is used.
    """
    key = (os.getpid(), workers, use_cache)
    pool = _WARM_POOLS.get(key)
    if pool is None:
        if not _ATEXIT["registered"]:
            # Register lazily, on first pool creation, so importing
            # the module costs nothing and the hook exists exactly
            # when there is something to clean up.
            _ATEXIT["registered"] = True
            atexit.register(shutdown_warm_pools)
        pool = WarmPool(workers, use_cache=use_cache)
        _WARM_POOLS[key] = pool
    return pool


def shutdown_warm_pools() -> int:
    """Shut down every warm pool this process registered; returns
    how many.

    Drops the pools' coordinator caches too — after this call the
    process is back to a fully cold state (tests and benchmarks use
    it as the isolation boundary).
    """
    pools = active_pools()
    pid = os.getpid()
    for key in [key for key in _WARM_POOLS if key[0] == pid]:
        del _WARM_POOLS[key]
    for pool in pools:
        pool.shutdown()
    return len(pools)
