"""Pipeline orchestration: chunking, worker fan-out, ordered merge.

:class:`SafeguardPipeline` consumes any record source — a
``datasets`` generator's ``iter_records()`` chunks or a plain
iterator of record dicts — re-chunks it to a fixed ``chunk_size``,
runs every stage over each chunk, and merges results **in chunk
order**. With ``workers <= 1`` everything runs inline with one
persistent set of stage runners (their caches warm across chunks);
with more workers, chunks fan out over a
:class:`~repro.ops.pool.WarmPool` — the batch executor's pool —
through its ordered drain, so results merge back in submission
order and the concatenated output is byte-identical to a serial run
(stages are deterministic functions of their spec and chunk — see
:mod:`repro.pipeline.stages`). The pool is the process-lifetime
``warm_pool(workers, use_cache=False)`` the ``batch`` op also draws
from, so its workers, and the stage runners they keep per spec
tuple, outlive the run until
:func:`~repro.ops.pool.shutdown_warm_pools` or interpreter exit.
Inside a multiprocessing child (a ``batch`` worker serving a
``pipeline`` request), which runs no exit hooks, each run builds its
own pool and shuts it down instead. A lost worker surfaces as
:class:`~repro.errors.SafeguardError` with an ``ops/worker-lost``
audit event and a ``worker-lost`` flight-recorder incident, and the
next run rebuilds the pool.

Observability: each run accumulates per-stage counters, gauges and
timing histograms in a private
:class:`~repro.observability.metrics.MetricsRegistry` (position- and
name-keyed, e.g. ``stage.00.anonymize.cache_misses``), from which the
JSON metrics report is assembled; when a process-wide observer is
installed the run registry is folded into it and the run is bracketed
by ``pipeline/run-started`` and ``pipeline/run-finished`` audit
events, with one ``pipeline/stage-applied`` event and one tracing
span per stage per chunk. In parallel mode workers run under a
per-chunk :class:`~repro.observability.worker.TelemetryShard`
capture observer; each chunk result ships its shard back and the
coordinator replays shards **in chunk order** (events re-sealed by
the parent trail, spans absorbed, metric snapshots merged), so the
coordinator stays the chain's single writer and ``workers=N``
produces the same audit chain content as ``workers=1``. A stage
exception anywhere surfaces as
:class:`~repro.pipeline.stages.StageFailure` naming the stage and
chunk, after a ``pipeline/chunk-failed`` audit event. Timing never
feeds back into the data path, so observability cannot perturb
determinism: per-stage "seconds" in parallel mode is aggregate
worker time (it can exceed wall-clock elapsed), counters are
summed, and cache-occupancy gauges merge by maximum.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import time
from collections.abc import Iterable, Iterator

from ..datasets.common import chunked
from ..errors import SafeguardError
from ..observability import (
    MetricsRegistry,
    audit_event,
    flight_recorder,
    get_observer,
)
from ..observability import metrics as global_metrics
from ..observability import tracer
from ..observability.worker import (
    TelemetryShard,
    WorkerTelemetry,
    replay_shard,
)
from .stages import StageFailure, StageRunner, StageSpec

__all__ = ["PipelineResult", "SafeguardPipeline"]

#: Counter keys that are point-in-time gauges, merged by max not sum.
_GAUGE_KEYS = frozenset({"cache_size", "cache_maxsize"})

#: Built runners per spec tuple in a worker process — keeps stage
#: caches (IP prefix digests, the seal stage's stretched key)
#: resident across chunks and runs on the warm pool.
_RUNNER_CACHE: dict[tuple[StageSpec, ...], tuple[StageRunner, ...]] = {}

#: Spec tuples a worker keeps built runners for, oldest evicted
#: first. Small because one anonymize runner alone may hold up to
#: ``1 << 17`` prefix-cache entries.
_RUNNER_CACHE_SIZE = 4


def _runners_for(
    specs: tuple[StageSpec, ...]
) -> tuple[StageRunner, ...]:
    """The process-local persistent runners for *specs*."""
    runners = _RUNNER_CACHE.get(specs)
    if runners is None:
        runners = tuple(spec.build() for spec in specs)
        if len(_RUNNER_CACHE) >= _RUNNER_CACHE_SIZE:
            del _RUNNER_CACHE[next(iter(_RUNNER_CACHE))]
        _RUNNER_CACHE[specs] = runners
    return runners


def _apply_chunk(
    runners: tuple[StageRunner, ...],
    names: tuple[str, ...],
    chunk: list[dict],
    index: int,
) -> tuple[list[dict], list[bytes], list[dict]]:
    """Run every stage over one chunk, timing each stage.

    Each stage runs inside a ``stage.<name>`` tracing span and emits
    one ``pipeline/stage-applied`` audit event whose detail is
    deterministic (record and artifact counts only — never timings
    or cache state, so the chain content is invariant under worker
    count). With the disabled default observer both the span and the
    event cost a few attribute lookups and nothing else; in telemetry
    workers they land in the chunk-local shard.

    A stage exception is wrapped as :class:`StageFailure` carrying
    the stage name and chunk index, so failures inside a process
    pool surface their location instead of a bare remote traceback.
    """
    artifacts: list[bytes] = []
    stage_stats: list[dict] = []
    trace = tracer()
    for runner, name in zip(runners, names):
        with trace.span(f"stage.{name}"):
            started = time.perf_counter()
            try:
                chunk, new_artifacts, stats = runner.apply(
                    chunk, index
                )
            except StageFailure:
                raise
            except Exception as exc:
                raise StageFailure(name, index, str(exc)) from exc
            elapsed = time.perf_counter() - started
        audit_event(
            "pipeline",
            "stage-applied",
            subject=name,
            chunk=index,
            records=len(chunk),
            artifacts=len(new_artifacts),
        )
        artifacts.extend(new_artifacts)
        stats = dict(stats)
        stats["seconds"] = elapsed
        stage_stats.append(stats)
    return chunk, artifacts, stage_stats


def _pool_apply(
    specs: tuple[StageSpec, ...],
    chunk: list[dict],
    index: int,
    telemetry: bool = False,
) -> tuple[
    list[dict], list[bytes], list[dict], WorkerTelemetry | None
]:
    """Worker-side entry point (top-level so it pickles).

    With *telemetry* (the coordinator runs an enabled observer), the
    chunk executes under a :class:`TelemetryShard` capture observer
    and the packed shard ships back with the result; otherwise the
    worker keeps its disabled default observer and ships ``None``.
    """
    names = tuple(spec.name for spec in specs)
    runners = _runners_for(specs)
    if not telemetry:
        return (*_apply_chunk(runners, names, chunk, index), None)
    with TelemetryShard() as shard:
        chunk, artifacts, stage_stats = _apply_chunk(
            runners, names, chunk, index
        )
    return chunk, artifacts, stage_stats, shard.telemetry()


def _flatten(
    source: Iterable[dict] | Iterable[list[dict]],
) -> Iterator[dict]:
    """Accept records or pre-chunked records; yield flat records."""
    for item in source:
        if isinstance(item, dict):
            yield item
        else:
            yield from item


@dataclasses.dataclass
class PipelineResult:
    """Everything a pipeline run produced.

    ``records`` are the transformed records in input order;
    ``artifacts`` the sealed containers in chunk order (empty unless
    a seal stage ran); ``metrics`` the JSON-serialisable per-stage
    throughput report.
    """

    records: list[dict]
    artifacts: list[bytes]
    metrics: dict


class SafeguardPipeline:
    """Chunked, optionally parallel safeguard application.

    ``stages`` is an ordered tuple of specs from
    :mod:`repro.pipeline.stages`; ``workers`` selects inline
    execution (``1``) or the shared warm process pool;
    ``chunk_size`` fixes the fan-out unit. Output is invariant under
    both knobs — they trade memory and parallelism against
    overhead, never correctness.
    """

    def __init__(
        self,
        stages: tuple[StageSpec, ...] | list[StageSpec],
        *,
        workers: int = 1,
        chunk_size: int = 1024,
    ) -> None:
        if not stages:
            raise SafeguardError("pipeline needs at least one stage")
        if workers < 1:
            raise SafeguardError("workers must be at least 1")
        if chunk_size < 1:
            raise SafeguardError("chunk_size must be at least 1")
        self._specs = tuple(stages)
        self._workers = workers
        self._chunk_size = chunk_size

    @property
    def specs(self) -> tuple[StageSpec, ...]:
        """The configured stage specs, in application order."""
        return self._specs

    def _stage_prefix(self, position: int) -> str:
        """The registry key prefix for the stage at *position*."""
        return f"stage.{position:02d}.{self._specs[position].name}."

    def run(
        self, source: Iterable[dict] | Iterable[list[dict]]
    ) -> PipelineResult:
        """Stream *source* through every stage; merge in order.

        Input records are never mutated — stages work on copies (the
        pickling boundary provides this in parallel mode; the serial
        path copies explicitly to match), so the same source list can
        be run through several pipelines.
        """
        stage_names = [spec.name for spec in self._specs]
        audit_event(
            "pipeline",
            "run-started",
            subject=",".join(stage_names),
            workers=self._workers,
            chunk_size=self._chunk_size,
        )
        chunks = chunked(_flatten(source), self._chunk_size)
        records: list[dict] = []
        artifacts: list[bytes] = []
        registry = MetricsRegistry()
        chunk_count = 0
        started = time.perf_counter()
        outcomes = (
            self._run_serial(chunks)
            if self._workers == 1
            else self._run_parallel(chunks)
        )
        try:
            # Closing the stream on every way out cancels the chunks
            # still queued on the pool, not only on a worker failure.
            with tracer().span("pipeline.run"), contextlib.closing(
                outcomes
            ):
                for chunk, chunk_artifacts, stage_stats, shard in (
                    outcomes
                ):
                    if shard is not None:
                        replay_shard(shard)
                    chunk_count += 1
                    records.extend(chunk)
                    artifacts.extend(chunk_artifacts)
                    self._record_chunk(registry, stage_stats)
        except StageFailure as failure:
            audit_event(
                "pipeline",
                "chunk-failed",
                subject=failure.stage,
                chunk=failure.chunk_index,
                error=failure.cause,
            )
            recorder = flight_recorder()
            if recorder is not None:
                # After the chunk-failed event so the ring's last
                # frame names the failing stage and chunk.
                recorder.incident(
                    "stage-failure",
                    reason=failure.cause,
                    stage=failure.stage,
                    chunk=failure.chunk_index,
                )
            raise
        elapsed = time.perf_counter() - started
        registry.counter("pipeline.records").inc(len(records))
        registry.counter("pipeline.chunks").inc(chunk_count)
        registry.histogram("pipeline.run.seconds").observe(elapsed)
        process_registry = global_metrics()
        if process_registry.enabled:
            process_registry.merge(registry.snapshot())
        audit_event(
            "pipeline",
            "run-finished",
            subject=",".join(stage_names),
            records=len(records),
            chunks=chunk_count,
            artifacts=len(artifacts),
        )
        return PipelineResult(
            records=records,
            artifacts=artifacts,
            metrics=self._metrics(
                len(records), chunk_count, elapsed, registry
            ),
        )

    def _record_chunk(
        self, registry: MetricsRegistry, stage_stats: list[dict]
    ) -> None:
        """Fold one chunk's per-stage stats into the run registry."""
        for position, stats in enumerate(stage_stats):
            prefix = self._stage_prefix(position)
            for key, value in stats.items():
                if key == "seconds":
                    registry.histogram(prefix + key).observe(value)
                elif key in _GAUGE_KEYS:
                    registry.gauge(prefix + key).set_max(value)
                else:
                    registry.counter(prefix + key).inc(value)

    def _run_serial(
        self, chunks: Iterator[list[dict]]
    ) -> Iterator[
        tuple[list[dict], list[bytes], list[dict], None]
    ]:
        """Inline execution with one persistent runner set.

        Audit events and spans emit straight into the installed
        observer as each chunk processes, so no shard is shipped
        (the fourth tuple slot is always ``None``).
        """
        runners = tuple(spec.build() for spec in self._specs)
        names = tuple(spec.name for spec in self._specs)
        for index, chunk in enumerate(chunks):
            copies = [dict(record) for record in chunk]
            yield (*_apply_chunk(runners, names, copies, index), None)

    def _run_parallel(
        self, chunks: Iterator[list[dict]]
    ) -> Iterator[
        tuple[
            list[dict],
            list[bytes],
            list[dict],
            WorkerTelemetry | None,
        ]
    ]:
        """Fan out over the process-lifetime warm pool; merge in order.

        Chunks run on ``warm_pool(workers, use_cache=False)``, which
        stays up after the run: each worker builds the runners for a
        spec tuple on its first chunk and reuses them on every later
        chunk and run, so the seal stage's PBKDF2 key stretch and the
        anonymizer's prefix cache are paid once per worker, not once
        per run. A multiprocessing child runs no exit hooks, so there
        the run uses a pool of its own and shuts it down when it
        ends. Whichever way the run ends, the chunks still queued are
        cancelled. The pool's ordered drain keeps at most
        ``4 × workers`` chunks in flight and returns results strictly
        in submission order, so the merged stream preserves chunk
        order by construction — and worker telemetry shards replay
        into the parent trail in the same order a serial run would
        have emitted their events.
        """
        from ..ops.pool import WarmPool, warm_pool

        telemetry = get_observer().enabled
        owned = multiprocessing.parent_process() is not None
        pool = (
            WarmPool(self._workers, use_cache=False)
            if owned
            else warm_pool(self._workers, use_cache=False)
        )
        try:
            drain = pool.map_ordered(
                _pool_apply,
                (
                    (
                        f"chunk {index}",
                        (self._specs, chunk, index, telemetry),
                    )
                    for index, chunk in enumerate(chunks)
                ),
                window=self._workers * 4,
                error=SafeguardError,
            )
            try:
                yield from drain
            finally:
                drain.close()
        finally:
            if owned:
                pool.shutdown()

    def _metrics(
        self,
        record_count: int,
        chunk_count: int,
        elapsed: float,
        registry: MetricsRegistry,
    ) -> dict:
        """Assemble the JSON metrics report from the run registry."""
        snap = registry.snapshot()
        stages = []
        for position, spec in enumerate(self._specs):
            prefix = self._stage_prefix(position)
            stats: dict = {}
            for key, value in snap["counters"].items():
                if key.startswith(prefix):
                    stats[key[len(prefix):]] = value
            for key, value in snap["gauges"].items():
                if key.startswith(prefix):
                    stats[key[len(prefix):]] = value
            seconds = snap["histograms"].get(
                prefix + "seconds", {}
            ).get("total", 0.0)
            stage = {
                "name": spec.name,
                "records": record_count,
                "records_per_second": (
                    round(record_count / seconds, 2) if seconds else 0.0
                ),
                "seconds": round(seconds, 6),
            }
            for key, value in sorted(stats.items()):
                stage[key] = (
                    round(value, 6) if isinstance(value, float) else value
                )
            stages.append(stage)
        return {
            "records": record_count,
            "chunks": chunk_count,
            "chunk_size": self._chunk_size,
            "workers": self._workers,
            "elapsed_seconds": round(elapsed, 6),
            "records_per_second": (
                round(record_count / elapsed, 2) if elapsed else 0.0
            ),
            "stages": stages,
        }
