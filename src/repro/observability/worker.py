"""Cross-process telemetry: worker-side capture, parent-side replay.

Pipeline worker processes inherit the disabled default observer, so
before this module existed their audit events, spans and metrics
simply vanished — a ``workers=4`` run produced an audit trail with
none of the per-stage events a ``workers=1`` run records. This
module closes that gap without giving up the single-writer,
deterministic chain:

* **Worker side** — :class:`TelemetryShard` is a per-chunk observer
  bootstrap. Installed around one chunk's stage applications, it
  captures audit events as *raw, unsealed* ``(category, action,
  subject, detail)`` tuples (a per-worker audit shard — sequence
  numbers and chain digests are deliberately not assigned in the
  worker) and snapshots a chunk-local metrics registry, which is
  also where the chunk-local tracer observes its spans as
  ``span.<name>.seconds`` histograms.
  :meth:`TelemetryShard.telemetry` packs both into a picklable
  :class:`WorkerTelemetry` that ships back with the chunk result.
* **Parent side** — :func:`replay_shard` folds one shard into the
  observer installed in the coordinator: captured events are
  re-emitted through :func:`~repro.observability.runtime.audit_event`
  (the parent trail assigns sequence numbers and digests, staying the
  chain's single writer), and the metric snapshot — worker span
  time included — merges into the parent registry.

Because the pipeline merges chunk results **in chunk order** and
events inside a shard keep their emission order, replaying shards
yields exactly the event stream a serial run emits inline: the audit
chain *content* is identical for ``workers=1`` and ``workers=N``
(byte-identical but for the honest ``workers`` field of the
run-started event). Shards are clock-free — timings live only in the
metric snapshots, which are not chained.

The ops warm pool (:mod:`repro.ops.pool`) opens the same one
capture per chunk but ships it **one shard per request**: after each
request :meth:`~TelemetryShard.cut` packs that request's events,
and the chunk's last request carries the one metrics snapshot
(:meth:`~TelemetryShard.telemetry`). The batch coordinator can thus
interleave replays with the audit brackets it emits inline for
coordinator-served cache hits, so the chain content stays invariant
under the cache-aware dispatch plan too; the merged registry is the
same as with a snapshot per request, because registry merges are
commutative.
"""

from __future__ import annotations

import dataclasses

from .metrics import MetricsRegistry
from .runtime import Observer, audit_event, get_observer, set_observer
from .tracing import Tracer

__all__ = ["TelemetryShard", "WorkerTelemetry", "replay_shard"]


@dataclasses.dataclass(frozen=True)
class WorkerTelemetry:
    """One chunk's telemetry, packed for the pickling boundary.

    ``events`` are raw audit tuples in emission order; ``metrics``
    is a registry snapshot, span histograms included. Both are plain
    tuples/dicts so the object crosses the process pool unchanged.
    """

    events: tuple[tuple[str, str, str, dict], ...] = ()
    metrics: dict = dataclasses.field(default_factory=dict)


class _ShardTrail:
    """Trail-shaped recorder: captures raw events, never chains them.

    Duck-types the one method :func:`audit_event` calls. Sequence
    numbers and digests belong to the parent trail — assigning them
    here would bake the worker's local view into the shard and break
    the deterministic merge.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[tuple[str, str, str, dict]] = []

    def event(
        self,
        category: str,
        action: str,
        subject: str = "",
        **detail: object,
    ) -> None:
        """Capture one raw event tuple (returns None: not sealed)."""
        self.events.append((category, action, subject, dict(detail)))
        return None


class TelemetryShard:
    """Worker-side observer bootstrap for one chunk.

    Use as a context manager around the chunk's work: entering
    installs a capture observer (shard trail + chunk-local registry
    + tracer), exiting restores whatever was installed before.
    :meth:`cut` packs the events captured since the last cut;
    :meth:`telemetry` packs the rest together with the chunk's
    metrics snapshot — the whole capture when nothing was cut.
    """

    def __init__(self) -> None:
        self._trail = _ShardTrail()
        self._registry = MetricsRegistry()
        self._observer = Observer(
            trail=self._trail,  # type: ignore[arg-type]
            metrics=self._registry,
            tracer=Tracer(self._registry),
        )
        self._previous: Observer | None = None

    def __enter__(self) -> "TelemetryShard":
        self._previous = set_observer(self._observer)
        return self

    def __exit__(self, *exc_info: object) -> None:
        set_observer(self._previous)
        self._previous = None

    def cut(self) -> WorkerTelemetry:
        """The events captured since the previous cut.

        Carries no metrics: the registry is snapshotted once, by
        :meth:`telemetry`, for the whole capture.
        """
        events = tuple(self._trail.events)
        self._trail.events.clear()
        return WorkerTelemetry(events=events)

    def telemetry(self) -> WorkerTelemetry:
        """The final cut plus the capture's metrics snapshot."""
        return dataclasses.replace(
            self.cut(), metrics=self._registry.snapshot()
        )


def replay_shard(shard: WorkerTelemetry) -> None:
    """Fold one worker shard into the observer installed here.

    Called by the pipeline and batch coordinators while draining
    chunk results **in input order**: events re-emit through the
    parent trail (which assigns sequence numbers and digests,
    keeping the chain single-writer), and the metric snapshot merges
    into the parent registry. A disabled observer makes this a
    no-op, mirroring the disabled
    :func:`~repro.observability.runtime.audit_event` path.
    """
    observer = get_observer()
    if not observer.enabled:
        return
    for category, action, subject, detail in shard.events:
        audit_event(category, action, subject, **detail)
    if observer.metrics.enabled and shard.metrics:
        # Only a chunk's final cut carries its metrics snapshot.
        observer.metrics.merge(shard.metrics)
