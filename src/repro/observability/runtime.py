"""The process-wide observer: one switch for audit, metrics, tracing.

Safeguard code does not thread an observer through every call
signature — that would contaminate the picklable stage specs and the
frozen dataclasses. Instead there is one process-local
:class:`Observer` (trail + metrics + tracer), installed with
:func:`set_observer` or the :func:`observed` context manager, and
module-level helpers (:func:`audit_event`, :func:`metrics`,
:func:`tracer`) that instrumented code calls unconditionally.

The default observer is **disabled**: no trail, the shared
:data:`~repro.observability.metrics.NULL_METRICS` registry and the
shared :data:`~repro.observability.tracing.NULL_TRACER`. The
disabled :func:`audit_event` path is one global load, one attribute
test and a return — the E12 benchmark budget ("auditing off means no
measurable slowdown") is met by construction, not by sprinkling
``if audit_enabled:`` at call sites.

Warm-pool workers are forked, so they inherit the coordinator's
installed observer, its open trail included;
:func:`repro.ops.pool._warm_worker` therefore installs the disabled
observer (``set_observer(None)``) before serving anything, and no
worker ever writes to the coordinator's trail. When the coordinator
observes, each chunk runs under a per-chunk capture observer
(:class:`~repro.observability.worker.TelemetryShard`) whose shard
ships back with the chunk result for in-order replay. The
coordinator's trail stays the chain's single writer, and the chain
stays ordered.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator
from pathlib import Path

from .events import AuditEvent
from .log import AuditTrail
from .metrics import NULL_METRICS, MetricsRegistry
from .tracing import NULL_TRACER, Tracer

__all__ = [
    "Observer",
    "audit_event",
    "flight_recorder",
    "get_observer",
    "metrics",
    "observed",
    "set_observer",
    "tracer",
]


class Observer:
    """A bundle of audit trail, metrics registry, tracer — and the
    operational health surface: an optional flight recorder.

    Components left as ``None`` fall back to the shared no-op
    singletons (the flight recorder stays ``None`` — it has no null
    twin because its helper returns ``None`` when absent);
    ``enabled`` is True when any real component is present. Build one
    per run (or per process) and install it with
    :func:`set_observer` / :func:`observed`.
    """

    __slots__ = (
        "trail",
        "metrics",
        "tracer",
        "flight",
        "enabled",
    )

    def __init__(
        self,
        trail: AuditTrail | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        flight=None,
    ) -> None:
        self.trail = trail
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.flight = flight
        self.enabled = (
            trail is not None
            or self.metrics.enabled
            or self.tracer.enabled
            or flight is not None
        )

    @classmethod
    def recording(
        cls, path: str | Path | None = None
    ) -> "Observer":
        """A fully enabled observer (trail, metrics and tracing).

        *path* persists the audit trail as JSONL; omit it for an
        in-memory trail.
        """
        registry = MetricsRegistry()
        return cls(
            trail=AuditTrail(path),
            metrics=registry,
            tracer=Tracer(registry),
        )

    def attach(self, *, flight=None) -> "Observer":
        """Attach a flight recorder to a built observer; returns it.

        The factory paths (:meth:`recording`, the RunContext
        helpers) stay flight-agnostic; callers that also want a
        recorder bolt it on here. Attaching one flips ``enabled`` — a
        flight-only observer still turns on worker telemetry shards,
        which is what routes worker events back into the
        coordinator's ring.
        """
        if flight is not None:
            self.flight = flight
        self.enabled = self.enabled or self.flight is not None
        return self


#: The permanently disabled observer every process starts with.
_DISABLED = Observer()
_current: Observer = _DISABLED


def get_observer() -> Observer:
    """The currently installed observer (disabled by default)."""
    return _current


def set_observer(observer: Observer | None) -> Observer:
    """Install *observer* process-wide; returns the previous one.

    Passing ``None`` restores the disabled default.
    """
    global _current
    previous = _current
    _current = observer if observer is not None else _DISABLED
    return previous


@contextlib.contextmanager
def observed(observer: Observer) -> Iterator[Observer]:
    """Install *observer* for the duration of the ``with`` block."""
    previous = set_observer(observer)
    try:
        yield observer
    finally:
        set_observer(previous)


def audit_event(
    category: str,
    action: str,
    subject: str = "",
    **detail: object,
) -> AuditEvent | None:
    """Append one event to the installed trail (no-op when disabled).

    This is the single emission point the safeguard boundary calls —
    and the one the staticcheck R5 rule looks for in mutating
    safeguard methods. Returns the sealed event, or ``None`` when no
    trail is installed. An installed flight recorder taps every
    emission here (including worker-shard replays, which arrive in
    input order), so the ring needs no call-site changes; the
    disabled path stays two attribute loads, two ``None`` tests and
    a return.
    """
    observer = _current
    recorder = observer.flight
    if recorder is not None:
        recorder.record_event(category, action, subject, detail)
    trail = observer.trail
    if trail is None:
        return None
    return trail.event(category, action, subject, **detail)


def metrics() -> MetricsRegistry:
    """The installed metrics registry (the null registry when off)."""
    return _current.metrics


def flight_recorder():
    """The installed flight recorder, or ``None`` when absent.

    Returns ``None`` rather than a null object: the call sites
    (batch executor, warm pool, pipeline coordinator) guard with one
    ``is not None`` test because recording work — normalizing
    details, ringing frames — is not free the way a null method call
    is.
    """
    return _current.flight


def tracer() -> Tracer:
    """The installed tracer (the null tracer when off)."""
    return _current.tracer
