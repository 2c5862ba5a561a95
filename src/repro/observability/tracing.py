"""Context-manager tracing spans for the safeguard machinery.

A :class:`Tracer` hands out ``with tracer.span("pipeline.seal"):``
context managers. Each finished span observes its wall-clock
duration (``time.perf_counter`` — the one clock the determinism
rules allow, because timings live strictly outside the data path) as
a ``span.<name>.seconds`` histogram in the tracer's
:class:`~repro.observability.metrics.MetricsRegistry`. That
histogram is the one record of a span: the tracer keeps no span
list, and :meth:`Tracer.summary` reads its totals back from the
registry.

The :data:`NULL_TRACER` singleton is the no-op twin: ``span()``
returns one shared, reusable context manager whose enter/exit do
nothing, so instrumented code never branches on whether tracing is
enabled. Pipeline worker processes record spans into chunk-local
registries whose snapshots merge into the coordinator's registry
(see :mod:`repro.observability.worker`), so worker span time shows
up in the coordinator's summary with no span shipping of its own.
The tracer also exposes :attr:`Tracer.active_span` — the innermost
open span's name — which the sampling profiler reads from its
sampler thread to attribute stack samples.
"""

from __future__ import annotations

import time

from .metrics import NULL_METRICS, MetricsRegistry

__all__ = ["NULL_TRACER", "NullTracer", "Span", "Tracer"]

_PREFIX = "span."
_SUFFIX = ".seconds"


class Span:
    """A live timing span; use via ``with tracer.span(name):``."""

    __slots__ = ("name", "_tracer", "_started")

    def __init__(self, name: str, tracer: "Tracer") -> None:
        self.name = name
        self._tracer = tracer
        self._started = 0.0

    def __enter__(self) -> "Span":
        self._tracer._active.append(self.name)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._started
        tracer = self._tracer
        tracer._active.pop()
        tracer._metrics.histogram(
            f"{_PREFIX}{self.name}{_SUFFIX}"
        ).observe(elapsed)


class Tracer:
    """Produces spans that time into a metrics registry."""

    def __init__(self, metrics: MetricsRegistry) -> None:
        self._metrics = metrics
        self._active: list[str] = []

    @property
    def enabled(self) -> bool:
        """Whether spans record anything (the null tracer → False)."""
        return True

    @property
    def active_span(self) -> str:
        """The innermost open span's name ("" when none is open).

        The sampling profiler reads this from its sampler thread to
        attribute stack samples to the span the instrumented thread
        is inside; a one-element read of the stack is safe under the
        GIL without locking.
        """
        active = self._active
        return active[-1] if active else ""

    def span(self, name: str) -> Span:
        """A context manager timing the enclosed block as *name*."""
        return Span(name, self)

    def summary(self) -> dict:
        """Per-name {count, seconds} totals, sorted by name.

        Read from the registry's ``span.<name>.seconds`` histograms,
        so merged worker snapshots count like local spans.
        """
        histograms = self._metrics.snapshot()["histograms"]
        return {
            name[len(_PREFIX) : -len(_SUFFIX)]: {
                "count": entry["count"],
                "seconds": entry["total"],
            }
            for name, entry in histograms.items()
            if name.startswith(_PREFIX) and name.endswith(_SUFFIX)
        }


class _NullSpan:
    """The shared no-op span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """No-op tracer: ``span()`` returns one shared inert manager."""

    def __init__(self) -> None:
        super().__init__(NULL_METRICS)

    @property
    def enabled(self) -> bool:
        """Always False: spans never record."""
        return False

    def span(self, name: str) -> Span:
        """The shared no-op span (name is ignored)."""
        return _NULL_SPAN  # type: ignore[return-value]


#: The process-wide no-op tracer instrumented code defaults to.
NULL_TRACER = NullTracer()
