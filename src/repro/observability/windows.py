"""Logical-clock outcome windows: per-N-requests, no wall time.

Production SLO tooling slices telemetry into *time* windows; this
repository's telemetry is deliberately clock-free, so the health
surface slices by **logical clock** instead — every window covers a
fixed number of requests, whatever wall time they took. The result
is reproducible by construction: the windowed view of an audit chain
is a pure function of the chain, so ``workers=1`` and ``workers=N``
batch runs of the same request file window identically.

A window holds request **outcomes** only, because outcomes are all
the chain records. Every other per-request series — latency, queue
depth, worker utilization, cache hit or miss — depends on the
schedule (the worker count, which worker served a request, what the
cache held at the time), so none can enter a chain that must be
byte-identical under any schedule. Runtime timing belongs to the
tracer's ``span.<name>.seconds`` histograms in the metrics registry.

* :class:`Window` — one window's ok/failed counts and error rate.
* :class:`WindowSeries` — the rolling collection: ``observe(ok)``
  folds one outcome into the open window and closes it every
  ``window_size`` requests; the final partial window is evaluated
  too (a short run still gets an SLO verdict).
* :func:`windows_from_events` — the audit-chain feeder: folds the
  ``ops/request-completed`` / ``ops/request-failed`` brackets of a
  verified chain into a series.

The SLO engine (:mod:`repro.observability.slo`) evaluates declarative
objectives over these windows.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import SafeguardError
from .events import AuditEvent

__all__ = [
    "Window",
    "WindowSeries",
    "windows_from_events",
]


class Window:
    """The outcome counts of one logical window of requests."""

    __slots__ = ("index", "start", "count", "ok", "failed")

    def __init__(self, index: int, start: int) -> None:
        self.index = index
        self.start = start
        self.count = 0
        self.ok = 0
        self.failed = 0

    def observe(self, ok: bool) -> None:
        """Fold one request outcome into this window's counts."""
        self.count += 1
        if ok:
            self.ok += 1
        else:
            self.failed += 1

    def measurements(self) -> dict:
        """The window's measured series: its error rate.

        ``None`` for a window that holds no request — the SLO engine
        treats that as ``no-data`` rather than inventing a zero.
        """
        return {
            "error_rate": (
                round(self.failed / self.count, 6)
                if self.count
                else None
            ),
        }

    def to_dict(self) -> dict:
        """JSON-safe summary: bounds, raw counts and measurements."""
        return {
            "count": self.count,
            "failed": self.failed,
            "index": self.index,
            "measurements": self.measurements(),
            "ok": self.ok,
            "start": self.start,
        }


class WindowSeries:
    """A rolling sequence of fixed-size logical windows."""

    __slots__ = ("window_size", "total", "_closed", "_open")

    def __init__(self, window_size: int = 50) -> None:
        if window_size < 1:
            raise SafeguardError(
                "window size must be at least 1 request"
            )
        self.window_size = window_size
        self.total = 0
        self._closed: list[Window] = []
        self._open: Window | None = None

    def observe(self, ok: bool) -> None:
        """Fold one outcome; close the window at ``window_size``."""
        window = self._open
        if window is None:
            window = self._open = Window(
                index=len(self._closed), start=self.total
            )
        window.observe(ok)
        self.total += 1
        if window.count >= self.window_size:
            self._closed.append(window)
            self._open = None

    def windows(self, *, partial: bool = True) -> tuple[Window, ...]:
        """Closed windows, plus the open partial one when *partial*."""
        if partial and self._open is not None:
            return (*self._closed, self._open)
        return tuple(self._closed)

    def to_dict(self) -> dict:
        """JSON-safe view of the whole series, windows in order."""
        return {
            "requests": self.total,
            "window_size": self.window_size,
            "windows": [
                window.to_dict() for window in self.windows()
            ],
        }


def windows_from_events(
    events: Sequence[AuditEvent], window_size: int = 50
) -> WindowSeries:
    """Window the per-request brackets of an audit chain.

    Folds ``ops/request-completed`` (ok iff ``exit_code`` is 0) and
    ``ops/request-failed`` events, in chain order, into a
    :class:`WindowSeries`. Because the batch executor replays worker
    shards in input order, the same request file produces the same
    series at any worker count; that is what makes
    ``repro-ethics obs slo`` byte-identical across ``--workers``.
    """
    series = WindowSeries(window_size)
    for event in events:
        if event.category != "ops":
            continue
        if event.action == "request-completed":
            series.observe(event.detail.get("exit_code", 0) == 0)
        elif event.action == "request-failed":
            series.observe(False)
    return series
