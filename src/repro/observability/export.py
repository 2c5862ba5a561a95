"""Telemetry egress: Prometheus text and OTLP-style JSON renderers.

PR 3 made the safeguards *record* — this module makes the records
*consumable* by the monitoring stacks a production deployment would
actually run. Two wire formats, both pure functions of their inputs:

* :func:`render_prometheus` — the Prometheus text exposition format
  over a :meth:`~repro.observability.metrics.MetricsRegistry.snapshot`
  dict: counters as ``_total`` series, gauges verbatim, histograms
  as cumulative ``_bucket{le="…"}`` series over the fixed
  :data:`~repro.observability.metrics.BUCKET_BOUNDS` plus ``_sum`` /
  ``_count``. Output is sorted and float-formatted via ``repr``, so
  rendering the same snapshot twice is byte-identical — and
  rendering the deterministic audit-derived snapshot of two
  same-seed runs is byte-identical too.
* :func:`render_otlp` — an OTLP-style JSON document
  (``resourceMetrics`` with sum/gauge/histogram data points; span
  time arrives as the ``span.<name>.seconds`` histograms). It is
  OTLP-shaped for easy ingestion, not a certified protobuf mapping,
  and carries no timestamps, because the repository's telemetry is
  deliberately clock-free.

:func:`registry_from_events` bridges the audit side: it folds a
verified event chain and its verification into counters/gauges
(``audit.events.<category>.<action>`` counts plus chain anchors),
which is what makes ``repro-ethics obs export`` deterministic for
seeded runs.
"""

from __future__ import annotations

import json
import re
from collections.abc import Sequence

from .events import AuditEvent
from .log import ChainVerification
from .metrics import BUCKET_BOUNDS, MetricsRegistry

__all__ = [
    "INSTRUMENT_HELP",
    "describe_instrument",
    "registry_from_events",
    "render_otlp",
    "render_prometheus",
]

#: Characters Prometheus forbids in metric names, replaced by ``_``.
_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, prefix: str) -> str:
    """A dotted registry name as a Prometheus metric name."""
    flat = _PROM_INVALID.sub("_", name.replace(".", "_"))
    return f"{prefix}_{flat}" if prefix else flat


def _prom_value(value: int | float) -> str:
    """Deterministic numeric formatting (repr round-trips floats)."""
    if isinstance(value, bool):  # bools are ints; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


#: Instrument descriptions by exact dotted registry name, rendered
#: as ``# HELP`` lines. Keys sorted alphabetically — and because
#: :func:`render_prometheus` walks each metric family in sorted name
#: order, the HELP lines come out alphabetical within each kind.
INSTRUMENT_HELP: dict[str, str] = {
    "audit.chain.intact": (
        "Whether a full chain-verification walk of the audit log "
        "succeeded (1) or localized corruption (0)."
    ),
    "audit.chain.length": (
        "Number of events in the verified audit chain."
    ),
    "audit.events": (
        "Total audit events folded from the verified chain."
    ),
    "ops.batch.failed": (
        "Batch requests that completed with a failure line."
    ),
    "ops.batch.ok": (
        "Batch requests that completed successfully."
    ),
    "ops.batch.requests": (
        "Batch requests executed, in input order."
    ),
    "ops.cache.hits": (
        "Content-addressed result-cache hits for pure operations."
    ),
    "ops.cache.misses": (
        "Content-addressed result-cache misses for pure operations."
    ),
    "pipeline.chunks": (
        "Record chunks processed by the safeguard pipeline."
    ),
    "pipeline.records": (
        "Records processed by the safeguard pipeline."
    ),
    "pipeline.run.seconds": (
        "Wall-clock duration distribution of safeguard pipeline "
        "runs."
    ),
}

#: Longest-prefix fallbacks for the instrument families whose names
#: embed a variable segment (span/stage/audit-action names).
_INSTRUMENT_HELP_PREFIXES: tuple[tuple[str, str], ...] = (
    (
        "audit.events.",
        "Audit events observed for one category/action pair.",
    ),
    (
        "span.",
        "Duration distribution in seconds of one tracing span.",
    ),
    (
        "stage.",
        "Per-stage safeguard pipeline instrument (position- and "
        "name-keyed).",
    ),
)


def describe_instrument(name: str) -> str | None:
    """The human description for a dotted instrument name, if any.

    Exact catalog entries win; otherwise the longest matching prefix
    family answers. Unknown instruments return ``None`` and render
    without a ``# HELP`` line rather than with a made-up one.
    """
    exact = INSTRUMENT_HELP.get(name)
    if exact is not None:
        return exact
    best: str | None = None
    best_length = -1
    for prefix, description in _INSTRUMENT_HELP_PREFIXES:
        if name.startswith(prefix) and len(prefix) > best_length:
            best = description
            best_length = len(prefix)
    return best


def _prom_help(metric: str, description: str) -> str:
    """One escaped ``# HELP`` exposition line."""
    escaped = description.replace("\\", "\\\\").replace("\n", "\\n")
    return f"# HELP {metric} {escaped}"


def render_prometheus(snapshot: dict, *, prefix: str = "repro") -> str:
    """Render a registry snapshot in Prometheus text exposition.

    Counters gain the conventional ``_total`` suffix; histogram
    bucket series are cumulative over the fixed
    :data:`~repro.observability.metrics.BUCKET_BOUNDS` with the
    ``+Inf`` bucket equal to ``_count``. The output ends with a
    newline (as the exposition format requires) unless the snapshot
    is empty, in which case it is the empty string.
    """
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = _prom_name(name, prefix) + "_total"
        description = describe_instrument(name)
        if description is not None:
            lines.append(_prom_help(metric, description))
        lines.append(f"# TYPE {metric} counter")
        value = snapshot["counters"][name]
        lines.append(f"{metric} {_prom_value(value)}")
    for name in sorted(snapshot.get("gauges", {})):
        metric = _prom_name(name, prefix)
        description = describe_instrument(name)
        if description is not None:
            lines.append(_prom_help(metric, description))
        lines.append(f"# TYPE {metric} gauge")
        value = snapshot["gauges"][name]
        lines.append(f"{metric} {_prom_value(value)}")
    for name in sorted(snapshot.get("histograms", {})):
        summary = snapshot["histograms"][name]
        metric = _prom_name(name, prefix)
        description = describe_instrument(name)
        if description is not None:
            lines.append(_prom_help(metric, description))
        lines.append(f"# TYPE {metric} histogram")
        count = summary.get("count", 0)
        buckets = summary.get("buckets")
        if buckets:
            cumulative = 0
            for bound, bucket_count in zip(BUCKET_BOUNDS, buckets):
                cumulative += bucket_count
                lines.append(
                    f'{metric}_bucket{{le="{_prom_value(bound)}"}} '
                    f"{cumulative}"
                )
        lines.append(f'{metric}_bucket{{le="+Inf"}} {count}')
        total = summary.get("total", 0.0)
        lines.append(f"{metric}_sum {_prom_value(total)}")
        lines.append(f"{metric}_count {count}")
    return "\n".join(lines) + "\n" if lines else ""


def _otlp_number(value: int | float) -> dict:
    """One OTLP NumberDataPoint value field."""
    if isinstance(value, int) and not isinstance(value, bool):
        return {"asInt": str(value)}
    return {"asDouble": float(value)}


def render_otlp(
    snapshot: dict,
    *,
    service: str = "repro-ethics",
    indent: int | None = 2,
) -> str:
    """Render a registry snapshot as OTLP-style JSON.

    Counters become monotonic cumulative sums, gauges gauges, and
    histograms histogram data points carrying the fixed
    ``explicitBounds``.
    """
    metrics: list[dict] = []
    for name in sorted(snapshot.get("counters", {})):
        metrics.append(
            {
                "name": name,
                "sum": {
                    "aggregationTemporality": (
                        "AGGREGATION_TEMPORALITY_CUMULATIVE"
                    ),
                    "isMonotonic": True,
                    "dataPoints": [
                        _otlp_number(snapshot["counters"][name])
                    ],
                },
            }
        )
    for name in sorted(snapshot.get("gauges", {})):
        metrics.append(
            {
                "name": name,
                "gauge": {
                    "dataPoints": [
                        _otlp_number(snapshot["gauges"][name])
                    ]
                },
            }
        )
    for name in sorted(snapshot.get("histograms", {})):
        summary = snapshot["histograms"][name]
        count = summary.get("count", 0)
        buckets = list(summary.get("buckets", ()))
        point: dict = {
            "count": str(count),
            "sum": summary.get("total", 0.0),
        }
        if count:
            point["min"] = summary.get("min", 0.0)
            point["max"] = summary.get("max", 0.0)
        if buckets:
            point["explicitBounds"] = list(BUCKET_BOUNDS)
            point["bucketCounts"] = [str(c) for c in buckets]
        metrics.append(
            {
                "name": name,
                "histogram": {
                    "aggregationTemporality": (
                        "AGGREGATION_TEMPORALITY_CUMULATIVE"
                    ),
                    "dataPoints": [point],
                },
            }
        )
    document = {
        "resourceMetrics": [
            {
                "resource": {
                    "attributes": [
                        {
                            "key": "service.name",
                            "value": {"stringValue": service},
                        }
                    ]
                },
                "scopeMetrics": [
                    {
                        "scope": {"name": "repro.observability"},
                        "metrics": metrics,
                    }
                ],
            }
        ]
    }
    return json.dumps(document, indent=indent, sort_keys=True)


def registry_from_events(
    events: Sequence[AuditEvent],
    verification: ChainVerification,
) -> MetricsRegistry:
    """Fold an audit chain into an exportable metrics registry.

    Produces one ``audit.events.<category>.<action>`` counter per
    distinct event kind (action hyphens become underscores so names
    stay dotted snake_case), an ``audit.events`` grand total, and the
    chain anchors as gauges: ``audit.chain.length`` and
    ``audit.chain.intact`` (1 or 0), read from *verification*: the
    walk that read *events* (:func:`~repro.observability.read_chain`),
    so no event is hashed twice.
    Because the chain is clock-free, two same-seed runs export the
    same bytes — the property ``repro-ethics obs export`` relies on.
    """
    registry = MetricsRegistry()
    total = registry.counter("audit.events")
    for event in events:
        total.inc()
        action = event.action.replace("-", "_").replace(".", "_")
        category = event.category.replace("-", "_")
        registry.counter(
            f"audit.events.{category}.{action}"
        ).inc()
    registry.gauge("audit.chain.length").set(verification.length)
    registry.gauge("audit.chain.intact").set(
        1 if verification.ok else 0
    )
    return registry
