"""Declarative SLOs: operational policy as data, evaluated over windows.

The paper argues safeguards must be *demonstrable*; PAPERS.md's
Ramirez et al. adds that evaluation policy should live in a
knowledge base — **data, not code**. This module applies that to the
operational layer: a service-level objective is a plain JSON
document, and changing the policy (a smaller error budget, a
tighter error-rate ceiling) is a data drop that flips
``repro-ethics obs slo`` from exit 0 to exit 1 without touching a
line of code.

A spec looks like::

    {
      "name": "batch-availability",
      "window": 50,
      "objectives": [
        {"id": "availability", "metric": "error_rate",
         "threshold": 0.01, "comparison": "<="},
        {"id": "burn", "metric": "error_budget_burn",
         "threshold": 2.0, "comparison": "<=",
         "budget": 0.01, "windows": 3}
      ]
    }

``metric`` is ``error_rate``, the one series a
:class:`~repro.observability.windows.Window` measures, or the derived
``error_budget_burn`` (per-window ``error_rate / budget``, averaged
over a rolling run of ``windows`` consecutive windows — the burn-rate
alerting shape). A spec naming any other metric is invalid: an
objective the audit chain can never measure could never fail, so it
is rejected rather than silently passed. Objectives are judged **per
window**: a single bad window breaches, because logical windows are
the unit of degradation the flight recorder and the audit chain can
localize.

A chain with no request brackets yields no windows, and every
objective over it is ``no-data`` rather than pass or fail — an
absent measurement is evidence of nothing. Evaluation is a pure
function of (spec, series): evaluating the windowed view of the same
audit chain always yields the same report bytes, which is what makes
SLO verdicts reproducible across batch worker counts.
"""

from __future__ import annotations

import dataclasses

from ..errors import OperationError
from .windows import WindowSeries

__all__ = [
    "SloObjective",
    "SloReport",
    "SloSpec",
    "evaluate_slo",
]

#: The window measurement an objective may target, plus the derived
#: burn-rate metric. Sorted; surfaced in validation errors.
SUPPORTED_METRICS: tuple[str, ...] = (
    "error_budget_burn",
    "error_rate",
)

_COMPARISONS = ("<=", ">=")


def _spec_error(message: str) -> OperationError:
    return OperationError(f"invalid SLO spec: {message}")


@dataclasses.dataclass(frozen=True)
class SloObjective:
    """One declarative objective: a metric, a bound, a direction.

    ``comparison`` is the direction a *healthy* window satisfies:
    ``"<="`` for a ceiling, ``">="`` for a floor. ``windows`` > 1
    averages the metric over that many consecutive windows before
    comparing — with ``metric="error_budget_burn"`` and a ``budget``
    that is exactly the classic multi-window burn-rate alert.
    """

    id: str
    metric: str
    threshold: float
    comparison: str = "<="
    windows: int = 1
    budget: float | None = None

    @classmethod
    def from_dict(cls, body: dict, position: int) -> "SloObjective":
        """Validate one objective object from a spec document."""
        if not isinstance(body, dict):
            raise _spec_error(
                f"objective #{position} must be an object"
            )
        unknown = set(body) - {
            "id",
            "metric",
            "threshold",
            "comparison",
            "windows",
            "budget",
        }
        if unknown:
            raise _spec_error(
                f"objective #{position} has unknown keys "
                f"{sorted(unknown)}"
            )
        identifier = body.get("id", f"objective-{position}")
        metric = body.get("metric")
        if metric not in SUPPORTED_METRICS:
            raise _spec_error(
                f"objective {identifier!r} metric must be one of "
                f"{list(SUPPORTED_METRICS)}, got {metric!r}"
            )
        threshold = body.get("threshold")
        if not isinstance(threshold, (int, float)) or isinstance(
            threshold, bool
        ):
            raise _spec_error(
                f"objective {identifier!r} needs a numeric threshold"
            )
        comparison = body.get("comparison", "<=")
        if comparison not in _COMPARISONS:
            raise _spec_error(
                f"objective {identifier!r} comparison must be one "
                f"of {list(_COMPARISONS)}"
            )
        windows = body.get("windows", 1)
        if not isinstance(windows, int) or windows < 1:
            raise _spec_error(
                f"objective {identifier!r} windows must be a "
                "positive integer"
            )
        budget = body.get("budget")
        if metric == "error_budget_burn":
            if (
                not isinstance(budget, (int, float))
                or isinstance(budget, bool)
                or budget <= 0
            ):
                raise _spec_error(
                    f"objective {identifier!r} needs a positive "
                    "numeric budget for error_budget_burn"
                )
        elif budget is not None:
            raise _spec_error(
                f"objective {identifier!r} only takes a budget "
                "with metric error_budget_burn"
            )
        return cls(
            id=str(identifier),
            metric=metric,
            threshold=float(threshold),
            comparison=comparison,
            windows=windows,
            budget=float(budget) if budget is not None else None,
        )


@dataclasses.dataclass(frozen=True)
class SloSpec:
    """A validated SLO document: a name, a window size, objectives."""

    name: str
    window_size: int
    objectives: tuple[SloObjective, ...]

    @classmethod
    def from_dict(cls, body: dict) -> "SloSpec":
        """Validate a parsed spec document (the data-drop boundary)."""
        if not isinstance(body, dict):
            raise _spec_error("the document must be a JSON object")
        unknown = set(body) - {"name", "window", "objectives"}
        if unknown:
            raise _spec_error(f"unknown keys {sorted(unknown)}")
        name = body.get("name", "slo")
        if not isinstance(name, str) or not name:
            raise _spec_error("name must be a non-empty string")
        window_size = body.get("window", 50)
        if not isinstance(window_size, int) or window_size < 1:
            raise _spec_error(
                "window must be a positive integer request count"
            )
        raw = body.get("objectives")
        if not isinstance(raw, list) or not raw:
            raise _spec_error(
                "objectives must be a non-empty array"
            )
        objectives = tuple(
            SloObjective.from_dict(entry, position)
            for position, entry in enumerate(raw)
        )
        seen: set[str] = set()
        for objective in objectives:
            if objective.id in seen:
                raise _spec_error(
                    f"duplicate objective id {objective.id!r}"
                )
            seen.add(objective.id)
        return cls(
            name=name,
            window_size=window_size,
            objectives=objectives,
        )


@dataclasses.dataclass(frozen=True)
class SloReport:
    """The evaluation verdict: per-objective results plus gating."""

    name: str
    window_size: int
    windows: int
    requests: int
    results: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        """True when no objective breached (``no-data`` passes)."""
        return all(
            result["status"] != "breached"
            for result in self.results
        )

    @property
    def exit_code(self) -> int:
        """The gateable exit status: 0 compliant, 1 breached."""
        return 0 if self.ok else 1

    def to_dict(self) -> dict:
        """JSON-safe report, keys sorted for byte-stable emission."""
        return {
            "name": self.name,
            "ok": self.ok,
            "requests": self.requests,
            "results": [dict(result) for result in self.results],
            "window_size": self.window_size,
            "windows": self.windows,
        }

    def describe(self) -> str:
        """Human-readable verdict lines, one per objective."""
        lines = [
            f"slo: {self.name} over {self.windows} window(s) of "
            f"{self.window_size} request(s) ({self.requests} total)"
        ]
        for result in self.results:
            status = result["status"]
            measured = result["measured"]
            shown = "n/a" if measured is None else measured
            lines.append(
                f"  [{status}] {result['id']}: "
                f"{result['metric']} {shown} "
                f"{result['comparison']} {result['threshold']}"
                + (
                    f" (worst window {result['window']})"
                    if result["window"] is not None
                    else ""
                )
            )
        lines.append("verdict: " + ("pass" if self.ok else "fail"))
        return "\n".join(lines)


def _series_values(
    objective: SloObjective, windows: tuple
) -> list[float | None]:
    """The per-window metric values this objective compares."""
    rates = [window.measurements()["error_rate"] for window in windows]
    if objective.metric == "error_rate":
        return rates
    return [
        None if rate is None else round(rate / objective.budget, 6)
        for rate in rates
    ]


def _rolling(values: list, width: int) -> list[float | None]:
    """Means over every run of *width* consecutive known values."""
    if width <= 1:
        return values
    rolled: list[float | None] = []
    for end in range(width, len(values) + 1):
        run = values[end - width : end]
        if any(value is None for value in run):
            rolled.append(None)
        else:
            rolled.append(round(sum(run) / width, 6))
    return rolled


def evaluate_slo(spec: SloSpec, series: WindowSeries) -> SloReport:
    """Judge every objective of *spec* against *series*.

    For each objective: take the metric's per-window values, roll
    them over ``objective.windows`` consecutive windows when asked,
    and breach on the **worst** value that violates the comparison.
    Objectives whose series carries no data anywhere report
    ``no-data`` and do not gate. Pure function of its inputs — the
    same chain-derived series always yields the same report.
    """
    windows = series.windows()
    results: list[dict] = []
    for objective in spec.objectives:
        values = _rolling(
            _series_values(objective, windows), objective.windows
        )
        known = [
            (value, position)
            for position, value in enumerate(values)
            if value is not None
        ]
        entry = {
            "comparison": objective.comparison,
            "id": objective.id,
            "metric": objective.metric,
            "threshold": objective.threshold,
        }
        if objective.budget is not None:
            entry["budget"] = objective.budget
        if objective.windows > 1:
            entry["rolling_windows"] = objective.windows
        if not known:
            entry.update(
                measured=None, status="no-data", window=None
            )
            results.append(entry)
            continue
        if objective.comparison == "<=":
            worst, window = max(known)
            breached = worst > objective.threshold
        else:
            worst, window = min(known)
            breached = worst < objective.threshold
        entry.update(
            measured=worst,
            status="breached" if breached else "ok",
            window=window,
        )
        results.append(entry)
    return SloReport(
        name=spec.name,
        window_size=series.window_size,
        windows=len(windows),
        requests=series.total,
        results=tuple(results),
    )
