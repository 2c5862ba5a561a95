"""Experiment report builder: paper-vs-measured for every artifact.

Runs the complete reproduction battery (Table 1 regeneration, every
§5 claim, the legal reconstruction, the REB policy ablation) and
renders a paper-vs-measured report — the generator behind
EXPERIMENTS.md and the integration test of the whole pipeline.
"""

from __future__ import annotations

import dataclasses

from ..analysis import section5_statistics, verify_section5
from ..assessment import validate_legal_reconstruction
from ..corpus import Corpus, table1_corpus
from ..reb import run_policy_experiment
from ..tables import render_table1

__all__ = ["ExperimentOutcome", "run_reproduction", "render_report"]


@dataclasses.dataclass(frozen=True)
class ExperimentOutcome:
    """One experiment's result."""

    experiment_id: str
    description: str
    expected: str
    measured: str
    passed: bool


def run_reproduction(
    corpus: Corpus | None = None,
) -> list[ExperimentOutcome]:
    """Run E1–E3-style checks and return the outcomes."""
    corpus = corpus or table1_corpus()
    outcomes: list[ExperimentOutcome] = []

    # E1: Table 1 regenerates with the right shape.
    table = render_table1(corpus, "csv")
    rows = table.strip().splitlines()
    outcomes.append(
        ExperimentOutcome(
            experiment_id="E1",
            description="Table 1 regenerated (30 rows, 5 categories)",
            expected="30 data rows",
            measured=f"{len(rows) - 1} data rows",
            passed=len(rows) - 1 == 30,
        )
    )

    # E2–E8: the §5 claims.
    for check in verify_section5(corpus):
        outcomes.append(
            ExperimentOutcome(
                experiment_id="E2-E8",
                description=f"§5 claim: {check.claim}",
                expected=check.expected_text,
                measured=check.measured_text,
                passed=check.ok,
            )
        )

    # E10: legal reconstruction.
    legal_checks = validate_legal_reconstruction(corpus)
    failures = [c for c in legal_checks if not c.ok]
    outcomes.append(
        ExperimentOutcome(
            experiment_id="E10",
            description=(
                "legal bullets re-derived from data profiles for all "
                "30 entries"
            ),
            expected="0 mismatches",
            measured=f"{len(failures)} mismatches",
            passed=not failures,
        )
    )

    # E13: REB policy ablation.
    comparison = run_policy_experiment(corpus)
    outcomes.append(
        ExperimentOutcome(
            experiment_id="E13",
            description=(
                "risk-based REB trigger dominates the human-subjects "
                "trigger"
            ),
            expected="risk-based reviews a superset incl. the two "
            "exempted studies",
            measured=comparison.describe(),
            passed=comparison.risk_based_dominates
            and {"booters-karami-stress", "udp-ddos-thomas"}
            <= set(comparison.flipped),
        )
    )
    return outcomes


def render_report(corpus: Corpus | None = None) -> str:
    """The paper-vs-measured report as Markdown."""
    corpus = corpus or table1_corpus()
    outcomes = run_reproduction(corpus)
    stats = section5_statistics(corpus)
    lines = [
        "# Reproduction report",
        "",
        "| Exp | Check | Paper | Measured | OK |",
        "|---|---|---|---|---|",
    ]
    for outcome in outcomes:
        ok = "yes" if outcome.passed else "**NO**",
        lines.append(
            f"| {outcome.experiment_id} | {outcome.description} | "
            f"{outcome.expected} | {outcome.measured} | {ok[0]} |"
        )
    lines.extend(
        [
            "",
            "## Code profiles (measured)",
            "",
            f"- Safeguards: {stats.safeguard_counts}",
            f"- Harms: {stats.harm_counts}",
            f"- Benefits: {stats.benefit_counts}",
            f"- Justifications: {stats.justification_counts}",
        ]
    )
    return "\n".join(lines)
