"""Fact providers: derive policy-pack facts from rich model objects.

The decision tables in a compiled pack test *facts* — flat booleans
(and small enumerations of template items) — not model objects. This
module is the boundary between the two worlds: it reduces a
:class:`~repro.ethics.menlo.MenloEvaluation` or an assessment's
intermediate results to the fact dictionaries the pack's ``menlo``
and ``verdict`` sections condition on. The compiled evaluator and
the tests' reference interpreter consume the same providers, so
differential tests compare pure rule evaluation, not fact extraction.

Floats that appear inside templated reasons (residual risks,
benefit totals) are pre-formatted here with the legacy ``:.2f``
rendering, so pack templates stay plain ``str.format`` fields.
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from ..ethics.menlo import MenloEvaluation

__all__ = ["assessment_facts", "menlo_facts"]


def menlo_facts(
    evaluation: "MenloEvaluation",
) -> tuple[dict[str, bool], dict[str, list], dict[str, str]]:
    """Facts for the pack's Menlo principle checks.

    Returns ``(scalars, enums, context)``: boolean facts, per-item
    enumerations (each item a template mapping), and scalar template
    context strings.
    """
    # Imported here so that importing the policy package (which the
    # ops layer does for pack digests) does not load all of
    # repro.ethics.
    from ..ethics.stakeholders import ConsentStatus

    stakeholders = evaluation.stakeholders
    harms = evaluation.harms
    benefits = evaluation.benefits

    residuals: list[float] = []
    residuals_by_party: dict[str, list[float]] = {}
    for harm in harms:
        residual = harm.residual_risk
        residuals.append(residual)
        residuals_by_party.setdefault(harm.stakeholder_id, []).append(
            residual
        )
    total_residual = sum(residuals)
    total_benefit = sum(b.expected_value for b in benefits)

    threshold = evaluation.residual_risk_threshold
    unprotected: list[str] = []
    not_sought = False
    vulnerable: list[dict[str, str]] = []
    over_threshold: list[dict[str, str]] = []
    for stakeholder in stakeholders:
        if stakeholder.needs_reb_protection:
            unprotected.append(stakeholder.name)
        if stakeholder.vulnerable:
            vulnerable.append({"name": stakeholder.name})
        if not stakeholder.natural_person:
            continue
        if stakeholder.consent == ConsentStatus.NOT_SOUGHT:
            not_sought = True
        residual = sum(residuals_by_party.get(stakeholder.id, ()))
        if residual > threshold:
            over_threshold.append(
                {
                    "name": stakeholder.name,
                    "residual": f"{residual:.2f}",
                    "threshold": f"{threshold:.2f}",
                }
            )

    benefiting = {b.beneficiary for b in benefits}
    only_harmed = residuals_by_party.keys() - benefiting - {"society"}
    burdened = bool(only_harmed and benefiting)
    burdened_names = ", ".join(
        stakeholders[s].name
        for s in sorted(only_harmed)
        if s in stakeholders
    )

    scalars = {
        "has_unprotected": bool(unprotected),
        "consent_not_sought": not_sought,
        "no_harms_identified": not harms,
        "no_benefits_articulated": total_benefit == 0.0,
        "residual_exceeds_benefit": bool(
            total_benefit and total_residual > total_benefit
        ),
        "burdened_group_exists": burdened,
        "burdened_group_named": burdened and bool(burdened_names),
        "empty_register": not harms and not benefits,
        "lawfulness_unknown": evaluation.lawful is None,
        "lawful": bool(evaluation.lawful),
        "public_interest_case": evaluation.public_interest,
        "reproducible": evaluation.reproducible,
    }
    enums = {
        "vulnerable_stakeholders": vulnerable,
        "over_threshold_stakeholders": over_threshold,
    }
    context = {
        "unprotected_names": ", ".join(unprotected),
        "burdened_names": burdened_names,
        "total_residual": f"{total_residual:.2f}",
        "total_benefit": f"{total_benefit:.2f}",
    }
    return scalars, enums, context


def assessment_facts(
    *,
    legal: Any,
    menlo: tuple,
    grid: Any,
    justifications: tuple,
    rights_risks: tuple,
    reb_approved: bool,
    has_ethics_section: bool,
) -> tuple[dict[str, bool], dict[str, list]]:
    """Facts for the pack's verdict-folding steps.

    *legal* is a :class:`~repro.legal.rules.LegalReport`, *menlo* the
    principle findings, *grid* the risk-benefit grid; the remaining
    arguments mirror :func:`repro.assessment.engine.assess_project`
    intermediates. Returns ``(scalars, enums)``.
    """
    # Not at module level: legal/rules.py imports this package, and
    # the ops layer imports it without needing repro.ethics.
    from ..ethics.menlo import FindingStatus
    from ..legal.rules import RiskLevel

    overall = legal.overall_risk
    worst_menlo = FindingStatus.worst([f.status for f in menlo])
    total_risk = grid.total_risk()
    total_benefit = grid.total_benefit()

    scalars = {
        "right_to_life_engaged": any(
            risk.right.id == "life" for risk in rights_risks
        ),
        "rights_engaged": bool(rights_risks),
        "legal_risk_severe": overall == RiskLevel.SEVERE,
        "legal_risk_high": overall == RiskLevel.HIGH,
        "legal_risk_moderate": overall
        in (RiskLevel.MEDIUM, RiskLevel.LOW),
        "menlo_violated": worst_menlo == FindingStatus.VIOLATED,
        "menlo_needs_safeguards": (
            worst_menlo == FindingStatus.NEEDS_SAFEGUARDS
        ),
        "residual_risk_without_reb": (
            total_risk > 0 and not reb_approved
        ),
        "no_acceptable_justification": not any(
            j.acceptable for j in justifications
        ),
        "ethics_section_missing": not has_ethics_section,
        "harms_outweigh_benefits": (
            total_benefit > 0 and total_risk > total_benefit
        ),
    }
    enums = {
        "rights_risks": [
            {
                "right_name": risk.right.name,
                "mechanism": risk.mechanism,
            }
            for risk in rights_risks
        ],
        "subsidising_parties": [
            {"name": b.name, "risk": f"{b.risk:.2f}"}
            for b in grid.subsidising_parties()
        ],
        "unassessed_parties": [
            {"party": repr(party)}
            for party in grid.unassessed_parties()
        ],
    }
    return scalars, enums
