"""The assessment engine: evaluate a project end to end.

:func:`assess_project` runs the legal rules engine, the Menlo
evaluation, the Keegan–Matias risk-benefit grid and the §5.1
justification critiques over a :class:`ResearchProject` and produces
an :class:`EthicsAssessment` — the machine-readable core from which
the ethics-section and REB-application generators work.

The verdict-folding policy (which facts escalate the verdict, which
actions and notes they emit, and in what order) is declarative data
in the policy pack; :func:`assess_with_policy` evaluates any compiled
pack, and :func:`assess_project` binds the default pack to preserve
the historical behaviour exactly.
"""

from __future__ import annotations

import dataclasses

from ..ethics import (
    MenloEvaluation,
    PrincipleFinding,
    RightRisk,
    RiskBenefitGrid,
    evaluate_all_justifications,
    JustificationVerdict,
    rights_at_risk,
)
from ..errors import AssessmentError
from ..legal import LegalReport
from ..observability import audit_event
from ..policy import assessment_facts, default_policy
from .project import ResearchProject

__all__ = [
    "EthicsAssessment",
    "Verdict",
    "assess_project",
    "assess_with_policy",
]


class Verdict:
    """Overall recommendation of the assessment."""

    PROCEED = "proceed"
    PROCEED_WITH_SAFEGUARDS = "proceed-with-safeguards"
    REQUIRES_REB = "requires-reb-review"
    DO_NOT_PROCEED = "do-not-proceed"

    ORDER = (
        PROCEED,
        PROCEED_WITH_SAFEGUARDS,
        REQUIRES_REB,
        DO_NOT_PROCEED,
    )
    _RANK = {verdict: index for index, verdict in enumerate(ORDER)}

    @classmethod
    def worst(cls, verdicts: list[str]) -> str:
        """The most severe of *verdicts* (``PROCEED`` when empty).

        Uses a precomputed rank map rather than ``ORDER.index`` per
        element; an unknown verdict raises
        :class:`~repro.errors.AssessmentError` naming the offending
        value.
        """
        if not verdicts:
            return cls.PROCEED
        rank = cls._RANK
        worst = 0
        for verdict in verdicts:
            position = rank.get(verdict)
            if position is None:
                raise AssessmentError(
                    f"unknown verdict {verdict!r}"
                )
            if position > worst:
                worst = position
        return cls.ORDER[worst]


@dataclasses.dataclass(frozen=True)
class EthicsAssessment:
    """The complete assessment output for one project."""

    project: ResearchProject
    legal: LegalReport
    menlo: tuple[PrincipleFinding, ...]
    grid: RiskBenefitGrid
    justifications: tuple[JustificationVerdict, ...]
    rights_risks: tuple[RightRisk, ...]
    verdict: str
    required_actions: tuple[str, ...]
    notes: tuple[str, ...]

    @property
    def applicable_legal_issues(self) -> tuple[str, ...]:
        return self.legal.applicable_issues()

    @property
    def acceptable_justifications(
        self,
    ) -> tuple[JustificationVerdict, ...]:
        return tuple(j for j in self.justifications if j.acceptable)

    def summary(self) -> str:
        """Terse multi-line summary of the whole assessment."""
        lines = [
            f"Assessment of: {self.project.title}",
            f"Verdict: {self.verdict}",
            f"Legal risk: {self.legal.overall_risk} "
            f"(issues: {', '.join(self.applicable_legal_issues) or 'none'})",
        ]
        for finding in self.menlo:
            lines.append(
                f"Menlo {finding.principle.value}: {finding.status}"
            )
        if self.required_actions:
            lines.append("Required actions:")
            lines.extend(f"  - {a}" for a in self.required_actions)
        for note in self.notes:
            lines.append(f"Note: {note}")
        return "\n".join(lines)


def assess_with_policy(
    project: ResearchProject, policy
) -> EthicsAssessment:
    """Run every engine over the project under a compiled *policy*.

    *policy* is a :class:`~repro.policy.CompiledPolicy`, or any
    object with its ``legal_report``, ``menlo_findings`` and
    ``fold_verdict`` methods (the tests pass a reference
    interpreter): it supplies the legal decision tables, the Menlo
    principle checks and the verdict-folding steps.
    """
    legal = policy.legal_report(
        project.profile,
        project.jurisdictions,
        reb_approved=project.reb_approved,
    )
    mitigated = project.mitigated_harms()
    menlo_eval = MenloEvaluation(
        project.stakeholders,
        mitigated,
        project.benefits,
        lawful=legal.lawful_with_safeguards,
        public_interest=(
            project.justification_facts.public_interest_case
        ),
        reproducible=project.safeguards.controlled_sharing,
    )
    menlo = policy.menlo_findings(menlo_eval)
    grid = RiskBenefitGrid(
        project.stakeholders, mitigated, project.benefits
    )
    justifications = evaluate_all_justifications(
        project.justification_facts
    )
    rights_risks = rights_at_risk(project.rights_context)

    scalars, enums = assessment_facts(
        legal=legal,
        menlo=menlo,
        grid=grid,
        justifications=justifications,
        rights_risks=rights_risks,
        reb_approved=project.reb_approved,
        has_ethics_section=project.has_ethics_section,
    )

    def collect_legal_mitigations(required: list[str]) -> None:
        for finding in legal.findings:
            for mitigation in finding.mitigations:
                if (
                    finding.applicable
                    and mitigation not in required
                ):
                    required.append(mitigation)

    def collect_menlo_recommendations(required: list[str]) -> None:
        for finding in menlo:
            for recommendation in finding.recommendations:
                if recommendation not in required:
                    required.append(recommendation)

    verdict, required, notes = policy.fold_verdict(
        scalars,
        enums,
        {
            "legal-mitigations": collect_legal_mitigations,
            "menlo-recommendations": collect_menlo_recommendations,
        },
    )
    audit_event(
        "assessment",
        "assessed",
        subject=project.title,
        verdict=verdict,
        legal_risk=legal.overall_risk,
        required_actions=len(required),
        rights_risks=len(rights_risks),
    )
    return EthicsAssessment(
        project=project,
        legal=legal,
        menlo=menlo,
        grid=grid,
        justifications=justifications,
        rights_risks=rights_risks,
        verdict=verdict,
        required_actions=tuple(required),
        notes=tuple(notes),
    )


def assess_project(project: ResearchProject) -> EthicsAssessment:
    """Run every engine over the project and combine the outcomes.

    Evaluates the default policy pack, which reproduces the paper's
    folding rules exactly (E10 golden parity).
    """
    return assess_with_policy(project, default_policy())
