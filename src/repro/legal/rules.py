"""Legal applicability rules engine (§3).

Given a :class:`DataProfile` — the legally relevant facts about a
dataset of illicit origin and its planned use — and a
:class:`~repro.legal.jurisdictions.JurisdictionSet`, the engine
determines which of the paper's legal issues apply, cites the relevant
statutes, attaches the available defences, and grades the residual
legal risk. Experiment E10 validates the engine by re-deriving the
legal bullets of every Table 1 row from first principles.

The rules themselves are no longer code: they live as declarative
rows in the default policy pack (:mod:`repro.policy.defaults`) and
:func:`analyze_legal` evaluates the compiled decision tables. The
issue catalogue is likewise derived from the pack, so adding an
issue or a venue variant is a data change, not a code change.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from ..corpus import DataOrigin
from ..errors import LegalModelError
from ..policy.defaults import legal_issue_ids
from .jurisdictions import Jurisdiction, JurisdictionSet
from .statutes import Statute

__all__ = [
    "DataProfile",
    "RiskLevel",
    "LegalFinding",
    "LegalReport",
    "analyze_legal",
    "LEGAL_ISSUE_IDS",
]

#: Canonical issue order, taken from the default policy pack.
LEGAL_ISSUE_IDS: tuple[str, ...] = legal_issue_ids()


@dataclasses.dataclass(frozen=True)
class DataProfile:
    """Legally relevant facts about a dataset and its intended use.

    Content flags describe what the data (potentially) contains;
    action flags describe what the researchers did or plan to do.
    """

    origin: str = DataOrigin.UNAUTHORIZED_LEAK
    # -- content ------------------------------------------------------
    contains_personal_data: bool = False
    contains_credentials: bool = False
    contains_email_addresses: bool = False
    contains_ip_addresses: bool = False
    contains_private_messages: bool = False
    contains_financial_records: bool = False
    contains_malware_or_exploits: bool = False
    copyrighted_material: bool = False
    us_government_work: bool = False
    classified: bool = False
    #: Not classified, but reveals the conduct of states or
    #: state-linked persons (e.g. the Panama papers), engaging foreign
    #: secrecy / national-security legislation at lower intensity.
    state_sensitive: bool = False
    terrorism_related: bool = False
    may_contain_indecent_images: bool = False
    publicly_available: bool = False
    # -- researcher actions --------------------------------------------
    collected_by_researcher_intrusion: bool = False
    paid_offenders: bool = False
    plans_public_redistribution: bool = False
    plans_controlled_sharing: bool = False
    plans_deanonymization: bool = False
    violates_terms_of_service: bool = False

    def __post_init__(self) -> None:
        if self.origin not in DataOrigin.ALL:
            raise LegalModelError(f"unknown data origin {self.origin!r}")

    @property
    def any_personal_data(self) -> bool:
        """Personal data in the broad (GDPR-style) sense."""
        return (
            self.contains_personal_data
            or self.contains_credentials
            or self.contains_email_addresses
            or self.contains_private_messages
            or self.contains_financial_records
        )


class RiskLevel:
    """Ordinal legal-risk grading for findings and reports."""

    NONE = "none"
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"
    SEVERE = "severe"

    ORDER = (NONE, LOW, MEDIUM, HIGH, SEVERE)
    _RANK = {level: index for index, level in enumerate(ORDER)}

    @classmethod
    def worst(cls, levels: Sequence[str]) -> str:
        """The most severe of *levels* (``NONE`` when empty).

        Unknown levels raise :class:`LegalModelError` naming the
        offending value rather than a bare ``ValueError``.
        """
        if not levels:
            return cls.NONE
        rank = cls._RANK
        worst = 0
        for level in levels:
            position = rank.get(level)
            if position is None:
                raise LegalModelError(
                    f"unknown risk level {level!r}"
                )
            if position > worst:
                worst = position
        return cls.ORDER[worst]


@dataclasses.dataclass(frozen=True)
class LegalFinding:
    """One (issue, jurisdiction) determination."""

    issue: str
    jurisdiction: Jurisdiction
    applicable: bool
    risk: str
    rationale: str
    statutes: tuple[Statute, ...] = ()
    defences: tuple[str, ...] = ()
    mitigations: tuple[str, ...] = ()

    def describe(self) -> str:
        """Multi-line rendering with statutes and mitigations."""
        head = (
            f"{self.issue} [{self.jurisdiction.code}]: "
            f"{'applies' if self.applicable else 'not applicable'}"
            f" (risk: {self.risk})"
        )
        lines = [head, f"  {self.rationale}"]
        for statute in self.statutes:
            lines.append(f"  statute: {statute.name}")
        for defence in self.defences:
            lines.append(f"  defence: {defence}")
        for mitigation in self.mitigations:
            lines.append(f"  mitigate: {mitigation}")
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class LegalReport:
    """The full multi-jurisdiction analysis.

    The report is immutable, so its two summaries — the overall risk
    and the applicable issues — are folded once, at construction.
    """

    profile: DataProfile
    findings: tuple[LegalFinding, ...]
    #: The most severe finding risk (``none`` without findings).
    overall_risk: str = dataclasses.field(
        init=False, repr=False, compare=False
    )
    _applicable: tuple[str, ...] = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        risks = []
        seen = set()
        for finding in self.findings:
            risks.append(finding.risk)
            if finding.applicable:
                seen.add(finding.issue)
        object.__setattr__(self, "overall_risk", RiskLevel.worst(risks))
        object.__setattr__(
            self,
            "_applicable",
            tuple(i for i in LEGAL_ISSUE_IDS if i in seen),
        )

    def applicable_issues(self) -> tuple[str, ...]:
        """Issue ids applicable in at least one jurisdiction, in the
        canonical order."""
        return self._applicable

    def findings_for(self, issue: str) -> tuple[LegalFinding, ...]:
        return tuple(f for f in self.findings if f.issue == issue)

    @property
    def lawful_with_safeguards(self) -> bool:
        """No finding is graded high or severe."""
        return self.overall_risk not in (RiskLevel.HIGH, RiskLevel.SEVERE)

    def describe(self) -> str:
        """Human-readable report of the applicable findings."""
        lines = [f"Overall legal risk: {self.overall_risk}"]
        for finding in self.findings:
            if finding.applicable:
                lines.append(finding.describe())
        return "\n".join(lines)


def analyze_legal(
    profile: DataProfile,
    jurisdictions: JurisdictionSet,
    *,
    reb_approved: bool = False,
) -> LegalReport:
    """Evaluate every legal issue in every jurisdiction.

    The rules implement §3 of the paper as declarative rows in the
    default policy pack; each finding cites the statutes from
    :mod:`repro.legal.statutes` and carries the generic defences plus
    issue-specific mitigations. Evaluation runs on the compiled
    decision tables of :func:`repro.policy.default_policy`.
    """
    from ..policy.runtime import default_policy

    return default_policy().legal_report(
        profile, jurisdictions, reb_approved=reb_approved
    )
