"""Named queries reproducing every quantitative claim in §5 of the paper.

Each claim is computed from the corpus (never hard-coded) and compared
against the value the paper reports. :func:`section5_statistics`
returns the full set; :func:`verify_section5` checks them and returns
a list of :class:`ClaimCheck` results — the reproduction harness for
experiments E2–E8 in DESIGN.md.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..codebook import CellValue
from ..corpus import Corpus
from .matrix import CodingMatrix

__all__ = [
    "Section5Statistics",
    "ClaimCheck",
    "section5_statistics",
    "verify_section5",
    "PAPER_CLAIMS",
]


@dataclasses.dataclass(frozen=True)
class Section5Statistics:
    """All §5 statistics recomputed from the corpus.

    Attributes correspond to the paper's narrative claims; see
    :data:`PAPER_CLAIMS` for the expected values.
    """

    total_entries: int
    total_papers: int
    reb_exempt: int
    reb_approved: int
    reb_not_mentioned: int
    reb_not_applicable: int
    ethics_sections: int
    controlled_sharing: int
    safeguard_counts: dict[str, int]
    harm_counts: dict[str, int]
    benefit_counts: dict[str, int]
    justification_counts: dict[str, int]
    ethical_issue_counts: dict[str, int]
    legal_issue_counts: dict[str, int]
    exempt_entries: tuple[str, ...]
    approved_entries: tuple[str, ...]
    exempt_used_safeguards: bool
    exempt_identified_harms: bool
    approved_also_did_surveys: bool
    most_common_safeguard: str
    most_common_harm: str
    most_common_benefit: str
    harms_mentions: int
    benefits_mentions: int

    def as_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


#: The values the paper reports (or that follow arithmetically from its
#: text), keyed by statistic name. Used by :func:`verify_section5`.
PAPER_CLAIMS: dict[str, Any] = {
    # Table 1 has 30 rows; §5.5 counts 28 "papers" (excluding the two
    # raw web sources, [106] and [18]).
    "total_entries": 30,
    "total_papers": 28,
    # "Two works stated that they were exempt from REB approval, two
    #  received REB approval and 24 did not mention REBs."
    "reb_exempt": 2,
    "reb_approved": 2,
    "reb_not_mentioned": 24,
    "reb_not_applicable": 2,
    # "Explicit ethics sections were included in 12 of the 28 papers."
    "ethics_sections": 12,
    # "Only four of the papers discussed controlled sharing (CS)."
    "controlled_sharing": 4,
    # "Privacy preservation is one of the safeguards applied most
    #  frequently" — P must be the (strictly) most common safeguard.
    "most_common_safeguard": "P",
    # "Both of these works used Safeguards ... and have clear ethical
    #  justifications" (the two exemptions).
    "exempt_used_safeguards": True,
    "exempt_identified_harms": True,
    # "Both of the papers that received REB approval obtained it ...
    #  because they also conducted surveys" ([57], [24]).
    "approved_also_did_surveys": True,
    # The two exempt works, by row.
    "exempt_entries": ("booters-karami-stress", "udp-ddos-thomas"),
    "approved_entries": ("guess-again-kelley", "tangled-web-das"),
    # "researchers appear to be more reluctant to express the potential
    #  harms resulting from their work than their benefits": total
    #  benefit mentions exceed total harm mentions.
    "benefits_exceed_harms": True,
}

#: Rows whose authors conducted surveys / other human-subject research
#: alongside the illicit-origin data use (§5.5: the reason the two
#: REB approvals were obtained at all).
_SURVEY_ENTRIES = frozenset({"guess-again-kelley", "tangled-web-das"})


def section5_statistics(corpus: Corpus) -> Section5Statistics:
    """Recompute every §5 statistic from the coded corpus."""
    matrix = CodingMatrix(corpus)
    papers = corpus.papers()

    def status(value: CellValue) -> tuple[str, ...]:
        return tuple(
            e.id for e in corpus if e.reb_status is value
        )

    exempt = status(CellValue.EXEMPT)
    approved = status(CellValue.APPROVED)

    def code_counts(dimension_id: str) -> dict[str, int]:
        dim = corpus.codebook[dimension_id]
        return {
            code.abbrev: sum(
                1 for e in corpus if e.has_code(dimension_id, code.abbrev)
            )
            for code in dim.members
        }

    def discussed_counts(group: str) -> dict[str, int]:
        return {
            dim.id: sum(1 for e in corpus if e.discussed(dim.id))
            for dim in corpus.codebook.group(group)
        }

    safeguard_counts = code_counts("safeguards")
    harm_counts = code_counts("harms")
    benefit_counts = code_counts("benefits")

    def argmax(counts: dict[str, int]) -> str:
        return max(sorted(counts), key=lambda k: counts[k])

    exempt_entries = tuple(corpus[i] for i in exempt)
    return Section5Statistics(
        total_entries=len(corpus),
        total_papers=len(papers),
        reb_exempt=len(exempt),
        reb_approved=len(approved),
        reb_not_mentioned=len(status(CellValue.NOT_MENTIONED)),
        reb_not_applicable=len(status(CellValue.NOT_RELEVANT)),
        ethics_sections=sum(
            1 for e in papers if e.has_ethics_section
        ),
        controlled_sharing=len(corpus.with_code("safeguards", "CS")),
        safeguard_counts=safeguard_counts,
        harm_counts=harm_counts,
        benefit_counts=benefit_counts,
        justification_counts=discussed_counts("justification"),
        ethical_issue_counts=discussed_counts("ethical"),
        legal_issue_counts={
            dim.id: int(matrix.column(dim.id).sum())
            for dim in corpus.codebook.group("legal")
        },
        exempt_entries=exempt,
        approved_entries=approved,
        exempt_used_safeguards=all(
            e.codes("safeguards") for e in exempt_entries
        ),
        exempt_identified_harms=all(
            e.discussed("identify-harms") for e in exempt_entries
        ),
        approved_also_did_surveys=set(approved) <= _SURVEY_ENTRIES
        and bool(approved),
        most_common_safeguard=argmax(safeguard_counts),
        most_common_harm=argmax(harm_counts),
        most_common_benefit=argmax(benefit_counts),
        harms_mentions=sum(harm_counts.values()),
        benefits_mentions=sum(benefit_counts.values()),
    )


@dataclasses.dataclass(frozen=True)
class ClaimCheck:
    """Comparison of one recomputed statistic against the paper."""

    claim: str
    expected: Any
    measured: Any

    @property
    def ok(self) -> bool:
        return self.expected == self.measured

    @property
    def expected_text(self) -> str:
        return _stable_repr(self.expected)

    @property
    def measured_text(self) -> str:
        return _stable_repr(self.measured)

    def describe(self) -> str:
        """One-line OK/FAIL rendering of the comparison."""
        mark = "OK " if self.ok else "FAIL"
        return (
            f"[{mark}] {self.claim}: paper={self.expected_text} "
            f"measured={self.measured_text}"
        )


def _stable_repr(value: Any) -> str:
    """``repr`` with set members sorted: a set's iteration order
    follows the string hash seed, so its plain ``repr`` does too."""
    if isinstance(value, set) and value:
        return "{" + ", ".join(repr(v) for v in sorted(value)) + "}"
    return repr(value)


def verify_section5(corpus: Corpus) -> list[ClaimCheck]:
    """Check every §5 claim against the corpus; all should pass."""
    stats = section5_statistics(corpus)
    checks: list[ClaimCheck] = []
    direct = (
        "total_entries",
        "total_papers",
        "reb_exempt",
        "reb_approved",
        "reb_not_mentioned",
        "reb_not_applicable",
        "ethics_sections",
        "controlled_sharing",
        "most_common_safeguard",
        "exempt_used_safeguards",
        "exempt_identified_harms",
        "approved_also_did_surveys",
    )
    for name in direct:
        checks.append(
            ClaimCheck(
                claim=name,
                expected=PAPER_CLAIMS[name],
                measured=getattr(stats, name),
            )
        )
    checks.append(
        ClaimCheck(
            claim="exempt_entries",
            expected=set(PAPER_CLAIMS["exempt_entries"]),
            measured=set(stats.exempt_entries),
        )
    )
    checks.append(
        ClaimCheck(
            claim="approved_entries",
            expected=set(PAPER_CLAIMS["approved_entries"]),
            measured=set(stats.approved_entries),
        )
    )
    checks.append(
        ClaimCheck(
            claim="benefits_exceed_harms",
            expected=PAPER_CLAIMS["benefits_exceed_harms"],
            measured=stats.benefits_mentions > stats.harms_mentions,
        )
    )
    # Privacy must be *strictly* the most frequent safeguard.
    p_count = stats.safeguard_counts["P"]
    others = [
        count
        for abbrev, count in stats.safeguard_counts.items()
        if abbrev != "P"
    ]
    checks.append(
        ClaimCheck(
            claim="privacy_strictly_most_frequent",
            expected=True,
            measured=all(p_count > c for c in others),
        )
    )
    return checks
