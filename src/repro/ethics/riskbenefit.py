"""Keegan–Matias multi-party risk-benefit grid (§2, [56]).

Keegan and Matias propose analysing online-community research by
enumerating, for every affected party, the risks and benefits the
research imposes on them — rather than aggregating over everyone at
once. :class:`RiskBenefitGrid` materialises that grid from harm and
benefit instances and supports the balance queries the assessment
engine uses (who carries net risk, where is the grid empty, does any
party subsidise the others).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from ..errors import EthicsModelError
from .harms import BenefitInstance, HarmInstance
from .stakeholders import StakeholderRegistry

__all__ = ["PartyBalance", "RiskBenefitGrid"]


@dataclasses.dataclass(frozen=True)
class PartyBalance:
    """Net position of one party in the grid."""

    stakeholder_id: str
    name: str
    risk: float
    benefit: float
    harm_count: int
    benefit_count: int

    @property
    def net(self) -> float:
        return self.benefit - self.risk

    @property
    def is_subsidising(self) -> bool:
        """True when the party carries risk but receives no benefit."""
        return self.risk > 0.0 and self.benefit == 0.0


class RiskBenefitGrid:
    """Per-party risk/benefit accounting over an assessment's register.

    Benefits whose ``beneficiary`` is ``"society"`` are treated as a
    distinguished diffuse party rather than spread over stakeholders,
    matching how the paper discusses public-interest benefits.

    The grid is folded once, at construction: every party's
    :class:`PartyBalance` is built from one pass over the harms and
    one over the benefits, and the queries below read that result.
    Each per-party total is still a ``sum()`` over the party's
    entries in register order, so the floats match a per-party
    recomputation exactly. The stakeholder registry is read at
    construction; stakeholders added later are not rows.
    """

    SOCIETY = "society"
    SOCIETY_NAME = "society at large"

    def __init__(
        self,
        stakeholders: StakeholderRegistry,
        harms: Sequence[HarmInstance],
        benefits: Sequence[BenefitInstance],
    ) -> None:
        self.stakeholders = stakeholders
        self.harms = tuple(harms)
        self.benefits = tuple(benefits)
        risks: list[float] = []
        risks_by_party: dict[str, list[float]] = {}
        for harm in self.harms:
            if harm.stakeholder_id not in stakeholders:
                raise EthicsModelError(
                    f"harm names unknown stakeholder "
                    f"{harm.stakeholder_id!r}"
                )
            risk = harm.residual_risk
            risks.append(risk)
            risks_by_party.setdefault(harm.stakeholder_id, []).append(
                risk
            )
        values: list[float] = []
        values_by_party: dict[str, list[float]] = {}
        for benefit in self.benefits:
            if (
                benefit.beneficiary != self.SOCIETY
                and benefit.beneficiary not in stakeholders
            ):
                raise EthicsModelError(
                    f"benefit names unknown beneficiary "
                    f"{benefit.beneficiary!r}"
                )
            value = benefit.expected_value
            values.append(value)
            values_by_party.setdefault(benefit.beneficiary, []).append(
                value
            )
        self._total_risk = sum(risks)
        self._total_benefit = sum(values)
        parties = [(s.id, s.name) for s in stakeholders]
        if self.SOCIETY in values_by_party:
            parties.append((self.SOCIETY, self.SOCIETY_NAME))
        balances = []
        for party, name in parties:
            risks = risks_by_party.get(party, ())
            values = values_by_party.get(party, ())
            balances.append(
                PartyBalance(
                    party,
                    self.SOCIETY_NAME if party == self.SOCIETY else name,
                    sum(risks),
                    sum(values),
                    len(risks),
                    len(values),
                )
            )
        self._balances = tuple(balances)
        self._by_party = {b.stakeholder_id: b for b in balances}

    def balance(self, party_id: str) -> PartyBalance:
        """The net position of one party (stakeholder id or society).

        Society without benefits has an empty row; an unknown party
        raises :class:`~repro.errors.EthicsModelError`.
        """
        folded = self._by_party.get(party_id)
        if folded is None:
            name = (
                self.SOCIETY_NAME
                if party_id == self.SOCIETY
                else self.stakeholders[party_id].name
            )
            folded = PartyBalance(party_id, name, 0, 0, 0, 0)
        return folded

    def balances(self) -> tuple[PartyBalance, ...]:
        """Balances for all stakeholders plus society (when present)."""
        return self._balances

    def subsidising_parties(self) -> tuple[PartyBalance, ...]:
        """Parties carrying risk with no benefit — the fairness red
        flag the multi-party framing exists to surface."""
        return tuple(b for b in self._balances if b.is_subsidising)

    def unassessed_parties(self) -> tuple[str, ...]:
        """Stakeholders with neither harms nor benefits recorded.

        An empty grid row usually means the analysis is incomplete,
        not that the party is unaffected. (The society row exists
        only when it has benefits, so it is never listed.)
        """
        return tuple(
            b.stakeholder_id
            for b in self._balances
            if b.harm_count == 0 and b.benefit_count == 0
        )

    def total_risk(self) -> float:
        return self._total_risk

    def total_benefit(self) -> float:
        return self._total_benefit

    def favourable(self) -> bool:
        """Aggregate benefit exceeds aggregate residual risk *and* no
        party subsidises the rest."""
        return (
            self.total_benefit() > self.total_risk()
            and not self.subsidising_parties()
        )

    def render_text(self) -> str:
        """Human-readable grid for reports."""
        lines = ["Party                          Risk  Benefit  Net"]
        for balance in self.balances():
            lines.append(
                f"{balance.name[:30]:<30} {balance.risk:5.2f} "
                f"{balance.benefit:8.2f} {balance.net:+5.2f}"
                + ("  [subsidising]" if balance.is_subsidising else "")
            )
        return "\n".join(lines)
