"""Unit tests for the Keegan-Matias risk-benefit grid."""

from __future__ import annotations

import random

import pytest

from repro.datasets import synthetic_project
from repro.errors import EthicsModelError
from repro.ethics import (
    BenefitInstance,
    HarmInstance,
    PartyBalance,
    RiskBenefitGrid,
    default_stakeholders,
)


def _harm(stakeholder="data-subjects", likelihood=0.5, severity=0.5):
    return HarmInstance(
        description="exposure",
        kind="SI",
        stakeholder_id=stakeholder,
        likelihood=likelihood,
        severity=severity,
    )


def _benefit(beneficiary="society", magnitude=0.5):
    return BenefitInstance(
        description="defence mechanisms",
        kind="DM",
        beneficiary=beneficiary,
        magnitude=magnitude,
    )


class TestGridConstruction:
    def test_unknown_harm_stakeholder(self):
        with pytest.raises(EthicsModelError):
            RiskBenefitGrid(
                default_stakeholders(), [_harm("ghost")], []
            )

    def test_unknown_beneficiary(self):
        with pytest.raises(EthicsModelError):
            RiskBenefitGrid(
                default_stakeholders(), [], [_benefit("ghost")]
            )

    def test_society_always_allowed(self):
        grid = RiskBenefitGrid(
            default_stakeholders(), [], [_benefit("society")]
        )
        assert grid.total_benefit() > 0


class TestBalances:
    def test_per_party_accounting(self):
        grid = RiskBenefitGrid(
            default_stakeholders(),
            [_harm(), _harm()],
            [_benefit("society")],
        )
        balance = grid.balance("data-subjects")
        assert balance.harm_count == 2
        assert balance.risk == pytest.approx(0.5)
        assert balance.benefit == 0.0
        assert balance.is_subsidising

    def test_society_row_present_when_benefits(self):
        grid = RiskBenefitGrid(
            default_stakeholders(), [], [_benefit("society")]
        )
        parties = [b.stakeholder_id for b in grid.balances()]
        assert "society" in parties

    def test_society_row_absent_without_benefits(self):
        grid = RiskBenefitGrid(default_stakeholders(), [_harm()], [])
        parties = [b.stakeholder_id for b in grid.balances()]
        assert "society" not in parties

    def test_net(self):
        grid = RiskBenefitGrid(
            default_stakeholders(),
            [_harm()],
            [_benefit("data-subjects", magnitude=0.9)],
        )
        balance = grid.balance("data-subjects")
        assert balance.net == pytest.approx(0.9 - 0.25)
        assert not balance.is_subsidising


class TestQueries:
    def test_unassessed_parties(self):
        grid = RiskBenefitGrid(
            default_stakeholders(), [_harm()], [_benefit("society")]
        )
        unassessed = grid.unassessed_parties()
        assert "service-operator" in unassessed
        assert "data-subjects" not in unassessed

    def test_favourable_requires_no_subsidy(self):
        grid = RiskBenefitGrid(
            default_stakeholders(),
            [_harm()],
            [_benefit("society", magnitude=0.9)],
        )
        # Benefit exceeds risk, but data-subjects subsidise: not
        # favourable under the multi-party rule.
        assert grid.total_benefit() > grid.total_risk()
        assert not grid.favourable()

    def test_favourable_when_balanced(self):
        grid = RiskBenefitGrid(
            default_stakeholders(),
            [_harm(likelihood=0.1, severity=0.1)],
            [_benefit("data-subjects", magnitude=0.9)],
        )
        assert grid.favourable()

    def test_render_marks_subsidising(self):
        grid = RiskBenefitGrid(
            default_stakeholders(), [_harm()], [_benefit("society")]
        )
        assert "[subsidising]" in grid.render_text()


def _naive_balance(grid, party_id):
    """One party's row recomputed from the whole register."""
    name = (
        "society at large"
        if party_id == "society"
        else grid.stakeholders[party_id].name
    )
    harms = [h for h in grid.harms if h.stakeholder_id == party_id]
    benefits = [b for b in grid.benefits if b.beneficiary == party_id]
    return PartyBalance(
        stakeholder_id=party_id,
        name=name,
        risk=sum(h.residual_risk for h in harms),
        benefit=sum(b.expected_value for b in benefits),
        harm_count=len(harms),
        benefit_count=len(benefits),
    )


def _naive_balances(grid):
    parties = [s.id for s in grid.stakeholders]
    if any(b.beneficiary == "society" for b in grid.benefits):
        parties.append("society")
    return tuple(_naive_balance(grid, party) for party in parties)


def _registers():
    """Assessment-shaped registers: 600 synthetic projects' mitigated
    harms, then 300 random registers over every stakeholder and
    society, many of them empty or with society-only benefits."""
    for seed in range(600):
        project = synthetic_project(seed)
        yield (
            project.stakeholders,
            project.mitigated_harms(),
            project.benefits,
        )
    rng = random.Random(11)
    stakeholders = default_stakeholders()
    ids = [s.id for s in stakeholders]
    for _ in range(300):
        harms = [
            _harm(
                rng.choice(ids),
                likelihood=rng.random(),
                severity=rng.random(),
            )
            for _ in range(rng.randint(0, 4))
        ]
        benefits = [
            _benefit(
                rng.choice(ids + ["society"] * 3),
                magnitude=rng.random(),
            )
            for _ in range(rng.randint(0, 3))
        ]
        yield stakeholders, harms, benefits


class TestSinglePassFold:
    """The one-pass fold equals a naive per-party recomputation."""

    def test_matches_naive_recomputation(self):
        for stakeholders, harms, benefits in _registers():
            grid = RiskBenefitGrid(stakeholders, harms, benefits)
            naive = _naive_balances(grid)
            # repr, not ==: 0 and 0.0 compare equal but render apart.
            assert repr(grid.balances()) == repr(naive)
            assert grid.subsidising_parties() == tuple(
                b for b in naive if b.is_subsidising
            )
            assert grid.unassessed_parties() == tuple(
                b.stakeholder_id
                for b in naive
                if b.harm_count == 0 and b.benefit_count == 0
            )
            for party in [*(s.id for s in stakeholders), "society"]:
                assert repr(grid.balance(party)) == repr(
                    _naive_balance(grid, party)
                )
            assert repr(grid.total_risk()) == repr(
                sum(h.residual_risk for h in harms)
            )
            assert repr(grid.total_benefit()) == repr(
                sum(b.expected_value for b in benefits)
            )

    def test_society_only_benefits(self):
        grid = RiskBenefitGrid(
            default_stakeholders(),
            [],
            [_benefit("society"), _benefit("society", magnitude=0.2)],
        )
        assert grid.balances()[-1].stakeholder_id == "society"
        assert grid.balance("society").benefit_count == 2
        assert grid.subsidising_parties() == ()
        assert grid.unassessed_parties() == tuple(
            s.id for s in default_stakeholders()
        )

    def test_empty_register(self):
        grid = RiskBenefitGrid(default_stakeholders(), [], [])
        assert len(grid.balances()) == len(default_stakeholders())
        assert grid.total_risk() == 0 and grid.total_benefit() == 0
        assert grid.subsidising_parties() == ()
        assert grid.balance("society") == PartyBalance(
            "society", "society at large", 0, 0, 0, 0
        )

    def test_unknown_party(self):
        grid = RiskBenefitGrid(default_stakeholders(), [_harm()], [])
        with pytest.raises(EthicsModelError):
            grid.balance("ghost")
