"""Synthetic offshore-leak corpus (Panama-papers substitute, §4.4).

Generates an entity graph in the shape the ICIJ data model uses:
offshore entities, officers (people/companies connected to them),
intermediaries (law firms/banks that set them up), with incorporation
and (possible) inactivation dates, plus a set of listed firms so the
O'Donovan-style event study (E12 family) has something to run on.
"""

from __future__ import annotations

import dataclasses

from ..errors import DatasetError
from .common import SeededGenerator

__all__ = [
    "OffshoreEntity",
    "Officer",
    "Intermediary",
    "ListedFirm",
    "OffshoreLeak",
    "OffshoreLeakGenerator",
]

HAVENS = (
    "Panama",
    "British Virgin Islands",
    "Bahamas",
    "Seychelles",
    "Samoa",
    "Niue",
)

#: Years in which information-exchange legislation took effect — used
#: as natural experiments (EUSD 2005, TIEA wave 2009, FATCA 2010,
#: CRS 2014), per Omartian's design.
LEGISLATION_YEARS = (2005, 2009, 2010, 2014)


@dataclasses.dataclass(frozen=True)
class OffshoreEntity:
    entity_id: int
    name: str
    jurisdiction: str
    incorporation_year: int
    inactivation_year: int | None
    intermediary_id: int

    def active_in(self, year: int) -> bool:
        """Whether the entity existed (uninactivated) in *year*."""
        if year < self.incorporation_year:
            return False
        return (
            self.inactivation_year is None
            or year < self.inactivation_year
        )


@dataclasses.dataclass(frozen=True)
class Officer:
    officer_id: int
    name: str
    country: str
    entity_ids: tuple[int, ...]
    is_public_figure: bool


@dataclasses.dataclass(frozen=True)
class Intermediary:
    intermediary_id: int
    name: str
    country: str


@dataclasses.dataclass(frozen=True)
class ListedFirm:
    firm_id: int
    name: str
    market_cap_musd: float
    implicated: bool


@dataclasses.dataclass(frozen=True)
class OffshoreLeak:
    """The full synthetic leak."""

    entities: tuple[OffshoreEntity, ...]
    officers: tuple[Officer, ...]
    intermediaries: tuple[Intermediary, ...]
    firms: tuple[ListedFirm, ...]

    def incorporations_by_year(self) -> dict[int, int]:
        """Annual incorporation counts, sorted by year."""
        counts: dict[int, int] = {}
        for entity in self.entities:
            counts[entity.incorporation_year] = (
                counts.get(entity.incorporation_year, 0) + 1
            )
        return dict(sorted(counts.items()))

    def active_entities(self, year: int) -> int:
        return sum(1 for e in self.entities if e.active_in(year))

    def public_figures(self) -> tuple[Officer, ...]:
        return tuple(o for o in self.officers if o.is_public_figure)


class OffshoreLeakGenerator(SeededGenerator):
    """Generate a leak whose incorporation series *responds to*
    information-exchange legislation: after each legislation year the
    baseline incorporation rate drops, so the Omartian-style analysis
    finds the significant effect he reports."""

    def generate(
        self,
        entities: int = 2000,
        officers: int = 1200,
        intermediaries: int = 40,
        firms: int = 500,
        start_year: int = 1995,
        end_year: int = 2015,
        legislation_effect: float = 0.25,
    ) -> OffshoreLeak:
        """Generate the synthetic offshore-entity leak."""
        if end_year <= start_year:
            raise DatasetError("end_year must exceed start_year")
        if not 0.0 <= legislation_effect < 1.0:
            raise DatasetError(
                "legislation_effect must be in [0, 1)"
            )
        years = list(range(start_year, end_year + 1))
        # Base weight per year, cut after each legislation event.
        weights = []
        for year in years:
            weight = 1.0
            for event in LEGISLATION_YEARS:
                if year >= event:
                    weight *= 1.0 - legislation_effect
            weights.append(weight)
        intermediary_rows = tuple(
            Intermediary(
                intermediary_id=i,
                name=f"{self.full_name()} & Partners",
                country=self.rng.choice(HAVENS),
            )
            for i in range(intermediaries)
        )
        entity_rows = []
        for entity_id in range(entities):
            year = self.rng.choices(years, weights=weights, k=1)[0]
            lifetime = self.rng.randrange(1, 15)
            inactivation = (
                year + lifetime
                if year + lifetime <= end_year
                and self.rng.random() < 0.6
                else None
            )
            entity_rows.append(
                OffshoreEntity(
                    entity_id=entity_id,
                    name=f"Entity {entity_id:05d} Ltd",
                    jurisdiction=self.rng.choice(HAVENS),
                    incorporation_year=year,
                    inactivation_year=inactivation,
                    intermediary_id=self.rng.randrange(
                        intermediaries
                    ),
                )
            )
        officer_rows = []
        for officer_id in range(officers):
            count = self.rng.randrange(1, 5)
            linked = tuple(
                self.rng.randrange(entities) for _ in range(count)
            )
            officer_rows.append(
                Officer(
                    officer_id=officer_id,
                    name=self.full_name(),
                    country=self.rng.choice(
                        ("US", "UK", "DE", "FR", "CN", "RU", "BR")
                    ),
                    entity_ids=linked,
                    is_public_figure=self.rng.random() < 0.02,
                )
            )
        firm_rows = tuple(
            ListedFirm(
                firm_id=i,
                name=f"Firm {i:04d} plc",
                market_cap_musd=round(
                    self.rng.lognormvariate(6.0, 1.0), 1
                ),
                implicated=self.rng.random() < 0.1,
            )
            for i in range(firms)
        )
        return OffshoreLeak(
            entities=tuple(entity_rows),
            officers=tuple(officer_rows),
            intermediaries=intermediary_rows,
            firms=firm_rows,
        )
