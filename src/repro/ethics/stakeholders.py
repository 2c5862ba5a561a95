"""Stakeholder identification (§2.1 of the paper).

The paper's first ethical issue is *identification of stakeholders*:

    "Primary stakeholders are those directly connected with data, such
    as those identified in it; secondary stakeholders are
    intermediaries in the delivery of benefits or harms, such as
    service providers; and key stakeholders are those such as the
    leaker or the researcher who are critical to the conduct of the
    research."

This module models stakeholders, their roles, vulnerability and
consent status, and provides the registry an assessment starts from.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Iterable, Iterator

from ..errors import EthicsModelError

__all__ = [
    "StakeholderRole",
    "ConsentStatus",
    "Stakeholder",
    "StakeholderRegistry",
    "default_stakeholders",
]


class StakeholderRole:
    """The paper's three stakeholder roles."""

    PRIMARY = "primary"
    SECONDARY = "secondary"
    KEY = "key"

    ALL = (PRIMARY, SECONDARY, KEY)


class ConsentStatus:
    """Whether informed consent was, or could be, obtained."""

    OBTAINED = "obtained"
    IMPOSSIBLE = "impossible"  # cannot be acquired (e.g. anonymous actors)
    IMPRACTICAL = "impractical"  # possible in principle, infeasible scale
    NOT_REQUIRED = "not-required"  # research designed so it is not needed
    NOT_SOUGHT = "not-sought"  # could have been sought but was not

    ALL = (OBTAINED, IMPOSSIBLE, IMPRACTICAL, NOT_REQUIRED, NOT_SOUGHT)


@dataclasses.dataclass(frozen=True)
class Stakeholder:
    """One stakeholder (individual, group or organisation).

    ``vulnerable`` marks persons with diminished autonomy who, under
    the Menlo *respect for persons* principle, must be given additional
    protection. ``natural_person`` distinguishes humans (whose harms
    dominate ethical review) from corporate persons.
    """

    id: str
    name: str
    role: str
    natural_person: bool = True
    vulnerable: bool = False
    consent: str = ConsentStatus.NOT_SOUGHT
    interests: tuple[str, ...] = ()
    notes: str = ""

    def __post_init__(self) -> None:
        if self.role not in StakeholderRole.ALL:
            raise EthicsModelError(
                f"unknown stakeholder role {self.role!r}"
            )
        if self.consent not in ConsentStatus.ALL:
            raise EthicsModelError(
                f"unknown consent status {self.consent!r}"
            )
        if not self.id:
            raise EthicsModelError("stakeholder id must be non-empty")

    @property
    def needs_reb_protection(self) -> bool:
        """Menlo: when consent is impossible the REB must protect the
        interests of the individuals."""
        return self.natural_person and self.consent in (
            ConsentStatus.IMPOSSIBLE,
            ConsentStatus.IMPRACTICAL,
            ConsentStatus.NOT_SOUGHT,
        )


class StakeholderRegistry:
    """Ordered collection of stakeholders with role queries."""

    def __init__(self, stakeholders: Iterable[Stakeholder] = ()) -> None:
        self._by_id: dict[str, Stakeholder] = {}
        for stakeholder in stakeholders:
            self.add(stakeholder)

    def add(self, stakeholder: Stakeholder) -> None:
        """Register one stakeholder (ids must be unique)."""
        if stakeholder.id in self._by_id:
            raise EthicsModelError(
                f"duplicate stakeholder {stakeholder.id!r}"
            )
        self._by_id[stakeholder.id] = stakeholder

    def __iter__(self) -> Iterator[Stakeholder]:
        return iter(self._by_id.values())

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, stakeholder_id: str) -> bool:
        return stakeholder_id in self._by_id

    def __getitem__(self, stakeholder_id: str) -> Stakeholder:
        try:
            return self._by_id[stakeholder_id]
        except KeyError:
            raise EthicsModelError(
                f"unknown stakeholder {stakeholder_id!r}"
            ) from None

    def by_role(self, role: str) -> tuple[Stakeholder, ...]:
        if role not in StakeholderRole.ALL:
            raise EthicsModelError(f"unknown stakeholder role {role!r}")
        return tuple(s for s in self if s.role == role)

    @property
    def primary(self) -> tuple[Stakeholder, ...]:
        return self.by_role(StakeholderRole.PRIMARY)

    @property
    def secondary(self) -> tuple[Stakeholder, ...]:
        return self.by_role(StakeholderRole.SECONDARY)

    @property
    def key(self) -> tuple[Stakeholder, ...]:
        return self.by_role(StakeholderRole.KEY)

    def unprotected(self) -> tuple[Stakeholder, ...]:
        """Natural persons without consent who need REB protection."""
        return tuple(s for s in self if s.needs_reb_protection)

    def vulnerable(self) -> tuple[Stakeholder, ...]:
        return tuple(s for s in self if s.vulnerable)

    def is_complete(self) -> bool:
        """A minimally complete identification names at least one
        primary stakeholder and the researcher (a key stakeholder)."""
        return bool(self.primary) and bool(self.key)


@functools.lru_cache(maxsize=8)
def _default_members(
    data_subjects: str, service: str, leaker: str
) -> tuple[Stakeholder, ...]:
    """The canonical stakeholders, built once per name triple.

    Stakeholders are frozen, so every registry can share them.
    """
    return (
        Stakeholder(
            id="data-subjects",
            name=data_subjects,
            role=StakeholderRole.PRIMARY,
            consent=ConsentStatus.IMPOSSIBLE,
        ),
        Stakeholder(
            id="service-operator",
            name=service,
            role=StakeholderRole.SECONDARY,
            natural_person=False,
        ),
        Stakeholder(
            id="leaker",
            name=leaker,
            role=StakeholderRole.KEY,
            consent=ConsentStatus.NOT_REQUIRED,
        ),
        Stakeholder(
            id="researchers",
            name="the researchers conducting the study",
            role=StakeholderRole.KEY,
            consent=ConsentStatus.OBTAINED,
        ),
    )


def default_stakeholders(
    data_subjects: str = "individuals identified in the data",
    service: str = "the service the data was taken from",
    leaker: str = "the person who leaked the data",
) -> StakeholderRegistry:
    """A canonical starting registry for illicit-origin data research.

    Mirrors the paper's running example: data subjects (primary), the
    compromised service (secondary), and the leaker and researcher
    (key). Callers refine consent / vulnerability per project. Each
    call returns a fresh registry over prebuilt frozen stakeholders.
    """
    return StakeholderRegistry(
        _default_members(data_subjects, service, leaker)
    )
