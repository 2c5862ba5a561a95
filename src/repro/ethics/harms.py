"""Harm and benefit instances with likelihood/severity scoring.

The paper's §5.3/§5.4 taxonomies (the codebook's open-set harm and
benefit codes) classify *kinds*; an assessment also needs concrete
*instances* — "publishing attack logs could re-expose victim IP
addresses" — each with the stakeholder it falls on, a likelihood and a
severity. The classic risk product (likelihood × severity) gives a
comparable magnitude, and mitigation by safeguards reduces residual
likelihood.
"""

from __future__ import annotations

import dataclasses

from .._util import clamp
from ..codebook.paper import BENEFIT_CODES, HARM_CODES
from ..errors import EthicsModelError

__all__ = [
    "Likelihood",
    "Severity",
    "HarmInstance",
    "BenefitInstance",
    "HARM_ABBREVS",
    "BENEFIT_ABBREVS",
]

HARM_ABBREVS = tuple(code.abbrev for code in HARM_CODES)
BENEFIT_ABBREVS = tuple(code.abbrev for code in BENEFIT_CODES)


class Likelihood:
    """Qualitative likelihood scale mapped to [0, 1] midpoints."""

    RARE = 0.05
    UNLIKELY = 0.2
    POSSIBLE = 0.5
    LIKELY = 0.8
    CERTAIN = 1.0

    SCALE = {
        "rare": RARE,
        "unlikely": UNLIKELY,
        "possible": POSSIBLE,
        "likely": LIKELY,
        "certain": CERTAIN,
    }

    @classmethod
    def parse(cls, value: float | str) -> float:
        if isinstance(value, str):
            try:
                return cls.SCALE[value.lower()]
            except KeyError:
                raise EthicsModelError(
                    f"unknown likelihood {value!r}"
                ) from None
        if not 0.0 <= value <= 1.0:
            raise EthicsModelError("likelihood must be in [0, 1]")
        return float(value)


class Severity:
    """Qualitative severity scale mapped to [0, 1]."""

    NEGLIGIBLE = 0.1
    MINOR = 0.3
    MODERATE = 0.5
    MAJOR = 0.8
    CATASTROPHIC = 1.0

    SCALE = {
        "negligible": NEGLIGIBLE,
        "minor": MINOR,
        "moderate": MODERATE,
        "major": MAJOR,
        "catastrophic": CATASTROPHIC,
    }

    @classmethod
    def parse(cls, value: float | str) -> float:
        if isinstance(value, str):
            try:
                return cls.SCALE[value.lower()]
            except KeyError:
                raise EthicsModelError(
                    f"unknown severity {value!r}"
                ) from None
        if not 0.0 <= value <= 1.0:
            raise EthicsModelError("severity must be in [0, 1]")
        return float(value)


@dataclasses.dataclass(frozen=True)
class HarmInstance:
    """A concrete potential harm to one stakeholder.

    ``kind`` is a §5.3 harm code abbreviation (I, PA, DA, SI, RH, BC);
    ``mitigation`` in [0, 1] is the fraction of likelihood removed by
    safeguards (0 = unmitigated).
    """

    description: str
    kind: str
    stakeholder_id: str
    likelihood: float
    severity: float
    mitigation: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in HARM_ABBREVS:
            raise EthicsModelError(
                f"unknown harm kind {self.kind!r}; one of {HARM_ABBREVS}"
            )
        object.__setattr__(
            self, "likelihood", Likelihood.parse(self.likelihood)
        )
        object.__setattr__(
            self, "severity", Severity.parse(self.severity)
        )
        if not 0.0 <= self.mitigation <= 1.0:
            raise EthicsModelError("mitigation must be in [0, 1]")
        if not self.description:
            raise EthicsModelError("harm description must be non-empty")

    @property
    def raw_risk(self) -> float:
        """Unmitigated risk magnitude (likelihood × severity)."""
        return self.likelihood * self.severity

    @property
    def residual_risk(self) -> float:
        """Risk remaining after mitigation."""
        return clamp(
            self.likelihood * (1.0 - self.mitigation) * self.severity,
            0.0,
            1.0,
        )

    def mitigated(self, additional: float) -> "HarmInstance":
        """A copy with *additional* mitigation composed in.

        Mitigations compose multiplicatively on the remaining
        likelihood: applying 0.5 twice leaves 25% of the original.
        """
        if not 0.0 <= additional <= 1.0:
            raise EthicsModelError("mitigation must be in [0, 1]")
        remaining = (1.0 - self.mitigation) * (1.0 - additional)
        # Every other field is already validated, and the composed
        # mitigation stays in [0, 1]: copy the fields directly rather
        # than re-running __init__ and __post_init__.
        copy = object.__new__(type(self))
        vars(copy).update(vars(self), mitigation=1.0 - remaining)
        return copy


@dataclasses.dataclass(frozen=True)
class BenefitInstance:
    """A concrete potential benefit.

    ``kind`` is a §5.4 benefit code abbreviation (R, U, DM, AT);
    ``beneficiary`` names who gains (a stakeholder id or "society").
    ``magnitude`` in [0, 1] scores the expected benefit.
    """

    description: str
    kind: str
    beneficiary: str
    magnitude: float
    likelihood: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in BENEFIT_ABBREVS:
            raise EthicsModelError(
                f"unknown benefit kind {self.kind!r}; "
                f"one of {BENEFIT_ABBREVS}"
            )
        if not 0.0 <= self.magnitude <= 1.0:
            raise EthicsModelError("magnitude must be in [0, 1]")
        object.__setattr__(
            self, "likelihood", Likelihood.parse(self.likelihood)
        )
        if not self.description:
            raise EthicsModelError(
                "benefit description must be non-empty"
            )

    @property
    def expected_value(self) -> float:
        return self.magnitude * self.likelihood
