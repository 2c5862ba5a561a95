"""Executable critiques of the §5.1 justifications.

The paper lists five justifications researchers commonly give for
using data of illicit origin, and criticises each in italics. This
module turns those critiques into checkable rules: given the facts of
a project, :func:`evaluate_justification` says whether the
justification *as stated* carries weight, and what additional
conditions it depends on.
"""

from __future__ import annotations

import dataclasses
import functools

from ..errors import EthicsModelError

__all__ = [
    "JustificationFacts",
    "JustificationVerdict",
    "evaluate_justification",
    "evaluate_all_justifications",
    "JUSTIFICATION_IDS",
]

JUSTIFICATION_IDS = (
    "not-the-first",
    "public-data",
    "no-additional-harm",
    "fight-malicious-use",
    "necessary-data",
)


@dataclasses.dataclass(frozen=True)
class JustificationFacts:
    """Project facts the justification rules condition on."""

    #: Prior peer-reviewed work used the same data.
    prior_published_use: bool = False
    #: This work's use differs from the prior published uses.
    use_differs_from_prior: bool = False
    #: The data is publicly available.
    data_public: bool = False
    #: The work applies new techniques (e.g. deanonymisation) to the
    #: data beyond what is already public.
    applies_new_techniques: bool = False
    #: No natural person is identified by the research outputs.
    no_persons_identified: bool = True
    #: The data is stored and managed securely.
    secure_handling: bool = False
    #: Any use of the data is itself further harm (e.g. imagery of
    #: child abuse, where every viewing is additional abuse).
    use_is_inherent_harm: bool = False
    #: Malicious actors already use the same data.
    adversaries_use_data: bool = False
    #: The defensive use creates greater harm than it prevents.
    defence_creates_greater_harm: bool = False
    #: The research question cannot be answered without this data.
    no_alternative_source: bool = False
    #: The work has an articulated public-interest benefit.
    public_interest_case: bool = False


@dataclasses.dataclass(frozen=True)
class JustificationVerdict:
    """Whether a justification carries weight, and why."""

    justification_id: str
    acceptable: bool
    weight: str  # "none" | "weak" | "supporting" | "strong"
    critique: str
    conditions: tuple[str, ...] = ()


def evaluate_justification(
    justification_id: str, facts: JustificationFacts
) -> JustificationVerdict:
    """Apply the paper's critique of one justification to the facts."""
    if justification_id == "not-the-first":
        return _not_the_first(facts)
    if justification_id == "public-data":
        return _public_data(facts)
    if justification_id == "no-additional-harm":
        return _no_additional_harm(facts)
    if justification_id == "fight-malicious-use":
        return _fight_malicious_use(facts)
    if justification_id == "necessary-data":
        return _necessary_data(facts)
    raise EthicsModelError(
        f"unknown justification {justification_id!r}; "
        f"one of {JUSTIFICATION_IDS}"
    )


@functools.lru_cache(maxsize=4096)
def evaluate_all_justifications(
    facts: JustificationFacts,
) -> tuple[JustificationVerdict, ...]:
    """Evaluate every §5.1 justification against the same facts.

    The verdicts are frozen values and depend only on the facts,
    eleven booleans, so each distinct fact pattern is evaluated once
    and its verdict tuple shared.
    """
    return tuple(
        evaluate_justification(justification_id, facts)
        for justification_id in JUSTIFICATION_IDS
    )


def _not_the_first(facts: JustificationFacts) -> JustificationVerdict:
    # "This is a poor argument: not all published work is ethical under
    #  current norms, and ... if your work does something different
    #  with these data then that requires its own justification."
    if not facts.prior_published_use:
        return JustificationVerdict(
            "not-the-first",
            acceptable=False,
            weight="none",
            critique=(
                "no prior published use exists, so the justification "
                "does not even apply"
            ),
        )
    if facts.use_differs_from_prior:
        return JustificationVerdict(
            "not-the-first",
            acceptable=False,
            weight="none",
            critique=(
                "prior publication does not transfer: this work does "
                "something different with the data and requires its "
                "own justification"
            ),
        )
    return JustificationVerdict(
        "not-the-first",
        acceptable=False,
        weight="weak",
        critique=(
            "a poor argument on its own — not all published work is "
            "ethical under current norms; at most it shows community "
            "precedent"
        ),
        conditions=(
            "provide an independent ethical justification",
        ),
    )


def _public_data(facts: JustificationFacts) -> JustificationVerdict:
    # "The ethics of the work must still be considered and in some
    #  cases REB review may still be required. Researchers may develop
    #  or apply new techniques to public data that ... deanonymise
    #  these data, and this may cause harm."
    if not facts.data_public:
        return JustificationVerdict(
            "public-data",
            acceptable=False,
            weight="none",
            critique="the data is not in fact public",
        )
    if facts.applies_new_techniques:
        return JustificationVerdict(
            "public-data",
            acceptable=False,
            weight="none",
            critique=(
                "public availability does not cover new techniques "
                "applied to the data (e.g. deanonymisation), which may "
                "cause fresh harm"
            ),
            conditions=("seek REB review for the new technique",),
        )
    return JustificationVerdict(
        "public-data",
        acceptable=False,
        weight="weak",
        critique=(
            "public availability alone does not settle the ethics; "
            "public data can contain personally identifiable "
            "information and REB review may still be required "
            "(WECSR 2012 panel)"
        ),
        conditions=("consider ethics explicitly; REB review may apply",),
    )


def _no_additional_harm(
    facts: JustificationFacts,
) -> JustificationVerdict:
    # "For there to be no additional harms the research should not
    #  identify any natural persons and data may need to be stored and
    #  managed securely. In some cases any use ... is considered
    #  additional harm."
    if facts.use_is_inherent_harm:
        return JustificationVerdict(
            "no-additional-harm",
            acceptable=False,
            weight="none",
            critique=(
                "for this data any use is itself additional harm "
                "(e.g. imagery of abuse: every viewing is additional "
                "abuse of the victim)"
            ),
        )
    missing = []
    if not facts.no_persons_identified:
        missing.append("the research must identify no natural persons")
    if not facts.secure_handling:
        missing.append("the data must be stored and managed securely")
    if missing:
        return JustificationVerdict(
            "no-additional-harm",
            acceptable=False,
            weight="weak",
            critique=(
                "the no-additional-harm premise fails: "
                + "; ".join(missing)
            ),
            conditions=tuple(missing),
        )
    return JustificationVerdict(
        "no-additional-harm",
        acceptable=True,
        weight="supporting",
        critique=(
            "holds only because no persons are identified and the "
            "data is handled securely"
        ),
        conditions=(
            "maintain secure handling for the life of the data",
        ),
    )


def _fight_malicious_use(
    facts: JustificationFacts,
) -> JustificationVerdict:
    # "If researchers can use the same data to prevent or reduce harm
    #  caused by malicious actors, without creating greater harm by
    #  doing so, then it may be ethical to do so."
    if not facts.adversaries_use_data:
        return JustificationVerdict(
            "fight-malicious-use",
            acceptable=False,
            weight="none",
            critique=(
                "no evidence malicious actors use this data, so there "
                "is nothing to defend against"
            ),
        )
    if facts.defence_creates_greater_harm:
        return JustificationVerdict(
            "fight-malicious-use",
            acceptable=False,
            weight="none",
            critique=(
                "the defensive use would create greater harm than it "
                "prevents"
            ),
        )
    return JustificationVerdict(
        "fight-malicious-use",
        acceptable=True,
        weight="supporting",
        critique=(
            "defensible: the same data is used to prevent or reduce "
            "harm caused by malicious actors without creating greater "
            "harm"
        ),
    )


def _necessary_data(facts: JustificationFacts) -> JustificationVerdict:
    # "This might be a good justification if there is sufficient
    #  benefit to the work (Public interest) and there is no
    #  additional harm."
    if not facts.no_alternative_source:
        return JustificationVerdict(
            "necessary-data",
            acceptable=False,
            weight="none",
            critique=(
                "the research can be conducted from other sources "
                "(cf. Patreon: scraping sufficed, so using the dump "
                "was unjustifiable)"
            ),
        )
    if not facts.public_interest_case:
        return JustificationVerdict(
            "necessary-data",
            acceptable=False,
            weight="weak",
            critique=(
                "necessity without an articulated public-interest "
                "benefit does not justify use"
            ),
            conditions=("articulate the public-interest benefit",),
        )
    return JustificationVerdict(
        "necessary-data",
        acceptable=True,
        weight="strong",
        critique=(
            "a good justification: the data is necessary and the "
            "public-interest benefit is articulated"
        ),
        conditions=("demonstrate no additional harm",),
    )
