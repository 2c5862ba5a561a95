"""Synthetic research-project generator for mass policy assessment.

Unlike the other dataset families (which synthesise *data*), this one
synthesises *research designs*: seed-deterministic
:class:`~repro.assessment.project.ResearchProject` instances with
randomised data profiles, jurisdiction sets, harm/benefit registers,
safeguard plans, rights contexts and justification facts. They are
the workload for the ``policy.assess`` operation and the E19
benchmark, which mass-assesses thousands of them through the warm
batch executor under different policy packs.

The distributions are tuned so the verdict space is exercised: most
projects land in the proceed-with-safeguards band, with meaningful
minorities hitting REB triggers, severe legal exposure and
do-not-proceed hard stops.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..assessment import PlannedSafeguards, ResearchProject
from ..corpus import DataOrigin
from ..ethics import (
    BenefitInstance,
    HarmInstance,
    JustificationFacts,
    RightsContext,
    default_stakeholders,
)
from ..legal import ALL_JURISDICTIONS, DataProfile, JurisdictionSet
from .common import SeededGenerator, chunked

__all__ = ["ResearchProjectGenerator", "synthetic_project"]

_TOPICS = (
    "credential reuse",
    "booter economics",
    "underground forum trust",
    "offshore finance networks",
    "malware supply chains",
    "censorship measurement",
    "abuse infrastructure takedowns",
    "data-breach notification",
)

_HARM_KINDS = ("SI", "DA", "PA", "RH")
_BENEFIT_KINDS = ("R", "U", "DM", "AT")
_LIKELIHOODS = (0.05, 0.2, 0.5, 0.8)
_SEVERITIES = (0.1, 0.3, 0.5, 0.8)


class ResearchProjectGenerator(SeededGenerator):
    """Seed-deterministic stream of synthetic research projects."""

    def build(self, index: int = 0) -> ResearchProject:
        """One synthetic project (consumes RNG state)."""
        rng = self.rng
        topic = rng.choice(_TOPICS)
        origin = rng.choice(DataOrigin.ALL)
        intrusion = rng.random() < 0.04
        malware = rng.random() < 0.15
        profile_kwargs = {
            "origin": origin,
            "contains_personal_data": rng.random() < 0.55,
            "contains_credentials": rng.random() < 0.35,
            "contains_email_addresses": rng.random() < 0.5,
            "contains_ip_addresses": rng.random() < 0.4,
            "contains_private_messages": rng.random() < 0.25,
            "contains_financial_records": rng.random() < 0.2,
            "contains_malware_or_exploits": malware,
            "copyrighted_material": rng.random() < 0.3,
            "us_government_work": rng.random() < 0.05,
            "classified": rng.random() < 0.07,
            "state_sensitive": rng.random() < 0.12,
            "terrorism_related": rng.random() < 0.08,
            "may_contain_indecent_images": rng.random() < 0.05,
            "publicly_available": rng.random() < 0.7,
            "collected_by_researcher_intrusion": intrusion,
            "paid_offenders": rng.random() < 0.05,
            "plans_public_redistribution": rng.random() < 0.15,
            "plans_controlled_sharing": rng.random() < 0.4,
            "plans_deanonymization": rng.random() < 0.1,
            "violates_terms_of_service": rng.random() < 0.3,
        }
        profile = DataProfile(**profile_kwargs)

        count = rng.randint(1, len(ALL_JURISDICTIONS))
        jurisdictions = JurisdictionSet(
            rng.sample(ALL_JURISDICTIONS, count)
        )

        stakeholders = default_stakeholders()
        harms = tuple(
            HarmInstance(
                description=(
                    f"harm {harm_index} from studying {topic}"
                ),
                kind=rng.choice(_HARM_KINDS),
                stakeholder_id=rng.choice(
                    ("data-subjects", "researchers")
                ),
                likelihood=rng.choice(_LIKELIHOODS),
                severity=rng.choice(_SEVERITIES),
            )
            for harm_index in range(rng.randint(0, 3))
        )
        benefits = tuple(
            BenefitInstance(
                description=(
                    f"benefit {benefit_index} of understanding "
                    f"{topic}"
                ),
                kind=rng.choice(_BENEFIT_KINDS),
                beneficiary=rng.choice(
                    ("society", "researchers")
                ),
                magnitude=rng.choice(_SEVERITIES),
            )
            for benefit_index in range(rng.randint(0, 2))
        )

        safeguards = PlannedSafeguards(
            secure_storage=rng.random() < 0.7,
            encryption_at_rest=rng.random() < 0.5,
            access_control=rng.random() < 0.5,
            privacy_preserved=rng.random() < 0.5,
            pseudonymisation=rng.random() < 0.4,
            data_minimisation=rng.random() < 0.4,
            controlled_sharing=rng.random() < 0.4,
        )
        identifies = rng.random() < 0.3
        rights = RightsContext(
            identifies_individuals=identifies,
            implies_criminality=identifies and rng.random() < 0.5,
            reaches_law_enforcement=rng.random() < 0.2,
            extrajudicial_violence_risk=rng.random() < 0.03,
            contains_private_life=profile_kwargs[
                "contains_private_messages"
            ],
            triggers_asset_action=rng.random() < 0.1,
        )
        justification = JustificationFacts(
            prior_published_use=rng.random() < 0.4,
            use_differs_from_prior=rng.random() < 0.5,
            data_public=profile_kwargs["publicly_available"],
            applies_new_techniques=rng.random() < 0.3,
            no_persons_identified=not identifies,
            secure_handling=safeguards.secure_storage,
            use_is_inherent_harm=profile_kwargs[
                "may_contain_indecent_images"
            ],
            adversaries_use_data=rng.random() < 0.4,
            defence_creates_greater_harm=rng.random() < 0.1,
            no_alternative_source=rng.random() < 0.5,
            public_interest_case=rng.random() < 0.6,
        )
        return ResearchProject(
            title=f"synthetic study {index}: {topic}",
            research_question=(
                f"what does this dataset reveal about {topic}?"
            ),
            data_description=(
                f"a synthetic illicit-origin dataset about {topic}"
            ),
            profile=profile,
            stakeholders=stakeholders,
            harms=harms,
            benefits=benefits,
            justification_facts=justification,
            safeguards=safeguards,
            jurisdictions=jurisdictions,
            rights_context=rights,
            reb_approved=rng.random() < 0.25,
            has_ethics_section=rng.random() < 0.4,
        )

    def generate(self, count: int) -> tuple[ResearchProject, ...]:
        """*count* projects, in deterministic seed order."""
        return tuple(
            self.build(index) for index in range(count)
        )

    def iter_records(
        self, *, chunk_size: int = 1024, count: int = 1000
    ) -> Iterator[list[dict]]:
        """Stream flat project summaries as record chunks."""

        def records() -> Iterator[dict]:
            for index in range(count):
                project = self.build(index)
                yield {
                    "_table": "projects",
                    "title": project.title,
                    "origin": project.profile.origin,
                    "jurisdictions": ",".join(
                        j.code for j in project.jurisdictions
                    ),
                    "harms": len(project.harms),
                    "benefits": len(project.benefits),
                    "reb_approved": project.reb_approved,
                    "has_ethics_section": (
                        project.has_ethics_section
                    ),
                }

        yield from chunked(records(), chunk_size)


def synthetic_project(seed: int) -> ResearchProject:
    """The single deterministic project for *seed*.

    ``policy.assess --seed N`` resolves its subject through this
    helper, so one seed names one project everywhere (CLI, batch
    files, benchmarks).
    """
    return ResearchProjectGenerator(seed).build(seed)
