"""Tabulation, statistics and the §5 reproduction queries.

``matrix`` and ``section5`` load eagerly. The names from
``similarity`` (networkx), ``uncertainty`` and ``statistics`` (scipy)
load on first access, so importing ``repro.analysis`` for the §5
counts alone does not pay for those libraries. The ``TYPE_CHECKING``
imports keep the lazy names visible to type checkers and to the
static linter's re-export resolution.
"""

from typing import TYPE_CHECKING

from .matrix import CodingMatrix, CrossTab, FrequencyTable
from .section5 import (
    PAPER_CLAIMS,
    ClaimCheck,
    Section5Statistics,
    section5_statistics,
    verify_section5,
)

if TYPE_CHECKING:
    from .similarity import PairSimilarity, SimilarityAnalysis
    from .statistics import (
        IndependenceTest,
        TrendTest,
        independence_test,
        odds_ratio,
        year_trend_test,
    )
    from .uncertainty import (
        ProportionEstimate,
        compare_proportions,
        required_sample_size,
        section5_intervals,
        wilson_interval,
    )

#: Lazily loaded name → defining submodule.
_LAZY = {
    "PairSimilarity": "similarity",
    "SimilarityAnalysis": "similarity",
    "IndependenceTest": "statistics",
    "TrendTest": "statistics",
    "independence_test": "statistics",
    "odds_ratio": "statistics",
    "year_trend_test": "statistics",
    "ProportionEstimate": "uncertainty",
    "compare_proportions": "uncertainty",
    "required_sample_size": "uncertainty",
    "section5_intervals": "uncertainty",
    "wilson_interval": "uncertainty",
}

__all__ = [
    "ClaimCheck",
    "CodingMatrix",
    "CrossTab",
    "FrequencyTable",
    "IndependenceTest",
    "PAPER_CLAIMS",
    "PairSimilarity",
    "ProportionEstimate",
    "Section5Statistics",
    "SimilarityAnalysis",
    "TrendTest",
    "compare_proportions",
    "independence_test",
    "odds_ratio",
    "required_sample_size",
    "section5_intervals",
    "section5_statistics",
    "verify_section5",
    "wilson_interval",
    "year_trend_test",
]


def __getattr__(name: str):
    """Import a lazy name's submodule on first access and cache it."""
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(
            f"module 'repro.analysis' has no attribute {name!r}"
        )
    import importlib

    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value
