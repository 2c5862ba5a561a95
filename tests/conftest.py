"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro import paper_bibliography, paper_codebook, table1_corpus


@pytest.fixture(scope="session")
def codebook():
    return paper_codebook()


@pytest.fixture(scope="session")
def corpus():
    return table1_corpus()


@pytest.fixture(scope="session")
def bibliography():
    return paper_bibliography()


@pytest.fixture(scope="session")
def repo_lint():
    """``lint_repo(select, with_baseline=...)`` over the package, linted
    once per session.

    The engine runs once, without the baseline. A selection filters
    those findings by rule id and, with the baseline, appends the
    drift of the baseline entries whose rule ran: what ``lint_repo``
    computes for the same selection. Tests that plant files, and the
    CLI-parity cases, lint on their own.
    """
    from repro.staticcheck import BASELINE, baseline_drift, lint_repo

    raw = lint_repo(with_baseline=False)

    def lint(select: tuple[str, ...] = (), *, with_baseline=True):
        found = [f for f in raw if not select or f.rule_id in select]
        if with_baseline:
            found += baseline_drift(
                found,
                tuple(
                    entry
                    for entry in BASELINE
                    if not select or entry.rule_id in select
                ),
            )
        return found

    return lint
