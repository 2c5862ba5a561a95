"""Self-lint gate: the repro package passes its own policy linter.

This is the operational safeguard the subsystem exists for: every
tier-1 test run lints ``src/repro`` with the full rule set and fails
on any unsuppressed finding or baseline drift, so violations of the
paper's safeguards cannot land silently.
"""

from __future__ import annotations

from repro.staticcheck import (
    BASELINE,
    package_root,
    render_text,
    unsuppressed,
)


def test_package_lint_is_clean(repo_lint):
    findings = repo_lint()
    failing = unsuppressed(findings)
    assert not failing, "\n" + render_text(failing)


def test_every_suppression_is_baselined(repo_lint):
    findings = repo_lint(with_baseline=False)
    suppressed = [f for f in findings if f.suppressed]
    registered = {(e.rule_id, e.path) for e in BASELINE}
    unregistered = [
        f
        for f in suppressed
        if (f.rule_id, f.path) not in registered
    ]
    assert not unregistered, "\n" + render_text(unregistered)


def test_lint_covers_the_whole_package():
    # Guard against the walker silently skipping files: the package
    # has grown past 100 modules and every one must be parsed.
    assert len(list(package_root().rglob("*.py"))) >= 100
