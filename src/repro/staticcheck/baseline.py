"""The suppression baseline: every accepted lint exception, as data.

An inline ``# repro: noqa[RID]`` silences a finding at its line; the
baseline makes those acceptances *auditable* by requiring each one to
be registered here with a justification. :func:`baseline_drift`
closes the loop in both directions:

* a suppressed finding whose ``(rule, path)`` is not registered is
  **unregistered** drift — someone silenced the linter without
  recording why;
* a registered entry that no longer matches any suppressed finding is
  **stale** drift — the exception was fixed and the entry should go.

Drift is reported under the pseudo-rule id ``R0`` and fails the lint
gate exactly like a rule violation.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
import dataclasses

from .engine import Finding

__all__ = ["BASELINE", "BaselineEntry", "baseline_drift"]


@dataclasses.dataclass(frozen=True)
class BaselineEntry:
    """One accepted suppression: rule, file and why it is acceptable."""

    rule_id: str
    path: str
    justification: str

    def matches(self, finding: Finding) -> bool:
        """Whether *finding* is an instance of this accepted exception."""
        return (
            finding.suppressed
            and finding.rule_id == self.rule_id
            and finding.path == self.path
        )


#: Every accepted ``# repro: noqa`` in ``src/repro``, with rationale.
BASELINE: tuple[BaselineEntry, ...] = (
    BaselineEntry(
        rule_id="R8",
        path="src/repro/policy/model.py",
        justification=(
            "load_pack reads pack bytes that are digested into the "
            "pack-scoped cache key; a changed file changes the key, "
            "so the read can never serve a stale cached result"
        ),
    ),
    BaselineEntry(
        rule_id="R8",
        path="src/repro/policy/runtime.py",
        justification=(
            "the bundled-pack and compiled-table memos are keyed by "
            "content digest over module constants: re-running the "
            "write can only store an identical value, so cached "
            "pure results cannot go stale"
        ),
    ),
    BaselineEntry(
        rule_id="R9",
        path="src/repro/ops/pool.py",
        justification=(
            "WarmPool.submit_chunk forwards the task its caller "
            "named; R9 audits that name at every map_ordered call "
            "site, so the forwarding submit adds no unaudited callable"
        ),
    ),
)


def baseline_drift(
    findings: Iterable[Finding],
    baseline: Sequence[BaselineEntry] = BASELINE,
) -> list[Finding]:
    """R0 findings for unregistered suppressions and stale entries."""
    findings = list(findings)
    drift: list[Finding] = []
    for finding in findings:
        if not finding.suppressed:
            continue
        if not any(entry.matches(finding) for entry in baseline):
            drift.append(
                Finding(
                    rule_id="R0",
                    path=finding.path,
                    line=finding.line,
                    message=(
                        f"suppression of {finding.rule_id} is not "
                        "registered in the staticcheck baseline"
                    ),
                )
            )
    for entry in baseline:
        if not any(entry.matches(finding) for finding in findings):
            drift.append(
                Finding(
                    rule_id="R0",
                    path=entry.path,
                    line=1,
                    message=(
                        f"stale baseline entry: no suppressed "
                        f"{entry.rule_id} finding remains in "
                        f"{entry.path}"
                    ),
                )
            )
    return drift
