"""Naive reference evaluator for policy packs: the test oracle.

:class:`PolicyInterpreter` walks the raw pack dicts directly: every
condition re-resolves its fact by name (scanning the declaration
lists and re-deriving derived expressions recursively), statutes are
looked up uncached per finding, defences are rebuilt per report and
every template goes through ``str.format_map``. It *is* the pack
semantics, small enough to audit against ``docs/policy.md``.
``tests/test_policy_proof.py`` holds
:class:`~repro.policy.compiler.CompiledPolicy` equal to it over every
realisable input pattern of both bundled packs,
``tests/test_policy.py`` compares the two end to end, and the E19
benchmark (``benchmarks/bench_policy.py``) holds the compiled tables
to a throughput floor over it. It lives under ``tests/`` because
nothing in the package runs it.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from repro.errors import PolicyError
from repro.policy.facts import menlo_facts
from repro.policy.model import (
    PolicyPack,
    RISK_ORDER,
    STATUS_ORDER,
    VERDICT_ORDER,
)

__all__ = ["PolicyInterpreter"]


class PolicyInterpreter:
    """Duck-type compatible, deliberately unoptimised evaluator."""

    def __init__(self, pack: PolicyPack) -> None:
        self.pack = pack
        self.name = pack.name
        self.digest = pack.digest
        self.legal_issue_ids = tuple(
            issue["id"]
            for issue in pack.data["legal"]["issues"]
        )
        self.table1_issue_ids = tuple(
            issue["id"]
            for issue in pack.data["legal"]["issues"]
            if issue.get("table1")
        )

    # -- legal fact resolution (recursive, uncached) --------------------
    def _legal_fact(
        self, name: str, profile: Any, jurisdiction: Any
    ) -> bool:
        facts = self.pack.data["facts"]
        if name in facts["profile"]:
            return bool(getattr(profile, name))
        if name in facts["origin"]:
            return profile.origin == facts["origin"][name]
        if name in facts["jurisdiction"]:
            return bool(
                getattr(jurisdiction, facts["jurisdiction"][name])
            )
        for entry in facts["derived"]:
            if entry["name"] == name:
                expr = {
                    k: v for k, v in entry.items() if k != "name"
                }
                return self._expr(expr, profile, jurisdiction)
        raise PolicyError(f"unknown fact name {name!r}")

    def _expr(
        self, expr: Any, profile: Any, jurisdiction: Any
    ) -> bool:
        if isinstance(expr, str):
            return self._legal_fact(expr, profile, jurisdiction)
        if "not" in expr:
            return not self._expr(expr["not"], profile, jurisdiction)
        if "any" in expr:
            return any(
                self._expr(op, profile, jurisdiction)
                for op in expr["any"]
            )
        return all(
            self._expr(op, profile, jurisdiction)
            for op in expr["all"]
        )

    def _matches(
        self,
        when: Mapping[str, bool],
        resolve: Callable[[str], bool],
    ) -> bool:
        return all(
            resolve(name) is expected
            for name, expected in when.items()
        )

    # -- legal ----------------------------------------------------------
    def legal_report(
        self,
        profile: Any,
        jurisdictions: Iterable[Any],
        *,
        reb_approved: bool = False,
    ):
        """Evaluate every issue in every jurisdiction, naively."""
        from repro.legal.rules import LegalFinding, LegalReport
        from repro.legal.statutes import statutes_for

        defences_spec = self.pack.data["defences"]
        findings = []
        for jurisdiction in jurisdictions:

            def resolve(name: str) -> bool:
                return self._legal_fact(name, profile, jurisdiction)

            for issue in self.pack.data["legal"]["issues"]:
                row = next(
                    r
                    for r in issue["rows"]
                    if self._matches(r.get("when", {}), resolve)
                )
                risk = row.get("risk", RISK_ORDER[0])
                rationale = row["rationale"]
                mitigations = tuple(row.get("mitigations", ()))
                for modifier in row.get("modifiers", ()):
                    if self._matches(
                        modifier.get("when", {}), resolve
                    ):
                        if modifier.get("risk") is not None:
                            risk = modifier["risk"]
                        rationale += modifier.get(
                            "append_rationale", ""
                        )
                        mitigations += tuple(
                            modifier.get("append_mitigations", ())
                        )
                defences: tuple[str, ...] = ()
                if row.get("defences"):
                    base = list(defences_spec["base"])
                    if reb_approved:
                        base.insert(0, defences_spec["reb"])
                    defences = tuple(base)
                findings.append(
                    LegalFinding(
                        issue=issue["id"],
                        jurisdiction=jurisdiction,
                        applicable=bool(row["applicable"]),
                        risk=risk,
                        rationale=rationale,
                        statutes=statutes_for(
                            issue["id"], jurisdiction.code
                        )
                        if row["applicable"]
                        else (),
                        defences=defences,
                        mitigations=mitigations,
                    )
                )
        return LegalReport(profile=profile, findings=tuple(findings))

    # -- Menlo ----------------------------------------------------------
    def _evaluate_principle(
        self,
        principle: Mapping[str, Any],
        scalars: Mapping[str, bool],
        enums: Mapping[str, list],
        context: Mapping[str, str],
    ):
        from repro.ethics.menlo import MenloPrinciple, PrincipleFinding

        rank = 0
        reasons: list[str] = []
        recommendations: list[str] = []
        for check in principle.get("checks", ()):
            if "each" in check:
                items = enums[check["each"]]
                if not items:
                    continue
                status = check.get("status")
                if status is not None:
                    rank = max(rank, STATUS_ORDER.index(status))
                for item in items:
                    if "reason" in check:
                        reasons.append(
                            check["reason"].format_map(item)
                        )
                    if "recommendation" in check:
                        recommendations.append(
                            check["recommendation"].format_map(item)
                        )
                continue
            if not self._matches(
                check["when"], lambda n: bool(scalars[n])
            ):
                continue
            status = check.get("status")
            if status is not None:
                rank = max(rank, STATUS_ORDER.index(status))
            if "reason" in check:
                reasons.append(
                    check["reason"].format_map(context)
                )
            if "recommendation" in check:
                recommendations.append(
                    check["recommendation"].format_map(context)
                )
            if check.get("final"):
                break
        if not reasons and principle.get("fallback_reason"):
            reasons.append(principle["fallback_reason"])
        return PrincipleFinding(
            MenloPrinciple(principle["id"]),
            STATUS_ORDER[rank],
            tuple(reasons),
            tuple(recommendations),
        )

    def menlo_finding(self, evaluation: Any, principle_id: str):
        """Evaluate one Menlo principle for *evaluation*."""
        scalars, enums, context = menlo_facts(evaluation)
        for principle in self.pack.data["menlo"]["principles"]:
            if principle["id"] == principle_id:
                return self._evaluate_principle(
                    principle, scalars, enums, context
                )
        raise PolicyError(
            f"unknown menlo principle {principle_id!r}"
        )

    def menlo_findings(self, evaluation: Any) -> tuple:
        """All principle findings, in the pack's order."""
        scalars, enums, context = menlo_facts(evaluation)
        return tuple(
            self._evaluate_principle(
                principle, scalars, enums, context
            )
            for principle in self.pack.data["menlo"]["principles"]
        )

    # -- verdict folding ------------------------------------------------
    def fold_verdict(
        self,
        scalars: Mapping[str, bool],
        enums: Mapping[str, list],
        collectors: Mapping[str, Callable[[list[str]], None]],
    ) -> tuple[str, list[str], list[str]]:
        """Fold assessment facts into (verdict, actions, notes)."""
        spec = self.pack.data["verdict"]
        rank = VERDICT_ORDER.index(spec["default"])
        required: list[str] = []
        notes: list[str] = []
        for step in spec["steps"]:
            if "collect" in step:
                collectors[step["collect"]](required)
                continue
            if "each" in step:
                for item in enums[step["each"]]:
                    notes.append(step["note"].format_map(item))
                continue
            if not self._matches(
                step["when"], lambda n: bool(scalars[n])
            ):
                continue
            if "verdict" in step:
                rank = max(
                    rank, VERDICT_ORDER.index(step["verdict"])
                )
            if "action" in step:
                required.append(step["action"])
            if "note" in step:
                notes.append(step["note"])
        return VERDICT_ORDER[rank], required, notes
