"""Lower validated policy packs into flat decision tables.

:class:`CompiledPolicy` interns every fact name to a bit position and
lowers each rule's ``when`` conditions into two integer masks, so the
hot evaluation path is a scan of precompiled rows testing

``(bits & require) == require and (bits & forbid) == 0``

with no per-rule Python dispatch, no dict lookups and no re-derivation
of shared data: statutes are cached per (issue, jurisdiction code),
defence tuples are built once per pack, static strings bypass
``str.format``, and derived facts compile to mask tests. The naive
reference semantics live in :mod:`repro.policy.interpreter`; the E19
benchmark asserts the compiled tables beat them by ≥5x.

Model-object imports (legal findings, Menlo findings) happen inside
``__init__`` rather than at module level: ``legal/rules.py`` imports
this package to obtain its issue catalogue, so importing it back at
module scope would cycle.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from .facts import menlo_facts
from .model import (
    PolicyPack,
    RISK_ORDER,
    STATUS_ORDER,
    VERDICT_ORDER,
)

__all__ = ["CompiledPolicy"]

_STATUS_RANK = {status: i for i, status in enumerate(STATUS_ORDER)}
_VERDICT_RANK = {v: i for i, v in enumerate(VERDICT_ORDER)}


class _FactSpace:
    """Bit-position interning for one fact vocabulary."""

    __slots__ = ("_bits",)

    def __init__(self, names: Iterable[str]) -> None:
        self._bits: dict[str, int] = {}
        for name in names:
            self._bits[name] = 1 << len(self._bits)

    def bit(self, name: str) -> int:
        return self._bits[name]

    def masks(self, when: Mapping[str, bool]) -> tuple[int, int]:
        """The (require, forbid) masks for a ``when`` condition."""
        require = forbid = 0
        for name, expected in when.items():
            if expected:
                require |= self.bit(name)
            else:
                forbid |= self.bit(name)
        return require, forbid

    def pack(self, scalars: Mapping[str, bool]) -> int:
        """Intern a scalar fact dict into one bit vector."""
        masks = self._bits
        bits = 0
        for name, value in scalars.items():
            if value:
                bits |= masks[name]
        return bits


def _compile_expr(
    expr: Any, space: _FactSpace
) -> Callable[[int], bool]:
    """Compile a derived-fact expression to a bits → bool test."""
    if isinstance(expr, str):
        mask = space.bit(expr)
        return lambda bits: bool(bits & mask)
    if "not" in expr:
        inner = _compile_expr(expr["not"], space)
        return lambda bits: not inner(bits)
    key = "any" if "any" in expr else "all"
    operands = expr[key]
    if all(isinstance(op, str) for op in operands):
        # Pure disjunction/conjunction of base facts: one mask test.
        mask = 0
        for op in operands:
            mask |= space.bit(op)
        if key == "any":
            return lambda bits: bool(bits & mask)
        return lambda bits: (bits & mask) == mask
    tests = tuple(_compile_expr(op, space) for op in operands)
    if key == "any":
        return lambda bits: any(t(bits) for t in tests)
    return lambda bits: all(t(bits) for t in tests)


def _expr_inputs(
    expr: Any, space: _FactSpace, derived: Mapping[int, int]
) -> int:
    """The base-fact bits a derived-fact expression reads.

    A derived fact defined earlier (a key of *derived*) stands for
    the base facts it reads in turn.
    """
    if isinstance(expr, str):
        bit = space.bit(expr)
        return derived.get(bit, bit)
    if "not" in expr:
        return _expr_inputs(expr["not"], space, derived)
    inputs = 0
    for operand in expr["any" if "any" in expr else "all"]:
        inputs |= _expr_inputs(operand, space, derived)
    return inputs


def _template(text: str | None) -> tuple[str | None, bool]:
    """A (text, needs_format) pair; static strings skip formatting."""
    if text is None:
        return None, False
    return text, "{" in text


class _Row:
    """One compiled legal decision row."""

    __slots__ = (
        "require",
        "forbid",
        "applicable",
        "risk",
        "rationale",
        "defences",
        "mitigations",
        "modifiers",
    )

    def __init__(
        self, space: _FactSpace, row: Mapping[str, Any]
    ) -> None:
        self.require, self.forbid = space.masks(row.get("when", {}))
        self.applicable = bool(row["applicable"])
        self.risk = row.get("risk", RISK_ORDER[0])
        self.rationale = row["rationale"]
        self.defences = bool(row.get("defences"))
        self.mitigations = tuple(row.get("mitigations", ()))
        self.modifiers = tuple(
            (
                *space.masks(modifier.get("when", {})),
                modifier.get("risk"),
                modifier.get("append_rationale", ""),
                tuple(modifier.get("append_mitigations", ())),
            )
            for modifier in row.get("modifiers", ())
        )


class _FindingMemo(dict):
    """One issue's findings in one (jurisdiction, reb) context.

    Keyed by the base-fact bits the issue depends on: those its rows
    and modifiers test, with each derived fact replaced by the base
    facts it reads. Those bits alone decide the finding, so a missing
    key resolves from the key itself.
    """

    __slots__ = ("_resolve", "_context")

    def __init__(self, resolve: Callable, *context: Any) -> None:
        super().__init__()
        self._resolve = resolve
        self._context = context

    def __missing__(self, bits: int):
        finding = self[bits] = self._resolve(*self._context, bits)
        return finding


def _issue_inputs(
    rows: Sequence[_Row], derived: Mapping[int, int]
) -> int:
    """The base-fact bits one issue's rows and modifiers depend on."""
    tested = 0
    for row in rows:
        tested |= row.require | row.forbid
        for require, forbid, *_ in row.modifiers:
            tested |= require | forbid
    inputs = tested
    for bit, bit_inputs in derived.items():
        if tested & bit:
            inputs = inputs & ~bit | bit_inputs
    return inputs


class _Check:
    """One compiled Menlo principle check."""

    __slots__ = (
        "each",
        "require",
        "forbid",
        "status",
        "status_rank",
        "reason",
        "reason_fmt",
        "recommendation",
        "recommendation_fmt",
        "final",
    )

    def __init__(
        self, space: _FactSpace, check: Mapping[str, Any]
    ) -> None:
        self.each = check.get("each")
        if self.each is None:
            self.require, self.forbid = space.masks(check["when"])
        else:
            self.require = self.forbid = 0
        self.status = check.get("status")
        self.status_rank = (
            _STATUS_RANK[self.status] if self.status else -1
        )
        self.reason, self.reason_fmt = _template(
            check.get("reason")
        )
        self.recommendation, self.recommendation_fmt = _template(
            check.get("recommendation")
        )
        self.final = bool(check.get("final"))


class _Step:
    """One compiled verdict-folding step."""

    __slots__ = (
        "each",
        "collect",
        "require",
        "forbid",
        "verdict_rank",
        "action",
        "note",
        "note_fmt",
    )

    def __init__(
        self, space: _FactSpace, step: Mapping[str, Any]
    ) -> None:
        self.each = step.get("each")
        self.collect = step.get("collect")
        if self.each is None and self.collect is None:
            self.require, self.forbid = space.masks(step["when"])
        else:
            self.require = self.forbid = 0
        outcome = step.get("verdict")
        self.verdict_rank = (
            _VERDICT_RANK[outcome] if outcome else -1
        )
        self.action = step.get("action")
        self.note, self.note_fmt = _template(step.get("note"))


class CompiledPolicy:
    """A policy pack lowered to decision tables.

    Exposes the three evaluation surfaces the engines run on:
    :meth:`legal_report` (the §3 rules), :meth:`menlo_findings` /
    :meth:`menlo_finding` (the §2 principle checks) and
    :meth:`fold_verdict` (the assessment engine's folding policy).
    The naive :class:`~repro.policy.interpreter.PolicyInterpreter`
    is duck-type compatible; differential tests hold them identical.
    """

    def __init__(self, pack: PolicyPack) -> None:
        # Imported here, not at module level: legal/rules.py and
        # ethics/menlo.py import this package for their catalogues.
        from ..ethics.menlo import (
            MenloPrinciple,
            PrincipleFinding,
        )
        from ..legal.rules import LegalFinding, LegalReport
        from ..legal.statutes import statutes_for

        self.pack = pack
        self.name = pack.name
        self.digest = pack.digest
        self._finding_cls = LegalFinding
        self._report_cls = LegalReport
        self._principle_cls = MenloPrinciple
        self._principle_finding_cls = PrincipleFinding
        self._statutes_for = statutes_for
        self._statute_cache: dict[tuple[str, str], tuple] = {}
        # Resolved findings: per (jurisdiction, reb), the
        # jurisdiction's fact bits and one _FindingMemo per issue.
        # Findings are frozen dataclasses and a memo key captures
        # every input the issue's rows read, so each row scan runs
        # once per distinct pattern of *that issue's* inputs —
        # projects that differ only in facts an issue ignores share
        # its finding object, and the memo stays small.
        self._resolved: dict[tuple, tuple[int, tuple]] = {}

        data = pack.data
        facts = data["facts"]

        # -- legal fact space and decision rows ------------------------
        legal_names = list(facts["profile"])
        legal_names.extend(facts["origin"])
        legal_names.extend(facts["jurisdiction"])
        derived = list(facts["derived"])
        legal_names.extend(entry["name"] for entry in derived)
        space = _FactSpace(legal_names)
        self._legal_space = space
        self._profile_facts = tuple(
            (name, space.bit(name)) for name in facts["profile"]
        )
        self._origin_facts = tuple(
            (value, space.bit(name))
            for name, value in facts["origin"].items()
        )
        self._jurisdiction_facts = tuple(
            (attr, space.bit(name))
            for name, attr in facts["jurisdiction"].items()
        )
        compiled_derived = []
        derived_inputs: dict[int, int] = {}
        for entry in derived:
            bit = space.bit(entry["name"])
            expr = {k: v for k, v in entry.items() if k != "name"}
            compiled_derived.append((bit, _compile_expr(expr, space)))
            derived_inputs[bit] = _expr_inputs(
                expr, space, derived_inputs
            )
        self._derived = tuple(compiled_derived)
        self._issues = tuple(
            (
                issue["id"],
                tuple(_Row(space, row) for row in issue["rows"]),
            )
            for issue in data["legal"]["issues"]
        )
        self._issue_inputs = tuple(
            _issue_inputs(rows, derived_inputs)
            for _, rows in self._issues
        )
        self.legal_issue_ids = tuple(
            issue_id for issue_id, _ in self._issues
        )
        self.table1_issue_ids = tuple(
            issue["id"]
            for issue in data["legal"]["issues"]
            if issue.get("table1")
        )

        base = tuple(data["defences"]["base"])
        self._defences = {
            False: base,
            True: (data["defences"]["reb"], *base),
        }

        # -- Menlo principle checks -------------------------------------
        menlo_space = _FactSpace(facts["menlo"])
        self._menlo_space = menlo_space
        self._principles = tuple(
            (
                principle["id"],
                MenloPrinciple(principle["id"]),
                tuple(
                    _Check(menlo_space, check)
                    for check in principle.get("checks", ())
                ),
                principle.get("fallback_reason"),
            )
            for principle in data["menlo"]["principles"]
        )
        self._principles_by_id = {
            entry[0]: entry for entry in self._principles
        }

        # -- verdict folding steps --------------------------------------
        verdict_space = _FactSpace(facts["verdict"])
        self._verdict_space = verdict_space
        self._default_rank = _VERDICT_RANK[
            data["verdict"]["default"]
        ]
        self._steps = tuple(
            _Step(verdict_space, step)
            for step in data["verdict"]["steps"]
        )

    # -- legal ----------------------------------------------------------
    def _statutes(self, issue: str, code: str) -> tuple:
        key = (issue, code)
        cached = self._statute_cache.get(key)
        if cached is None:
            cached = self._statutes_for(issue, code)
            self._statute_cache[key] = cached
        return cached

    def legal_report(
        self,
        profile: Any,
        jurisdictions: Iterable[Any],
        *,
        reb_approved: bool = False,
    ):
        """Evaluate every issue in every jurisdiction (§3 rules)."""
        reb_approved = bool(reb_approved)

        base_bits = 0
        for attr, mask in self._profile_facts:
            if getattr(profile, attr):
                base_bits |= mask
        origin = profile.origin
        for value, mask in self._origin_facts:
            if origin == value:
                base_bits |= mask

        resolved = self._resolved
        issue_inputs = self._issue_inputs
        findings: list = []
        for jurisdiction in jurisdictions:
            entry = resolved.get((jurisdiction, reb_approved))
            if entry is None:
                entry = self._finding_memos(jurisdiction, reb_approved)
                resolved[(jurisdiction, reb_approved)] = entry
            jurisdiction_bits, memos = entry
            bits = base_bits | jurisdiction_bits
            findings.extend(
                [
                    memo[bits & inputs]
                    for inputs, memo in zip(issue_inputs, memos)
                ]
            )
        return self._report_cls(
            profile=profile, findings=tuple(findings)
        )

    def _finding_memos(
        self, jurisdiction: Any, reb_approved: bool
    ) -> tuple[int, tuple[_FindingMemo, ...]]:
        """The jurisdiction's fact bits and an empty memo per issue."""
        bits = 0
        for attr, mask in self._jurisdiction_facts:
            if getattr(jurisdiction, attr):
                bits |= mask
        return bits, tuple(
            _FindingMemo(
                self._resolve_finding, issue, jurisdiction, reb_approved
            )
            for issue in self._issues
        )

    def _resolve_finding(
        self,
        issue: tuple,
        jurisdiction: Any,
        reb_approved: bool,
        bits: int,
    ):
        """Scan one issue's decision rows for one pattern of its inputs."""
        for mask, test in self._derived:
            if test(bits):
                bits |= mask
        issue_id, rows = issue
        for row in rows:
            if (bits & row.require) == row.require and not (
                bits & row.forbid
            ):
                break
        risk = row.risk
        rationale = row.rationale
        mitigations = row.mitigations
        for (
            require,
            forbid,
            mod_risk,
            suffix,
            extra,
        ) in row.modifiers:
            if (bits & require) == require and not (bits & forbid):
                if mod_risk is not None:
                    risk = mod_risk
                rationale += suffix
                mitigations += extra
        return self._finding_cls(
            issue=issue_id,
            jurisdiction=jurisdiction,
            applicable=row.applicable,
            risk=risk,
            rationale=rationale,
            statutes=self._statutes(issue_id, jurisdiction.code)
            if row.applicable
            else (),
            defences=self._defences[reb_approved]
            if row.defences
            else (),
            mitigations=mitigations,
        )

    # -- Menlo ----------------------------------------------------------
    def _evaluate_principle(
        self,
        entry: tuple,
        bits: int,
        enums: Mapping[str, list],
        context: Mapping[str, str],
    ):
        _, principle, checks, fallback = entry
        rank = 0
        reasons: list[str] = []
        recommendations: list[str] = []
        for check in checks:
            if check.each is not None:
                fired_items: Sequence[Mapping[str, str]] = enums[
                    check.each
                ]
                if not fired_items:
                    continue
                if check.status_rank > rank:
                    rank = check.status_rank
                for item in fired_items:
                    if check.reason is not None:
                        reasons.append(
                            check.reason.format_map(item)
                            if check.reason_fmt
                            else check.reason
                        )
                    if check.recommendation is not None:
                        recommendations.append(
                            check.recommendation.format_map(item)
                            if check.recommendation_fmt
                            else check.recommendation
                        )
                continue
            if (bits & check.require) != check.require or (
                bits & check.forbid
            ):
                continue
            if check.status_rank > rank:
                rank = check.status_rank
            if check.reason is not None:
                reasons.append(
                    check.reason.format_map(context)
                    if check.reason_fmt
                    else check.reason
                )
            if check.recommendation is not None:
                recommendations.append(
                    check.recommendation.format_map(context)
                    if check.recommendation_fmt
                    else check.recommendation
                )
            if check.final:
                break
        if not reasons and fallback is not None:
            reasons.append(fallback)
        return self._principle_finding_cls(
            principle,
            STATUS_ORDER[rank],
            tuple(reasons),
            tuple(recommendations),
        )

    def menlo_finding(self, evaluation: Any, principle_id: str):
        """Evaluate one Menlo principle for *evaluation*."""
        scalars, enums, context = menlo_facts(evaluation)
        return self._evaluate_principle(
            self._principles_by_id[principle_id],
            self._menlo_space.pack(scalars),
            enums,
            context,
        )

    def menlo_findings(self, evaluation: Any) -> tuple:
        """All principle findings, in the pack's order."""
        scalars, enums, context = menlo_facts(evaluation)
        bits = self._menlo_space.pack(scalars)
        return tuple(
            self._evaluate_principle(entry, bits, enums, context)
            for entry in self._principles
        )

    # -- verdict folding ------------------------------------------------
    def fold_verdict(
        self,
        scalars: Mapping[str, bool],
        enums: Mapping[str, list],
        collectors: Mapping[str, Callable[[list[str]], None]],
    ) -> tuple[str, list[str], list[str]]:
        """Fold assessment facts into (verdict, actions, notes).

        *collectors* supplies the named appenders the pack's
        ``collect`` steps invoke on the required-actions list (e.g.
        deduplicating legal mitigations into it).
        """
        bits = self._verdict_space.pack(scalars)
        rank = self._default_rank
        required: list[str] = []
        notes: list[str] = []
        for step in self._steps:
            if step.collect is not None:
                collectors[step.collect](required)
                continue
            if step.each is not None:
                for item in enums[step.each]:
                    notes.append(
                        step.note.format_map(item)
                        if step.note_fmt
                        else step.note
                    )
                continue
            if (bits & step.require) != step.require or (
                bits & step.forbid
            ):
                continue
            if step.verdict_rank > rank:
                rank = step.verdict_rank
            if step.action is not None:
                required.append(step.action)
            if step.note is not None:
                notes.append(step.note)
        return VERDICT_ORDER[rank], required, notes
