"""Exhaustive proof that the compiled policy tables equal the oracle.

``tests/policy_oracle.py`` holds the reference
:class:`PolicyInterpreter`, which walks the raw pack dicts and *is*
the pack semantics. This module holds
:class:`~repro.policy.CompiledPolicy` equal to it over every input the
rules can see, for both bundled packs:

* **Legal.** For each issue, every realisable pattern of the base
  facts its rows and modifiers read (derived facts expanded), worked
  out from the raw pack dict: profile flags are free, origin facts
  are one-hot (every value of ``DataOrigin.ALL``), jurisdiction flags
  are set with ``dataclasses.replace`` on real jurisdictions. Each
  pattern is crossed with ``reb_approved`` and with two backgrounds
  (all false, all true) for the facts the issue does not read.
* **Menlo.** For each principle, every pattern of the scalar facts
  its checks read, with every ``each`` enumeration empty and
  non-empty, fed through the public ``menlo_findings`` by stubbing
  the ``menlo_facts`` provider in both engines.
* **Verdict.** ``fold_verdict`` on every pattern of the verdict
  facts, with the enumerations empty and non-empty, through a
  recording collector.

The same enumeration checks that every legal decision row is the
first match for some realisable pattern and that every modifier
fires for one. The end-to-end parity tests in ``test_policy.py``
cover the fact providers and collectors, which this module stubs.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools

import pytest

from repro.corpus import DataOrigin
from repro.legal import US, UK, DataProfile
from repro.policy import (
    DEFAULT_PACK,
    CompiledPolicy,
    PolicyPack,
    bundled_pack_names,
    compiler,
    resolve_pack,
)
from tests import policy_oracle
from tests.policy_oracle import PolicyInterpreter

#: Two real jurisdictions with different statute tables. Their
#: flags are overridden per pattern; their codes pick the statutes.
JURISDICTIONS = (US, UK)


def _engines(name: str) -> tuple[CompiledPolicy, PolicyInterpreter]:
    """A fresh compiled policy (empty memos) and the oracle."""
    pack = resolve_pack(name)
    return CompiledPolicy(pack), PolicyInterpreter(pack)


# -- legal input space, from the raw pack dict ------------------------
def _reads(expr, derived: dict) -> set[str]:
    """The base facts *expr* reads, each derived fact expanded."""
    if isinstance(expr, str):
        if expr in derived:
            return _reads(derived[expr], derived)
        return {expr}
    if "not" in expr:
        return _reads(expr["not"], derived)
    names: set[str] = set()
    for operand in expr["any" if "any" in expr else "all"]:
        names |= _reads(operand, derived)
    return names


def issue_inputs(facts: dict, issue: dict) -> set[str]:
    """The base facts one issue's rows and modifiers read."""
    derived = {
        entry["name"]: {k: v for k, v in entry.items() if k != "name"}
        for entry in facts["derived"]
    }
    names: set[str] = set()
    for row in issue["rows"]:
        for condition in (row, *row.get("modifiers", ())):
            for name in condition.get("when", {}):
                names |= _reads(name, derived)
    return names


def legal_cases(facts: dict, inputs: set[str], background: bool):
    """Every realisable (profile, jurisdictions) pattern of *inputs*.

    Profile and jurisdiction facts outside *inputs* take the
    *background* value. Origin facts are one-hot, so neither
    background is realisable for them: an issue that reads none
    gets the first origin under the false background and the last
    under the true one.
    """
    flags = [name for name in facts["profile"] if name in inputs]
    profile_background = {
        name: background
        for name in facts["profile"]
        if name not in inputs
    }
    if inputs & set(facts["origin"]):
        origins = DataOrigin.ALL
    else:
        origins = (DataOrigin.ALL[-1 if background else 0],)
    attrs = [
        attr
        for name, attr in facts["jurisdiction"].items()
        if name in inputs
    ]
    jurisdiction_background = {
        attr: background
        for name, attr in facts["jurisdiction"].items()
        if name not in inputs
    }
    for origin in origins:
        for values in itertools.product(
            (False, True), repeat=len(flags)
        ):
            profile = DataProfile(
                origin=origin,
                **profile_background,
                **dict(zip(flags, values)),
            )
            for j_values in itertools.product(
                (False, True), repeat=len(attrs)
            ):
                overrides = {
                    **jurisdiction_background,
                    **dict(zip(attrs, j_values)),
                }
                yield profile, tuple(
                    dataclasses.replace(j, **overrides)
                    for j in JURISDICTIONS
                )


def unreached(data: dict) -> list[str]:
    """Legal rows no realisable pattern reaches first, and modifiers
    that never fire, named ``"<issue> row <i>[ modifier <m>]"``."""
    oracle = PolicyInterpreter(PolicyPack.from_data(data))
    facts = data["facts"]
    dead: list[str] = []
    for issue in data["legal"]["issues"]:
        rows = issue["rows"]
        reached: set[tuple[int, int | None]] = set()
        for profile, jurisdictions in legal_cases(
            facts, issue_inputs(facts, issue), False
        ):
            jurisdiction = jurisdictions[0]

            def resolve(name: str) -> bool:
                return oracle._legal_fact(name, profile, jurisdiction)

            index = next(
                i
                for i, row in enumerate(rows)
                if oracle._matches(row.get("when", {}), resolve)
            )
            reached.add((index, None))
            for m, modifier in enumerate(
                rows[index].get("modifiers", ())
            ):
                if oracle._matches(modifier.get("when", {}), resolve):
                    reached.add((index, m))
        for i, row in enumerate(rows):
            if (i, None) not in reached:
                dead.append(f"{issue['id']} row {i}")
            for m in range(len(row.get("modifiers", ()))):
                if (i, m) not in reached:
                    dead.append(f"{issue['id']} row {i} modifier {m}")
    return dead


@pytest.mark.parametrize("name", bundled_pack_names())
class TestLegalProof:
    def test_issue_inputs_match_compiled(self, name):
        compiled, _ = _engines(name)
        data = compiled.pack.data
        space = compiled._legal_space
        for issue, compiled_inputs in zip(
            data["legal"]["issues"], compiled._issue_inputs
        ):
            expected = 0
            for fact in issue_inputs(data["facts"], issue):
                expected |= space.bit(fact)
            assert compiled_inputs == expected, issue["id"]

    def test_every_realisable_pattern(self, name):
        compiled, oracle = _engines(name)
        data = compiled.pack.data
        issues = data["legal"]["issues"]
        for index, issue in enumerate(issues):
            inputs = issue_inputs(data["facts"], issue)
            for background in (False, True):
                for profile, jurisdictions in legal_cases(
                    data["facts"], inputs, background
                ):
                    for reb in (False, True):
                        fast = compiled.legal_report(
                            profile, jurisdictions, reb_approved=reb
                        ).findings
                        slow = oracle.legal_report(
                            profile, jurisdictions, reb_approved=reb
                        ).findings
                        # Findings run jurisdiction-major, issue-minor.
                        for offset in range(index, len(slow), len(issues)):
                            assert fast[offset] == slow[offset], (
                                issue["id"],
                                profile,
                                jurisdictions[0],
                                reb,
                            )

    def test_every_row_and_modifier_is_reachable(self, name):
        assert unreached(resolve_pack(name).data) == []


def test_unreached_flags_a_shadowed_row_and_a_dead_modifier():
    data = copy.deepcopy(DEFAULT_PACK)
    data["name"] = "shadowed"
    rows = data["legal"]["issues"][0]["rows"]
    assert rows[1]["when"] == {"misuse_tainted": False}
    rows.insert(
        2,
        {
            "when": {"misuse_tainted": False, "paid_offenders": True},
            "applicable": False,
            "rationale": "shadowed by the row before it",
        },
    )
    # The last row is reached only with misuse_tainted true.
    rows[3]["modifiers"].append(
        {"when": {"misuse_tainted": False}, "risk": "severe"}
    )
    assert unreached(data) == [
        "computer-misuse row 2",
        "computer-misuse row 3 modifier 2",
    ]


# -- Menlo --------------------------------------------------------------
def _items(enum: str, fields: list[str]) -> list[dict[str, str]]:
    """A two-item enumeration whose template fields name themselves."""
    return [
        {field: f"<{enum}.{field}.{k}>" for field in fields}
        for k in (1, 2)
    ]


@pytest.mark.parametrize("name", bundled_pack_names())
def test_menlo_every_fact_pattern(name, monkeypatch):
    compiled, oracle = _engines(name)
    # The "evaluation" handed to either engine is the facts triple.
    monkeypatch.setattr(compiler, "menlo_facts", lambda facts: facts)
    monkeypatch.setattr(policy_oracle, "menlo_facts", lambda facts: facts)
    facts = compiled.pack.data["facts"]
    context = {n: f"<{n}>" for n in facts["menlo_context"]}
    enum_items = {
        enum: _items(enum, fields)
        for enum, fields in facts["menlo_enums"].items()
    }
    for principle in compiled.pack.data["menlo"]["principles"]:
        checks = principle.get("checks", ())
        read = sorted(
            {n for check in checks for n in check.get("when", {})}
        )
        each = sorted({c["each"] for c in checks if "each" in c})
        for background in (False, True):
            for values in itertools.product(
                (False, True), repeat=len(read)
            ):
                scalars = {n: background for n in facts["menlo"]}
                scalars.update(zip(read, values))
                for present in itertools.product(
                    (False, True), repeat=len(each)
                ):
                    enums = {
                        enum: items if background else []
                        for enum, items in enum_items.items()
                    }
                    for enum, on in zip(each, present):
                        enums[enum] = enum_items[enum] if on else []
                    evaluation = (scalars, enums, context)
                    expected = oracle.menlo_findings(evaluation)
                    assert (
                        compiled.menlo_findings(evaluation) == expected
                    ), (principle["id"], scalars, enums)
                    assert compiled.menlo_finding(
                        evaluation, principle["id"]
                    ) == oracle.menlo_finding(evaluation, principle["id"])


# -- verdict folding ----------------------------------------------------
def _recording_collectors(steps: list[dict], log: list):
    """Collectors that log what they see and append a marker."""

    def collector(name: str):
        def collect(required: list[str]) -> None:
            log.append((name, tuple(required)))
            required.append(f"<{name}>")

        return collect

    return {
        step["collect"]: collector(step["collect"])
        for step in steps
        if "collect" in step
    }


@pytest.mark.parametrize("name", bundled_pack_names())
def test_verdict_every_fact_pattern(name):
    compiled, oracle = _engines(name)
    facts = compiled.pack.data["facts"]
    steps = compiled.pack.data["verdict"]["steps"]
    full = {
        enum: _items(enum, fields)
        for enum, fields in facts["verdict_enums"].items()
    }
    empty = {enum: [] for enum in full}
    for values in itertools.product(
        (False, True), repeat=len(facts["verdict"])
    ):
        scalars = dict(zip(facts["verdict"], values))
        for enums in (empty, full):
            fast_log: list = []
            slow_log: list = []
            fast = compiled.fold_verdict(
                scalars, enums, _recording_collectors(steps, fast_log)
            )
            slow = oracle.fold_verdict(
                scalars, enums, _recording_collectors(steps, slow_log)
            )
            assert (fast, fast_log) == (slow, slow_log), scalars
