"""Policy-pack model: structure validation, loading and digests.

A policy pack is a plain dict (see :mod:`repro.policy.defaults` for
the schema by example). Before a pack is compiled it passes through
:func:`validate_pack`, which rejects malformed packs with a typed
:class:`~repro.errors.PolicyError` — unknown fact names, cyclic
derived-fact dependencies, duplicate issue ids, missing required
sections — so the compiler can assume a well-formed input and the
CLI maps bad packs to the usage exit code via the failure table.

Packs are content-addressed: :func:`pack_digest` hashes the
canonical JSON serialisation, and the ops layer mixes that digest
into ResultCache keys so editing a pack on disk invalidates stale
cached verdicts without a process restart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from .._util import blake2b_hex, canonical_json
from ..errors import PolicyError

__all__ = [
    "PolicyPack",
    "RISK_ORDER",
    "STATUS_ORDER",
    "VERDICT_ORDER",
    "load_pack",
    "pack_digest",
    "validate_pack",
]

#: Legal-risk vocabulary, least to most severe (pack schema semantics).
RISK_ORDER = ("none", "low", "medium", "high", "severe")
#: Menlo finding-status vocabulary, least to most severe.
STATUS_ORDER = (
    "satisfied",
    "indeterminate",
    "needs-safeguards",
    "violated",
)
#: Verdict vocabulary, least to most severe.
VERDICT_ORDER = (
    "proceed",
    "proceed-with-safeguards",
    "requires-reb-review",
    "do-not-proceed",
)

_RISK_LEVELS = frozenset(RISK_ORDER)
_STATUSES = frozenset(STATUS_ORDER)
_VERDICTS = frozenset(VERDICT_ORDER)
_COLLECTORS = frozenset({"legal-mitigations", "menlo-recommendations"})


def pack_digest(pack: Mapping[str, Any]) -> str:
    """Content digest of *pack*: BLAKE2b-128 over canonical JSON.

    Key order and whitespace do not affect the digest; any semantic
    change to the pack (a new row, an edited rationale) does. The
    ops layer appends this to cache keys for pack-scoped operations.
    """
    try:
        return blake2b_hex(canonical_json(pack), 16)
    except (TypeError, ValueError) as exc:
        raise PolicyError(
            f"policy pack is not JSON-serialisable: {exc}"
        ) from exc


def load_pack(path: str | Path) -> dict:
    """Read and validate a JSON policy pack from *path*.

    Raises :class:`~repro.errors.PolicyError` for an unreadable
    file, invalid JSON, a non-object document, or any structural
    validation failure.
    """
    pack_path = Path(path)
    try:
        text = pack_path.read_text(encoding="utf-8")  # repro: noqa[R8] pack bytes are digested into pack-scoped cache keys, so the read cannot serve a stale cached result
    except (OSError, UnicodeDecodeError) as exc:
        raise PolicyError(
            f"cannot read policy pack {str(pack_path)!r}: {exc}"
        ) from exc
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise PolicyError(
            f"policy pack {str(pack_path)!r} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise PolicyError(
            f"policy pack {str(pack_path)!r} must be a JSON object, "
            f"got {type(data).__name__}"
        )
    validate_pack(data)
    return data


@dataclass(frozen=True)
class PolicyPack:
    """A validated policy pack plus its content digest."""

    name: str
    data: Mapping[str, Any]
    digest: str = field(default="")

    @staticmethod
    def from_data(data: Mapping[str, Any]) -> "PolicyPack":
        """Validate *data* and wrap it with its digest."""
        validate_pack(data)
        return PolicyPack(
            name=str(data["name"]),
            data=data,
            digest=pack_digest(data),
        )


def _require(pack: Mapping[str, Any], key: str, kind: type) -> Any:
    if key not in pack:
        raise PolicyError(f"policy pack is missing section {key!r}")
    value = pack[key]
    if not isinstance(value, kind):
        raise PolicyError(
            f"policy pack section {key!r} must be "
            f"{kind.__name__}, got {type(value).__name__}"
        )
    return value


def _expr_names(expr: Any) -> Iterator[str]:
    """Fact names referenced by a derived-fact expression."""
    if isinstance(expr, str):
        yield expr
    elif isinstance(expr, Mapping):
        if "not" in expr:
            yield from _expr_names(expr["not"])
        elif "any" in expr or "all" in expr:
            key = "any" if "any" in expr else "all"
            operands = expr[key]
            if not isinstance(operands, list) or not operands:
                raise PolicyError(
                    f"derived expression {key!r} needs a non-empty "
                    "list of operands"
                )
            for operand in operands:
                yield from _expr_names(operand)
        else:
            raise PolicyError(
                "derived expression object must use one of "
                f"'any'/'all'/'not', got keys {sorted(expr)}"
            )
    else:
        raise PolicyError(
            "derived expression must be a fact name or an "
            f"any/all/not object, got {type(expr).__name__}"
        )


def _validate_facts(facts: Mapping[str, Any]) -> dict[str, set[str]]:
    """Check the facts section; return the per-space name sets."""
    spaces: dict[str, set[str]] = {}

    profile = _require(facts, "profile", list)
    origin = _require(facts, "origin", dict)
    jurisdiction = _require(facts, "jurisdiction", dict)
    derived = _require(facts, "derived", list)

    legal: set[str] = set()
    for group, names in (
        ("profile", profile),
        ("origin", list(origin)),
        ("jurisdiction", list(jurisdiction)),
    ):
        for name in names:
            if not isinstance(name, str) or not name:
                raise PolicyError(
                    f"facts.{group} entries must be non-empty "
                    "strings"
                )
            if name in legal:
                raise PolicyError(
                    f"duplicate legal fact name {name!r}"
                )
            legal.add(name)

    # Derived facts must resolve acyclically over earlier facts.
    derived_exprs: dict[str, Any] = {}
    for entry in derived:
        if not isinstance(entry, Mapping) or "name" not in entry:
            raise PolicyError(
                "facts.derived entries must be objects with a "
                "'name' key"
            )
        name = entry["name"]
        if name in legal or name in derived_exprs:
            raise PolicyError(
                f"duplicate legal fact name {name!r}"
            )
        expr = {k: v for k, v in entry.items() if k != "name"}
        derived_exprs[name] = expr

    resolved = set(legal)
    visiting: set[str] = set()

    def resolve(name: str) -> None:
        if name in resolved:
            return
        if name not in derived_exprs:
            raise PolicyError(
                f"unknown fact name {name!r} referenced by a "
                "derived fact"
            )
        if name in visiting:
            raise PolicyError(
                f"cyclic derived-fact dependency through {name!r}"
            )
        visiting.add(name)
        for ref in _expr_names(derived_exprs[name]):
            resolve(ref)
        visiting.discard(name)
        resolved.add(name)

    for name in derived_exprs:
        resolve(name)
    legal |= set(derived_exprs)

    spaces["legal"] = legal
    spaces["menlo"] = {
        str(n) for n in _require(facts, "menlo", list)
    }
    spaces["menlo_enums"] = set(
        _require(facts, "menlo_enums", dict)
    )
    spaces["menlo_context"] = {
        str(n) for n in _require(facts, "menlo_context", list)
    }
    spaces["verdict"] = {
        str(n) for n in _require(facts, "verdict", list)
    }
    spaces["verdict_enums"] = set(
        _require(facts, "verdict_enums", dict)
    )
    return spaces


def _check_when(
    when: Any, known: set[str], where: str
) -> None:
    if not isinstance(when, Mapping):
        raise PolicyError(
            f"{where}: 'when' must be an object of fact → bool"
        )
    for name, expected in when.items():
        if name not in known:
            raise PolicyError(
                f"{where}: unknown fact name {name!r}"
            )
        if not isinstance(expected, bool):
            raise PolicyError(
                f"{where}: condition on {name!r} must be a bool"
            )


def _validate_legal(
    legal: Mapping[str, Any], facts: set[str]
) -> None:
    issues = _require(legal, "issues", list)
    seen: set[str] = set()
    for issue in issues:
        if not isinstance(issue, Mapping) or "id" not in issue:
            raise PolicyError(
                "legal.issues entries must be objects with an 'id'"
            )
        issue_id = issue["id"]
        if issue_id in seen:
            raise PolicyError(
                f"duplicate legal issue id {issue_id!r}"
            )
        seen.add(issue_id)
        rows = issue.get("rows")
        if not isinstance(rows, list) or not rows:
            raise PolicyError(
                f"legal issue {issue_id!r} needs a non-empty "
                "'rows' list"
            )
        for index, row in enumerate(rows):
            where = f"legal issue {issue_id!r} row {index}"
            if not isinstance(row, Mapping):
                raise PolicyError(f"{where}: rows must be objects")
            _check_when(row.get("when", {}), facts, where)
            if "applicable" not in row:
                raise PolicyError(
                    f"{where}: missing 'applicable' flag"
                )
            if row["applicable"]:
                risk = row.get("risk")
                if risk not in _RISK_LEVELS:
                    raise PolicyError(
                        f"{where}: applicable rows need a risk "
                        f"level from {sorted(_RISK_LEVELS)}, got "
                        f"{risk!r}"
                    )
            if "rationale" not in row:
                raise PolicyError(f"{where}: missing 'rationale'")
            for mod_index, modifier in enumerate(
                row.get("modifiers", ())
            ):
                mod_where = f"{where} modifier {mod_index}"
                if not isinstance(modifier, Mapping):
                    raise PolicyError(
                        f"{mod_where}: modifiers must be objects"
                    )
                _check_when(
                    modifier.get("when", {}), facts, mod_where
                )
                risk = modifier.get("risk")
                if risk is not None and risk not in _RISK_LEVELS:
                    raise PolicyError(
                        f"{mod_where}: unknown risk level {risk!r}"
                    )
        final = rows[-1]
        if final.get("when"):
            raise PolicyError(
                f"legal issue {issue_id!r}: the last row must be "
                "unconditional (empty 'when') so every profile "
                "matches some row"
            )


def _validate_menlo(
    menlo: Mapping[str, Any],
    scalars: set[str],
    enums: set[str],
) -> None:
    principles = _require(menlo, "principles", list)
    seen: set[str] = set()
    for principle in principles:
        if (
            not isinstance(principle, Mapping)
            or "id" not in principle
        ):
            raise PolicyError(
                "menlo.principles entries must be objects with an "
                "'id'"
            )
        pid = principle["id"]
        if pid in seen:
            raise PolicyError(
                f"duplicate menlo principle id {pid!r}"
            )
        seen.add(pid)
        for index, check in enumerate(principle.get("checks", ())):
            where = f"menlo principle {pid!r} check {index}"
            if not isinstance(check, Mapping):
                raise PolicyError(
                    f"{where}: checks must be objects"
                )
            has_when = "when" in check
            has_each = "each" in check
            if has_when == has_each:
                raise PolicyError(
                    f"{where}: exactly one of 'when'/'each' is "
                    "required"
                )
            if has_when:
                _check_when(check["when"], scalars, where)
            else:
                if check["each"] not in enums:
                    raise PolicyError(
                        f"{where}: unknown enumeration "
                        f"{check['each']!r}"
                    )
            status = check.get("status")
            if status is not None and status not in _STATUSES:
                raise PolicyError(
                    f"{where}: unknown finding status {status!r}"
                )


def _validate_verdict(
    verdict: Mapping[str, Any],
    scalars: set[str],
    enums: set[str],
) -> None:
    default = verdict.get("default")
    if default not in _VERDICTS:
        raise PolicyError(
            f"verdict.default must be one of {sorted(_VERDICTS)}, "
            f"got {default!r}"
        )
    steps = _require(verdict, "steps", list)
    for index, step in enumerate(steps):
        where = f"verdict step {index}"
        if not isinstance(step, Mapping):
            raise PolicyError(f"{where}: steps must be objects")
        kinds = [
            k for k in ("when", "each", "collect") if k in step
        ]
        if len(kinds) != 1:
            raise PolicyError(
                f"{where}: exactly one of 'when'/'each'/'collect' "
                "is required"
            )
        kind = kinds[0]
        if kind == "when":
            _check_when(step["when"], scalars, where)
        elif kind == "each":
            if step["each"] not in enums:
                raise PolicyError(
                    f"{where}: unknown enumeration "
                    f"{step['each']!r}"
                )
        else:
            if step["collect"] not in _COLLECTORS:
                raise PolicyError(
                    f"{where}: unknown collector "
                    f"{step['collect']!r} (known: "
                    f"{sorted(_COLLECTORS)})"
                )
        outcome = step.get("verdict")
        if outcome is not None and outcome not in _VERDICTS:
            raise PolicyError(
                f"{where}: unknown verdict {outcome!r}"
            )


def validate_pack(pack: Mapping[str, Any]) -> None:
    """Reject a malformed policy pack with :class:`PolicyError`.

    Checks structure (required sections, row shapes), vocabulary
    (risk levels, statuses, verdicts, collectors), fact references
    (every ``when`` condition and enumeration names a declared
    fact), derived-fact acyclicity, and id uniqueness. A pack that
    passes can be compiled without further error handling.
    """
    if not isinstance(pack, Mapping):
        raise PolicyError(
            f"policy pack must be a mapping, got "
            f"{type(pack).__name__}"
        )
    name = pack.get("name")
    if not isinstance(name, str) or not name:
        raise PolicyError(
            "policy pack needs a non-empty string 'name'"
        )
    facts = _require(pack, "facts", dict)
    spaces = _validate_facts(facts)

    defences = _require(pack, "defences", dict)
    base = defences.get("base")
    if not isinstance(base, list) or not all(
        isinstance(d, str) for d in base
    ):
        raise PolicyError(
            "defences.base must be a list of strings"
        )
    if not isinstance(defences.get("reb"), str):
        raise PolicyError("defences.reb must be a string")

    _validate_legal(_require(pack, "legal", dict), spaces["legal"])
    _validate_menlo(
        _require(pack, "menlo", dict),
        spaces["menlo"],
        spaces["menlo_enums"],
    )
    _validate_verdict(
        _require(pack, "verdict", dict),
        spaces["verdict"],
        spaces["verdict_enums"],
    )
