"""R10 — policy-literals: rule vocabulary lives in the policy packs.

The declarative policy refactor moved every legal-issue id and Menlo
principle name into :mod:`repro.policy.defaults`, where packs can be
validated, digested and hot-swapped. That only stays true if code
elsewhere stops re-spelling the vocabulary: a stray
``"computer-misuse"`` literal in an analysis module is a rule id the
pack compiler cannot see, silently diverging the moment a pack
renames or extends the issue set. R10 flags every string constant
equal to a legal-issue id or Menlo principle value outside the
modules that legitimately own the vocabulary:

* ``policy/`` — the packs themselves and their compiler;
* ``legal/statutes.py`` — the statute catalogue keyed by issue id;
* ``ethics/menlo.py`` — the principle enum whose values *are* the
  vocabulary;
* ``codebook/`` and ``corpus/`` — the paper's coded Table 1 data,
  which records the ids as observations, not as rules;
* ``tables/layout.py`` — the Table 1 column layout over those codes.

Docstrings and comments are exempt (prose may name an issue);
everything else should import :func:`repro.policy.defaults.legal_issue_ids`
or the :class:`~repro.ethics.menlo.MenloPrinciple` enum instead of
re-spelling the strings. The rule ships with an empty baseline.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from .engine import Finding, ModuleInfo, NodeIndex, Rule

__all__ = ["PolicyLiteralRule"]

#: Module path prefixes (relative to the package root) that own the
#: policy vocabulary and may spell it freely.
_ALLOWED_PREFIXES = (
    "policy/",
    "codebook/",
    "corpus/",
)

#: Individual modules that legitimately key data by the vocabulary.
_ALLOWED_FILES = frozenset(
    {
        "legal/statutes.py",
        "ethics/menlo.py",
        "tables/layout.py",
    }
)


def _watched_literals() -> dict[str, str]:
    """Literal → kind label for every policy-vocabulary string."""
    from ..policy.defaults import (
        legal_issue_ids,
        menlo_principle_ids,
    )

    watched = {issue: "legal-issue" for issue in legal_issue_ids()}
    for principle in menlo_principle_ids():
        watched[principle] = "Menlo-principle"
    return watched


def _docstring_nodes(index: NodeIndex) -> set[int]:
    """``id()`` of every docstring Constant in the indexed tree."""
    nodes: set[int] = set()
    for node in index.of_type(
        ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef
    ):
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            nodes.add(id(body[0].value))
    return nodes


class PolicyLiteralRule(Rule):
    """Flag policy-vocabulary string literals outside the pack data."""

    id = "R10"
    name = "policy-literals"
    description = (
        "legal-issue ids and Menlo principle names are pack "
        "vocabulary; outside repro.policy (and the coded corpus "
        "data) they must be referenced via the pack helpers, not "
        "re-spelled as string literals"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        """Skip the modules that own the vocabulary."""
        relpath = module.relpath
        if relpath in _ALLOWED_FILES:
            return False
        return not relpath.startswith(_ALLOWED_PREFIXES)

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        """Judge every non-docstring string constant in the module."""
        watched = _watched_literals()
        docstrings = _docstring_nodes(module.index)
        for node in module.index.of_type(ast.Constant):
            if not isinstance(node.value, str) or id(node) in docstrings:
                continue
            kind = watched.get(node.value)
            if kind is None:
                continue
            yield Finding(
                rule_id=self.id,
                path=module.path,
                line=node.lineno,
                message=(
                    f"{kind} literal {node.value!r} outside the "
                    f"policy pack data; import the vocabulary from "
                    f"repro.policy.defaults (or the MenloPrinciple "
                    f"enum) so packs stay the single source of truth"
                ),
            )
