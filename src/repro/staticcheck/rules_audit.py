"""R5 — audit boundary: safeguard mutations must leave a record.

The observability layer only makes the safeguards inspectable if the
safeguard boundary actually emits into it. R5 enforces that contract
statically: inside ``safeguards/``, every **public method that
mutates instance state** (assignments, deletions or mutating calls
rooted at ``self``) must also emit an audit event in the same method
body — either directly, through
:func:`repro.observability.audit_event`, or via an audit-carrying
attribute such as ``self.audit.append(...)`` (how
:class:`~repro.safeguards.access.AccessController` routes every
attempt through its hash-chained :class:`AuditLog`, which itself
forwards to the global trail).

Private helpers (``_name`` and dunders, including ``__init__``) are
out of scope: they run inside some public method's transaction, and
the event belongs at the boundary, not on every internal step. The
rule is heuristic by design — it looks for the *absence of any*
emission in a mutating method, not for semantic adequacy of the
event — so a genuine non-event mutation (none exist today) would
carry a ``noqa: R5`` with its justification rather than weakening
the rule.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from .engine import Finding, ModuleInfo, NodeIndex, Rule

__all__ = ["AuditBoundaryRule"]

#: The emission point mutating safeguard methods must call.
_AUDIT_CALL = "repro.observability.audit_event"

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

#: Attribute-name fragments that mark an audit-carrying receiver
#: (``self.audit.append``, ``self.trail.event`` …).
_AUDIT_ATTRS = ("audit", "trail")


def _root(node: ast.AST) -> ast.AST:
    """Strip attribute/subscript layers down to the base expression."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node


def _is_self_rooted(node: ast.AST) -> bool:
    """Whether an attribute/subscript chain starts at ``self``."""
    base = _root(node)
    return isinstance(base, ast.Name) and base.id == "self"


def _mutation_line(body: NodeIndex) -> int | None:
    """The line of the first ``self``-rooted mutation, if any."""
    for node in body.of_type(
        ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete, ast.Call
    ):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(
                    target, (ast.Attribute, ast.Subscript)
                ) and _is_self_rooted(target):
                    return node.lineno
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(
                    target, (ast.Attribute, ast.Subscript)
                ) and _is_self_rooted(target):
                    return node.lineno
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and isinstance(
                    func.value, (ast.Attribute, ast.Subscript)
                )
                and _is_self_rooted(func.value)
            ):
                return node.lineno
    return None


def _emits_audit(body: NodeIndex, module: ModuleInfo) -> bool:
    """Whether any call in *body* emits into the audit layer."""
    for node in body.of_type(ast.Call):
        if module.resolve_dotted(node.func) == _AUDIT_CALL:
            return True
        func = node.func
        if isinstance(func, ast.Attribute) and _is_self_rooted(func):
            parts: list[str] = []
            probe: ast.AST = func
            while isinstance(probe, ast.Attribute):
                parts.append(probe.attr)
                probe = probe.value
            if any(
                fragment in part.lower()
                for part in parts
                for fragment in _AUDIT_ATTRS
            ):
                return True
    return False


class AuditBoundaryRule(Rule):
    """Flag mutating public safeguard methods with no audit event."""

    id = "R5"
    name = "audit-boundary"
    description = (
        "public methods in safeguards/ that mutate instance state "
        "must emit an audit event (repro.observability.audit_event "
        "or an audit/trail attribute call)"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.relpath.startswith("safeguards/")

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        """Walk every class; flag unaudited mutating public methods."""
        for node in module.index.of_type(ast.ClassDef):
            for item in node.body:
                if not isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if item.name.startswith("_"):
                    continue
                # The body alone: decorators and defaults are not
                # part of what the method does when called.
                body = NodeIndex(
                    ast.Module(body=item.body, type_ignores=[])
                )
                line = _mutation_line(body)
                if line is None:
                    continue
                if _emits_audit(body, module):
                    continue
                yield Finding(
                    rule_id=self.id,
                    path=module.path,
                    line=item.lineno,
                    message=(
                        f"{node.name}.{item.name} mutates safeguard "
                        f"state (line {line}) without emitting an "
                        "audit event — call "
                        "repro.observability.audit_event so the "
                        "change is inspectable"
                    ),
                )
