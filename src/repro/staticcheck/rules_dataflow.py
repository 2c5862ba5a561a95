"""R1 — safeguard boundary: raw records must pass through anonymization.

The paper's central safeguard pipeline (§5.2, and the operational
spine of ``docs/architecture.md``) is ``datasets → anonymization →
sharing/reporting``: whatever leaves the research environment — a
report, a controlled-sharing release — must have crossed the
anonymization layer first. R1 enforces that boundary statically on
the outbound modules (everything under ``reporting/`` and the
controlled-sharing module ``safeguards/sharing``):

* importing a raw record constructor from ``datasets`` in one of
  these modules is flagged **at the import** when the module imports
  nothing from ``anonymization`` at all (there is no way the data
  could be sanitised locally);
* otherwise a lightweight, scope-local taint walk follows values
  derived from the raw constructors and flags every point where a
  tainted value *escapes* — returned, yielded, or passed to a call
  that is not an anonymization function (or an instance of one).

The taint analysis is deliberately simple — linear, per-scope, name
based — because the boundary it guards is architectural: outbound
modules should barely touch raw records at all, so any flow the walk
cannot prove sanitised deserves a human look (or an explicit
``# repro: noqa[R1]`` with a justification in the baseline).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from .engine import Finding, ModuleInfo, Rule

__all__ = ["SafeguardBoundaryRule"]

#: Outbound modules the boundary applies to.
_BOUNDARY_PREFIXES = ("reporting/",)
_BOUNDARY_MODULES = ("safeguards/sharing.py",)

_RAW_ORIGIN = "repro.datasets"
_SANITIZER_ORIGIN = "repro.anonymization"


def _origin_matches(origin: str, package: str) -> bool:
    return origin == package or origin.startswith(package + ".")


def _call_repr(call: ast.Call) -> str:
    """Best-effort source-ish name of the called function."""
    parts: list[str] = []
    node: ast.AST = call.func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return "<call>"


class SafeguardBoundaryRule(Rule):
    """Keep raw dataset records out of outbound modules."""

    id = "R1"
    name = "safeguard-boundary"
    description = (
        "reporting/ and safeguards/sharing may not consume raw "
        "datasets/ records except through an anonymization function"
    )
    node_types = (ast.Module,)

    def applies_to(self, module: ModuleInfo) -> bool:
        """Only outbound modules sit on the safeguard boundary."""
        return module.relpath.startswith(
            _BOUNDARY_PREFIXES
        ) or module.relpath in _BOUNDARY_MODULES

    def visit(
        self, node: ast.AST, module: ModuleInfo
    ) -> Iterable[Finding]:
        """Check the module node: imports first, then the taint walk."""
        assert isinstance(node, ast.Module)
        imports = module.import_aliases()
        raw = {
            name
            for name, origin in imports.items()
            if _origin_matches(origin, _RAW_ORIGIN)
        }
        if not raw:
            return
        sanitizers = {
            name
            for name, origin in imports.items()
            if _origin_matches(origin, _SANITIZER_ORIGIN)
        }
        if not sanitizers:
            for stmt in module.index.of_type(ast.Import, ast.ImportFrom):
                if any(
                    (alias.asname or alias.name.split(".")[0]) in raw
                    for alias in stmt.names
                ):
                    yield Finding(
                        rule_id=self.id,
                        path=module.path,
                        line=stmt.lineno,
                        message=(
                            "outbound module imports raw dataset "
                            "constructors but nothing from "
                            "anonymization — records cannot be "
                            "sanitised here"
                        ),
                    )
            return
        # Taint-walk the module body and every function body.
        yield from self._walk_scope(
            node.body, module, raw, set(sanitizers)
        )
        for inner in module.index.of_type(
            ast.FunctionDef, ast.AsyncFunctionDef
        ):
            yield from self._walk_scope(
                inner.body, module, raw, set(sanitizers)
            )

    # -- taint machinery ------------------------------------------------
    def _walk_scope(
        self,
        body: list[ast.stmt],
        module: ModuleInfo,
        raw: set[str],
        sanitizer_vars: set[str],
    ) -> Iterator[Finding]:
        tainted: set[str] = set()
        yield from self._walk_block(
            body, module, raw, sanitizer_vars, tainted
        )

    def _walk_block(
        self,
        body: list[ast.stmt],
        module: ModuleInfo,
        raw: set[str],
        sanitizer_vars: set[str],
        tainted: set[str],
    ) -> Iterator[Finding]:
        for stmt in body:
            yield from self._walk_stmt(
                stmt, module, raw, sanitizer_vars, tainted
            )

    def _walk_stmt(
        self,
        stmt: ast.stmt,
        module: ModuleInfo,
        raw: set[str],
        sanitizer_vars: set[str],
        tainted: set[str],
    ) -> Iterator[Finding]:
        def is_tainted(expr: ast.AST | None) -> bool:
            return self._tainted(expr, raw, sanitizer_vars, tainted)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # own scope, walked separately
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            if value is not None:
                yield from self._scan_escapes(
                    value, module, raw, sanitizer_vars, tainted
                )
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                names = [
                    n.id
                    for t in targets
                    for n in ast.walk(t)
                    if isinstance(n, ast.Name)
                ]
                if isinstance(
                    value, ast.Call
                ) and self._is_sanitizer_call(value, sanitizer_vars):
                    # Sanitised result: clean, and itself usable as a
                    # sanitizer (covers `scrubber = TextScrubber()`).
                    tainted.difference_update(names)
                    sanitizer_vars.update(names)
                elif is_tainted(value):
                    tainted.update(names)
                else:
                    tainted.difference_update(names)
            return
        if isinstance(stmt, (ast.Return, ast.Expr)):
            value = stmt.value
            if value is None:
                return
            yield from self._scan_escapes(
                value, module, raw, sanitizer_vars, tainted
            )
            escape = value
            verb = "returns"
            if isinstance(value, (ast.Yield, ast.YieldFrom)):
                escape = value.value
                verb = "yields"
            if isinstance(stmt, ast.Return) or verb == "yields":
                if escape is not None and is_tainted(escape):
                    yield Finding(
                        rule_id=self.id,
                        path=module.path,
                        line=stmt.lineno,
                        message=(
                            f"{verb} a raw dataset-derived value "
                            "without routing it through an "
                            "anonymization function"
                        ),
                    )
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            yield from self._scan_escapes(
                stmt.iter, module, raw, sanitizer_vars, tainted
            )
            if is_tainted(stmt.iter):
                tainted.update(
                    n.id
                    for n in ast.walk(stmt.target)
                    if isinstance(n, ast.Name)
                )
            yield from self._walk_block(
                [*stmt.body, *stmt.orelse],
                module, raw, sanitizer_vars, tainted,
            )
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                yield from self._scan_escapes(
                    item.context_expr, module, raw, sanitizer_vars,
                    tainted,
                )
                if item.optional_vars is not None and is_tainted(
                    item.context_expr
                ):
                    tainted.update(
                        n.id
                        for n in ast.walk(item.optional_vars)
                        if isinstance(n, ast.Name)
                    )
            yield from self._walk_block(
                stmt.body, module, raw, sanitizer_vars, tainted
            )
            return
        if isinstance(stmt, ast.If):
            yield from self._scan_escapes(
                stmt.test, module, raw, sanitizer_vars, tainted
            )
            yield from self._walk_block(
                [*stmt.body, *stmt.orelse],
                module, raw, sanitizer_vars, tainted,
            )
            return
        if isinstance(stmt, ast.While):
            yield from self._scan_escapes(
                stmt.test, module, raw, sanitizer_vars, tainted
            )
            yield from self._walk_block(
                [*stmt.body, *stmt.orelse],
                module, raw, sanitizer_vars, tainted,
            )
            return
        if isinstance(stmt, ast.Try):
            blocks = [*stmt.body, *stmt.orelse, *stmt.finalbody]
            for handler in stmt.handlers:
                blocks.extend(handler.body)
            yield from self._walk_block(
                blocks, module, raw, sanitizer_vars, tainted
            )
            return
        # Fallback: scan any other statement's expressions for escapes.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                yield from self._scan_escapes(
                    child, module, raw, sanitizer_vars, tainted
                )

    def _is_sanitizer_call(
        self, call: ast.Call, sanitizer_vars: set[str]
    ) -> bool:
        node: ast.AST = call.func
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name) and node.id in sanitizer_vars

    def _tainted(
        self,
        expr: ast.AST | None,
        raw: set[str],
        sanitizer_vars: set[str],
        tainted: set[str],
    ) -> bool:
        """Does *expr* carry raw dataset data?

        Recursion stops at sanitizer calls: ``publish(scrub(dump))``
        is clean because ``scrub`` consumes the taint.
        """
        if expr is None:
            return False
        if isinstance(expr, ast.Call) and self._is_sanitizer_call(
            expr, sanitizer_vars
        ):
            return False
        if isinstance(expr, ast.Name):
            return expr.id in tainted or expr.id in raw
        return any(
            self._tainted(child, raw, sanitizer_vars, tainted)
            for child in ast.iter_child_nodes(expr)
        )

    def _scan_escapes(
        self,
        expr: ast.AST,
        module: ModuleInfo,
        raw: set[str],
        sanitizer_vars: set[str],
        tainted: set[str],
    ) -> Iterator[Finding]:
        """Flag non-sanitizer calls that receive a tainted argument."""
        if isinstance(expr, ast.Call):
            if self._is_sanitizer_call(expr, sanitizer_vars):
                return  # the sanitizer consumes its arguments
            arguments = [
                *expr.args,
                *(kw.value for kw in expr.keywords),
            ]
            for argument in arguments:
                if self._tainted(argument, raw, sanitizer_vars, tainted):
                    yield Finding(
                        rule_id=self.id,
                        path=module.path,
                        line=expr.lineno,
                        message=(
                            "raw dataset-derived value reaches "
                            f"{_call_repr(expr)}() without passing "
                            "through an anonymization function"
                        ),
                    )
                    break
        for child in ast.iter_child_nodes(expr):
            yield from self._scan_escapes(
                child, module, raw, sanitizer_vars, tainted
            )
