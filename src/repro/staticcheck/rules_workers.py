"""R9 — worker-safety: process-pool submissions picklable by design.

The batch executor (``ops/batch.py``) and the pipeline fan-out
(``pipeline/core.py``) ship work to warm-pool workers through
``WarmPool.map_ordered``, the only way work reaches a process pool.
Everything that crosses that boundary is pickled, and the failure
modes are nasty precisely because they are *not* local: a lambda or
bound method raises ``PicklingError`` only when the pool is first
exercised, and a worker function that closes over shared mutable
state silently computes against a stale copy in the child process.
R9 turns the implicit contract into a checked one — every callable
handed to a process pool must be:

* a **module-level function** (or class) resolvable through the
  project symbol table or an import — the shapes pickle serialises
  by reference and re-imports in the worker;
* **not** a lambda, a nested function, a bound method or the return
  value of an arbitrary call (``functools.partial`` of a
  module-level function is allowed — pickle supports it);
* free of **mutable default arguments** (a list/dict/set default is
  per-process shared state masquerading as a parameter);
* called with **no lambda arguments** (arguments are pickled too).

Deliberately *not* flagged: reads and writes of module-level state
inside worker functions. That state is per-process by construction
— ``_WORKER_CONTEXT`` in the warm pool (a cache-less context holding
the corpus) and ``_RUNNER_CACHE`` in the pipeline exist precisely to
keep expensive state resident per worker process, and the ordered
merge in both executors makes worker-local state invisible in output
bytes.

Pool detection is name-based within a module: names bound to a
``ProcessPoolExecutor`` (or ``multiprocessing.Pool``) via assignment
or ``with ... as pool`` are tracked, and ``submit``/``map``-family
calls on them are audited. ``map_ordered`` calls are audited on any
receiver: the warm pool is usually a parameter or an attribute, and
the method name belongs to it alone. The pool's own forwarding
``submit`` of the caller's task is the registered baseline exception.
Thread pools are exempt — nothing is pickled across a thread
boundary.
"""

from __future__ import annotations

import ast
import builtins
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from .engine import Finding, ModuleInfo, Rule

if TYPE_CHECKING:
    from .project import Project

__all__ = ["WorkerSafetyRule"]

#: Constructors whose instances ship work to *processes*.
_EXECUTOR_TYPES = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
    }
)

#: Methods that carry a callable (always the first argument).
_SUBMIT_METHODS = frozenset(
    {
        "submit",
        "map",
        "apply",
        "apply_async",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
    }
)


class WorkerSafetyRule(Rule):
    """Flag unpicklable / state-sharing process-pool submissions."""

    id = "R9"
    name = "worker-safety"
    description = (
        "callables submitted to a process pool must be module-level "
        "and picklable by construction: no lambdas, bound methods, "
        "nested functions or mutable default arguments"
    )

    def check_project(self, project: "Project") -> Iterable[Finding]:
        """Audit every submit-like call on a process-pool binding."""
        findings: list[Finding] = []
        for module in project:
            pools = self._pool_names(module)
            for call in module.index.of_type(ast.Call):
                if not self._is_submission(call, module, pools):
                    continue
                findings.extend(
                    self._audit_submission(project, module, call)
                )
        return findings

    # -- pool detection -------------------------------------------------
    def _pool_names(self, module: ModuleInfo) -> set[str]:
        """Names bound to a process-pool instance in *module*."""
        names: set[str] = set()
        for node in module.index.of_type(ast.Assign):
            if self._is_executor(node.value, module):
                names.update(
                    target.id
                    for target in node.targets
                    if isinstance(target, ast.Name)
                )
        for node in module.index.of_type(ast.With):
            for item in node.items:
                if self._is_executor(
                    item.context_expr, module
                ) and isinstance(item.optional_vars, ast.Name):
                    names.add(item.optional_vars.id)
        return names

    @staticmethod
    def _is_executor(expr: ast.expr, module: ModuleInfo) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        dotted = module.resolve_dotted(expr.func)
        return dotted in _EXECUTOR_TYPES

    def _is_submission(
        self, call: ast.Call, module: ModuleInfo, pools: set[str]
    ) -> bool:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return False
        if func.attr == "map_ordered":
            return True
        if func.attr not in _SUBMIT_METHODS:
            return False
        if isinstance(func.value, ast.Name):
            return func.value.id in pools
        # Direct ``ProcessPoolExecutor(...).submit(...)``.
        return self._is_executor(func.value, module)

    # -- submission audit ------------------------------------------------
    def _audit_submission(
        self,
        project: "Project",
        module: ModuleInfo,
        call: ast.Call,
    ) -> Iterator[Finding]:
        if not call.args:
            return
        yield from self._audit_target(
            project, module, call, call.args[0]
        )
        for arg in [*call.args[1:], *call.keywords]:
            value = arg.value if isinstance(arg, ast.keyword) else arg
            if isinstance(value, ast.Lambda):
                yield self._finding(
                    module,
                    call,
                    "a lambda passed as a pool-call argument "
                    "cannot be pickled to the worker process",
                )

    def _audit_target(
        self,
        project: "Project",
        module: ModuleInfo,
        call: ast.Call,
        target: ast.expr,
    ) -> Iterator[Finding]:
        from .project import (
            ClassSymbol,
            FunctionSymbol,
            module_dotted,
        )

        if isinstance(target, ast.Lambda):
            yield self._finding(
                module,
                call,
                "a lambda cannot be pickled; submit a module-level "
                "function instead",
            )
            return
        if isinstance(target, ast.Call):
            inner = module.resolve_dotted(target.func)
            if inner == "functools.partial" and target.args:
                # partial(fn, ...) pickles iff fn does — audit fn.
                yield from self._audit_target(
                    project, module, call, target.args[0]
                )
                return
            yield self._finding(
                module,
                call,
                "the submitted callable is the result of a call; "
                "only module-level functions (or functools.partial "
                "over one) are picklable by construction",
            )
            return
        if isinstance(target, ast.Attribute):
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield self._finding(
                    module,
                    call,
                    f"bound method self.{target.attr} cannot be "
                    "pickled; hoist the worker to a module-level "
                    "function",
                )
                return
            dotted = module.resolve_dotted(target)
        elif isinstance(target, ast.Name):
            dotted = module.import_aliases().get(target.id)
            if dotted is None:
                local = (
                    f"{module_dotted(module.relpath)}.{target.id}"
                )
                if (
                    local in project.functions
                    or local in project.classes
                ):
                    dotted = local
                elif hasattr(builtins, target.id):
                    return  # builtins pickle by reference
                else:
                    yield self._finding(
                        module,
                        call,
                        f"{target.id!r} does not resolve to a "
                        "module-level function — a nested function "
                        "or local closure cannot be pickled to the "
                        "worker process",
                    )
                    return
        else:
            yield self._finding(
                module,
                call,
                "cannot determine the submitted callable "
                "statically; submit a module-level function by "
                "name",
            )
            return
        if dotted is None:
            yield self._finding(
                module,
                call,
                "the submitted callable does not resolve to a "
                "module-level function; workers can only unpickle "
                "importable callables",
            )
            return
        symbol = project.resolve(dotted)
        if symbol is None:
            # External dotted callables (json.loads, math.sqrt)
            # pickle by reference; only package-internal names we
            # cannot find are suspicious, and those already failed
            # resolution above.
            return
        if isinstance(symbol, ClassSymbol):
            return  # classes pickle by reference
        if isinstance(symbol, FunctionSymbol):
            if symbol.is_method:
                yield self._finding(
                    module,
                    call,
                    f"{dotted} is a method; pickling an unbound "
                    "method drags the class and instance protocol "
                    "in — hoist the worker to a module-level "
                    "function",
                )
                return
            yield from self._mutable_defaults(module, call, symbol)

    def _mutable_defaults(
        self, module: ModuleInfo, call: ast.Call, symbol
    ) -> Iterator[Finding]:
        args = symbol.node.args
        defaults = [*args.defaults, *args.kw_defaults]
        for default in defaults:
            if isinstance(
                default, (ast.List, ast.Dict, ast.Set)
            ):
                yield self._finding(
                    module,
                    call,
                    f"worker function {symbol.qualname.rsplit('.', 1)[-1]} "
                    "has a mutable default argument — per-process "
                    "shared state masquerading as a parameter",
                )
                return

    def _finding(
        self, module: ModuleInfo, call: ast.Call, message: str
    ) -> Finding:
        return Finding(
            rule_id=self.id,
            path=module.path,
            line=call.lineno,
            message=message,
        )
