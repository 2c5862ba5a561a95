"""R8 — purity: ``pure=True`` declarations are machine-checked.

:class:`repro.ops.cache.ResultCache` trusts the catalog completely: a
result computed once for a ``pure=True`` operation is served forever
(until the corpus digest moves), so a mis-declared operation poisons
every cached caller with stale bytes. Until now that trust rested on
a reviewer reading the handler; R8 makes it a checked property of the
whole program.

The rule finds every ``Operation(..., pure=True)`` construction in
the package (resolving the ``Operation`` name through re-exports to
``repro.ops.spec.Operation``), takes the declared ``handler``, and
walks its *transitive* call graph over the
:class:`~repro.staticcheck.project.Project`. Any reachable effect is
flagged at the effect site:

* **clock reads** — ``time.time()``/``monotonic()``/
  ``perf_counter()``, ``datetime.now()`` and friends (purity is
  stricter than R2: even timing metrics change returned bytes if
  they leak into output);
* **randomness** — global-RNG ``random.*`` draws, ``secrets``,
  ``os.urandom``, ``uuid.uuid1``/``uuid4``;
* **process environment** — ``os.environ`` access, ``os.getenv``;
* **filesystem** — ``open()``, ``pathlib`` read/write methods,
  ``shutil``/``tempfile``, ``os`` file calls;
* **network** — ``socket``/``urllib``/``http.client`` and the like;
* **processes and stdio** — ``subprocess``, ``os.system``,
  ``print()``/``input()``;
* **module-state mutation** — ``global`` rebinding or in-place
  mutation of a module-level container (the one allowed shape is the
  ``global X`` + ``if X is None`` memo idiom, which is idempotent
  and therefore cache-safe).

Like every call-graph analysis of Python, reachability is an
under-approximation: calls through values of unknown type (a
parameter, ``ctx.corpus()``, a dict of callables) contribute no
edges. R8 proves what it can see and the declared handler chain is
exactly the code a cached result replaces, so the bargain is the
right one. A handler the rule cannot resolve at all is itself a
finding — an unverifiable purity claim does not get the benefit of
the doubt.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from .engine import Finding, ModuleInfo, NodeIndex, Rule

if TYPE_CHECKING:
    from .project import FunctionSymbol, Project

__all__ = ["PurityRule"]

#: The canonical constructor whose ``pure=True`` keyword R8 audits.
_OPERATION = "repro.ops.spec.Operation"

_CLOCK_CALLS = frozenset(
    {
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
    }
)

_RNG_CALLS = frozenset(
    {
        "random.SystemRandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "os.urandom",
    }
)
#: ``random.*`` attributes that do NOT touch the global RNG.
_RANDOM_ALLOWED = frozenset({"random.Random"})

_ENV_TARGETS = frozenset(
    {"os.environ", "os.getenv", "os.putenv", "os.unsetenv"}
)

_FS_CALLS = frozenset(
    {
        "open",
        "os.remove",
        "os.unlink",
        "os.rename",
        "os.replace",
        "os.mkdir",
        "os.makedirs",
        "os.rmdir",
        "os.chmod",
    }
)
_FS_PREFIXES = ("shutil.", "tempfile.")
#: Effectful ``pathlib.Path`` methods, reached via local inference
#: (``p = Path(x); p.read_text()`` resolves to the dotted form).
_PATH_EFFECTS = frozenset(
    f"pathlib.Path.{method}"
    for method in (
        "open",
        "read_text",
        "read_bytes",
        "write_text",
        "write_bytes",
        "unlink",
        "mkdir",
        "rmdir",
        "touch",
        "rename",
        "replace",
        "chmod",
    )
)

_NET_PREFIXES = (
    "socket.",
    "urllib.",
    "http.client",
    "requests.",
    "ftplib.",
    "smtplib.",
)

_PROC_CALLS = frozenset({"os.system", "os.popen"})
_PROC_PREFIXES = ("subprocess.",)

_STDIO_CALLS = frozenset({"print", "input", "builtins.print"})


def _classify(dotted: str) -> str | None:
    """The effect class of a dotted call target, or ``None``."""
    if dotted in _CLOCK_CALLS:
        return "clock read"
    if dotted in _RNG_CALLS or dotted.startswith("secrets."):
        return "randomness"
    if (
        dotted.startswith("random.")
        and dotted not in _RANDOM_ALLOWED
    ):
        return "global-RNG draw"
    if dotted in _ENV_TARGETS:
        return "environment access"
    if (
        dotted in _FS_CALLS
        or dotted in _PATH_EFFECTS
        or dotted.startswith(_FS_PREFIXES)
    ):
        return "filesystem access"
    if dotted.startswith(_NET_PREFIXES):
        return "network access"
    if dotted in _PROC_CALLS or dotted.startswith(_PROC_PREFIXES):
        return "subprocess launch"
    if dotted in _STDIO_CALLS:
        return "stdio use"
    return None


#: Methods that mutate a container in place.
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
    }
)


class PurityRule(Rule):
    """Prove every ``pure=True`` op effect-free along visible calls."""

    id = "R8"
    name = "purity"
    description = (
        "every operation declared pure=True must reach no effect "
        "(clock, RNG, env, filesystem, network, module-state "
        "mutation) through its transitive call graph — the "
        "ResultCache serves stale bytes otherwise"
    )

    def check_project(self, project: "Project") -> Iterable[Finding]:
        """Walk each declared-pure handler's call graph for effects."""
        declared = list(self._declared_pure(project))
        if not declared:
            return []
        findings: list[Finding] = []
        effect_cache: dict[str, tuple] = {}
        # (path, line, message-core) → sorted op names reaching it.
        sites: dict[tuple, dict] = {}
        for op_name, handler, module, call in declared:
            symbol = self._resolve_handler(project, module, handler)
            if symbol is None:
                findings.append(
                    Finding(
                        rule_id=self.id,
                        path=module.path,
                        line=call.lineno,
                        message=(
                            f"operation {op_name!r} is declared "
                            "pure=True but its handler does not "
                            "resolve to a module-level function; "
                            "purity cannot be verified"
                        ),
                    )
                )
                continue
            for fn, chain in self._reachable(project, symbol):
                key = fn.qualname
                if key not in effect_cache:
                    effect_cache[key] = tuple(
                        self._effects(project, fn)
                    )
                for line, effect, detail in effect_cache[key]:
                    site = (fn.module.path, line, effect, detail)
                    entry = sites.setdefault(
                        site, {"ops": set(), "chain": chain}
                    )
                    entry["ops"].add(op_name)
        for (path, line, effect, detail), entry in sites.items():
            ops = ", ".join(repr(o) for o in sorted(entry["ops"]))
            via = " → ".join(
                name.rsplit(".", 1)[-1] for name in entry["chain"]
            )
            findings.append(
                Finding(
                    rule_id=self.id,
                    path=path,
                    line=line,
                    message=(
                        f"operation(s) {ops} declared pure=True "
                        f"reach {effect} ({detail}) via {via}; a "
                        "pure result is cached and replayed, so "
                        "this effect makes the ResultCache serve "
                        "stale bytes"
                    ),
                )
            )
        return findings

    # -- declared-pure discovery ----------------------------------------
    def _declared_pure(
        self, project: "Project"
    ) -> Iterator[tuple[str, ast.expr, ModuleInfo, ast.Call]]:
        """Yield (op name, handler expr, module, call) per pure op."""
        for module in project:
            for node in module.index.of_type(ast.Call):
                dotted = project.call_target(module, node)
                if (
                    dotted is None
                    or project.canonical(dotted) != _OPERATION
                ):
                    continue
                keywords = {
                    kw.arg: kw.value
                    for kw in node.keywords
                    if kw.arg
                }
                pure = keywords.get("pure")
                if not (
                    isinstance(pure, ast.Constant)
                    and pure.value is True
                ):
                    continue
                handler = keywords.get("handler")
                if handler is None and len(node.args) >= 3:
                    handler = node.args[2]
                name = keywords.get("name")
                op_name = (
                    name.value
                    if isinstance(name, ast.Constant)
                    and isinstance(name.value, str)
                    else ast.unparse(handler)
                    if handler is not None
                    else "<unnamed>"
                )
                if handler is None:
                    continue
                yield op_name, handler, module, node

    @staticmethod
    def _resolve_handler(project, module, expr):
        from .project import FunctionSymbol, module_dotted

        if isinstance(expr, ast.Name):
            dotted = module.import_aliases().get(expr.id) or (
                f"{module_dotted(module.relpath)}.{expr.id}"
            )
        elif isinstance(expr, ast.Attribute):
            dotted = module.resolve_dotted(expr)
        else:
            return None
        if dotted is None:
            return None
        symbol = project.resolve(dotted)
        return (
            symbol if isinstance(symbol, FunctionSymbol) else None
        )

    # -- reachability ---------------------------------------------------
    def _reachable(
        self, project: "Project", handler: "FunctionSymbol"
    ) -> Iterator[tuple["FunctionSymbol", tuple[str, ...]]]:
        """BFS of resolvable callees, with the call chain to each."""
        from .project import ClassSymbol, FunctionSymbol

        queue = [(handler, (handler.qualname,))]
        seen = {handler.qualname}
        while queue:
            fn, chain = queue.pop(0)
            yield fn, chain
            for dotted, _line in project.callees(fn):
                symbol = project.resolve(dotted)
                if isinstance(symbol, ClassSymbol):
                    symbol = symbol.methods.get("__init__")
                if not isinstance(symbol, FunctionSymbol):
                    continue
                if symbol.qualname in seen:
                    continue
                seen.add(symbol.qualname)
                queue.append(
                    (symbol, chain + (symbol.qualname,))
                )

    # -- effect scanning ------------------------------------------------
    def _effects(
        self, project: "Project", fn: "FunctionSymbol"
    ) -> Iterator[tuple[int, str, str]]:
        """Yield (line, effect class, detail) for one function body."""
        for dotted, line in project.callees(fn):
            effect = _classify(dotted)
            if effect is not None:
                yield line, effect, f"{dotted}()"
        # ``os.environ[...]``/``os.environ.get`` are attribute reads,
        # not calls of an ``os.*`` function — scan them separately
        # (calls like ``os.getenv()`` are already covered above).
        module = fn.module
        for node in module.index_of(fn.node).of_type(ast.Attribute):
            if (
                node.attr == "environ"
                and module.resolve_dotted(node) == "os.environ"
            ):
                yield (
                    node.lineno,
                    "environment access",
                    "os.environ",
                )
        yield from self._state_mutations(fn)

    def _state_mutations(
        self, fn: "FunctionSymbol"
    ) -> Iterator[tuple[int, str, str]]:
        """Module-state writes, minus the idempotent memo idiom."""
        index = fn.module.index_of(fn.node)
        global_names: set[str] = set()
        for node in index.of_type(ast.Global):
            global_names.update(node.names)
        stores = [
            node
            for node in index.of_type(ast.Name)
            if isinstance(node.ctx, ast.Store)
        ]
        assigned = {node.id for node in stores}
        for name in sorted(global_names & assigned):
            if self._is_memo_guarded(index, name):
                continue
            line = next(
                node.lineno for node in stores if node.id == name
            )
            yield (
                line,
                "module-state mutation",
                f"global {name} rebinding",
            )
        module_level = self._module_level_names(fn.module)
        local = assigned | self._parameter_names(index) | global_names
        for node in index.of_type(ast.Assign, ast.AugAssign, ast.Call):
            target_name, line = self._container_write(node)
            if target_name is None:
                continue
            if target_name in local:
                continue
            if target_name not in module_level:
                continue
            yield (
                line,
                "module-state mutation",
                f"in-place write to module-level {target_name!r}",
            )

    @staticmethod
    def _is_memo_guarded(index: NodeIndex, name: str) -> bool:
        """``global X`` guarded by ``if X is None`` is idempotent."""
        for node in index.of_type(ast.If):
            test = node.test
            if (
                isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Name)
                and test.left.id == name
                and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Is)
                and len(test.comparators) == 1
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None
            ):
                return True
        return False

    @staticmethod
    def _module_level_names(module: ModuleInfo) -> set[str]:
        names: set[str] = set()
        for node in module.tree.body:
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    @staticmethod
    def _parameter_names(index: NodeIndex) -> set[str]:
        names: set[str] = set()
        for args in index.of_type(ast.arguments):
            for arg in (
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
            ):
                names.add(arg.arg)
            if args.vararg:
                names.add(args.vararg.arg)
            if args.kwarg:
                names.add(args.kwarg.arg)
        return names

    @staticmethod
    def _container_write(node: ast.AST) -> tuple[str | None, int]:
        """A subscript store or mutator call on a bare name, if any."""
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    return target.value.id, node.lineno
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
            and isinstance(node.func.value, ast.Name)
        ):
            return node.func.value.id, node.lineno
        return None, 0
