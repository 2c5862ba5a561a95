"""The project graph: whole-package symbols, imports and calls.

Most rules judge one file at a time (R4, the semi-static consistency
rule, imports data instead). Two correctness contracts are
*whole-program* properties — an operation declared
``pure=True`` must reach no effect through any call chain, a function
submitted to a process pool must be picklable by construction — and
checking them needs a once-per-run view of the entire package.

:class:`Project` is that view. Built once per lint run from the
already-parsed :class:`~repro.staticcheck.engine.ModuleInfo` set, it
exposes:

* a **symbol table** — every module-level function and class (with
  its methods), addressable by dotted name
  (``repro.ops.catalog._run_stats``,
  ``repro.analysis.similarity.SimilarityAnalysis.clusters``);
* **re-export resolution** — ``repro.tables.render_table1`` chases
  the ``tables/__init__.py`` alias to the defining symbol in
  ``tables/renderers.py``, so rules reason about definitions, not
  spellings;
* an **import graph** — which package modules each module imports;
* a **call graph** — per function, the dotted targets of every call
  in its body, with best-effort local inference (``x = Cls(...);
  x.method()`` resolves to ``Cls.method``, ``self.helper()`` resolves
  through the class and its bases, ``Path(p).read_text()`` resolves
  to ``pathlib.Path.read_text``), read from each function body's
  :class:`~repro.staticcheck.engine.NodeIndex` so a body is walked at
  most once however many rules ask about it.

Resolution is deliberately an *under*-approximation: a call through a
value of unknown type (``ctx.corpus()``, a parameter, a dict of
callables) yields no edge. Rules built on the graph therefore prove
properties of everything they can see and stay silent about what they
cannot — the same bargain every practical static analysis for Python
strikes — and the docs for each rule state it.
"""

from __future__ import annotations

import ast
import dataclasses
from collections.abc import Iterator, Mapping, Sequence

from .engine import ModuleInfo

__all__ = [
    "ClassSymbol",
    "FunctionSymbol",
    "Project",
    "module_dotted",
]


def module_dotted(relpath: str) -> str:
    """The importable dotted name of a package-relative path.

    ``ops/catalog.py`` → ``repro.ops.catalog``; ``ops/__init__.py`` →
    ``repro.ops``; the root ``__init__.py`` → ``repro``.
    """
    parts = relpath[: -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(["repro", *parts]) if parts else "repro"


@dataclasses.dataclass(frozen=True)
class FunctionSymbol:
    """One module-level function or class method."""

    qualname: str
    module: ModuleInfo
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_qualname: str | None = None

    @property
    def is_method(self) -> bool:
        return self.class_qualname is not None


@dataclasses.dataclass(frozen=True)
class ClassSymbol:
    """One module-level class with its directly defined methods."""

    qualname: str
    module: ModuleInfo
    node: ast.ClassDef
    bases: tuple[str, ...]
    methods: Mapping[str, FunctionSymbol]


class Project:
    """Whole-package symbol table, import graph and call graph.

    Handed to every rule's ``check_project`` hook. Iterating a
    project yields its modules, so rules that only need the parsed
    module set (the consistency rule) keep working on the obvious
    surface.
    """

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules: tuple[ModuleInfo, ...] = tuple(modules)
        self._by_relpath = {m.relpath: m for m in self.modules}
        self._by_dotted = {
            module_dotted(m.relpath): m for m in self.modules
        }
        self.functions: dict[str, FunctionSymbol] = {}
        self.classes: dict[str, ClassSymbol] = {}
        for module in self.modules:
            self._index_module(module)
        self._callees: dict[str, tuple[tuple[str, int], ...]] = {}

    # -- construction ---------------------------------------------------
    def _index_module(self, module: ModuleInfo) -> None:
        dotted = module_dotted(module.relpath)
        for node in module.tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                qualname = f"{dotted}.{node.name}"
                self.functions[qualname] = FunctionSymbol(
                    qualname, module, node
                )
            elif isinstance(node, ast.ClassDef):
                self._index_class(module, dotted, node)

    def _index_class(
        self, module: ModuleInfo, dotted: str, node: ast.ClassDef
    ) -> None:
        qualname = f"{dotted}.{node.name}"
        methods: dict[str, FunctionSymbol] = {}
        for item in node.body:
            if isinstance(
                item, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                symbol = FunctionSymbol(
                    f"{qualname}.{item.name}",
                    module,
                    item,
                    class_qualname=qualname,
                )
                methods[item.name] = symbol
                self.functions[symbol.qualname] = symbol
        bases = tuple(
            base
            for base in (
                self._expression_target(module, expr, {})
                for expr in node.bases
            )
            if base is not None
        )
        self.classes[qualname] = ClassSymbol(
            qualname, module, node, bases, methods
        )

    # -- module access --------------------------------------------------
    def __iter__(self) -> Iterator[ModuleInfo]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)

    def module(self, relpath: str) -> ModuleInfo | None:
        """The module at package-relative *relpath*, if linted."""
        return self._by_relpath.get(relpath)

    # -- import graph ---------------------------------------------------
    def imports(self, relpath: str) -> frozenset[str]:
        """Package-internal modules *relpath* imports (as relpaths)."""
        module = self._by_relpath.get(relpath)
        if module is None:
            return frozenset()
        internal: set[str] = set()
        for origin in module.import_aliases().values():
            parts = origin.split(".")
            if parts[0] != "repro":
                continue
            # Longest linted-module prefix of the dotted origin.
            for cut in range(len(parts), 0, -1):
                candidate = self._by_dotted.get(
                    ".".join(parts[:cut])
                )
                if candidate is not None:
                    internal.add(candidate.relpath)
                    break
        internal.discard(relpath)
        return frozenset(internal)

    def import_graph(self) -> dict[str, frozenset[str]]:
        """The full module → imported-modules adjacency map."""
        return {
            m.relpath: self.imports(m.relpath) for m in self.modules
        }

    # -- name resolution ------------------------------------------------
    def resolve(
        self, dotted: str
    ) -> FunctionSymbol | ClassSymbol | None:
        """The defined symbol *dotted* names, chasing re-exports.

        ``repro.tables.render_table1`` follows the package
        ``__init__`` alias to the defining function; a dotted method
        path walks the class (and its resolvable bases). Unknown
        names return ``None``.
        """
        return self._resolve(dotted, set())

    def _resolve(self, dotted, seen):
        if dotted in seen:
            return None
        seen.add(dotted)
        hit = self.functions.get(dotted) or self.classes.get(dotted)
        if hit is not None:
            return hit
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            rest = parts[cut:]
            klass = self.classes.get(prefix)
            if klass is not None and len(rest) == 1:
                return self._class_method(klass, rest[0], set())
            module = self._by_dotted.get(prefix)
            if module is not None:
                origin = module.import_aliases().get(rest[0])
                if origin is None:
                    return None
                return self._resolve(
                    ".".join([origin, *rest[1:]]), seen
                )
        return None

    def _class_method(self, klass, name, seen):
        """Look *name* up on *klass*, then on its resolvable bases."""
        if klass.qualname in seen:
            return None
        seen.add(klass.qualname)
        method = klass.methods.get(name)
        if method is not None:
            return method
        for base in klass.bases:
            symbol = self.resolve(base)
            if isinstance(symbol, ClassSymbol):
                found = self._class_method(symbol, name, seen)
                if found is not None:
                    return found
        return None

    def canonical(self, dotted: str) -> str:
        """*dotted* with every package re-export alias chased.

        The fixed point of alias resolution: ``repro.ops.Operation``
        becomes ``repro.ops.spec.Operation`` whether or not the
        final module is part of the linted tree (rules match on the
        canonical spelling, so fixture trees need not ship the
        defining module).
        """
        seen: set[str] = set()
        while dotted not in seen:
            seen.add(dotted)
            if dotted in self.functions or dotted in self.classes:
                return dotted
            parts = dotted.split(".")
            advanced = False
            for cut in range(len(parts) - 1, 0, -1):
                module = self._by_dotted.get(".".join(parts[:cut]))
                if module is None:
                    continue
                origin = module.import_aliases().get(parts[cut])
                if origin is not None:
                    dotted = ".".join(
                        [origin, *parts[cut + 1:]]
                    )
                    advanced = True
                break
            if not advanced:
                break
        return dotted

    # -- call graph -----------------------------------------------------
    def callees(
        self, symbol: FunctionSymbol
    ) -> tuple[tuple[str, int], ...]:
        """``(dotted target, line)`` for every call in *symbol*.

        Targets are raw dotted spellings — package-internal names
        resolve further through :meth:`resolve`; external ones
        (``time.time``, ``pathlib.Path.read_text``) and bare builtin
        names (``open``, ``print``) are matched as-is by rules.
        Bodies of nested functions and lambdas are included: they
        may run whenever the enclosing function does.
        """
        cached = self._callees.get(symbol.qualname)
        if cached is None:
            cached = tuple(self._extract_calls(symbol))
            self._callees[symbol.qualname] = cached
        return cached

    def _extract_calls(self, symbol):
        module = symbol.module
        locals_types = self._local_instance_types(module, symbol)
        for node in module.index_of(symbol.node).of_type(ast.Call):
            dotted = self.call_target(
                module, node, symbol, locals_types
            )
            if dotted is not None:
                yield dotted, node.lineno

    def _local_instance_types(self, module, symbol) -> dict[str, str]:
        """``var -> dotted`` for ``var = Callee(...)`` assignments."""
        types: dict[str, str] = {}
        for node in module.index_of(symbol.node).of_type(ast.Assign):
            if len(node.targets) != 1 or not isinstance(
                node.targets[0], ast.Name
            ):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            dotted = self._callable_name(
                module, node.value.func, symbol, {}
            )
            if dotted is not None:
                types[node.targets[0].id] = dotted
        return types

    def call_target(
        self,
        module: ModuleInfo,
        node: ast.Call,
        symbol: FunctionSymbol | None = None,
        locals_types: Mapping[str, str] | None = None,
    ) -> str | None:
        """The dotted target of one call expression, best effort."""
        if locals_types is None and symbol is not None:
            locals_types = self._local_instance_types(module, symbol)
        return self._callable_name(
            module, node.func, symbol, locals_types or {}
        )

    def _callable_name(self, module, func, symbol, locals_types):
        if isinstance(func, ast.Name):
            origin = module.import_aliases().get(func.id)
            if origin is not None:
                return origin
            local = f"{module_dotted(module.relpath)}.{func.id}"
            if local in self.functions or local in self.classes:
                return local
            return func.id  # builtin or unresolvable local
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name):
                if (
                    value.id == "self"
                    and symbol is not None
                    and symbol.class_qualname is not None
                ):
                    return f"{symbol.class_qualname}.{func.attr}"
                inferred = locals_types.get(value.id)
                if inferred is not None:
                    return f"{inferred}.{func.attr}"
                return module.resolve_dotted(func)
            if isinstance(value, ast.Call):
                inner = self._callable_name(
                    module, value.func, symbol, locals_types
                )
                if inner is not None:
                    return f"{inner}.{func.attr}"
                return None
            return module.resolve_dotted(func)
        return None

    def _expression_target(self, module, expr, locals_types):
        """Resolve a non-call expression (class base) to dotted form."""
        if isinstance(expr, ast.Name):
            origin = module.import_aliases().get(expr.id)
            if origin is not None:
                return origin
            local = f"{module_dotted(module.relpath)}.{expr.id}"
            if local in self.classes or local in self.functions:
                return local
            return expr.id
        if isinstance(expr, ast.Attribute):
            return module.resolve_dotted(expr)
        return None
