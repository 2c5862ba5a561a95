"""Core of the policy linter: findings, modules, rules and the engine.

The paper's position (§4–§5) is that safeguards must be *operational*:
it is not enough to promise anonymization, controlled sharing and
reproducibility — the machinery has to enforce them. ``staticcheck``
turns that position on this codebase itself: a small AST linter whose
rules encode the safeguards the repro package claims to implement.

Design
------

* **One parse and one walk per file.** :class:`ModuleInfo` parses the
  source once and indexes the tree once (:class:`NodeIndex`: every
  node in ``ast.walk`` order, bucketed by exact node type). The
  engine dispatches each indexed node to every rule registered for
  its type, and rules read the index instead of walking the tree
  themselves; a function body that a rule needs on its own is
  indexed once too (:meth:`ModuleInfo.index_of`).
* **Three rule granularities.** A rule may register for AST node
  types (:attr:`Rule.node_types`), inspect the raw source or index of
  a module (:meth:`Rule.check_module`), or run once over the whole
  package (:meth:`Rule.check_project`), receiving the
  :class:`~repro.staticcheck.project.Project` graph — symbol table,
  import graph and call graph — built exactly once per run. The
  semi-static consistency rule and both interprocedural rules
  (purity, worker-safety) live at this granularity.
* **Suppressions are data.** ``# repro: noqa[R2] reason`` on the
  offending line marks a finding as suppressed; the engine keeps the
  finding (with its justification) so reporters and the baseline can
  account for every accepted exception.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import StaticCheckError

if TYPE_CHECKING:  # circular at runtime: project.py imports engine
    from .project import Project

__all__ = [
    "Finding",
    "LintEngine",
    "ModuleInfo",
    "NodeIndex",
    "Rule",
    "RuleRegistry",
    "Suppression",
    "default_registry",
    "package_root",
    "unsuppressed",
]

#: ``# repro: noqa[R1]`` or ``# repro: noqa[R1,R3] justification text``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\[([A-Za-z0-9_,\s]+)\]\s*(.*)$"
)


@dataclasses.dataclass(frozen=True)
class Suppression:
    """One inline ``# repro: noqa[...]`` comment."""

    line: int
    rule_ids: frozenset[str]
    justification: str


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule_id: str
    path: str
    line: int
    message: str
    suppressed: bool = False
    justification: str = ""

    def to_dict(self) -> dict:
        """JSON-serialisable representation (one object per finding)."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "suppressed": self.suppressed,
            "justification": self.justification,
        }

    def describe(self) -> str:
        """The conventional ``path:line: [RID] message`` line."""
        mark = " (suppressed)" if self.suppressed else ""
        return (
            f"{self.path}:{self.line}: [{self.rule_id}] "
            f"{self.message}{mark}"
        )


class NodeIndex:
    """Every node under one root, in ``ast.walk`` order, by type.

    Built by one walk; rules query it instead of walking again.
    :meth:`of_type` returns nodes of *exactly* the given types (no
    subclass matching — AST node classes are leaves) in walk order,
    so a rule that takes "the first match" sees the same node an
    ``ast.walk`` loop would.
    """

    __slots__ = ("nodes", "_by_type")

    def __init__(self, root: ast.AST) -> None:
        # The breadth-first order of ``ast.walk``, without its
        # per-node generators: about twice as fast on this package.
        nodes = [root]
        append = nodes.append
        for node in nodes:  # grows while iterating: a BFS queue
            for field in node._fields:
                value = getattr(node, field, None)
                if isinstance(value, ast.AST):
                    append(value)
                elif isinstance(value, list):
                    for item in value:
                        if isinstance(item, ast.AST):
                            append(item)
        by_type: dict[type[ast.AST], list[ast.AST]] = {}
        for node in nodes:
            by_type.setdefault(type(node), []).append(node)
        self.nodes: tuple[ast.AST, ...] = tuple(nodes)
        self._by_type = by_type

    def of_type(self, *types: type[ast.AST]) -> list[ast.AST]:
        """The nodes whose type is one of *types*, in walk order."""
        if len(types) == 1:
            return self._by_type.get(types[0], [])
        return [node for node in self.nodes if type(node) in types]


class ModuleInfo:
    """A parsed source module: path, source, AST, index, suppressions.

    ``relpath`` is the path relative to the linted package root (posix
    separators, e.g. ``"reporting/dmp.py"``) — rules match on it.
    ``path`` is the display path used in findings. ``index`` is the
    :class:`NodeIndex` of the whole tree.
    """

    def __init__(
        self, source: str, relpath: str, path: str | None = None
    ) -> None:
        self.source = source
        self.relpath = relpath.replace("\\", "/")
        self.path = path or self.relpath
        self.lines: tuple[str, ...] = tuple(source.splitlines())
        try:
            self.tree: ast.Module = ast.parse(source)
        except (SyntaxError, RecursionError) as exc:
            # RecursionError: nesting too deep for the AST builder
            # (``1+1+…`` with 10^5 terms), hostile but not a crash.
            raise StaticCheckError(
                f"cannot parse {self.path}: {exc}"
            ) from exc
        self.index = NodeIndex(self.tree)
        self._subindexes: dict[int, NodeIndex] = {}
        self.suppressions: dict[int, Suppression] = {}
        for number, text in enumerate(self.lines, start=1):
            match = "noqa" in text and _NOQA_RE.search(text)
            if match:
                ids = frozenset(
                    part.strip()
                    for part in match.group(1).split(",")
                    if part.strip()
                )
                self.suppressions[number] = Suppression(
                    line=number,
                    rule_ids=ids,
                    justification=match.group(2).strip(),
                )
        self._imports: dict[str, str] | None = None

    def index_of(self, node: ast.AST) -> NodeIndex:
        """The :class:`NodeIndex` of the subtree at *node* (memoised).

        For rules that judge one function body at a time: each body
        is walked at most once per run, however many rules ask.
        """
        index = self._subindexes.get(id(node))
        if index is None:
            index = self._subindexes[id(node)] = NodeIndex(node)
        return index

    def import_aliases(self) -> dict[str, str]:
        """Map every imported local name to its dotted origin.

        ``import random`` → ``{"random": "random"}``; ``from random
        import choice as c`` → ``{"c": "random.choice"}``. Relative
        imports are resolved against the module's package path, so in
        ``reporting/dmp.py`` a ``from ..datasets import X`` yields
        ``{"X": "repro.datasets.X"}``.
        """
        if self._imports is not None:
            return self._imports
        aliases: dict[str, str] = {}
        package_parts = ["repro", *self.relpath.split("/")[:-1]]
        for node in self.index.of_type(ast.Import, ast.ImportFrom):
            if isinstance(node, ast.Import):
                for name in node.names:
                    local = name.asname or name.name.split(".")[0]
                    origin = (
                        name.name if name.asname else name.name.split(".")[0]
                    )
                    aliases[local] = origin
            else:
                if node.level:
                    base_parts = package_parts[
                        : len(package_parts) - (node.level - 1)
                    ]
                    base = ".".join(
                        base_parts + ([node.module] if node.module else [])
                    )
                else:
                    base = node.module or ""
                for name in node.names:
                    if name.name == "*":
                        continue
                    local = name.asname or name.name
                    aliases[local] = f"{base}.{name.name}" if base else (
                        name.name
                    )
        self._imports = aliases
        return aliases

    def resolve_dotted(self, node: ast.AST) -> str | None:
        """Resolve a ``Name``/``Attribute`` chain to a dotted origin.

        ``datetime.datetime.now`` with ``import datetime`` resolves to
        ``"datetime.datetime.now"``; unknown roots return ``None``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        origin = self.import_aliases().get(node.id)
        if origin is None:
            return None
        return ".".join([origin, *reversed(parts)])

    def suppression_for(self, rule_id: str, line: int) -> Suppression | None:
        """The suppression covering *rule_id* at *line*, if any."""
        suppression = self.suppressions.get(line)
        if suppression and rule_id in suppression.rule_ids:
            return suppression
        return None


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id`, :attr:`name` and :attr:`description`,
    then implement any of the three hooks. The engine guarantees each
    file is parsed and walked exactly once; :meth:`visit` receives
    nodes from that walk's :class:`NodeIndex`, and other hooks read
    ``module.index`` (or :meth:`ModuleInfo.index_of` for one function
    body) rather than calling ``ast.walk`` themselves.
    """

    id: str = ""
    name: str = ""
    description: str = ""
    #: AST node types this rule wants dispatched to :meth:`visit`.
    node_types: tuple[type[ast.AST], ...] = ()

    def applies_to(self, module: ModuleInfo) -> bool:
        """Whether the rule runs on *module* (default: every module)."""
        return True

    def visit(
        self, node: ast.AST, module: ModuleInfo
    ) -> Iterable[Finding]:
        """Handle one dispatched node; yield findings."""
        return ()

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        """Whole-module hook (raw source / own traversal); findings."""
        return ()

    def check_project(
        self, project: "Project"
    ) -> Iterable[Finding]:
        """Once-per-run whole-program hook; yields findings.

        *project* is the :class:`~repro.staticcheck.project.Project`
        graph over every linted module — iterate it for the plain
        module list, or use its symbol table / call graph for
        interprocedural rules.
        """
        return ()


class RuleRegistry:
    """Ordered registry of rule instances, addressable by id."""

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        self._rules: dict[str, Rule] = {}
        for rule in rules:
            self.register(rule)

    def register(self, rule: Rule) -> Rule:
        """Add *rule*; ids must be unique and non-empty."""
        if not rule.id:
            raise StaticCheckError("rule id must be non-empty")
        if rule.id in self._rules:
            raise StaticCheckError(f"duplicate rule id {rule.id!r}")
        self._rules[rule.id] = rule
        return rule

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    @property
    def rule_ids(self) -> tuple[str, ...]:
        return tuple(self._rules)

    def select(self, rule_ids: Iterable[str]) -> "RuleRegistry":
        """A sub-registry containing only *rule_ids* (order kept)."""
        wanted = list(rule_ids)
        unknown = [rid for rid in wanted if rid not in self._rules]
        if unknown:
            raise StaticCheckError(
                f"unknown rule ids {unknown}; known: "
                f"{sorted(self._rules)}"
            )
        return RuleRegistry(
            rule
            for rule in self._rules.values()
            if rule.id in wanted
        )


def default_registry() -> RuleRegistry:
    """The registry with all ten shipped rules (R1–R10)."""
    from .rules_audit import AuditBoundaryRule
    from .rules_consistency import ConsistencyRule
    from .rules_dataflow import SafeguardBoundaryRule
    from .rules_determinism import DeterminismRule
    from .rules_layering import LayeringRule
    from .rules_naming import TelemetryNamingRule
    from .rules_pii import PIILiteralRule
    from .rules_policy import PolicyLiteralRule
    from .rules_purity import PurityRule
    from .rules_workers import WorkerSafetyRule

    return RuleRegistry(
        (
            SafeguardBoundaryRule(),
            DeterminismRule(),
            PIILiteralRule(),
            ConsistencyRule(),
            AuditBoundaryRule(),
            TelemetryNamingRule(),
            LayeringRule(),
            PurityRule(),
            WorkerSafetyRule(),
            PolicyLiteralRule(),
        )
    )


def package_root() -> Path:
    """The directory of the installed ``repro`` package (lint target)."""
    import repro

    return Path(repro.__file__).resolve().parent


class LintEngine:
    """Runs a rule registry over sources, files or the whole package."""

    def __init__(self, registry: RuleRegistry | None = None) -> None:
        self.registry = registry or default_registry()

    # -- single-module lint --------------------------------------------
    def lint_source(
        self, source: str, relpath: str, path: str | None = None
    ) -> list[Finding]:
        """Lint one source string (fixtures, tests)."""
        module = ModuleInfo(source, relpath, path)
        return self._lint_module(module)

    def _lint_module(self, module: ModuleInfo) -> list[Finding]:
        rules = [r for r in self.registry if r.applies_to(module)]
        dispatch: dict[type[ast.AST], list[Rule]] = {}
        for rule in rules:
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)
        findings: list[Finding] = []
        try:
            if dispatch:
                for node in module.index.of_type(*dispatch):
                    for rule in dispatch[type(node)]:
                        findings.extend(rule.visit(node, module))
            for rule in rules:
                findings.extend(rule.check_module(module))
        except RecursionError as exc:
            # A recursive rule (R1's taint walk) on an expression that
            # parsed but nests too deeply: an error, not a crash.
            raise StaticCheckError(
                f"cannot lint {module.path}: {exc}"
            ) from exc
        return [self._apply_suppression(f, module) for f in findings]

    @staticmethod
    def _apply_suppression(
        finding: Finding, module: ModuleInfo
    ) -> Finding:
        suppression = module.suppression_for(
            finding.rule_id, finding.line
        )
        if suppression is None:
            return finding
        return dataclasses.replace(
            finding,
            suppressed=True,
            justification=suppression.justification,
        )

    # -- package lint ---------------------------------------------------
    def lint_package(self, root: Path | None = None) -> list[Finding]:
        """Lint every ``.py`` file under *root* (default: ``repro``).

        Per-module rules run file by file; project rules run once at
        the end over the :class:`~repro.staticcheck.project.Project`
        graph. Rules match on paths relative to *root*, so a fixture
        tree mirroring the package layout (``datasets/x.py``,
        ``reporting/x.py``) exercises the same scoping as the real
        source. Findings come back sorted by path then line.
        """
        from .project import Project

        explicit_root = root is not None
        root = Path(root) if explicit_root else package_root()
        if not root.is_dir():
            raise StaticCheckError(
                f"lint root {root} is not a directory"
            )
        if explicit_root:
            try:
                prefix = root.resolve().relative_to(
                    Path.cwd()
                ).as_posix()
            except ValueError:
                prefix = root.as_posix()
        else:
            prefix = "src/repro"

        modules: dict[str, ModuleInfo] = {}
        findings: list[Finding] = []
        for file in sorted(root.rglob("*.py")):
            relpath = file.relative_to(root).as_posix()
            display = (
                f"{prefix}/{relpath}" if prefix != "." else relpath
            )
            try:
                source = file.read_bytes().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise StaticCheckError(
                    f"cannot decode {display} as UTF-8: {exc}"
                ) from exc
            module = ModuleInfo(source, relpath, display)
            modules[relpath] = module
            findings.extend(self._lint_module(module))

        project = Project([modules[r] for r in sorted(modules)])
        stripper = f"{prefix}/" if prefix != "." else ""
        for rule in self.registry:
            for finding in rule.check_project(project):
                module = modules.get(
                    finding.path.removeprefix(stripper)
                    if stripper
                    else finding.path
                )
                if module is not None:
                    finding = self._apply_suppression(finding, module)
                findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
        return findings


def unsuppressed(findings: Iterable[Finding]) -> list[Finding]:
    """The findings that actually fail a lint run."""
    return [f for f in findings if not f.suppressed]
