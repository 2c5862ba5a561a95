"""Tests for the node index, the project graph and R8/R9.

Fixture trees mirror the package layout on disk (``ops/catalog.py``,
``ops/spec.py``) so :meth:`LintEngine.lint_package` exercises exactly
the relative-import resolution and rule scoping the real source
sees.
"""

from __future__ import annotations

import ast

import pytest

from repro.staticcheck import (
    LintEngine,
    ModuleInfo,
    NodeIndex,
    Project,
    default_registry,
    package_root,
)
from repro.staticcheck.project import module_dotted


def build_tree(tmp_path, files: dict) -> None:
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")


def lint_tree(tmp_path):
    registry = default_registry().select(("R8", "R9"))
    return LintEngine(registry).lint_package(tmp_path)


#: Minimal ops scaffolding every purity fixture shares.
_SPEC = {
    "ops/__init__.py": "from .spec import Operation\n",
    "ops/spec.py": (
        "class Operation:\n"
        "    def __init__(self, name, help, handler, pure=False):\n"
        "        self.name = name\n"
    ),
}


class TestNodeIndex:
    def test_nodes_follow_ast_walk_order_on_the_package(self):
        # Rules that take "the first match" (R5's mutation line, R8's
        # store line) rely on the index reproducing ast.walk exactly.
        for path in sorted(package_root().rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert list(NodeIndex(tree).nodes) == list(ast.walk(tree))

    def test_of_type_buckets_exact_types_in_walk_order(self):
        module = ModuleInfo(
            "import a\n"
            "def f():\n"
            "    from b import c\n"
            "    return g(h(1))\n"
            "import d\n",
            "x.py",
        )
        calls = module.index.of_type(ast.Call)
        assert [call.func.id for call in calls] == ["g", "h"]
        imports = module.index.of_type(ast.Import, ast.ImportFrom)
        assert [type(node).__name__ for node in imports] == [
            "Import",
            "Import",
            "ImportFrom",
        ]
        assert module.index.of_type(ast.While) == []

    def test_index_of_memoises_per_subtree(self):
        module = ModuleInfo("def f():\n    return g()\n", "x.py")
        function = module.tree.body[0]
        assert module.index_of(function) is module.index_of(function)
        assert module.index_of(function).nodes[0] is function


class TestProjectGraph:
    def test_module_dotted(self):
        assert module_dotted("ops/catalog.py") == "repro.ops.catalog"
        assert module_dotted("ops/__init__.py") == "repro.ops"
        assert module_dotted("__init__.py") == "repro"

    def project(self):
        modules = [
            ModuleInfo(
                "from .renderers import render\n",
                "tables/__init__.py",
            ),
            ModuleInfo(
                "def render(layout):\n    return str(layout)\n",
                "tables/renderers.py",
            ),
            ModuleInfo(
                "from ..tables import render\n"
                "import pathlib\n"
                "class Report:\n"
                "    def build(self):\n"
                "        return self.fetch()\n"
                "    def fetch(self):\n"
                "        return render(1)\n"
                "def make():\n"
                "    r = Report()\n"
                "    text = r.build()\n"
                "    return pathlib.Path(text).read_text()\n",
                "reporting/report.py",
            ),
        ]
        return Project(modules)

    def test_symbol_table_and_reexport_resolution(self):
        project = self.project()
        assert "repro.tables.renderers.render" in project.functions
        # The __init__ re-export chases to the defining function.
        symbol = project.resolve("repro.tables.render")
        assert symbol is not None
        assert symbol.qualname == "repro.tables.renderers.render"
        assert (
            project.canonical("repro.tables.render")
            == "repro.tables.renderers.render"
        )

    def test_call_graph_self_and_local_inference(self):
        project = self.project()
        build = project.functions["repro.reporting.report.Report.build"]
        assert ("repro.reporting.report.Report.fetch", 5) in (
            project.callees(build)
        )
        make = project.functions["repro.reporting.report.make"]
        targets = {dotted for dotted, _ in project.callees(make)}
        # r = Report(); r.build() resolves through local inference,
        # and pathlib.Path(...).read_text() through the call chain.
        assert "repro.reporting.report.Report.build" in targets
        assert "pathlib.Path.read_text" in targets

    def test_import_graph(self):
        project = self.project()
        assert project.imports("reporting/report.py") == {
            "tables/__init__.py"
        }
        assert (
            "reporting/report.py" in project.import_graph()
        )


class TestR8Purity:
    def test_transitive_effect_flagged(self, tmp_path):
        build_tree(
            tmp_path,
            {
                **_SPEC,
                "ops/catalog.py": (
                    "from .spec import Operation\n"
                    "from .helpers import compute\n"
                    "def _run_stats(request):\n"
                    "    return compute(request)\n"
                    "REGISTRY = (Operation(name='stats', help='x',"
                    " handler=_run_stats, pure=True),)\n"
                ),
                "ops/helpers.py": (
                    "import time\n"
                    "def compute(request):\n"
                    "    return time.time()\n"
                ),
            },
        )
        findings = lint_tree(tmp_path)
        assert [f.rule_id for f in findings] == ["R8"]
        assert "clock read" in findings[0].message
        assert "'stats'" in findings[0].message
        assert findings[0].path.endswith("ops/helpers.py")

    @pytest.mark.parametrize(
        ("body", "effect"),
        [
            ("import random\ndef compute(r):\n"
             "    return random.random()\n", "global-RNG draw"),
            ("import uuid\ndef compute(r):\n"
             "    return uuid.uuid4()\n", "randomness"),
            ("import os\ndef compute(r):\n"
             "    return os.environ['HOME']\n", "environment access"),
            ("def compute(r):\n"
             "    return open(r).read()\n", "filesystem access"),
            ("import urllib.request\ndef compute(r):\n"
             "    return urllib.request.urlopen(r)\n",
             "network access"),
            ("_SEEN = {}\ndef compute(r):\n"
             "    _SEEN[r] = True\n    return r\n",
             "module-state mutation"),
        ],
    )
    def test_effect_classes(self, tmp_path, body, effect):
        build_tree(
            tmp_path,
            {
                **_SPEC,
                "ops/catalog.py": (
                    "from .spec import Operation\n"
                    "from .helpers import compute\n"
                    "REGISTRY = (Operation(name='op', help='x',"
                    " handler=compute, pure=True),)\n"
                ),
                "ops/helpers.py": body,
            },
        )
        findings = lint_tree(tmp_path)
        assert [f.rule_id for f in findings] == ["R8"]
        assert effect in findings[0].message

    def test_memo_idiom_allowed(self, tmp_path):
        build_tree(
            tmp_path,
            {
                **_SPEC,
                "ops/catalog.py": (
                    "from .spec import Operation\n"
                    "_REGISTRY = None\n"
                    "def registry():\n"
                    "    global _REGISTRY\n"
                    "    if _REGISTRY is None:\n"
                    "        _REGISTRY = {'a': 1}\n"
                    "    return _REGISTRY\n"
                    "OPS = (Operation(name='op', help='x',"
                    " handler=registry, pure=True),)\n"
                ),
            },
        )
        assert lint_tree(tmp_path) == []

    def test_pure_false_not_walked(self, tmp_path):
        build_tree(
            tmp_path,
            {
                **_SPEC,
                "ops/catalog.py": (
                    "import time\n"
                    "from .spec import Operation\n"
                    "def _run(request):\n"
                    "    return time.time()\n"
                    "OPS = (Operation(name='op', help='x',"
                    " handler=_run),)\n"
                ),
            },
        )
        assert lint_tree(tmp_path) == []

    def test_unresolvable_handler_flagged(self, tmp_path):
        build_tree(
            tmp_path,
            {
                **_SPEC,
                "ops/catalog.py": (
                    "from .spec import Operation\n"
                    "def make():\n"
                    "    def inner(request):\n"
                    "        return request\n"
                    "    return inner\n"
                    "OPS = (Operation(name='op', help='x',"
                    " handler=make(), pure=True),)\n"
                ),
            },
        )
        findings = lint_tree(tmp_path)
        assert [f.rule_id for f in findings] == ["R8"]
        assert "cannot be verified" in findings[0].message

    def test_reexported_operation_name_matches(self, tmp_path):
        # Declaring through the package re-export (from .ops import
        # Operation) must resolve to the same canonical constructor.
        build_tree(
            tmp_path,
            {
                **_SPEC,
                "catalog.py": (
                    "import time\n"
                    "from .ops import Operation\n"
                    "def _run(request):\n"
                    "    return time.time()\n"
                    "OPS = (Operation(name='op', help='x',"
                    " handler=_run, pure=True),)\n"
                ),
            },
        )
        findings = lint_tree(tmp_path)
        assert [f.rule_id for f in findings] == ["R8"]


class TestR9WorkerSafety:
    def submit_tree(self, call: str) -> dict:
        return {
            "pipeline/core.py": (
                "import functools\n"
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def _worker(item):\n"
                "    return item\n"
                "def _tainted(item, acc=[]):\n"
                "    return item\n"
                "class Runner:\n"
                "    def go(self, items):\n"
                "        with ProcessPoolExecutor() as pool:\n"
                f"            out = {call}\n"
                "        return out\n"
            ),
        }

    @pytest.mark.parametrize(
        ("call", "fragment"),
        [
            ("pool.submit(lambda: 1)", "lambda"),
            ("pool.submit(self.go, items)", "bound method"),
            ("pool.map(_tainted, items)", "mutable default"),
            ("pool.submit(_worker, lambda x: x)",
             "pool-call argument"),
            ("pool.submit(make_worker())", "result of a call"),
        ],
    )
    def test_unsafe_submissions_flagged(
        self, tmp_path, call, fragment
    ):
        build_tree(tmp_path, self.submit_tree(call))
        findings = lint_tree(tmp_path)
        assert {f.rule_id for f in findings} == {"R9"}
        assert any(fragment in f.message for f in findings)

    def test_nested_function_flagged(self, tmp_path):
        build_tree(
            tmp_path,
            {
                "pipeline/core.py": (
                    "from concurrent.futures import "
                    "ProcessPoolExecutor\n"
                    "def run(items):\n"
                    "    def local(x):\n"
                    "        return x\n"
                    "    with ProcessPoolExecutor() as pool:\n"
                    "        return pool.submit(local, items)\n"
                ),
            },
        )
        findings = lint_tree(tmp_path)
        assert [f.rule_id for f in findings] == ["R9"]
        assert "module-level function" in findings[0].message

    @pytest.mark.parametrize(
        "call",
        [
            "pool.submit(_worker, items)",
            "pool.map(_worker, items)",
            "pool.submit(functools.partial(_worker, 1))",
            "pool.submit(str, items)",
        ],
    )
    def test_safe_submissions_pass(self, tmp_path, call):
        build_tree(tmp_path, self.submit_tree(call))
        assert lint_tree(tmp_path) == []

    def test_thread_pools_exempt(self, tmp_path):
        build_tree(
            tmp_path,
            {
                "pipeline/core.py": (
                    "from concurrent.futures import "
                    "ThreadPoolExecutor\n"
                    "def run(items):\n"
                    "    with ThreadPoolExecutor() as pool:\n"
                    "        return pool.submit(lambda: 1)\n"
                ),
            },
        )
        assert lint_tree(tmp_path) == []

    @pytest.mark.parametrize(
        ("call", "fragment"),
        [
            ("self.pool.map_ordered(lambda x: x, jobs, window=2)",
             "lambda"),
            ("pool.map_ordered(_local, jobs, window=2)",
             "module-level function"),
            (None, None),
        ],
    )
    def test_warm_pool_map_ordered_audited_on_any_receiver(
        self, tmp_path, call, fragment
    ):
        """The warm pool is a parameter or attribute, never a
        tracked executor name, yet its tasks are still audited."""
        call = call or "pool.map_ordered(_worker, jobs, window=2)"
        build_tree(
            tmp_path,
            {
                "ops/runner.py": (
                    "def _worker(item):\n"
                    "    return item\n"
                    "def run(self, pool, jobs):\n"
                    "    def _local(item):\n"
                    "        return item\n"
                    f"    return {call}\n"
                ),
            },
        )
        findings = lint_tree(tmp_path)
        if fragment is None:
            assert findings == []
        else:
            assert [f.rule_id for f in findings] == ["R9"]
            assert fragment in findings[0].message
