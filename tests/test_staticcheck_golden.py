"""Golden output of the lint engine itself over a fixture tree.

The reporter goldens (``test_staticcheck_reporters.py``) render
hand-built findings; this test pins what :meth:`LintEngine.lint_package`
*emits* for a small tree mirroring the package layout, through
``render_json``. Every per-module and interprocedural rule except R4
(which audits the real package data, pinned by the self-lint test)
fires at least once; one line carries two findings (R2 and R3) and
one finding is ``noqa``-suppressed. Any change to the engine's walk,
dispatch, suppression or ordering shows up here byte for byte.
"""

from __future__ import annotations

from pathlib import Path

from repro.staticcheck import (
    LintEngine,
    default_registry,
    render_json,
)

#: Package-relative path → source, reusing the per-rule fixtures of
#: ``test_staticcheck.py`` and ``test_staticcheck_project.py``.
TREE = {
    "reporting/raw.py": (
        "from ..datasets import PasswordDumpGenerator\n"
    ),
    "reporting/flow.py": (
        "from ..datasets import PasswordDumpGenerator\n"
        "from ..anonymization import TextScrubber\n"
        "def report(seed):\n"
        "    dump = PasswordDumpGenerator(seed).generate()\n"
        "    publish(dump)\n"
        "    return dump\n"
    ),
    "datasets/gen.py": (
        "import random\n"
        "import time\n"
        "def draw():\n"
        "    stamp = time.time()\n"
        "    host = random.choice(['8.8.8.8'])\n"
        "    return random.random()  "
        "# repro: noqa[R2] fixture-only justification\n"
    ),
    "ethics/contact.py": 'address = "jo.doe@gmail.com"\n',
    "safeguards/register.py": (
        "class Register:\n"
        "    def grant(self, who):\n"
        "        self.holders[who] = True\n"
        "        return who\n"
    ),
    "pipeline/metrics.py": (
        "def run(registry):\n"
        "    registry.counter('Pipeline.Records').inc()\n"
    ),
    "cli/main.py": "from ..datasets import PasswordDumpGenerator\n",
    "ops/__init__.py": "from .spec import Operation\n",
    "ops/spec.py": (
        "class Operation:\n"
        "    def __init__(self, name, help, handler, pure=False):\n"
        "        self.name = name\n"
    ),
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
    "pipeline/core.py": (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def _tainted(item, acc=[]):\n"
        "    return item\n"
        "class Runner:\n"
        "    def go(self, items):\n"
        "        with ProcessPoolExecutor() as pool:\n"
        "            out = pool.submit(lambda: 1)\n"
        "            more = pool.map(_tainted, items)\n"
        "        return out, more\n"
    ),
    "analysis/issues.py": (
        'ISSUES = ("computer-misuse", "beneficence")\n'
    ),
}

GOLDEN = r"""{"justification": "", "line": 1, "message": "legal-issue literal 'computer-misuse' outside the policy pack data; import the vocabulary from repro.policy.defaults (or the MenloPrinciple enum) so packs stay the single source of truth", "path": "pkg/analysis/issues.py", "rule": "R10", "suppressed": false}
{"justification": "", "line": 1, "message": "Menlo-principle literal 'beneficence' outside the policy pack data; import the vocabulary from repro.policy.defaults (or the MenloPrinciple enum) so packs stay the single source of truth", "path": "pkg/analysis/issues.py", "rule": "R10", "suppressed": false}
{"justification": "", "line": 1, "message": "cli module imports 'repro.datasets.PasswordDumpGenerator' directly; route through the repro.ops service kernel (register an operation) so the CLI stays a thin adapter", "path": "pkg/cli/main.py", "rule": "R7", "suppressed": false}
{"justification": "", "line": 4, "message": "nondeterministic call time.time() \u2014 the synthetic substrate must be a function of its seed", "path": "pkg/datasets/gen.py", "rule": "R2", "suppressed": false}
{"justification": "", "line": 5, "message": "global-RNG call random.choice() \u2014 use an explicit random.Random(seed) instance", "path": "pkg/datasets/gen.py", "rule": "R2", "suppressed": false}
{"justification": "", "line": 5, "message": "globally-routable IPv4 literal '8.8.8.8'; use RFC 5737 documentation or RFC 1918 private ranges", "path": "pkg/datasets/gen.py", "rule": "R3", "suppressed": false}
{"justification": "fixture-only justification", "line": 6, "message": "global-RNG call random.random() \u2014 use an explicit random.Random(seed) instance", "path": "pkg/datasets/gen.py", "rule": "R2", "suppressed": true}
{"justification": "", "line": 1, "message": "email-shaped literal 'jo.doe@gmail.com' outside the RFC 2606 documentation domains", "path": "pkg/ethics/contact.py", "rule": "R3", "suppressed": false}
{"justification": "", "line": 3, "message": "operation(s) 'stats' declared pure=True reach clock read (time.time()) via _run_stats \u2192 compute; a pure result is cached and replayed, so this effect makes the ResultCache serve stale bytes", "path": "pkg/ops/helpers.py", "rule": "R8", "suppressed": false}
{"justification": "", "line": 7, "message": "a lambda cannot be pickled; submit a module-level function instead", "path": "pkg/pipeline/core.py", "rule": "R9", "suppressed": false}
{"justification": "", "line": 8, "message": "worker function _tainted has a mutable default argument \u2014 per-process shared state masquerading as a parameter", "path": "pkg/pipeline/core.py", "rule": "R9", "suppressed": false}
{"justification": "", "line": 2, "message": "instrument name 'Pipeline.Records' is not dotted snake_case (e.g. 'pipeline.run.seconds') \u2014 exporters flatten dots; mixed case or hyphens collide and break grep", "path": "pkg/pipeline/metrics.py", "rule": "R6", "suppressed": false}
{"justification": "", "line": 5, "message": "raw dataset-derived value reaches publish() without passing through an anonymization function", "path": "pkg/reporting/flow.py", "rule": "R1", "suppressed": false}
{"justification": "", "line": 6, "message": "returns a raw dataset-derived value without routing it through an anonymization function", "path": "pkg/reporting/flow.py", "rule": "R1", "suppressed": false}
{"justification": "", "line": 1, "message": "outbound module imports raw dataset constructors but nothing from anonymization \u2014 records cannot be sanitised here", "path": "pkg/reporting/raw.py", "rule": "R1", "suppressed": false}
{"justification": "", "line": 2, "message": "Register.grant mutates safeguard state (line 3) without emitting an audit event \u2014 call repro.observability.audit_event so the change is inspectable", "path": "pkg/safeguards/register.py", "rule": "R5", "suppressed": false}"""


def test_engine_output_over_fixture_tree(tmp_path, monkeypatch):
    for relpath, source in TREE.items():
        target = tmp_path / "pkg" / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    findings = LintEngine(default_registry()).lint_package(Path("pkg"))
    assert render_json(findings) == GOLDEN
