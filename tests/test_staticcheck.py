"""Unit tests for the staticcheck policy linter (rules R1-R7).

The interprocedural rules (R8/R9), the node index and the project
graph live in ``test_staticcheck_project.py``; reporter golden output
lives in ``test_staticcheck_reporters.py`` and the engine's own golden
output in ``test_staticcheck_golden.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import StaticCheckError
from repro.staticcheck import (
    BaselineEntry,
    Finding,
    LintEngine,
    ModuleInfo,
    Rule,
    RuleRegistry,
    baseline_drift,
    check_consistency,
    default_registry,
    render_json,
    render_text,
    summarize,
)


def lint(source: str, relpath: str) -> list:
    return LintEngine(default_registry()).lint_source(source, relpath)


def failing(source: str, relpath: str) -> list:
    return [f for f in lint(source, relpath) if not f.suppressed]


def rule_ids(findings) -> set[str]:
    return {f.rule_id for f in findings}


class TestEngine:
    def test_syntax_error_raises(self):
        with pytest.raises(StaticCheckError):
            LintEngine().lint_source("def broken(:", "ethics/x.py")

    def test_registry_rejects_duplicates(self):
        class Dupe(Rule):
            id = "R2"

        with pytest.raises(StaticCheckError):
            default_registry().register(Dupe())

    def test_select_unknown_rule(self):
        with pytest.raises(StaticCheckError):
            default_registry().select(["R99"])

    def test_select_subset(self):
        registry = default_registry().select(["R2", "R3"])
        assert registry.rule_ids == ("R2", "R3")

    def test_import_alias_resolution(self):
        module = ModuleInfo(
            "import datetime\nfrom ..datasets import ForumGenerator\n",
            "reporting/x.py",
        )
        aliases = module.import_aliases()
        assert aliases["datetime"] == "datetime"
        assert aliases["ForumGenerator"] == (
            "repro.datasets.ForumGenerator"
        )


class TestR1SafeguardBoundary:
    def test_raw_import_without_anonymization(self):
        found = failing(
            "from ..datasets import PasswordDumpGenerator\n",
            "reporting/x.py",
        )
        assert rule_ids(found) == {"R1"}
        assert found[0].line == 1

    def test_raw_value_escapes_via_call_and_return(self):
        found = failing(
            "from ..datasets import PasswordDumpGenerator\n"
            "from ..anonymization import TextScrubber\n"
            "def report(seed):\n"
            "    dump = PasswordDumpGenerator(seed).generate()\n"
            "    publish(dump)\n"
            "    return dump\n",
            "reporting/x.py",
        )
        assert [f.line for f in found] == [5, 6]
        assert rule_ids(found) == {"R1"}

    def test_sanitised_flow_is_clean(self):
        assert not failing(
            "from ..datasets import PasswordDumpGenerator\n"
            "from ..anonymization import TextScrubber\n"
            "def report(seed):\n"
            "    dump = PasswordDumpGenerator(seed).generate()\n"
            "    scrubber = TextScrubber()\n"
            "    clean = scrubber.scrub(dump)\n"
            "    publish(clean)\n"
            "    return clean\n",
            "reporting/x.py",
        )

    def test_inline_sanitizer_call_is_clean(self):
        assert not failing(
            "from ..datasets import ForumGenerator\n"
            "from ..anonymization import Pseudonymizer\n"
            "def report(seed):\n"
            "    forum = ForumGenerator(seed).generate()\n"
            "    return publish(Pseudonymizer(forum))\n",
            "reporting/x.py",
        )

    def test_rule_scoped_to_outbound_modules(self):
        source = "from ..datasets import PasswordDumpGenerator\n"
        assert failing(source, "safeguards/sharing.py")
        assert not failing(source, "metrics/guessing.py")
        assert not failing(source, "safeguards/storage.py")


class TestR2Determinism:
    def test_global_rng_flagged(self):
        found = failing(
            "import random\nrandom.choice([1, 2])\n", "datasets/x.py"
        )
        assert rule_ids(found) == {"R2"}

    def test_from_import_flagged(self):
        found = failing(
            "from random import choice\nchoice([1, 2])\n",
            "analysis/x.py",
        )
        assert rule_ids(found) == {"R2"}

    def test_clock_and_uuid_flagged(self):
        found = failing(
            "import datetime\nimport uuid\nimport time\n"
            "datetime.datetime.now()\nuuid.uuid4()\ntime.time()\n",
            "datasets/x.py",
        )
        assert [f.line for f in found] == [4, 5, 6]

    def test_seeded_random_instance_allowed(self):
        assert not failing(
            "import random\nrng = random.Random(7)\nrng.random()\n",
            "datasets/x.py",
        )

    def test_out_of_scope_modules_ignored(self):
        assert not failing(
            "import random\nrandom.random()\n", "reb/simulation.py"
        )


class TestR3PIILiterals:
    def test_realistic_email_flagged(self):
        found = failing('address = "jo.doe@gmail.com"\n', "ethics/x.py")
        assert rule_ids(found) == {"R3"}

    def test_documentation_email_allowed(self):
        assert not failing(
            'a = "jo@example.com"\nb = "jo@mail.example"\n'
            'c = "jo@corp.test"\n',
            "ethics/x.py",
        )

    def test_routable_ip_flagged_reserved_allowed(self):
        found = failing(
            'bad = "8.8.8.8"\ndoc = "198.51.100.7"\n'
            'private = "10.0.0.1"\nloop = "127.0.0.1"\n',
            "datasets/x.py",
        )
        assert [f.line for f in found] == [1]

    def test_routable_ipv6_flagged(self):
        found = failing(
            'bad = "2606:4700::1111"\n'
            'also = "2001:470:1f0b:1000::1"\n',
            "datasets/x.py",
        )
        assert rule_ids(found) == {"R3"}
        assert [f.line for f in found] == [1, 2]

    def test_reserved_ipv6_allowed(self):
        assert not failing(
            'doc = "2001:db8::1"\nloop = "::1"\n'
            'link = "fe80::1"\nula = "fd12:3456:789a::1"\n',
            "datasets/x.py",
        )

    def test_slice_syntax_not_flagged(self):
        # x[1::2] strips to "1::2", a valid global IPv6 address; the
        # slice-shape carve-out must keep plain code unflagged.
        assert not failing(
            "evens = items[::2]\nodds = items[1::2]\n"
            "rev = items[::-1]\nstep = items[2::3]\n",
            "analysis/x.py",
        )

    def test_version_strings_not_flagged(self):
        assert not failing(
            'doi = "10.14746/pp.2016.21.2.11"\nv = "1.2.3"\n',
            "bibliography/x.py",
        )

    def test_phone_number_flagged_555_allowed(self):
        found = failing(
            'a = "call 415-867-5309"\nb = "call 415-555-0123"\n',
            "reb/x.py",
        )
        assert [f.line for f in found] == [1]

    def test_comments_scanned(self):
        found = failing(
            "x = 1  # ask ops@internal.io about this\n", "legal/x.py"
        )
        assert rule_ids(found) == {"R3"}


class _Entry:
    """Minimal corpus-entry stand-in for consistency fixtures."""

    def __init__(self, id, values, code_sets):
        self.id = id
        self.values = values
        self.code_sets = code_sets


class _Stats:
    def __init__(self, **counts):
        self.__dict__.update(counts)


class TestR4Consistency:
    def _codebook(self):
        from repro.codebook import paper_codebook

        return paper_codebook()

    def _complete_stats(self, codebook):
        def members(dim_id):
            return {
                c.abbrev: 0 for c in codebook[dim_id].members
            }

        def group(name):
            return {d.id: 0 for d in codebook.group(name)}

        return _Stats(
            safeguard_counts=members("safeguards"),
            harm_counts=members("harms"),
            benefit_counts=members("benefits"),
            justification_counts=group("justification"),
            ethical_issue_counts=group("ethical"),
            legal_issue_counts=group("legal"),
        )

    def _complete_entry(self, codebook, id="entry-a"):
        values = {
            d.id: d.allowed[0] for d in codebook.closed_dimensions()
        }
        code_sets = {
            d.id: () for d in codebook.open_dimensions()
        }
        return _Entry(id, values, code_sets)

    def test_consistent_data_passes(self):
        codebook = self._codebook()
        findings = check_consistency(
            codebook,
            [self._complete_entry(codebook)],
            self._complete_stats(codebook),
        )
        assert findings == []

    def test_missing_closed_dimension_flagged(self):
        codebook = self._codebook()
        entry = self._complete_entry(codebook)
        del entry.values["computer-misuse"]
        findings = check_consistency(
            codebook, [entry], self._complete_stats(codebook)
        )
        assert any("computer-misuse" in f.message for f in findings)

    def test_orphan_coding_flagged(self):
        codebook = self._codebook()
        entry = self._complete_entry(codebook)
        entry.values["no-such-dimension"] = None
        findings = check_consistency(
            codebook, [entry], self._complete_stats(codebook)
        )
        assert any(
            "no-such-dimension" in f.message for f in findings
        )

    def test_stats_omission_and_orphan_flagged(self):
        codebook = self._codebook()
        stats = self._complete_stats(codebook)
        del stats.safeguard_counts["P"]
        stats.harm_counts["ZZ"] = 1
        findings = check_consistency(
            codebook, [self._complete_entry(codebook)], stats
        )
        messages = "\n".join(f.message for f in findings)
        assert "omits codebook member 'P'" in messages
        assert "orphan key 'ZZ'" in messages
        assert all(
            f.path == "src/repro/analysis/section5.py"
            for f in findings
        )


class TestR5AuditBoundary:
    UNAUDITED = (
        "class Register:\n"
        "    def grant(self, who):\n"
        "        self.holders[who] = True\n"
        "        return who\n"
    )

    def test_unaudited_mutation_flagged(self):
        found = failing(self.UNAUDITED, "safeguards/x.py")
        assert rule_ids(found) == {"R5"}
        assert "Register.grant" in found[0].message
        assert found[0].line == 2

    def test_mutator_call_flagged(self):
        found = failing(
            "class Register:\n"
            "    def grant(self, who):\n"
            "        self._holders.append(who)\n",
            "safeguards/x.py",
        )
        assert rule_ids(found) == {"R5"}

    def test_audit_event_call_passes(self):
        assert not failing(
            "from ..observability import audit_event\n"
            "class Register:\n"
            "    def grant(self, who):\n"
            "        self.holders[who] = True\n"
            "        audit_event('sharing', 'grant', subject=who)\n",
            "safeguards/x.py",
        )

    def test_own_audit_log_attribute_passes(self):
        assert not failing(
            "class Controller:\n"
            "    def grant(self, who):\n"
            "        self._grants.add(who)\n"
            "        self.audit.append(('grant', who))\n",
            "safeguards/x.py",
        )
        assert not failing(
            "class Controller:\n"
            "    def grant(self, who):\n"
            "        self._grants.add(who)\n"
            "        self._trail.event('access', 'grant')\n",
            "safeguards/x.py",
        )

    def test_private_methods_and_reads_ignored(self):
        assert not failing(
            "class Register:\n"
            "    def _rebuild(self):\n"
            "        self.cache = {}\n"
            "    def holders(self):\n"
            "        ordered = sorted(self._holders)\n"
            "        return ordered\n",
            "safeguards/x.py",
        )

    def test_outside_safeguards_ignored(self):
        assert not failing(self.UNAUDITED, "reb/x.py")


class TestR6TelemetryNaming:
    def test_conforming_instrument_names_pass(self):
        assert not failing(
            "def run(registry, tracer):\n"
            "    registry.counter('pipeline.records').inc()\n"
            "    registry.gauge('audit.chain.length').set(1)\n"
            "    registry.histogram('pipeline.run.seconds')\n"
            "    with tracer.span('pipeline.run'):\n"
            "        pass\n",
            "observability/x.py",
        )

    def test_uppercase_instrument_name_flagged(self):
        found = failing(
            "def run(registry):\n"
            "    registry.counter('Pipeline.Records').inc()\n",
            "pipeline/x.py",
        )
        assert rule_ids(found) == {"R6"}
        assert "dotted snake_case" in found[0].message
        assert found[0].line == 2

    def test_hyphenated_span_name_flagged(self):
        found = failing(
            "def run(tracer):\n"
            "    with tracer.span('seal-stage'):\n"
            "        pass\n",
            "pipeline/x.py",
        )
        assert rule_ids(found) == {"R6"}

    def test_fstring_fragments_checked(self):
        assert not failing(
            "def run(registry, name):\n"
            "    registry.histogram(f'span.{name}.seconds')\n",
            "observability/x.py",
        )
        found = failing(
            "def run(registry, name):\n"
            "    registry.histogram(f'Span-{name}.Seconds')\n",
            "observability/x.py",
        )
        assert rule_ids(found) == {"R6"}

    def test_non_string_and_zero_arg_calls_skipped(self):
        # re.Match.span(1) and found.span() are not telemetry.
        assert not failing(
            "def run(match, found):\n"
            "    match.span(1)\n"
            "    found.span()\n",
            "anonymization/x.py",
        )

    def test_variable_names_skipped(self):
        assert not failing(
            "def run(registry, name):\n"
            "    registry.counter(name).inc()\n",
            "pipeline/x.py",
        )

    def test_audit_event_bad_action_flagged(self):
        found = failing(
            "from ..observability import audit_event\n"
            "def run():\n"
            "    audit_event('pipeline', 'Run Started')\n",
            "pipeline/x.py",
        )
        assert rule_ids(found) == {"R6"}
        assert "action" in found[0].message

    def test_audit_event_kebab_action_passes(self):
        assert not failing(
            "from ..observability import audit_event\n"
            "def run(n):\n"
            "    audit_event('pipeline', 'run-started', workers=n)\n",
            "pipeline/x.py",
        )

    def test_package_is_r6_clean(self, repo_lint):
        assert not [
            finding
            for finding in repo_lint(("R6",), with_baseline=False)
            if not finding.suppressed
        ]


class TestR7Layering:
    def test_direct_subsystem_import_flagged(self):
        found = failing(
            "from ..datasets import PasswordDumpGenerator\n",
            "cli/main.py",
        )
        assert rule_ids(found) == {"R7"}
        assert "repro.datasets" in found[0].message

    def test_absolute_import_flagged(self):
        found = failing(
            "import repro.pipeline\n"
            "from repro.analysis import section5_statistics\n",
            "cli/main.py",
        )
        assert [f.line for f in found] == [1, 2]
        assert rule_ids(found) == {"R7"}

    def test_bare_repro_import_flagged(self):
        found = failing("import repro\n", "cli/main.py")
        assert rule_ids(found) == {"R7"}

    def test_ops_and_intra_cli_imports_pass(self):
        assert not failing(
            "import argparse\n"
            "import sys\n"
            "from ..ops import execute\n"
            "from repro.ops import RunContext\n"
            "from .main import build_parser\n",
            "cli/__init__.py",
        )

    def test_scoped_to_cli_modules(self):
        source = "from ..datasets import PasswordDumpGenerator\n"
        assert not failing(source, "ops/catalog.py")
        assert not failing(source, "analysis/x.py")

    def test_relative_grandparent_import_flagged(self):
        found = failing(
            "from .. import errors\n", "cli/main.py"
        )
        assert rule_ids(found) == {"R7"}
        assert "repro.errors" in found[0].message

    def test_package_is_r7_clean(self, repo_lint):
        assert not [
            finding
            for finding in repo_lint(("R7",), with_baseline=False)
            if not finding.suppressed
        ]


class TestSuppression:
    SOURCE = (
        "import random\n"
        "random.random()  # repro: noqa[R2] fixture-only justification\n"
    )

    def test_noqa_marks_suppressed_with_justification(self):
        findings = lint(self.SOURCE, "datasets/x.py")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.suppressed
        assert finding.justification == "fixture-only justification"

    def test_noqa_for_other_rule_does_not_suppress(self):
        findings = lint(
            "import random\nrandom.random()  # repro: noqa[R3]\n",
            "datasets/x.py",
        )
        assert not findings[0].suppressed

    def test_multi_rule_noqa(self):
        findings = lint(
            'import random\nx = random.random()  '
            '# repro: noqa[R2, R3] both\n',
            "datasets/x.py",
        )
        assert findings[0].suppressed


class TestBaseline:
    def _suppressed(self, path="src/repro/datasets/x.py"):
        return Finding(
            rule_id="R2",
            path=path,
            line=3,
            message="m",
            suppressed=True,
            justification="why",
        )

    def test_registered_suppression_no_drift(self):
        entry = BaselineEntry(
            "R2", "src/repro/datasets/x.py", "why"
        )
        assert baseline_drift([self._suppressed()], [entry]) == []

    def test_unregistered_suppression_drifts(self):
        drift = baseline_drift([self._suppressed()], [])
        assert [f.rule_id for f in drift] == ["R0"]
        assert "not registered" in drift[0].message

    def test_stale_entry_drifts(self):
        entry = BaselineEntry(
            "R2", "src/repro/datasets/gone.py", "obsolete"
        )
        drift = baseline_drift([], [entry])
        assert [f.rule_id for f in drift] == ["R0"]
        assert "stale" in drift[0].message


class TestReporters:
    def _findings(self):
        return LintEngine(default_registry()).lint_source(
            "import random\nrandom.random()\n"
            "random.choice([1])  # repro: noqa[R2] demo\n",
            "datasets/x.py",
        )

    def test_json_one_object_per_finding(self):
        findings = self._findings()
        lines = render_json(findings).splitlines()
        assert len(lines) == len(findings) == 2
        for line, finding in zip(lines, findings):
            record = json.loads(line)
            assert record["rule"] == "R2"
            assert record["path"] == "datasets/x.py"
            assert isinstance(record["line"], int)
            assert record["message"]
            assert set(record) == {
                "rule",
                "path",
                "line",
                "message",
                "suppressed",
                "justification",
            }

    def test_text_report_and_summary(self):
        findings = self._findings()
        text = render_text(findings)
        assert "datasets/x.py:2: [R2]" in text
        assert summarize(findings) == (
            "2 finding(s): 1 failing, 1 suppressed"
        )


class TestCLI:
    def test_lint_clean_repo_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["lint"]) == 0
        assert "0 failing" in capsys.readouterr().out

    def test_lint_json_format(self, capsys):
        from repro.cli import main

        assert main(["lint", "--format", "json"]) == 0

    def test_lint_select(self, capsys):
        from repro.cli import main

        assert main(["lint", "--select", "R2,R3"]) == 0

    def test_lint_select_unknown_rule_exits_one(self, capsys):
        from repro.cli import main

        # R42 does not exist (R9 does, since the worker-safety rule).
        assert main(["lint", "--select", "R42"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "R42" in err

    def test_verify_includes_lint_gate(self, capsys):
        from repro.cli import main

        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "SC: static policy lint" in out

    def _violating_tree(self, tmp_path):
        (tmp_path / "datasets").mkdir()
        (tmp_path / "datasets" / "bad.py").write_text(
            "import random\nrandom.random()\n"
        )
        return tmp_path

    def test_lint_path_violating_fixture_exits_one(
        self, capsys, tmp_path
    ):
        from repro.cli import main

        self._violating_tree(tmp_path)
        assert main(["lint", "--path", str(tmp_path)]) == 1
        assert "[R2]" in capsys.readouterr().out

    def test_lint_path_json_schema(self, capsys, tmp_path):
        from repro.cli import main

        self._violating_tree(tmp_path)
        code = main(
            ["lint", "--path", str(tmp_path), "--format", "json"]
        )
        assert code == 1
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["rule"] == "R2"
        assert record["path"].endswith("datasets/bad.py")
        assert record["line"] == 2
        assert record["message"]

    def test_lint_path_select_excludes_rule(self, capsys, tmp_path):
        from repro.cli import main

        self._violating_tree(tmp_path)
        assert (
            main(["lint", "--path", str(tmp_path), "--select", "R3"])
            == 0
        )
