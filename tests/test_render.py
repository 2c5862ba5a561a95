"""Tests for the deterministic report surface.

Covers the static HTML report and the booktabs LaTeX renderer:
structure, self-containedness, byte-for-byte determinism (repeat
runs, the result cache, and batch execution at several worker
counts with identical audit-chain content), balanced LaTeX
environments, and golden-file comparisons with a readable diff on
mismatch.
"""

from __future__ import annotations

import dataclasses
import difflib
import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.ops import ResultCache, RunContext, default_registry, execute
from repro.render import build_report_model, render_html_report
from repro.render.html import _COUNT_LABELS, _SCALAR_LABELS
from repro.tables import build_table1_layout, render_latex_booktabs

GOLDEN_DIR = Path(__file__).parent / "golden"


def _render_op(name: str, values: dict | None = None) -> str:
    context = RunContext(cache=ResultCache())
    registry = default_registry()
    operation = registry.get(name)
    return execute(operation, values or {}, context=context).text


def _assert_matches_golden(rendered: str, filename: str) -> None:
    """Compare against the checked-in bytes; diff on mismatch."""
    golden = (GOLDEN_DIR / filename).read_text(encoding="utf-8")
    if rendered != golden:
        diff = "\n".join(
            difflib.unified_diff(
                golden.splitlines(),
                rendered.splitlines(),
                fromfile=f"golden/{filename}",
                tofile="rendered",
                lineterm="",
            )
        )
        pytest.fail(
            f"rendered output drifted from golden/{filename}; if the "
            f"change is intentional, regenerate the golden file:\n"
            f"{diff}"
        )


class TestReportModel:
    def test_categories_cover_every_entry(self, corpus):
        model = build_report_model(corpus, digest="d" * 32)
        assert sum(c.entries for c in model.categories) == len(corpus)
        assert [c.category for c in model.categories] == [
            "Malware & exploitation",
            "Password dumps",
            "Leaked databases",
            "Classified materials",
            "Financial data",
        ]

    def test_digest_and_checks(self, corpus):
        model = build_report_model(corpus, digest="abc123")
        assert model.corpus_digest == "abc123"
        assert all(check.ok for check in model.checks)
        assert model.statistics.ethics_sections == 12

    def test_breakdown_aggregates(self, corpus):
        model = build_report_model(corpus)
        passwords = next(
            c
            for c in model.categories
            if c.category == "Password dumps"
        )
        assert passwords.entries == len(
            corpus.by_category("Password dumps")
        )
        assert passwords.papers <= passwords.entries
        assert set(passwords.entry_ids) <= set(corpus.entry_ids)
        assert all(
            count > 0 for count in passwords.safeguard_counts.values()
        )

    def test_every_statistic_is_labelled(self, corpus):
        """New §5 statistics cannot silently drop out of the report."""
        model = build_report_model(corpus)
        field_names = {
            field.name
            for field in dataclasses.fields(model.statistics)
        }
        assert field_names == set(_SCALAR_LABELS) | set(_COUNT_LABELS)


class TestHtmlReport:
    def test_self_contained_document(self, corpus):
        model = build_report_model(corpus, digest="f" * 32)
        html = render_html_report(model)
        assert html.startswith("<!DOCTYPE html>")
        assert html.endswith("</html>\n")
        # Self-contained: no scripts, no external fetches.
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html
        assert 'src="' not in html and 'href="' not in html

    def test_embeds_table1_stats_and_digest(self, corpus):
        digest = "0123456789abcdef0123456789abcdef"
        html = render_html_report(
            build_report_model(corpus, digest=digest)
        )
        assert digest in html
        # Table 1 rows and the legend arrive via the shared layout.
        assert "AT&amp;T database" in html
        assert "Legend:" in html
        # Every scalar statistic label and count table is present.
        for label in _SCALAR_LABELS.values():
            assert label.replace("§", "§") in html
        for title in _COUNT_LABELS.values():
            assert title in html
        assert "Per-category breakdown" in html

    def test_render_twice_is_byte_identical(self, corpus):
        model = build_report_model(corpus, digest="e" * 32)
        assert render_html_report(model) == render_html_report(model)

    def test_op_matches_golden(self):
        _assert_matches_golden(
            _render_op("report.render"), "table1-report.html"
        )

    def test_op_repeat_runs_identical(self):
        assert _render_op("report.render") == _render_op(
            "report.render"
        )


class TestLatexBooktabs:
    def test_matches_golden(self):
        _assert_matches_golden(
            _render_op("table.latex"), "table1-booktabs.tex"
        )

    def test_balanced_environments(self, corpus):
        tex = render_latex_booktabs(build_table1_layout(corpus))
        begins = re.findall(r"\\begin\{(\w+\*?)\}", tex)
        ends = re.findall(r"\\end\{(\w+\*?)\}", tex)
        assert begins, "no environments found"
        assert sorted(begins) == sorted(ends)
        # Properly nested, not merely balanced.
        stack: list[str] = []
        for kind, name in re.findall(
            r"\\(begin|end)\{(\w+\*?)\}", tex
        ):
            if kind == "begin":
                stack.append(name)
            else:
                assert stack and stack.pop() == name
        assert not stack

    def test_booktabs_rules_and_spanners(self, corpus):
        tex = render_latex_booktabs(build_table1_layout(corpus))
        assert tex.count(r"\toprule") == 1
        assert tex.count(r"\midrule") == 1
        assert tex.count(r"\bottomrule") == 1
        assert r"\hline" not in tex
        assert r"\cmidrule(lr)" in tex
        assert r"\multicolumn" in tex
        # One \addlinespace between each pair of adjacent categories.
        layout = build_table1_layout(corpus)
        assert tex.count(r"\addlinespace") == (
            len(layout.category_spans()) - 1
        )

    def test_braces_balanced(self, corpus):
        tex = render_latex_booktabs(build_table1_layout(corpus))
        assert tex.count("{") == tex.count("}")

    def test_plain_style_has_no_booktabs(self):
        tex = _render_op("table.latex", {"style": "plain"})
        assert r"\toprule" not in tex
        assert r"\hline" in tex

    def test_table1_format_dispatch_matches(self, corpus):
        assert _render_op(
            "table1", {"format": "latex-booktabs"}
        ) == _render_op("table.latex", {"style": "booktabs"})


def _events(path):
    from repro.observability import read_chain

    events, verification = read_chain(path)
    assert verification.ok, verification.describe()
    return events


def _comparable(events):
    """Audit-event content with the worker count masked out."""
    rows = []
    for event in events:
        detail = {
            k: v for k, v in event.detail.items() if k != "workers"
        }
        rows.append(
            (event.category, event.action, event.subject, detail)
        )
    return rows


class TestBatchDeterminism:
    """The report surface through the batch executor."""

    @pytest.fixture
    def requests_file(self, tmp_path):
        path = tmp_path / "render.jsonl"
        path.write_text(
            '{"op": "report.render"}\n'
            '{"op": "table.latex"}\n'
            '{"op": "report.render"}\n'
            '{"op": "agreement.fuzzy"}\n'
            '{"op": "codebook.merge"}\n',
            encoding="utf-8",
        )
        return path

    def test_byte_identical_across_worker_counts(
        self, requests_file, tmp_path, capsys
    ):
        transcripts: dict[int, str] = {}
        chains: dict[int, list] = {}
        for workers in (1, 2, 4):
            log = tmp_path / f"audit-{workers}.jsonl"
            assert (
                main(
                    [
                        "batch",
                        str(requests_file),
                        "--workers",
                        str(workers),
                        "--audit-log",
                        str(log),
                    ]
                )
                == 0
            )
            transcripts[workers] = capsys.readouterr().out
            chains[workers] = _comparable(_events(log))
        assert transcripts[1] == transcripts[2] == transcripts[4]
        assert chains[1] == chains[2] == chains[4]

    def test_batch_output_matches_direct_render(
        self, requests_file, capsys
    ):
        main(["batch", str(requests_file)])
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert lines[0]["output"] == _render_op("report.render")
        assert lines[0]["output"] == lines[2]["output"]
        assert lines[1]["output"] == _render_op("table.latex")

    def test_result_cache_serves_report(self):
        context = RunContext(cache=ResultCache())
        operation = default_registry().get("report.render")
        first = execute(operation, {}, context=context)
        second = execute(operation, {}, context=context)
        assert first.text == second.text
        assert context.cache.stats()["hits"] >= 1
