"""Package-level tests: version, lazy exports, top-level API."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_eager_exports(self):
        for name in (
            "table1_corpus",
            "paper_codebook",
            "paper_bibliography",
            "Corpus",
            "CellValue",
        ):
            assert hasattr(repro, name)

    def test_lazy_exports_resolve(self):
        assert callable(repro.render_table1)
        assert callable(repro.section5_statistics)
        assert callable(repro.assess_project)
        assert repro.CodingMatrix is not None
        assert repro.ResearchProject is not None

    def test_lazy_export_cached(self):
        first = repro.render_table1
        second = repro.render_table1
        assert first is second

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing

    def test_all_sorted(self):
        assert list(repro.__all__) == sorted(repro.__all__)

    def test_quickstart_docstring_is_true(self):
        # The module docstring's quickstart must actually work.
        corpus = repro.table1_corpus()
        table = repro.render_table1(corpus)
        stats = repro.section5_statistics(corpus)
        assert "Malware & exploitation" in table
        assert stats.ethics_sections == 12


class TestTestCodeStaysOut:
    """Test oracles live under ``tests/``; the package never imports them."""

    def test_no_module_imports_tests(self):
        root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module or ""]
                else:
                    continue
                offenders.extend(
                    f"{path.relative_to(root)}:{node.lineno} {name}"
                    for name in names
                    if name == "tests" or name.startswith("tests.")
                )
        assert offenders == []

    def test_policy_interpreter_is_not_exported(self):
        import repro.policy

        assert "PolicyInterpreter" not in repro.policy.__all__
        assert not hasattr(repro.policy, "PolicyInterpreter")


class TestLatexEscaping:
    @given(
        st.text(
            alphabet="abc&%$#_{}~^\\•✓✗∅ ",
            min_size=1,
            max_size=30,
        )
    )
    def test_no_raw_specials_survive(self, text):
        from repro.tables.renderers import _latex_escape

        escaped = _latex_escape(text)
        # Raw specials must not survive unescaped: after removing all
        # known macro forms there should be no bare & % # or { }.
        stripped = (
            escaped.replace(r"\&", "")
            .replace(r"\%", "")
            .replace(r"\$", "")
            .replace(r"\#", "")
            .replace(r"\_", "")
            .replace(r"\{", "")
            .replace(r"\}", "")
            .replace(r"\textbackslash{}", "")
            .replace(r"\textasciitilde{}", "")
            .replace(r"\textasciicircum{}", "")
            .replace(r"$\bullet$", "")
            .replace(r"\checkmark", "")
            .replace(r"$\times$", "")
            .replace(r"$\emptyset$", "")
        )
        for char in "&%$#_~^\\":
            assert char not in stripped, (text, escaped)

    def test_latex_table_has_no_raw_ampersand_in_cells(self, corpus):
        from repro.tables import render_table1

        latex = render_table1(corpus, "latex")
        for line in latex.splitlines():
            if "AT\\&T" in line:
                break
        else:
            pytest.fail("escaped AT&T row not found")
