"""Unit tests for the shared helper utilities."""

from __future__ import annotations

import ast
import json
import pathlib

import pytest
from hypothesis import given, strategies as st

from repro._util import (
    blake2b_hex,
    canonical_json,
    clamp,
    ensure_unique,
    oxford_join,
    percent,
    slugify,
    wrap_text,
)


class TestSlugify:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Computer Misuse", "computer-misuse"),
            ("  Anthropology & Transparency ", "anthropology-transparency"),
            ("REB approval", "reb-approval"),
            ("already-a-slug", "already-a-slug"),
            ("Ünïcödé Náme", "unicode-name"),
        ],
    )
    def test_examples(self, text, expected):
        assert slugify(text) == expected

    @given(st.text(max_size=60))
    def test_idempotent(self, text):
        once = slugify(text)
        assert slugify(once) == once

    @given(st.text(max_size=60))
    def test_output_alphabet(self, text):
        slug = slugify(text)
        assert all(c.isascii() and (c.isalnum() or c == "-") for c in slug)


class TestEnsureUnique:
    def test_passes_unique(self):
        assert ensure_unique([1, 2, 3]) == [1, 2, 3]

    def test_raises_on_duplicate(self):
        with pytest.raises(ValueError, match="duplicate widget"):
            ensure_unique([1, 1], "widget")


class TestWrapText:
    def test_respects_width(self):
        lines = wrap_text("a " * 50, width=20)
        assert all(len(line) <= 20 for line in lines)

    def test_indent_applied_and_counted(self):
        lines = wrap_text("word " * 20, width=20, indent="  ")
        assert all(line.startswith("  ") for line in lines)
        assert all(len(line) <= 20 for line in lines)

    def test_long_word_on_own_line(self):
        lines = wrap_text("short " + "x" * 40, width=20)
        assert "x" * 40 in lines

    def test_empty_text(self):
        assert wrap_text("", width=20) == [""]

    def test_width_must_exceed_indent(self):
        with pytest.raises(ValueError):
            wrap_text("x", width=2, indent="    ")

    @given(st.text(alphabet="abc def", max_size=200))
    def test_content_preserved(self, text):
        lines = wrap_text(text, width=15)
        assert " ".join(" ".join(lines).split()) == " ".join(
            text.split()
        )


class TestOxfordJoin:
    @pytest.mark.parametrize(
        "parts,expected",
        [
            ([], ""),
            (["a"], "a"),
            (["a", "b"], "a and b"),
            (["a", "b", "c"], "a, b, and c"),
        ],
    )
    def test_examples(self, parts, expected):
        assert oxford_join(parts) == expected

    def test_conjunction(self):
        assert oxford_join(["a", "b", "c"], conjunction="or") == (
            "a, b, or c"
        )

    def test_empty_parts_dropped(self):
        assert oxford_join(["a", "", "b"]) == "a and b"


class TestNumericHelpers:
    def test_percent(self):
        assert percent(1, 4) == 25.0
        assert percent(3, 0) == 0.0

    def test_clamp(self):
        assert clamp(5, 0, 3) == 3
        assert clamp(-1, 0, 3) == 0
        assert clamp(2, 0, 3) == 2

    def test_clamp_bad_bounds(self):
        with pytest.raises(ValueError):
            clamp(1, 3, 0)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=20,
)


def _literal(node: ast.AST) -> object:
    """The value of a literal expression, ``None`` for anything else."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


class TestCanonicalJson:
    @given(_JSON_VALUES)
    def test_matches_compact_sorted_dumps(self, value):
        assert canonical_json(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":")
        )

    def test_digest(self):
        assert blake2b_hex("", 16) == "cae66941d9efbd404e4d88758ea67670"
        assert len(blake2b_hex(canonical_json({"a": 1}), 32)) == 64

    def test_only_util_spells_compact_json(self):
        """No module but ``_util`` passes compact separators to json.

        A second spelling of canonical JSON could drift from the one
        every digest, chain and cache key depends on.
        """
        package = (
            pathlib.Path(__file__).resolve().parent.parent
            / "src"
            / "repro"
        )
        offenders = []
        for path in sorted(package.rglob("*.py")):
            if path.name == "_util.py" and path.parent == package:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = (
                    node.func.attr
                    if isinstance(node.func, ast.Attribute)
                    else getattr(node.func, "id", "")
                )
                if name not in ("dumps", "dump", "JSONEncoder"):
                    continue
                for keyword in node.keywords:
                    if keyword.arg == "separators" and (
                        _literal(keyword.value) == (",", ":")
                    ):
                        offenders.append(
                            f"{path.relative_to(package)}:{node.lineno}"
                        )
        assert offenders == []
