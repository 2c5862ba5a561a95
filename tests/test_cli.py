"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_format_choices(self):
        args = build_parser().parse_args(
            ["table1", "--format", "latex"]
        )
        assert args.format == "latex"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--format", "pdf"])


def _subcommands() -> list[list[str]]:
    """Every subcommand invocation path, discovered from the parser.

    Includes nested subcommands (``audit verify`` etc.) so a new
    command or sub-command is covered the moment it is registered.
    """
    import argparse

    paths: list[list[str]] = []

    def walk(parser: argparse.ArgumentParser, prefix: list[str]):
        subactions = [
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        if not subactions:
            if prefix:
                paths.append(prefix)
            return
        for action in subactions:
            for name, child in action.choices.items():
                walk(child, [*prefix, name])

    walk(build_parser(), [])
    return paths


class TestHelp:
    """``--help`` must exit 0 for every (sub)command.

    Regression guard for the argparse crash class where an unescaped
    ``%`` in help text raises at format time — the only moment the
    string is interpolated is when ``--help`` actually renders.
    """

    def test_discovers_nested_commands(self):
        paths = _subcommands()
        assert ["pipeline"] in paths
        assert ["audit", "verify"] in paths
        assert len(paths) >= 14

    @pytest.mark.parametrize(
        "path", _subcommands(), ids=lambda p: " ".join(p)
    )
    def test_help_exits_zero(self, path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*path, "--help"])
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "audit" in capsys.readouterr().out


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Malware & exploitation" in out

    def test_table1_csv(self, capsys):
        assert main(["table1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 31

    def test_stats(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "ethics sections: 12/28" in out

    def test_call_hashes_no_corpus(self, capsys, monkeypatch):
        """A single CLI call runs without a result cache, so it never
        computes the corpus digest a cache key needs."""
        from repro.ops import RunContext

        def hashed(self):
            raise AssertionError("corpus digest computed")

        monkeypatch.setattr(RunContext, "corpus_digest", hashed)
        assert main(["stats"]) == 0
        assert "ethics sections: 12/28" in capsys.readouterr().out

    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_report(self, capsys):
        assert main(["report"]) == 0
        assert "# Reproduction report" in capsys.readouterr().out

    def test_legend(self, capsys):
        assert main(["legend"]) == 0
        assert "P=Privacy" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "kind",
        ["passwords", "booter", "forum", "offshore", "classified",
         "scan"],
    )
    def test_simulate_kinds(self, capsys, kind):
        assert main(["simulate", kind, "--seed", "1"]) == 0
        assert capsys.readouterr().out.strip()

    def test_simulate_deterministic(self, capsys):
        main(["simulate", "booter", "--seed", "5"])
        first = capsys.readouterr().out
        main(["simulate", "booter", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_bibliography_search(self, capsys):
        assert main(["bibliography", "--search", "Menlo"]) == 0
        out = capsys.readouterr().out
        assert "[28]" in out

    def test_bibliography_full(self, capsys):
        assert main(["bibliography"]) == 0
        assert "124 references" in capsys.readouterr().out

    def test_similarity(self, capsys):
        assert main(["similarity", "--threshold", "0.7"]) == 0
        out = capsys.readouterr().out
        assert "clusters at threshold 0.7" in out
        assert "category separation" in out

    def test_simulate_reb(self, capsys):
        assert main(
            ["simulate-reb", "--board", "medical", "--seed", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Legacy medical-model REB" in out
        assert "submissions" in out

    def test_simulate_reb_policy_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate-reb", "--policy", "vibes"]
            )

    def test_evidence(self, capsys):
        assert main(["evidence", "patreon"]) == 0
        out = capsys.readouterr().out
        assert "§4.3.2" in out
        assert "unethical to do so" in out

    def test_evidence_unknown_entry(self, capsys):
        assert main(["evidence", "ghost"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "ghost" in captured.err

    def test_intervals(self, capsys):
        assert main(["intervals"]) == 0
        out = capsys.readouterr().out
        assert "ethics sections: 12/28" in out
        assert "385" in out


class TestErrorMapping:
    """Domain errors become one clean stderr line, never a traceback."""

    def test_lint_unknown_rule_exits_one(self, capsys):
        assert main(["lint", "--select", "R99"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "R99" in captured.err

    def test_batch_missing_file_exits_usage(self, tmp_path, capsys):
        missing = tmp_path / "absent.jsonl"
        assert main(["batch", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read batch file")


class TestOpsParity:
    """CLI stdout is byte-identical to the operation response text.

    The CLI writes ``response.text`` verbatim, so for every
    subcommand the golden form is the kernel's own response — any
    drift between adapter and operation is a parity failure here.
    """

    CASES = [
        ["table1"],
        ["table1", "--format", "csv"],
        ["table1", "--format", "latex"],
        ["table1", "--format", "latex-booktabs"],
        ["report", "render"],
        ["table", "latex"],
        ["table", "latex", "--style", "plain"],
        ["codebook", "merge"],
        ["codebook", "merge", "--strategy", "intersection"],
        ["agreement", "fuzzy"],
        ["agreement", "fuzzy", "--threshold", "0.9"],
        ["stats"],
        ["report"],
        ["legend"],
        ["lint"],
        ["lint", "--format", "json"],
        ["verify"],
        ["evidence", "patreon"],
        ["bibliography"],
        ["bibliography", "--search", "Menlo"],
        ["similarity", "--threshold", "0.7"],
        ["intervals"],
        ["simulate", "booter", "--seed", "5"],
        ["simulate-reb", "--board", "medical", "--seed", "2"],
    ]

    @pytest.mark.parametrize(
        "argv", CASES, ids=lambda argv: " ".join(argv)
    )
    def test_cli_matches_operation_response(self, argv, capsys):
        from repro.ops import execute

        code = main(argv)
        cli_out = capsys.readouterr().out
        args = build_parser().parse_args(argv)
        from repro.ops import default_registry

        operation = default_registry().get(args._operation)
        values = {
            arg.dest: getattr(args, arg.dest)
            for arg in operation.args
        }
        response = execute(operation, values)
        assert cli_out == response.text
        assert code == response.exit_code
