"""Tests for the declarative policy knowledge base.

Covers the pack model (validation failures → typed PolicyError →
exit 2 through the CLI failure table), the compiled/interpreted
differential (the decision tables must be semantics-preserving for
*any* valid pack, not just the default), pack-scoped result caching
(hot-swap without restart), batch byte-identity across worker
counts, the rank-map ``worst()`` folds, the synthetic project
generator and the R10 policy-literals lint rule.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.assessment import Verdict, assess_with_policy
from repro.cli import main
from repro.datasets import ResearchProjectGenerator, synthetic_project
from repro.errors import (
    AssessmentError,
    EthicsModelError,
    LegalModelError,
    PolicyError,
)
from repro.ethics.menlo import FindingStatus
from repro.legal import (
    JurisdictionSet,
    RiskLevel,
    analyze_legal,
)
from repro.ops import ResultCache, RunContext, execute
from repro.policy import (
    DEFAULT_PACK,
    PRECAUTIONARY_PACK,
    PolicyPack,
    bundled_pack_names,
    compiled_policy,
    default_policy,
    pack_digest,
    resolve_pack,
    validate_pack,
)
from tests.policy_oracle import PolicyInterpreter


def _mutated(mutate) -> dict:
    """A deep copy of the default pack with *mutate* applied."""
    pack = copy.deepcopy(DEFAULT_PACK)
    mutate(pack)
    return pack


class TestPackValidation:
    def test_default_packs_validate(self):
        validate_pack(DEFAULT_PACK)
        validate_pack(PRECAUTIONARY_PACK)

    def test_unknown_fact_name(self):
        pack = _mutated(
            lambda p: p["facts"]["derived"].append(
                {"name": "broken", "any": ["no_such_fact"]}
            )
        )
        with pytest.raises(PolicyError, match="unknown fact name"):
            validate_pack(pack)

    def test_cyclic_rule_dependency(self):
        def mutate(pack):
            pack["facts"]["derived"].extend(
                (
                    {"name": "cycle_a", "any": ["cycle_b"]},
                    {"name": "cycle_b", "any": ["cycle_a"]},
                )
            )

        with pytest.raises(PolicyError, match="cyclic"):
            validate_pack(_mutated(mutate))

    def test_duplicate_issue_id(self):
        pack = _mutated(
            lambda p: p["legal"]["issues"].append(
                copy.deepcopy(p["legal"]["issues"][0])
            )
        )
        with pytest.raises(
            PolicyError, match="duplicate legal issue id"
        ):
            validate_pack(pack)

    def test_last_row_must_be_unconditional(self):
        def mutate(pack):
            pack["legal"]["issues"][0]["rows"][-1]["when"] = {
                "classified": True
            }

        with pytest.raises(PolicyError):
            validate_pack(_mutated(mutate))

    def test_malformed_pack_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(PolicyError):
            resolve_pack(str(path))

    def test_non_dict_pack_file(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(PolicyError):
            resolve_pack(str(path))

    def test_unknown_bundled_name(self):
        with pytest.raises(
            PolicyError, match="unknown policy pack"
        ):
            resolve_pack("no-such-pack")


class TestPolicyErrorExitCode:
    """Every pack failure maps to exit 2 via the failure table."""

    def test_malformed_pack_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        status = main(
            ["policy", "validate", "--pack", str(path)]
        )
        assert status == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_pack_exits_2(self, capsys):
        status = main(
            ["policy", "assess", "--pack", "no-such-pack"]
        )
        assert status == 2
        err = capsys.readouterr().err
        assert "unknown policy pack" in err

    def test_invalid_pack_data_exits_2(self, tmp_path, capsys):
        pack = _mutated(
            lambda p: p["legal"]["issues"].append(
                copy.deepcopy(p["legal"]["issues"][0])
            )
        )
        path = tmp_path / "dupe.json"
        path.write_text(json.dumps(pack), encoding="utf-8")
        status = main(["policy", "show", "--pack", str(path)])
        assert status == 2
        assert "duplicate legal issue id" in capsys.readouterr().err


class TestDigests:
    def test_digest_is_content_addressed(self):
        assert pack_digest(DEFAULT_PACK) == pack_digest(
            copy.deepcopy(DEFAULT_PACK)
        )
        assert pack_digest(DEFAULT_PACK) != pack_digest(
            PRECAUTIONARY_PACK
        )

    def test_bundled_names(self):
        assert bundled_pack_names() == ("default", "precautionary")

    def test_compiled_policy_memoizes_by_digest(self):
        assert compiled_policy("default") is compiled_policy(None)
        assert (
            compiled_policy("precautionary")
            is compiled_policy("precautionary")
        )


class TestCompiledInterpreterParity:
    """The decision tables must match the reference interpreter."""

    def test_legal_reports_match_over_corpus(self):
        from repro.assessment import corpus_profiles

        compiled = default_policy()
        interp = PolicyInterpreter(
            PolicyPack.from_data(DEFAULT_PACK)
        )
        jurisdiction_sets = (
            JurisdictionSet.from_codes(["US"]),
            JurisdictionSet.from_codes(["UK", "DE"]),
            JurisdictionSet.from_codes(["US", "UK", "DE", "EU"]),
        )
        for profile in corpus_profiles().values():
            for jurisdictions in jurisdiction_sets:
                for reb in (False, True):
                    assert compiled.legal_report(
                        profile, jurisdictions, reb_approved=reb
                    ) == interp.legal_report(
                        profile, jurisdictions, reb_approved=reb
                    )

    def test_full_assessments_match_over_synthetic_projects(self):
        compiled = default_policy()
        interp = PolicyInterpreter(
            PolicyPack.from_data(DEFAULT_PACK)
        )
        for project in ResearchProjectGenerator(11).generate(40):
            a = assess_with_policy(project, compiled)
            b = assess_with_policy(project, interp)
            assert a.verdict == b.verdict
            assert a.legal == b.legal
            assert a.menlo == b.menlo
            assert a.required_actions == b.required_actions
            assert a.notes == b.notes

    def test_precautionary_pack_matches_too(self):
        compiled = compiled_policy("precautionary")
        interp = PolicyInterpreter(
            PolicyPack.from_data(PRECAUTIONARY_PACK)
        )
        for project in ResearchProjectGenerator(13).generate(20):
            a = assess_with_policy(project, compiled)
            b = assess_with_policy(project, interp)
            assert a.verdict == b.verdict
            assert a.required_actions == b.required_actions

    def test_analyze_legal_runs_on_compiled_default(self):
        from repro.assessment import profile_for

        profile = profile_for("att-ipad")
        jurisdictions = JurisdictionSet.from_codes(["US"])
        assert analyze_legal(
            profile, jurisdictions
        ) == default_policy().legal_report(profile, jurisdictions)


class TestPackScopedCache:
    """Pack digests feed the result cache key (hot-swap)."""

    def test_hot_swap_invalidates_without_restart(self, tmp_path):
        ctx = RunContext(cache=ResultCache(64))
        path = tmp_path / "pack.json"
        path.write_text(json.dumps(DEFAULT_PACK), encoding="utf-8")
        values = {"pack": str(path), "seed": 5}
        first = execute("policy.assess", values, context=ctx)
        execute("policy.assess", values, context=ctx)
        assert ctx.cache.hits == 1

        path.write_text(
            json.dumps(PRECAUTIONARY_PACK), encoding="utf-8"
        )
        swapped = execute("policy.assess", values, context=ctx)
        assert ctx.cache.hits == 1  # new digest → miss, not stale hit
        assert (
            first.payload["pack"]["digest"]
            != swapped.payload["pack"]["digest"]
        )

    def test_hot_swap_on_warm_pool(self, tmp_path):
        """Workers serve under the coordinator's key, which tracks
        the pack file: an edit is a miss everywhere, never stale."""
        from repro.ops import (
            BatchExecutor,
            load_requests,
            shutdown_warm_pools,
        )

        path = tmp_path / "pack.json"
        path.write_text(json.dumps(DEFAULT_PACK), encoding="utf-8")
        requests_path = tmp_path / "requests.jsonl"
        requests_path.write_text(
            "".join(
                json.dumps(
                    {
                        "op": "policy.assess",
                        "args": {"pack": str(path), "seed": seed},
                    }
                )
                + "\n"
                for seed in (5, 6, 5)
            ),
            encoding="utf-8",
        )
        requests = load_requests(requests_path)
        executor = BatchExecutor(workers=2, warm=True, chunk_size=1)

        def pack_digests(result) -> set[str]:
            assert all(line["ok"] for line in result.lines)
            return {
                line["payload"]["pack"]["digest"]
                for line in result.lines
            }

        try:
            first = executor.run(requests)
            assert first.summary["cache"]["hits"] == 1  # the repeat
            again = executor.run(requests)
            assert again.summary["cache"]["hits"] == 3
            assert again.text() == first.text()

            path.write_text(
                json.dumps(PRECAUTIONARY_PACK), encoding="utf-8"
            )
            swapped = executor.run(requests)
        finally:
            shutdown_warm_pools()
        assert swapped.summary["cache"]["misses"] == 2
        assert swapped.summary["cache"]["hits"] == 1
        assert pack_digests(first) == {pack_digest(DEFAULT_PACK)}
        assert pack_digests(swapped) == {pack_digest(PRECAUTIONARY_PACK)}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hot_swap_through_the_batch_op(self, tmp_path, workers):
        """A warm batch memoises repeated lines, but never a line
        naming a pack file: after an edit every such line carries the
        new digest and misses, while bundled-pack lines still hit."""
        from repro.ops import shutdown_warm_pools, warm_pool

        path = tmp_path / "pack.json"
        path.write_text(json.dumps(PRECAUTIONARY_PACK), encoding="utf-8")
        requests_path = tmp_path / "requests.jsonl"
        requests_path.write_text(
            "".join(
                json.dumps(
                    {
                        "op": "policy.assess",
                        "args": {"pack": pack, "seed": seed},
                    }
                )
                + "\n"
                for pack in (str(path), "precautionary")
                for seed in (5, 6)
            ),
            encoding="utf-8",
        )
        args = {
            "requests": str(requests_path),
            "warm": True,
            "workers": workers,
        }

        def run() -> tuple[dict, list[str]]:
            response = execute("batch", args)
            lines = [json.loads(line) for line in response.text.splitlines()]
            assert all(line["ok"] for line in lines)
            return response.payload["cache"], [
                line["payload"]["pack"]["digest"] for line in lines
            ]

        shutdown_warm_pools()
        try:
            for _ in range(3):  # the third run reads the memo
                cache, before = run()
            assert cache["hits"] == 4
            assert warm_pool(workers, True).cache.stats()["lines"] == 2
            path.write_text(json.dumps(DEFAULT_PACK), encoding="utf-8")
            swapped, after = run()
        finally:
            shutdown_warm_pools()
        bundled = pack_digest(PRECAUTIONARY_PACK)
        assert before == [bundled] * 4
        assert after == [pack_digest(DEFAULT_PACK)] * 2 + [bundled] * 2
        assert swapped["misses"] == 2
        assert swapped["hits"] == 2

    def test_plain_pure_ops_unchanged(self):
        ctx = RunContext(cache=ResultCache(8))
        execute("stats", context=ctx)
        execute("stats", context=ctx)
        assert ctx.cache.hits == 1


class TestBatchByteIdentity:
    """policy.assess batches are byte-identical across worker counts."""

    def test_workers_1_2_4(self, tmp_path):
        from repro.ops import (
            BatchExecutor,
            load_requests,
            shutdown_warm_pools,
        )

        path = tmp_path / "requests.jsonl"
        path.write_text(
            "".join(
                json.dumps(
                    {"op": "policy.assess", "args": {"seed": seed}}
                )
                + "\n"
                for seed in range(12)
            ),
            encoding="utf-8",
        )
        requests = load_requests(path)
        try:
            texts = [
                BatchExecutor(workers=workers).run(requests).text()
                for workers in (1, 2, 4)
            ]
        finally:
            shutdown_warm_pools()
        assert texts[0] == texts[1] == texts[2]


class TestWorstFolds:
    def test_verdict_worst(self):
        assert Verdict.worst(
            ["proceed", "do-not-proceed", "requires-reb-review"]
        ) == "do-not-proceed"
        with pytest.raises(
            AssessmentError, match="unknown verdict 'maybe'"
        ):
            Verdict.worst(["proceed", "maybe"])

    def test_risk_level_worst(self):
        assert RiskLevel.worst(["low", "severe", "medium"]) == (
            "severe"
        )
        with pytest.raises(
            LegalModelError, match="unknown risk level 'huge'"
        ):
            RiskLevel.worst(["huge"])

    def test_finding_status_worst(self):
        assert FindingStatus.worst(
            ["satisfied", "violated", "indeterminate"]
        ) == "violated"
        with pytest.raises(
            EthicsModelError, match="unknown finding status 'ok'"
        ):
            FindingStatus.worst(["ok"])


class TestProjectGenerator:
    def test_deterministic(self):
        a = synthetic_project(7)
        b = synthetic_project(7)
        # Registry/jurisdiction containers have no __eq__; compare
        # the value-bearing fields.
        assert a.title == b.title
        assert a.profile == b.profile
        assert a.harms == b.harms
        assert a.benefits == b.benefits
        assert a.justification_facts == b.justification_facts
        assert a.safeguards == b.safeguards
        assert a.rights_context == b.rights_context
        assert [j.code for j in a.jurisdictions] == [
            j.code for j in b.jurisdictions
        ]
        assert synthetic_project(8).title != a.title

    def test_chunking_independent_of_chunk_size(self):
        flat_64 = [
            record
            for chunk in ResearchProjectGenerator(3).iter_records(
                chunk_size=64, count=150
            )
            for record in chunk
        ]
        flat_17 = [
            record
            for chunk in ResearchProjectGenerator(3).iter_records(
                chunk_size=17, count=150
            )
            for record in chunk
        ]
        assert flat_64 == flat_17
        assert all(r["_table"] == "projects" for r in flat_64)

    def test_projects_are_assessable(self):
        verdicts = {
            assess_with_policy(project, default_policy()).verdict
            for project in ResearchProjectGenerator(1).generate(60)
        }
        # The distributions must exercise more than one verdict band.
        assert len(verdicts) >= 2

    def test_simulate_projects_kind(self):
        response = execute("simulate", {"kind": "projects"})
        assert response.payload["detail"]["projects"] == 100


_R10_VIOLATION = (
    'ISSUES = ("computer-misuse", "beneficence")\n'
)


class TestPolicyLiteralRule:
    def _lint(self, root) -> list:
        from repro.staticcheck import LintEngine, default_registry

        engine = LintEngine(default_registry().select(("R10",)))
        return engine.lint_package(str(root))

    def test_flags_literals_outside_policy(self, tmp_path):
        (tmp_path / "analysis.py").write_text(
            _R10_VIOLATION, encoding="utf-8"
        )
        findings = self._lint(tmp_path)
        assert [f.rule_id for f in findings] == ["R10", "R10"]
        assert "computer-misuse" in findings[0].message

    def test_allowlists_policy_and_corpus_trees(self, tmp_path):
        for allowed in ("policy", "corpus"):
            subdir = tmp_path / allowed
            subdir.mkdir()
            (subdir / "data.py").write_text(
                _R10_VIOLATION, encoding="utf-8"
            )
        assert self._lint(tmp_path) == []

    def test_skips_docstrings(self, tmp_path):
        (tmp_path / "documented.py").write_text(
            '"""Discusses computer-misuse in prose."""\n'
            "VALUE = 1\n",
            encoding="utf-8",
        )
        assert self._lint(tmp_path) == []

    def test_repo_baseline_is_empty(self, repo_lint):
        findings = repo_lint(("R10",))
        assert [f for f in findings if f.rule_id == "R10"] == []
