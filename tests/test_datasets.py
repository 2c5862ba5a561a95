"""Unit and property tests for the synthetic dataset generators."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import (
    BooterDatabaseGenerator,
    ClassifiedCorpusGenerator,
    ForumGenerator,
    OffshoreLeakGenerator,
    PasswordDumpGenerator,
    ScanGenerator,
    zipf_choice,
)
from repro.errors import DatasetError

seeds = st.integers(0, 2**16)


def _digest(records) -> str:
    """BLAKE2b-128 over each record's ``json.dumps``, one per line.

    Keys are left unsorted, so the digest pins key order as well as
    every value — and through the values, the RNG draw order.
    """
    hasher = hashlib.blake2b(digest_size=16)
    for record in records:
        hasher.update(json.dumps(record).encode() + b"\n")
    return hasher.hexdigest()


def _streamed(generator, **params) -> list[dict]:
    return [
        record
        for chunk in generator.iter_records(**params)
        for record in chunk
    ]


class TestRecordBytes:
    """Pinned digests of the generators' exact output.

    A generator's RNG draw order is a contract: changing it changes
    every downstream golden. Run these before touching any generator.
    """

    @pytest.mark.parametrize(
        "seed, users, expected",
        [
            (0, 240, "0b3f9a1b892877702a2a6dc8c3d46ebf"),
            (3, 600, "4d5fae3967ea31d35ee65b42f7f5b943"),
        ],
    )
    def test_booter_stream(self, seed, users, expected):
        records = _streamed(BooterDatabaseGenerator(seed), users=users)
        assert _digest(records) == expected

    @pytest.mark.parametrize(
        "style, expected",
        [
            ("plaintext", "a71be3069828a8f0636de86607fd19f5"),
            ("hashed", "8f632217565eaab45b175c44807e6c68"),
            ("salted", "d0f52b599cf63beab563954d3e420f67"),
        ],
    )
    def test_password_stream(self, style, expected):
        records = _streamed(
            PasswordDumpGenerator(4), users=1000, style=style
        )
        assert _digest(records) == expected

    def test_booter_generate_tables(self):
        tables = BooterDatabaseGenerator(2).generate(
            users=200, days=60
        ).to_records()
        assert _digest(
            [{"table": name, "rows": rows} for name, rows in tables.items()]
        ) == "aed54175261f4f8e4502d8eb3c370c18"

    def test_simulate_booter_stdout(self, capsys):
        from repro.cli import main

        assert main(["simulate", "booter", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert hashlib.blake2b(
            out.encode(), digest_size=16
        ).hexdigest() == "2d84c4078600427fa92aee6d0d2ecc11"


class TestCommon:
    def test_zipf_empty(self):
        import random

        with pytest.raises(DatasetError):
            zipf_choice(random.Random(0), [])

    def test_zipf_bad_exponent(self):
        import random

        with pytest.raises(DatasetError):
            zipf_choice(random.Random(0), [1, 2], exponent=0)

    def test_zipf_skews_to_head(self):
        import random

        rng = random.Random(0)
        items = list(range(50))
        draws = [zipf_choice(rng, items) for _ in range(2000)]
        head = sum(1 for d in draws if d < 5)
        tail = sum(1 for d in draws if d >= 45)
        assert head > 5 * max(tail, 1)

    def test_identity_synthesis_shapes(self):
        gen = PasswordDumpGenerator(0)
        assert "@" in gen.email()
        assert gen.ipv4().count(".") == 3
        assert gen.full_name().istitle()


class TestPasswordDump:
    def test_sizes_and_style(self):
        dump = PasswordDumpGenerator(1).generate(users=100)
        assert len(dump) == 100
        assert all(r.password for r in dump.records)
        assert all(not r.password_hash for r in dump.records)

    def test_hashed_style_hides_plaintext(self):
        dump = PasswordDumpGenerator(1).generate(
            users=50, style="hashed"
        )
        assert all(not r.password for r in dump.records)
        assert all(len(r.password_hash) == 40 for r in dump.records)
        assert all(not r.salt for r in dump.records)

    def test_salted_style(self):
        dump = PasswordDumpGenerator(1).generate(
            users=50, style="salted"
        )
        assert all(r.salt for r in dump.records)

    def test_unknown_style(self):
        with pytest.raises(DatasetError):
            PasswordDumpGenerator(1).generate(style="rot13")

    def test_zero_users(self):
        with pytest.raises(DatasetError):
            PasswordDumpGenerator(1).generate(users=0)

    def test_zipf_head(self):
        dump = PasswordDumpGenerator(1).generate(users=3000)
        top_count = dump.frequency().most_common(1)[0][1]
        assert top_count > len(dump) / 100  # heavy head

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_deterministic(self, seed):
        a = PasswordDumpGenerator(seed).generate(users=50)
        b = PasswordDumpGenerator(seed).generate(users=50)
        assert a.to_records() == b.to_records()

    def test_pair_reuse_rates(self):
        a, b = PasswordDumpGenerator(5).generate_pair(
            users=2000, overlap=0.5
        )
        shared = {
            r.email for r in a.records
        } & {r.email for r in b.records}
        assert len(shared) == 1000

    def test_pair_validation(self):
        with pytest.raises(DatasetError):
            PasswordDumpGenerator(1).generate_pair(overlap=1.5)
        with pytest.raises(DatasetError):
            PasswordDumpGenerator(1).generate_pair(
                direct_reuse=0.8, partial_reuse=0.3
            )


class TestBooter:
    @pytest.fixture(scope="class")
    def db(self):
        return BooterDatabaseGenerator(2).generate(users=200, days=60)

    def test_schema_populated(self, db):
        assert db.users and db.attacks and db.payments and db.plans
        assert db.tickets

    def test_heavy_tail(self, db):
        heavy = len(db.users) // 10
        heavy_attacks = sum(
            1 for a in db.attacks if a.user_id < heavy
        )
        assert heavy_attacks > len(db.attacks) / 2

    def test_amplification_dominates(self, db):
        amplified = sum(
            1
            for a in db.attacks
            if a.method.endswith("amplification")
        )
        assert amplified > 0.6 * len(db.attacks)

    def test_durations_within_plan_limits(self, db):
        max_duration = max(
            p.max_duration_seconds for p in db.plans
        )
        assert all(
            a.duration_seconds <= max_duration for a in db.attacks
        )

    def test_attack_days_follow_registration(self, db):
        registration = {
            u.user_id: u.registration_day for u in db.users
        }
        assert all(
            a.day >= registration[a.user_id] for a in db.attacks
        )

    def test_revenue_positive(self, db):
        assert db.revenue() > 0

    def test_records_view(self, db):
        records = db.to_records()
        assert set(records) == {
            "users", "attacks", "payments", "tickets", "plans",
        }

    def test_validation(self):
        with pytest.raises(DatasetError):
            BooterDatabaseGenerator(1).generate(users=0)


class TestForum:
    @pytest.fixture(scope="class")
    def forum(self):
        return ForumGenerator(3).generate(members=150, threads=100)

    def test_mixed_boards(self, forum):
        # Real forums cover both criminal and benign topics (§4.3.3).
        assert 0.1 < forum.illicit_share() < 0.9

    def test_interactions_exist(self, forum):
        edges = forum.interaction_edges()
        assert edges
        member_ids = {m.member_id for m in forum.members}
        assert all(
            s in member_ids and t in member_ids for s, t in edges
        )

    def test_posts_reference_threads(self, forum):
        thread_ids = {t.thread_id for t in forum.threads}
        assert all(p.thread_id in thread_ids for p in forum.posts)

    def test_trades_by_product(self, forum):
        counts = forum.trades_by_product()
        assert sum(counts.values()) == len(forum.trades)

    def test_validation(self):
        with pytest.raises(DatasetError):
            ForumGenerator(1).generate(members=1)


class TestOffshore:
    @pytest.fixture(scope="class")
    def leak(self):
        return OffshoreLeakGenerator(4).generate()

    def test_entities_linked_to_intermediaries(self, leak):
        ids = {i.intermediary_id for i in leak.intermediaries}
        assert all(e.intermediary_id in ids for e in leak.entities)

    def test_legislation_reduces_incorporations(self, leak):
        series = leak.incorporations_by_year()
        pre = sum(series.get(y, 0) for y in range(2000, 2005))
        post = sum(series.get(y, 0) for y in range(2010, 2015))
        assert post < pre

    def test_active_entities_monotone_sanity(self, leak):
        assert leak.active_entities(1990) == 0

    def test_public_figures_rare(self, leak):
        assert 0 < len(leak.public_figures()) < len(leak.officers) / 5

    def test_validation(self):
        with pytest.raises(DatasetError):
            OffshoreLeakGenerator(1).generate(
                start_year=2010, end_year=2000
            )
        with pytest.raises(DatasetError):
            OffshoreLeakGenerator(1).generate(legislation_effect=1.0)


class TestClassified:
    @pytest.fixture(scope="class")
    def corpus(self):
        return ClassifiedCorpusGenerator(5).generate(cables=400)

    def test_marking_mix(self, corpus):
        counts = corpus.by_classification()
        assert counts.get("TOP SECRET", 0) == 0
        assert counts["UNCLASSIFIED"] > 0
        assert counts["SECRET"] > 0

    def test_classification_survives_release(self, corpus):
        assert corpus.publicly_released
        assert corpus.still_classified()

    def test_mentioning(self, corpus):
        cable = next(c for c in corpus.cables if c.subjects)
        hits = corpus.mentioning(cable.subjects[0])
        assert cable in hits

    def test_validation(self):
        with pytest.raises(DatasetError):
            ClassifiedCorpusGenerator(1).generate(cables=0)


class TestScans:
    @pytest.fixture(scope="class")
    def scan(self):
        return ScanGenerator(6).generate(
            targets=1000, proxy_pollution=0.3
        )

    def test_port80_artefacts_present(self, scan):
        # The CAIDA finding: port-80 open rates are polluted.
        assert scan.artefact_rate(80) > 0.0
        assert scan.artefact_rate(22) == 0.0

    def test_telescope_sees_only_darknet(self, scan):
        assert all(
            e.dest_ip.startswith(scan.darknet_prefix)
            for e in scan.telescope_events
        )

    def test_botnet_sources_identifiable(self, scan):
        # The [70] predicament: the telescope reveals victim devices.
        assert len(scan.botnet_sources()) > 0

    def test_darknet_never_open(self, scan):
        darknet = [
            r
            for r in scan.records
            if r.target_ip.startswith(scan.darknet_prefix)
        ]
        assert darknet
        assert not any(r.open for r in darknet)

    def test_validation(self):
        with pytest.raises(DatasetError):
            ScanGenerator(1).generate(telescope_share=2.0)
