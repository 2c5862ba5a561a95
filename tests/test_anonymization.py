"""Unit and property tests for the anonymization primitives."""

from __future__ import annotations

import ipaddress

import pytest
from hypothesis import given, settings, strategies as st

from repro.anonymization import (
    IPAnonymizer,
    Pseudonymizer,
    TextScrubber,
    TokenMapper,
    dimensionality_profile,
    generalize,
    kanonymity,
    luhn_valid,
    uniqueness_rate,
)
from repro.errors import AnonymizationError

KEY = b"0123456789abcdef"

ip_strategy = st.integers(0, 2**32 - 1).map(
    lambda n: str(ipaddress.IPv4Address(n))
)


class TestIPAnonymizer:
    def test_key_length_enforced(self):
        with pytest.raises(AnonymizationError):
            IPAnonymizer(b"short")

    def test_invalid_address(self):
        with pytest.raises(AnonymizationError):
            IPAnonymizer(KEY).anonymize("999.1.2.3")

    # Arabic-Indic digits and a superscript two: str.isdigit accepts
    # both, ipaddress rejects both.
    @pytest.mark.parametrize(
        "address",
        ["١.٢.٣.٤", "1.2.3.²"],
        ids=["arabic-indic", "superscript"],
    )
    def test_non_ascii_digits_rejected(self, address):
        anonymizer = IPAnonymizer(KEY)
        with pytest.raises(AnonymizationError):
            anonymizer.anonymize(address)
        with pytest.raises(AnonymizationError):
            anonymizer.anonymize_many(["192.0.2.1", address])

    def test_deterministic_per_key(self):
        first = IPAnonymizer(KEY)
        second = IPAnonymizer(KEY)
        assert first.anonymize("198.51.100.7") == second.anonymize(
            "198.51.100.7"
        )

    def test_different_keys_differ(self):
        a = IPAnonymizer(KEY).anonymize("198.51.100.7")
        b = IPAnonymizer(b"another-16-byte-k").anonymize(
            "198.51.100.7"
        )
        assert a != b

    def test_ipv6_supported(self):
        result = IPAnonymizer(KEY).anonymize("2001:db8::1")
        assert ipaddress.ip_address(result).version == 6

    def test_version_mismatch_comparison(self):
        with pytest.raises(AnonymizationError):
            IPAnonymizer.shared_prefix_length("1.2.3.4", "2001:db8::1")

    @settings(max_examples=60, deadline=None)
    @given(a=ip_strategy, b=ip_strategy)
    def test_prefix_preservation_property(self, a, b):
        # The defining property: shared prefix length is preserved
        # exactly under the mapping.
        anonymizer = IPAnonymizer(KEY)
        original = IPAnonymizer.shared_prefix_length(a, b)
        mapped = IPAnonymizer.shared_prefix_length(
            anonymizer.anonymize(a), anonymizer.anonymize(b)
        )
        assert mapped == original

    @settings(max_examples=60, deadline=None)
    @given(a=ip_strategy, b=ip_strategy)
    def test_injective_property(self, a, b):
        anonymizer = IPAnonymizer(KEY)
        if a != b:
            assert anonymizer.anonymize(a) != anonymizer.anonymize(b)

    def test_many(self):
        anonymizer = IPAnonymizer(KEY)
        out = anonymizer.anonymize_many(["192.0.2.1", "192.0.2.2"])
        assert len(out) == 2


class TestPseudonymizer:
    def test_stable(self):
        p = Pseudonymizer(KEY)
        assert p.pseudonym("alice") == p.pseudonym("alice")

    def test_domain_separation(self):
        p = Pseudonymizer(KEY)
        assert p.pseudonym("alice", "email") != p.pseudonym(
            "alice", "user"
        )

    def test_email_keep_domain(self):
        p = Pseudonymizer(KEY)
        out = p.email("alice@example.com", keep_domain=True)
        assert out.endswith("@example.com")
        assert "alice" not in out

    def test_email_hidden_domain(self):
        out = Pseudonymizer(KEY).email("alice@example.com")
        assert out.endswith("@example.invalid")

    def test_not_an_email(self):
        with pytest.raises(AnonymizationError):
            Pseudonymizer(KEY).email("not-an-email")

    def test_short_key_rejected(self):
        with pytest.raises(AnonymizationError):
            Pseudonymizer(b"short")

    def test_digest_bytes_bounds(self):
        with pytest.raises(AnonymizationError):
            Pseudonymizer(KEY, digest_bytes=2)

    def test_empty_identifier(self):
        with pytest.raises(AnonymizationError):
            Pseudonymizer(KEY).pseudonym("")


class TestTokenMapper:
    def test_consistent_and_sequential(self):
        mapper = TokenMapper()
        assert mapper.token("h4xx0r") == "user-1"
        assert mapper.token("other") == "user-2"
        assert mapper.token("h4xx0r") == "user-1"
        assert len(mapper) == 2

    def test_escrow_roundtrip(self):
        mapper = TokenMapper(prefix="vendor")
        mapper.token("darkseller")
        escrow = mapper.export_escrow()
        assert escrow == {"vendor-1": "darkseller"}

    def test_empty_prefix(self):
        with pytest.raises(AnonymizationError):
            TokenMapper(prefix="")


class TestScrubber:
    def test_scrubs_all_kinds(self):
        text = (
            "user bob@example.com from 203.0.113.9 paid with "
            "4111-1111-1111-1111, call +44 20 7946 0958"
        )
        result = TextScrubber().scrub(text)
        assert result.count("email") == 1
        assert result.count("ipv4") == 1
        assert result.count("card") == 1
        assert result.count("phone") == 1
        assert "bob@example.com" not in result.text

    def test_luhn_rejects_random_digit_runs(self):
        assert luhn_valid("4111111111111111")
        assert not luhn_valid("4111111111111112")
        result = TextScrubber(kinds=("card",)).scrub(
            "order id 1234 5678 9012 3456 here"
        )
        assert result.count("card") == 0

    def test_clean_text_untouched(self):
        text = "nothing sensitive here"
        result = TextScrubber().scrub(text)
        assert result.clean
        assert result.text == text

    def test_custom_replacer(self):
        scrubber = TextScrubber(
            replacer=lambda kind, original: f"<{kind}>"
        )
        result = scrubber.scrub("mail me: a@b.example")
        assert "<email>" in result.text

    def test_match_positions_recorded(self):
        result = TextScrubber().scrub("ip 198.51.100.1 end")
        match = result.matches[0]
        assert match.original == "198.51.100.1"
        assert match.start == 3

    def test_ipv6_found(self):
        result = TextScrubber().scrub("src 2001:db8::dead:beef port")
        assert result.count("ipv6") == 1


class TestKAnonymity:
    RECORDS = [
        {"age": 34, "zip": "CB1", "site": "a"},
        {"age": 34, "zip": "CB1", "site": "b"},
        {"age": 34, "zip": "CB2", "site": "a"},
        {"age": 55, "zip": "CB2", "site": "a"},
    ]

    def test_kanonymity(self):
        assert kanonymity(self.RECORDS, ["age"]) == 1
        assert kanonymity(self.RECORDS, ["zip"]) == 2

    def test_uniqueness_rate(self):
        rate = uniqueness_rate(self.RECORDS, ["age", "zip"], k=2)
        assert rate == pytest.approx(0.5)

    def test_missing_column(self):
        with pytest.raises(AnonymizationError):
            kanonymity(self.RECORDS, ["missing"])

    def test_empty_inputs(self):
        with pytest.raises(AnonymizationError):
            kanonymity([], ["age"])
        with pytest.raises(AnonymizationError):
            kanonymity(self.RECORDS, [])

    def test_dimensionality_profile_monotone(self):
        profile = dimensionality_profile(
            self.RECORDS, ["zip", "age", "site"]
        )
        ks = [k for _, k, _ in profile]
        uniq = [u for _, _, u in profile]
        assert ks == sorted(ks, reverse=True)
        assert uniq == sorted(uniq)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 3),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_curse_of_dimensionality_property(self, rows):
        # Adding quasi-identifiers never increases k and never
        # decreases uniqueness (Aggarwal's observation).
        records = [
            {"a": a, "b": b, "c": c} for a, b, c in rows
        ]
        profile = dimensionality_profile(records, ["a", "b", "c"])
        ks = [k for _, k, _ in profile]
        uniq = [u for _, _, u in profile]
        assert all(x >= y for x, y in zip(ks, ks[1:]))
        assert all(x <= y for x, y in zip(uniq, uniq[1:]))

    def test_generalize_improves_k(self):
        result = generalize(
            self.RECORDS,
            ["age", "zip"],
            "age",
            coarsen=lambda age: age // 10 * 10,
        )
        assert result.k_after >= result.k_before
        assert 0.0 <= result.information_loss <= 1.0

    def test_generalize_unknown_column(self):
        with pytest.raises(AnonymizationError):
            generalize(
                self.RECORDS, ["age"], "zip", coarsen=lambda v: v
            )
