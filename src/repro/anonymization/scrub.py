"""Text scrubbing: find and redact identifiers in free text.

Leaked databases carry identifiers inside free text (tickets, private
messages, chat logs — §4.3.1 lists all of these). The scrubber finds
IPv4/IPv6 addresses, email addresses, phone-number-like strings and
credit-card numbers (validated with the Luhn checksum to limit false
positives) and replaces them with typed placeholders, reporting what
was found so redaction can be audited.

Hot path design: instead of five sequential ``finditer`` passes, the
scrubber runs **one compiled alternation** with named groups (one
group per identifier kind, ordered by claim priority: email, ipv4,
ipv6, card, phone), guarded by a cheap pre-filter — text with no
digit, ``@`` or ``:`` cannot contain any identifier and is returned
untouched without touching the big regex at all. Semantic validation
(``ipaddress`` for IPv6, Luhn for cards) happens outside the regex;
when it rejects a candidate the scanner backtracks one character so
lower-priority kinds still get their chance at the same position,
preserving the match kinds and audit reporting of the multi-pass
implementation.

Digit-run classification is deterministic: a candidate that passes
the Luhn checksum is always a ``card`` (even when it is shaped like a
phone number, and even when the card is embedded *inside* a larger
phone-shaped run), a run that fails Luhn is a ``phone`` if
phone-shaped, and an IPv4 address swallowed by a phone-shaped run is
recovered as ``ipv4`` — each span is claimed exactly once.
"""

from __future__ import annotations

import dataclasses
import re
from collections.abc import Callable

__all__ = ["ScrubMatch", "ScrubResult", "TextScrubber", "luhn_valid"]

_IPV4 = re.compile(
    r"\b(?:(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)\.){3}"
    r"(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)\b"
)
# Permissive candidate run of hex and colons; each candidate is then
# validated with ipaddress so compressed (::) forms are matched
# without false positives.
_IPV6 = re.compile(
    r"(?<![0-9A-Fa-f:.])"
    r"(?:(?:[0-9A-Fa-f]{1,4})?(?::{1,2}[0-9A-Fa-f]{1,4}){1,7}:{0,2})"
    r"(?![0-9A-Fa-f:.])"
)
_EMAIL = re.compile(
    r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b"
)
_PHONE = re.compile(
    r"(?<![\w.])\+?\d[\d\s().-]{7,16}\d(?![\w.])"
)
_CARD = re.compile(r"\b\d(?:[ -]?\d){12,18}\b")

#: Card-separator cleanup, hoisted out of the :func:`luhn_valid` hot
#: loop (it runs once per digit-run candidate at dump scale).
_CARD_SEPARATORS = re.compile(r"[ -]")

#: Pre-filter: no digit, ``@`` or ``:`` means no pattern can match
#: (emails need ``@``, IPv6 needs ``:``, everything else needs a
#: digit), so the scrubber can skip clean prose in one cheap scan.
_QUICK = re.compile(r"[0-9@:]")

#: Claim priority; also the alternation order of the combined regex.
_PATTERNS: tuple[tuple[str, re.Pattern[str]], ...] = (
    ("email", _EMAIL),
    ("ipv4", _IPV4),
    ("ipv6", _IPV6),
    ("card", _CARD),
    ("phone", _PHONE),
)

#: Compiled alternation per enabled-kinds tuple (tiny, bounded set).
_COMBINED_CACHE: dict[tuple[str, ...], re.Pattern[str]] = {}


def _combined(kinds: tuple[str, ...]) -> re.Pattern[str]:
    """The single-alternation pattern for the enabled *kinds*."""
    pattern = _COMBINED_CACHE.get(kinds)
    if pattern is None:
        parts = [
            f"(?P<{kind}>{regex.pattern})"
            for kind, regex in _PATTERNS
            if kind in kinds
        ]
        pattern = re.compile("|".join(parts))
        _COMBINED_CACHE[kinds] = pattern
    return pattern


def luhn_valid(digits: str) -> bool:
    """Luhn checksum for candidate card numbers."""
    cleaned = _CARD_SEPARATORS.sub("", digits)
    if not cleaned.isdigit() or not 13 <= len(cleaned) <= 19:
        return False
    total = 0
    for index, char in enumerate(reversed(cleaned)):
        value = int(char)
        if index % 2 == 1:
            value *= 2
            if value > 9:
                value -= 9
        total += value
    return total % 10 == 0


def _search_luhn_card(segment: str) -> re.Match[str] | None:
    """First Luhn-valid card run in *segment*, overlap-tolerant."""
    position = 0
    while True:
        match = _CARD.search(segment, position)
        if match is None:
            return None
        if luhn_valid(match.group()):
            return match
        position = match.start() + 1


@dataclasses.dataclass(frozen=True)
class ScrubMatch:
    """One identifier found in the text."""

    kind: str
    start: int
    end: int
    original: str


@dataclasses.dataclass(frozen=True)
class ScrubResult:
    """Scrubbed text plus the audit trail of matches."""

    text: str
    matches: tuple[ScrubMatch, ...]

    def count(self, kind: str | None = None) -> int:
        if kind is None:
            return len(self.matches)
        return sum(1 for m in self.matches if m.kind == kind)

    @property
    def clean(self) -> bool:
        return not self.matches


class TextScrubber:
    """Find and replace identifiers in free text.

    ``replacer`` maps (kind, original) to the replacement string; by
    default a typed placeholder like ``[redacted-email]``. Pass a
    :class:`~repro.anonymization.identifiers.Pseudonymizer`-backed
    replacer to keep joinability instead of redacting.
    """

    KINDS = ("email", "ipv4", "ipv6", "card", "phone")

    def __init__(
        self,
        replacer: Callable[[str, str], str] | None = None,
        kinds: tuple[str, ...] | None = None,
    ) -> None:
        self._replacer = replacer or (
            lambda kind, original: f"[redacted-{kind}]"
        )
        self._kinds = kinds if kinds is not None else self.KINDS
        self._combined = _combined(
            tuple(k for k in self.KINDS if k in self._kinds)
        )

    def _resolve_digit_run(
        self, kind: str, start: int, end: int, candidate: str
    ) -> tuple[str, int, int, str] | None:
        """Deterministically classify a card/phone-shaped digit run.

        Returns the claimed (kind, start, end, original) or ``None``
        when nothing in the run qualifies. Rules, in order: a
        Luhn-valid run is a card; a Luhn-valid card embedded in a
        longer phone-shaped run is claimed as that card; an IPv4
        address swallowed by a phone-shaped run is claimed as ipv4;
        otherwise a phone-shaped run is a phone.
        """
        if luhn_valid(candidate):
            if "card" in self._kinds:
                return ("card", start, end, candidate)
            return None  # card-shaped but cards are disabled: drop
        if kind == "phone" or "phone" in self._kinds:
            if "card" in self._kinds:
                embedded = _search_luhn_card(candidate)
                if embedded is not None:
                    return (
                        "card",
                        start + embedded.start(),
                        start + embedded.end(),
                        embedded.group(),
                    )
            if "ipv4" in self._kinds:
                inner = _IPV4.search(candidate)
                if inner is not None:
                    return (
                        "ipv4",
                        start + inner.start(),
                        start + inner.end(),
                        inner.group(),
                    )
        if kind == "phone" and "phone" in self._kinds:
            return ("phone", start, end, candidate)
        return None

    def _find(self, text: str) -> list[ScrubMatch]:
        """Single-pass scan with the combined alternation."""
        matches: list[ScrubMatch] = []
        if not _QUICK.search(text):
            return matches
        search = self._combined.search
        position = 0
        while True:
            found = search(text, position)
            if found is None:
                break
            kind = found.lastgroup or ""
            start, end = found.span()
            candidate = found.group()
            claimed: tuple[str, int, int, str] | None
            if kind == "ipv6":
                claimed = (
                    (kind, start, end, candidate)
                    if _valid_ipv6(candidate)
                    else None
                )
            elif kind == "card":
                claimed = self._resolve_digit_run(
                    kind, start, end, candidate
                )
                if claimed is None and "phone" in self._kinds:
                    # The card alternative shadowed the phone one at
                    # this position; give phone its own anchored try.
                    shadowed = _PHONE.match(text, start)
                    if shadowed is not None:
                        claimed = self._resolve_digit_run(
                            "phone",
                            shadowed.start(),
                            shadowed.end(),
                            shadowed.group(),
                        )
            elif kind == "phone":
                claimed = self._resolve_digit_run(
                    kind, start, end, candidate
                )
            else:
                claimed = (kind, start, end, candidate)
            if claimed is None:
                # Rejected candidate: step one character so a lower
                # priority kind can still match inside this span.
                position = start + 1
                continue
            matches.append(ScrubMatch(*claimed))
            position = claimed[2] if claimed[2] > position else (
                position + 1
            )
        return matches

    def scrub(self, text: str) -> ScrubResult:
        """Replace all findable identifiers in *text*."""
        matches = self._find(text)
        if not matches:
            return ScrubResult(text=text, matches=())
        parts: list[str] = []
        cursor = 0
        for match in matches:
            parts.append(text[cursor : match.start])
            parts.append(self._replacer(match.kind, match.original))
            cursor = match.end
        parts.append(text[cursor:])
        return ScrubResult(text="".join(parts), matches=tuple(matches))


def _valid_ipv6(candidate: str) -> bool:
    import ipaddress

    if ":" not in candidate or candidate.count(":") < 2:
        return False
    try:
        return ipaddress.ip_address(candidate).version == 6
    except ValueError:
        return False
