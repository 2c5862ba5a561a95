"""R3 — PII literal scan: no real-looking identifiers in the source.

The paper's anonymization safeguard (§5.2) extends to the research
artefacts themselves: a reproduction of work on leaked data must not
embed anything that even *looks* like a real identifier, because
readers cannot distinguish a realistic example from an accidental
disclosure. R3 scans every source line (code, strings and comments
alike) of ``src/`` for:

* **email-shaped strings** whose domain is not reserved for
  documentation (RFC 2606: ``example.com/net/org`` and the
  ``.example`` / ``.invalid`` / ``.test`` / ``.localhost`` TLDs);
* **IPv4 literals** outside the documentation (RFC 5737), private
  (RFC 1918), loopback, link-local and otherwise non-global ranges;
* **IPv6 literals** that are globally routable — the documentation
  range ``2001:db8::/32`` (RFC 3849), loopback ``::1``, link-local
  ``fe80::/10`` and ULA ``fc00::/7`` space stay allowed;
* **realistic phone numbers** — NANP-shaped numbers whose exchange is
  not the fictional ``555``.

The IPv6 scan deliberately skips bare slice-shaped candidates
(``1::2`` — Python's ``x[1::2]`` is a valid global IPv6 address once
the brackets are stripped): a candidate with short all-decimal groups
around a single ``::`` is treated as code, not an address. Real
addresses written that way are vanishingly rare; everything with a
hex letter or longer groups is judged properly.
"""

from __future__ import annotations

import ipaddress
import re
from collections.abc import Iterable

from .engine import Finding, ModuleInfo, Rule

__all__ = ["PIILiteralRule"]

_EMAIL_RE = re.compile(
    r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
)

#: RFC 2606 reserved names — safe to embed anywhere.
_SAFE_MAIL_SUFFIXES = (
    "example.com",
    "example.net",
    "example.org",
    ".example",
    ".invalid",
    ".test",
    ".localhost",
)

_IPV4_RE = re.compile(
    r"(?<![\w.])(\d{1,3}(?:\.\d{1,3}){3})(?![\w.])"
)

#: Hex-and-colon runs that could be IPv6 literals.
_IPV6_RE = re.compile(
    r"(?<![\w:.])([0-9A-Fa-f]{0,4}(?::[0-9A-Fa-f]{0,4}){2,7})(?![\w:])"
)

_DIGIT_RE = re.compile(r"\d")

#: Python slice shapes (``1::2``, ``::2``) that also parse as IPv6.
_SLICE_SHAPE_RE = re.compile(r"\d{0,3}::\d{0,3}")

#: NANP-shaped: optional +1, 3-digit area code, exchange, 4-digit line,
#: with separators (bare digit runs are left to the IPv4/other checks).
_PHONE_RE = re.compile(
    r"(?<!\d)(?:\+?1[-. ])?\(?([2-9]\d{2})\)?[-. ]([2-9]\d{2})[-. ]"
    r"(\d{4})(?!\d)"
)


def _ip_is_safe(text: str) -> bool:
    """True when the dotted quad is invalid or a non-global address."""
    try:
        address = ipaddress.IPv4Address(text)
    except ipaddress.AddressValueError:
        return True
    return not address.is_global


def _ipv6_is_safe(text: str) -> bool:
    """True when the candidate is code-shaped, invalid or non-global.

    ``2001:db8::/32``, ``::1``, ``fe80::/10`` and ``fc00::/7`` are
    all non-global per :mod:`ipaddress` and therefore allowed.
    """
    if _SLICE_SHAPE_RE.fullmatch(text):
        return True
    try:
        address = ipaddress.IPv6Address(text)
    except ipaddress.AddressValueError:
        return True
    return not address.is_global


class PIILiteralRule(Rule):
    """Flag embedded identifiers that could pass for real PII."""

    id = "R3"
    name = "pii-literals"
    description = (
        "no email-shaped strings, globally-routable IPv4/IPv6 "
        "literals, or realistic phone numbers anywhere in src/"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        """Scan every raw source line (code, strings and comments)."""
        for number, text in enumerate(module.lines, start=1):
            # Cheap necessary conditions first: each pattern needs an
            # ``@``, a digit or two colons, and most lines have none.
            has_digit = _DIGIT_RE.search(text) is not None
            for match in _EMAIL_RE.finditer(text) if "@" in text else ():
                email = match.group(0)
                domain = email.rsplit("@", 1)[1].lower().rstrip(".")
                if not domain.endswith(_SAFE_MAIL_SUFFIXES):
                    yield self._finding(
                        module,
                        number,
                        f"email-shaped literal {email!r} outside the "
                        "RFC 2606 documentation domains",
                    )
            for match in _IPV4_RE.finditer(text) if has_digit else ():
                if not _ip_is_safe(match.group(1)):
                    yield self._finding(
                        module,
                        number,
                        f"globally-routable IPv4 literal "
                        f"{match.group(1)!r}; use RFC 5737 "
                        "documentation or RFC 1918 private ranges",
                    )
            for match in (
                _IPV6_RE.finditer(text) if text.count(":") >= 2 else ()
            ):
                if not _ipv6_is_safe(match.group(1)):
                    yield self._finding(
                        module,
                        number,
                        f"globally-routable IPv6 literal "
                        f"{match.group(1)!r}; use the RFC 3849 "
                        "documentation range 2001:db8::/32",
                    )
            for match in _PHONE_RE.finditer(text) if has_digit else ():
                if match.group(2) != "555":
                    yield self._finding(
                        module,
                        number,
                        f"realistic phone number {match.group(0)!r}; "
                        "use a fictional 555 exchange",
                    )

    def _finding(
        self, module: ModuleInfo, line: int, message: str
    ) -> Finding:
        return Finding(
            rule_id=self.id,
            path=module.path,
            line=line,
            message=message,
        )
