"""Small shared helpers used across the repro library.

These are internal utilities (note the module name); the public API is
re-exported from :mod:`repro` and the subpackages.
"""

from __future__ import annotations

import hashlib
import json
import re
import unicodedata
from collections.abc import Iterable, Sequence
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import TypeVar

T = TypeVar("T")

_SLUG_RE = re.compile(r"[^a-z0-9]+")

#: The one canonical-JSON spelling: sorted keys, no whitespace, ASCII
#: escapes. Every digest, chain record, cache key and JSONL line the
#: system writes goes through it, so their bytes agree by construction.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: That encoder's C core, built once: ``JSONEncoder.encode`` builds a
#: fresh one per call, which costs more than encoding a small record.
#: The arguments are the ones it passes (markers, default, string
#: encoder, indent, separators, sort_keys, skipkeys, allow_nan), less
#: the circular-reference markers: a self-containing value raises
#: RecursionError instead of ValueError.
_ENCODE = c_make_encoder(
    None, _CANONICAL.default, encode_basestring_ascii, None,
    ":", ",", True, False, True,
)


def canonical_json(obj: object) -> str:
    """Compact, key-sorted JSON text of *obj* (one line).

    >>> canonical_json({"b": [1, 2], "a": "x"})
    '{"a":"x","b":[1,2]}'
    """
    return "".join(_ENCODE(obj, 0))


def blake2b_hex(text: str, digest_size: int) -> str:
    """Keyless BLAKE2b hex digest of the UTF-8 bytes of *text*."""
    return hashlib.blake2b(
        text.encode("utf-8"), digest_size=digest_size
    ).hexdigest()


def slugify(text: str) -> str:
    """Return a lowercase, hyphen-separated identifier derived from *text*.

    >>> slugify("Computer Misuse")
    'computer-misuse'
    >>> slugify("  Anthropology & Transparency ")
    'anthropology-transparency'
    """
    normalized = unicodedata.normalize("NFKD", text)
    ascii_text = normalized.encode("ascii", "ignore").decode("ascii")
    slug = _SLUG_RE.sub("-", ascii_text.lower()).strip("-")
    return slug


def ensure_unique(items: Iterable[T], what: str = "item") -> list[T]:
    """Return *items* as a list, raising ``ValueError`` on duplicates."""
    seen: set[T] = set()
    result: list[T] = []
    for item in items:
        if item in seen:
            raise ValueError(f"duplicate {what}: {item!r}")
        seen.add(item)
        result.append(item)
    return result


def wrap_text(text: str, width: int = 72, indent: str = "") -> list[str]:
    """Greedy word-wrap of *text* into lines at most *width* wide.

    ``indent`` is prepended to every line and counted against the width.
    Words longer than the available width are emitted on their own line
    rather than split.
    """
    if width <= len(indent):
        raise ValueError("width must exceed indent length")
    budget = width - len(indent)
    lines: list[str] = []
    current: list[str] = []
    current_len = 0
    for word in text.split():
        extra = len(word) if not current else len(word) + 1
        if current and current_len + extra > budget:
            lines.append(indent + " ".join(current))
            current = [word]
            current_len = len(word)
        else:
            current.append(word)
            current_len += extra
    if current:
        lines.append(indent + " ".join(current))
    if not lines:
        lines.append(indent.rstrip() if indent else "")
    return lines


def percent(part: int, whole: int) -> float:
    """Return ``part / whole`` as a percentage, 0.0 when *whole* is zero."""
    if whole == 0:
        return 0.0
    return 100.0 * part / whole


def oxford_join(parts: Sequence[str], conjunction: str = "and") -> str:
    """Join *parts* into an English list: ``a, b, and c``.

    >>> oxford_join(["privacy"])
    'privacy'
    >>> oxford_join(["privacy", "storage"])
    'privacy and storage'
    >>> oxford_join(["a", "b", "c"], conjunction="or")
    'a, b, or c'
    """
    parts = [p for p in parts if p]
    if not parts:
        return ""
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        return f"{parts[0]} {conjunction} {parts[1]}"
    return ", ".join(parts[:-1]) + f", {conjunction} {parts[-1]}"


def clamp(value: float, low: float, high: float) -> float:
    """Clamp *value* into the closed interval [low, high]."""
    if low > high:
        raise ValueError("low must not exceed high")
    return max(low, min(high, value))
