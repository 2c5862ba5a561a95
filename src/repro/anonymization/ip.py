"""Prefix-preserving IP address anonymization (Crypto-PAn style).

Network datasets of illicit origin (booter attack logs, telescope
captures, scan results) are full of IP addresses, which several
jurisdictions treat as personal data (§3). Prefix-preserving
anonymization keeps subnet structure analysable — two addresses
sharing a k-bit prefix map to outputs sharing a k-bit prefix — while
unlinking addresses from real hosts.

The construction follows Crypto-PAn: for each bit position *i*, the
output bit is the input bit XOR a pseudorandom function of the
*i*-bit input prefix. We use keyed BLAKE2s as the PRF (stdlib only;
BLAKE2's keyed mode is a designed MAC/PRF and is several times
faster than HMAC-SHA256 per short message). The mapping is a
deterministic bijection per key.

The PRF is evaluated **once per byte of prefix depth**, not once
per bit: the 256-bit digest of an 8-bit-aligned prefix carries one
pseudorandom bit for every node of the full binary subtree spanning
the next eight depths (offset ``2^j - 1 + partial`` for the *j*
in-byte bits ``partial``; the subtree has ``2^0 + … + 2^7 = 255``
nodes, which fits the digest). Each flip therefore remains a pure
function of its exact *i*-bit prefix — two prefixes differing
anywhere index different digests or different subtree nodes — so
the classic Crypto-PAn prefix-preservation argument is unchanged
while the digest count per IPv4 address drops from 32 to 4.

Hot path design (the safeguard pipeline drives this at dump scale):

* per-byte-prefix subtree digests are memoised in a **bounded
  prefix cache** — a flattened prefix tree keyed by ``(depth,
  prefix)`` packed into one integer, so a multi-million-address
  corpus cannot grow it without limit. Eviction is amortised oldest-first: when the cache
  exceeds its bound it drops the oldest-inserted half in one sweep
  (a segmented-FIFO policy that approximates LRU for this workload
  without paying per-access recency bookkeeping — sorted batches
  touch prefixes in runs, so insertion age tracks recency closely);
* :meth:`IPAnonymizer.anonymize_many` sorts its batch by address
  value first, so addresses sharing subnets are processed
  consecutively and their shared-prefix PRF bits stay resident even
  in a small cache (keyed determinism means the output is identical
  for any processing order, so parallel pipeline workers produce
  byte-identical results to serial runs);
* the PRF state is built once and ``copy()``-ed per evaluation
  instead of re-keying, and IPv4 parsing/formatting bypasses
  :mod:`ipaddress` on the fast path.

:meth:`IPAnonymizer.cache_info` exposes hit/miss/eviction counters;
the pipeline metrics report them per stage.
"""

from __future__ import annotations

import dataclasses
import hashlib
import ipaddress
import re
from collections.abc import Sequence
from itertools import islice

from ..errors import AnonymizationError

__all__ = ["CacheStats", "IPAnonymizer"]

#: Default bound on the PRF cache (entries, not bytes). 1 << 17
#: 32-byte subtree digests ≈ a few tens of MiB; sorted batch
#: processing keeps the hit rate near an unbounded cache even at
#: this size.
DEFAULT_CACHE_SIZE = 1 << 17

#: One dotted-quad octet, 0-255 in ASCII decimal, no leading zeros.
_OCTET = r"(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_IPV4 = re.compile(r"\.".join([_OCTET] * 4))


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters for the per-prefix PRF cache."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        """Fraction of PRF lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        """JSON-serialisable view (used by the pipeline metrics)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": round(self.hit_rate, 4),
        }


class IPAnonymizer:
    """Keyed, deterministic, prefix-preserving anonymizer for IPv4/IPv6.

    The same key always produces the same mapping (so longitudinal
    analyses stay joinable) and different keys produce unrelated
    mappings (so two releases cannot be cross-linked). ``cache_size``
    bounds the per-prefix PRF memo; eviction drops the
    oldest-inserted half in bulk when the bound is crossed (see the
    module docstring) and affects only speed, never output.
    """

    def __init__(
        self, key: bytes, *, cache_size: int = DEFAULT_CACHE_SIZE
    ) -> None:
        if len(key) < 16:
            raise AnonymizationError(
                "anonymization key must be at least 16 bytes"
            )
        if cache_size < 256:
            raise AnonymizationError(
                "cache_size must be at least 256 entries"
            )
        self._key = key
        # BLAKE2s keys are capped at 32 bytes; longer user keys are
        # folded through SHA-256 first (any >=16-byte key works).
        self._prf_proto = hashlib.blake2s(
            key=hashlib.sha256(key).digest()
        )
        self._cache: dict[int, int] = {}
        self._cache_size = cache_size
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- cache ----------------------------------------------------------
    def cache_info(self) -> CacheStats:
        """Current PRF-cache counters (bulk oldest-first eviction)."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._cache),
            maxsize=self._cache_size,
        )

    def cache_clear(self) -> None:
        """Drop every cached PRF bit and reset the counters."""
        self._cache.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- core mapping ---------------------------------------------------
    def _anonymize_int(
        self,
        value: int,
        width: int,
        start: int = 0,
        prefix_result: int = 0,
    ) -> int:
        """Map one address integer; one PRF digest per byte of depth.

        ``start``/``prefix_result`` let the sorted batch path resume
        below an already-computed output prefix: when the previous
        address shares the first *start* bits (*start* must be a
        multiple of 8, matching the digest granularity), its first
        *start* output bits are reused verbatim (the construction
        makes them equal by definition) and only deeper byte blocks
        are evaluated.
        """
        cache = self._cache
        cache_get = cache.get
        copy = self._prf_proto.copy
        hits = misses = 0
        result = prefix_result
        # (depth, prefix) packed into one int: prefix < 2**depth, so
        # shifting the depth above the address width keeps keys
        # unique. The packed key doubles as the 17-byte PRF message,
        # so the encoding is injective. One digest per byte-aligned
        # prefix covers the next eight depths: the flip bit for
        # in-byte depth j sits at offset ``2**j - 1 + (b >> (8 - j))``
        # (the heap node of the j-bit partial prefix of input byte
        # b, less one) and lands on output bit ``7 - j``; all eight
        # flips form one mask XORed into the byte. See the module
        # docstring for why this preserves exact prefixes.
        for depth in range(start, width, 8):
            byte_prefix = value >> (width - depth) if depth else 0
            cache_key = (depth << width) | byte_prefix
            subtree = cache_get(cache_key)
            if subtree is None:
                misses += 1
                prf = copy()
                prf.update(cache_key.to_bytes(17, "big"))
                subtree = int.from_bytes(prf.digest(), "little")
                cache[cache_key] = subtree
            else:
                hits += 1
            b = (value >> (width - depth - 8)) & 0xFF
            mask = (
                (subtree & 1) << 7
                | ((subtree >> (1 + (b >> 7))) & 1) << 6
                | ((subtree >> (3 + (b >> 6))) & 1) << 5
                | ((subtree >> (7 + (b >> 5))) & 1) << 4
                | ((subtree >> (15 + (b >> 4))) & 1) << 3
                | ((subtree >> (31 + (b >> 3))) & 1) << 2
                | ((subtree >> (63 + (b >> 2))) & 1) << 1
                | (subtree >> (127 + (b >> 1))) & 1
            )
            result = (result << 8) | (b ^ mask)
        self._hits += hits
        self._misses += misses
        # Bound the cache once per address, not per bit: overshoot is
        # at most ``width`` entries, and the bulk halving amortises
        # eviction to O(1) per miss without any per-hit bookkeeping.
        if len(cache) > self._cache_size:
            self._evict()
        return result

    def _evict(self) -> None:
        """Drop the oldest-inserted entries down to half capacity."""
        cache = self._cache
        drop = len(cache) - (self._cache_size >> 1)
        for key in list(islice(iter(cache), drop)):
            del cache[key]
        self._evictions += drop

    # -- public API -----------------------------------------------------
    def anonymize(self, address: str) -> str:
        """Anonymize one IPv4 or IPv6 address string."""
        value = _parse_ipv4(address)
        if value is not None:
            return _format_ipv4(self._anonymize_int(value, 32))
        try:
            parsed = ipaddress.ip_address(address)
        except ValueError as exc:
            raise AnonymizationError(
                f"invalid IP address {address!r}"
            ) from exc
        if parsed.version == 4:  # pragma: no cover - fast path above
            return _format_ipv4(self._anonymize_int(int(parsed), 32))
        return str(
            ipaddress.IPv6Address(self._anonymize_int(int(parsed), 128))
        )

    def anonymize_many(self, addresses: Sequence[str]) -> list[str]:
        """Anonymize a batch, sorted by prefix for cache locality.

        Addresses are processed in sorted integer order so shared
        subnet prefixes hit the bounded prefix cache instead of
        recomputing PRF digests; results come back in input order and
        are byte-identical to per-address :meth:`anonymize` calls.
        """
        parsed: list[tuple[int, int, int]] = []  # (version, value, idx)
        results: list[str] = [""] * len(addresses)
        for index, address in enumerate(addresses):
            value = _parse_ipv4(address)
            if value is not None:
                parsed.append((4, value, index))
                continue
            try:
                obj = ipaddress.ip_address(address)
            except ValueError as exc:
                raise AnonymizationError(
                    f"invalid IP address {address!r}"
                ) from exc
            parsed.append((obj.version, int(obj), index))
        parsed.sort()
        previous_version = 0
        previous_value = -1
        previous_mapped = -1
        previous_result = ""
        for version, value, index in parsed:
            if version == previous_version and value == previous_value:
                results[index] = previous_result
                continue
            width = 32 if version == 4 else 128
            if version == previous_version and previous_mapped >= 0:
                # Reuse the shared-prefix output bits of the sorted
                # predecessor, rounded down to digest (byte)
                # granularity; only deeper byte blocks are evaluated.
                diff = value ^ previous_value
                shared = (width - diff.bit_length()) & ~7
                mapped_int = self._anonymize_int(
                    value,
                    width,
                    shared,
                    previous_mapped >> (width - shared)
                    if shared
                    else 0,
                )
            else:
                mapped_int = self._anonymize_int(value, width)
            mapped = (
                _format_ipv4(mapped_int)
                if version == 4
                else str(ipaddress.IPv6Address(mapped_int))
            )
            results[index] = mapped
            previous_version = version
            previous_value = value
            previous_mapped = mapped_int
            previous_result = mapped
        return results

    @staticmethod
    def shared_prefix_length(a: str, b: str) -> int:
        """Length of the common bit prefix of two addresses."""
        pa = ipaddress.ip_address(a)
        pb = ipaddress.ip_address(b)
        if pa.version != pb.version:
            raise AnonymizationError(
                "cannot compare addresses of different versions"
            )
        width = 32 if pa.version == 4 else 128
        diff = int(pa) ^ int(pb)
        if diff == 0:
            return width
        return width - diff.bit_length()


def _parse_ipv4(address: str) -> int | None:
    """Fast dotted-quad parse; ``None`` if not a plain IPv4 string.

    ASCII digits only (``str.isdigit`` would admit ``"١"`` or
    ``"²"``), no leading zeros, each octet at most 255 — anything
    else falls through to :mod:`ipaddress`, which rejects it.
    """
    match = _IPV4.fullmatch(address)
    if match is None:
        return None
    a, b, c, d = map(int, match.groups())
    return (a << 24) | (b << 16) | (c << 8) | d


def _format_ipv4(value: int) -> str:
    return (
        f"{value >> 24}.{(value >> 16) & 255}."
        f"{(value >> 8) & 255}.{value & 255}"
    )
