"""E12 — safeguard pipeline throughput: baseline vs serial vs parallel.

Runs the full safeguard stack (IP anonymization → pseudonymisation →
text scrubbing → sealing) over a ≥50k-record synthetic booter dump
three ways:

* **baseline_serial** — a faithful replica of the pre-pipeline
  implementations, applied record-at-a-time: per-bit HMAC-SHA256 IP
  anonymization with an unbounded dict cache, a fresh HMAC key
  schedule per pseudonym, the five-sequential-``finditer`` scrubber,
  and a secure container whose keystream is HMAC-SHA256 with a
  per-byte Python XOR loop;
* **pipeline_serial** — :class:`repro.pipeline.SafeguardPipeline`
  with ``workers=1`` (keyed-BLAKE2s PRF + bounded LRU + sorted batch
  anonymization, single-alternation scrubber, BLAKE2b keystream with
  whole-integer XOR);
* **pipeline_workers2** — the same pipeline with ``workers=2``, the
  core count of the recording host.

Each pipeline configuration is timed after one untimed run over a
small dump of another seed, so the process is past its first-run
costs and no stage cache holds the timed dump's addresses.

Asserts the 2-worker pipeline clears **3×** the baseline throughput
and that its output is **byte-identical** to the serial pipeline,
then writes the numbers to ``BENCH_pipeline.json`` at the repo root
(see ``docs/performance.md`` for how to read it).

The baseline replica exists so the speedup is honest on any machine:
on a single-core host the parallel win is ~0 and the entire margin
must come from the hot-path optimizations; on a multi-core host the
worker pool stacks on top.
"""

from __future__ import annotations

import gc
import hashlib
import hmac
import ipaddress
import json
import os
import struct
import time
from pathlib import Path

import pytest

from repro.anonymization.scrub import (
    _CARD,
    _EMAIL,
    _IPV4,
    _IPV6,
    _PHONE,
    _valid_ipv6,
    luhn_valid,
)
from repro.datasets import BooterDatabaseGenerator
from repro.pipeline import SafeguardPipeline, default_stages

ANON_KEY = hashlib.sha256(b"bench-pipeline-anon").digest()
PSEUDO_KEY = hashlib.sha256(b"bench-pipeline-pseudo").digest()
PASSPHRASE = "bench-pipeline-passphrase"
USERS = 6500
DAYS = 90
CHUNK_SIZE = 2048
RESULT_PATH = Path(__file__).parent.parent / "BENCH_pipeline.json"

IP_FIELDS = ("last_login_ip", "target_ip")
EMAIL_FIELDS = ("email",)
ID_FIELDS = ("username",)
TEXT_FIELDS = ("text", "security_question")


# --------------------------------------------------------------------
# Baseline: replica of the seed (pre-pipeline) implementations.
# --------------------------------------------------------------------
class _BaselineIPAnonymizer:
    """Seed replica: per-bit HMAC-SHA256, unbounded dict cache."""

    def __init__(self, key: bytes) -> None:
        self._key = key
        self._cache: dict[tuple[int, int], int] = {}

    def _prf_bit(self, prefix_bits: int, prefix: int) -> int:
        cache_key = (prefix_bits, prefix)
        cached = self._cache.get(cache_key)
        if cached is not None:
            return cached
        message = prefix_bits.to_bytes(2, "big") + prefix.to_bytes(
            17, "big"
        )
        digest = hmac.new(self._key, message, hashlib.sha256).digest()
        bit = digest[0] & 1
        self._cache[cache_key] = bit
        return bit

    def anonymize(self, address: str) -> str:
        parsed = ipaddress.ip_address(address)
        width = 32 if parsed.version == 4 else 128
        value = int(parsed)
        result = 0
        for i in range(width):
            input_bit = (value >> (width - 1 - i)) & 1
            prefix = value >> (width - i) if i else 0
            result = (result << 1) | (input_bit ^ self._prf_bit(i, prefix))
        if parsed.version == 4:
            return str(ipaddress.IPv4Address(result))
        return str(ipaddress.IPv6Address(result))


def _baseline_pseudonym(key: bytes, identifier: str, domain: str) -> str:
    """Seed replica: fresh HMAC key schedule every call."""
    mac = hmac.new(
        key, f"{domain}\x00{identifier}".encode("utf-8"), hashlib.sha256
    )
    return mac.digest()[:12].hex()


_BASELINE_PATTERNS = (
    ("email", _EMAIL),
    ("ipv4", _IPV4),
    ("ipv6", _IPV6),
    ("card", _CARD),
    ("phone", _PHONE),
)


def _baseline_scrub(text: str) -> str:
    """Seed replica: five sequential finditer passes + overlap scan."""
    matches: list[tuple[int, int, str]] = []
    claimed: list[tuple[int, int]] = []
    for kind, pattern in _BASELINE_PATTERNS:
        for match in pattern.finditer(text):
            start, end = match.span()
            if any(
                start < c_end and end > c_start
                for c_start, c_end in claimed
            ):
                continue
            candidate = match.group()
            if kind == "ipv6" and not _valid_ipv6(candidate):
                continue
            if kind == "card" and not luhn_valid(candidate):
                continue
            if kind == "phone" and luhn_valid(candidate):
                continue
            matches.append((start, end, kind))
            claimed.append((start, end))
    if not matches:
        return text
    parts: list[str] = []
    cursor = 0
    for start, end, kind in sorted(matches):
        parts.append(text[cursor:start])
        parts.append(f"[redacted-{kind}]")
        cursor = end
    parts.append(text[cursor:])
    return "".join(parts)


def _baseline_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    blocks = []
    for counter in range((length + 31) // 32):
        blocks.append(
            hmac.new(
                key, nonce + struct.pack(">Q", counter), hashlib.sha256
            ).digest()
        )
    return b"".join(blocks)[:length]


def _baseline_seal(passphrase: str, plaintext: bytes) -> bytes:
    """Seed replica: HMAC keystream + per-byte Python XOR loop."""
    salt = hashlib.sha256(b"bench-salt").digest()[:16]
    nonce = hashlib.sha256(b"bench-nonce").digest()[:16]
    master = hashlib.pbkdf2_hmac(
        "sha256", passphrase.encode("utf-8"), salt, 200_000, 32
    )
    enc_key = hmac.new(master, b"encrypt", hashlib.sha256).digest()
    mac_key = hmac.new(master, b"mac", hashlib.sha256).digest()
    stream = _baseline_keystream(enc_key, nonce, len(plaintext))
    ciphertext = bytes(a ^ b for a, b in zip(plaintext, stream))
    header = b"REPROSS1" + salt + nonce
    tag = hmac.new(mac_key, header + ciphertext, hashlib.sha256).digest()
    return header + ciphertext + tag


def _run_baseline(records: list[dict]) -> tuple[list[dict], bytes]:
    """Record-at-a-time safeguards, seed implementations throughout."""
    anonymizer = _BaselineIPAnonymizer(ANON_KEY)
    out: list[dict] = []
    for record in records:
        record = dict(record)
        for field in IP_FIELDS:
            value = record.get(field)
            if isinstance(value, str) and value:
                record[field] = anonymizer.anonymize(value)
        for field in EMAIL_FIELDS:
            value = record.get(field)
            if isinstance(value, str) and "@" in value:
                local, _, domain = value.rpartition("@")
                token = _baseline_pseudonym(
                    PSEUDO_KEY, local + "@" + domain, "email"
                )
                record[field] = f"{token}@example.invalid"
        for field in ID_FIELDS:
            value = record.get(field)
            if isinstance(value, str) and value:
                record[field] = _baseline_pseudonym(
                    PSEUDO_KEY, value, field
                )
        for field in TEXT_FIELDS:
            value = record.get(field)
            if isinstance(value, str) and value:
                record[field] = _baseline_scrub(value)
        out.append(record)
    plaintext = json.dumps(
        out, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return out, _baseline_seal(PASSPHRASE, plaintext)


# --------------------------------------------------------------------
# The measurement
# --------------------------------------------------------------------
@pytest.fixture(scope="module")
def dump_records() -> list[dict]:
    records = [
        record
        for chunk in BooterDatabaseGenerator(2024).iter_records(
            chunk_size=CHUNK_SIZE, users=USERS, days=DAYS
        )
        for record in chunk
    ]
    assert len(records) >= 50_000, len(records)
    return records


def _pipeline(workers: int) -> SafeguardPipeline:
    return SafeguardPipeline(
        default_stages(
            anonymize_key=ANON_KEY,
            pseudonymize_key=PSEUDO_KEY,
            seal_passphrase=PASSPHRASE,
        ),
        workers=workers,
        chunk_size=CHUNK_SIZE,
    )


def _timed(label: str, fn):
    gc.collect()
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def _timed_after_warmup(label: str, pipeline, records):
    pipeline.run(
        BooterDatabaseGenerator(7).iter_records(
            chunk_size=CHUNK_SIZE, users=500, days=DAYS
        )
    )
    return _timed(label, lambda: pipeline.run(records))


def test_e12_pipeline_speedup_and_identity(dump_records):
    record_count = len(dump_records)

    # The fork-based run goes first, while the heap holds only the
    # input records: forking under a large heap pays copy-on-write
    # for every page the workers touch, which would bill the
    # baseline's leftover allocations to the pipeline.
    parallel_result, parallel_seconds = _timed_after_warmup(
        "workers2", _pipeline(2), dump_records
    )
    serial_result, serial_seconds = _timed_after_warmup(
        "serial", _pipeline(1), dump_records
    )
    (baseline_out, baseline_sealed), baseline_seconds = _timed(
        "baseline", lambda: _run_baseline(dump_records)
    )

    # Correctness before speed: parallel must be byte-identical to
    # serial, and both must actually have anonymized the dump.
    identical = (
        parallel_result.records == serial_result.records
        and parallel_result.artifacts == serial_result.artifacts
    )
    assert identical
    original_ips = {
        r["last_login_ip"]
        for r in dump_records
        if "last_login_ip" in r
    }
    surviving = {
        r.get("last_login_ip")
        for r in serial_result.records
        if "last_login_ip" in r
    }
    assert not (original_ips & surviving), "raw IP survived"
    assert len(baseline_out) == len(dump_records)
    assert baseline_sealed.startswith(b"REPROSS1")

    def throughput(seconds: float) -> float:
        return record_count / seconds

    speedup_serial = throughput(serial_seconds) / throughput(
        baseline_seconds
    )
    speedup_parallel = throughput(parallel_seconds) / throughput(
        baseline_seconds
    )
    report = {
        "dataset": {
            "kind": "booter",
            "seed": 2024,
            "users": USERS,
            "days": DAYS,
            "records": record_count,
        },
        "chunk_size": CHUNK_SIZE,
        "cpu_count": os.cpu_count(),
        "stages": ["anonymize", "pseudonymize", "scrub", "seal"],
        "baseline_serial": {
            "seconds": round(baseline_seconds, 4),
            "records_per_second": round(
                throughput(baseline_seconds), 1
            ),
        },
        "pipeline_serial": {
            "seconds": round(serial_seconds, 4),
            "records_per_second": round(throughput(serial_seconds), 1),
        },
        "pipeline_workers2": {
            "seconds": round(parallel_seconds, 4),
            "records_per_second": round(
                throughput(parallel_seconds), 1
            ),
        },
        "speedup_serial_over_baseline": round(speedup_serial, 2),
        "speedup_workers2_over_baseline": round(speedup_parallel, 2),
        "parallel_byte_identical_to_serial": identical,
        "note": (
            "baseline_serial replicates the pre-pipeline "
            "implementations (per-bit HMAC-SHA256 PRF, five-pass "
            "scrubber, per-byte XOR seal) applied record-at-a-time; "
            "the parallel run uses the batch executor's worker "
            "pool, and the coordinator (chunking, pickling and "
            "merging the in-memory dump) bounds what workers add"
        ),
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    assert speedup_parallel >= 3.0, report
