"""Byte goldens for every canonical-JSON digest the system writes.

The audit chain, incident bundles, result-cache keys, policy-pack
digests and sealed pipeline containers are all BLAKE2b digests (or
BLAKE2b-keyed ciphertexts) over compact, key-sorted JSON. Any change
to how that JSON is spelled — separators, key order, escaping — moves
these literals, so they hold the bytes fixed while the code that
produces them is reorganised. The expected values are computed here
with :mod:`hashlib` directly, never with the library's own digest
helpers.
"""

from __future__ import annotations

import hashlib
import json

from repro.cli.main import main
from repro.ops import RunContext
from repro.ops.cache import cache_key
from repro.pipeline import SealSpec
from repro.policy import pack_digest
from repro.policy.defaults import DEFAULT_PACK, PRECAUTIONARY_PACK

REQUEST_LINES = [
    {"op": "stats"},
    {"op": "no-such-op"},
    {"op": "table1", "args": {"format": "csv"}},
    {"op": "legend"},
    {"op": "intervals"},
]

#: Digests of one serial ``batch --audit-log --flight-dir`` run over
#: :data:`REQUEST_LINES` (the unknown op degrades the batch, which
#: dumps one incident bundle).
AUDIT_LOG_BLAKE2B = (
    "e06ba8076b1da2139afb42f6ff0ee6bc"
    "c146fa7deca7f2a361b534ea8e4f9bae"
)
AUDIT_TAIL_DIGEST = (
    "d78fcf94bd8e5ddf7cba9c5480d96483"
    "112e91adadaf4eca1a42c0c84dd70250"
)
BUNDLE_BODY_DIGEST = (
    "839df338c67d8902a9e4ae63b87de855"
    "1c34e39c752cde7e213dcfdc1c207732"
)
CACHE_KEY = "d2626557a77ee343d56504497dbeb5d6"
PACK_DIGESTS = {
    "default": "222b6d42827685cb51d9c5f5b5ddf762",
    "precautionary": "d63b097c96bb5742f6be24a2be4404cb",
}
SEALED_BLAKE2B = (
    "b40a10e0da8ad895c8b47c1739e7f11d"
    "4156395c26ecd3da12fd825603eb1d28"
)


def _blake2b(data: bytes, size: int = 32) -> str:
    return hashlib.blake2b(data, digest_size=size).hexdigest()


def test_batch_audit_log_and_incident_bundle(tmp_path, capsys):
    requests = tmp_path / "requests.jsonl"
    requests.write_text(
        "".join(json.dumps(line) + "\n" for line in REQUEST_LINES),
        encoding="utf-8",
    )
    log = tmp_path / "audit.jsonl"
    flight = tmp_path / "flight"
    code = main(
        [
            "batch",
            str(requests),
            "--audit-log",
            str(log),
            "--flight-dir",
            str(flight),
        ]
    )
    capsys.readouterr()
    assert code == 1  # the unknown op fails its line
    log_bytes = log.read_bytes()
    assert _blake2b(log_bytes) == AUDIT_LOG_BLAKE2B
    tail = json.loads(log_bytes.splitlines()[-1])
    assert tail["digest"] == AUDIT_TAIL_DIGEST
    (bundle,) = sorted(flight.iterdir())
    lines = bundle.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    body = "\n".join(lines[: 1 + header["frames"]]) + "\n"
    assert _blake2b(body.encode("utf-8")) == BUNDLE_BODY_DIGEST


def test_cache_key():
    corpus = RunContext().corpus_digest()
    key = cache_key("policy.assess", {"pack": None, "seed": 7}, corpus)
    assert key == CACHE_KEY


def test_bundled_pack_digests():
    digests = {
        "default": pack_digest(DEFAULT_PACK),
        "precautionary": pack_digest(PRECAUTIONARY_PACK),
    }
    assert digests == PACK_DIGESTS


def test_sealed_pipeline_container():
    chunk = [
        {"ip": "192.0.2.17", "user": "u-0001", "note": "café"},
        {"ip": "198.51.100.4", "user": "u-0002", "note": ""},
    ]
    records, (sealed,), counters = SealSpec(
        passphrase="golden-passphrase"
    ).build().apply(chunk, 0)
    assert records == chunk
    assert counters["sealed_bytes"] == len(sealed)
    assert _blake2b(sealed) == SEALED_BLAKE2B
