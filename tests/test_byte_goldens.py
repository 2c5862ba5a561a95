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

import pytest

from repro.cli.main import main
from repro.ops import RunContext, execute
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
#: A ``workers=2`` run: assessments fan out over worker chunks, the
#: repeated seed is served from the coordinator cache once the chunk
#: that computed it has merged, and the unknown op fails locally.
POOL_REQUEST_LINES = [
    {"op": "policy.assess", "args": {"seed": 1}},
    {"op": "policy.assess", "args": {"seed": 2}},
    {"op": "no-such-op"},
    {"op": "policy.assess", "args": {"seed": 3, "pack": "precautionary"}},
    {"op": "policy.assess", "args": {"seed": 1}},
    {"op": "policy.assess", "args": {"seed": 4}},
]

#: Digests of one ``batch --workers 2 --audit-log --flight-dir`` run
#: over :data:`POOL_REQUEST_LINES`, whatever the chunk size.
POOL_AUDIT_LOG_BLAKE2B = (
    "688dc1e274ee2e5ccf51be14273adf63"
    "e0fb76495e3ec35500de80242f54a295"
)
POOL_AUDIT_TAIL_DIGEST = (
    "8c24f4d761de342c07f6dced0be12ff2"
    "0e0f4a431ece753ab76f98676861af14"
)
POOL_BUNDLE_BODY_DIGEST = (
    "b854b06e31c35673de468a9d92e1e954"
    "e0bfb53a826240c7c906628e0bd32158"
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


def _write_requests(tmp_path, request_lines):
    requests = tmp_path / "requests.jsonl"
    requests.write_text(
        "".join(json.dumps(line) + "\n" for line in request_lines),
        encoding="utf-8",
    )
    return requests


def _log_and_bundle_digests(log, flight) -> tuple[str, str, str]:
    """The audit log's BLAKE2b, its tail digest and the digest of
    the one incident bundle's body."""
    log_bytes = log.read_bytes()
    tail = json.loads(log_bytes.splitlines()[-1])
    (bundle,) = sorted(flight.iterdir())
    lines = bundle.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    body = "\n".join(lines[: 1 + header["frames"]]) + "\n"
    return (
        _blake2b(log_bytes),
        tail["digest"],
        _blake2b(body.encode("utf-8")),
    )


def test_batch_audit_log_and_incident_bundle(tmp_path, capsys):
    requests = _write_requests(tmp_path, REQUEST_LINES)
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
    assert _log_and_bundle_digests(log, flight) == (
        AUDIT_LOG_BLAKE2B,
        AUDIT_TAIL_DIGEST,
        BUNDLE_BODY_DIGEST,
    )


@pytest.mark.parametrize("chunk_size", [None, 3])
def test_pool_batch_audit_log_and_incident_bundle(tmp_path, chunk_size):
    log = tmp_path / "audit.jsonl"
    flight = tmp_path / "flight"
    response = execute(
        "batch",
        {
            "requests": str(_write_requests(tmp_path, POOL_REQUEST_LINES)),
            "workers": 2,
            "chunk_size": chunk_size,
            "audit_log": str(log),
            "flight_dir": str(flight),
        },
    )
    assert response.exit_code == 1  # the unknown op fails its line
    cache = response.payload["cache"]
    # The repeated seed really took the coordinator-cache path: a
    # re-dispatch would have counted a fifth miss.
    assert cache["hits"] == 1
    assert cache["misses"] == 4
    assert _log_and_bundle_digests(log, flight) == (
        POOL_AUDIT_LOG_BLAKE2B,
        POOL_AUDIT_TAIL_DIGEST,
        POOL_BUNDLE_BODY_DIGEST,
    )


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
