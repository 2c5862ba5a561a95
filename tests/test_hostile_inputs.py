"""Malformed audit logs and incident bundles give one typed error line.

Every externally supplied file must surface as a :class:`ReproError`
through the CLI's failure table — exit 1 with a single ``error:``
line on stderr, or a ``CORRUPT`` chain diagnosis — never a traceback.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli.main import main

_HEADER = {
    "bundle": "repro-incident",
    "deltas": {},
    "dropped": 0,
    "frames": 1,
    "kind": "manual",
    "plan": None,
    "sequence": 0,
    "tail_digest": "0" * 64,
    "version": 1,
}

_EVENT = {
    "sequence": 0,
    "category": "access",
    "action": "grant",
    "subject": "p-0",
    "detail": {},
    "previous_digest": "0" * 64,
    "digest": "0" * 64,
}


def _lines(*records: dict) -> bytes:
    return "".join(json.dumps(r) + "\n" for r in records).encode()


def _rechained_bundle(frame: dict) -> bytes:
    """A one-frame bundle whose digests were recomputed to match.

    The frame chain is keyless, so anyone can do this: an intact
    chain does not vouch for the shape of the frame inside it.
    """
    payload = {"frame": frame, "index": 0, "previous_digest": "0" * 64}
    digest = hashlib.blake2b(
        json.dumps(payload, sort_keys=True, separators=(",", ":"))
        .encode(),
        digest_size=32,
    ).hexdigest()
    return _lines(
        {**_HEADER, "tail_digest": digest}, {**payload, "digest": digest}
    )


CASES = {
    "bundle-header-only": (
        ["obs", "incident", "{path}", "--tail", "5"],
        _lines({"bundle": "repro-incident"}),
    ),
    "bundle-record-without-frame": (
        ["obs", "incident", "{path}", "--tail", "5"],
        _lines(_HEADER, {"index": 0}),
    ),
    "bundle-frame-missing-keys": (
        ["obs", "incident", "{path}", "--tail", "5"],
        _rechained_bundle({"kind": "event"}),
    ),
    "bundle-not-utf8": (
        ["obs", "incident", "{path}"],
        _lines(_HEADER)[:-2] + b'\xff"}\n',
    ),
    "audit-detail-not-object": (
        ["audit", "tail", "{path}"],
        _lines({**_EVENT, "detail": [1]}),
    ),
    "audit-category-not-string": (
        ["audit", "report", "{path}"],
        _lines({**_EVENT, "category": ["a"]}),
    ),
    "audit-tail-not-utf8": (
        ["audit", "tail", "{path}"],
        _lines(_EVENT).replace(b"p-0", b"p-\xff"),
    ),
    "audit-report-not-utf8": (
        ["audit", "report", "{path}"],
        _lines(_EVENT).replace(b"p-0", b"p-\xff"),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_input_exits_1_with_one_line(case, tmp_path, capsys):
    argv, content = CASES[case]
    path = tmp_path / "input.jsonl"
    path.write_bytes(content)
    code = main([arg.format(path=path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1
    errors = captured.err.strip().splitlines()
    if errors:
        assert len(errors) == 1
        assert errors[0].startswith("error: ")
    else:
        assert "CORRUPT at record 0" in captured.out
