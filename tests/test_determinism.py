"""Byte-stable outputs: assessment transcripts and hash-seed invariance.

``policy.assess`` transcripts over 1000 seeds under both bundled packs
are pinned by digest, so any change to a verdict, note, action or
rendered float shows. The ``report`` and ``verify`` commands must
print the same bytes whatever ``PYTHONHASHSEED`` the interpreter
starts with.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from repro.ops import RunContext, emit_jsonl, execute

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: BLAKE2b-128 over the JSONL transcript of ``policy.assess`` for
#: seeds 0-999, one ``response.to_dict()`` line per seed.
ASSESS_GOLDENS = {
    "default": "e81cbaf2862ad829acd4ebd28ba4d413",
    "precautionary": "1a8cdc18dea8c6c0201476d71f11f8d3",
}


@pytest.mark.parametrize("pack", sorted(ASSESS_GOLDENS))
def test_assess_transcript_golden(pack):
    context = RunContext()
    digest = hashlib.blake2b(digest_size=16)
    for seed in range(1000):
        response = execute(
            "policy.assess", {"seed": seed, "pack": pack}, context=context
        )
        digest.update((emit_jsonl(response.to_dict()) + "\n").encode())
    assert digest.hexdigest() == ASSESS_GOLDENS[pack]


def _cli_output(command: str, hash_seed: int) -> bytes:
    env = {
        **os.environ,
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": str(hash_seed),
    }
    result = subprocess.run(
        [sys.executable, "-m", "repro", command],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr.decode()[-2000:]
    return result.stdout


@pytest.mark.parametrize("command", ["report", "verify"])
def test_output_independent_of_hash_seed(command):
    outputs = {seed: _cli_output(command, seed) for seed in (0, 1, 2)}
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
