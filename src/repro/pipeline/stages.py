"""Pipeline stages: picklable specs + the runners they build.

A stage comes in two halves:

* a **spec** — a small frozen dataclass holding only primitive
  configuration (keys, field names, sizes). Specs are hashable and
  picklable, which is what lets the pipeline ship the *same* stage
  configuration to every worker process and memoise built runners
  per worker (see ``core._pool_apply``);
* a **runner** — the spec's :meth:`~StageSpec.build` product holding
  live state (PRF protos, caches, compiled regexes). Runners stay
  resident for a worker's lifetime so their caches warm up across
  chunks.

Every runner implements ``apply(chunk, index) -> (chunk, artifacts,
stats)``: the transformed record chunk, any sealed-blob artifacts
produced, and a flat dict of numeric counters that the pipeline sums
across chunks and workers. All stages are deterministic functions of
(spec, chunk) — never of worker count, chunk arrival order or cache
state — which is what makes parallel output byte-identical to
serial.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Protocol

from .._util import canonical_json
from ..anonymization import IPAnonymizer, Pseudonymizer, TextScrubber
from ..anonymization.ip import DEFAULT_CACHE_SIZE
from ..errors import SafeguardError
from ..safeguards.storage import SecureContainer

__all__ = [
    "AnonymizeIPsSpec",
    "PseudonymizeSpec",
    "STAGE_NAMES",
    "ScrubTextSpec",
    "SealSpec",
    "StageFailure",
    "StageRunner",
    "StageSpec",
    "default_stages",
]

#: CLI stage-selection names, in canonical application order.
STAGE_NAMES = ("anonymize", "pseudonymize", "scrub", "seal")


class StageFailure(SafeguardError):
    """A stage raised while processing one chunk.

    Carries the stage name and 0-based chunk index so a failure
    inside a pool worker process surfaces *where* it
    happened instead of a bare remote traceback, and so the
    coordinator can emit a localized ``pipeline/chunk-failed`` audit
    event before re-raising. ``__reduce__`` keeps the structured
    fields intact across the process-pool pickling boundary.
    """

    def __init__(
        self, stage: str, chunk_index: int, cause: str
    ) -> None:
        super().__init__(
            f"stage {stage!r} failed on chunk {chunk_index}: {cause}"
        )
        self.stage = stage
        self.chunk_index = chunk_index
        self.cause = cause

    def __reduce__(self):
        """Pickle by field so workers re-raise the same structure."""
        return (
            StageFailure,
            (self.stage, self.chunk_index, self.cause),
        )


class StageRunner(Protocol):
    """Structural type for built stages (see module docstring)."""

    def apply(
        self, chunk: list[dict], index: int
    ) -> tuple[list[dict], list[bytes], dict]:
        """Transform one chunk; return (chunk, artifacts, stats)."""


class StageSpec(Protocol):
    """Structural type for stage configuration dataclasses."""

    name: str

    def build(self) -> StageRunner:
        """Construct the live runner for this configuration."""


@dataclasses.dataclass(frozen=True)
class AnonymizeIPsSpec:
    """Prefix-preserving anonymization of IP-bearing record fields.

    Fields are rewritten in place via
    :meth:`~repro.anonymization.ip.IPAnonymizer.anonymize_many`, which
    sorts the chunk's addresses for PRF-cache locality; records
    missing a field (or holding a non-string) pass through untouched.
    """

    key: bytes
    fields: tuple[str, ...] = ("last_login_ip", "target_ip")
    cache_size: int = DEFAULT_CACHE_SIZE
    name = "anonymize"

    def build(self) -> _AnonymizeIPsRunner:
        """Construct the live runner for this configuration."""
        return _AnonymizeIPsRunner(self)


class _AnonymizeIPsRunner:
    def __init__(self, spec: AnonymizeIPsSpec) -> None:
        self._fields = spec.fields
        self._anonymizer = IPAnonymizer(
            spec.key, cache_size=spec.cache_size
        )

    def apply(
        self, chunk: list[dict], index: int
    ) -> tuple[list[dict], list[bytes], dict]:
        """Batch-anonymize every IP field present in the chunk."""
        anonymizer = self._anonymizer
        before = anonymizer.cache_info()
        locations: list[tuple[dict, str]] = []
        addresses: list[str] = []
        for record in chunk:
            for field in self._fields:
                value = record.get(field)
                if isinstance(value, str) and value:
                    locations.append((record, field))
                    addresses.append(value)
        if addresses:
            mapped = anonymizer.anonymize_many(addresses)
            for (record, field), replacement in zip(locations, mapped):
                record[field] = replacement
        after = anonymizer.cache_info()
        stats = {
            "addresses": len(addresses),
            "cache_hits": after.hits - before.hits,
            "cache_misses": after.misses - before.misses,
            "cache_evictions": after.evictions - before.evictions,
            "cache_size": after.size,
            "cache_maxsize": after.maxsize,
        }
        return chunk, [], stats


@dataclasses.dataclass(frozen=True)
class PseudonymizeSpec:
    """Keyed pseudonymisation of account-identifier fields.

    ``email_fields`` go through
    :meth:`~repro.anonymization.identifiers.Pseudonymizer.email`
    (local part replaced, domain neutralised); ``id_fields`` through
    :meth:`~repro.anonymization.identifiers.Pseudonymizer.pseudonym`
    with the field name as the HMAC domain, so a username and an
    email sharing text never collide.
    """

    key: bytes
    email_fields: tuple[str, ...] = ("email",)
    id_fields: tuple[str, ...] = ("username",)
    name = "pseudonymize"

    def build(self) -> _PseudonymizeRunner:
        """Construct the live runner for this configuration."""
        return _PseudonymizeRunner(self)


class _PseudonymizeRunner:
    def __init__(self, spec: PseudonymizeSpec) -> None:
        self._email_fields = spec.email_fields
        self._id_fields = spec.id_fields
        self._pseudonymizer = Pseudonymizer(spec.key)

    def apply(
        self, chunk: list[dict], index: int
    ) -> tuple[list[dict], list[bytes], dict]:
        """Replace identifier fields with keyed pseudonyms."""
        pseudonymizer = self._pseudonymizer
        replaced = 0
        for record in chunk:
            for field in self._email_fields:
                value = record.get(field)
                if isinstance(value, str) and "@" in value:
                    record[field] = pseudonymizer.email(value)
                    replaced += 1
            for field in self._id_fields:
                value = record.get(field)
                if isinstance(value, str) and value:
                    record[field] = pseudonymizer.pseudonym(
                        value, domain=field
                    )
                    replaced += 1
        return chunk, [], {"identifiers": replaced}


@dataclasses.dataclass(frozen=True)
class ScrubTextSpec:
    """Scrub free-text fields with the single-pass
    :class:`~repro.anonymization.scrub.TextScrubber`."""

    fields: tuple[str, ...] = ("text", "security_question")
    kinds: tuple[str, ...] = TextScrubber.KINDS
    name = "scrub"

    def build(self) -> _ScrubTextRunner:
        """Construct the live runner for this configuration."""
        return _ScrubTextRunner(self)


class _ScrubTextRunner:
    def __init__(self, spec: ScrubTextSpec) -> None:
        self._fields = spec.fields
        self._scrubber = TextScrubber(kinds=spec.kinds)

    def apply(
        self, chunk: list[dict], index: int
    ) -> tuple[list[dict], list[bytes], dict]:
        """Redact identifiers found in the chunk's text fields."""
        scrub = self._scrubber.scrub
        texts = 0
        redactions = 0
        for record in chunk:
            for field in self._fields:
                value = record.get(field)
                if isinstance(value, str) and value:
                    texts += 1
                    result = scrub(value)
                    if result.matches:
                        record[field] = result.text
                        redactions += len(result.matches)
        return chunk, [], {"texts": texts, "redactions": redactions}


@dataclasses.dataclass(frozen=True)
class SealSpec:
    """Seal each chunk into a :class:`SecureContainer` artifact.

    The chunk is serialised to canonical JSON and sealed with a
    **content-derived** salt and nonce (keyed BLAKE2b of the
    plaintext, SIV-style): a fixed salt per passphrase keeps the
    PBKDF2 subkey derivation memoised across chunks, and the nonce is
    unique per distinct chunk content. Sealing is therefore a pure
    function of (passphrase, chunk) — equal chunks seal to equal
    bytes in serial and parallel runs alike — at the cost of
    revealing when two chunks are identical, which is the right
    trade for a reproducible research pipeline.

    Records pass through unchanged; the sealed blob is emitted as the
    chunk's artifact.
    """

    passphrase: str
    name = "seal"

    def build(self) -> _SealRunner:
        """Construct the live runner for this configuration."""
        return _SealRunner(self)


class _SealRunner:
    def __init__(self, spec: SealSpec) -> None:
        if not spec.passphrase:
            raise SafeguardError("passphrase must be non-empty")
        self._container = SecureContainer(spec.passphrase)
        derivation_key = hashlib.sha256(
            b"repro-pipeline-seal\x00"
            + spec.passphrase.encode("utf-8")
        ).digest()
        self._salt = hashlib.blake2b(
            b"salt", key=derivation_key, digest_size=16
        ).digest()
        self._nonce_proto = hashlib.blake2b(
            key=derivation_key, digest_size=16
        )

    def apply(
        self, chunk: list[dict], index: int
    ) -> tuple[list[dict], list[bytes], dict]:
        """Seal the chunk; emit the container as an artifact."""
        plaintext = canonical_json(chunk).encode("utf-8")
        nonce_prf = self._nonce_proto.copy()
        nonce_prf.update(plaintext)
        sealed = self._container.seal(
            plaintext, salt=self._salt, nonce=nonce_prf.digest()
        )
        return (
            chunk,
            [sealed],
            {
                "plaintext_bytes": len(plaintext),
                "sealed_bytes": len(sealed),
            },
        )


def default_stages(
    *,
    anonymize_key: bytes,
    pseudonymize_key: bytes,
    seal_passphrase: str,
    names: tuple[str, ...] = STAGE_NAMES,
) -> tuple[StageSpec, ...]:
    """The canonical generate → anonymize → scrub → seal stage stack.

    ``names`` selects a subset (order is always canonical regardless
    of the order given). Unknown names raise, matching the CLI's
    ``--stages`` contract.
    """
    unknown = set(names) - set(STAGE_NAMES)
    if unknown:
        raise SafeguardError(
            f"unknown stage name(s): {', '.join(sorted(unknown))}"
        )
    specs: list[StageSpec] = []
    if "anonymize" in names:
        specs.append(AnonymizeIPsSpec(key=anonymize_key))
    if "pseudonymize" in names:
        specs.append(PseudonymizeSpec(key=pseudonymize_key))
    if "scrub" in names:
        specs.append(ScrubTextSpec())
    if "seal" in names:
        specs.append(SealSpec(passphrase=seal_passphrase))
    return tuple(specs)
