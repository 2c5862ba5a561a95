"""Audit events: the hash-chained records of the tamper-evident trail.

An :class:`AuditEvent` is one immutable record of something the
safeguard machinery did — a container sealed, an access granted or
denied, a sharing agreement signed, a pipeline run finished, an REB
decision taken. Events are **hash-chained**: each event's digest is a
keyless BLAKE2b-256 over the canonical JSON of its payload, and that
payload includes the digest of the predecessor event. Altering,
removing or reordering any record therefore breaks every digest from
that point on, which is what lets
:func:`~repro.observability.log.verify_events` localize the *first*
corrupted record instead of merely reporting "something changed".

Events are deliberately **clock-free**: they carry a sequence number
and caller-supplied detail, never wall time, so the same run produces
the same chain byte for byte — the audit trail inherits the
repository's reproducible-by-seed contract (timings live in the
metrics/tracing side channel instead, which is not chained).
"""

from __future__ import annotations

import dataclasses
import json

from .._util import blake2b_hex, canonical_json
from ..errors import SafeguardError

__all__ = ["AuditEvent", "GENESIS_DIGEST", "encode_event"]

#: The ``previous_digest`` of the first event in a chain.
GENESIS_DIGEST = "0" * 64

_DIGEST_SIZE = 32  # BLAKE2b-256 → 64 hex characters

#: Every serialised field and the JSON type it must hold.
_FIELD_TYPES: dict[str, type] = {
    "sequence": int,
    "category": str,
    "action": str,
    "subject": str,
    "detail": dict,
    "previous_digest": str,
    "digest": str,
}
_TYPE_NAMES = {int: "an integer", str: "a string", dict: "an object"}


def encode_event(
    sequence: int,
    category: str,
    action: str,
    subject: str,
    detail: dict,
    previous_digest: str,
    digest: str | None = None,
) -> tuple[str, str]:
    """``(digest, JSONL line)`` of one event, encoding it once.

    The canonical JSON of a record sorts ``digest`` between
    ``detail`` and ``previous_digest``, so the payload splits into a
    head (``action``, ``category``, ``detail``) and a tail
    (``previous_digest``, ``sequence``, ``subject``) encoded one time
    each: the digest pre-image is ``head,tail`` and the line is the
    same two halves with the digest spliced between them —
    byte-identical to ``canonical_json`` of the whole record. Pass
    *digest* to write a stored (possibly stale) digest instead of
    the recomputed one.
    """
    head = canonical_json(
        {"action": action, "category": category, "detail": detail}
    )[:-1]
    tail = canonical_json(
        {
            "previous_digest": previous_digest,
            "sequence": sequence,
            "subject": subject,
        }
    )[1:]
    if digest is None:
        digest = blake2b_hex(f"{head},{tail}", _DIGEST_SIZE)
    return digest, f'{head},"digest":"{digest}",{tail}'


@dataclasses.dataclass(frozen=True)
class AuditEvent:
    """One hash-chained audit record.

    ``category`` names the subsystem (``storage``, ``access``,
    ``sharing``, ``retention``, ``escrow``, ``pipeline``, ``reb``,
    ``assessment``, …), ``action`` the operation, ``subject`` the
    thing acted on, and ``detail`` carries JSON-safe context (counts
    and flags — never secrets, plaintext identifiers or key
    material).
    """

    sequence: int
    category: str
    action: str
    subject: str = ""
    detail: dict = dataclasses.field(default_factory=dict)
    previous_digest: str = GENESIS_DIGEST
    digest: str = ""

    def _encode(self, digest: str | None = None) -> tuple[str, str]:
        return encode_event(
            self.sequence,
            self.category,
            self.action,
            self.subject,
            self.detail,
            self.previous_digest,
            digest,
        )

    def compute_digest(self) -> str:
        """Recompute this event's digest from its payload."""
        return self._encode()[0]

    def sealed(self) -> "AuditEvent":
        """A copy with ``digest`` filled in from the payload."""
        return dataclasses.replace(self, digest=self.compute_digest())

    def to_json(self) -> str:
        """One canonical JSONL line (payload plus stored digest)."""
        return self._encode(self.digest)[1]

    @classmethod
    def from_json(cls, line: str) -> "AuditEvent":
        """Parse one JSONL line back into an event.

        Raises :class:`~repro.errors.SafeguardError` when the line is
        not valid JSON (or nests too deep to parse), misses a required
        field or holds a field of the wrong type — callers verifying a
        file turn that into a localized corruption report.
        """
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise SafeguardError(
                f"audit record is not valid JSON: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise SafeguardError("audit record is not an object")
        record.setdefault("subject", "")
        record.setdefault("detail", {})
        for name, kind in _FIELD_TYPES.items():
            if name not in record:
                raise SafeguardError(
                    f"audit record missing field {name!r}"
                )
            value = record[name]
            if type(value) is bool or not isinstance(value, kind):
                raise SafeguardError(
                    f"audit record field {name!r} must be "
                    f"{_TYPE_NAMES[kind]}"
                )
        return cls(**{name: record[name] for name in _FIELD_TYPES})
