"""The append-only audit trail and its chain verifier.

:class:`AuditTrail` accumulates hash-chained
:class:`~repro.observability.events.AuditEvent` records in memory
and, when given a path, mirrors each one as a JSONL line the moment
it is appended — the on-disk log is therefore always a prefix of the
in-memory chain and can be inspected (or verified) while the process
is still running.

Verification (:func:`verify_events` / :func:`verify_jsonl`) walks the
chain once and reports a :class:`ChainVerification` that **localizes
the first corrupted record**:

* a record whose stored digest does not match its recomputed digest
  has been *altered in place* (a bit flip anywhere in the line);
* a record whose ``previous_digest`` does not match its
  predecessor's digest marks a *splice* — records were removed,
  inserted or reordered at exactly that point;
* a record whose sequence number breaks the 0,1,2,… run is
  *misplaced* (caught even when digests were recomputed to match);
* a chain shorter than the expected length (or with a different tail
  digest) has been *truncated* — pure tail truncation leaves a valid
  prefix, so detecting it needs the expected length or tail digest
  the holder records out of band (``repro-ethics audit report``
  prints both for exactly this purpose).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Iterator
from pathlib import Path

from ..errors import SafeguardError
from .events import GENESIS_DIGEST, AuditEvent

__all__ = [
    "AuditTrail",
    "ChainVerification",
    "load_events",
    "verify_events",
    "verify_jsonl",
]


@dataclasses.dataclass(frozen=True)
class ChainVerification:
    """Outcome of a chain walk, localizing the first corruption.

    ``ok`` is True for an intact chain. Otherwise ``error_index`` is
    the 0-based position of the first bad record (equal to ``length``
    for truncation detected against an expected length) and
    ``reason`` says what is wrong with it. ``length`` and
    ``tail_digest`` describe the verified chain and are what a
    holder records out of band to make tail truncation detectable.
    """

    ok: bool
    length: int
    tail_digest: str
    error_index: int | None = None
    reason: str = ""

    def describe(self) -> str:
        """One human-readable status line."""
        if self.ok:
            return (
                f"chain intact: {self.length} events, tail digest "
                f"{self.tail_digest[:16]}…"
            )
        return (
            f"chain CORRUPT at record {self.error_index}: {self.reason}"
        )


def verify_events(
    events: Iterable[AuditEvent],
    *,
    expected_length: int | None = None,
    expected_tail_digest: str | None = None,
) -> ChainVerification:
    """Walk *events* and localize the first corrupted record.

    This is the one chain walk of the system: besides
    :class:`AuditEvent` it verifies incident-bundle frame records and
    access-controller records — anything exposing ``sequence``,
    ``previous_digest``, ``digest`` and ``compute_digest()``. An
    iterator that raises :class:`~repro.errors.SafeguardError` for a
    record it cannot parse makes that record the first corruption,
    at its index.

    ``expected_length``/``expected_tail_digest`` are the out-of-band
    anchors that make tail truncation detectable; without them a
    valid prefix of a longer chain verifies clean (and is reported as
    such).
    """
    previous = GENESIS_DIGEST
    count = 0
    reason = ""
    try:
        for index, event in enumerate(events):
            if event.sequence != index:
                reason = (
                    f"sequence {event.sequence} where {index} was "
                    "expected — record removed, inserted or reordered"
                )
            elif event.previous_digest != previous:
                reason = (
                    "previous-digest mismatch — the chain was "
                    "spliced (records removed, inserted or "
                    "reordered) at this point"
                )
            elif event.compute_digest() != event.digest:
                reason = (
                    "stored digest does not match the record "
                    "content — the record was altered in place"
                )
            if reason:
                break
            previous = event.digest
            count = index + 1
    except SafeguardError as exc:
        reason = f"{exc} — the record was altered in place"
    if not reason and expected_length not in (None, count):
        reason = (
            f"chain has {count} events where {expected_length} "
            "were recorded — the log was truncated"
        )
    if not reason and expected_tail_digest not in (None, previous):
        reason = (
            "tail digest does not match the recorded anchor — "
            "the log was truncated or rewritten"
        )
    if reason:
        return ChainVerification(
            ok=False,
            length=count,
            tail_digest=previous,
            error_index=count,
            reason=reason,
        )
    return ChainVerification(
        ok=True, length=count, tail_digest=previous
    )


def _read_log(path: str | Path) -> Iterator[AuditEvent]:
    """The line reader shared by :func:`load_events` and
    :func:`verify_jsonl`.

    Reads the whole file now — an unreadable file raises
    :class:`~repro.errors.SafeguardError` here — and returns an
    iterator parsing one non-blank line per step. A line that is not
    UTF-8 or not a valid record raises ``SafeguardError`` naming its
    line number.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SafeguardError(
            f"cannot read audit log {path}: {exc}"
        ) from exc

    def parse() -> Iterator[AuditEvent]:
        for number, line in enumerate(data.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                yield AuditEvent.from_json(line.decode("utf-8"))
            except (UnicodeDecodeError, SafeguardError) as exc:
                raise SafeguardError(
                    f"{path} line {number}: {exc}"
                ) from exc

    return parse()


def load_events(path: str | Path) -> list[AuditEvent]:
    """Read every event from a JSONL audit log.

    Raises :class:`~repro.errors.SafeguardError` on an unreadable
    file or a line that does not parse (the error message carries
    the line number, so even a bit flip that destroys the JSON or
    its UTF-8 encoding is localized).
    """
    return list(_read_log(path))


def verify_jsonl(
    path: str | Path,
    *,
    expected_length: int | None = None,
    expected_tail_digest: str | None = None,
) -> ChainVerification:
    """Verify an on-disk JSONL audit log, localizing corruption.

    A line that no longer parses (a bit flip can break the JSON
    itself) is reported as the corrupt record at its 0-based index
    rather than raising.
    """
    return verify_events(
        _read_log(path),
        expected_length=expected_length,
        expected_tail_digest=expected_tail_digest,
    )


class AuditTrail:
    """Append-only, hash-chained audit trail with optional JSONL sink.

    With a ``path`` every appended event is immediately written and
    flushed as one JSONL line, so the on-disk log is always a prefix
    of the in-memory chain. The trail never stores wall time — see
    :mod:`repro.observability.events` for why.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._events: list[AuditEvent] = []
        self._path = Path(path) if path is not None else None
        self._sink = None
        if self._path is not None:
            try:
                self._sink = self._path.open(
                    "a", encoding="utf-8"
                )
            except OSError as exc:
                raise SafeguardError(
                    f"cannot open audit log {self._path}: {exc}"
                ) from exc

    @property
    def path(self) -> Path | None:
        """The JSONL sink path, if the trail persists to disk."""
        return self._path

    def event(
        self,
        category: str,
        action: str,
        subject: str = "",
        **detail: object,
    ) -> AuditEvent:
        """Append one chained event; returns the sealed record."""
        previous = (
            self._events[-1].digest
            if self._events
            else GENESIS_DIGEST
        )
        event = AuditEvent(
            sequence=len(self._events),
            category=category,
            action=action,
            subject=subject,
            detail=dict(detail),
            previous_digest=previous,
        ).sealed()
        self._events.append(event)
        if self._sink is not None:
            self._sink.write(event.to_json() + "\n")
            self._sink.flush()
        return event

    def __iter__(self) -> Iterator[AuditEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def tail_digest(self) -> str:
        """The digest anchoring the chain's current end."""
        return (
            self._events[-1].digest
            if self._events
            else GENESIS_DIGEST
        )

    def tail(self, count: int = 10) -> tuple[AuditEvent, ...]:
        """The last *count* events, oldest first."""
        if count < 1:
            raise SafeguardError("tail count must be positive")
        return tuple(self._events[-count:])

    def verify(self) -> ChainVerification:
        """Verify the in-memory chain (see :func:`verify_events`)."""
        return verify_events(self._events)

    def close(self) -> None:
        """Close the JSONL sink, if any; the trail stays readable."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def __enter__(self) -> "AuditTrail":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
