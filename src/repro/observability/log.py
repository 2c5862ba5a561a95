"""The append-only audit trail and its chain verifier.

:class:`AuditTrail` hash-chains
:class:`~repro.observability.events.AuditEvent` records, keeping only
the chain's tail, and when given a path writes them as JSONL lines
in blocks of :data:`BLOCK_LINES` whole lines (and on
:meth:`~AuditTrail.close`), continuing an existing log. The on-disk
log is therefore always a whole-line, verifiable prefix of the chain
that can be inspected while the process is still running; it lags
the chain by at most one unwritten block, which is also the most a
crash loses.

Verification (:func:`verify_events`, or :func:`read_chain` for an
on-disk log) walks the chain once and reports a
:class:`ChainVerification` that **localizes the first corrupted
record**:

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
import os
from collections import deque
from collections.abc import Iterable, Iterator
from pathlib import Path

from ..errors import InputError, SafeguardError
from .events import GENESIS_DIGEST, AuditEvent, encode_event

__all__ = [
    "AuditTrail",
    "BLOCK_LINES",
    "ChainVerification",
    "read_chain",
    "verify_events",
]

#: Lines a path-backed trail buffers before writing them as one block.
BLOCK_LINES = 256


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


def _read_log(
    path: str | Path | None, unwritten: bytes = b""
) -> Iterator[AuditEvent]:
    """The line reader shared by :func:`read_chain` and
    :class:`AuditTrail`.

    Reads the whole file at *path* (if any) now — an unreadable file
    raises :class:`~repro.errors.InputError` here — and returns
    an iterator parsing one non-blank line per step, of the file and
    then of *unwritten*. A line that is not UTF-8 or not a valid
    record raises ``SafeguardError`` naming its line number.
    """
    data = b""
    if path is not None:
        path = Path(path)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise InputError(
                f"cannot read audit log {path}: {exc}"
            ) from exc

    def parse() -> Iterator[AuditEvent]:
        for number, line in enumerate(
            (data + unwritten).splitlines(), start=1
        ):
            if not line.strip():
                continue
            try:
                yield AuditEvent.from_json(line.decode("utf-8"))
            except (UnicodeDecodeError, SafeguardError) as exc:
                raise SafeguardError(
                    f"{path} line {number}: {exc}"
                ) from exc

    return parse()


def _last_record(path: Path) -> tuple[int, str]:
    """``(next sequence, tail digest)`` continuing the log at *path*.

    Reads back only as far as the last non-blank line, which must be
    a whole record whose digest recomputes, else raises
    :class:`~repro.errors.SafeguardError`. Verifying the earlier
    lines is ``audit verify``'s job. A missing or blank file starts
    a new chain.
    """
    try:
        with path.open("rb") as handle:
            size = handle.seek(0, os.SEEK_END)
            window = 4096
            while True:
                handle.seek(max(0, size - window))
                data = handle.read()
                body = data.rstrip()
                cut = max(body.rfind(b"\n"), body.rfind(b"\r"))
                if cut >= 0 or window >= size:
                    break
                window *= 2
    except FileNotFoundError:
        return 0, GENESIS_DIGEST
    if not body:
        return 0, GENESIS_DIGEST
    try:
        if b"\n" not in data[len(body):]:
            raise SafeguardError("it is cut mid-line")
        event = AuditEvent.from_json(body[cut + 1:].decode("utf-8"))
        if event.compute_digest() != event.digest:
            raise SafeguardError("its digest does not match its content")
    except (UnicodeDecodeError, SafeguardError) as exc:
        raise SafeguardError(
            f"cannot continue audit log {path}: its last line is not "
            f"an intact record ({exc})"
        ) from exc
    return event.sequence + 1, event.digest


def read_chain(
    path: str | Path,
    *,
    expected_length: int | None = None,
    expected_tail_digest: str | None = None,
) -> tuple[list[AuditEvent], ChainVerification]:
    """Parse and verify an on-disk JSONL audit log in one pass.

    Returns the events the walk verified (those before the first
    corrupt record) and the :class:`ChainVerification` of
    :func:`verify_events`. A line that no longer parses (a bit flip
    can break the JSON itself) is reported as the corrupt record at
    its 0-based index; only an unreadable file raises
    (:class:`~repro.errors.InputError`).
    """
    events: list[AuditEvent] = []
    # Read now: inside the walk an unreadable file would be reported
    # as a corrupt record 0 instead of raising.
    records = _read_log(path)

    def kept() -> Iterator[AuditEvent]:
        for event in records:
            events.append(event)
            yield event

    verification = verify_events(
        kept(),
        expected_length=expected_length,
        expected_tail_digest=expected_tail_digest,
    )
    return events[: verification.length], verification


class AuditTrail:
    """Append-only, hash-chained audit trail with optional JSONL sink.

    Its state is the next sequence number, the tail digest and the
    unwritten lines. With a ``path`` the lines are written (then
    flushed) as one block every :data:`BLOCK_LINES` events and on
    :meth:`close`, and an existing log is continued
    (:func:`_last_record`); without one the unwritten lines are the
    whole log. Iteration, :meth:`tail` and :meth:`verify` read the log
    back. Each event is encoded once
    (:func:`~repro.observability.events.encode_event`) for both its
    digest and its line; no wall time is stored — see
    :mod:`repro.observability.events` for why.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._path = Path(path) if path is not None else None
        self._sink = None
        self._pending: list[str] = []
        self._sequence, self._tail = 0, GENESIS_DIGEST
        self._size = 0  # the file's size if this trail is its one writer
        if self._path is not None:
            try:
                self._sequence, self._tail = _last_record(self._path)
                self._sink = self._path.open("ab")
            except OSError as exc:
                raise SafeguardError(
                    f"cannot open audit log {self._path}: {exc}"
                ) from exc
            self._size = self._sink.tell()

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
        sequence, previous = self._sequence, self._tail
        digest, line = encode_event(
            sequence, category, action, subject, detail, previous
        )
        self._sequence, self._tail = sequence + 1, digest
        self._pending.append(line)
        if self._sink is not None and len(self._pending) >= BLOCK_LINES:
            self._write_block()
        return AuditEvent(
            sequence, category, action, subject, detail, previous, digest
        )

    def _unwritten(self) -> bytes:
        return "".join(f"{line}\n" for line in self._pending).encode()

    def _write_block(self) -> None:
        """Write every buffered line as one block and flush it."""
        block = self._unwritten()
        self._sink.write(block)
        self._sink.flush()
        self._size += len(block)
        self._pending = []

    def __iter__(self) -> Iterator[AuditEvent]:
        return _read_log(self._path, self._unwritten())

    def __len__(self) -> int:
        return self._sequence

    @property
    def tail_digest(self) -> str:
        """The digest anchoring the chain's current end."""
        return self._tail

    def tail(self, count: int = 10) -> tuple[AuditEvent, ...]:
        """The last *count* events, oldest first."""
        if count < 1:
            raise SafeguardError("tail count must be positive")
        return tuple(deque(self, maxlen=count))

    def verify(self) -> ChainVerification:
        """Verify the log against the trail's length and tail digest
        (see :func:`verify_events`)."""
        return verify_events(
            self,
            expected_length=self._sequence,
            expected_tail_digest=self._tail,
        )

    def anchors(self) -> dict:
        """A closed path-backed trail's run summary: the anchors
        ``audit verify`` takes, over the whole log, and
        ``chain_intact`` — an O(1) check, with no re-hash, that the
        file's size is its size at open plus the bytes written here,
        which a second writer or a truncation breaks."""
        path = self._path
        return {
            "audit_events": self._sequence,
            "audit_log": str(path),
            "chain_intact": path.is_file()
            and path.stat().st_size == self._size,
            "tail_digest": self._tail,
        }

    def close(self) -> None:
        """Write the buffered block and close the JSONL sink, if any.

        After this the on-disk log holds the whole chain; a later
        event is kept as an unwritten line.
        """
        if self._sink is not None:
            if self._pending:
                self._write_block()
            self._sink.close()
            self._sink = None

    def __enter__(self) -> "AuditTrail":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
