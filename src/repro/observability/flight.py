"""The flight recorder: a bounded ring of recent telemetry frames.

When a batch run degrades or a worker process dies, the operator's
first question is *what was happening just before* — and the answer
must be as tamper-evident and reproducible as the audit chain
itself, because incident evidence about illicit-origin data handling
is exactly the kind of record a REB inspects. The
:class:`FlightRecorder` is the clock-free answer:

* **A bounded ring.** ``record_event`` / ``record_span`` /
  ``record_metric`` append small frames to a ``deque(maxlen=N)``;
  old frames fall off the front (the ``dropped`` counter stays
  honest about it). The recorder taps
  :func:`~repro.observability.runtime.audit_event` through the
  installed :class:`~repro.observability.runtime.Observer`, so every
  audit bracket the batch executor and ``WarmPool`` emit — including
  worker-shard events replayed in input order — lands in the ring
  without any call-site changes.
* **Configuration-invariant frames.** Frame details are normalized
  by projecting out :data:`RUN_SCOPE_DETAIL_KEYS` (today just
  ``workers``) — the keys that honestly describe the *execution
  configuration* rather than the *work*. The full-fidelity values
  stay in the audit chain; the ring keeps only what must be
  byte-identical across worker counts. Span frames carry name and
  depth, never seconds; timings are envelope material.
* **Self-contained incident bundles.** :meth:`incident` snapshots
  the ring into an :class:`IncidentBundle`: a JSONL **body** (one
  header line, then one hash-chained line per frame — BLAKE2b-256
  over canonical JSON, each frame binding its predecessor's digest,
  like the audit chain) carrying the normalized frames, the folded
  metric deltas and the logical dispatch plan, plus one **envelope**
  line for everything configuration- or wall-clock-flavoured: the
  free-text reason, the live registry snapshot, the caller's
  context. The body bytes of a deterministic failure are identical
  across batch worker counts 1/2/4 — the acceptance property
  ``tests/test_health_surface.py`` pins down — and
  :func:`verify_bundle_text` feeds the frame records to the audit
  chain walker, :func:`~repro.observability.log.verify_events`, so
  bundles and audit logs share one definition of "intact".

Bundles dump to ``dump_dir/incident-<seq>-<kind>.jsonl`` (sequence-
numbered, clock-free names) and each dump emits an ``obs/incident``
audit event so the chain records that evidence was produced.
"""

from __future__ import annotations

import dataclasses
import json
from collections import deque
from pathlib import Path

from .._util import blake2b_hex, canonical_json
from ..errors import SafeguardError
from .events import GENESIS_DIGEST
from .log import ChainVerification, verify_events

__all__ = [
    "FlightRecorder",
    "IncidentBundle",
    "RUN_SCOPE_DETAIL_KEYS",
    "load_bundle_text",
    "verify_bundle_text",
]

#: Audit-detail keys describing the execution configuration rather
#: than the work itself; projected out of ring frames so incident
#: bundles stay byte-identical across worker counts. The audit chain
#: keeps the full-fidelity values.
RUN_SCOPE_DETAIL_KEYS: frozenset[str] = frozenset({"workers"})

#: Ring entries kept when nothing else is configured.
DEFAULT_CAPACITY = 256

_BUNDLE_MARKER = "repro-incident"
_BUNDLE_VERSION = 1


#: The keys every bundle header carries (see :meth:`IncidentBundle.header`).
_HEADER_KEYS = (
    "bundle", "deltas", "dropped", "frames", "kind", "plan",
    "sequence", "tail_digest", "version",
)

#: The exact keys of each frame kind the ring records.
_FRAME_KEYS = {
    "event": {"kind", "category", "action", "subject", "detail"},
    "span": {"kind", "name", "depth"},
    "metric": {"kind", "name", "value"},
}


@dataclasses.dataclass(frozen=True)
class _FrameLink:
    """One chained frame record, shaped for the audit chain walker.

    ``sequence`` is the record's ``index``; the digest is BLAKE2b-256
    over the canonical ``{"frame", "index", "previous_digest"}``
    payload, so each frame binds its predecessor like an audit event.
    """

    sequence: object
    frame: dict
    previous_digest: object
    digest: object = ""

    @classmethod
    def from_record(cls, record: dict) -> "_FrameLink":
        """Read a dumped record; one without a well-formed frame is
        unparseable (the chain is keyless, so a valid digest alone
        does not vouch for the frame's shape)."""
        frame = record.get("frame")
        if not (
            isinstance(frame, dict)
            and frame.keys() == _FRAME_KEYS.get(str(frame.get("kind")))
        ):
            raise SafeguardError(
                "incident record has no well-formed frame object"
            )
        return cls(
            record.get("index"),
            frame,
            record.get("previous_digest"),
            record.get("digest"),
        )

    def compute_digest(self) -> str:
        """BLAKE2b-256 over the canonical chained-frame payload."""
        return blake2b_hex(
            canonical_json(
                {
                    "frame": self.frame,
                    "index": self.sequence,
                    "previous_digest": self.previous_digest,
                }
            ),
            32,
        )


def _normalized(frame: dict) -> dict:
    """One ring frame in its canonical, configuration-free form.

    Event frames are stored raw on the hot path; this projects out
    the :data:`RUN_SCOPE_DETAIL_KEYS`, sorts the detail keys and
    coerces values to JSON-safe forms. Span and metric frames are
    already canonical and pass through unchanged.
    """
    if frame["kind"] != "event":
        return frame
    return {
        "kind": "event",
        "category": frame["category"],
        "action": frame["action"],
        "subject": frame["subject"],
        "detail": {
            key: _json_safe(value)
            for key, value in sorted(frame["detail"].items())
            if key not in RUN_SCOPE_DETAIL_KEYS
        },
    }


def _json_safe(value: object) -> object:
    """Coerce a frame detail value to a canonical JSON-safe form."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {
            str(key): _json_safe(entry)
            for key, entry in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_json_safe(entry) for entry in value]
    return repr(value)


@dataclasses.dataclass(frozen=True)
class IncidentBundle:
    """One dumped incident: chained frames, plan, deltas, envelope.

    ``records`` are the chained frame lines (each
    ``{"digest", "frame", "index", "previous_digest"}``);
    ``tail_digest`` anchors the chain; ``plan`` is the logical
    dispatch plan (worker-count invariant); ``deltas`` are the folded
    ``metric`` frames; ``envelope`` holds everything excluded from
    the byte-stable body.
    """

    kind: str
    sequence: int
    records: tuple[dict, ...]
    dropped: int
    tail_digest: str
    plan: dict | None = None
    deltas: dict = dataclasses.field(default_factory=dict)
    envelope: dict = dataclasses.field(default_factory=dict)

    def header(self) -> dict:
        """The first body line: bundle identity and chain anchors."""
        return {
            "bundle": _BUNDLE_MARKER,
            "deltas": dict(self.deltas),
            "dropped": self.dropped,
            "frames": len(self.records),
            "kind": self.kind,
            "plan": self.plan,
            "sequence": self.sequence,
            "tail_digest": self.tail_digest,
            "version": _BUNDLE_VERSION,
        }

    def body_jsonl(self) -> str:
        """The byte-stable body: header line + chained frame lines.

        This is the artifact asserted byte-identical across batch
        worker counts; everything configuration-dependent lives in
        the envelope instead.
        """
        lines = [canonical_json(self.header())]
        lines.extend(
            canonical_json(record) for record in self.records
        )
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """BLAKE2b-256 over the body bytes (the out-of-band anchor)."""
        return blake2b_hex(self.body_jsonl(), 32)

    def to_jsonl(self) -> str:
        """The full dump: body plus one trailing envelope line."""
        return self.body_jsonl() + canonical_json(
            {"envelope": self.envelope}
        ) + "\n"


class FlightRecorder:
    """Bounded telemetry ring with incident-bundle dumps."""

    __slots__ = (
        "capacity",
        "dump_dir",
        "dropped",
        "incidents",
        "_frames",
        "_plan",
    )

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        dump_dir: str | Path | None = None,
    ) -> None:
        if capacity < 1:
            raise SafeguardError(
                "flight-recorder capacity must be at least 1"
            )
        self.capacity = capacity
        self.dump_dir = (
            Path(dump_dir) if dump_dir is not None else None
        )
        self.dropped = 0
        self.incidents: list[IncidentBundle] = []
        self._frames: deque[dict] = deque(maxlen=capacity)
        self._plan: dict | None = None

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def frames(self) -> tuple[dict, ...]:
        """A snapshot of the ring, normalized, oldest frame first."""
        return tuple(
            _normalized(frame) for frame in self._frames
        )

    def _append(self, frame: dict) -> None:
        if len(self._frames) == self.capacity:
            self.dropped += 1
        self._frames.append(frame)

    def record_event(
        self,
        category: str,
        action: str,
        subject: str,
        detail: dict,
    ) -> None:
        """Ring one audit event, raw.

        Called by :func:`~repro.observability.runtime.audit_event`
        for every emission — including worker-shard replays, which
        arrive in input order, so the ring content is invariant
        under the worker count. This is the instrumented hot path:
        one bounded-deque append of the raw tuple (the kwargs dict
        is freshly built per :func:`audit_event` call, so holding
        the reference is safe). Normalization — run-scope key
        projection, key sorting, JSON coercion — happens once per
        *snapshot* in :func:`_normalized`, not once per event,
        which is what keeps the flight tap within the 5% overhead
        budget of E16.
        """
        self._append(
            {
                "kind": "event",
                "category": category,
                "action": action,
                "subject": subject,
                "detail": detail,
            }
        )

    def record_span(self, name: str, depth: int) -> None:
        """Ring one finished span — name and depth, never seconds."""
        self._append(
            {"kind": "span", "name": name, "depth": depth}
        )

    def record_metric(
        self, name: str, value: int | float
    ) -> None:
        """Ring one deterministic metric delta.

        Only coordinator-side, worker-count-invariant deltas belong
        here (batch ok/failed counts, planned request totals) —
        timing metrics live in the registry, which each bundle
        carries in its envelope instead.
        """
        self._append(
            {"kind": "metric", "name": name, "value": value}
        )

    def note_plan(self, plan: dict) -> None:
        """Remember the current run's logical dispatch plan."""
        self._plan = plan

    def _chained(self) -> tuple[tuple[dict, ...], str]:
        """The ring as hash-chained records plus the tail digest."""
        records: list[dict] = []
        previous = GENESIS_DIGEST
        for index, raw in enumerate(self._frames):
            frame = _normalized(raw)
            digest = _FrameLink(index, frame, previous).compute_digest()
            records.append(
                {
                    "digest": digest,
                    "frame": frame,
                    "index": index,
                    "previous_digest": previous,
                }
            )
            previous = digest
        return tuple(records), previous

    def _deltas(self) -> dict:
        """Metric frames currently ringed, folded to sorted sums."""
        totals: dict[str, int | float] = {}
        for frame in self._frames:
            if frame["kind"] != "metric":
                continue
            name = frame["name"]
            totals[name] = totals.get(name, 0) + frame["value"]
        return dict(sorted(totals.items()))

    def incident(
        self, kind: str, reason: str = "", **context: object
    ) -> IncidentBundle:
        """Snapshot the ring into a bundle; dump and chain-log it.

        *kind* is the short machine category (``worker-lost``,
        ``batch-error``, ``batch-degraded``, ``stage-failure``,
        ``manual``); *reason* and **context** are envelope material —
        free text and configuration may vary across worker counts,
        the body may not. The registry snapshot of the installed
        observer rides in the envelope too. Emits one
        ``obs/incident`` audit event *after* snapshotting, so the
        evidence trail records the dump without the dump recording
        itself.
        """
        from .runtime import audit_event, metrics

        records, tail_digest = self._chained()
        envelope: dict = {
            "context": {
                key: _json_safe(value)
                for key, value in sorted(context.items())
            },
            "reason": reason,
            "registry": metrics().snapshot(),
        }
        bundle = IncidentBundle(
            kind=kind,
            sequence=len(self.incidents),
            records=records,
            dropped=self.dropped,
            tail_digest=tail_digest,
            plan=self._plan,
            deltas=self._deltas(),
            envelope=envelope,
        )
        self.incidents.append(bundle)
        path: Path | None = None
        if self.dump_dir is not None:
            self.dump_dir.mkdir(parents=True, exist_ok=True)
            path = self.dump_dir / (
                f"incident-{bundle.sequence:03d}-{kind}.jsonl"
            )
            path.write_text(bundle.to_jsonl(), encoding="utf-8")
        audit_event(
            "obs",
            "incident",
            subject=kind,
            frames=len(records),
            sequence=bundle.sequence,
            digest=bundle.digest(),
        )
        return bundle


def load_bundle_text(text: str) -> tuple[dict, list[dict], dict]:
    """Parse a dumped bundle: (header, frame records, envelope).

    Raises :class:`~repro.errors.SafeguardError` on structural
    damage (bad JSON, a missing marker or header key, a non-object
    envelope); chain damage is the verifier's department.
    """
    header: dict | None = None
    records: list[dict] = []
    envelope: dict = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            body = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SafeguardError(
                f"incident bundle line {number} is not JSON: {exc}"
            ) from exc
        if not isinstance(body, dict):
            raise SafeguardError(
                f"incident bundle line {number} must be an object"
            )
        if header is None:
            if body.get("bundle") != _BUNDLE_MARKER:
                raise SafeguardError(
                    "not an incident bundle: first line lacks the "
                    f"{_BUNDLE_MARKER!r} marker"
                )
            missing = [key for key in _HEADER_KEYS if key not in body]
            if missing:
                raise SafeguardError(
                    "incident bundle header lacks "
                    f"{', '.join(missing)}"
                )
            if type(body["frames"]) is not int or not isinstance(
                body["tail_digest"], str
            ):
                raise SafeguardError(
                    "incident bundle header needs an integer frames "
                    "count and a string tail_digest"
                )
            header = body
        elif "envelope" in body:
            envelope = body["envelope"]
            if not isinstance(envelope, dict):
                raise SafeguardError(
                    f"incident bundle line {number}: the envelope "
                    "must be an object"
                )
        else:
            records.append(body)
    if header is None:
        raise SafeguardError("incident bundle is empty")
    return header, records, envelope


def verify_bundle_text(text: str) -> ChainVerification:
    """Re-walk a dumped bundle's frame chain, localizing damage.

    The frame records go through the audit chain walker
    (:func:`~repro.observability.log.verify_events`), so the
    diagnosis vocabulary is the audit verifier's: an intact bundle
    reports its length and tail digest; an altered, spliced or
    truncated one names the first bad record, and a record without
    a frame object is corrupt at its index. The header's ``frames``
    count and ``tail_digest`` are the built-in out-of-band anchors,
    so dropping trailing frame lines is detected.
    """
    header, records, _ = load_bundle_text(text)
    return verify_events(
        map(_FrameLink.from_record, records),
        expected_length=header["frames"],
        expected_tail_digest=header["tail_digest"],
    )
