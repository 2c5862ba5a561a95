"""Tests for the tamper-evident audit trail, metrics and tracing.

The contract under test (see ``docs/observability.md``):

* a hash-chained audit log whose verifier *localizes* the first
  corrupted record and names the kind of tampering;
* truncation detectable through the out-of-band length / tail-digest
  anchors, since a pure hash chain cannot see a clean prefix cut;
* metrics and tracing that cost near-nothing when disabled (the
  default observer), with shared null singletons;
* the process-wide :class:`Observer` switch installing and
  restoring cleanly;
* an end-to-end run: pipeline + REB simulation writing a JSONL log
  that ``repro-ethics audit verify`` accepts, and rejects with a
  localization after a single flipped byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
import timeit
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli.main import main as cli_main
from repro.errors import InputError, SafeguardError
from repro.observability import (
    GENESIS_DIGEST,
    NULL_METRICS,
    NULL_TRACER,
    AuditEvent,
    AuditTrail,
    MetricsRegistry,
    Observer,
    Tracer,
    audit_event,
    get_observer,
    metrics,
    observed,
    read_chain,
    set_observer,
    tracer,
    verify_events,
)
from repro.observability.log import BLOCK_LINES


def _chain(count: int = 6) -> AuditTrail:
    trail = AuditTrail()
    for index in range(count):
        trail.event("storage", "seal", subject=f"res-{index}", size=index)
    return trail


class TestChain:
    def test_intact_chain_verifies(self):
        trail = _chain()
        verification = trail.verify()
        assert verification.ok
        assert verification.length == 6
        assert verification.tail_digest == trail.tail_digest
        assert verification.error_index is None
        assert "intact" in verification.describe()

    def test_genesis_anchor(self):
        trail = _chain(1)
        assert trail.tail(1)[0].previous_digest == GENESIS_DIGEST

    def test_bit_flip_localized_in_place(self):
        events = list(_chain().tail(6))
        tampered = dataclasses.replace(
            events[3], detail={"size": 9999}
        )  # stored digest kept: content no longer matches it
        events[3] = tampered
        verification = verify_events(events)
        assert not verification.ok
        assert verification.error_index == 3
        assert "altered in place" in verification.reason

    def test_resealed_splice_localized(self):
        events = list(_chain().tail(6))
        forged = dataclasses.replace(
            events[2],
            detail={"size": 9999},
            previous_digest="f" * 64,
            digest="",
        ).sealed()  # recomputed digest, wrong predecessor link
        events[2] = forged
        verification = verify_events(events)
        assert not verification.ok
        assert verification.error_index == 2
        assert "spliced" in verification.reason

    def test_removal_breaks_sequence(self):
        events = list(_chain().tail(6))
        del events[2]
        verification = verify_events(events)
        assert not verification.ok
        assert verification.error_index == 2
        assert "removed, inserted or reordered" in verification.reason

    def test_reorder_breaks_sequence(self):
        events = list(_chain().tail(6))
        events[1], events[4] = events[4], events[1]
        verification = verify_events(events)
        assert not verification.ok
        assert verification.error_index == 1

    def test_truncation_caught_by_anchors(self):
        trail = _chain()
        full = trail.verify()
        truncated = list(trail.tail(6))[:4]
        # A clean prefix verifies on its own ...
        assert verify_events(truncated).ok
        # ... but not against the out-of-band anchors.
        by_length = verify_events(truncated, expected_length=full.length)
        assert not by_length.ok and "truncated" in by_length.reason
        by_tail = verify_events(
            truncated, expected_tail_digest=full.tail_digest
        )
        assert not by_tail.ok and "truncated" in by_tail.reason


class TestJsonlLog:
    def _write_log(self, path) -> None:
        with AuditTrail(path) as trail:
            for index in range(5):
                trail.event("access", "grant", subject=f"p-{index}")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        self._write_log(path)
        events, verification = read_chain(path)
        assert [e.sequence for e in events] == [0, 1, 2, 3, 4]
        assert verification.ok

    def test_json_breaking_flip_localized(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        self._write_log(path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:-1] + "]"  # no longer parses
        path.write_text("\n".join(lines) + "\n")
        events, verification = read_chain(path)
        assert not verification.ok
        assert verification.error_index == 2
        assert "valid JSON" in verification.reason
        assert [e.sequence for e in events] == [0, 1]

    def test_json_preserving_flip_localized(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        self._write_log(path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[3])
        record["subject"] = "p-999"  # digest left as recorded
        lines[3] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        events, verification = read_chain(path)
        assert not verification.ok
        assert verification.error_index == 3
        assert "altered in place" in verification.reason
        assert [e.sequence for e in events] == [0, 1, 2]

    def test_unreadable_log_raises(self, tmp_path):
        with pytest.raises(InputError):
            read_chain(tmp_path / "missing.jsonl")


class TestFlushPoint:
    """The on-disk log is a whole-line, verifiable prefix of the chain."""

    @pytest.mark.parametrize("count", [0, 3, BLOCK_LINES, BLOCK_LINES + 7])
    def test_open_log_is_a_verifiable_prefix(self, tmp_path, count):
        path = tmp_path / "audit.jsonl"
        trail = AuditTrail(path)
        for index in range(count):
            trail.event("access", "grant", subject=f"p-{index}")
        data = path.read_bytes()
        assert data == b"" or data.endswith(b"\n")  # whole lines only
        on_disk = read_chain(path)[1]
        assert on_disk.ok
        assert on_disk.length <= len(trail)
        # At most one unwritten block lags behind the chain.
        assert len(trail) - on_disk.length < BLOCK_LINES
        trail.close()
        closed = read_chain(path)[1]
        assert closed.ok
        assert closed.length == len(trail) == count
        assert closed.tail_digest == trail.tail_digest
        assert closed == trail.verify()

    def test_event_after_close_stays_in_memory(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        trail = AuditTrail(path)
        trail.event("access", "grant")
        trail.close()
        trail.event("access", "revoke")
        assert len(trail) == 2 and trail.verify().ok
        assert read_chain(path)[1].length == 1


class TestStatelessTrail:
    """A trail is its sequence, tail digest and unwritten lines."""

    @staticmethod
    def _peak(path, count: int) -> int:
        import tracemalloc

        tracemalloc.start()
        try:
            with AuditTrail(path) as trail:
                for index in range(count):
                    trail.event("access", "grant", subject=f"p-{index}")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_the_chain(self, tmp_path):
        small = self._peak(tmp_path / "small.jsonl", 2_000)
        large = self._peak(tmp_path / "large.jsonl", 20_000)
        assert large < 2 * small, (small, large)

    def test_reads_back_through_the_log(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        trail = AuditTrail(path)
        for index in range(BLOCK_LINES + 3):
            trail.event("access", "grant", subject=f"p-{index}")
        # Written block plus unwritten lines, without a flush.
        assert read_chain(path)[1].length == BLOCK_LINES
        assert [event.sequence for event in trail.tail(2)] == [
            BLOCK_LINES + 1,
            BLOCK_LINES + 2,
        ]
        assert trail.verify() == verify_events(
            list(trail), expected_length=BLOCK_LINES + 3
        )
        assert read_chain(path)[1].length == BLOCK_LINES
        trail.close()
        assert trail.verify() == read_chain(path)[1]

    def test_existing_log_is_continued(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with AuditTrail(path) as first:
            first.event("access", "grant")
            first.event("access", "read")
        with AuditTrail(path) as second:
            assert len(second) == 2
            assert second.tail_digest == first.tail_digest
            event = second.event("access", "revoke")
        assert event.sequence == 2
        assert event.previous_digest == first.tail_digest
        _, verification = read_chain(
            path,
            expected_length=len(second),
            expected_tail_digest=second.tail_digest,
        )
        assert verification.ok and verification.length == 3
        assert second.anchors()["chain_intact"] is True

    def test_last_line_longer_than_the_read_window(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with AuditTrail(path) as first:
            first.event("access", "grant", note="x" * 20_000)
        path.write_bytes(path.read_bytes() + b"\n\n")
        with AuditTrail(path) as second:
            second.event("access", "revoke")
        assert read_chain(
            path, expected_tail_digest=second.tail_digest
        )[1].length == 2

    def test_blank_log_starts_a_new_chain(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        path.write_bytes(b"\n  \n")
        with AuditTrail(path) as trail:
            trail.event("access", "grant")
        assert read_chain(path, expected_length=1)[1].ok

    def test_second_writer_breaks_chain_intact(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        trail = AuditTrail(path)
        trail.event("access", "grant")
        with path.open("a", encoding="utf-8") as other:
            other.write(
                AuditEvent(5, "access", "forged").sealed().to_json() + "\n"
            )
        trail.event("access", "revoke")
        trail.close()
        assert trail.anchors()["chain_intact"] is False
        assert not trail.verify().ok

    def test_truncation_breaks_chain_intact(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with AuditTrail(path) as trail:
            for index in range(3):
                trail.event("access", "grant", subject=f"p-{index}")
        assert trail.anchors()["chain_intact"] is True
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]))
        assert trail.anchors()["chain_intact"] is False


_RESERVED = {"self", "category", "action", "subject"}
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)
#: Text that stresses escaping: quotes, backslashes, control and
#: non-ASCII characters are all drawn often.
_TEXT = st.text(
    st.sampled_from('"\\\n\t\x00\x1f\x7fé€😀/ {}:,')
    | st.characters(),
    max_size=12,
)


def _canonical(obj) -> str:
    """Canonical JSON spelled with the json module directly."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class TestSplitEncoding:
    """One encode per event: the split halves equal the whole record."""

    @settings(max_examples=150, deadline=None)
    @given(
        category=_TEXT,
        action=_TEXT,
        subject=_TEXT,
        detail=st.dictionaries(
            _TEXT.filter(lambda key: key not in _RESERVED),
            _JSON_VALUES,
            max_size=5,
        ),
    )
    def test_written_line_is_the_canonical_record(
        self, category, action, subject, detail
    ):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "audit.jsonl"
            with AuditTrail(path) as trail:
                for _ in range(2):
                    trail.event(category, action, subject, **detail)
            lines = path.read_text(encoding="utf-8").splitlines()
            previous = GENESIS_DIGEST
            for sequence, line in enumerate(lines):
                payload = {
                    "action": action,
                    "category": category,
                    "detail": detail,
                    "previous_digest": previous,
                    "sequence": sequence,
                    "subject": subject,
                }
                digest = hashlib.blake2b(
                    _canonical(payload).encode("utf-8"), digest_size=32
                ).hexdigest()
                assert line == _canonical({**payload, "digest": digest})
                assert trail.tail(2)[sequence].digest == digest
                assert trail.tail(2)[sequence].to_json() == line
                previous = digest
            verification = read_chain(path)[1]
            assert verification.ok
            assert verification.length == 2
            assert verification.tail_digest == previous


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("records").inc(3)
        registry.counter("records").inc()
        registry.gauge("cache").set_max(5)
        registry.gauge("cache").set_max(2)  # keeps the max
        histogram = registry.histogram("seconds")
        histogram.observe(1.0)
        histogram.observe(3.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["records"] == 4
        assert snapshot["gauges"]["cache"] == 5
        assert snapshot["histograms"]["seconds"]["count"] == 2
        assert snapshot["histograms"]["seconds"]["total"] == 4.0
        assert registry.histogram("seconds").mean == 2.0

    def test_counter_rejects_negative(self):
        with pytest.raises(SafeguardError):
            MetricsRegistry().counter("x").inc(-1)

    def test_merge_semantics(self):
        ours = MetricsRegistry()
        ours.counter("records").inc(10)
        ours.gauge("cache").set_max(3)
        ours.histogram("seconds").observe(1.0)
        theirs = MetricsRegistry()
        theirs.counter("records").inc(5)
        theirs.gauge("cache").set_max(7)
        theirs.histogram("seconds").observe(5.0)
        ours.merge(theirs.snapshot())
        snapshot = ours.snapshot()
        assert snapshot["counters"]["records"] == 15  # counters add
        assert snapshot["gauges"]["cache"] == 7  # gauges take the max
        merged = snapshot["histograms"]["seconds"]
        assert merged["count"] == 2
        assert merged["min"] == 1.0 and merged["max"] == 5.0

    def test_null_registry_is_shared_and_inert(self):
        assert NULL_METRICS.counter("a") is NULL_METRICS.counter("b")
        assert NULL_METRICS.gauge("a") is NULL_METRICS.gauge("b")
        assert (
            NULL_METRICS.histogram("a") is NULL_METRICS.histogram("b")
        )
        NULL_METRICS.counter("a").inc(100)
        assert NULL_METRICS.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert not NULL_METRICS.enabled


class TestTracing:
    def test_spans_feed_metrics(self):
        registry = MetricsRegistry()
        active = Tracer(registry)
        with active.span("stage.seal"):
            with active.span("stage.seal.inner"):
                assert active.active_span == "stage.seal.inner"
            assert active.active_span == "stage.seal"
        assert active.active_span == ""
        summary = active.summary()
        assert summary["stage.seal"]["count"] == 1
        assert summary["stage.seal.inner"]["count"] == 1
        histograms = registry.snapshot()["histograms"]
        for name, entry in summary.items():
            histogram = histograms[f"span.{name}.seconds"]
            assert entry == {
                "count": histogram["count"],
                "seconds": histogram["total"],
            }
        # The inner span's time is part of the outer span's.
        assert (
            summary["stage.seal"]["seconds"]
            >= summary["stage.seal.inner"]["seconds"]
        )

    def test_many_spans_keep_no_per_span_state(self):
        active = Tracer(MetricsRegistry())
        for _ in range(10_000):
            with active.span("stage.seal"):
                pass
        assert active.summary()["stage.seal"]["count"] == 10_000
        # Only the registry and the (now empty) open-span stack.
        assert set(vars(active)) == {"_metrics", "_active"}
        assert active._active == []

    def test_null_tracer_shared_singleton(self):
        span_a = NULL_TRACER.span("a")
        assert span_a is NULL_TRACER.span("b")
        with span_a:
            pass
        assert NULL_TRACER.summary() == {}


class TestObserverSwitch:
    def test_default_observer_disabled(self):
        observer = get_observer()
        assert not observer.enabled
        assert observer.trail is None
        assert metrics() is NULL_METRICS
        assert tracer() is NULL_TRACER
        audit_event("storage", "seal", size=1)  # must be a no-op

    def test_observed_installs_and_restores(self):
        before = get_observer()
        with observed(Observer.recording()) as observer:
            assert get_observer() is observer
            audit_event("storage", "seal", size=1)
            assert len(observer.trail) == 1
            assert observer.trail.verify().ok
        assert get_observer() is before

    def test_set_observer_returns_previous(self):
        before = get_observer()
        recording = Observer.recording()
        previous = set_observer(recording)
        try:
            assert previous is before
            assert get_observer() is recording
        finally:
            set_observer(before)

    def test_instrumented_safeguards_emit(self):
        from repro.safeguards.retention import DataInventory, Sensitivity

        with observed(Observer.recording()) as observer:
            inventory = DataInventory()
            inventory.acquire(
                "dump-1", "booter dump", Sensitivity.TOXIC, today=0
            )
            inventory.sweep(today=10_000)
        actions = [e.action for e in observer.trail.tail(10)]
        assert "acquired" in actions
        assert "expired" in actions
        assert "destroyed" in actions
        assert observer.trail.verify().ok

    def test_disabled_overhead_is_nanoscale(self):
        # ~170 ns measured; the budget is ~30x that so the assertion
        # documents the order of magnitude without being flaky.
        per_call = (
            timeit.timeit(
                lambda: audit_event("storage", "seal", size=1),
                number=200_000,
            )
            / 200_000
        )
        assert per_call < 5e-6, f"disabled audit_event {per_call:.2e}s"


class TestCliEndToEnd:
    def _run_pipeline(self, log_path, capsys, *extra: str) -> dict:
        status = cli_main(
            [
                "pipeline",
                "--users",
                "20",
                "--days",
                "5",
                "--audit-log",
                str(log_path),
                *extra,
            ]
        )
        output = capsys.readouterr().out
        assert status == 0
        return json.loads(output)

    def test_pipeline_audit_log_verifies(self, tmp_path, capsys):
        log_path = tmp_path / "audit.jsonl"
        payload = self._run_pipeline(log_path, capsys)
        observability = payload["observability"]
        assert observability["chain_intact"] is True
        events, verification = read_chain(log_path)
        assert verification.ok
        assert observability["audit_events"] == len(events)
        assert cli_main(["audit", "verify", str(log_path)]) == 0
        assert (
            cli_main(
                [
                    "audit",
                    "verify",
                    str(log_path),
                    "--expect-length",
                    str(observability["audit_events"]),
                    "--expect-tail",
                    observability["tail_digest"],
                ]
            )
            == 0
        )
        capsys.readouterr()

    def test_span_counts_invariant_under_workers(
        self, tmp_path, capsys
    ):
        counts = []
        for workers in (1, 2):
            payload = self._run_pipeline(
                tmp_path / f"audit-w{workers}.jsonl",
                capsys,
                "--workers",
                str(workers),
            )
            spans = payload["observability"]["spans"]
            counts.append(
                {name: entry["count"] for name, entry in spans.items()}
            )
        assert counts[0] == counts[1]
        assert counts[0]["pipeline.run"] == 1
        assert counts[0]["stage.seal"] >= 1

    def test_flipped_byte_fails_cli_verify(self, tmp_path, capsys):
        log_path = tmp_path / "audit.jsonl"
        self._run_pipeline(log_path, capsys)
        lines = log_path.read_text().splitlines()
        record = json.loads(lines[0])
        record["action"] = "run-startled"
        lines[0] = json.dumps(record)
        log_path.write_text("\n".join(lines) + "\n")
        assert cli_main(["audit", "verify", str(log_path)]) == 1
        output = capsys.readouterr().out
        assert "#0" in output or "0" in output
        assert "altered in place" in output

    def test_anchor_flags_truncation(self, tmp_path, capsys):
        log_path = tmp_path / "audit.jsonl"
        payload = self._run_pipeline(log_path, capsys)
        expected = payload["observability"]["audit_events"]
        lines = log_path.read_text().splitlines()
        log_path.write_text("\n".join(lines[:-1]) + "\n")
        assert read_chain(log_path)[1].ok  # chain alone cannot tell
        status = cli_main(
            [
                "audit",
                "verify",
                str(log_path),
                "--expect-length",
                str(expected),
            ]
        )
        capsys.readouterr()
        assert status == 1

    def test_rerun_on_one_log_is_one_chain(self, tmp_path, capsys):
        from repro.ops import execute

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"op": "stats"}\n{"op": "legend"}\n', encoding="utf-8"
        )
        log_path = tmp_path / "audit.jsonl"
        summaries = [
            execute(
                "batch",
                {"requests": str(requests), "audit_log": str(log_path)},
            ).payload["observability"]
            for _ in range(2)
        ]
        first, second = summaries
        assert first["chain_intact"] and second["chain_intact"]
        assert second["audit_events"] == 2 * first["audit_events"]
        status = cli_main(
            [
                "audit",
                "verify",
                str(log_path),
                "--expect-length",
                str(second["audit_events"]),
                "--expect-tail",
                second["tail_digest"],
            ]
        )
        assert status == 0, capsys.readouterr().out

    def test_simulate_reb_audit_log(self, tmp_path, capsys):
        log_path = tmp_path / "reb.jsonl"
        status = cli_main(
            ["simulate-reb", "--seed", "3", "--audit-log", str(log_path)]
        )
        capsys.readouterr()
        assert status == 0
        events, verification = read_chain(log_path)
        assert verification.ok
        categories = {event.category for event in events}
        assert "reb" in categories
        actions = {event.action for event in events}
        assert {"triaged", "decision"} <= actions

    def test_audit_tail_and_report(self, tmp_path, capsys):
        log_path = tmp_path / "audit.jsonl"
        self._run_pipeline(log_path, capsys)
        assert cli_main(["audit", "tail", str(log_path)]) == 0
        tail_output = capsys.readouterr().out
        assert "pipeline/run-finished" in tail_output
        assert (
            cli_main(["audit", "report", str(log_path), "--json"]) == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["intact"] is True
        assert report["categories"]["pipeline"] >= 2

    def test_audit_verify_missing_file_errors(self, tmp_path, capsys):
        status = cli_main(
            ["audit", "verify", str(tmp_path / "missing.jsonl")]
        )
        captured = capsys.readouterr()
        assert status == 2  # a missing input, not a corrupt chain
        assert "error" in captured.err


class TestDeterminism:
    def test_same_seed_same_chain(self, tmp_path, capsys):
        digests = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            status = cli_main(
                [
                    "pipeline",
                    "--users",
                    "20",
                    "--days",
                    "5",
                    "--seed",
                    "11",
                    "--audit-log",
                    str(path),
                ]
            )
            capsys.readouterr()
            assert status == 0
            digests.append(read_chain(path)[1].tail_digest)
        assert digests[0] == digests[1]
