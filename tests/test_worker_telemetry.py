"""Cross-process telemetry: shard capture, replay, failure context.

The acceptance property of the worker-telemetry subsystem: a
``workers=N`` pipeline run under a recording observer produces an
audit chain whose *content* matches the ``workers=1`` chain — same
events, same order, same detail — differing only in the honest
``workers`` field of the run-started event. Failures in workers must
surface with stage/chunk context and leave a ``chunk-failed`` event
in the trail.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os

import pytest

from repro.datasets import BooterDatabaseGenerator
from repro.errors import SafeguardError
from repro.observability import (
    FlightRecorder,
    Observer,
    TelemetryShard,
    WorkerTelemetry,
    audit_event,
    load_events,
    metrics,
    observed,
    replay_shard,
    tracer,
)
from repro.pipeline import (
    SafeguardPipeline,
    StageFailure,
    default_stages,
)

ANON_KEY = hashlib.sha256(b"wtel-anon").digest()
PSEUDO_KEY = hashlib.sha256(b"wtel-pseudo").digest()
PASSPHRASE = "wtel-passphrase"


def booter_source(seed: int = 7, users: int = 40, days: int = 12):
    return BooterDatabaseGenerator(seed).iter_records(
        chunk_size=128, users=users, days=days
    )


def all_stages():
    return default_stages(
        anonymize_key=ANON_KEY,
        pseudonymize_key=PSEUDO_KEY,
        seal_passphrase=PASSPHRASE,
    )


def run_with_trail(tmp_path, workers: int):
    log_path = tmp_path / f"audit-w{workers}.jsonl"
    observer = Observer.recording(log_path)
    pipeline = SafeguardPipeline(
        all_stages(), workers=workers, chunk_size=128
    )
    with observed(observer):
        result = pipeline.run(booter_source())
    observer.trail.close()
    return result, observer, log_path


def chain_content(log_path) -> list[tuple]:
    """(category, action, subject, detail-sans-workers) per event."""
    content = []
    for event in load_events(log_path):
        detail = dict(event.detail)
        detail.pop("workers", None)
        content.append(
            (
                event.category,
                event.action,
                event.subject,
                json.dumps(detail, sort_keys=True),
            )
        )
    return content


# Module level so the spec pickles into ProcessPoolExecutor workers.
@dataclasses.dataclass(frozen=True)
class ExplodingSpec:
    """A stage that raises on a chosen chunk index."""

    explode_at: int = 1
    name = "explode"

    def build(self) -> "_ExplodingRunner":
        """Construct the live runner for this configuration."""
        return _ExplodingRunner(self)


@dataclasses.dataclass(frozen=True)
class CrashingSpec:
    """A stage whose worker process dies on every chunk."""

    name = "crash"

    def build(self) -> "_CrashingRunner":
        """Construct the live runner for this configuration."""
        return _CrashingRunner()


class _CrashingRunner:
    def apply(self, chunk, index):
        """Kill the worker without cleanup (only ever run in one)."""
        os._exit(13)


class _ExplodingRunner:
    def __init__(self, spec: ExplodingSpec) -> None:
        self._explode_at = spec.explode_at

    def apply(self, chunk, index):
        """Pass chunks through until the fated index, then raise."""
        if index == self._explode_at:
            raise ValueError("synthetic stage fault")
        return chunk, [], {}


class TestChainEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_chain_matches_serial(self, tmp_path, workers):
        serial_result, _, serial_log = run_with_trail(tmp_path, 1)
        parallel_result, _, parallel_log = run_with_trail(
            tmp_path, workers
        )
        assert serial_result.records == parallel_result.records
        serial_content = chain_content(serial_log)
        assert serial_content == chain_content(parallel_log)
        stage_events = [
            entry
            for entry in serial_content
            if entry[1] == "stage-applied"
        ]
        # one event per (chunk, stage): chunks * 4 stages
        assert stage_events
        assert len(stage_events) % 4 == 0

    def test_parallel_chain_verifies(self, tmp_path):
        _, observer, _ = run_with_trail(tmp_path, 4)
        assert observer.trail.verify().ok

    def test_stage_events_carry_counts_not_timings(self, tmp_path):
        _, _, log_path = run_with_trail(tmp_path, 2)
        for event in load_events(log_path):
            if event.action != "stage-applied":
                continue
            assert set(event.detail) == {
                "chunk",
                "records",
                "artifacts",
            }

    def test_parent_metrics_absorb_worker_spans(self, tmp_path):
        _, observer, _ = run_with_trail(tmp_path, 2)
        histograms = observer.metrics.snapshot()["histograms"]
        # Worker-side stage spans arrive via shard registry merges.
        assert "span.stage.anonymize.seconds" in histograms
        assert "span.stage.seal.seconds" in histograms
        span_names = {
            record.name for record in observer.tracer.finished
        }
        assert "stage.seal" in span_names


class TestShardMechanics:
    def test_shard_captures_and_replays(self, tmp_path):
        with TelemetryShard() as shard:
            audit_event("pipeline", "stage-applied", "demo", chunk=3)
            with tracer().span("stage.demo"):
                pass
            metrics().counter("pipeline.records").inc(9)
        telemetry = shard.telemetry()
        assert telemetry.events == (
            ("pipeline", "stage-applied", "demo", {"chunk": 3}),
        )
        assert [name for name, _, _ in telemetry.spans] == [
            "stage.demo"
        ]
        assert telemetry.metrics["counters"]["pipeline.records"] == 9

        observer = Observer.recording(tmp_path / "replay.jsonl")
        with observed(observer):
            replay_shard(telemetry)
        observer.trail.close()
        events = load_events(observer.trail.path)
        assert [event.action for event in events] == ["stage-applied"]
        assert events[0].detail == {"chunk": 3}
        snapshot = observer.metrics.snapshot()
        assert snapshot["counters"]["pipeline.records"] == 9
        # Span histograms come from the registry merge, not from
        # re-observing absorbed records (which would double-count).
        assert (
            snapshot["histograms"]["span.stage.demo.seconds"]["count"]
            == 1
        )

    def test_replay_into_disabled_observer_is_noop(self):
        shard = WorkerTelemetry(
            events=(("pipeline", "x", "", {}),),
            spans=(("a", 0, 0.1),),
            metrics={"counters": {"c": 1}},
        )
        replay_shard(shard)  # default observer is disabled
        assert not metrics().enabled

    def test_shard_restores_previous_observer(self, tmp_path):
        observer = Observer.recording(tmp_path / "outer.jsonl")
        with observed(observer):
            with TelemetryShard():
                audit_event("pipeline", "inner-only")
            audit_event("pipeline", "outer-event")
        observer.trail.close()
        actions = [
            event.action
            for event in load_events(observer.trail.path)
        ]
        assert actions == ["outer-event"]


class TestFailurePropagation:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_carries_stage_and_chunk(
        self, tmp_path, workers
    ):
        pipeline = SafeguardPipeline(
            (ExplodingSpec(explode_at=1),),
            workers=workers,
            chunk_size=128,
        )
        observer = Observer.recording(tmp_path / "fail.jsonl")
        with observed(observer):
            with pytest.raises(StageFailure) as excinfo:
                pipeline.run(booter_source())
        observer.trail.close()
        failure = excinfo.value
        assert failure.stage == "explode"
        assert failure.chunk_index == 1
        assert "synthetic stage fault" in failure.cause
        assert "chunk 1" in str(failure)
        events = load_events(observer.trail.path)
        failed = [
            event
            for event in events
            if event.action == "chunk-failed"
        ]
        assert len(failed) == 1
        assert failed[0].subject == "explode"
        assert failed[0].detail["chunk"] == 1
        assert "synthetic stage fault" in failed[0].detail["error"]
        assert observer.trail.verify().ok

    def test_failure_without_observer_still_structured(self):
        pipeline = SafeguardPipeline(
            (ExplodingSpec(explode_at=0),), chunk_size=128
        )
        with pytest.raises(StageFailure) as excinfo:
            pipeline.run(booter_source())
        assert excinfo.value.chunk_index == 0

    def test_stage_failure_pickles_by_field(self):
        import pickle

        failure = StageFailure("seal", 7, "disk full")
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.stage == "seal"
        assert clone.chunk_index == 7
        assert clone.cause == "disk full"
        assert str(clone) == str(failure)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers unpickle the crash stage from this test module, "
    "which only forked workers have imported",
)
class TestWorkerLoss:
    """A dead pipeline worker is a typed, audited, recorded failure."""

    def test_crash_is_typed_audited_and_dumped(self, tmp_path):
        pipeline = SafeguardPipeline(
            (CrashingSpec(),), workers=2, chunk_size=128
        )
        recorder = FlightRecorder(
            capacity=32, dump_dir=tmp_path / "flight"
        )
        observer = Observer.recording(tmp_path / "crash.jsonl").attach(
            flight=recorder
        )
        with observed(observer):
            with pytest.raises(SafeguardError) as excinfo:
                pipeline.run(booter_source())
        observer.trail.close()
        assert not isinstance(excinfo.value, StageFailure)
        message = str(excinfo.value)
        # Charged to the oldest chunk in flight, on every run.
        assert "worker process lost while running chunk 0" in message
        assert "BrokenProcessPool" in message
        lost = [
            event
            for event in load_events(observer.trail.path)
            if event.action == "worker-lost"
        ]
        assert [(e.category, e.detail["span"]) for e in lost] == [
            ("ops", "chunk 0")
        ]
        assert observer.trail.verify().ok
        assert [b.kind for b in recorder.incidents] == ["worker-lost"]
