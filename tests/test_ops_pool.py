"""Tests for the warm worker pool and cache-aware batch dispatch.

Covers the contracts the warm-pool subsystem adds on top of the
batch executor: transcript byte-identity at any worker count with
warm pools and chunked submission (including the all-cache-hit
second run), the shared-cache protocol (a pure result computed by
one worker is a coordinator hit for an identical later request),
aggregated cache statistics, fail-fast validation that never spawns
a worker for an invalid batch, and the graceful-degradation path —
a crashed worker maps to :class:`~repro.errors.BatchError` naming
the failing request, and the pool rebuilds lazily on next use.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.errors import BatchError
from repro.ops import (
    BatchExecutor,
    ResultCache,
    auto_chunk_size,
    load_requests,
    shutdown_warm_pools,
    warm_pool,
)
from repro.ops.pool import WarmPool
from repro.ops.spec import OpResponse

REQUEST_LINES = [
    {"op": "stats"},
    {"op": "table1", "args": {"format": "csv"}},
    {"op": "legend"},
    {"op": "table1", "args": {"format": "csv"}},
    {"op": "evidence", "args": {"entry_id": "patreon"}},
    {"op": "intervals"},
]


@pytest.fixture
def requests_file(tmp_path):
    path = tmp_path / "requests.jsonl"
    path.write_text(
        "".join(json.dumps(line) + "\n" for line in REQUEST_LINES),
        encoding="utf-8",
    )
    return path


@pytest.fixture(autouse=True)
def isolated_warm_pools():
    """Every test starts and ends with no live warm pools."""
    shutdown_warm_pools()
    yield
    shutdown_warm_pools()


class TestAutoChunkSize:
    def test_targets_four_chunks_per_worker(self):
        assert auto_chunk_size(32, 4) == 2
        assert auto_chunk_size(64, 4) == 4

    def test_small_batches_keep_chunks_of_one(self):
        assert auto_chunk_size(3, 4) == 1
        assert auto_chunk_size(0, 4) == 1

    def test_huge_batches_hit_the_ceiling(self):
        assert auto_chunk_size(100_000, 2) == 32

    def test_never_below_one(self):
        assert auto_chunk_size(1, 16) == 1


class TestValidation:
    def test_rejects_zero_chunk_size(self):
        with pytest.raises(BatchError):
            BatchExecutor(workers=2, chunk_size=0)

    def test_rejects_zero_workers_on_pool(self):
        with pytest.raises(BatchError):
            WarmPool(0)


class TestResultCacheProtocol:
    def _response(self, text: str) -> OpResponse:
        return OpResponse(payload={"value": text}, text=text)

    def test_contains_does_not_count(self):
        # Dispatch planning probes with ``in``; only serving counts.
        cache = ResultCache()
        cache.put("k", self._response("v"))
        assert "k" in cache
        assert "absent" not in cache
        assert cache.hits == 0
        assert cache.misses == 0

    def test_export_merge_round_trip(self):
        # The coordinator folds the responses worker lines carry.
        pairs = [("a", self._response("A")), ("b", self._response("B"))]
        target = ResultCache()
        assert target.merge(pairs) == 2
        assert target.hits == 0 and target.misses == 0
        assert target.get("a").text == "A"
        assert target.get("b").text == "B"

    def test_merge_keeps_existing_entries(self):
        target = ResultCache()
        target.put("a", self._response("original"))
        merged = target.merge([("a", self._response("other"))])
        assert merged == 0
        assert target.get("a").text == "original"


class TestWarmChunkedTranscripts:
    @pytest.mark.parametrize(
        "workers, chunk_size", [(2, 1), (2, 3), (4, None)]
    )
    def test_byte_identical_and_no_cold_start_on_second_run(
        self, requests_file, workers, chunk_size
    ):
        requests = load_requests(requests_file)
        serial = BatchExecutor(workers=1).run(requests)
        executor = BatchExecutor(
            workers=workers, warm=True, chunk_size=chunk_size
        )
        first = executor.run(requests)
        assert first.text() == serial.text()
        # Second run on the same pool: everything is served from the
        # persistent coordinator cache, and the transcript must not
        # change — the all-hit dispatch plan is still byte-identical.
        second = executor.run(requests)
        assert second.text() == serial.text()
        assert second.summary["cache"]["misses"] == 0

    def test_chunked_no_cache_matches_serial(self, requests_file):
        requests = load_requests(requests_file)
        serial = BatchExecutor(workers=1, use_cache=False).run(
            requests
        )
        chunked = BatchExecutor(
            workers=2, use_cache=False, warm=True, chunk_size=2
        ).run(requests)
        assert chunked.text() == serial.text()
        assert chunked.summary["cache"]["enabled"] is False
        assert "hits" not in chunked.summary["cache"]


class TestSharedCache:
    def test_worker_result_becomes_coordinator_hit(self, tmp_path):
        """Worker A's pure result serves worker B's identical request.

        With one request per chunk and two workers, the first
        ``table1`` computes in a worker; the duplicate later in the
        file must be served by the coordinator from the merged
        shared cache, never re-dispatched.
        """
        path = tmp_path / "r.jsonl"
        path.write_text(
            '{"op": "table1", "args": {"format": "csv"}}\n'
            '{"op": "stats"}\n'
            '{"op": "table1", "args": {"format": "csv"}}\n'
        )
        result = BatchExecutor(
            workers=2, warm=True, chunk_size=1
        ).run(load_requests(path))
        cache = result.summary["cache"]
        assert cache["scope"] == "shared-warm"
        # Each dispatch counts one miss, so a re-dispatched duplicate
        # would read as a third miss.
        assert cache["hits"] == 1  # the duplicate
        assert cache["misses"] == 2  # table1 + stats

    def test_parallel_stats_match_serial_totals(self, requests_file):
        """Satellite fix: parallel batches report cache stats again."""
        requests = load_requests(requests_file)
        serial = BatchExecutor(workers=1).run(requests)
        parallel = BatchExecutor(workers=2, warm=True).run(requests)
        assert (
            parallel.summary["cache"]["hits"]
            == serial.summary["cache"]["hits"]
        )
        assert (
            parallel.summary["cache"]["misses"]
            == serial.summary["cache"]["misses"]
        )

    def test_summary_does_not_depend_on_the_worker_count(self, tmp_path):
        """One cache and one counter: a warm executor's ``cache``
        summary has the same members and counts at 1 and 2 workers,
        on the run that computes and on the run that hits."""
        path = tmp_path / "r.jsonl"
        path.write_text(
            '{"op": "legend"}\n'
            '{"op": "policy.assess", '
            '"args": {"pack": "precautionary", "seed": 3}}\n'
            '{"op": "no-such-op"}\n'
            '{"op": "legend"}\n',
            encoding="utf-8",
        )
        requests = load_requests(path)
        caches = {}
        for workers in (1, 2):
            executor = BatchExecutor(
                workers=workers, warm=True, chunk_size=1
            )
            caches[workers] = [
                executor.run(requests).summary["cache"] for _ in range(2)
            ]
        for serial, parallel in zip(caches[1], caches[2]):
            assert set(serial) == set(parallel) == {
                "enabled",
                "entries",
                "hits",
                "maxsize",
                "misses",
                "scope",
            }
            for member in ("entries", "hits", "misses"):
                assert serial[member] == parallel[member], member
        assert [c["misses"] for c in caches[2]] == [2, 0]
        assert [c["hits"] for c in caches[2]] == [1, 3]

    def test_second_batch_served_without_pool_traffic(
        self, requests_file
    ):
        requests = load_requests(requests_file)
        executor = BatchExecutor(workers=2, warm=True)
        executor.run(requests)
        second = executor.run(requests)
        cache = second.summary["cache"]
        assert cache["misses"] == 0
        assert cache["hits"] > 0
        assert second.summary["ok"] == len(requests)

    def test_warm_serial_reuses_cache_across_runs(
        self, requests_file
    ):
        requests = load_requests(requests_file)
        executor = BatchExecutor(workers=1, warm=True)
        first = executor.run(requests)
        second = executor.run(requests)
        assert first.summary["cache"]["scope"] == "warm"
        assert second.summary["cache"]["misses"] == 0
        assert second.summary["cache"]["hits"] == len(requests)
        assert second.text() == first.text()
        # Serial runs go through the one-worker pool's dispatch plan,
        # which serves everything locally and never builds an executor.
        assert warm_pool(1, True).live is False


class TestFreshWorkerContexts:
    def test_new_workers_do_not_inherit_coordinator_contexts(
        self, tmp_path
    ):
        """A worker forked after the coordinator served a request
        through the worker context inherits no result: the request
        is one miss, served by the worker."""
        from repro.ops import pool as pool_module

        served = pool_module._execute_chunk(
            ((0, "legend", {}, None),), False
        )
        assert served.lines[0]["ok"]
        shutdown_warm_pools()
        path = tmp_path / "r.jsonl"
        path.write_text('{"op": "legend"}\n', encoding="utf-8")
        result = BatchExecutor(workers=2, warm=True).run(
            load_requests(path)
        )
        assert result.summary["cache"]["hits"] == 0
        assert result.summary["cache"]["misses"] == 1


class TestChunkTelemetry:
    @pytest.mark.parametrize("chunk_size", [1, 3])
    def test_one_capture_per_chunk_merges_like_serial(
        self, requests_file, chunk_size
    ):
        """Workers ship one metrics snapshot per chunk: the merged
        registry counts each worker-side cache miss exactly once."""
        from repro.observability import Observer, observed

        requests = load_requests(requests_file)
        counters = {}
        for workers in (1, 2):
            observer = Observer.recording()
            with observed(observer):
                BatchExecutor(
                    workers=workers, chunk_size=chunk_size
                ).run(requests)
            counters[workers] = {
                name: value
                for name, value in observer.metrics.snapshot()[
                    "counters"
                ].items()
                if name.startswith("ops.cache.")
            }
            assert observer.trail.verify().ok
        assert counters[2] == counters[1] == {
            "ops.cache.hits": 1,
            "ops.cache.misses": 5,
        }


class TestPlannedKey:
    def test_worker_serves_under_the_planned_request(self, monkeypatch):
        """A chunk entry carries the built request in place of its
        args; the worker neither rebuilds nor rehashes it."""
        from repro.ops import kernel
        from repro.ops import pool as pool_module
        from repro.ops.batch import _batchable_operation
        from repro.ops.context import RunContext
        from repro.ops.spec import build_request

        built = build_request(_batchable_operation("legend"), {})

        def recomputed(*args, **kwargs):
            raise AssertionError("recomputed in the worker")

        monkeypatch.setattr(kernel, "build_request", recomputed)
        monkeypatch.setattr(kernel, "cache_key", recomputed)
        monkeypatch.setattr(RunContext, "cache_digest", recomputed)
        result = pool_module._execute_chunk(
            ((0, "legend", None, built),), False
        )
        assert result.lines[0]["ok"]

    def test_no_chunk_entry_carries_a_cache_key(
        self, requests_file, monkeypatch
    ):
        """Each request crosses the pipe once, as its built request
        or its raw args, and its cache key stays with the
        coordinator."""
        from repro.ops.batch import _batchable_operation
        from repro.ops.cache import cache_key
        from repro.ops.context import RunContext
        from repro.ops.spec import build_request

        submitted = []
        map_requests = WarmPool.map_requests

        def capture(self, chunks, telemetry, *, window):
            chunks = list(chunks)
            submitted.extend(chunks)
            return map_requests(self, chunks, telemetry, window=window)

        monkeypatch.setattr(WarmPool, "map_requests", capture)
        requests = load_requests(requests_file)
        result = BatchExecutor(workers=2).run(requests)
        assert all(line["ok"] for line in result.lines)
        ctx = RunContext()
        keys = set()
        for request in requests:
            operation = _batchable_operation(request.op)
            built = build_request(operation, request.args)
            keys.add(
                cache_key(
                    operation.name,
                    built,
                    ctx.cache_digest(operation, built),
                )
            )
        entries = [entry for chunk in submitted for entry in chunk]
        assert entries
        for entry in entries:
            assert not any(
                isinstance(field, str) and field in keys
                for field in entry
            )
            index, op, args, built = entry
            assert built is not None and args is None


class TestFailFastValidation:
    def test_invalid_batch_never_spawns_a_worker(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(
            '{"op": "no-such-op"}\n{"op": "batch", "args": {}}\n'
        )
        result = BatchExecutor(workers=4, warm=True).run(
            load_requests(path)
        )
        assert [line["ok"] for line in result.lines] == [
            False,
            False,
        ]
        assert "unknown operation" in result.lines[0]["error"]
        assert "not batchable" in result.lines[1]["error"]
        # The pool object exists, but no executor was ever built.
        assert warm_pool(4, True).live is False

    def test_mixed_batch_fails_invalid_lines_in_place(
        self, tmp_path
    ):
        path = tmp_path / "r.jsonl"
        path.write_text(
            '{"op": "stats"}\n'
            '{"op": "no-such-op"}\n'
            '{"op": "legend"}\n'
        )
        result = BatchExecutor(workers=2, warm=True).run(
            load_requests(path)
        )
        assert [line["ok"] for line in result.lines] == [
            True,
            False,
            True,
        ]
        serial = BatchExecutor(workers=1).run(load_requests(path))
        assert result.text() == serial.text()


def _crash_worker(chunk, telemetry):
    """A worker entry that dies without cleanup (test double)."""
    os._exit(13)


_FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the crash double reaches workers via fork inheritance",
)


@_FORK_ONLY
class TestWorkerLoss:
    def test_crash_maps_to_batch_error_with_request_index(
        self, requests_file, monkeypatch
    ):
        from repro.ops import pool as pool_module

        monkeypatch.setattr(
            pool_module, "_execute_chunk", _crash_worker
        )
        executor = BatchExecutor(workers=2, chunk_size=2)
        with pytest.raises(BatchError) as excinfo:
            executor.run(load_requests(requests_file))
        message = str(excinfo.value)
        assert "worker process lost" in message
        assert "requests 0-1" in message
        assert "rebuild" in message

    def test_pool_rebuilds_lazily_after_loss(
        self, requests_file, monkeypatch
    ):
        from repro.ops import pool as pool_module

        requests = load_requests(requests_file)
        serial = BatchExecutor(workers=1).run(requests)
        monkeypatch.setattr(
            pool_module, "_execute_chunk", _crash_worker
        )
        executor = BatchExecutor(
            workers=2, warm=True, use_cache=False
        )
        with pytest.raises(BatchError):
            executor.run(requests)
        pool = warm_pool(2, False)
        assert pool.live is False
        assert pool.rebuilds == 1
        monkeypatch.undo()
        # Next use rebuilds the executor transparently.
        recovered = executor.run(requests)
        assert recovered.text() == serial.text()
        assert pool.live is True

    def test_worker_loss_emits_audit_event(
        self, requests_file, monkeypatch, tmp_path
    ):
        from repro.observability import Observer, observed
        from repro.ops import pool as pool_module

        monkeypatch.setattr(
            pool_module, "_execute_chunk", _crash_worker
        )
        log = tmp_path / "audit.jsonl"
        observer = Observer.recording(log)
        executor = BatchExecutor(workers=2, use_cache=False)
        with observed(observer):
            with pytest.raises(BatchError):
                executor.run(load_requests(requests_file))
        observer.trail.close()
        from repro.observability import read_chain

        events, verification = read_chain(log)
        assert verification.ok
        actions = [event.action for event in events]
        assert "worker-lost" in actions

    def test_failed_batch_leaves_a_verifiable_log(
        self, requests_file, monkeypatch, tmp_path
    ):
        """The batch op writes the buffered block even when it raises."""
        from repro.observability import read_chain
        from repro.ops import execute
        from repro.ops import pool as pool_module

        monkeypatch.setattr(
            pool_module, "_execute_chunk", _crash_worker
        )
        log = tmp_path / "audit.jsonl"
        with pytest.raises(BatchError):
            execute(
                "batch",
                {
                    "requests": str(requests_file),
                    "workers": 2,
                    "audit_log": str(log),
                },
            )
        events, verification = read_chain(log)
        assert verification.ok
        assert verification.length == len(events)
        assert events[0].action == "batch-started"
        assert events[-1].action == "worker-lost"


def _write_requests(path, count: int):
    ops = ({"op": "stats"}, {"op": "legend"}, {"op": "intervals"})
    path.write_text(
        "".join(
            json.dumps(ops[index % len(ops)]) + "\n"
            for index in range(count)
        ),
        encoding="utf-8",
    )
    return path


def _assert_log_unchanged(log, payload: dict, before: bytes) -> None:
    """The closed log holds exactly the audited run's chain."""
    from repro.ops import execute

    assert log.read_bytes() == before
    observability = payload["observability"]
    verified = execute(
        "audit.verify",
        {
            "log": str(log),
            "expect_length": observability["audit_events"],
            "expect_tail": observability["tail_digest"],
        },
    )
    assert verified.payload["intact"], verified.text


class TestInheritedObserver:
    """Warm workers forked inside ``observed(...)`` forget its trail.

    A pool's workers fork on the first submission, inside whatever
    observer the coordinator has installed. Later runs without
    telemetry must not write into that (closed) audit log: each
    unaudited run below emits far more than one 256-line block of
    worker events, so an inherited trail would reach the file.
    """

    def test_unaudited_batches_leave_the_audit_log_unchanged(
        self, tmp_path
    ):
        from repro.ops import execute

        log = tmp_path / "audit.jsonl"
        args = {"workers": 2, "warm": True, "no_cache": True}
        audited = execute(
            "batch",
            {
                **args,
                "requests": str(
                    _write_requests(tmp_path / "audited.jsonl", 40)
                ),
                "audit_log": str(log),
            },
        )
        before = log.read_bytes()
        bulk = _write_requests(tmp_path / "bulk.jsonl", 400)
        for _ in range(2):
            execute("batch", {**args, "requests": str(bulk)})
        assert warm_pool(2, False).rebuilds == 0
        _assert_log_unchanged(log, audited.payload, before)

    def test_unaudited_pipelines_leave_the_audit_log_unchanged(
        self, tmp_path
    ):
        from repro.ops import execute
        from repro.ops.pool import active_pools

        log = tmp_path / "audit.jsonl"
        args = {"users": 100, "days": 30, "workers": 2, "chunk_size": 16}
        audited = execute("pipeline", {**args, "audit_log": str(log)})
        # The run's workers stay up on the shared registry pool.
        assert [
            (pool.workers, pool.use_cache, pool.live)
            for pool in active_pools()
        ] == [(2, False, True)]
        before = log.read_bytes()
        for _ in range(6):
            execute("pipeline", args)
        assert warm_pool(2, False).rebuilds == 0
        _assert_log_unchanged(log, audited.payload, before)


def _worker_pids(pool: WarmPool) -> set[int]:
    return set(pool._executor._processes)


class TestPipelineOnWarmPool:
    """``pipeline`` runs on the process-lifetime ``warm_pool``."""

    def _run(self, workers: int):
        import hashlib

        from repro.datasets import BooterDatabaseGenerator
        from repro.pipeline import SafeguardPipeline, default_stages

        stages = default_stages(
            anonymize_key=hashlib.sha256(b"warm-anon").digest(),
            pseudonymize_key=hashlib.sha256(b"warm-pseudo").digest(),
            seal_passphrase="warm-passphrase",
        )
        source = BooterDatabaseGenerator(3).iter_records(
            chunk_size=128, users=60, days=20
        )
        return SafeguardPipeline(
            stages, workers=workers, chunk_size=64
        ).run(source)

    def test_consecutive_runs_share_one_live_pool(self):
        serial = self._run(1)
        first = self._run(2)
        pool = warm_pool(2, False)
        assert pool.live
        pids, rebuilds = _worker_pids(pool), pool.rebuilds
        assert len(pids) == 2
        second = self._run(2)
        assert warm_pool(2, False) is pool
        assert _worker_pids(pool) == pids
        assert pool.rebuilds == rebuilds
        for result in (first, second):
            assert result.records == serial.records
            assert result.artifacts == serial.artifacts

    def test_runner_cache_stays_bounded(self, monkeypatch):
        from repro.pipeline import ScrubTextSpec
        from repro.pipeline import core

        monkeypatch.setattr(core, "_RUNNER_CACHE", {})
        specs = [
            (ScrubTextSpec(fields=(f"field{n}",)),)
            for n in range(core._RUNNER_CACHE_SIZE + 3)
        ]
        for spec_tuple in specs:
            runners = core._runners_for(spec_tuple)
            assert core._runners_for(spec_tuple) is runners
            assert len(core._RUNNER_CACHE) <= core._RUNNER_CACHE_SIZE
        # Oldest first out: the last bound-many spec tuples remain.
        assert list(core._RUNNER_CACHE) == specs[
            -core._RUNNER_CACHE_SIZE:
        ]

    def test_shutdown_leaves_no_active_pools(self):
        from repro.ops.pool import active_pools

        self._run(2)
        assert active_pools() == (warm_pool(2, False),)
        assert shutdown_warm_pools() == 1
        assert active_pools() == ()


#: Runs in a fresh interpreter, so a hang fails one test on its
#: timeout instead of blocking the suite. The coordinator's
#: ``warm_pool(2, False)`` is live before the batches, and the warm
#: uncached 2-worker batch runs on that same pool, so every batch
#: worker inherits a registry entry for the key its pipeline
#: requests ask for.
_NESTED_PIPELINE_SCRIPT = """
import json, sys
from repro.ops import BatchExecutor, execute, load_requests
from repro.ops.pool import active_pools

def counters(metrics):
    return [
        {
            key: value
            for key, value in stage.items()
            if not key.startswith("cache_")
            and key not in ("seconds", "records_per_second")
        }
        for stage in metrics["stages"]
    ]

args = {"users": 60, "days": 20, "workers": 2, "chunk_size": 64}
serial = counters(execute("pipeline", {**args, "workers": 1}).payload)
execute("pipeline", args)
for _ in range(2):
    result = BatchExecutor(
        workers=2, use_cache=False, warm=True, chunk_size=1
    ).run(load_requests(sys.argv[1]))
    assert all(line["ok"] for line in result.lines), result.lines
    for line in result.lines:
        assert counters(json.loads(line["output"])) == serial
print(len(active_pools()))
"""


def _child_env() -> dict:
    """The environment for a child interpreter importing ``src/``."""
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(
                None,
                [
                    os.path.join(os.path.dirname(__file__), "..", "src"),
                    os.environ.get("PYTHONPATH"),
                ],
            )
        ),
    }


class TestPipelineInsidePoolWorker:
    """A ``pipeline`` request served by a warm ``batch`` worker."""

    def test_nested_pipelines_complete_on_their_own_pools(
        self, tmp_path
    ):
        import signal
        import subprocess
        import sys

        requests = tmp_path / "pipelines.jsonl"
        line = {
            "op": "pipeline",
            "args": {
                "users": 60,
                "days": 20,
                "workers": 2,
                "chunk_size": 64,
            },
        }
        requests.write_text(
            (json.dumps(line) + "\n") * 4, encoding="utf-8"
        )
        child = subprocess.Popen(
            [sys.executable, "-c", _NESTED_PIPELINE_SCRIPT, str(requests)],
            env=_child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            # Take the hung workers down with the interpreter.
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("nested pipeline runs hung")
        assert child.returncode == 0, stderr
        # Only the coordinator's own pool is registered: the nested
        # runs shut theirs down.
        assert stdout.split() == ["1"]


#: A coordinator that starts a 2-worker warm pool, prints the worker
#: pids and then waits to be killed.
_ORPHAN_SCRIPT = """
import time
from repro.ops.pool import warm_pool

pool = warm_pool(2, False)
pool.start()
print(*sorted(pool._executor._processes), flush=True)
time.sleep(600)
"""


def _alive(pid: int) -> bool:
    """Whether *pid* runs (a zombie has exited; only unreaped)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, IndexError):
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads process state in /proc"
)
class TestOrphanedWorkers:
    def test_workers_exit_when_the_coordinator_is_killed(self):
        import signal
        import subprocess
        import sys
        import time

        child = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT],
            env=_child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        pids: list[int] = []
        try:
            pids = [int(pid) for pid in child.stdout.readline().split()]
            assert len(pids) == 2
            child.kill()
            child.wait(timeout=30)
            deadline = time.monotonic() + 10
            while any(map(_alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not [pid for pid in pids if _alive(pid)]
        finally:
            child.kill()
            child.wait(timeout=30)
            child.stdout.close()
            for pid in pids:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)


class TestDrainClosedOnEveryExit:
    """A run that fails anywhere cancels its queued chunks."""

    def _pipeline(self):
        from repro.pipeline import ScrubTextSpec, SafeguardPipeline

        return SafeguardPipeline(
            (ScrubTextSpec(fields=("text",)),), workers=2, chunk_size=4
        )

    def _closes(self, monkeypatch) -> list[int]:
        from repro.ops.pool import OrderedDrain

        closes: list[int] = []
        close = OrderedDrain.close

        def recording_close(drain):
            closes.append(len(drain))
            close(drain)

        monkeypatch.setattr(OrderedDrain, "close", recording_close)
        return closes

    def test_failing_source(self, monkeypatch):
        closes = self._closes(monkeypatch)

        def source():
            for index in range(200):
                if index == 100:
                    raise ValueError("source broke")
                yield {"text": f"record {index}"}

        with pytest.raises(ValueError, match="source broke"):
            self._pipeline().run(source())
        assert closes and closes[0] > 0
        records = [{"text": "after"}] * 40
        assert self._pipeline().run(records).records == records
        assert warm_pool(2, False).rebuilds == 0

    def test_failing_consumer(self, monkeypatch):
        from repro.pipeline import core

        closes = self._closes(monkeypatch)
        seen = []

        def record_chunk(self, registry, stage_stats):
            seen.append(stage_stats)
            if len(seen) == 2:
                raise RuntimeError("merge broke")

        monkeypatch.setattr(
            core.SafeguardPipeline, "_record_chunk", record_chunk
        )
        records = [{"text": f"record {n}"} for n in range(200)]
        with pytest.raises(RuntimeError, match="merge broke"):
            self._pipeline().run(records)
        assert closes and closes[0] > 0


class TestStaticcheckOverPool:
    def test_r8_r9_stay_clean_over_pool_submission_sites(
        self, repo_lint
    ):
        """The interprocedural rules pass over the new subsystem."""
        from repro.staticcheck import unsuppressed

        findings = unsuppressed(repo_lint(("R8", "R9")))
        assert not findings, findings

    def test_r9_audits_the_pool_module(self, repo_lint):
        """The submission sites are actually visible to R9.

        Guards against the rule silently losing sight of the pool:
        the module must bind a tracked executor name, its one
        forwarding ``submit`` must surface as the suppressed finding
        the baseline registers, and every ``map_ordered`` call in the
        package must name a module-level task.
        """
        import ast
        import inspect

        from repro.ops import batch as batch_module
        from repro.ops import pool as pool_module
        from repro.pipeline import core as pipeline_module
        from repro.staticcheck import BASELINE
        from repro.staticcheck.rules_workers import (
            WorkerSafetyRule,
        )

        findings = [
            finding
            for finding in repo_lint(("R9",))
            if finding.rule_id == "R9"
        ]
        assert [
            (finding.path, finding.suppressed) for finding in findings
        ] == [("src/repro/ops/pool.py", True)]
        assert any(
            entry.rule_id == "R9"
            and entry.path == "src/repro/ops/pool.py"
            for entry in BASELINE
        )
        tasks = set()
        for module in (pool_module, batch_module, pipeline_module):
            tree = ast.parse(inspect.getsource(module))
            tasks.update(
                node.args[0].id
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_ordered"
                and isinstance(node.args[0], ast.Name)
            )
        assert tasks == {"_execute_chunk", "_pool_apply"}
        assert WorkerSafetyRule().id == "R9"


class TestStreamingLoadRequests:
    def test_streams_large_files(self, tmp_path):
        path = tmp_path / "big.jsonl"
        with path.open("w", encoding="utf-8") as stream:
            for _ in range(5000):
                stream.write('{"op": "stats"}\n')
        requests = load_requests(path)
        assert len(requests) == 5000
        assert requests[4999].index == 4999

    def test_line_numbers_survive_streaming(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"op": "stats"}\n\nnot json\n')
        with pytest.raises(BatchError) as excinfo:
            load_requests(path)
        assert ":3:" in str(excinfo.value)
