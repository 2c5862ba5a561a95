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

    def test_peek_and_contains_do_not_count(self):
        cache = ResultCache()
        cache.put("k", self._response("v"))
        assert "k" in cache
        assert cache.peek("k").text == "v"
        assert cache.peek("absent") is None
        assert "absent" not in cache
        assert cache.hits == 0
        assert cache.misses == 0

    def test_export_merge_round_trip(self):
        source = ResultCache()
        source.put("a", self._response("A"))
        source.put("b", self._response("B"))
        target = ResultCache()
        assert target.merge(source.export()) == 2
        assert target.peek("a").text == "A"
        assert target.peek("b").text == "B"
        assert target.hits == 0 and target.misses == 0

    def test_merge_keeps_existing_entries(self):
        target = ResultCache()
        target.put("a", self._response("original"))
        merged = target.merge([("a", self._response("other"))])
        assert merged == 0
        assert target.peek("a").text == "original"


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
        assert second.summary["cache"]["workers"] == {
            "hits": 0,
            "misses": 0,
        }

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
        assert cache["workers"]["misses"] == 2  # table1 + stats
        assert cache["coordinator"]["hits"] == 1  # the duplicate
        assert cache["hits"] == 1
        assert cache["misses"] == 2

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

    def test_second_batch_served_without_pool_traffic(
        self, requests_file
    ):
        requests = load_requests(requests_file)
        executor = BatchExecutor(workers=2, warm=True)
        executor.run(requests)
        second = executor.run(requests)
        cache = second.summary["cache"]
        assert cache["workers"] == {"hits": 0, "misses": 0}
        assert cache["coordinator"]["hits"] > 0
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


class TestPoolPathSamples:
    def test_pool_served_requests_report_worker_latency(
        self, requests_file
    ):
        """The window series sees a latency for every request, pool
        or local, so latency objectives can gate parallel runs."""
        from repro.observability import Observer, WindowSeries, observed

        requests = load_requests(requests_file)
        series = WindowSeries(window_size=len(requests))
        with observed(Observer().attach(windows=series)):
            result = BatchExecutor(workers=2, chunk_size=1).run(
                requests
            )
        (window,) = series.windows()
        assert window.latency.count == len(requests)
        assert window.measurements()["latency_p99_seconds"] > 0
        # Five distinct pure requests miss in workers; the duplicate
        # table1 is a coordinator hit.
        assert window.measurements()["cache_hit_rate"] == round(1 / 6, 6)
        assert result.summary["ok"] == len(requests)


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


def _crash_worker(chunk, telemetry, use_cache):
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
        from repro.observability import load_events

        actions = [event.action for event in load_events(log)]
        assert "worker-lost" in actions


class TestStaticcheckOverPool:
    def test_r8_r9_stay_clean_over_pool_submission_sites(self):
        """The interprocedural rules pass over the new subsystem."""
        from repro.staticcheck import lint_repo, unsuppressed

        findings = unsuppressed(
            lint_repo(select=("R8", "R9"), incremental=False)
        )
        assert not findings, findings

    def test_r9_audits_the_pool_module(self):
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
        from repro.staticcheck import BASELINE, lint_repo
        from repro.staticcheck.rules_workers import (
            WorkerSafetyRule,
        )

        findings = [
            finding
            for finding in lint_repo(
                select=("R9",), incremental=False
            )
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
