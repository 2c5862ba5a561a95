"""The operational health surface: flight recorder, windows, SLOs.

Pins down the acceptance properties of the health subsystem:

* bucket-estimated percentiles land within one bucket bound of the
  exact nearest-rank percentile on deterministic synthetic workloads;
* SLO specs name only the outcome metrics an audit chain records,
  and a chain with no request brackets reads ``no-data``;
* incident-bundle *bodies* are byte-identical across batch worker
  counts 1, 2 and 4, and so is the ``obs slo`` verdict over the
  resulting audit chains;
* a data-only SLO spec change flips ``obs slo`` from exit 0 to
  exit 1 without touching a line of code;
* ``WarmPool.health`` reports liveness/readiness and the probe
  round-trip, and the atexit shutdown hook is registered lazily.
"""

from __future__ import annotations

import bisect
import json
import math
import multiprocessing
import os
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro._util import blake2b_hex, canonical_json
from repro.cli.main import main
from repro.errors import (
    BatchError,
    OperationError,
    SafeguardError,
)
from repro.observability import (
    BUCKET_BOUNDS,
    AuditEvent,
    GENESIS_DIGEST,
    FlightRecorder,
    Histogram,
    IncidentBundle,
    Observer,
    SloSpec,
    evaluate_slo,
    load_bundle_text,
    observed,
    read_chain,
    request_outcomes,
    verify_bundle_text,
)
from repro.ops import BatchExecutor, load_requests

REQUEST_LINES = [
    {"op": "stats"},
    {"op": "no-such-op"},
    {"op": "table1", "args": {"format": "csv"}},
    {"op": "legend"},
    {"op": "no-such-op"},
    {"op": "table1", "args": {"format": "csv"}},
    {"op": "intervals"},
]

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The spec behind ``golden/obs-slo.{txt,json}``: an error-rate
#: ceiling plus a rolling error-budget burn.
GOLDEN_SLO_SPEC = {
    "name": "batch",
    "window": 2,
    "objectives": [
        {"id": "errors", "metric": "error_rate", "threshold": 0.5},
        {
            "id": "burn",
            "metric": "error_budget_burn",
            "threshold": 0.9,
            "budget": 0.25,
            "windows": 2,
        },
    ],
}


@pytest.fixture
def requests_file(tmp_path):
    path = tmp_path / "requests.jsonl"
    path.write_text(
        "".join(json.dumps(line) + "\n" for line in REQUEST_LINES),
        encoding="utf-8",
    )
    return path


def _exact_percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile over the raw values."""
    ranked = sorted(values)
    rank = max(1, math.ceil(q * len(ranked) - 1e-9))
    return ranked[rank - 1]


def _covering_bound(value: float) -> float:
    """The histogram bucket upper bound that covers *value*."""
    position = bisect.bisect_left(BUCKET_BOUNDS, value)
    assert position < len(BUCKET_BOUNDS)
    return BUCKET_BOUNDS[position]


class TestHistogramQuantile:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("q", [0.5, 0.99])
    def test_estimate_within_one_bucket_of_exact(self, seed, q):
        rng = random.Random(seed)
        values = [
            rng.choice([1, 3, 7, 20, 90]) * 10.0 ** rng.randint(-5, 0)
            for _ in range(500)
        ]
        histogram = Histogram()
        for value in values:
            histogram.observe(value)
        exact = _exact_percentile(values, q)
        estimate = histogram.quantile(q)
        # The estimate is the upper bound of the bucket holding the
        # exact nearest-rank observation: never below the truth and
        # within one bucket bound of it.
        assert estimate == _covering_bound(exact)
        assert estimate >= exact

    def test_monotone_workload(self):
        histogram = Histogram()
        values = [(index + 1) / 1000 for index in range(200)]
        for value in values:
            histogram.observe(value)
        for q in (0.5, 0.9, 0.99):
            exact = _exact_percentile(values, q)
            assert histogram.quantile(q) == _covering_bound(exact)

    def test_overflow_reports_exact_maximum(self):
        histogram = Histogram()
        top = BUCKET_BOUNDS[-1]
        for value in (top * 2, top * 3, top * 5):
            histogram.observe(value)
        assert histogram.quantile(0.99) == top * 5

    def test_empty_and_invalid(self):
        histogram = Histogram()
        assert histogram.quantile(0.5) is None
        histogram.observe(1.0)
        with pytest.raises(SafeguardError):
            histogram.quantile(0.0)
        with pytest.raises(SafeguardError):
            histogram.quantile(1.5)

    def test_float_rank_drift(self):
        # 0.7 * 10 == 7.000000000000001 in binary floats; the rank
        # must still be 7, not 8.
        histogram = Histogram()
        for value in [0.0005] * 7 + [500.0] * 3:
            histogram.observe(value)
        assert histogram.quantile(0.7) == _covering_bound(0.0005)


#: Numbers no SLO comparison can fail against, or that no float
#: holds: NaN, both infinities and an integer too large to convert.
_NOT_FINITE = (
    float("nan"),
    float("inf"),
    float("-inf"),
    10**400,
    -(10**400),
)


def _objective(**fields) -> dict:
    """A one-objective spec; *fields* override the objective's."""
    objective = {"id": "x", "metric": "error_rate", "threshold": 0.5}
    return {"objectives": [{**objective, **fields}]}


#: JSON scalars: huge integers, NaN and the infinities among them, and
#: the words a valid spec is made of.
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from((*_NOT_FINITE, -1, 0, 1, 2)),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(("error_rate", "error_budget_burn", "<=", ">=")),
)

#: The values a numeric field most needs to refuse.
_HOSTILE = st.sampled_from((*_NOT_FINITE, True, False))

#: JSON-shaped values: scalars, lists and objects.
_JSON = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=10,
)


#: The fields a spec is made of, as (level, key); "extra" is unknown.
_SPEC_FIELDS = (
    *(("spec", key) for key in ("name", "window", "objectives", "extra")),
    *(
        ("objective", key)
        for key in (
            "id",
            "metric",
            "threshold",
            "comparison",
            "windows",
            "budget",
            "extra",
        )
    ),
)


@st.composite
def _near_valid_specs(draw) -> dict:
    """A valid spec with one of its fields replaced."""
    burn = {"metric": "error_budget_burn", "budget": 0.1, "windows": 2}
    spec = _objective(**(burn if draw(st.booleans()) else {}))
    spec.update(name="s", window=5)
    level, key = draw(st.sampled_from(_SPEC_FIELDS))
    target = spec if level == "spec" else spec["objectives"][0]
    target[key] = draw(_HOSTILE | _JSON)
    return spec


class TestSloSpec:
    def test_valid_spec_round_trips(self):
        spec = SloSpec.from_dict(
            {
                "name": "ops",
                "window": 10,
                "objectives": [
                    {
                        "id": "errors",
                        "metric": "error_rate",
                        "threshold": 0.1,
                    },
                    {
                        "id": "burn",
                        "metric": "error_budget_burn",
                        "threshold": 1.0,
                        "budget": 0.05,
                        "windows": 3,
                    },
                ],
            }
        )
        assert spec.window_size == 10
        assert spec.objectives[1].budget == 0.05

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ({"objectives": []}, "non-empty array"),
            (
                {"objectives": [{"id": "x"}], "bogus": 1},
                "unknown keys",
            ),
            (
                {
                    "objectives": [
                        {
                            "id": "x",
                            "metric": "made_up",
                            "threshold": 1,
                        }
                    ]
                },
                "metric",
            ),
            (
                {
                    "objectives": [
                        {
                            "id": "x",
                            "metric": "error_budget_burn",
                            "threshold": 1,
                        }
                    ]
                },
                "budget",
            ),
            (
                {
                    "objectives": [
                        {
                            "id": "x",
                            "metric": "error_rate",
                            "threshold": 0.1,
                        },
                        {
                            "id": "x",
                            "metric": "error_rate",
                            "threshold": 0.2,
                        },
                    ]
                },
                "duplicate",
            ),
            (
                {
                    "objectives": [
                        {
                            "id": "x",
                            "metric": "latency_p99_seconds",
                            "threshold": 0.1,
                        }
                    ]
                },
                "['error_budget_burn', 'error_rate']",
            ),
            *(
                (_objective(threshold=value), "finite numeric threshold")
                for value in _NOT_FINITE
            ),
            *(
                (
                    _objective(
                        metric="error_budget_burn", budget=value
                    ),
                    "finite positive numeric budget",
                )
                for value in _NOT_FINITE
            ),
            (
                {**_objective(), "window": True},
                "window must be a positive integer",
            ),
            (
                _objective(windows=True),
                "windows must be a positive integer",
            ),
        ],
    )
    def test_invalid_specs_rejected(self, body, fragment):
        with pytest.raises(OperationError) as excinfo:
            SloSpec.from_dict(body)
        assert "invalid SLO spec" in str(excinfo.value)
        assert fragment in str(excinfo.value)

    @settings(max_examples=500, deadline=None)
    @given(body=st.one_of(_JSON, _near_valid_specs()))
    def test_fuzzed_spec_is_finite_or_refused(self, body):
        """Any JSON document parses to a spec that can fail, or is
        refused as an ``invalid SLO spec``; nothing else escapes."""
        try:
            spec = SloSpec.from_dict(body)
        except OperationError as exc:
            assert str(exc).startswith("invalid SLO spec")
            return
        counts = [spec.window_size]
        counts.extend(objective.windows for objective in spec.objectives)
        assert all(type(count) is int and count >= 1 for count in counts)
        for objective in spec.objectives:
            assert math.isfinite(objective.threshold)
            assert objective.budget is None or math.isfinite(
                objective.budget
            )


class TestSloEvaluation:
    def test_breach_on_worst_window(self):
        outcomes = (True,) * 5 + (True, False, False, True, True)
        spec = SloSpec.from_dict(
            {
                "window": 5,
                "objectives": [
                    {
                        "id": "errors",
                        "metric": "error_rate",
                        "threshold": 0.2,
                    }
                ],
            }
        )
        report = evaluate_slo(spec, outcomes)
        assert (report.windows, report.requests) == (2, 10)
        (result,) = report.results
        assert result["status"] == "breached"
        assert result["measured"] == 0.4
        assert result["window"] == 1
        assert report.exit_code == 1

    def test_error_budget_burn_rolls_windows(self):
        outcomes = ((True,) * 4 + (False,)) * 3  # 20% per window
        spec = SloSpec.from_dict(
            {
                "window": 5,
                "objectives": [
                    {
                        "id": "burn",
                        "metric": "error_budget_burn",
                        "threshold": 1.0,
                        "budget": 0.25,
                        "windows": 3,
                    }
                ],
            }
        )
        report = evaluate_slo(spec, outcomes)
        (result,) = report.results
        # 0.2 error rate against a 0.25 budget burns at 0.8x.
        assert result["measured"] == 0.8
        assert result["status"] == "ok"

    def test_no_data_does_not_gate(self):
        # A chain with no request brackets has no outcomes.
        outcomes = request_outcomes(
            [AuditEvent(0, "access", "grant", "p-0").sealed()]
        )
        assert outcomes == ()
        spec = SloSpec.from_dict(
            {
                "window": 5,
                "objectives": [
                    {
                        "id": "errors",
                        "metric": "error_rate",
                        "threshold": 0.0,
                    },
                    {
                        "id": "burn",
                        "metric": "error_budget_burn",
                        "threshold": 1.0,
                        "budget": 0.1,
                    },
                ],
            }
        )
        report = evaluate_slo(spec, outcomes)
        assert [r["status"] for r in report.results] == [
            "no-data",
            "no-data",
        ]
        assert report.ok
        assert report.exit_code == 0


class TestFlightRecorder:
    def test_ring_is_bounded_and_honest_about_drops(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(9):
            recorder.record_metric("tick", index)
        assert len(recorder) == 4
        assert recorder.dropped == 5
        assert [f["value"] for f in recorder.frames] == [5, 6, 7, 8]

    def test_run_scope_detail_projected_out(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record_event(
            "ops",
            "batch-started",
            "",
            {"requests": 3, "workers": 4},
        )
        (frame,) = recorder.frames
        assert frame["detail"] == {"requests": 3}

    def test_incident_dump_verifies(self, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=tmp_path)
        recorder.record_event("ops", "request-failed", "x", {})
        recorder.record_event("ops", "batch-finished", "", {})
        recorder.record_metric("ops.batch.failed", 1)
        bundle = recorder.incident(
            "unit-test", reason="because", extra=7
        )
        path = tmp_path / "incident-000-unit-test.jsonl"
        text = path.read_text(encoding="utf-8")
        verification = verify_bundle_text(text)
        assert verification.ok
        assert verification.length == 3
        header, records, envelope = load_bundle_text(text)
        assert header["kind"] == "unit-test"
        assert header["deltas"] == {"ops.batch.failed": 1}
        assert envelope["reason"] == "because"
        assert envelope["context"]["extra"] == 7
        assert bundle.digest() == verify_digest(text)

    def test_bundle_with_span_frames_still_verifies(
        self, tmp_path, capsys
    ):
        # Bundles dumped by earlier versions ring span frames (name
        # and depth); the loader, verifier and `obs incident` keep
        # accepting them.
        frames = [
            {
                "kind": "event",
                "category": "pipeline",
                "action": "stage-applied",
                "subject": "anonymize",
                "detail": {"chunk": 0},
            },
            {"kind": "span", "name": "stage.anonymize", "depth": 1},
        ]
        records, previous = [], GENESIS_DIGEST
        for index, frame in enumerate(frames):
            digest = blake2b_hex(
                canonical_json(
                    {
                        "frame": frame,
                        "index": index,
                        "previous_digest": previous,
                    }
                ),
                32,
            )
            records.append(
                {
                    "digest": digest,
                    "frame": frame,
                    "index": index,
                    "previous_digest": previous,
                }
            )
            previous = digest
        bundle = IncidentBundle(
            kind="stage-failure",
            sequence=0,
            records=tuple(records),
            dropped=0,
            tail_digest=previous,
        )
        path = tmp_path / "incident-000-stage-failure.jsonl"
        path.write_text(bundle.to_jsonl(), encoding="utf-8")
        verification = verify_bundle_text(bundle.to_jsonl())
        assert verification.ok
        assert verification.length == 2
        assert main(["obs", "incident", str(path), "--tail", "2"]) == 0
        out = capsys.readouterr().out
        assert "chain intact" in out
        assert "span stage.anonymize (depth 1)" in out

    def test_tampered_bundle_localized(self, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=tmp_path)
        for index in range(3):
            recorder.record_metric("tick", index)
        recorder.incident("unit-test")
        path = tmp_path / "incident-000-unit-test.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].replace('"value":1', '"value":9')
        verification = verify_bundle_text(
            "\n".join(lines) + "\n"
        )
        assert not verification.ok
        assert verification.error_index == 1

    def test_structurally_damaged_bundle_rejected(self):
        with pytest.raises(SafeguardError):
            load_bundle_text("not json\n")
        with pytest.raises(SafeguardError):
            load_bundle_text('{"not": "a bundle"}\n')


def verify_digest(text: str) -> str:
    """Recompute a bundle's body digest from its dumped text."""
    import hashlib

    body_lines = []
    for line in text.splitlines():
        if "envelope" in json.loads(line):
            break
        body_lines.append(line)
    body = "\n".join(body_lines) + "\n"
    return hashlib.blake2b(
        body.encode("utf-8"), digest_size=32
    ).hexdigest()


class TestIncidentByteIdentity:
    """The acceptance gate: bundles invariant across worker counts."""

    def _run(self, requests_file, tmp_path, workers):
        flight = tmp_path / f"flight-{workers}"
        log = tmp_path / f"audit-{workers}.jsonl"
        code = main(
            [
                "batch",
                str(requests_file),
                "--workers",
                str(workers),
                "--audit-log",
                str(log),
                "--flight-dir",
                str(flight),
            ]
        )
        assert code == 1  # two no-such-op requests fail
        (bundle_path,) = sorted(flight.iterdir())
        assert bundle_path.name == (
            "incident-000-batch-degraded.jsonl"
        )
        return bundle_path.read_text(encoding="utf-8"), log

    def test_bundle_bodies_identical_for_1_2_4_workers(
        self, requests_file, tmp_path, capsys
    ):
        bodies = {}
        logs = {}
        for workers in (1, 2, 4):
            text, log = self._run(
                requests_file, tmp_path, workers
            )
            capsys.readouterr()
            verification = verify_bundle_text(text)
            assert verification.ok
            header, records, _ = load_bundle_text(text)
            body_lines = text.splitlines()[: 1 + len(records)]
            bodies[workers] = "\n".join(body_lines)
            logs[workers] = log
            assert header["plan"]["requests"] == len(REQUEST_LINES)
        assert bodies[1] == bodies[2] == bodies[4]
        # The chain's request outcomes are invariant too.
        chains = [read_chain(logs[w]) for w in (1, 2, 4)]
        assert all(verification.ok for _, verification in chains)
        outcomes = [request_outcomes(events) for events, _ in chains]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0] == tuple(
            line["op"] != "no-such-op" for line in REQUEST_LINES
        )

    def test_slo_verdict_bytes_identical_across_workers(
        self, requests_file, tmp_path, capsys
    ):
        spec = tmp_path / "slo.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "batch",
                    "window": 4,
                    "objectives": [
                        {
                            "id": "errors",
                            "metric": "error_rate",
                            "threshold": 0.6,
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        outputs = set()
        codes = set()
        for workers in (1, 2, 4):
            _, log = self._run(requests_file, tmp_path, workers)
            capsys.readouterr()
            codes.add(main(["obs", "slo", str(spec), str(log)]))
            outputs.add(capsys.readouterr().out)
        assert codes == {0}
        assert len(outputs) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_slo_verdict_matches_golden(
        self, requests_file, tmp_path, capsys, workers
    ):
        # Windows of 2 over REQUEST_LINES hold error rates 0.5, 0,
        # 0.5, 0: the ceiling holds, the rolling burn breaches.
        spec = tmp_path / "slo.json"
        spec.write_text(json.dumps(GOLDEN_SLO_SPEC), encoding="utf-8")
        _, log = self._run(requests_file, tmp_path, workers)
        capsys.readouterr()
        for suffix, extra in (("txt", []), ("json", ["--json"])):
            code = main(["obs", "slo", str(spec), str(log), *extra])
            golden = GOLDEN_DIR / f"obs-slo.{suffix}"
            assert capsys.readouterr().out == golden.read_text(
                encoding="utf-8"
            )
            assert code == 1

    def test_data_only_spec_change_flips_verdict(
        self, requests_file, tmp_path, capsys
    ):
        _, log = self._run(requests_file, tmp_path, 2)
        capsys.readouterr()
        spec = tmp_path / "slo.json"
        body = {
            "name": "batch",
            "window": 4,
            "objectives": [
                {
                    "id": "errors",
                    "metric": "error_rate",
                    "threshold": 0.6,
                }
            ],
        }
        spec.write_text(json.dumps(body), encoding="utf-8")
        assert main(["obs", "slo", str(spec), str(log)]) == 0
        # Tighten the threshold below the observed error rate: the
        # same chain now fails, with no code change anywhere.
        body["objectives"][0]["threshold"] = 0.1
        spec.write_text(json.dumps(body), encoding="utf-8")
        assert main(["obs", "slo", str(spec), str(log)]) == 1
        out = capsys.readouterr().out
        assert "verdict: fail" in out

    def test_incident_subcommand_verifies_dump(
        self, requests_file, tmp_path, capsys
    ):
        text, _ = self._run(requests_file, tmp_path, 2)
        bundle_path = (
            tmp_path / "flight-2" / "incident-000-batch-degraded.jsonl"
        )
        capsys.readouterr()
        assert (
            main(["obs", "incident", str(bundle_path), "--tail", "3"])
            == 0
        )
        out = capsys.readouterr().out
        assert "incident #0: batch-degraded" in out
        assert "chain intact" in out
        assert "batch-finished" in out


def _crash_worker(chunk, telemetry):
    """A worker entry that dies without cleanup (test double)."""
    os._exit(13)


_FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the crash double reaches workers via fork inheritance",
)


@_FORK_ONLY
class TestWorkerLostIncident:
    def test_worker_loss_dumps_one_incident(
        self, requests_file, monkeypatch, tmp_path
    ):
        from repro.ops import pool as pool_module

        monkeypatch.setattr(
            pool_module, "_execute_chunk", _crash_worker
        )
        dump_dir = tmp_path / "flight"
        recorder = FlightRecorder(capacity=32, dump_dir=dump_dir)
        executor = BatchExecutor(workers=2, use_cache=False)
        with observed(Observer(flight=recorder)):
            with pytest.raises(BatchError):
                executor.run(load_requests(requests_file))
        # The pool dumped worker-lost; the executor must not pile a
        # second batch-error bundle onto the same fault.
        assert [b.kind for b in recorder.incidents] == [
            "worker-lost"
        ]
        (path,) = dump_dir.iterdir()
        assert path.name == "incident-000-worker-lost.jsonl"
        text = path.read_text(encoding="utf-8")
        assert verify_bundle_text(text).ok
        _, records, envelope = load_bundle_text(text)
        assert any(
            record["frame"].get("action") == "worker-lost"
            for record in records
        )
        assert "BrokenProcessPool" in envelope["reason"]


class TestWarmPoolHealth:
    def test_health_report_shape(self):
        from repro.ops.pool import WarmPool

        pool = WarmPool(2, use_cache=True)
        try:
            report = pool.health()
            assert report["workers"] == 2
            assert report["live"] is False
            assert report["rebuilds"] == 0
            assert report["context_warm"] is False
            assert report["cache"] == {
                "enabled": True,
                **pool.cache.stats(),
            }
            assert report["cache"]["entries"] == 0
            assert report["cache"]["bodies"] == 0
            assert report["cache"]["lines"] == 0
            assert "probe" not in report
        finally:
            pool.shutdown()

    def test_probe_round_trip(self):
        from repro.ops.pool import WarmPool

        pool = WarmPool(2, use_cache=False)
        try:
            report = pool.health(probe=True)
            assert report["live"] is True
            assert report["probe"] == {
                "ok": True,
                "round_trips": 2,
            }
            assert report["cache"] == {"enabled": False}
        finally:
            pool.shutdown()

    def test_health_shows_kept_bodies_and_memo_lines(
        self, tmp_path, capsys
    ):
        from repro.ops import execute
        from repro.ops.pool import shutdown_warm_pools

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"op": "stats"}\n{"op": "legend"}\n', encoding="utf-8"
        )
        shutdown_warm_pools()
        try:
            for _ in range(2):
                execute("batch", {"requests": str(requests), "warm": True})
            capsys.readouterr()
            assert main(["obs", "health"]) == 0
            out = capsys.readouterr().out
        finally:
            shutdown_warm_pools()
        assert (
            "cache: 2 entries (2 hits, 2 misses; "
            "keeps 2 bodies, 2 lines)"
        ) in out

    def test_health_subcommand(self, capsys):
        from repro.ops.pool import shutdown_warm_pools

        try:
            assert main(["obs", "health", "--probe"]) == 0
            out = capsys.readouterr().out
            assert "probe: ok (1 round trip(s))" in out
            assert "live: True" in out
        finally:
            shutdown_warm_pools()


class TestAtexitShutdown:
    def test_hook_registered_lazily(self):
        from repro.ops import pool as pool_module
        from repro.ops.pool import (
            shutdown_warm_pools,
            warm_pool,
        )

        try:
            warm_pool(1, False)
            assert pool_module._ATEXIT["registered"] is True
        finally:
            shutdown_warm_pools()
