"""Runtime operations: pipeline, audit inspection, telemetry egress.

The operational side of the catalog — safeguard pipeline runs, REB
queue simulation, audit-log verification and telemetry export — each
wrapped as a typed :class:`~repro.ops.spec.Operation`. Observers are
obtained through the :class:`~repro.ops.context.RunContext` rather
than constructed inline, and every JSON body goes through
:func:`~repro.ops.spec.emit_json`, so the output bytes of each
operation are exactly what a direct response serialisation produces.
"""

from __future__ import annotations

import dataclasses
import json

from .catalog import _text
from .context import RunContext
from .spec import Arg, Operation, OpResponse, emit_json

__all__ = ["runtime_operations"]


def _demo_stages_and_source(
    dataset: str,
    seed: int,
    users: int,
    days: int,
    chunk_size: int,
    stage_names: tuple[str, ...],
):
    """The seeded demo workload shared by ``pipeline`` and ``obs``.

    Demo keys are derived from the seed so runs are reproducible; a
    real deployment supplies independent secrets per safeguard.
    """
    import hashlib

    from ..pipeline import default_stages

    seed_tag = f"repro-pipeline-demo\x00{seed}".encode("utf-8")
    stages = default_stages(
        anonymize_key=hashlib.sha256(seed_tag + b"\x00anon").digest(),
        pseudonymize_key=hashlib.sha256(
            seed_tag + b"\x00pseudonym"
        ).digest(),
        seal_passphrase=f"repro-pipeline-demo-{seed}",
        names=stage_names,
    )
    if dataset == "booter":
        from ..datasets import BooterDatabaseGenerator

        source = BooterDatabaseGenerator(seed).iter_records(
            chunk_size=chunk_size, users=users, days=days
        )
    else:
        from ..datasets import PasswordDumpGenerator

        source = PasswordDumpGenerator(seed).iter_records(
            chunk_size=chunk_size, users=users
        )
    return stages, source


def _run_pipeline(request: dict, ctx: RunContext) -> OpResponse:
    """Stream the demo dump through the safeguard pipeline."""
    from ..pipeline import SafeguardPipeline

    names = tuple(
        part.strip()
        for part in request["stages"].split(",")
        if part.strip()
    )
    stages, source = _demo_stages_and_source(
        request["dataset"],
        request["seed"],
        request["users"],
        request["days"],
        request["chunk_size"],
        names,
    )
    pipeline = SafeguardPipeline(
        stages,
        workers=request["workers"],
        chunk_size=request["chunk_size"],
    )
    audit_log = request["audit_log"]
    profile_path = request["profile"]
    if audit_log is None and profile_path is None:
        result = pipeline.run(source)
        return OpResponse(
            payload=result.metrics,
            text=emit_json(result.metrics) + "\n",
        )

    import contextlib
    from pathlib import Path

    from ..observability import Observer, SamplingProfiler, observed

    if audit_log is not None:
        observer = Observer.recording(audit_log)
    else:
        # --profile without --audit-log still needs a live observer
        # (the profiler obeys the master switch and reads the active
        # span from the tracer); record in memory, chain nothing.
        observer = ctx.make_metrics_observer()
    profiler = (
        SamplingProfiler() if profile_path is not None else None
    )
    unused = contextlib.nullcontext()
    with (
        observed(observer),
        unused if audit_log is None else observer.trail,
        unused if profiler is None else profiler,
    ):
        result = pipeline.run(source)
    output = dict(result.metrics)
    if audit_log is not None:
        output["observability"] = {
            **observer.trail.anchors(),
            "spans": observer.tracer.summary(),
            "metrics": observer.metrics.snapshot(),
        }
    if profiler is not None:
        Path(profile_path).write_text(
            profiler.collapsed(), encoding="utf-8"
        )
        output["profile"] = {
            "path": profile_path,
            "samples": profiler.sample_count,
            "spans": profiler.summary()["spans"],
        }
    return OpResponse(payload=output, text=emit_json(output) + "\n")


def _run_simulate_reb(request: dict, ctx: RunContext) -> OpResponse:
    """Queue simulation of a year of REB submissions."""
    from ..reb import (
        TriggerPolicy,
        ictr_board,
        medical_style_board,
        simulate_reb_year,
    )

    board = (
        ictr_board()
        if request["board"] == "ictr"
        else medical_style_board()
    )
    policy = (
        TriggerPolicy.RISK_BASED
        if request["policy"] == "risk-based"
        else TriggerPolicy.HUMAN_SUBJECTS
    )
    payload = {
        "board": board.name,
        "policy": policy.value,
        "seed": request["seed"],
    }
    if request["audit_log"] is None:
        result = simulate_reb_year(
            board, policy, seed=request["seed"]
        )
        lines = [
            f"board: {board.name}; policy: {policy.value}",
            result.describe(),
        ]
        payload["description"] = result.describe()
        return OpResponse(payload=payload, text=_text(lines))

    from ..observability import Observer, observed

    observer = Observer.recording(request["audit_log"])
    with observed(observer), observer.trail:
        result = simulate_reb_year(
            board, policy, seed=request["seed"]
        )
    anchors = observer.trail.anchors()
    lines = [
        f"board: {board.name}; policy: {policy.value}",
        result.describe(),
        f"audit: {anchors['audit_events']} events -> "
        f"{anchors['audit_log']} (tail digest "
        f"{anchors['tail_digest'][:16]}…)",
    ]
    payload["description"] = result.describe()
    payload["observability"] = anchors
    return OpResponse(payload=payload, text=_text(lines))


def _read_input(path: str, what: str) -> str:
    """The UTF-8 text of the input file at *path*, named *what* in
    the :class:`~repro.errors.InputError` raised if it cannot be
    read."""
    from pathlib import Path

    from ..errors import InputError

    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from exc


def _verified_chain(path: str) -> tuple:
    """:func:`~repro.observability.read_chain` of the audit log at
    *path*; a corrupt chain is refused with an
    :class:`~repro.errors.InputError` naming the log once."""
    from pathlib import Path

    from ..errors import InputError
    from ..observability import read_chain

    events, verification = read_chain(path)
    if not verification.ok:
        message = verification.describe()
        # A line that does not parse already names its log.
        if not verification.reason.startswith(f"{Path(path)} line "):
            message = f"{path}: {message}"
        raise InputError(message)
    return events, verification


def _run_audit_verify(request: dict, ctx: RunContext) -> OpResponse:
    """Walk an audit log's hash chain and localize corruption."""
    from ..observability import read_chain

    _, verification = read_chain(
        request["log"],
        expected_length=request["expect_length"],
        expected_tail_digest=request["expect_tail"],
    )
    payload = {
        "description": verification.describe(),
        "intact": verification.ok,
        "tail_digest": verification.tail_digest,
    }
    if not verification.ok:
        payload["error_index"] = verification.error_index
        payload["reason"] = verification.reason
    return OpResponse(
        payload=payload,
        text=verification.describe() + "\n",
        exit_code=0 if verification.ok else 1,
    )


def _run_audit_tail(request: dict, ctx: RunContext) -> OpResponse:
    """Print the last events of a persisted audit log."""
    lines: list[str] = []
    tail = []
    events, _ = _verified_chain(request["log"])
    for event in events[-request["count"]:]:
        subject = f" {event.subject}" if event.subject else ""
        detail = json.dumps(event.detail, sort_keys=True)
        lines.append(
            f"#{event.sequence} {event.category}/{event.action}"
            f"{subject} {detail}"
        )
        tail.append(
            {
                "action": event.action,
                "category": event.category,
                "detail": dict(event.detail),
                "sequence": event.sequence,
                "subject": event.subject,
            }
        )
    payload = {"count": request["count"], "events": tail}
    return OpResponse(payload=payload, text=_text(lines))


def _run_audit_report(request: dict, ctx: RunContext) -> OpResponse:
    """Event counts by category/action plus the chain anchors."""
    from ..observability import read_chain

    events, verification = read_chain(request["log"])
    actions: dict[str, int] = {}
    categories: dict[str, int] = {}
    for event in events:
        categories[event.category] = (
            categories.get(event.category, 0) + 1
        )
        key = f"{event.category}/{event.action}"
        actions[key] = actions.get(key, 0) + 1
    report = {
        "events": len(events),
        "intact": verification.ok,
        "tail_digest": verification.tail_digest,
        "categories": dict(sorted(categories.items())),
        "actions": dict(sorted(actions.items())),
    }
    if not verification.ok:
        report["error_index"] = verification.error_index
        report["reason"] = verification.reason
    exit_code = 0 if verification.ok else 1
    if request["json"]:
        return OpResponse(
            payload=report,
            text=emit_json(report) + "\n",
            exit_code=exit_code,
        )
    lines = [
        f"events: {report['events']}",
        f"intact: {report['intact']}",
        f"tail digest: {report['tail_digest']}",
    ]
    for name, count in report["actions"].items():
        lines.append(f"  {name}: {count}")
    if not verification.ok:
        lines.append(
            f"first corrupt record: {verification.error_index} "
            f"({verification.reason})"
        )
    return OpResponse(
        payload=report, text=_text(lines), exit_code=exit_code
    )


def _run_obs_export(request: dict, ctx: RunContext) -> OpResponse:
    """Render an audit log's derived metrics for egress."""
    from ..observability import (
        registry_from_events,
        render_otlp,
        render_prometheus,
    )

    registry = registry_from_events(*_verified_chain(request["log"]))
    if request["format"] == "prometheus":
        rendered = render_prometheus(registry.snapshot())
        text = rendered
    else:
        rendered = render_otlp(registry.snapshot())
        text = rendered + "\n"
    return OpResponse(
        payload={"format": request["format"], "rendered": rendered},
        text=text,
    )


def _run_obs_profile(request: dict, ctx: RunContext) -> OpResponse:
    """Profile the demo pipeline run with the sampling profiler."""
    from pathlib import Path

    from ..observability import SamplingProfiler, observed
    from ..pipeline import STAGE_NAMES, SafeguardPipeline

    stages, source = _demo_stages_and_source(
        request["dataset"],
        request["seed"],
        request["users"],
        request["days"],
        1024,
        STAGE_NAMES,
    )
    observer = ctx.make_metrics_observer()
    profiler = SamplingProfiler(
        request["interval"], call_counts=request["call_counts"]
    )
    with observed(observer), profiler:
        SafeguardPipeline(stages).run(source)
    summary = profiler.summary()
    if request["out"] is not None:
        Path(request["out"]).write_text(
            profiler.collapsed(), encoding="utf-8"
        )
        summary["out"] = request["out"]
    return OpResponse(
        payload=summary, text=emit_json(summary) + "\n"
    )


def _run_obs_top(request: dict, ctx: RunContext) -> OpResponse:
    """The hottest frames of a saved collapsed-stack profile."""
    from ..observability import top_collapsed

    rows = top_collapsed(
        _read_input(request["profile"], "profile"), request["limit"]
    )
    payload = {
        "limit": request["limit"],
        "rows": [[frame, count] for frame, count in rows],
    }
    if not rows:
        return OpResponse(payload=payload, text="no samples\n")
    width = max(len(str(count)) for _, count in rows)
    lines = [f"{count:>{width}} {frame}" for frame, count in rows]
    return OpResponse(payload=payload, text=_text(lines))


def _run_obs_health(request: dict, ctx: RunContext) -> OpResponse:
    """Liveness/readiness report over the warm worker pools."""
    from .pool import active_pools, warm_pool

    pool = warm_pool(request["workers"], not request["no_cache"])
    report = pool.health(probe=request["probe"])
    probe = report.get("probe")
    ok = probe is None or bool(probe["ok"])
    payload = {
        "ok": ok,
        "pool": report,
        "pools": [
            {
                "live": candidate.live,
                "use_cache": candidate.cache is not None,
                "workers": candidate.workers,
            }
            for candidate in active_pools()
        ],
    }
    cache = report["cache"]
    cache_line = (
        f"cache: {cache['entries']} entries "
        f"({cache['hits']} hits, {cache['misses']} misses; "
        f"keeps {cache['bodies']} bodies, {cache['lines']} lines)"
        if cache["enabled"]
        else "cache: disabled"
    )
    lines = [
        f"pool: {report['workers']} worker(s), "
        f"live: {report['live']}, "
        f"rebuilds: {report['rebuilds']}",
        f"context: {'warm' if report['context_warm'] else 'cold'}",
        cache_line,
    ]
    if probe is not None:
        lines.append(
            f"probe: ok ({probe['round_trips']} round trip(s))"
            if probe["ok"]
            else f"probe: FAILED ({probe['error']})"
        )
    lines.append(f"active pools: {len(payload['pools'])}")
    return OpResponse(
        payload=payload,
        text=_text(lines),
        exit_code=0 if ok else 1,
    )


def _run_obs_slo(request: dict, ctx: RunContext) -> OpResponse:
    """Judge a declarative SLO spec against an audit chain."""
    from ..errors import OperationError
    from ..observability import SloSpec, evaluate_slo, request_outcomes

    window = request["window"]
    if window is not None and window < 1:
        raise OperationError(
            f"--window must be at least 1 request, got {window}"
        )
    raw = _read_input(request["spec"], "SLO spec")
    try:
        body = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # incl. over-long ints
        raise OperationError(
            f"invalid SLO spec {request['spec']!r}: not valid JSON: "
            f"{exc}"
        ) from exc
    spec = SloSpec.from_dict(body)
    if window is not None:
        spec = dataclasses.replace(spec, window_size=window)
    report = evaluate_slo(
        spec, request_outcomes(_verified_chain(request["log"])[0])
    )
    payload = report.to_dict()
    text = (
        emit_json(payload) + "\n"
        if request["json"]
        else report.describe() + "\n"
    )
    return OpResponse(
        payload=payload, text=text, exit_code=report.exit_code
    )


def _run_obs_incident(request: dict, ctx: RunContext) -> OpResponse:
    """Verify and summarise a dumped incident bundle."""
    from ..errors import InputError, SafeguardError
    from ..observability import load_bundle_text, verify_bundle_text

    text = _read_input(request["bundle"], "incident bundle")
    try:
        header, records, envelope = load_bundle_text(text)
    except SafeguardError as exc:
        raise InputError(f"{request['bundle']}: {exc}") from exc
    verification = verify_bundle_text(text)
    payload = {
        "dropped": header["dropped"],
        "frames": len(records),
        "intact": verification.ok,
        "kind": header["kind"],
        "plan": header["plan"],
        "reason": envelope.get("reason", ""),
        "sequence": header["sequence"],
        "tail_digest": header["tail_digest"],
    }
    if not verification.ok:
        payload["error_index"] = verification.error_index
        payload["verification_reason"] = verification.reason
    lines = [
        f"incident #{header['sequence']}: {header['kind']}",
        f"frames: {len(records)} ({header['dropped']} dropped "
        "before capture)",
        f"chain: {verification.describe()}",
    ]
    if envelope.get("reason"):
        lines.append(f"reason: {envelope['reason']}")
    # Only the frames the chain verified: their shape is checked.
    verified = records[: verification.length]
    for record in verified[-request["tail"]:] if request["tail"] else []:
        frame = record["frame"]
        if frame["kind"] == "event":
            subject = (
                f" {frame['subject']}" if frame["subject"] else ""
            )
            detail = json.dumps(frame["detail"], sort_keys=True)
            lines.append(
                f"  #{record['index']} event "
                f"{frame['category']}/{frame['action']}"
                f"{subject} {detail}"
            )
        elif frame["kind"] == "span":
            lines.append(
                f"  #{record['index']} span {frame['name']} "
                f"(depth {frame['depth']})"
            )
        else:
            lines.append(
                f"  #{record['index']} metric {frame['name']} "
                f"+{frame['value']}"
            )
    return OpResponse(
        payload=payload,
        text=_text(lines),
        exit_code=0 if verification.ok else 1,
    )


def runtime_operations() -> tuple[Operation, ...]:
    """The operational-side operation definitions."""
    return (
        Operation(
            name="pipeline",
            help=(
                "stream a synthetic dump through the safeguard "
                "pipeline and print per-stage JSON metrics"
            ),
            handler=_run_pipeline,
            args=(
                Arg(
                    "--dataset",
                    choices=("booter", "passwords"),
                    default="booter",
                ),
                Arg("--users", kind=int, default=300),
                Arg("--days", kind=int, default=90),
                Arg("--seed", kind=int, default=0),
                Arg("--workers", kind=int, default=1),
                Arg("--chunk-size", kind=int, default=1024),
                Arg(
                    "--stages",
                    default="anonymize,pseudonymize,scrub,seal",
                    help=(
                        "comma-separated subset of "
                        "anonymize,pseudonymize,scrub,seal"
                    ),
                ),
                Arg(
                    "--audit-log",
                    default=None,
                    metavar="PATH",
                    help=(
                        "record a tamper-evident audit trail to this "
                        "JSONL file and add an observability section "
                        "to the JSON output"
                    ),
                ),
                Arg(
                    "--profile",
                    default=None,
                    metavar="PATH",
                    help=(
                        "sample the run with the profiler and write "
                        "collapsed flamegraph stacks to this file "
                        "(view with 'obs top')"
                    ),
                ),
            ),
            deterministic=False,
        ),
        Operation(
            name="simulate-reb",
            help="queue simulation of a year of REB submissions",
            handler=_run_simulate_reb,
            args=(
                Arg(
                    "--board",
                    choices=("ictr", "medical"),
                    default="ictr",
                ),
                Arg(
                    "--policy",
                    choices=("risk-based", "human-subjects"),
                    default="risk-based",
                ),
                Arg("--seed", kind=int, default=0),
                Arg(
                    "--audit-log",
                    default=None,
                    metavar="PATH",
                    help=(
                        "record every triage and decision as a "
                        "tamper-evident JSONL audit trail"
                    ),
                ),
            ),
        ),
        Operation(
            name="audit.verify",
            help=(
                "walk the hash chain and localize any corruption"
            ),
            handler=_run_audit_verify,
            args=(
                Arg("log", required=True,
                    help="path to a JSONL audit log"),
                Arg(
                    "--expect-length",
                    kind=int,
                    default=None,
                    help=(
                        "event count recorded out of band; makes "
                        "tail truncation detectable"
                    ),
                ),
                Arg(
                    "--expect-tail",
                    default=None,
                    metavar="DIGEST",
                    help=(
                        "tail digest recorded out of band; detects "
                        "truncation and whole-log rewrites"
                    ),
                ),
            ),
        ),
        Operation(
            name="audit.tail",
            help="print the last events of an audit log",
            handler=_run_audit_tail,
            args=(
                Arg("log", required=True,
                    help="path to a JSONL audit log"),
                Arg("--count", kind=int, default=10),
            ),
        ),
        Operation(
            name="audit.report",
            help=(
                "event counts by category/action plus the chain "
                "anchors (length and tail digest) to record out of "
                "band"
            ),
            handler=_run_audit_report,
            args=(
                Arg("log", required=True,
                    help="path to a JSONL audit log"),
                Arg("--json", flag=True),
            ),
        ),
        Operation(
            name="obs.export",
            help=(
                "derive metrics from an audit log and render them "
                "as Prometheus text or OTLP-style JSON (clock-free, "
                "so same-seed runs export identical bytes)"
            ),
            handler=_run_obs_export,
            args=(
                Arg("log", required=True,
                    help="path to a JSONL audit log"),
                Arg(
                    "--format",
                    choices=("prometheus", "otlp"),
                    default="prometheus",
                ),
            ),
        ),
        Operation(
            name="obs.profile",
            help=(
                "run the demo safeguard pipeline under the sampling "
                "profiler and print a JSON summary"
            ),
            handler=_run_obs_profile,
            args=(
                Arg(
                    "--dataset",
                    choices=("booter", "passwords"),
                    default="booter",
                ),
                Arg("--users", kind=int, default=300),
                Arg("--days", kind=int, default=30),
                Arg("--seed", kind=int, default=0),
                Arg(
                    "--interval",
                    kind=float,
                    default=0.002,
                    help="seconds between stack samples",
                ),
                Arg(
                    "--call-counts",
                    flag=True,
                    help=(
                        "also count function entries exactly via a "
                        "sys.setprofile hook (slower, precise)"
                    ),
                ),
                Arg(
                    "--out",
                    default=None,
                    metavar="PATH",
                    help=(
                        "write collapsed flamegraph stacks to this "
                        "file"
                    ),
                ),
            ),
            deterministic=False,
        ),
        Operation(
            name="obs.top",
            help=(
                "hottest frames of a saved collapsed-stack profile"
            ),
            handler=_run_obs_top,
            args=(
                Arg(
                    "profile",
                    required=True,
                    help=(
                        "path to a collapsed-stack profile file"
                    ),
                ),
                Arg("--limit", kind=int, default=15),
            ),
        ),
        Operation(
            name="obs.health",
            help=(
                "liveness/readiness report for the warm worker "
                "pool: workers live, rebuilds, context warmth and "
                "cache counters, with an optional probe round-trip"
            ),
            handler=_run_obs_health,
            args=(
                Arg(
                    "--workers",
                    kind=int,
                    default=1,
                    help=(
                        "pool configuration to report on (gets or "
                        "creates the process-lifetime warm pool for "
                        "this worker count)"
                    ),
                ),
                Arg(
                    "--probe",
                    flag=True,
                    help=(
                        "perform a full probe round-trip: spawn and "
                        "warm the complement of worker processes; a "
                        "failed probe exits 1 instead of raising"
                    ),
                ),
                Arg(
                    "--no-cache",
                    flag=True,
                    help="report on the cache-disabled pool variant",
                ),
            ),
            deterministic=False,
            batchable=False,
        ),
        Operation(
            name="obs.slo",
            help=(
                "judge a declarative JSON SLO spec against the "
                "request brackets of an audit log; exits 1 when any "
                "objective breaches, so CI can gate on it"
            ),
            handler=_run_obs_slo,
            args=(
                Arg(
                    "spec",
                    required=True,
                    help=(
                        "path to a JSON SLO spec: {name, window, "
                        "objectives: [{id, metric, threshold, ...}]}"
                    ),
                ),
                Arg(
                    "log",
                    required=True,
                    help="path to a JSONL audit log",
                ),
                Arg(
                    "--window",
                    kind=int,
                    default=None,
                    metavar="N",
                    help=(
                        "override the spec's logical window size "
                        "(requests per window)"
                    ),
                ),
                Arg("--json", flag=True),
            ),
        ),
        Operation(
            name="obs.incident",
            help=(
                "verify a dumped incident bundle's hash chain and "
                "summarise what the flight recorder saw"
            ),
            handler=_run_obs_incident,
            args=(
                Arg(
                    "bundle",
                    required=True,
                    help=(
                        "path to an incident-*.jsonl bundle dumped "
                        "by the flight recorder"
                    ),
                ),
                Arg(
                    "--tail",
                    kind=int,
                    default=0,
                    metavar="N",
                    help=(
                        "also print the last N frames of the ring"
                    ),
                ),
            ),
        ),
    )
