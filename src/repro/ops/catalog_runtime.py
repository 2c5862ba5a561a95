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

import json

from .context import RunContext
from .spec import Arg, Operation, OpResponse, emit_json

__all__ = ["runtime_operations"]


def _text(lines: list[str]) -> str:
    """Join print-style lines into exact stdout bytes."""
    return "".join(line + "\n" for line in lines)


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

    from pathlib import Path

    from ..observability import SamplingProfiler, observed

    if audit_log is not None:
        observer = ctx.make_observer(audit_log)
    else:
        # --profile without --audit-log still needs a live observer
        # (the profiler obeys the master switch and reads the active
        # span from the tracer); record in memory, chain nothing.
        observer = ctx.make_metrics_observer()
    profiler = (
        SamplingProfiler() if profile_path is not None else None
    )
    with observed(observer):
        if profiler is not None:
            with profiler:
                result = pipeline.run(source)
        else:
            result = pipeline.run(source)
    output = dict(result.metrics)
    if audit_log is not None:
        observer.trail.close()
        verification = observer.trail.verify()
        output["observability"] = {
            "audit_log": str(observer.trail.path),
            "audit_events": len(observer.trail),
            "tail_digest": observer.trail.tail_digest,
            "chain_intact": verification.ok,
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

    from ..observability import observed

    observer = ctx.make_observer(request["audit_log"])
    with observed(observer):
        result = simulate_reb_year(
            board, policy, seed=request["seed"]
        )
    observer.trail.close()
    verification = observer.trail.verify()
    lines = [
        f"board: {board.name}; policy: {policy.value}",
        result.describe(),
        f"audit: {len(observer.trail)} events -> "
        f"{observer.trail.path} ({verification.describe()})",
    ]
    payload["description"] = result.describe()
    payload["observability"] = {
        "audit_events": len(observer.trail),
        "audit_log": str(observer.trail.path),
        "chain_intact": verification.ok,
        "tail_digest": observer.trail.tail_digest,
    }
    return OpResponse(payload=payload, text=_text(lines))


def _run_audit_verify(request: dict, ctx: RunContext) -> OpResponse:
    """Walk an audit log's hash chain and localize corruption."""
    from ..observability import verify_jsonl

    verification = verify_jsonl(
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
    from ..observability import load_events

    events = load_events(request["log"])
    lines: list[str] = []
    tail = []
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
    from ..observability import load_events, verify_events

    events = load_events(request["log"])
    verification = verify_events(events)
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
        load_events,
        registry_from_events,
        render_otlp,
        render_prometheus,
    )

    registry = registry_from_events(load_events(request["log"]))
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
    from pathlib import Path

    from ..errors import SafeguardError
    from ..observability import top_collapsed

    try:
        text = Path(request["profile"]).read_text(encoding="utf-8")
    except OSError as exc:
        raise SafeguardError(
            f"cannot read profile {request['profile']!r}: {exc}"
        ) from exc
    rows = top_collapsed(text, request["limit"])
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
        f"({cache['hits']} hits, {cache['misses']} misses)"
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
    from pathlib import Path

    from ..errors import OperationError, SafeguardError
    from ..observability import (
        SloSpec,
        evaluate_slo,
        load_events,
        windows_from_events,
    )

    try:
        raw = Path(request["spec"]).read_text(encoding="utf-8")
    except OSError as exc:
        raise SafeguardError(
            f"cannot read SLO spec {request['spec']!r}: {exc}"
        ) from exc
    try:
        body = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise OperationError(
            f"invalid SLO spec: not valid JSON: {exc}"
        ) from exc
    spec = SloSpec.from_dict(body)
    series = windows_from_events(
        load_events(request["log"]),
        window_size=request["window"] or spec.window_size,
    )
    report = evaluate_slo(spec, series)
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
    from pathlib import Path

    from ..errors import SafeguardError
    from ..observability import load_bundle_text, verify_bundle_text

    try:
        text = Path(request["bundle"]).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SafeguardError(
            f"cannot read incident bundle "
            f"{request['bundle']!r}: {exc}"
        ) from exc
    header, records, envelope = load_bundle_text(text)
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
