"""The operations catalog: every subsystem entry point, registered.

Each function here is one :class:`~repro.ops.spec.Operation` handler:
it takes the canonical request dict plus the shared
:class:`~repro.ops.context.RunContext`, calls into its subsystem
façade, and returns an :class:`~repro.ops.spec.OpResponse` pairing
the structured payload with the exact text the CLI writes. Subsystem
imports live inside the handlers, so importing the kernel stays
cheap and no adapter ever needs a direct subsystem import (staticcheck
R7 enforces that for ``cli/``).

:func:`default_registry` assembles the full catalog — the
systematization operations defined here plus the runtime ones from
:mod:`~repro.ops.catalog_runtime` and the batch executor from
:mod:`~repro.ops.batch` — and memoises it process-wide.
"""

from __future__ import annotations

from .context import RunContext
from .spec import Arg, Operation, OperationRegistry, OpResponse

__all__ = ["default_registry"]


def _text(lines: list[str]) -> str:
    """Join print-style lines into exact stdout bytes."""
    return "\n".join(lines) + "\n" if lines else ""


# -- systematization operations ---------------------------------------


def _run_table1(request: dict, ctx: RunContext) -> OpResponse:
    """Regenerate Table 1 in the requested format."""
    from ..tables import render_table1

    rendered = render_table1(ctx.corpus(), request["format"])
    return OpResponse(
        payload={"format": request["format"], "rendered": rendered},
        text=rendered + "\n",
    )


def _run_stats(request: dict, ctx: RunContext) -> OpResponse:
    """The §5 statistics, as both structured counts and text."""
    from ..analysis import section5_statistics

    stats = section5_statistics(ctx.corpus())
    lines = [
        f"entries: {stats.total_entries} "
        f"(papers: {stats.total_papers})",
        f"REB: {stats.reb_approved} approved, {stats.reb_exempt} "
        f"exempt, {stats.reb_not_mentioned} not mentioned, "
        f"{stats.reb_not_applicable} n/a",
        f"ethics sections: {stats.ethics_sections}/"
        f"{stats.total_papers}",
        f"safeguards: {stats.safeguard_counts}",
        f"harms: {stats.harm_counts}",
        f"benefits: {stats.benefit_counts}",
        f"justifications: {stats.justification_counts}",
    ]
    payload = {
        "entries": stats.total_entries,
        "papers": stats.total_papers,
        "reb": {
            "approved": stats.reb_approved,
            "exempt": stats.reb_exempt,
            "not_applicable": stats.reb_not_applicable,
            "not_mentioned": stats.reb_not_mentioned,
        },
        "ethics_sections": stats.ethics_sections,
        "safeguards": dict(stats.safeguard_counts),
        "harms": dict(stats.harm_counts),
        "benefits": dict(stats.benefit_counts),
        "justifications": dict(stats.justification_counts),
    }
    return OpResponse(payload=payload, text=_text(lines))


def _run_verify(request: dict, ctx: RunContext) -> OpResponse:
    """Every reproduction check plus the static policy lint gate."""
    from ..reporting import run_reproduction
    from ..staticcheck import lint_repo, summarize, unsuppressed

    outcomes = run_reproduction(ctx.corpus())
    lines: list[str] = []
    checks = []
    failed = 0
    for outcome in outcomes:
        mark = "OK " if outcome.passed else "FAIL"
        lines.append(
            f"[{mark}] {outcome.experiment_id}: "
            f"{outcome.description} — {outcome.measured}"
        )
        checks.append(
            {
                "id": outcome.experiment_id,
                "description": outcome.description,
                "measured": str(outcome.measured),
                "passed": outcome.passed,
            }
        )
        if not outcome.passed:
            failed += 1
    findings = lint_repo()
    failing = unsuppressed(findings)
    mark = "FAIL" if failing else "OK "
    lines.append(
        f"[{mark}] SC: static policy lint (R1-R10 + baseline) — "
        f"{summarize(findings)}"
    )
    for finding in failing:
        lines.append(f"       {finding.describe()}")
    if failing:
        failed += 1
    total = len(outcomes) + 1
    lines.append(f"{total - failed}/{total} checks passed")
    payload = {
        "checks": checks,
        "lint": {
            "failing": len(failing),
            "summary": summarize(findings),
        },
        "passed": total - failed,
        "total": total,
    }
    return OpResponse(
        payload=payload,
        text=_text(lines),
        exit_code=1 if failed else 0,
    )


def _run_lint(request: dict, ctx: RunContext) -> OpResponse:
    """The staticcheck policy linter over repro or an explicit tree."""
    from ..staticcheck import (
        LintEngine,
        default_registry as lint_registry,
        lint_repo,
        render_json,
        render_text,
        unsuppressed,
    )

    select = tuple(
        part.strip()
        for part in request["select"].split(",")
        if part.strip()
    )
    if request["path"] is not None:
        registry = lint_registry()
        if select:
            registry = registry.select(select)
        findings = LintEngine(registry).lint_package(request["path"])
    else:
        findings = lint_repo(select)
    if request["format"] == "json":
        output = render_json(findings)
        text = output + "\n" if output else ""
    else:
        text = render_text(findings) + "\n"
    failing = unsuppressed(findings)
    payload = {
        "failing": len(failing),
        "findings": [finding.to_dict() for finding in findings],
        "format": request["format"],
    }
    return OpResponse(
        payload=payload, text=text, exit_code=1 if failing else 0
    )


def _run_report(request: dict, ctx: RunContext) -> OpResponse:
    """The full paper-vs-measured Markdown report."""
    from ..reporting import render_report

    rendered = render_report(ctx.corpus())
    return OpResponse(
        payload={"rendered": rendered}, text=rendered + "\n"
    )


def _run_report_render(request: dict, ctx: RunContext) -> OpResponse:
    """The deterministic self-contained static HTML report."""
    from ..render import build_report_model, render_html_report

    digest = ctx.corpus_digest()
    model = build_report_model(ctx.corpus(), digest=digest)
    rendered = render_html_report(model)
    return OpResponse(
        payload={
            "bytes": len(rendered.encode("utf-8")),
            "corpus_digest": digest,
            "rendered": rendered,
        },
        text=rendered,
    )


def _run_table_latex(request: dict, ctx: RunContext) -> OpResponse:
    """Appendix-ready LaTeX rendering of Table 1."""
    from ..tables import render_table1

    format = (
        "latex-booktabs"
        if request["style"] == "booktabs"
        else "latex"
    )
    rendered = render_table1(ctx.corpus(), format)
    return OpResponse(
        payload={"rendered": rendered, "style": request["style"]},
        text=rendered + "\n",
    )


def _run_codebook_merge(request: dict, ctx: RunContext) -> OpResponse:
    """Merge the corpus codebook with a second coder's variant."""
    import json

    from ..codebook import (
        codebook_from_dict,
        codebook_to_dict,
        example_coder_variant,
        merge_codebooks,
    )
    from ..errors import CodebookError, OperationError

    if request["other"] is None:
        other = example_coder_variant()
    else:
        try:
            other = codebook_from_dict(json.loads(request["other"]))
        except (ValueError, RecursionError, CodebookError) as exc:
            raise OperationError(
                f"--other is not a codebook JSON spec: {exc}"
            ) from exc
    result = merge_codebooks(
        (ctx.corpus().codebook, other),
        strategy=request["strategy"],
        name=request["name"],
    )
    merged = result.codebook
    lines = [
        f"merged {' + '.join(result.sources)} "
        f"({result.strategy}) -> {merged.name}: "
        f"{len(merged)} dimensions, "
        f"{sum(len(d.members) for d in merged.open_dimensions())} "
        f"member codes",
        f"{len(result.conflicts)} conflicts:",
    ]
    for conflict in result.conflicts:
        lines.append(f"  {conflict.describe()}")
    payload = {
        "codebook": codebook_to_dict(merged),
        "conflicts": [
            {
                "dimension_id": conflict.dimension_id,
                "field": conflict.field,
                "resolution": conflict.resolution,
                "values": dict(conflict.values),
            }
            for conflict in result.conflicts
        ],
        "sources": list(result.sources),
        "strategy": result.strategy,
    }
    return OpResponse(payload=payload, text=_text(lines))


def _format_drift(label: str) -> str:
    """A second coder's label spelling: case and separator drift."""
    return label.swapcase().replace("-", "_")


def _run_agreement_fuzzy(request: dict, ctx: RunContext) -> OpResponse:
    """Exact vs fuzzy IRR between the paper and a drifted re-coding."""
    from ..coding import (
        Coder,
        annotations_from_corpus,
        canonicalize_labels,
        cohens_kappa,
        interpret_kappa,
        krippendorff_alpha,
        percent_agreement,
    )

    threshold = request["threshold"]
    annotations = annotations_from_corpus(
        ctx.corpus(), Coder("paper", name="published Table 1")
    )
    keys = sorted(annotations.keys)
    labels_a = list(annotations.labels_for(keys))
    labels_b = [_format_drift(label) for label in labels_a]

    def summary(a: list[str], b: list[str]) -> dict:
        return {
            "percent": round(percent_agreement(a, b), 4),
            "cohens_kappa": round(cohens_kappa(a, b), 4),
            "krippendorff_alpha": round(
                krippendorff_alpha(list(zip(a, b))), 4
            ),
        }

    exact = summary(labels_a, labels_b)
    mapping = canonicalize_labels(labels_a + labels_b, threshold)
    fuzzy = summary(
        [mapping[label] for label in labels_a],
        [mapping[label] for label in labels_b],
    )
    lines = [
        f"{len(keys)} (entry, dimension) items; coder B re-spells "
        "every label (case/separator drift)",
        f"exact:  percent={exact['percent']:.2f} "
        f"kappa={exact['cohens_kappa']:.2f} "
        f"({interpret_kappa(exact['cohens_kappa'])})",
        f"fuzzy:  percent={fuzzy['percent']:.2f} "
        f"kappa={fuzzy['cohens_kappa']:.2f} "
        f"({interpret_kappa(fuzzy['cohens_kappa'])}) "
        f"at threshold {threshold}",
        f"label hygiene accounts for "
        f"{fuzzy['percent'] - exact['percent']:.2f} of the "
        "disagreement",
    ]
    payload = {
        "exact": exact,
        "fuzzy": fuzzy,
        "items": len(keys),
        "threshold": threshold,
    }
    return OpResponse(payload=payload, text=_text(lines))


def _run_legend(request: dict, ctx: RunContext) -> OpResponse:
    """The codebook legend for Table 1's abbreviations."""
    from ..tables import build_table1_layout, render_legend_text

    rendered = render_legend_text(build_table1_layout(ctx.corpus()))
    return OpResponse(
        payload={"rendered": rendered}, text=rendered + "\n"
    )


def _run_evidence(request: dict, ctx: RunContext) -> OpResponse:
    """The §4 quotes grounding one Table 1 coding."""
    from ..corpus import evidence_for

    entry = ctx.corpus()[request["entry_id"]]
    evidence = evidence_for(request["entry_id"])
    lines = [
        f"{entry.source_label} [{entry.reference}] — "
        f"§{evidence.section}",
        f"summary: {entry.summary}",
        "grounding quotes:",
    ]
    for quote in evidence.quotes:
        lines.append(f'  "{quote}"')
    payload = {
        "entry_id": request["entry_id"],
        "quotes": list(evidence.quotes),
        "reference": entry.reference,
        "section": evidence.section,
        "source_label": entry.source_label,
        "summary": entry.summary,
    }
    return OpResponse(payload=payload, text=_text(lines))


def _run_intervals(request: dict, ctx: RunContext) -> OpResponse:
    """Wilson 95% intervals for the §5 proportions."""
    from ..analysis import required_sample_size, section5_intervals

    described = [
        estimate.describe()
        for estimate in section5_intervals(ctx.corpus())
    ]
    needed = required_sample_size(margin=0.05)
    lines = [
        *described,
        f"papers needed for a ±5% margin: {needed} "
        "(the 'large representative sample' of §5.5)",
    ]
    payload = {
        "estimates": described,
        "required_sample_size": needed,
    }
    return OpResponse(payload=payload, text=_text(lines))


def _run_bibliography(request: dict, ctx: RunContext) -> OpResponse:
    """List or search the paper's references."""
    from ..bibliography import paper_bibliography

    bibliography = paper_bibliography()
    references = (
        bibliography.search(request["search"])
        if request["search"]
        else tuple(bibliography)
    )
    lines = [reference.format() for reference in references]
    lines.append(f"{len(references)} references")
    payload = {
        "count": len(references),
        "references": [
            reference.format() for reference in references
        ],
        "search": request["search"],
    }
    return OpResponse(payload=payload, text=_text(lines))


def _run_similarity(request: dict, ctx: RunContext) -> OpResponse:
    """Paper-similarity clusters and category cohesion of Table 1."""
    from ..analysis import SimilarityAnalysis

    threshold = request["threshold"]
    analysis = SimilarityAnalysis(ctx.corpus())
    clusters = analysis.clusters(threshold=threshold)
    lines = [f"{len(clusters)} clusters at threshold {threshold}"]
    for index, cluster in enumerate(clusters, start=1):
        members = ", ".join(sorted(cluster))
        lines.append(f"  cluster {index} ({len(cluster)}): {members}")
    cohesion = analysis.category_cohesion()
    lines.append("category cohesion:")
    for category, value in cohesion.items():
        lines.append(f"  {category}: {value:.2f}")
    separation = analysis.separation()
    lines.append(f"category separation: {separation:.3f}")
    payload = {
        "clusters": [sorted(cluster) for cluster in clusters],
        "cohesion": {
            category: round(value, 2)
            for category, value in cohesion.items()
        },
        "separation": round(separation, 3),
        "threshold": threshold,
    }
    return OpResponse(payload=payload, text=_text(lines))


def _run_simulate(request: dict, ctx: RunContext) -> OpResponse:
    """Generate one synthetic dataset and summarise it."""
    seed = request["seed"]
    kind = request["kind"]
    if kind == "passwords":
        from ..datasets import PasswordDumpGenerator

        dump = PasswordDumpGenerator(seed).generate(users=1000)
        top = dump.frequency().most_common(5)
        summary = f"password dump: {len(dump)} accounts; top: {top}"
        detail: dict = {"accounts": len(dump)}
    elif kind == "booter":
        from ..datasets import BooterDatabaseGenerator

        db = BooterDatabaseGenerator(seed).generate()
        summary = (
            f"booter db: {len(db.users)} users, {len(db.attacks)} "
            f"attacks on {db.distinct_targets()} targets, revenue "
            f"${db.revenue():.2f}"
        )
        detail = {
            "attacks": len(db.attacks),
            "revenue": round(db.revenue(), 2),
            "targets": db.distinct_targets(),
            "users": len(db.users),
        }
    elif kind == "forum":
        from ..datasets import ForumGenerator

        forum = ForumGenerator(seed).generate()
        summary = (
            f"forum: {len(forum.members)} members, "
            f"{len(forum.posts)} posts, "
            f"{forum.illicit_share():.0%} illicit threads"
        )
        detail = {
            "members": len(forum.members),
            "posts": len(forum.posts),
        }
    elif kind == "offshore":
        from ..datasets import OffshoreLeakGenerator

        leak = OffshoreLeakGenerator(seed).generate()
        summary = (
            f"offshore leak: {len(leak.entities)} entities, "
            f"{len(leak.officers)} officers, "
            f"{len(leak.public_figures())} public figures"
        )
        detail = {
            "entities": len(leak.entities),
            "officers": len(leak.officers),
            "public_figures": len(leak.public_figures()),
        }
    elif kind == "projects":
        from ..datasets import ResearchProjectGenerator

        projects = ResearchProjectGenerator(seed).generate(100)
        harms = sum(len(p.harms) for p in projects)
        reb = sum(1 for p in projects if p.reb_approved)
        summary = (
            f"projects: {len(projects)} synthetic research "
            f"designs, {harms} harms registered, {reb} REB-approved"
        )
        detail = {
            "harms": harms,
            "projects": len(projects),
            "reb_approved": reb,
        }
    elif kind == "classified":
        from ..datasets import ClassifiedCorpusGenerator

        corpus = ClassifiedCorpusGenerator(seed).generate()
        summary = (
            f"classified corpus: {len(corpus)} cables, "
            f"{corpus.classified_fraction():.0%} classified, "
            f"mix {corpus.by_classification()}"
        )
        detail = {"cables": len(corpus)}
    else:
        from ..datasets import ScanGenerator

        scan = ScanGenerator(seed).generate()
        summary = (
            f"scan: {len(scan.records)} probes, port-80 open rate "
            f"{scan.open_rate(80):.2f} (artefacts "
            f"{scan.artefact_rate(80):.0%}), "
            f"{len(scan.botnet_sources())} bot sources visible"
        )
        detail = {"probes": len(scan.records)}
    payload = {"detail": detail, "kind": kind, "seed": seed,
               "summary": summary}
    return OpResponse(payload=payload, text=summary + "\n")


def _pack_counts(data: dict) -> dict:
    """Rule-count summary of one pack's three sections."""
    return {
        "legal_issues": len(data["legal"]["issues"]),
        "menlo_principles": len(data["menlo"]["principles"]),
        "verdict_steps": len(data["verdict"]["steps"]),
    }


def _run_policy_list(request: dict, ctx: RunContext) -> OpResponse:
    """List the bundled policy packs with their content digests."""
    from ..policy import bundled_pack_names, resolve_pack

    lines: list[str] = []
    packs = []
    for name in bundled_pack_names():
        pack = resolve_pack(name)
        counts = _pack_counts(pack.data)
        lines.append(
            f"{name}: {counts['legal_issues']} legal issues, "
            f"{counts['menlo_principles']} Menlo principles, "
            f"{counts['verdict_steps']} verdict steps "
            f"[digest {pack.digest}]"
        )
        packs.append(
            {"digest": pack.digest, "name": name, **counts}
        )
    lines.append(f"{len(packs)} bundled packs")
    return OpResponse(
        payload={"packs": packs}, text=_text(lines)
    )


def _run_policy_show(request: dict, ctx: RunContext) -> OpResponse:
    """Summarise one pack's compiled rule surface."""
    from ..policy import resolve_pack

    pack = resolve_pack(request["pack"])
    data = pack.data
    version = data.get("version", 0)
    description = data.get("description", "")
    lines = [
        f"pack {pack.name} v{version} [digest {pack.digest}]",
        f"  {description}",
        "legal issues:",
    ]
    issues = []
    for issue in data["legal"]["issues"]:
        rows = len(issue["rows"])
        lines.append(
            f"  {issue['id']}: {rows} decision rows"
        )
        issues.append({"id": issue["id"], "rows": rows})
    lines.append("menlo principles:")
    principles = []
    for principle in data["menlo"]["principles"]:
        checks = len(principle["checks"])
        lines.append(
            f"  {principle['id']}: {checks} checks"
        )
        principles.append(
            {"checks": checks, "id": principle["id"]}
        )
    steps = data["verdict"]["steps"]
    lines.append(
        f"verdict: default {data['verdict']['default']!r}, "
        f"{len(steps)} fold steps"
    )
    payload = {
        "description": description,
        "digest": pack.digest,
        "issues": issues,
        "name": pack.name,
        "principles": principles,
        "verdict_default": data["verdict"]["default"],
        "verdict_steps": len(steps),
        "version": version,
    }
    return OpResponse(payload=payload, text=_text(lines))


def _run_policy_assess(request: dict, ctx: RunContext) -> OpResponse:
    """Assess one seeded synthetic project under a policy pack."""
    from ..assessment import assess_with_policy
    from ..datasets import synthetic_project
    from ..policy import compiled_policy

    policy = compiled_policy(request["pack"])
    seed = request["seed"]
    project = synthetic_project(seed)
    assessment = assess_with_policy(project, policy)
    lines = [
        f"pack: {policy.name} [digest {policy.digest}]",
        f"seed: {seed}",
        *assessment.summary().splitlines(),
    ]
    payload = {
        "issues": list(assessment.applicable_legal_issues),
        "legal_risk": assessment.legal.overall_risk,
        "menlo": {
            finding.principle.value: finding.status
            for finding in assessment.menlo
        },
        "notes": list(assessment.notes),
        "pack": {"digest": policy.digest, "name": policy.name},
        "required_actions": list(assessment.required_actions),
        "seed": seed,
        "title": project.title,
        "verdict": assessment.verdict,
    }
    return OpResponse(payload=payload, text=_text(lines))


def _run_policy_validate(
    request: dict, ctx: RunContext
) -> OpResponse:
    """Validate policy packs; a bad pack raises PolicyError (exit 2)."""
    from ..policy import bundled_pack_names, resolve_pack

    refs = (
        [request["pack"]]
        if request["pack"] is not None
        else list(bundled_pack_names())
    )
    lines: list[str] = []
    validated = []
    for ref in refs:
        pack = resolve_pack(ref)
        lines.append(
            f"[OK ] {ref}: pack {pack.name} "
            f"[digest {pack.digest}]"
        )
        validated.append(
            {"digest": pack.digest, "name": pack.name, "ref": ref}
        )
    lines.append(f"{len(validated)}/{len(refs)} packs valid")
    return OpResponse(
        payload={"packs": validated}, text=_text(lines)
    )


def _operations() -> tuple[Operation, ...]:
    """The systematization-side operation definitions."""
    return (
        Operation(
            name="table1",
            help="regenerate Table 1",
            handler=_run_table1,
            args=(
                Arg(
                    "--format",
                    choices=(
                        "text", "markdown", "latex", "latex-booktabs",
                        "csv", "html",
                    ),
                    default="text",
                ),
            ),
            pure=True,
        ),
        Operation(
            name="report.render",
            help=(
                "render the self-contained static HTML report "
                "(deterministic bytes; redirect stdout to a file)"
            ),
            handler=_run_report_render,
            pure=True,
        ),
        Operation(
            name="table.latex",
            help="appendix-ready LaTeX rendering of Table 1",
            handler=_run_table_latex,
            args=(
                Arg(
                    "--style",
                    choices=("booktabs", "plain"),
                    default="booktabs",
                ),
            ),
            pure=True,
        ),
        Operation(
            name="codebook.merge",
            help=(
                "merge the corpus codebook with a second coder's "
                "variant, recording every conflict"
            ),
            handler=_run_codebook_merge,
            args=(
                Arg(
                    "--strategy",
                    choices=("union", "intersection"),
                    default="union",
                ),
                Arg(
                    "--other",
                    default=None,
                    help=(
                        "the second coder's codebook as a JSON spec "
                        "(codebook_to_dict format); defaults to the "
                        "worked example variant"
                    ),
                ),
                Arg(
                    "--name",
                    default=None,
                    help="name for the merged codebook",
                ),
            ),
            pure=True,
        ),
        Operation(
            name="agreement.fuzzy",
            help=(
                "exact vs fuzzy-match inter-rater reliability for a "
                "label-drifted re-coding of Table 1"
            ),
            handler=_run_agreement_fuzzy,
            args=(
                Arg("--threshold", kind=float, default=0.85),
            ),
            pure=True,
        ),
        Operation(
            name="stats",
            help="print the §5 statistics",
            handler=_run_stats,
            pure=True,
        ),
        Operation(
            name="verify",
            help=(
                "run every reproduction check and the static policy "
                "lint"
            ),
            handler=_run_verify,
        ),
        Operation(
            name="report",
            help="paper-vs-measured Markdown report",
            handler=_run_report,
            pure=True,
        ),
        Operation(
            name="legend",
            help="print the codebook legend",
            handler=_run_legend,
            pure=True,
        ),
        Operation(
            name="lint",
            help=(
                "statically check the repro source against the "
                "paper's safeguards (R1-R10)"
            ),
            handler=_run_lint,
            args=(
                Arg("--format", choices=("text", "json"),
                    default="text"),
                Arg(
                    "--select",
                    default="",
                    help=(
                        "comma-separated rule ids to run (e.g. R1,R2)"
                    ),
                ),
                Arg(
                    "--path",
                    default=None,
                    help=(
                        "lint this directory tree instead of the "
                        "installed repro package (rule scoping "
                        "follows paths relative to it; the "
                        "suppression baseline applies only to the "
                        "package)"
                    ),
                ),
            ),
        ),
        Operation(
            name="simulate",
            help="generate a synthetic dataset summary",
            handler=_run_simulate,
            args=(
                Arg(
                    "kind",
                    choices=(
                        "passwords", "booter", "forum", "offshore",
                        "classified", "projects", "scan",
                    ),
                    required=True,
                ),
                Arg("--seed", kind=int, default=0),
            ),
        ),
        Operation(
            name="policy.list",
            help="list the bundled policy packs and their digests",
            handler=_run_policy_list,
            pure=True,
        ),
        Operation(
            name="policy.show",
            help="summarise one policy pack's rule surface",
            handler=_run_policy_show,
            args=(
                Arg(
                    "--pack",
                    default=None,
                    help=(
                        "bundled pack name or JSON pack path "
                        "(default: the bundled default pack)"
                    ),
                ),
            ),
            pure=True,
            pack_scoped=True,
        ),
        Operation(
            name="policy.assess",
            help=(
                "assess one seeded synthetic research project "
                "under a policy pack"
            ),
            handler=_run_policy_assess,
            args=(
                Arg(
                    "--pack",
                    default=None,
                    help=(
                        "bundled pack name or JSON pack path "
                        "(default: the bundled default pack)"
                    ),
                ),
                Arg("--seed", kind=int, default=0),
            ),
            pure=True,
            pack_scoped=True,
        ),
        Operation(
            name="policy.validate",
            help=(
                "validate policy packs (all bundled, or one "
                "--pack reference)"
            ),
            handler=_run_policy_validate,
            args=(
                Arg(
                    "--pack",
                    default=None,
                    help=(
                        "bundled pack name or JSON pack path; "
                        "omit to validate every bundled pack"
                    ),
                ),
            ),
        ),
        Operation(
            name="bibliography",
            help="list or search the references",
            handler=_run_bibliography,
            args=(Arg("--search", default=""),),
            pure=True,
        ),
        Operation(
            name="similarity",
            help="paper-similarity structure of Table 1",
            handler=_run_similarity,
            args=(Arg("--threshold", kind=float, default=0.6),),
            pure=True,
        ),
        Operation(
            name="evidence",
            help="show the §4 quotes grounding one Table 1 coding",
            handler=_run_evidence,
            args=(Arg("entry_id", required=True),),
            pure=True,
        ),
        Operation(
            name="intervals",
            # argparse %-interpolates help strings, so the literal
            # percent sign must be doubled or --help raises TypeError.
            help="Wilson 95%% intervals for the §5 proportions",
            handler=_run_intervals,
            pure=True,
        ),
    )


_REGISTRY: OperationRegistry | None = None


def default_registry() -> OperationRegistry:
    """The full operation catalog, assembled once per process.

    Systematization operations (this module) + runtime operations
    (pipeline, audit, obs, simulate-reb) + the batch executor, with
    CLI group help for the dotted-name families.
    """
    global _REGISTRY
    if _REGISTRY is None:
        from .batch import batch_operation
        from .catalog_runtime import runtime_operations

        registry = OperationRegistry(_operations())
        for operation in runtime_operations():
            registry.register(operation)
        registry.register(batch_operation())
        registry.describe_group(
            "audit",
            "inspect and verify tamper-evident audit logs",
        )
        registry.describe_group(
            "obs",
            (
                "telemetry egress: metric exporters, sampling "
                "profiler and profile views"
            ),
        )
        registry.describe_group(
            "table",
            "Table 1 renderings beyond the plain table1 formats",
        )
        registry.describe_group(
            "codebook",
            "multi-coder codebook operations",
        )
        registry.describe_group(
            "agreement",
            "inter-rater reliability beyond exact label matching",
        )
        registry.describe_group(
            "policy",
            (
                "declarative policy packs: list, inspect, "
                "validate and mass-assess"
            ),
        )
        _REGISTRY = registry
    return _REGISTRY
