"""Static policy linter: the paper's safeguards, enforced on this code.

``repro.staticcheck`` lints the repro package itself for violations of
the safeguards the reproduction implements (see
``docs/static-analysis.md``):

* **R1** ``safeguard-boundary`` — outbound modules (``reporting/``,
  ``safeguards/sharing``) may not consume raw ``datasets/`` records
  except through an ``anonymization`` function;
* **R2** ``determinism`` — no clock reads, global-RNG calls or random
  UUIDs inside ``datasets/``, ``analysis/`` and ``pipeline/`` (the
  worker pool is in scope noqa-free: ``concurrent.futures`` and
  ``time.perf_counter`` are allowed because they never affect output
  bytes);
* **R3** ``pii-literals`` — no email-shaped strings, routable IPv4
  literals or realistic phone numbers anywhere in ``src/``;
* **R4** ``data-consistency`` — codebook, corpus and §5 statistics
  stay mutually complete;
* **R5** ``audit-boundary`` — public methods in ``safeguards/`` that
  mutate instance state must emit an audit event
  (:func:`repro.observability.audit_event` or an audit/trail
  attribute call), so every safeguard-boundary change is
  inspectable;
* **R6** ``telemetry-naming`` — metric/span names at instrument-
  creation sites must be dotted snake_case and audit-event
  category/action lowercase kebab, so the Prometheus/OTLP exporters
  emit collision-free, grep-friendly identifiers;
* **R7** ``layering`` — modules under ``cli/`` import repro
  subsystems only via :mod:`repro.ops`, keeping the CLI a thin
  adapter over the service kernel;
* **R8** ``purity`` — every operation declared ``pure=True`` in the
  ops catalog is proven effect-free along its transitive call graph
  (clocks, RNG, env, filesystem, network, module-state mutation),
  so the ``ResultCache`` trust in the flag is machine-checked;
* **R9** ``worker-safety`` — every callable submitted to a process
  pool is module-level and picklable by construction: no lambdas,
  bound methods, nested functions or mutable default arguments;
* **R10** ``policy-literals`` — legal-issue ids and Menlo principle
  names are policy-pack vocabulary: outside ``repro.policy`` (and
  the coded corpus data) they must come from the pack helpers, not
  re-spelled string literals.

R1–R7 and R10 judge one file at a time; R8/R9 are interprocedural and run on
the once-per-run :class:`~repro.staticcheck.project.Project` graph
(symbol table, import graph, call graph). Each file is parsed once and
walked once: rules read the per-module node index
(:class:`~repro.staticcheck.engine.NodeIndex`), so a full lint is
cheap enough to run cold every time.

Run it as ``repro-ethics lint`` (text or JSON output, rule selection
via ``--select``, another tree via ``--path``); ``repro-ethics verify``
includes the same gate.
"""

from .baseline import BASELINE, BaselineEntry, baseline_drift
from .engine import (
    Finding,
    LintEngine,
    ModuleInfo,
    NodeIndex,
    Rule,
    RuleRegistry,
    Suppression,
    default_registry,
    package_root,
    unsuppressed,
)
from .project import Project
from .reporters import render_json, render_text, summarize
from .rules_audit import AuditBoundaryRule
from .rules_consistency import ConsistencyRule, check_consistency
from .rules_dataflow import SafeguardBoundaryRule
from .rules_determinism import DeterminismRule
from .rules_layering import LayeringRule
from .rules_naming import TelemetryNamingRule
from .rules_pii import PIILiteralRule
from .rules_policy import PolicyLiteralRule
from .rules_purity import PurityRule
from .rules_workers import WorkerSafetyRule

__all__ = [
    "AuditBoundaryRule",
    "BASELINE",
    "BaselineEntry",
    "ConsistencyRule",
    "DeterminismRule",
    "Finding",
    "LayeringRule",
    "LintEngine",
    "ModuleInfo",
    "NodeIndex",
    "PIILiteralRule",
    "PolicyLiteralRule",
    "Project",
    "PurityRule",
    "Rule",
    "RuleRegistry",
    "SafeguardBoundaryRule",
    "Suppression",
    "TelemetryNamingRule",
    "WorkerSafetyRule",
    "baseline_drift",
    "check_consistency",
    "default_registry",
    "lint_repo",
    "package_root",
    "render_json",
    "render_text",
    "summarize",
    "unsuppressed",
]


def lint_repo(
    select: tuple[str, ...] = (),
    *,
    with_baseline: bool = True,
) -> list[Finding]:
    """Lint the installed ``repro`` package with the default rules.

    *select* restricts to the given rule ids; with *with_baseline*
    the baseline-drift pseudo-rule R0 findings are appended. This is
    the entry point the CLI, the verify gate and the self-test share.
    A ``--select`` subset judges staleness only for baseline entries
    whose rule ran — a skipped rule cannot prove its exceptions fixed.
    """
    registry = default_registry()
    if select:
        registry = registry.select(select)
    findings = LintEngine(registry).lint_package()
    if with_baseline:
        ran = {rule.id for rule in registry}
        baseline = tuple(
            entry for entry in BASELINE if entry.rule_id in ran
        )
        findings.extend(baseline_drift(findings, baseline))
    return findings
