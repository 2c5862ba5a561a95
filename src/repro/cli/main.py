"""Command-line interface: ``python -m repro`` / ``repro-ethics``.

The CLI is a **thin adapter** over the :mod:`repro.ops` service
kernel: the argument parser is *generated* from each registered
operation's declarative :class:`~repro.ops.Arg` spec, dispatch goes
through :func:`repro.ops.execute`, stdout is exactly the operation
response's text, and every domain error maps through the kernel's
single error table to a clean ``error:`` line on stderr — no
subcommand can leak a raw traceback. Staticcheck rule R7 enforces
the shape: modules under ``cli/`` import subsystems only via
``repro.ops``.

Subcommands (one per registered operation; dotted operation names
such as ``audit.verify`` become nested subcommands):

* ``table1 [--format F]`` — regenerate Table 1,
* ``stats`` — the §5 statistics,
* ``verify`` — run every reproduction check plus the static policy
  lint (exit 1 on failure),
* ``lint [--format F] [--select R1,R2]`` — the staticcheck policy
  linter over the repro source itself,
* ``report`` — the full paper-vs-measured Markdown report,
* ``report render`` — the deterministic self-contained static HTML
  report (byte-identical across runs and batch worker counts),
* ``table latex [--style booktabs|plain]`` — appendix-ready LaTeX
  rendering of Table 1,
* ``codebook merge [--strategy S] [--other JSON]`` — multi-coder
  codebook merge with explicit conflict records,
* ``agreement fuzzy [--threshold T]`` — exact vs fuzzy-match
  inter-rater reliability,
* ``simulate KIND [--seed N]`` — synthesise a dataset and print a
  summary,
* ``pipeline [--dataset D] [--workers N] [--chunk-size M]
  [--audit-log PATH] [--profile PATH]`` — stream a synthetic dump
  through the safeguard pipeline and print per-stage JSON metrics,
* ``audit {verify,tail,report}`` — inspect a persisted JSONL audit
  log,
* ``obs {export,profile,top}`` — telemetry egress: exporters,
  sampling profiler, profile views,
* ``obs health [--workers N] [--probe]`` — warm-pool liveness and
  readiness (workers live, rebuilds, cache counters, optional probe
  round-trip; a failed probe exits 1),
* ``obs slo SPEC LOG [--window N]`` — judge a declarative JSON SLO
  spec against an audit log's request brackets; exits 1 on breach
  so CI can gate on it,
* ``obs incident BUNDLE [--tail N]`` — verify a flight-recorder
  incident bundle's hash chain and summarise what it captured,
* ``batch FILE [--workers N] [--audit-log PATH] [--no-cache]
  [--flight-dir PATH]`` — stream a JSONL file of operation requests
  through the kernel's worker pool; responses are byte-identical
  for any worker count, pure operations are served from the
  content-addressed result cache, and ``--flight-dir`` dumps hash-
  chained incident bundles on degraded or failed runs,
* ``simulate-reb``, ``evidence``, ``bibliography``, ``similarity``,
  ``legend``, ``intervals`` — see ``--help``.
"""

from __future__ import annotations

import argparse
import sys

from ..ops import (
    Arg,
    Operation,
    ReproError,
    default_registry,
    describe_failure,
    execute,
)

__all__ = ["main", "build_parser"]


def _add_argument(
    parser: argparse.ArgumentParser, arg: Arg
) -> None:
    """Translate one declarative :class:`Arg` into argparse terms."""
    if arg.flag:
        parser.add_argument(
            arg.name, action="store_true", help=arg.help or None
        )
        return
    kwargs: dict = {}
    if arg.kind is not str:
        kwargs["type"] = arg.kind
    if arg.choices:
        kwargs["choices"] = arg.choices
    if arg.help:
        kwargs["help"] = arg.help
    if arg.metavar:
        kwargs["metavar"] = arg.metavar
    if not arg.positional:
        kwargs["default"] = arg.default
    parser.add_argument(arg.name, **kwargs)


def _attach(
    parser: argparse.ArgumentParser, operation: Operation
) -> None:
    """Populate one generated subparser from *operation*'s spec."""
    for arg in operation.args:
        _add_argument(parser, arg)
    parser.set_defaults(_operation=operation.name)


def build_parser() -> argparse.ArgumentParser:
    """Generate the argument parser from the operation registry.

    Flat operation names become subcommands; dotted names
    (``audit.verify``) become nested subcommands under a group
    parser whose help text the registry provides. A flat operation
    and a dotted family may share a name (``report`` and
    ``report.render``): the family's subcommands attach to the flat
    operation's parser as *optional* nested subcommands, the child's
    ``set_defaults`` overriding the parent's operation name when
    one is given. Nothing here is hand-wired per subcommand —
    registering a new operation is enough to surface it on the CLI.
    """
    registry = default_registry()
    parser = argparse.ArgumentParser(
        prog="repro-ethics",
        description=(
            "Reproduction of 'Ethical issues in research using "
            "datasets of illicit origin' (IMC 2017)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flat: dict[str, argparse.ArgumentParser] = {}
    groups: dict[str, argparse._SubParsersAction] = {}
    # Pass 1: flat operations, so a dotted family landing on the same
    # name (pass 2) can nest inside the existing parser.
    for operation in registry:
        if "." in operation.name:
            continue
        child = sub.add_parser(operation.name, help=operation.help)
        _attach(child, operation)
        flat[operation.name] = child
    # Pass 2: dotted families.
    for operation in registry:
        if "." not in operation.name:
            continue
        group, leaf = operation.name.split(".", 1)
        if group not in groups:
            if group in flat:
                # Collision with a flat operation: nest underneath
                # it, optional so the bare command keeps working.
                groups[group] = flat[group].add_subparsers(
                    dest=f"{group}_command", required=False
                )
            else:
                group_parser = sub.add_parser(
                    group, help=registry.group_help(group)
                )
                groups[group] = group_parser.add_subparsers(
                    dest=f"{group}_command", required=True
                )
        child = groups[group].add_parser(leaf, help=operation.help)
        _attach(child, operation)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status.

    Every :class:`~repro.errors.ReproError` subclass — safeguard,
    legal, assessment, REB, corpus, operation-layer — surfaces as
    one ``error:`` line on stderr with the exit code the kernel's
    failure table assigns, never a traceback.
    """
    args = build_parser().parse_args(argv)
    registry = default_registry()
    operation = registry.get(args._operation)
    values = {
        arg.dest: getattr(args, arg.dest) for arg in operation.args
    }
    try:
        # A fresh cache-less context: one call could never hit a cache.
        response = execute(operation, values)
    except ReproError as exc:
        message, code = describe_failure(exc)
        print(f"error: {message}", file=sys.stderr)
        return code
    if response.text:
        sys.stdout.write(response.text)
    return response.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
