"""Malformed input files give one typed error line, never a traceback.

Every externally supplied file must surface as a :class:`ReproError`
through the CLI's failure table, never a traceback. One rule holds
for input files: a missing, unreadable, malformed or corrupt input
exits 2 with a single ``error:`` line on stderr
(:class:`~repro.errors.InputError`), as do arguments a command cannot
act on. Exit 1 is a finding: a breached objective, or a verifier
(``audit verify``, ``audit report``, ``obs incident``) reporting the
``CORRUPT`` chain it read. An op that reads an audit log acts only on
a chain it has verified. The ``--audit-log`` an op appends to is an
output, not an input: one whose last line is not intact is refused
with exit 1 and left untouched.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli.main import main
from repro.errors import (
    BatchError,
    InputError,
    OperationError,
    PolicyError,
    SafeguardError,
)
from repro.ops import default_registry
from repro.ops.failures import describe_failure

_HEADER = {
    "bundle": "repro-incident",
    "deltas": {},
    "dropped": 0,
    "frames": 1,
    "kind": "manual",
    "plan": None,
    "sequence": 0,
    "tail_digest": "0" * 64,
    "version": 1,
}

_EVENT = {
    "sequence": 0,
    "category": "access",
    "action": "grant",
    "subject": "p-0",
    "detail": {},
    "previous_digest": "0" * 64,
    "digest": "0" * 64,
}


def _lines(*records: dict) -> bytes:
    return "".join(json.dumps(r) + "\n" for r in records).encode()


def _rechained_bundle(frame: dict) -> bytes:
    """A one-frame bundle whose digests were recomputed to match.

    The frame chain is keyless, so anyone can do this: an intact
    chain does not vouch for the shape of the frame inside it.
    """
    payload = {"frame": frame, "index": 0, "previous_digest": "0" * 64}
    digest = hashlib.blake2b(
        json.dumps(payload, sort_keys=True, separators=(",", ":"))
        .encode(),
        digest_size=32,
    ).hexdigest()
    return _lines(
        {**_HEADER, "tail_digest": digest}, {**payload, "digest": digest}
    )


#: Malformed input files: (argv, content, exit code). Exit 2 is the
#: reader refusing the file with one ``error:`` line; exit 1 is a
#: verifier reporting the corrupt record it found.
CASES = {
    "bundle-header-only": (
        ["obs", "incident", "{path}", "--tail", "5"],
        _lines({"bundle": "repro-incident"}),
        2,
    ),
    "bundle-record-without-frame": (
        ["obs", "incident", "{path}", "--tail", "5"],
        _lines(_HEADER, {"index": 0}),
        1,
    ),
    "bundle-frame-missing-keys": (
        ["obs", "incident", "{path}", "--tail", "5"],
        _rechained_bundle({"kind": "event"}),
        1,
    ),
    "bundle-not-utf8": (
        ["obs", "incident", "{path}"],
        _lines(_HEADER)[:-2] + b'\xff"}\n',
        2,
    ),
    "audit-detail-not-object": (
        ["audit", "tail", "{path}"],
        _lines({**_EVENT, "detail": [1]}),
        2,
    ),
    "audit-category-not-string": (
        ["audit", "report", "{path}"],
        _lines({**_EVENT, "category": ["a"]}),
        1,
    ),
    "audit-tail-not-utf8": (
        ["audit", "tail", "{path}"],
        _lines(_EVENT).replace(b"p-0", b"p-\xff"),
        2,
    ),
    "audit-report-not-utf8": (
        ["audit", "report", "{path}"],
        _lines(_EVENT).replace(b"p-0", b"p-\xff"),
        1,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_input_exits_1_with_one_line(case, tmp_path, capsys):
    """Refused (exit 2, one ``error:`` line) or reported corrupt at
    record 0 (exit 1, nothing on stderr)."""
    argv, content, expected = CASES[case]
    path = tmp_path / "input.jsonl"
    path.write_bytes(content)
    code = main([arg.format(path=path) for arg in argv])
    captured = capsys.readouterr()
    assert code == expected
    errors = captured.err.strip().splitlines()
    if expected == 2:
        assert len(errors) == 1
        assert errors[0].startswith("error: ")
    else:
        assert errors == []
        assert (
            "CORRUPT at record 0" in captured.out
            or "first corrupt record: 0" in captured.out
        )


_NOT_UTF8 = b'{"op": "x\xff"}\n'
_TOO_DEEP = b"[" * 100_000 + b"]" * 100_000 + b"\n"

#: A file each reader cannot decode: (argv, content, the reader's
#: typed error, the location its message must name). ``None`` for
#: the error means a ``CORRUPT`` diagnosis instead of an error line.
READER_CASES = {
    "batch-not-utf8": (
        ["batch", "{path}"], _NOT_UTF8, BatchError, "{path}:1:"
    ),
    "batch-too-deep": (
        ["batch", "{path}"], _TOO_DEEP, BatchError, "{path}:1:"
    ),
    "pack-validate-not-utf8": (
        ["policy", "validate", "--pack", "{path}"],
        _NOT_UTF8,
        PolicyError,
        "{path}",
    ),
    "pack-validate-too-deep": (
        ["policy", "validate", "--pack", "{path}"],
        _TOO_DEEP,
        PolicyError,
        "{path}",
    ),
    "pack-assess-not-utf8": (
        ["policy", "assess", "--pack", "{path}"],
        _NOT_UTF8,
        PolicyError,
        "{path}",
    ),
    "pack-assess-too-deep": (
        ["policy", "assess", "--pack", "{path}"],
        _TOO_DEEP,
        PolicyError,
        "{path}",
    ),
    "slo-spec-not-utf8": (
        ["obs", "slo", "{path}", "{log}"],
        _NOT_UTF8,
        InputError,
        "{path}",
    ),
    "slo-spec-too-deep": (
        ["obs", "slo", "{path}", "{log}"],
        _TOO_DEEP,
        OperationError,
        "{path}",
    ),
    "audit-verify-too-deep": (
        ["audit", "verify", "{path}"], _TOO_DEEP, None, "{path} line 1"
    ),
    "bundle-too-deep": (
        ["obs", "incident", "{path}"],
        _TOO_DEEP,
        InputError,
        "{path}: incident bundle line 1",
    ),
    "profile-not-utf8": (
        ["obs", "top", "{path}"], _NOT_UTF8, InputError, "{path}"
    ),
}


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_undecodable_file_gives_the_readers_typed_error(
    case, tmp_path, capsys
):
    argv, content, error_class, where = READER_CASES[case]
    path = tmp_path / "input.json"
    path.write_bytes(content)
    log = tmp_path / "empty.jsonl"
    log.write_bytes(b"")
    code = main([arg.format(path=path, log=log) for arg in argv])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    where = where.format(path=path)
    if error_class is None:
        assert code == 1
        assert captured.err == ""
        assert "CORRUPT at record 0" in captured.out
        assert where in captured.out
        return
    assert code == describe_failure(error_class("probe"))[1]
    errors = captured.err.strip().splitlines()
    assert len(errors) == 1
    assert errors[0].startswith("error: ")
    assert where in errors[0]


#: Source files the linter cannot read or walk, as (package-relative
#: path, bytes): not UTF-8; nesting too deep for the AST builder (a
#: RecursionError inside ``ast.parse``, not a SyntaxError); and an
#: expression that parses but is too deep for R1's recursive taint
#: walk.
LINT_CASES = {
    "lint-not-utf8": ("hostile.py", b"x = '\xff'\n"),
    "lint-deep-binop": (
        "hostile.py", b"x = " + b"+".join([b"1"] * 100_000) + b"\n"
    ),
    "lint-deep-attribute": (
        "hostile.py", b"x = a" + b".b" * 50_000 + b"\n"
    ),
    "lint-deep-taint": (
        "reporting/hostile.py",
        b"from ..datasets import Raw\n"
        b"from ..anonymization import scrub\n"
        b"publish(Raw" + b"+Raw" * 900 + b")\n",
    ),
}


@pytest.mark.parametrize("case", sorted(LINT_CASES))
def test_lint_path_hostile_source_gives_one_error_line(
    case, tmp_path, capsys
):
    relpath, content = LINT_CASES[case]
    source = tmp_path / "tree" / relpath
    source.parent.mkdir(parents=True)
    source.write_bytes(content)
    code = main(["lint", "--path", str(tmp_path / "tree")])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    errors = captured.err.strip().splitlines()
    assert len(errors) == 1
    assert errors[0].startswith("error: ")
    assert "hostile.py" in errors[0]


def _existing_log(last: bytes) -> bytes:
    """An audit log of one intact record followed by *last*."""
    from repro.observability import AuditEvent

    first = AuditEvent(0, "access", "grant", "p-0").sealed()
    return first.to_json().encode() + b"\n" + last


def _second_record() -> bytes:
    """The intact line that would follow :func:`_existing_log`'s."""
    from repro.observability import AuditEvent

    first = AuditEvent(0, "access", "grant", "p-0").sealed()
    second = AuditEvent(
        1, "access", "read", "p-1", previous_digest=first.digest
    ).sealed()
    return second.to_json().encode() + b"\n"


#: Existing audit logs whose last line is not an intact record.
EXISTING_LOGS = {
    "cut-mid-line": _existing_log(_second_record()[:-20]),
    "not-utf8": _existing_log(_second_record().replace(b"p-1", b"p-\xff")),
    "not-json": _existing_log(b'{"sequence": 1, "digest"\n'),
    "stale-digest": _existing_log(
        _second_record().replace(b"p-1", b"p-2")
    ),
}

#: Every op that writes an ``--audit-log``, with a small workload.
AUDITED_OPS = {
    "batch": ["batch", "{requests}"],
    "pipeline": ["pipeline", "--users", "20", "--days", "5"],
    "simulate-reb": ["simulate-reb", "--seed", "1"],
}


@pytest.mark.parametrize("log_case", sorted(EXISTING_LOGS))
@pytest.mark.parametrize("op", sorted(AUDITED_OPS))
def test_corrupt_existing_log_is_refused_untouched(
    op, log_case, tmp_path, capsys
):
    requests = tmp_path / "requests.jsonl"
    requests.write_text('{"op": "stats"}\n', encoding="utf-8")
    log = tmp_path / "audit.jsonl"
    log.write_bytes(EXISTING_LOGS[log_case])
    argv = [arg.format(requests=requests) for arg in AUDITED_OPS[op]]
    code = main([*argv, "--audit-log", str(log)])
    captured = capsys.readouterr()
    assert code == describe_failure(SafeguardError("probe"))[1]
    errors = captured.err.strip().splitlines()
    assert len(errors) == 1
    assert errors[0].startswith("error: ")
    assert str(log) in errors[0]
    assert log.read_bytes() == EXISTING_LOGS[log_case]


#: ``obs slo`` inputs that are usage errors (exit 2), so a CI gate can
#: tell them from a breach (exit 1): a window below one request, and a
#: spec naming a metric the audit chain does not record. As (extra
#: argv, the objective's metric, a fragment of the error line).
SLO_USAGE_CASES = {
    "window-zero": (["--window", "0"], "error_rate", "--window"),
    "window-negative": (["--window", "-1"], "error_rate", "--window"),
    "removed-metric": (
        [], "latency_p99_seconds", "invalid SLO spec"
    ),
}


@pytest.mark.parametrize("case", sorted(SLO_USAGE_CASES))
def test_obs_slo_usage_error_exits_2(case, tmp_path, capsys):
    extra, metric, fragment = SLO_USAGE_CASES[case]
    spec = tmp_path / "slo.json"
    spec.write_text(
        json.dumps(
            {
                "objectives": [
                    {"id": "x", "metric": metric, "threshold": 0.1}
                ]
            }
        ),
        encoding="utf-8",
    )
    # The log does not exist: a usage error is raised before the
    # log is read.
    log = tmp_path / "missing.jsonl"
    code = main(["obs", "slo", str(spec), str(log), *extra])
    captured = capsys.readouterr()
    assert code == describe_failure(OperationError("probe"))[1] == 2
    assert "Traceback" not in captured.err
    errors = captured.err.strip().splitlines()
    assert len(errors) == 1
    assert errors[0].startswith("error: ")
    assert fragment in errors[0]


#: An SLO gate the intact batch chain below breaches: two of its six
#: requests fail, so a window of two reads an error rate of 0.5.
_SLO_SPEC = {
    "name": "gate",
    "window": 2,
    "objectives": [
        {"id": "errors", "metric": "error_rate", "threshold": 0.4}
    ],
}

_BATCH_OPS = (
    "stats", "no-such-op", "stats", "no-such-op", "stats", "stats"
)


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    """A batch's intact 14-event chain, a tampered copy and a cut copy.

    The tampered copy renames both ``request-failed`` actions
    (records 4 and 8) to ``request-started``, which turns the SLO
    gate green for any reader that does not walk the chain. The cut
    copy keeps records 0–3, a valid prefix ending before the first
    failure.
    """
    from repro.observability import read_chain

    root = tmp_path_factory.mktemp("chains")
    requests = root / "requests.jsonl"
    requests.write_text(
        "".join(json.dumps({"op": op}) + "\n" for op in _BATCH_OPS),
        encoding="utf-8",
    )
    intact = root / "intact.jsonl"
    main(["batch", str(requests), "--audit-log", str(intact)])
    events, verification = read_chain(intact)
    assert verification.ok and len(events) == 14
    failed = [e.sequence for e in events if e.action == "request-failed"]
    assert failed == [4, 8]
    data = intact.read_bytes()
    tampered = root / "tampered.jsonl"
    tampered.write_bytes(
        data.replace(b'"request-failed"', b'"request-started"')
    )
    cut = root / "cut.jsonl"
    cut.write_bytes(b"".join(data.splitlines(keepends=True)[:4]))
    spec = root / "slo.json"
    spec.write_text(json.dumps(_SLO_SPEC), encoding="utf-8")
    return {
        "cut": cut,
        "intact": intact,
        "spec": spec,
        "tampered": tampered,
    }


#: Ops that act on a chain's events: on a corrupt chain they refuse.
REFUSING_OPS = {
    "audit-tail": ["audit", "tail", "{log}"],
    "obs-export": ["obs", "export", "{log}"],
    "obs-slo": ["obs", "slo", "{spec}", "{log}"],
}


@pytest.mark.parametrize("op", sorted(REFUSING_OPS))
def test_tampered_chain_is_refused_with_exit_2(op, chains, capsys):
    argv = [
        arg.format(log=chains["tampered"], spec=chains["spec"])
        for arg in REFUSING_OPS[op]
    ]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == describe_failure(InputError("probe"))[1] == 2
    assert captured.out == ""
    errors = captured.err.strip().splitlines()
    assert len(errors) == 1
    # The refusal names the log it refused.
    assert errors[0].startswith(
        f"error: {chains['tampered']}: chain CORRUPT at record 4: "
    )


def test_refused_unparsable_chain_names_its_log_once(tmp_path, capsys):
    log = tmp_path / "audit.jsonl"
    log.write_bytes(b'{"sequence": 0, "digest"\n')
    code = main(["audit", "tail", str(log)])
    captured = capsys.readouterr()
    assert code == 2
    errors = captured.err.strip().splitlines()
    assert len(errors) == 1
    assert errors[0].startswith(f"error: chain CORRUPT at record 0: {log}")
    assert errors[0].count(str(log)) == 1


#: Every input file of the log, spec, bundle and profile readers,
#: each named by a path that does not exist.
MISSING_INPUTS = {
    "audit-verify-log": ["audit", "verify", "{missing}"],
    "audit-tail-log": ["audit", "tail", "{missing}"],
    "audit-report-log": ["audit", "report", "{missing}"],
    "obs-export-log": ["obs", "export", "{missing}"],
    "obs-slo-log": ["obs", "slo", "{spec}", "{missing}"],
    "obs-slo-spec": ["obs", "slo", "{missing}", "{log}"],
    "obs-incident-bundle": ["obs", "incident", "{missing}"],
    "obs-top-profile": ["obs", "top", "{missing}"],
}


@pytest.mark.parametrize("case", sorted(MISSING_INPUTS))
def test_missing_input_exits_2(case, chains, tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    argv = [
        arg.format(
            log=chains["intact"], missing=missing, spec=chains["spec"]
        )
        for arg in MISSING_INPUTS[case]
    ]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    errors = captured.err.strip().splitlines()
    assert len(errors) == 1
    assert errors[0].startswith("error: cannot read ")
    assert str(missing) in errors[0]


def test_audit_report_localizes_a_line_that_is_not_json(
    tmp_path, capsys
):
    log = tmp_path / "audit.jsonl"
    log.write_bytes(b'{"sequence": 0, "digest"\n')
    code = main(["audit", "report", str(log)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert "intact: False" in captured.out
    assert "first corrupt record: 0" in captured.out


def test_cut_log_needs_the_anchored_verify(chains, capsys):
    """A valid prefix cut before the first failure passes the SLO
    gate; only ``audit verify`` with the recorded length catches the
    cut, so a CI gate pairs the two."""
    spec = str(chains["spec"])
    assert main(["obs", "slo", spec, str(chains["intact"])]) == 1
    assert main(["obs", "slo", spec, str(chains["cut"])]) == 0
    assert main(["audit", "verify", str(chains["cut"])]) == 0
    capsys.readouterr()
    anchored = ["audit", "verify", str(chains["cut"]), "--expect-length"]
    assert main([*anchored, "14"]) == 1
    assert "CORRUPT at record 4" in capsys.readouterr().out


#: Inline ``codebook merge --other`` values that are no codebook:
#: not JSON, JSON that is no object, an object with no dimensions.
CODEBOOK_OTHER_CASES = {
    "not-json": "{",
    "not-an-object": "[]",
    "no-dimensions": '{"name": "x"}',
}


@pytest.mark.parametrize("case", sorted(CODEBOOK_OTHER_CASES))
def test_codebook_merge_other_is_a_usage_error(case, capsys):
    code = main(["codebook", "merge", "--other", CODEBOOK_OTHER_CASES[case]])
    captured = capsys.readouterr()
    assert code == describe_failure(OperationError("probe"))[1] == 2
    assert captured.out == ""
    errors = captured.err.strip().splitlines()
    assert len(errors) == 1
    assert errors[0].startswith("error: --other ")


#: Values for the other required arguments of an op that reads a log.
_LOG_OP_ARGS = {"spec": "spec"}


@pytest.mark.parametrize(
    "name",
    sorted(
        operation.name
        for operation in default_registry()
        if any(arg.dest == "log" for arg in operation.args)
    ),
)
def test_no_log_reading_op_passes_a_tampered_chain(name, chains, capsys):
    """Every registered op taking a ``log`` reports the corruption
    (exit 1) or refuses the chain (exit 2); none exits 0."""
    argv = name.split(".")
    for arg in default_registry().get(name).args:
        if arg.dest == "log":
            value = chains["tampered"]
        elif arg.required:
            assert arg.dest in _LOG_OP_ARGS, (
                f"{name}: no test value for required argument {arg.dest!r}"
            )
            value = chains[_LOG_OP_ARGS[arg.dest]]
        else:
            continue
        argv += [str(value)] if arg.positional else [arg.name, str(value)]
    code = main(argv)
    captured = capsys.readouterr()
    if code == 1:
        assert captured.err == ""
        assert "corrupt" in captured.out.lower()
        assert "record 4" in captured.out or "record: 4" in captured.out
    else:
        assert code == 2, (name, code, captured.out)
        assert "CORRUPT at record 4" in captured.err
