"""The typed operations layer: argument specs, requests, responses.

Every entry point of the system — a CLI subcommand today, an HTTP
route or queue consumer tomorrow — is an :class:`Operation`: a named,
registered unit of work with a **declarative argument spec** (from
which adapters generate their own surface, e.g. the argparse
subparser), a canonical JSON-serialisable request (a plain dict built
and validated by :func:`build_request`), and an :class:`OpResponse`
pairing the structured payload with the exact text a CLI adapter
writes to stdout.

The spec is the single source of truth: the CLI parser, the batch
executor's JSONL validation and the documentation catalog are all
generated from the same :class:`Arg` tuples, so a request that parses
on one surface parses identically on every other.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable, Iterator, Mapping

from .._util import canonical_json
from ..errors import OperationError

__all__ = [
    "Arg",
    "OpResponse",
    "Operation",
    "OperationRegistry",
    "build_request",
    "emit_json",
    "emit_jsonl",
]


def emit_json(payload: Mapping | list) -> str:
    """The one JSON renderer every operation response goes through.

    ``indent=2, sort_keys=True`` — byte-stable output for identical
    payloads, replacing the scattered ``json.dumps`` call sites the
    CLI used to carry.
    """
    return json.dumps(payload, indent=2, sort_keys=True)


def emit_jsonl(payload: Mapping) -> str:
    """One compact, sorted JSON line (the batch executor's framing)."""
    return canonical_json(payload)


@dataclasses.dataclass(frozen=True)
class Arg:
    """One declarative argument of an operation.

    ``name`` follows CLI convention: a ``--flag`` name marks an
    option, a bare name a positional. ``kind`` is the target type
    (``str``/``int``/``float``); ``flag`` marks a boolean
    store-true option. Adapters translate this spec mechanically —
    :func:`build_request` uses it to validate non-CLI requests the
    same way argparse validates CLI ones.
    """

    name: str
    kind: type = str
    default: object = None
    choices: tuple = ()
    required: bool = False
    flag: bool = False
    metavar: str | None = None
    help: str = ""

    @property
    def dest(self) -> str:
        """The canonical request key (``--chunk-size`` → ``chunk_size``)."""
        return self.name.lstrip("-").replace("-", "_")

    @property
    def positional(self) -> bool:
        """Whether this argument is positional on the CLI surface."""
        return not self.name.startswith("-")

    def coerce(self, value: object) -> object:
        """Validate and convert one provided value for this argument.

        Mirrors argparse semantics for requests arriving as JSON:
        flags must be booleans, ints must not be booleans in
        disguise, floats accept ints, and ``choices`` membership is
        enforced after conversion.
        """
        if self.flag:
            if not isinstance(value, bool):
                raise OperationError(
                    f"argument {self.dest!r} expects a boolean, "
                    f"got {value!r}"
                )
            return value
        if value is None:
            return None
        if self.kind is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise OperationError(
                    f"argument {self.dest!r} expects an integer, "
                    f"got {value!r}"
                )
        elif self.kind is float:
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                raise OperationError(
                    f"argument {self.dest!r} expects a number, "
                    f"got {value!r}"
                )
            value = float(value)
        elif self.kind is str and not isinstance(value, str):
            raise OperationError(
                f"argument {self.dest!r} expects a string, "
                f"got {value!r}"
            )
        if self.choices and value not in self.choices:
            raise OperationError(
                f"argument {self.dest!r} must be one of "
                f"{list(self.choices)}, got {value!r}"
            )
        return value


@dataclasses.dataclass(frozen=True)
class OpResponse:
    """What one operation produced.

    ``payload`` is the structured, JSON-serialisable result (what a
    server would return, what the batch executor frames as JSONL);
    ``text`` is the exact byte content a CLI adapter writes to
    stdout; ``exit_code`` maps onto the process status. The CLI
    prints ``text`` verbatim, so golden tests can assert stdout
    equals the response serialisation with no adapter slack.
    """

    payload: Mapping
    text: str
    exit_code: int = 0

    def to_dict(self) -> dict:
        """JSON-serialisable view (the batch line body)."""
        return {
            "exit_code": self.exit_code,
            "ok": self.exit_code == 0,
            "output": self.text,
            "payload": dict(self.payload),
        }


@dataclasses.dataclass(frozen=True)
class Operation:
    """One registered, typed unit of work.

    ``name`` is dotted for grouped surfaces (``audit.verify`` becomes
    the ``audit verify`` subcommand); ``handler`` takes the canonical
    request dict and a :class:`~repro.ops.context.RunContext`.
    ``pure`` marks results as a function of (request, corpus digest)
    only — eligible for the content-addressed result cache.
    ``pack_scoped`` widens that function's domain to include the
    policy pack the request names: the cache key additionally mixes
    in the pack's content digest, so editing a pack file invalidates
    its cached results without a restart. ``batchable`` admits the
    operation into JSONL batch runs; ``deterministic`` documents
    whether same-request output bytes are stable (the sampling
    profiler's are not).
    """

    name: str
    help: str
    handler: Callable
    args: tuple[Arg, ...] = ()
    pure: bool = False
    pack_scoped: bool = False
    batchable: bool = True
    deterministic: bool = True

    def arg(self, dest: str) -> Arg:
        """The spec whose canonical key is *dest*."""
        for arg in self.args:
            if arg.dest == dest:
                return arg
        raise OperationError(
            f"operation {self.name!r} has no argument {dest!r}"
        )


def build_request(
    operation: Operation, values: Mapping | None = None
) -> dict:
    """The canonical request dict for *operation* from *values*.

    Starts from the spec defaults, overlays *values* (rejecting
    unknown keys), coerces and validates each provided value, and
    enforces required arguments — the same contract argparse gives
    the CLI, applied to requests from any surface.
    """
    request: dict = {}
    for arg in operation.args:
        request[arg.dest] = False if arg.flag else arg.default
    for key, value in dict(values or {}).items():
        arg = operation.arg(key)  # raises on unknown keys
        request[key] = arg.coerce(value)
    for arg in operation.args:
        if arg.required and request[arg.dest] is None:
            raise OperationError(
                f"operation {operation.name!r} requires argument "
                f"{arg.dest!r}"
            )
    return request


class OperationRegistry:
    """Ordered registry of operations, addressable by dotted name."""

    def __init__(self, operations: tuple[Operation, ...] = ()) -> None:
        self._operations: dict[str, Operation] = {}
        self._group_help: dict[str, str] = {}
        for operation in operations:
            self.register(operation)

    def register(self, operation: Operation) -> Operation:
        """Add *operation*; names must be unique and non-empty."""
        if not operation.name:
            raise OperationError("operation name must be non-empty")
        if operation.name in self._operations:
            raise OperationError(
                f"duplicate operation {operation.name!r}"
            )
        self._operations[operation.name] = operation
        return operation

    def describe_group(self, group: str, help_text: str) -> None:
        """Attach CLI help to a dotted-name group (``audit``, ``obs``)."""
        self._group_help[group] = help_text

    def group_help(self, group: str) -> str:
        """The help text registered for *group* (empty if none)."""
        return self._group_help.get(group, "")

    def get(self, name: str) -> Operation:
        """The operation registered as *name*."""
        try:
            return self._operations[name]
        except KeyError:
            raise OperationError(
                f"unknown operation {name!r}; known: "
                f"{sorted(self._operations)}"
            ) from None

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._operations.values())

    def __len__(self) -> int:
        return len(self._operations)

    def __contains__(self, name: str) -> bool:
        return name in self._operations

    @property
    def names(self) -> tuple[str, ...]:
        """Registered operation names, in registration order."""
        return tuple(self._operations)
