"""The execution core: request → (cache?) → handler → response.

:func:`execute` is the one code path every adapter shares — the CLI
subcommand dispatcher, the batch executor's workers, a future HTTP
server. It canonicalises the request against the operation's
declarative spec, consults the content-addressed result cache for
pure operations (key: operation name + canonical request + the
codebook/corpus digest), runs the handler with the shared
:class:`~repro.ops.context.RunContext`, and returns the typed
:class:`~repro.ops.spec.OpResponse`. Domain errors propagate as
:class:`~repro.errors.ReproError` subclasses for the adapter to map
through :func:`~repro.ops.failures.describe_failure`.
"""

from __future__ import annotations

from collections.abc import Mapping

from .cache import cache_key
from .context import RunContext
from .spec import Operation, OpResponse, build_request

__all__ = ["execute"]


def execute(
    name: str | Operation,
    values: Mapping | None = None,
    *,
    context: RunContext | None = None,
    request: dict | None = None,
    key: str | None = None,
) -> OpResponse:
    """Run one operation by *name* with *values*; returns its response.

    *values* holds only the caller-provided arguments — spec defaults
    fill the rest, exactly as argparse would. With a context carrying
    a :class:`~repro.ops.cache.ResultCache`, pure operations are
    served content-addressed: a hit returns the stored response
    without touching the handler, and both outcomes count into the
    ``ops.cache.*`` metrics.

    A planner that already built the canonical *request* (and, for a
    pure operation, its cache *key* against this context's data)
    passes them instead of *values*, so neither is computed twice.
    """
    if isinstance(name, Operation):
        operation = name
    else:
        from .catalog import default_registry

        operation = default_registry().get(name)
    ctx = context if context is not None else RunContext()
    if request is None:
        request = build_request(operation, values)
    if operation.pure and ctx.cache is not None:
        if key is None:
            key = cache_key(
                operation.name,
                request,
                ctx.cache_digest(operation, request),
            )
        cached = ctx.cache.get(key)
        if cached is not None:
            return cached
        response = operation.handler(request, ctx)
        ctx.cache.put(key, response)
        return response
    return operation.handler(request, ctx)
