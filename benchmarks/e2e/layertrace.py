"""Per-layer self time, taken by wrapping public callables from outside.

Named ``layertrace`` rather than ``trace`` so it never shadows the
standard library module of that name on ``sys.path``.

:class:`StackTimer` keeps one stack of open frames per process. A
frame's *self* time is its duration minus the durations of the
frames opened inside it, so the self times of all layers add up to
the time spent inside the outermost frames. :func:`install` replaces
each callable listed in :data:`LAYERS` -- in every ``repro`` module
namespace that imported it, or on its class -- with a wrapper that
opens and closes a frame around the call. Nothing under ``src/`` is
edited.

Pool workers are forked from the process that installed the
wrappers, so they inherit them. A fork hook clears the inherited
stack and marks the child as a worker; a worker adds its totals to a
shared array, created before any pool exists, each time its stack
empties. The coordinator keeps its own totals in process.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import sys
import time
from collections.abc import Callable, Iterator

__all__ = ["LAYERS", "StackTimer", "install"]

#: Layer name -> public callables it wraps, as ``module:qualname``.
#: A qualname with a dot names a method, wrapped on its class.
#: ``iter:`` marks a callable returning an iterator whose ``next()``
#: calls are timed instead of the call itself.
LAYERS: dict[str, tuple[str, ...]] = {
    "ops.batch.parse": ("repro.ops.batch:load_requests",),
    "ops.batch.serialize": ("repro.ops.spec:emit_jsonl",),
    "ops.spec.build_request": ("repro.ops.spec:build_request",),
    "ops.kernel": ("repro.ops.kernel:execute",),
    "ops.cache.key": (
        "repro.ops.cache:cache_key",
        "repro.ops.context:RunContext.cache_digest",
    ),
    "ops.cache.lookup": (
        "repro.ops.cache:ResultCache.get",
        "repro.ops.cache:ResultCache.put",
        "repro.ops.cache:ResultCache.merge",
    ),
    "ops.pool.submit": ("repro.ops.pool:WarmPool.submit_chunk",),
    "ops.pool.wait": ("repro.ops.pool:WarmPool.outcome",),
    "datasets.projects.synthetic_project": (
        "repro.datasets.projects:synthetic_project",
    ),
    "datasets.booter.generate": (
        "iter:repro.datasets.booter:BooterDatabaseGenerator.iter_records",
    ),
    "policy.compiler.legal_report": (
        "repro.policy.compiler:CompiledPolicy.legal_report",
    ),
    "policy.compiler.menlo_findings": (
        "repro.policy.compiler:CompiledPolicy.menlo_findings",
    ),
    "policy.compiler.fold_verdict": (
        "repro.policy.compiler:CompiledPolicy.fold_verdict",
    ),
    "policy.facts.assessment_facts": (
        "repro.policy.facts:assessment_facts",
    ),
    "policy.runtime.compiled_policy": (
        "repro.policy.runtime:compiled_policy",
    ),
    "ethics.menlo.evaluation": (
        "repro.ethics.menlo:MenloEvaluation.__init__",
    ),
    "ethics.riskbenefit.grid": tuple(
        f"repro.ethics.riskbenefit:RiskBenefitGrid.{method}"
        for method in (
            "__init__",
            "balance",
            "balances",
            "subsidising_parties",
            "unassessed_parties",
            "total_risk",
            "total_benefit",
            "favourable",
        )
    ),
    "ethics.justifications": (
        "repro.ethics.justifications:evaluate_all_justifications",
        "repro.ethics.human_rights:rights_at_risk",
    ),
    "assessment.engine": ("repro.assessment.engine:assess_with_policy",),
    "assessment.summary": (
        "repro.assessment.engine:EthicsAssessment.summary",
    ),
    "observability.audit": ("repro.observability.log:AuditTrail.event",),
    "observability.flight": (
        "repro.observability.flight:FlightRecorder.record_event",
    ),
    "observability.replay": ("repro.observability.worker:replay_shard",),
    "observability.verify": ("repro.observability.log:AuditTrail.verify",),
    "anonymization.ip.anonymize": (
        "repro.anonymization.ip:IPAnonymizer.anonymize_many",
    ),
    "anonymization.identifiers.pseudonymize": (
        "repro.anonymization.identifiers:Pseudonymizer.email",
        "repro.anonymization.identifiers:Pseudonymizer.pseudonym",
    ),
    "anonymization.scrub.scrub": (
        "repro.anonymization.scrub:TextScrubber.scrub",
    ),
    "safeguards.storage.seal": (
        "repro.safeguards.storage:SecureContainer.seal",
    ),
}


class StackTimer:
    """Calls and self time per layer, one stack per process."""

    def __init__(self, names: tuple[str, ...]) -> None:
        self.names = names
        self.calls = [0] * len(names)
        self.self_s = [0.0] * len(names)
        self.in_worker = False
        self._stack: list[list] = []
        # Layout: calls then self seconds, per layer; written only by
        # forked workers, under the array's lock.
        self.worker_totals = multiprocessing.Array("d", 2 * len(names))

    def enter(self, layer: int) -> None:
        """Open a frame for *layer*."""
        self._stack.append([layer, time.perf_counter(), 0.0])

    def leave(self) -> None:
        """Close the innermost frame and charge its self time."""
        layer, started, children = self._stack.pop()
        elapsed = time.perf_counter() - started
        self.calls[layer] += 1
        self.self_s[layer] += elapsed - children
        if self._stack:
            self._stack[-1][2] += elapsed
        elif self.in_worker:
            self._flush()

    def reset(self) -> None:
        """Forget everything recorded so far, in every process."""
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        with self.worker_totals.get_lock():
            self.worker_totals.get_obj()[:] = [0.0] * len(self.worker_totals)

    def forked(self) -> None:
        """Fork hook: the child starts empty and reports as a worker."""
        self._stack = []
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.in_worker = True

    def _flush(self) -> None:
        totals = self.worker_totals
        width = len(self.names)
        with totals.get_lock():
            raw = totals.get_obj()
            for layer in range(width):
                if self.calls[layer]:
                    raw[layer] += self.calls[layer]
                    raw[width + layer] += self.self_s[layer]
                    self.calls[layer] = 0
                    self.self_s[layer] = 0.0

    def worker_view(self) -> tuple[list[float], list[float]]:
        """``(calls, self_s)`` summed over every worker so far."""
        width = len(self.names)
        with self.worker_totals.get_lock():
            raw = list(self.worker_totals.get_obj())
        return raw[:width], raw[width:]

    def wrap(self, layer: int, function: Callable) -> Callable:
        """*function* with a frame for *layer* around every call."""
        enter, leave = self.enter, self.leave

        def traced(*args, **kwargs):
            enter(layer)
            try:
                return function(*args, **kwargs)
            finally:
                leave()

        _copy_identity(traced, function)
        return traced

    def wrap_iterator(self, layer: int, function: Callable) -> Callable:
        """*function* whose returned iterator times each ``next()``."""
        enter, leave = self.enter, self.leave

        def timed(iterator: Iterator) -> Iterator:
            while True:
                enter(layer)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    leave()
                yield item

        def traced(*args, **kwargs):
            return timed(iter(function(*args, **kwargs)))

        _copy_identity(traced, function)
        return traced


def _copy_identity(wrapper: Callable, function: Callable) -> None:
    """Keep the name pickle and introspection look up."""
    for attribute in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(wrapper, attribute, getattr(function, attribute, None))
    wrapper.__wrapped__ = function


def install() -> StackTimer:
    """Wrap every listed callable; returns the timer that records them.

    Must run before any worker pool exists: workers see the wrappers
    and the shared array only if they are forked after this call.
    """
    timer = StackTimer(tuple(LAYERS))
    for layer, targets in enumerate(LAYERS.values()):
        for target in targets:
            iterator = target.startswith("iter:")
            module_name, qualname = target.removeprefix("iter:").split(":")
            module = importlib.import_module(module_name)
            wrap = timer.wrap_iterator if iterator else timer.wrap
            if "." in qualname:
                owner_name, attribute = qualname.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[attribute]
                setattr(owner, attribute, wrap(layer, original))
            else:
                original = getattr(module, qualname)
                _rebind(original, wrap(layer, original))
    os.register_at_fork(after_in_child=timer.forked)
    return timer


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module-level name for *original* at *replacement*."""
    for name, module in list(sys.modules.items()):
        if module is None or not (
            name == "repro" or name.startswith("repro.")
        ):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
