"""The per-run execution context every operation handler receives.

Before the kernel existed, each CLI branch re-plumbed the same
ambient state by hand: the Table 1 corpus was re-materialised per
command, observers were constructed inline, and there was nowhere to
hang cross-request state like a result cache. :class:`RunContext`
threads all of it explicitly:

* a **memoised corpus** (and its content digest, the cache key
  ingredient for pure operations),
* the **result cache** slot (``None`` disables caching),
* a **metrics observer factory** for the profiler paths, which need
  the master switch on without chaining any audit events,
* the **default seed** for simulation-flavoured operations — the
  clock-free configuration knob; nothing in a context reads the
  clock or global RNG state.

Contexts are cheap: one per CLI invocation, one per warm pool (whose
cache amortises across every batch it serves) and one cache-less
context per worker process (where the memoised corpus amortises
across every request the worker serves).
"""

from __future__ import annotations

import hashlib

__all__ = ["RunContext"]


class RunContext:
    """Shared state for one run of one or many operations."""

    __slots__ = ("cache", "default_seed", "_corpus", "_digest")

    def __init__(self, *, cache=None, default_seed: int = 0) -> None:
        self.cache = cache
        self.default_seed = default_seed
        self._corpus = None
        self._digest: str | None = None

    @property
    def is_warm(self) -> bool:
        """Whether the lazy slots are already materialised.

        The health surface reads this instead of poking the private
        slots: a warm context means the corpus build and digest
        hashing — the dominant first-request costs — are already
        paid.
        """
        return self._corpus is not None and self._digest is not None

    def corpus(self):
        """The Table 1 corpus, materialised once per context."""
        if self._corpus is None:
            from .. import table1_corpus

            self._corpus = table1_corpus()
        return self._corpus

    def corpus_digest(self) -> str:
        """Content digest of codebook + corpus (the purity key).

        BLAKE2b-128 over the codebook identity (name and dimension
        ids) and the full corpus serialisation — any change to the
        coded data or its schema changes the digest, invalidating
        every cached pure result.
        """
        if self._digest is None:
            corpus = self.corpus()
            codebook = corpus.codebook
            hasher = hashlib.blake2b(digest_size=16)
            hasher.update(codebook.name.encode("utf-8"))
            hasher.update(b"\x00")
            hasher.update(
                ",".join(codebook.dimension_ids).encode("utf-8")
            )
            hasher.update(b"\x00")
            hasher.update(corpus.to_json(indent=None).encode("utf-8"))
            self._digest = hasher.hexdigest()
        return self._digest

    def cache_digest(self, operation, request) -> str:
        """The purity digest for one (operation, request) pair.

        Plain pure operations key on the corpus digest alone. A
        ``pack_scoped`` operation additionally mixes in the content
        digest of the policy pack its request names — resolved
        fresh on every call, so an edited pack file yields a new
        key immediately (hot-swap without restart or cache flush).
        Raises :class:`~repro.errors.PolicyError` for an unknown or
        malformed pack reference, exactly as the handler would.
        """
        digest = self.corpus_digest()
        if operation.pack_scoped:
            from ..policy import pack_digest_for

            digest = f"{digest}:{pack_digest_for(request.get('pack'))}"
        return digest

    def warm_up(self) -> str:
        """Materialise every lazy slot now; returns the corpus digest.

        A long-lived coordinator (a warm pool's context) calls this
        once at startup so the corpus build and digest hashing — the
        dominant first-request costs — are paid before any request
        arrives. Idempotent: the memoised
        slots make repeat calls free.
        """
        self.corpus()
        return self.corpus_digest()

    def make_metrics_observer(self):
        """A live observer with metrics and tracing but no trail.

        For operations (the profiler paths) that need the master
        switch on without recording or chaining any audit events.
        """
        from ..observability import MetricsRegistry, Observer, Tracer

        registry = MetricsRegistry()
        return Observer(metrics=registry, tracer=Tracer(registry))
