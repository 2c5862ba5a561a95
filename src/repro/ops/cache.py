"""Content-addressed result cache for pure operations.

Operations marked ``pure`` (Table 1, the §5 statistics, the report,
the legend, …) are functions of their canonical request and the
codebook+corpus content digest alone. The kernel therefore caches
their full :class:`~repro.ops.spec.OpResponse` under a BLAKE2b key
of exactly those inputs: identical requests against identical data
hit; touching the corpus — or any request field — misses by
construction, with no invalidation protocol to get wrong.

Hit/miss counts are tracked twice: locally on the cache (for batch
summaries and the E17 benchmark) and as ``ops.cache.hits`` /
``ops.cache.misses`` counters in the installed metrics registry, so
an observed run exports cache effectiveness alongside every other
metric.

Entries are **exportable and mergeable**: a batch worker exports the
``(key, response)`` pairs it computed (:meth:`ResultCache.export`)
and ships them back with its chunk result, and the coordinator folds
them into its own cache (:meth:`ResultCache.merge`) — the shared-
cache protocol the warm pool (:mod:`repro.ops.pool`) is built on.
:meth:`ResultCache.peek` and ``key in cache`` probe without touching
the hit/miss counters, so dispatch planning never skews the stats a
batch summary reports.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Mapping

from .._util import blake2b_hex, canonical_json
from ..observability import metrics
from .spec import OpResponse

__all__ = ["ResultCache", "cache_key"]


def cache_key(
    operation: str, request: Mapping, corpus_digest: str
) -> str:
    """The content address of one pure result.

    BLAKE2b-128 over the canonical JSON of ``(operation, request,
    corpus digest)`` — key equality is exactly "same computation on
    the same data".
    """
    return blake2b_hex(
        canonical_json(
            {
                "corpus": corpus_digest,
                "op": operation,
                "request": dict(request),
            }
        ),
        16,
    )


class ResultCache:
    """Bounded, insertion-ordered store of operation responses."""

    __slots__ = ("maxsize", "hits", "misses", "_entries")

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[str, OpResponse] = OrderedDict()

    def get(self, key: str) -> OpResponse | None:
        """The cached response for *key*, counting the hit or miss."""
        response = self._entries.get(key)
        if response is None:
            self.misses += 1
            metrics().counter("ops.cache.misses").inc()
            return None
        self.hits += 1
        metrics().counter("ops.cache.hits").inc()
        return response

    def put(self, key: str, response: OpResponse) -> None:
        """Store *response*; the oldest entry is evicted at capacity."""
        if key not in self._entries and (
            len(self._entries) >= self.maxsize
        ):
            self._entries.popitem(last=False)
        self._entries[key] = response

    def peek(self, key: str) -> OpResponse | None:
        """The entry for *key* without counting a hit or miss.

        Dispatch planning and worker-side export probe the cache
        many times per request; only :meth:`get` — the serving path —
        may move the counters the batch summary reports.
        """
        return self._entries.get(key)

    def export(self) -> tuple[tuple[str, OpResponse], ...]:
        """Every entry as picklable ``(key, response)`` pairs.

        The shipping format of the shared-cache protocol: both sides
        of the process boundary exchange entries in this shape.
        """
        return tuple(self._entries.items())

    def merge(
        self, entries: Iterable[tuple[str, OpResponse]]
    ) -> int:
        """Fold *entries* computed elsewhere in; returns how many.

        Existing keys are kept (first write wins — entries are
        content-addressed, so a duplicate key carries an identical
        response and re-storing it would only churn eviction order).
        Neither hits nor misses move: merged entries were computed,
        not served.
        """
        merged = 0
        for key, response in entries:
            if key not in self._entries:
                self.put(key, response)
                merged += 1
        return merged

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Hit/miss/size counters as a JSON-serialisable dict."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "maxsize": self.maxsize,
            "misses": self.misses,
        }
