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

Entries are **mergeable**: batch workers keep no cache, and the
coordinator folds the pure results a worker chunk computed into its
own (:meth:`ResultCache.merge`) — the one-cache protocol the warm
pool (:mod:`repro.ops.pool`) is built on. ``key in cache`` probes
without touching the hit/miss counters, so dispatch planning never
skews the stats a batch summary reports.

An entry can also keep one encoding of its response
(:meth:`ResultCache.body`): the batch executor keeps a hit's
transcript body there, so every later hit of that entry reuses it
instead of encoding the response again. Only hits keep one, and an
evicted entry's body goes with it.

An entry can likewise keep one raw request line that resolves to it
(:meth:`ResultCache.remember`): the batch executor memoises a hit's
line bytes to its parsed, canonical request and cache key, so the
next run reads that line back (``ResultCache.recall``) without
parsing, canonicalising or hashing it again. The memo holds at most
one line per entry and loses it with the entry, so it never outgrows
the cache.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Iterable, Mapping

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

    __slots__ = (
        "maxsize",
        "hits",
        "misses",
        "_entries",
        "_bodies",
        "_lines",
        "_line_of",
        "recall",
    )

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[str, OpResponse] = OrderedDict()
        self._bodies: dict[str, str] = {}
        # Raw line -> memoised request, and key -> its one raw line.
        self._lines: dict[bytes, tuple] = {}
        self._line_of: dict[str, bytes] = {}
        #: ``recall(line)``: the request memoised for raw *line*, or
        #: ``None`` — the memo's own ``dict.get``, as it runs once
        #: per line of every batch.
        self.recall = self._lines.get

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
        """Store *response*; the oldest entry is evicted at capacity.

        A replaced or evicted entry drops its kept body and line.
        """
        if key in self._entries:
            self._drop(key)
        elif len(self._entries) >= self.maxsize:
            evicted, _ = self._entries.popitem(last=False)
            self._drop(evicted)
        self._entries[key] = response

    def _drop(self, key: str) -> None:
        """Forget what *key*'s entry keeps besides its response."""
        self._bodies.pop(key, None)
        self._drop_line(key)

    def _drop_line(self, key: str) -> None:
        line = self._line_of.pop(key, None)
        if line is not None:
            del self._lines[line]

    def body(self, key: str, encode: Callable[[], str]) -> str:
        """The body kept for *key*'s entry, made by *encode* once.

        The first call keeps what *encode* returns; later calls
        return it without calling *encode*. The body lives as long as
        the entry: :meth:`put` drops it on eviction or replacement,
        and a key with no entry keeps nothing. Neither hits nor
        misses move.
        """
        body = self._bodies.get(key)
        if body is None:
            body = encode()
            if key in self._entries:
                self._bodies[key] = body
        return body

    def remember(self, key: str, line: bytes, request: tuple) -> None:
        """Memo raw request *line* as *request* while *key*'s entry lives.

        *request* is whatever the caller needs to serve *line* again
        without parsing it; it must resolve to *key* for as long as
        the entry lives. A key keeps at most one line (a new one
        replaces the old), a line already memoised stays as it is,
        and a key with no entry keeps nothing. Neither hits nor
        misses move.
        """
        if key in self._entries and line not in self._lines:
            self._drop_line(key)
            self._line_of[key] = line
            self._lines[line] = request

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
            "bodies": len(self._bodies),
            "entries": len(self._entries),
            "hits": self.hits,
            "lines": len(self._lines),
            "maxsize": self.maxsize,
            "misses": self.misses,
        }
