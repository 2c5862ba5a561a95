"""Batch transcript lines: the hit path's bytes and what it keeps.

A warm batch serves a repeated pure request from the result cache.
Its transcript line must be byte-identical to the line the same
request produced when it missed and ran its handler. The digest below
was taken before cache hits reused a kept encoding of their response,
so it holds the hit path's bytes fixed whatever the executor keeps
between runs. A property test pins the line encoder to the plain
``emit_jsonl`` of the whole line, and the memory guards check that
only hits keep a body and that an evicted entry drops its body.

A warm executor also memoises each hit's raw request line, so later
runs read it back unparsed. The memo tests check that those runs keep
the same transcript, that only hits memoise a line, that the memo
lives and dies with its cache entry, and that a memoised line still
gets the index of its position.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.ops import (
    BatchExecutor,
    OpResponse,
    ResultCache,
    RunContext,
    emit_jsonl,
    execute,
    load_requests,
    shutdown_warm_pools,
    warm_pool,
)
from repro.ops.batch import _encode_line, _line_body

#: One request for each of the 15 batchable pure operations.
PURE_REQUEST_LINES = [
    {"op": "table1", "args": {"format": "csv"}},
    {"op": "report.render"},
    {"op": "table.latex", "args": {"style": "plain"}},
    {"op": "codebook.merge", "args": {"strategy": "union"}},
    {"op": "agreement.fuzzy"},
    {"op": "stats"},
    {"op": "report"},
    {"op": "legend"},
    {"op": "policy.list"},
    {"op": "policy.show", "args": {"pack": "precautionary"}},
    {"op": "policy.assess", "args": {"seed": 5}},
    {"op": "bibliography"},
    {"op": "similarity", "args": {"threshold": 0.6}},
    {"op": "evidence", "args": {"entry_id": "patreon"}},
    {"op": "intervals"},
]

#: BLAKE2b-256 of the transcript of :data:`PURE_REQUEST_LINES`, for
#: any worker count and whether each line hit or missed.
TRANSCRIPT_BLAKE2B = (
    "94e1d7b96afb1d6ad7fbd8585b2c16c9"
    "7ac39b494c808928deb14008f840c8dd"
)


@pytest.fixture(autouse=True)
def isolated_warm_pools():
    """Every test starts and ends with no live warm pools."""
    shutdown_warm_pools()
    yield
    shutdown_warm_pools()


@pytest.fixture
def pure_file(tmp_path):
    path = tmp_path / "pure.jsonl"
    path.write_text(
        "".join(json.dumps(line) + "\n" for line in PURE_REQUEST_LINES),
        encoding="utf-8",
    )
    return path


@pytest.fixture
def pure_requests(pure_file):
    return load_requests(pure_file)


def _direct_transcript(requests) -> str:
    """The transcript built without the batch executor or any cache."""
    context = RunContext()
    lines = []
    for request in requests:
        response = execute(request.op, request.args, context=context)
        line = {**response.to_dict(), "index": request.index, "op": request.op}
        lines.append(emit_jsonl(line) + "\n")
    return "".join(lines)


def _blake2b(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=32).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
def test_hit_transcript_equals_miss_transcript(pure_requests, workers):
    executor = BatchExecutor(workers=workers, warm=True)
    prefill = executor.run(pure_requests)
    first_hits = executor.run(pure_requests)
    later_hits = executor.run(pure_requests)
    count = len(PURE_REQUEST_LINES)
    assert prefill.summary["cache"]["misses"] == count
    assert first_hits.summary["cache"]["hits"] == count
    assert later_hits.summary["cache"]["hits"] == count
    assert later_hits.lines == first_hits.lines == prefill.lines
    assert later_hits.text() == first_hits.text() == prefill.text()
    assert prefill.text() == _direct_transcript(pure_requests)
    assert _blake2b(prefill.text()) == TRANSCRIPT_BLAKE2B


@pytest.mark.parametrize("workers", [1, 2])
def test_only_hits_keep_a_body(pure_requests, workers):
    executor = BatchExecutor(workers=workers, warm=True)
    cache = warm_pool(workers, True).cache
    executor.run(pure_requests)
    stats = cache.stats()
    assert stats["entries"] == len(PURE_REQUEST_LINES)
    assert stats["bodies"] == 0  # an all-miss batch keeps nothing
    executor.run(pure_requests)
    assert cache.stats()["bodies"] == len(PURE_REQUEST_LINES)


def test_uncached_batch_keeps_no_body(pure_requests):
    result = BatchExecutor(use_cache=False).run(pure_requests)
    assert result.bodies == (None,) * len(PURE_REQUEST_LINES)


class TestKeptBody:
    def test_encoded_once_per_entry(self):
        cache = ResultCache()
        cache.put("k", OpResponse(payload={}, text="k"))
        calls = []

        def encode():
            calls.append(1)
            return '"output":"k","payload":{}'

        assert cache.body("k", encode) == cache.body("k", encode)
        assert len(calls) == 1
        assert cache.stats()["bodies"] == 1
        assert cache.hits == 0 and cache.misses == 0

    def test_evicted_entry_drops_its_body(self):
        cache = ResultCache(maxsize=2)
        cache.put("a", OpResponse(payload={}, text="a"))
        cache.put("b", OpResponse(payload={}, text="b"))
        cache.body("a", lambda: "A")
        cache.body("b", lambda: "B")
        cache.put("c", OpResponse(payload={}, text="c"))
        assert "a" not in cache
        assert cache.stats()["bodies"] == 1
        assert cache.body("a", lambda: "fresh") == "fresh"
        assert cache.stats()["bodies"] == 1  # no entry, nothing kept
        assert cache.body("b", lambda: "stale") == "B"

    def test_replaced_entry_drops_its_body(self):
        cache = ResultCache()
        cache.put("a", OpResponse(payload={}, text="a"))
        cache.body("a", lambda: "old")
        cache.put("a", OpResponse(payload={}, text="A"))
        assert cache.body("a", lambda: "new") == "new"


def _memo_served(requests) -> bool:
    """Whether every request was read back from the line memo."""
    return all(
        request.key is not None and request.line is None
        for request in requests
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_memo_served_runs_keep_the_transcript(pure_file, workers):
    executor = BatchExecutor(workers=workers, warm=True)
    count = len(PURE_REQUEST_LINES)
    runs = []
    for _ in range(4):
        requests = executor.load(pure_file)
        runs.append((requests, executor.run(requests)))
    (prefill, missed), (first, hit) = runs[:2]
    assert not _memo_served(prefill) and not _memo_served(first)
    assert missed.summary["cache"]["misses"] == count
    for requests, result in runs[2:]:
        assert _memo_served(requests)
        assert requests == first  # same index, op and args
        assert result.summary["cache"]["hits"] == count
        assert result.lines == hit.lines == missed.lines
        assert _blake2b(result.text()) == TRANSCRIPT_BLAKE2B


@pytest.mark.parametrize("workers", [1, 2])
def test_only_hits_memoise_a_line(pure_file, workers):
    executor = BatchExecutor(workers=workers, warm=True)
    cache = warm_pool(workers, True).cache
    executor.run(executor.load(pure_file))
    assert cache.stats()["lines"] == 0  # an all-miss batch keeps nothing
    executor.run(executor.load(pure_file))
    assert cache.stats()["lines"] == len(PURE_REQUEST_LINES)
    executor.run(executor.load(pure_file))
    assert cache.stats()["lines"] == len(PURE_REQUEST_LINES)


def test_evicted_entries_take_their_lines(pure_file):
    executor = BatchExecutor(warm=True)
    cache = warm_pool(1, True).cache
    for _ in range(2):
        executor.run(executor.load(pure_file))
    assert cache.stats()["lines"] == len(PURE_REQUEST_LINES)
    filler = OpResponse(payload={}, text="")
    for number in range(cache.maxsize):
        cache.put(f"filler-{number}", filler)
    assert cache.stats()["lines"] == 0
    requests = executor.load(pure_file)
    assert not any(request.key for request in requests)
    result = executor.run(requests)
    assert result.summary["cache"]["misses"] == len(PURE_REQUEST_LINES)
    assert _blake2b(result.text()) == TRANSCRIPT_BLAKE2B


def test_uncached_and_cold_runs_memoise_nothing(pure_file):
    """``--no-cache`` and one-shot runs parse every line every time."""
    for executor in (
        BatchExecutor(warm=True, use_cache=False),
        BatchExecutor(),
    ):
        for _ in range(3):
            requests = executor.load(pure_file)
            executor.run(requests)
        assert not any(
            request.key or request.line for request in requests
        )


def test_repeated_bytes_get_their_own_index(tmp_path):
    stats = '{"op": "stats"}\n'
    legend = '{"op": "legend"}\n'
    path = tmp_path / "repeat.jsonl"
    path.write_text(stats + "\n" + legend + stats, encoding="utf-8")
    moved = tmp_path / "moved.jsonl"
    moved.write_text(legend + stats, encoding="utf-8")
    executor = BatchExecutor(warm=True)
    for _ in range(3):
        requests = executor.load(path)
        result = executor.run(requests)
    assert _memo_served(requests)
    assert warm_pool(1, True).cache.stats()["lines"] == 2
    assert [(r.index, r.op) for r in requests] == [
        (0, "stats"),
        (1, "legend"),
        (2, "stats"),
    ]
    assert [line["index"] for line in result.lines] == [0, 1, 2]
    assert result.text() == _direct_transcript(load_requests(path))
    requests = executor.load(moved)
    assert _memo_served(requests)
    assert [(r.index, r.op) for r in requests] == [
        (0, "legend"),
        (1, "stats"),
    ]
    assert executor.run(requests).text() == _direct_transcript(
        load_requests(moved)
    )


class TestMemoLine:
    def test_kept_while_the_entry_lives(self):
        cache = ResultCache()
        cache.put("k", OpResponse(payload={}, text="k"))
        cache.remember("k", b"line\n", ("memo",))
        assert cache.recall(b"line\n") == ("memo",)
        assert cache.stats()["lines"] == 1
        assert cache.hits == 0 and cache.misses == 0

    def test_no_entry_keeps_nothing(self):
        cache = ResultCache()
        cache.remember("k", b"line\n", ("memo",))
        assert cache.recall(b"line\n") is None
        assert cache.stats()["lines"] == 0

    def test_evicted_entry_drops_its_line(self):
        cache = ResultCache(maxsize=2)
        cache.put("a", OpResponse(payload={}, text="a"))
        cache.put("b", OpResponse(payload={}, text="b"))
        cache.remember("a", b"A\n", ("a",))
        cache.remember("b", b"B\n", ("b",))
        cache.put("c", OpResponse(payload={}, text="c"))
        assert cache.recall(b"A\n") is None
        assert cache.recall(b"B\n") == ("b",)
        assert cache.stats()["lines"] == 1

    def test_replaced_entry_drops_its_line(self):
        cache = ResultCache()
        cache.put("a", OpResponse(payload={}, text="a"))
        cache.remember("a", b"A\n", ("a",))
        cache.put("a", OpResponse(payload={}, text="A"))
        assert cache.recall(b"A\n") is None
        assert cache.stats()["lines"] == 0

    def test_one_line_per_entry(self):
        cache = ResultCache()
        cache.put("a", OpResponse(payload={}, text="a"))
        cache.remember("a", b"first\n", ("first",))
        cache.remember("a", b"second\n", ("second",))
        assert cache.recall(b"first\n") is None
        assert cache.recall(b"second\n") == ("second",)
        assert cache.stats()["lines"] == 1


#: JSON-encodable leaves, strings biased towards the characters JSON
#: escapes: quotes, backslashes, controls and the Unicode separators.
_TEXT = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029\ufeff\U0001f600'),
    )
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    _TEXT,
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(
    text=_TEXT,
    payload=st.dictionaries(_TEXT, _VALUES, max_size=5),
    exit_code=st.integers(),
    index=st.integers(),
    name=_TEXT,
)
def test_line_encoder_matches_emit_jsonl(text, payload, exit_code, index, name):
    response = OpResponse(payload=payload, text=text, exit_code=exit_code)
    line = {**response.to_dict(), "index": index, "op": name}
    oracle = emit_jsonl(line) + "\n"
    assert _encode_line(line, None) == oracle
    assert _encode_line(line, _line_body(line)) == oracle
