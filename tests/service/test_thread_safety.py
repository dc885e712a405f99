"""Concurrent access to the caches the async server shares across threads."""

import threading

from repro.engine.compiled import compile_spanner
from repro.service import SpannerCache

THREADS = 8
ROUNDS = 40


def hammer(worker, threads=THREADS):
    failures = []

    def runner(identity):
        try:
            worker(identity)
        except Exception as error:  # surfaced below, with context
            failures.append(f"thread {identity}: {error!r}")

    pool = [
        threading.Thread(target=runner, args=(identity,))
        for identity in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert not failures, failures


class TestCompiledSpannerUnderThreads:
    def test_concurrent_evaluation_is_correct_and_counted(self):
        engine = compile_spanner(".*x{a+}.*")
        documents = [f"b{'a' * (1 + n % 5)}b" for n in range(ROUNDS)]
        expected = [engine.extract(document) for document in documents]

        def worker(identity):
            for position, document in enumerate(documents):
                assert engine.extract(document) == expected[position]
                assert engine.matches(document) is True

        hammer(worker)
        stats = engine.cache_stats()
        # Every call is accounted for: each extract builds one output DAG,
        # each matches is one verdict lookup (a lost insert race still
        # counts).
        calls = THREADS * len(documents)
        assert stats["dags"] == len(documents) + calls
        assert stats["verdict_hits"] + stats["verdict_misses"] == calls
        assert stats["index_size"] <= stats["index_capacity"]
        assert stats["verdict_size"] <= stats["verdict_capacity"]

    def test_eviction_under_contention_keeps_bound(self):
        from repro.engine import compiled as compiled_module

        engine = compile_spanner("x{a}b")
        limit = compiled_module._DOCUMENT_CACHE_LIMIT

        def worker(identity):
            for n in range(limit * 2):
                engine.index(f"{'z' * identity}a{'b' * (n % 7)}")

        hammer(worker)
        assert len(engine._indexes) <= limit


class TestSpannerCacheUnderThreads:
    def test_concurrent_gets_converge_on_one_engine(self):
        cache = SpannerCache()
        seen = []

        def worker(identity):
            for _ in range(ROUNDS):
                seen.append(cache.get(".*x{a+}.*"))

        hammer(worker)
        assert all(engine is seen[0] for engine in seen)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == len(seen)
        assert stats["size"] == 1

    def test_eviction_race_keeps_capacity_bound(self):
        cache = SpannerCache(capacity=4)
        patterns = [f"x{{{'a' * (1 + n)}}}" for n in range(12)]

        def worker(identity):
            for pattern in patterns[identity % len(patterns):] + patterns:
                cache.get(pattern)

        hammer(worker)
        assert len(cache) <= 4
