"""The on-disk artifact store: warm loads, fault tolerance, concurrency.

The store's contract is that it can *never* make an evaluation wrong or
crash a run: a valid artifact loads an engine with byte-identical
output, and everything else — corruption, version skew, concurrent
writers, a missing directory — degrades to a counted miss and a
recompile.
"""

import os
import threading

import pytest

from repro.engine.compiled import compile_spanner
from repro.service.artifact_store import ArtifactStore, default_artifact_root
from repro.service.cache import SpannerCache

pytestmark = pytest.mark.kernel

PATTERN = ".*x{a+}.*"
DOCUMENT = "baa ab"


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(str(tmp_path))


class TestSaveLoad:
    def test_roundtrip_is_byte_identical(self, store):
        engine = compile_spanner(PATTERN)
        assert store.save(engine, opt_level=1, pattern=PATTERN)
        warm = store.load(engine.fingerprint)
        assert warm is not None
        assert warm.mappings(DOCUMENT) == engine.mappings(DOCUMENT)
        assert list(warm.extract(DOCUMENT)) == list(engine.extract(DOCUMENT))
        assert store.counters() == {
            "hits": 1,
            "misses": 0,
            "saves": 1,
            "errors": 0,
        }

    def test_missing_artifact_is_a_counted_miss(self, store):
        assert store.load("0" * 64) is None
        assert store.counters()["misses"] == 1
        assert store.counters()["errors"] == 0

    def test_refs_resolve_pattern_to_fingerprint(self, store):
        engine = compile_spanner(PATTERN)
        store.save(engine, opt_level=1, pattern=PATTERN)
        assert store.resolve(PATTERN, 1) == engine.fingerprint
        assert store.resolve(PATTERN, 2) is None
        assert store.resolve("y{b}", 1) is None

    def test_second_save_is_a_noop(self, store):
        engine = compile_spanner(PATTERN)
        assert store.save(engine) is True
        assert store.save(engine) is False
        assert store.counters()["saves"] == 1

    def test_list_and_stats_describe_the_cache(self, store):
        engine = compile_spanner(PATTERN)
        store.save(engine, opt_level=1, pattern=PATTERN)
        (record,) = store.list()
        assert record["fingerprint"] == engine.fingerprint
        assert record["expression"] == PATTERN
        assert record["size"] > 0
        stats = store.stats()
        assert stats["artifacts"] == 1
        assert stats["bytes"] == record["size"]

    def test_clear_removes_artifacts_and_refs(self, store):
        engine = compile_spanner(PATTERN)
        store.save(engine, opt_level=1, pattern=PATTERN)
        assert store.clear() == 1
        assert store.list() == []
        assert store.resolve(PATTERN, 1) is None


class TestFaultTolerance:
    def _corrupt(self, store, fingerprint, mutate):
        path = store.artifact_path(fingerprint)
        blob = bytearray(open(path, "rb").read())
        mutate(blob)
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        return path

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda blob: blob.__setitem__(slice(0, 4), b"NOPE"),  # magic
            lambda blob: blob.__setitem__(4, 99),  # version
            lambda blob: blob.__setitem__(60, blob[60] ^ 0xFF),  # bit flip
            lambda blob: blob.__delitem__(slice(len(blob) - 9, len(blob))),
        ],
        ids=["bad-magic", "bad-version", "bit-flip", "truncated"],
    )
    def test_damaged_artifact_quarantined_not_crashed(self, store, mutate):
        engine = compile_spanner(PATTERN)
        store.save(engine)
        path = self._corrupt(store, engine.fingerprint, mutate)
        assert store.load(engine.fingerprint) is None
        counters = store.counters()
        assert counters["errors"] == 1 and counters["misses"] == 1
        assert not os.path.exists(path)  # quarantined: next save rewrites
        assert store.save(engine) is True  # and it can indeed rewrite

    def test_artifact_under_the_wrong_fingerprint(self, store, tmp_path):
        engine = compile_spanner(PATTERN)
        store.save(engine)
        wrong = "0" * 64
        target = store.artifact_path(wrong)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        os.link(store.artifact_path(engine.fingerprint), target)
        assert store.load(wrong) is None
        assert store.counters()["errors"] == 1

    def test_cache_falls_back_to_recompile_on_corruption(self, store):
        # The end-to-end guarantee: a SpannerCache backed by a corrupt
        # store still produces a working engine with identical output.
        cold = SpannerCache()
        cold.attach_artifacts(store)
        expected = cold.get(PATTERN).mappings(DOCUMENT)
        self._corrupt(
            store,
            compile_spanner(PATTERN).fingerprint,
            lambda blob: blob.__setitem__(90, blob[90] ^ 0x01),
        )
        warm = SpannerCache()
        warm.attach_artifacts(ArtifactStore(store.root))
        assert warm.get(PATTERN).mappings(DOCUMENT) == expected


class TestConcurrency:
    def test_concurrent_writers_first_insert_wins(self, store):
        engine = compile_spanner(PATTERN)
        results = []
        barrier = threading.Barrier(8)

        def writer():
            private = ArtifactStore(store.root)
            barrier.wait()
            results.append(private.save(engine, opt_level=1, pattern=PATTERN))

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(results) == 1  # exactly one writer published
        assert store.load(engine.fingerprint) is not None


class TestSpannerCacheIntegration:
    def test_fresh_cache_warm_loads_by_pattern_ref(self, store):
        first = SpannerCache()
        first.attach_artifacts(store)
        expected = first.get(PATTERN).mappings(DOCUMENT)
        assert store.counters()["saves"] == 1

        second_store = ArtifactStore(store.root)
        second = SpannerCache()
        second.attach_artifacts(second_store)
        engine = second.get(PATTERN)
        # The ref resolved the pattern without planning, and the load hit.
        assert second_store.counters() == {
            "hits": 1,
            "misses": 0,
            "saves": 0,
            "errors": 0,
        }
        assert engine.mappings(DOCUMENT) == expected

    def test_non_string_source_loads_by_fingerprint(self, store):
        from repro.spanner import Spanner

        first = SpannerCache()
        first.attach_artifacts(store)
        first.get(PATTERN)
        second_store = ArtifactStore(store.root)
        second = SpannerCache()
        second.attach_artifacts(second_store)
        second.get(Spanner.compile(PATTERN))
        assert second_store.counters()["hits"] == 1

    def test_detach_restores_plain_behaviour(self, store):
        cache = SpannerCache()
        cache.attach_artifacts(store)
        cache.attach_artifacts(None)
        cache.get(PATTERN)
        assert store.counters() == {
            "hits": 0,
            "misses": 0,
            "saves": 0,
            "errors": 0,
        }


class TestEnvironmentResolution:
    def test_default_root_honours_xdg(self, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg-test")
        assert default_artifact_root() == (
            "/tmp/xdg-test/repro-spanners/artifacts"
        )
