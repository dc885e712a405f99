"""Corpus evaluation: sharding, ordering, determinism, error isolation."""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.engine.compiled import compile_spanner
from repro.service import (
    GeneratorCorpus,
    InMemoryCorpus,
    corpus_outputs,
    evaluate_corpus,
    extract_corpus,
)
from repro.util.errors import CorpusError
from repro.workloads import land_registry

PATTERN = ".*x{a+}.*"


def docs(count):
    return [f"b{'a' * (n % 5)}" for n in range(count)]


class TestSerial:
    def test_empty_corpus(self):
        assert list(evaluate_corpus(PATTERN, [])) == []

    def test_matches_evaluate_many(self):
        documents = docs(10)
        engine = compile_spanner(PATTERN)
        expected = engine.evaluate_many(documents)
        results = list(evaluate_corpus(PATTERN, documents))
        assert [set(r.mappings) for r in results] == expected

    def test_results_carry_corpus_ids(self):
        results = list(evaluate_corpus(PATTERN, {"one": "ba", "two": "bb"}))
        assert [r.doc_id for r in results] == ["one", "two"]
        assert results[0].ok and results[1].ok

    def test_error_isolation(self):
        corpus = [("good", "aa"), ("bad", None), ("after", "a")]
        results = list(evaluate_corpus(PATTERN, corpus))
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].mappings is None
        assert "TypeError" in results[1].error

    def test_duplicate_ids_from_generator_raise(self):
        corpus = GeneratorCorpus(lambda: [("d", "a"), ("d", "b")])
        with pytest.raises(CorpusError, match="duplicate document id"):
            list(evaluate_corpus(PATTERN, corpus))

    def test_invalid_workers_raise_at_call_time(self):
        with pytest.raises(ValueError):
            evaluate_corpus(PATTERN, ["a"], workers=0)  # no iteration needed

    def test_bad_pattern_raises_at_call_time(self):
        from repro.util.errors import SpannerError

        with pytest.raises(SpannerError):
            evaluate_corpus("(((", ["a"])

    def test_bare_string_corpus_is_one_document(self):
        results = list(evaluate_corpus(PATTERN, "banana"))
        assert [r.doc_id for r in results] == ["doc-00000"]


class TestParallel:
    """Process-pool paths (kept small: the test box may be single-core)."""

    def test_ordered_mode_deterministic_across_worker_counts(self):
        documents = docs(24)
        serial = [
            (r.doc_id, r.mappings)
            for r in evaluate_corpus(PATTERN, documents, workers=1)
        ]
        parallel = [
            (r.doc_id, r.mappings)
            for r in evaluate_corpus(
                PATTERN, documents, workers=4, chunk_size=3
            )
        ]
        assert serial == parallel

    def test_as_completed_mode_same_result_set(self):
        documents = docs(12)
        ordered = {
            (r.doc_id, r.mappings)
            for r in evaluate_corpus(PATTERN, documents, workers=1)
        }
        completed = {
            (r.doc_id, r.mappings)
            for r in evaluate_corpus(
                PATTERN, documents, workers=2, ordered=False, chunk_size=2
            )
        }
        assert completed == ordered

    def test_worker_error_isolation(self):
        corpus = [("good", "aa"), ("bad", None), ("after", "a")]
        results = list(
            evaluate_corpus(PATTERN, corpus, workers=2, chunk_size=1)
        )
        assert [r.doc_id for r in results] == ["good", "bad", "after"]
        assert [r.ok for r in results] == [True, False, True]
        assert "TypeError" in results[1].error

    def test_registry_corpus_parallel_matches_serial(self):
        corpus = land_registry.corpus(6, rows_per_document=2, seed=5)
        serial = land_registry.extract_corpus_pairs(corpus)
        parallel = land_registry.extract_corpus_pairs(corpus, workers=2)
        assert serial == parallel
        assert set(serial) == set(corpus.doc_ids())

    def test_merged_worker_stats_are_the_sum_of_per_worker_counters(self):
        # The --stats/--workers contract: the merged report equals the
        # sum over workers of each worker's latest cumulative snapshot
        # (kernel/cache summed per (pid, fingerprint)).
        from repro.service.evaluate import WorkerPool

        engine = compile_spanner(PATTERN)
        with WorkerPool(2) as pool:
            futures = [
                pool.submit(engine, [(f"d{i}", "f0=aa;" * 3)])
                for i in range(6)
            ]
            for future in futures:
                future.result()
            merged = pool.stats(engine.fingerprint)
            with pool._stats_lock:
                snapshots = [
                    dict(snapshot)
                    for (pid, fp), snapshot in pool._worker_stats.items()
                    if fp == engine.fingerprint
                ]
        assert merged["workers"] == len(
            {snapshot["pid"] for snapshot in snapshots}
        )
        assert merged["workers"] >= 1
        for section in ("kernel", "cache"):
            expected: dict = {}
            for snapshot in snapshots:
                for key, value in snapshot[section].items():
                    expected[key] = expected.get(key, 0) + value
            assert merged[section] == expected
        assert merged["kernel"].get("flat_states", 0) > 0  # real work merged


#: Runs one batch on a two-worker pool, then reports the interpreter's
#: child processes (every /proc entry whose parent pid is ours) next to
#: the pool's worker pids.
_POOL_CHILDREN_SCRIPT = f"""
import json, os
from repro.engine.compiled import compile_spanner
from repro.service import WorkerPool

def children():
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{{entry}}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            found.append(int(entry))
    return sorted(found)

with WorkerPool(2) as pool:
    pool.submit(compile_spanner({PATTERN!r}), [("d0", "baa")]).result()
    print(json.dumps([children(), sorted(pool.worker_pids())]))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or multiprocessing.get_start_method() != "fork",
    reason="reads /proc; other start methods run a fork server helper",
)
class TestPoolProcesses:
    def test_pool_owner_starts_no_child_beyond_its_workers(self):
        """Engines reach workers as pickles, so owning a pool starts no
        helper process (such as multiprocessing's resource tracker)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        result = subprocess.run(
            [sys.executable, "-c", _POOL_CHILDREN_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        children, workers = json.loads(result.stdout)
        assert len(workers) == 2
        assert children == workers

    def test_every_executor_submit_holds_the_fork_lock(self, monkeypatch):
        """A fresh executor forks its workers inside ``submit``.  Two
        threads forking at once leak one worker's liveness pipe into the
        other's child, which hides that worker's death and hangs its
        batch, so the pool's and the quarantine probe's submits take
        one lock."""
        from concurrent.futures import ProcessPoolExecutor

        from repro.service import evaluate

        held = []
        real_submit = ProcessPoolExecutor.submit

        def spy(executor, *args, **kwargs):
            held.append(evaluate._FORK_LOCK.locked())
            return real_submit(executor, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", spy)
        engine = compile_spanner(PATTERN)
        with evaluate.WorkerPool(1) as pool:
            pool.submit(engine, [("d0", "baa")]).result(timeout=60)
            pool._probe_once(engine, [("d0", "baa")], "mappings", False)
        assert held == [True, True]


class TestExtractCorpus:
    def test_decoded_results(self):
        results = list(extract_corpus(".*Seller: x{[^,\n]*},.*", ["Seller: John, ID75\n"]))
        assert results[0].mappings == ({"x": "John"},)

    def test_spans_mode(self):
        results = list(extract_corpus("x{a}b", ["ab"], spans=True))
        [[record]] = [list(r.mappings) for r in results]
        span = record["x"]
        assert (span.begin, span.end) == (1, 2)

    def test_parallel_decoding_in_workers(self):
        documents = ["Seller: John, ID75\n", "Seller: Mark, ID7\n"] * 3
        serial = [
            r.mappings
            for r in extract_corpus(".*Seller: x{[^,\n]*},.*", documents)
        ]
        parallel = [
            r.mappings
            for r in extract_corpus(
                ".*Seller: x{[^,\n]*},.*", documents, workers=2, chunk_size=2
            )
        ]
        assert serial == parallel


class TestCorpusOutputs:
    def test_matches_batch_api(self):
        documents = docs(8)
        engine = compile_spanner(PATTERN)
        assert [
            set(out) for out in corpus_outputs(PATTERN, documents)
        ] == engine.evaluate_many(documents)

    def test_errors_reraise(self):
        with pytest.raises(CorpusError, match="failed"):
            corpus_outputs(PATTERN, [("bad", None)])


class TestStreamingLaziness:
    def test_serial_is_lazy(self):
        consumed = []

        def factory():
            for n in range(100):
                consumed.append(n)
                yield f"a{n % 3 * 'a'}"

        stream = evaluate_corpus(PATTERN, GeneratorCorpus(factory))
        next(stream)
        assert len(consumed) < 100  # did not materialise the corpus

    def test_empty_corpus_parallel(self):
        assert list(evaluate_corpus(PATTERN, InMemoryCorpus([]), workers=2)) == []
