"""The executor-backend seam: threads and processes."""

import pytest

from repro.engine.compiled import compile_spanner
from repro.service.backend import ProcessBackend, ThreadBackend
from repro.service.evaluate import WorkerPool, evaluate_records

DOCS = ["baa", "aaa", "", "bb", "aba"]
RECORDS = [(f"d{i}", text) for i, text in enumerate(DOCS)]


@pytest.fixture(scope="module")
def engine():
    return compile_spanner(".*x{a+}.*")


@pytest.mark.parametrize("kind", ["mappings", "extract", "matches"])
def test_thread_backend_matches_local(engine, kind):
    with ThreadBackend(threads=2) as backend:
        triples = backend.submit(engine, RECORDS, kind=kind).result()
    assert triples == evaluate_records(engine, RECORDS, kind, False)


def test_thread_backend_spans(engine):
    with ThreadBackend(threads=2) as backend:
        triples = backend.submit(
            engine, RECORDS, kind="extract", spans=True
        ).result()
    assert triples == evaluate_records(engine, RECORDS, "extract", True)


def test_thread_backend_rejects_bad_kind(engine):
    with ThreadBackend(threads=1) as backend:
        with pytest.raises(ValueError, match="unknown batch kind"):
            backend.submit(engine, RECORDS, kind="verdicts")


def test_thread_backend_closed_refuses(engine):
    backend = ThreadBackend(threads=1)
    backend.close()
    with pytest.raises(RuntimeError, match="closed"):
        backend.submit(engine, RECORDS)


def test_process_backend_spawned_pool(engine):
    with ProcessBackend(workers=2) as backend:
        assert backend.parallelism == 2
        assert backend.stats()["backend"] == "processes"
        triples = backend.submit(engine, RECORDS, kind="mappings").result()
    assert triples == evaluate_records(engine, RECORDS, "mappings", False)
    assert backend.pool.failed is False or backend.pool.failed  # shut down


def test_process_backend_borrowed_pool_survives_close(engine):
    pool = WorkerPool(2)
    try:
        backend = ProcessBackend(pool=pool)
        first = backend.submit(engine, RECORDS, kind="matches").result()
        backend.close()
        # close() must not shut a caller-owned pool down.
        second = pool.submit(engine, RECORDS, kind="matches").result()
        assert first == second
    finally:
        pool.shutdown()


def test_process_backend_argument_validation():
    with pytest.raises(ValueError, match="exactly one"):
        ProcessBackend()
    with pytest.raises(ValueError, match="exactly one"):
        ProcessBackend(workers=2, pool=object())
