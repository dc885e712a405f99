"""The executor backends: threads, processes, and the degrade policy."""

import logging
import time

import pytest

from repro.engine.compiled import compile_spanner
from repro.service import faults
from repro.service.backend import ProcessBackend, ThreadBackend
from repro.service.evaluate import WorkerPool, evaluate_records
from repro.service.resilience import PoolBroken

DOCS = ["baa", "aaa", "", "bb", "aba"]
RECORDS = [(f"d{i}", text) for i, text in enumerate(DOCS)]
POISON = "KILLME"


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
    # close() shut the owned pool down.
    with pytest.raises(RuntimeError, match="shut-down"):
        backend.pool.submit(engine, RECORDS)


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
    with pytest.raises(ValueError, match="degraded_reset"):
        ProcessBackend(pool=object(), degraded_reset=0)


@pytest.fixture()
def poisoned(monkeypatch):
    """Workers SIGKILL themselves on any document carrying ``POISON``."""
    monkeypatch.setenv(faults.POISON_ENV, POISON)


def _break(pool, engine):
    """Fail a zero-budget pool with one poison batch."""
    with pytest.raises(PoolBroken):
        pool.submit(engine, [("p", f"ba {POISON}")]).result(timeout=60)
    assert pool.failed


@pytest.mark.usefixtures("poisoned")
def test_failed_pool_logs_the_breaks_it_saw(engine, caplog):
    """A zero-budget pool fails on its first break and says so: one break
    against a budget of 0, not "failed after 0"."""
    with caplog.at_level(logging.ERROR, logger="repro.service"):
        with WorkerPool(1, max_rebuilds=0) as pool:
            _break(pool, engine)
    (record,) = [r for r in caplog.records if "worker pool failed" in r.getMessage()]
    assert record.getMessage().startswith(
        "worker pool failed after 1 consecutive breaks (max_rebuilds 0)"
    )


@pytest.mark.chaos
@pytest.mark.usefixtures("poisoned")
class TestDegradePolicy:
    """A pool out of rebuild budget: the backend answers on threads,
    then revives the pool once the degraded window has passed."""

    def test_batch_broken_mid_flight_is_answered_on_threads(self, engine):
        records = RECORDS + [("p", f"ba {POISON}")]
        with WorkerPool(1, max_rebuilds=0) as pool:
            with ProcessBackend(pool=pool) as backend:
                future = backend.submit(engine, records, kind="extract")
                triples = future.result(timeout=60)
            assert pool.failed
        assert triples == evaluate_records(engine, records, "extract", False)

    def test_submit_to_a_failed_pool_is_answered_on_threads(self, engine):
        with WorkerPool(1, max_rebuilds=0) as pool:
            _break(pool, engine)
            with ProcessBackend(pool=pool) as backend:
                triples = backend.submit(engine, RECORDS).result(timeout=60)
        assert triples == evaluate_records(engine, RECORDS, "mappings", False)

    def test_pool_stays_failed_inside_the_window(self, engine):
        with WorkerPool(1, max_rebuilds=0) as pool:
            with ProcessBackend(pool=pool, degraded_reset=30.0) as backend:
                _break(pool, engine)
                for _ in range(3):
                    backend.submit(engine, RECORDS).result(timeout=60)
                    assert pool.failed

    def test_submit_after_the_window_revives_the_pool(
        self, engine, monkeypatch
    ):
        with WorkerPool(1, max_rebuilds=0) as pool:
            with ProcessBackend(pool=pool, degraded_reset=0.5) as backend:
                _break(pool, engine)
                backend.submit(engine, RECORDS).result(timeout=60)
                assert pool.failed
                assert pool.stats()["workers"] == 0
                monkeypatch.delenv(faults.POISON_ENV)
                time.sleep(0.6)
                triples = backend.submit(
                    engine, RECORDS, kind="matches"
                ).result(timeout=60)
                assert not pool.failed
                # The probe batch ran in a worker, which reported back.
                assert pool.stats()["workers"] == 1
        assert triples == evaluate_records(engine, RECORDS, "matches", False)

    def test_close_leaves_a_borrowed_pool_running(self, engine):
        with WorkerPool(1, max_rebuilds=0) as pool:
            backend = ProcessBackend(pool=pool)
            _break(pool, engine)
            backend.submit(engine, RECORDS).result(timeout=60)
            backend.close()
            pool.revive()
            triples = pool.submit(engine, RECORDS).result(timeout=60)
        assert triples == evaluate_records(engine, RECORDS, "mappings", False)
