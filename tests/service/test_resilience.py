"""The fault-tolerant worker pool: recovery, deadlines, retries, breakers.

The ``chaos``-marked classes kill, hang, and poison real worker
processes; their corpus size scales with ``REPRO_CHAOS_DOCS`` (see
``tests/conftest.py``) and the default already covers the ≥200-document
worker-death acceptance run.
"""

import os
import signal
import warnings

import pytest

from tests.conftest import chaos_docs
from repro.engine.compiled import compile_spanner
from repro.service import WorkerPool, evaluate_corpus, faults
from repro.service.resilience import (
    CircuitBreaker,
    PoolBroken,
    RetryPolicy,
    task_timeout_from_env,
)

PATTERN = ".*x{a+}.*"


def docs(count):
    return [(f"d{n:05d}", f"b{'a' * (n % 7)}") for n in range(count)]


def snapshot(results):
    return [(r.doc_id, r.mappings, r.error) for r in results]


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.5, jitter=0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)
        assert policy.backoff(4) == pytest.approx(0.5)  # capped
        assert policy.backoff(10) == pytest.approx(0.5)

    def test_jitter_only_stretches(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=0.5)
        for _ in range(20):
            delay = policy.backoff(2)
            assert 0.2 <= delay <= 0.3

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0)

    def test_invalid_fields_raise(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2)

    def test_from_env_honours_retries(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "7")
        assert RetryPolicy.from_env().max_retries == 7

    def test_from_env_warns_on_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "lots")
        with pytest.warns(RuntimeWarning):
            policy = RetryPolicy.from_env()
        assert policy.max_retries == RetryPolicy().max_retries


class TestTaskTimeoutEnv:
    def test_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        assert task_timeout_from_env() is None

    def test_positive_value_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
        assert task_timeout_from_env() == 2.5

    @pytest.mark.parametrize("text", ["0", "-1", "soon"])
    def test_garbage_warns_and_disables(self, monkeypatch, text):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", text)
        with pytest.warns(RuntimeWarning):
            assert task_timeout_from_env() is None


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = [0.0]
        breaker = CircuitBreaker(2, reset_timeout=10, clock=lambda: clock[0])
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(10)

    def test_half_open_admits_one_probe(self):
        clock = [0.0]
        breaker = CircuitBreaker(1, reset_timeout=5, clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 5.0
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # everyone else still refused

    def test_probe_success_closes(self):
        clock = [0.0]
        breaker = CircuitBreaker(1, reset_timeout=5, clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 5.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()
        assert breaker.retry_after() == 0.0

    def test_probe_failure_reopens_for_full_timeout(self):
        clock = [0.0]
        breaker = CircuitBreaker(1, reset_timeout=5, clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 5.0
        assert breaker.allow()
        clock[0] = 6.0
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.retry_after() == pytest.approx(5)
        clock[0] = 10.0  # 4s into the fresh window: still shut
        assert not breaker.allow()

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CircuitBreaker(0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=0)


class TestWorkerPoolConfig:
    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            WorkerPool(1, task_timeout=0)
        with pytest.raises(ValueError):
            WorkerPool(1, task_timeout=-1)

    def test_rejects_negative_rebuild_budget(self):
        with pytest.raises(ValueError):
            WorkerPool(1, max_rebuilds=-1)

    def test_resilience_snapshot_shape(self):
        with WorkerPool(1, task_timeout=30.0) as pool:
            report = pool.resilience()
        assert report["restarts"] == 0
        assert report["retries"] == 0
        assert report["timeouts"] == 0
        assert report["failed"] is False
        assert report["task_timeout"] == 30.0

    def test_submit_after_shutdown_raises(self):
        pool = WorkerPool(1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(compile_spanner(PATTERN), [("d0", "a")])


@pytest.mark.chaos
class TestWorkerDeathRecovery:
    def test_sigkill_mid_run_is_invisible_in_the_results(self):
        """The acceptance run: SIGKILL a live worker partway through a
        ≥200-document corpus; the stream completes identical to an
        unfaulted run, with no document lost or duplicated."""
        corpus = docs(chaos_docs())
        baseline = snapshot(evaluate_corpus(PATTERN, corpus, workers=2))

        with WorkerPool(2) as pool:
            results = []
            stream = evaluate_corpus(PATTERN, corpus, workers=2, pool=pool)
            killed = False
            for result in stream:
                results.append(result)
                if not killed and len(results) == len(corpus) // 4:
                    victims = pool.worker_pids()
                    assert victims, "no live workers to kill"
                    os.kill(victims[0], signal.SIGKILL)
                    killed = True
            assert killed
            report = pool.resilience()

        assert report["restarts"] >= 1
        assert snapshot(results) == baseline
        assert [doc_id for doc_id, _, _ in snapshot(results)] == [
            doc_id for doc_id, _ in corpus
        ]

    def test_injected_worker_kill_recovers(self, tmp_path):
        """Same recovery, driven by the registry: the first batch kills
        its worker (counted host-wide so the respawn survives)."""
        corpus = docs(60)
        baseline = snapshot(evaluate_corpus(PATTERN, corpus, workers=2))
        with faults.injected("worker_kill", "1", state_dir=str(tmp_path)):
            with WorkerPool(2) as pool:
                results = snapshot(
                    evaluate_corpus(PATTERN, corpus, workers=2, pool=pool)
                )
                report = pool.resilience()
        assert results == baseline
        assert report["restarts"] >= 1
        assert report["retries"] >= 1

    def test_worker_boot_fault_heals_once_budget_spent(self, tmp_path):
        """A crashing initializer breaks the pool before its first task;
        once the counted budget is spent the rebuild comes up clean."""
        corpus = docs(30)
        baseline = snapshot(evaluate_corpus(PATTERN, corpus, workers=2))
        with faults.injected("worker_boot", "1", state_dir=str(tmp_path)):
            with WorkerPool(2) as pool:
                results = snapshot(
                    evaluate_corpus(PATTERN, corpus, workers=2, pool=pool)
                )
        assert results == baseline


@pytest.mark.chaos
class TestPoisonDocuments:
    def test_poison_document_isolated_to_one_error_record(self, monkeypatch):
        """A document that reliably SIGKILLs its worker costs exactly its
        own result — every other document still evaluates."""
        corpus = docs(48)
        poison_id = corpus[13][0]
        corpus[13] = (poison_id, "baaaa POISON baaa")
        monkeypatch.setenv(faults.POISON_ENV, "POISON")
        with WorkerPool(2) as pool:
            results = snapshot(
                evaluate_corpus(PATTERN, corpus, workers=2, pool=pool)
            )
        monkeypatch.delenv(faults.POISON_ENV)

        errors = [(d, e) for d, m, e in results if e is not None]
        assert len(errors) == 1
        assert errors[0][0] == poison_id
        assert "WorkerCrash" in errors[0][1]
        clean = snapshot(
            evaluate_corpus(
                PATTERN, [r for r in corpus if r[0] != poison_id], workers=1
            )
        )
        assert [r for r in results if r[0] != poison_id] == clean


@pytest.mark.chaos
class TestDeadlines:
    def test_hung_task_times_out_and_retries(self, tmp_path):
        """One injected hang: the deadline reaps the wedged worker and
        the retried batch (fault budget spent) completes normally."""
        corpus = docs(24)
        baseline = snapshot(evaluate_corpus(PATTERN, corpus, workers=2))
        with faults.injected("task_slow", "1", state_dir=str(tmp_path)):
            with WorkerPool(2, task_timeout=1.0) as pool:
                results = snapshot(
                    evaluate_corpus(PATTERN, corpus, workers=2, pool=pool)
                )
                report = pool.resilience()
        assert results == baseline
        assert report["timeouts"] >= 1


@pytest.mark.chaos
class TestGracefulDegradation:
    def test_exhausted_rebuild_budget_falls_back_in_process(self, monkeypatch):
        """Every batch poisons its worker and the budget is zero: the
        pool fails fast and the stream degrades to in-process evaluation
        with identical results."""
        corpus = docs(32)
        baseline = snapshot(evaluate_corpus(PATTERN, corpus, workers=1))
        monkeypatch.setenv(faults.POISON_ENV, "b")  # every document
        with WorkerPool(2, max_rebuilds=0) as pool:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                results = snapshot(
                    evaluate_corpus(PATTERN, corpus, workers=2, pool=pool)
                )
            assert pool.failed
            with pytest.raises(PoolBroken):
                pool.submit(compile_spanner(PATTERN), [("d0", "a")])
        monkeypatch.delenv(faults.POISON_ENV)
        assert results == baseline

    def test_revive_restores_a_failed_pool(self, monkeypatch):
        monkeypatch.setenv(faults.POISON_ENV, "b")
        with WorkerPool(1, max_rebuilds=0) as pool:
            future = pool.submit(
                compile_spanner(PATTERN), [("d0", "baaa")], kind="extract"
            )
            with pytest.raises(PoolBroken):
                future.result(timeout=30)
            assert pool.failed
            monkeypatch.delenv(faults.POISON_ENV)
            pool.revive()
            assert not pool.failed
            healthy = pool.submit(
                compile_spanner(PATTERN), [("d0", "baaa")], kind="extract"
            )
            triples = healthy.result(timeout=30)
        assert triples[0][0] == "d0"
        assert triples[0][2] is None


@pytest.mark.chaos
class TestEngineShippingFallbacks:
    """Injected faults on the way to an engine cost counters, not outputs."""

    def test_task_error_fault_reports_not_crashes(self, tmp_path):
        """An injected in-task exception is a deterministic error: it is
        reported per document, never retried as a crash."""
        corpus = docs(8)
        with faults.injected("task_error", "once", state_dir=str(tmp_path)):
            with WorkerPool(1) as pool:
                results = snapshot(
                    evaluate_corpus(
                        PATTERN, corpus, workers=1, pool=pool, chunk_size=4
                    )
                )
                report = pool.resilience()
        assert report["restarts"] == 0
        failed = [d for d, _, e in results if e is not None]
        succeeded = [d for d, _, e in results if e is None]
        assert len(failed) == 4   # exactly the faulted chunk
        assert len(succeeded) == 4
