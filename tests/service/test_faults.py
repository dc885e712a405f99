"""The fault-injection registry: parsing, determinism, shared counting."""

import os

import pytest

from repro.service import faults
from repro.service.faults import FaultRegistry, InjectedFault


class TestParsing:
    def test_empty_and_none_are_inert(self):
        assert not FaultRegistry.parse(None).active
        assert not FaultRegistry.parse("").active
        assert not FaultRegistry.parse(" , ,").active

    def test_fail_fires_every_check(self):
        registry = FaultRegistry.parse("task_error:fail")
        assert [registry.should_fire("task_error") for _ in range(5)] == [
            True
        ] * 5

    def test_once_fires_exactly_once(self):
        registry = FaultRegistry.parse("task_error:once")
        fired = [registry.should_fire("task_error") for _ in range(5)]
        assert fired == [True, False, False, False, False]

    def test_count_fires_first_n_checks(self):
        registry = FaultRegistry.parse("compile:3")
        fired = [registry.should_fire("compile") for _ in range(5)]
        assert fired == [True, True, True, False, False]
        assert registry.counters() == {"compile": 3}

    def test_unarmed_point_never_fires(self):
        registry = FaultRegistry.parse("task_error:fail")
        assert not registry.should_fire("compile")

    def test_multiple_entries(self):
        registry = FaultRegistry.parse("task_error:fail, compile:once")
        assert registry.should_fire("task_error")
        assert registry.should_fire("compile")
        assert not registry.should_fire("compile")

    @pytest.mark.parametrize(
        "text",
        ["task_error", "task_error:", ":fail", "task_error:maybe",
         "task_error:-1", "task_error:1.5"],
    )
    def test_malformed_entries_raise(self, text):
        with pytest.raises(ValueError):
            FaultRegistry.parse(text)


class TestProbabilityTriggers:
    def test_same_seed_same_sequence(self):
        first = FaultRegistry.parse("task_error:0.5", seed=7)
        second = FaultRegistry.parse("task_error:0.5", seed=7)
        outcomes = lambda reg: [  # noqa: E731
            reg.should_fire("task_error") for _ in range(64)
        ]
        assert outcomes(first) == outcomes(second)

    def test_rate_roughly_respected(self):
        registry = FaultRegistry.parse("task_error:0.25", seed=1)
        fired = sum(registry.should_fire("task_error") for _ in range(400))
        assert 40 < fired < 180  # deterministic, just sanity-band it

    def test_rate_zero_never_fires(self):
        registry = FaultRegistry.parse("task_error:0.0")
        assert not any(registry.should_fire("task_error") for _ in range(20))

    def test_rate_one_always_fires(self):
        registry = FaultRegistry.parse("task_error:1.0")
        assert all(registry.should_fire("task_error") for _ in range(20))


class TestSharedState:
    def test_counted_budget_shared_across_registries(self, tmp_path):
        """Two registries with one state dir model two processes: the
        budget is spent host-wide, not per process."""
        state = str(tmp_path)
        first = FaultRegistry.parse("worker_kill:2", state_dir=state)
        second = FaultRegistry.parse("worker_kill:2", state_dir=state)
        assert first.should_fire("worker_kill")
        assert second.should_fire("worker_kill")
        assert not first.should_fire("worker_kill")
        assert not second.should_fire("worker_kill")

    def test_state_file_length_is_the_counter(self, tmp_path):
        registry = FaultRegistry.parse("compile:1", state_dir=str(tmp_path))
        for _ in range(3):
            registry.should_fire("compile")
        assert (tmp_path / "compile.fired").stat().st_size == 3

    def test_concurrent_check_cannot_steal_the_first_fire(
        self, monkeypatch, tmp_path
    ):
        """Another process's check lands between this check's append and
        its read-back: this check still holds index 0, so a ``once``
        trigger fires for it and the other check misses."""
        state = str(tmp_path)
        first = FaultRegistry.parse("worker_kill:once", state_dir=state)
        second = FaultRegistry.parse("worker_kill:once", state_dir=state)
        write = os.write
        interleaved = []

        def write_then_interleave(descriptor, data):
            written = write(descriptor, data)
            if not interleaved:
                interleaved.append(None)
                interleaved[0] = second.should_fire("worker_kill")
            return written

        monkeypatch.setattr(faults.os, "write", write_then_interleave)
        assert first.should_fire("worker_kill")
        assert interleaved == [False]
        assert (tmp_path / "worker_kill.fired").stat().st_size == 2


class TestModuleRegistry:
    def test_inert_by_default(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        faults.reload()
        assert not faults.active()
        faults.inject("task_error")  # no-op, must not raise

    def test_injected_context_arms_and_restores(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        faults.reload()
        with faults.injected("task_error", "once"):
            assert os.environ[faults.FAULTS_ENV] == "task_error:once"
            with pytest.raises(InjectedFault) as caught:
                faults.inject("task_error")
            assert caught.value.point == "task_error"
            faults.inject("task_error")  # budget spent
        assert faults.FAULTS_ENV not in os.environ
        assert not faults.active()

    def test_injected_context_layers_points(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "compile:fail")
        faults.reload()
        with faults.injected("task_error", "fail"):
            with pytest.raises(InjectedFault):
                faults.inject("compile")
            with pytest.raises(InjectedFault):
                faults.inject("task_error")
        assert os.environ[faults.FAULTS_ENV] == "compile:fail"
        faults.reload()

    def test_injected_context_replaces_same_point(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "task_error:0")
        faults.reload()
        with faults.injected("task_error", "fail"):
            assert os.environ[faults.FAULTS_ENV] == "task_error:fail"
        assert os.environ[faults.FAULTS_ENV] == "task_error:0"
        faults.reload()

    def test_injected_context_exports_state_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv(faults.FAULTS_STATE_ENV, raising=False)
        with faults.injected("worker_kill", "1", state_dir=str(tmp_path)):
            assert os.environ[faults.FAULTS_STATE_ENV] == str(tmp_path)
        assert faults.FAULTS_STATE_ENV not in os.environ


class TestPoison:
    def test_no_token_is_a_noop(self, monkeypatch):
        monkeypatch.delenv(faults.POISON_ENV, raising=False)
        assert faults.poison_token() is None
        faults.maybe_poison([("d0", "anything")])  # must not kill us

    def test_clean_batch_survives_with_token_set(self, monkeypatch):
        monkeypatch.setenv(faults.POISON_ENV, "BOOM")
        assert faults.poison_token() == "BOOM"
        faults.maybe_poison([("d0", "clean"), ("d1", None)])
        # (A batch actually containing the token SIGKILLs the process —
        # exercised end-to-end by the chaos suite, not in-process here.)
