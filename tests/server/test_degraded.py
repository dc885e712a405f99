"""Server resilience: compile breakers, degraded mode, drain timeouts,
client connect retries."""

import asyncio
import http.client
import socket
import threading
import time

import pytest

from repro.engine.compiled import compile_spanner
from repro.plan import planner
from repro.server import (
    RetryLaterError,
    ServerClient,
    ServerConfig,
    ServerResponseError,
    ServerThread,
)
from repro.service import faults

PATTERN = ".*x{a+}.*"


class TestServerConfigValidation:
    def test_zero_or_negative_drain_grace_rejected(self):
        with pytest.raises(ValueError):
            ServerConfig(drain_grace=0)
        with pytest.raises(ValueError):
            ServerConfig(drain_grace=-1)

    def test_negative_batch_delay_rejected(self):
        with pytest.raises(ValueError):
            ServerConfig(batch_max_delay=-0.001)
        ServerConfig(batch_max_delay=0)  # zero means flush immediately: fine

    def test_nonpositive_task_timeout_rejected(self):
        with pytest.raises(ValueError):
            ServerConfig(task_timeout=0)
        with pytest.raises(ValueError):
            ServerConfig(task_timeout=-2)
        ServerConfig(task_timeout=1.5)
        ServerConfig(task_timeout=None)

    def test_resilience_knobs_validated(self):
        with pytest.raises(ValueError):
            ServerConfig(max_rebuilds=-1)
        with pytest.raises(ValueError):
            ServerConfig(breaker_threshold=0)
        with pytest.raises(ValueError):
            ServerConfig(breaker_reset=0)
        with pytest.raises(ValueError):
            ServerConfig(degraded_reset=0)


@pytest.mark.chaos
class TestCompileBreaker:
    def test_breaker_opens_to_422_then_recovers(self):
        config = ServerConfig(port=0, breaker_threshold=2, breaker_reset=0.3)
        with ServerThread(config) as server:
            client = ServerClient(*server.address)
            with faults.injected("compile", "fail"):
                for _ in range(2):
                    with pytest.raises(ServerResponseError) as caught:
                        client.enumerate(PATTERN, ["baa"])
                    assert caught.value.status == 500
                # Threshold reached: the breaker now fails fast.
                with pytest.raises(ServerResponseError) as caught:
                    client.enumerate(PATTERN, ["baa"])
                assert caught.value.status == 422
            # Disarmed, but the reset window has not passed yet.
            with pytest.raises(ServerResponseError) as caught:
                client.enumerate(PATTERN, ["baa"])
            assert caught.value.status == 422
            health = client.healthz()
            assert health["breakers"]["open"] >= 1
            time.sleep(config.breaker_reset + 0.05)
            # The half-open probe compiles cleanly and closes the breaker.
            reply = client.enumerate(PATTERN, ["baa"])
            assert reply["results"][0]["mappings"]
            assert client.healthz()["breakers"]["open"] == 0
            client.close()

    def test_422_carries_retry_after(self):
        config = ServerConfig(port=0, breaker_threshold=1, breaker_reset=30.0)
        with ServerThread(config) as server:
            client = ServerClient(*server.address)
            with faults.injected("compile", "fail"):
                with pytest.raises(ServerResponseError):
                    client.enumerate(PATTERN, ["baa"])
            client.close()
            connection = http.client.HTTPConnection(
                *server.address, timeout=10
            )
            connection.request(
                "POST",
                "/enumerate",
                body=(
                    '{"pattern": ".*x{a+}.*", "document": "baa"}'
                ).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            response.read()
            assert response.status == 422
            assert int(response.getheader("Retry-After")) >= 1
            connection.close()

    def test_breakers_are_per_pattern(self):
        config = ServerConfig(port=0, breaker_threshold=1, breaker_reset=30.0)
        with ServerThread(config) as server:
            client = ServerClient(*server.address)
            with faults.injected("compile", "once"):
                with pytest.raises(ServerResponseError):
                    client.enumerate(PATTERN, ["baa"])
            with pytest.raises(ServerResponseError) as caught:
                client.enumerate(PATTERN, ["baa"])
            assert caught.value.status == 422
            # A different pattern has its own (closed) breaker.
            reply = client.enumerate(".*y{b+}.*", ["abb"])
            assert reply["results"][0]["mappings"]
            client.close()

    def test_pattern_over_the_sequentialisation_budget(self, monkeypatch):
        """A non-sequential pattern whose Proposition 5.6 product exceeds
        the budget is a typed compile error: 400 "bad pattern" until the
        breaker opens, then 422 with ``Retry-After``; the server stays
        healthy and keeps serving other patterns."""
        monkeypatch.setattr(planner, "DEFAULT_SEQUENTIALIZE_BUDGET", 3)
        over_budget = "(x{a}|y{b}|z{a})*"
        config = ServerConfig(port=0, breaker_threshold=2, breaker_reset=30.0)
        with ServerThread(config) as server:
            client = ServerClient(*server.address)
            for _ in range(2):
                with pytest.raises(ServerResponseError) as caught:
                    client.enumerate(over_budget, ["ab"])
                assert caught.value.status == 400
                assert "bad pattern" in caught.value.message
                assert "budget 3 exceeded" in caught.value.message
            with pytest.raises(RetryLaterError) as caught:
                client.enumerate(over_budget, ["ab"])
            assert caught.value.status == 422
            assert caught.value.retry_after >= 1
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["breakers"]["open"] == 1
            reply = client.enumerate(PATTERN, ["baa"])
            assert reply["results"][0]["mappings"]
            client.close()


@pytest.mark.chaos
class TestDegradedMode:
    def test_healthz_flips_degraded_and_recovers(self, monkeypatch):
        """Workers die, rebuild budget is zero: the server answers the
        batch in-process, /healthz reads ``degraded``, and after the
        reset window a healthy pool flips it back to ``ok``."""
        monkeypatch.setenv(faults.POISON_ENV, "KILLME")
        config = ServerConfig(
            port=0, workers=2, max_rebuilds=0, degraded_reset=0.4
        )
        with ServerThread(config) as server:
            client = ServerClient(*server.address)
            assert client.healthz()["status"] == "ok"

            reply = client.enumerate(PATTERN, ["baa KILLME baa"])
            # Degraded, not failed: the inline fallback still answered.
            expected = [
                dict(mapping)
                for mapping in compile_spanner(PATTERN).extract(
                    "baa KILLME baa"
                )
            ]
            assert reply["results"][0]["mappings"] == expected
            health = client.healthz()
            assert health["status"] == "degraded"
            assert health["degraded"] is True
            assert health["pool"]["alive"] is False
            metrics = client.metrics_text()
            assert "repro_degraded 1" in metrics

            monkeypatch.delenv(faults.POISON_ENV)
            time.sleep(config.degraded_reset + 0.05)
            reply = client.enumerate(PATTERN, ["baa"])
            assert reply["results"][0]["mappings"]
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["degraded"] is False
            assert health["pool"]["alive"] is True
            assert "repro_degraded 0" in client.metrics_text()
            client.close()

    def test_worker_restart_metrics_published(self, tmp_path):
        """A single injected worker kill with rebuild budget left: the
        pool recovers and /metrics reports the restart and retry."""
        config = ServerConfig(port=0, workers=2)
        with faults.injected("worker_kill", "1", state_dir=str(tmp_path)):
            with ServerThread(config) as server:
                client = ServerClient(*server.address)
                reply = client.enumerate(PATTERN, ["baa", "ba"])
                assert [r["mappings"] is not None for r in reply["results"]]
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    metrics = client.metrics_text()
                    if "repro_worker_restarts_total 1" in metrics:
                        break
                    time.sleep(0.05)
                assert "repro_worker_restarts_total 1" in metrics
                assert "repro_task_retries_total 1" in metrics
                health = client.healthz()
                assert health["status"] == "ok"
                assert health["pool"]["worker_restarts"] == 1
                client.close()


class TestDrainTimeout:
    def test_overrunning_drain_is_logged_not_raised(self, capsys):
        """A drain that blows its budget prints a warning and returns —
        the caller wanted the server stopped, not an exception."""
        thread = ServerThread(ServerConfig(port=0))
        with thread:
            real_drain = thread.server.drain

            async def wedged_drain():
                await asyncio.sleep(5.0)
                await real_drain()

            thread.server.drain = wedged_drain
            started = time.monotonic()
            thread.drain(timeout=0.2)  # must not raise
            assert time.monotonic() - started < 2.0
            assert "drain did not finish" in capsys.readouterr().err
            thread.server.drain = real_drain
        # __exit__ re-drained for real; the loop is gone.
        assert thread._loop.is_closed()


class TestClientConnectRetries:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            ServerClient("127.0.0.1", 1, retries=-1)

    def test_default_fails_fast_on_refused_connect(self):
        port = _free_port()
        client = ServerClient("127.0.0.1", port, timeout=2.0)
        started = time.monotonic()
        with pytest.raises(OSError):
            client.healthz()
        assert time.monotonic() - started < 1.0

    def test_retries_back_off_before_giving_up(self):
        port = _free_port()
        client = ServerClient("127.0.0.1", port, timeout=2.0, retries=3)
        started = time.monotonic()
        with pytest.raises(OSError):
            client.healthz()
        # 0.05 + 0.1 + 0.2 of backoff sleeps before the final attempt.
        assert time.monotonic() - started >= 0.3

    def test_retries_bridge_a_late_listener(self):
        port = _free_port()

        def listen_later():
            time.sleep(0.3)
            with socket.create_server(("127.0.0.1", port)) as server:
                connection, _ = server.accept()
                connection.recv(4096)
                body = b'{"status": "ok"}'
                connection.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Length: "
                    + str(len(body)).encode()
                    + b"\r\nConnection: close\r\n\r\n"
                    + body
                )
                connection.close()

        listener = threading.Thread(target=listen_later, daemon=True)
        listener.start()
        client = ServerClient("127.0.0.1", port, timeout=5.0, retries=8)
        try:
            assert client.healthz()["status"] == "ok"
        finally:
            client.close()
            listener.join(timeout=5)

    def test_retries_work_against_a_live_server(self):
        with ServerThread(ServerConfig(port=0)) as server:
            client = ServerClient(*server.address, retries=2)
            assert client.healthz()["status"] == "ok"
            client.close()


def _free_port() -> int:
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        return holder.getsockname()[1]
