"""End-to-end HTTP: routes, streaming, shedding, graceful drain."""

import json
import threading
import time

import pytest

from repro.server import (
    ServerClient,
    ServerConfig,
    ServerResponseError,
    ServerThread,
)


@pytest.fixture(scope="module")
def server():
    config = ServerConfig(port=0, batch_max_delay=0.001)
    with ServerThread(config) as thread:
        yield thread


@pytest.fixture()
def client(server):
    with ServerClient(*server.address) as connection:
        yield connection


class TestEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 0

    def test_evaluate_returns_verdicts(self, client):
        reply = client.evaluate("x{a}b", ["ab", "zz"])
        assert [entry["matches"] for entry in reply["results"]] == [True, False]

    def test_enumerate_matches_engine_output(self, client):
        from repro.engine.compiled import compile_spanner

        reply = client.enumerate(".*x{a+}.*", ["baa"])
        assert (
            reply["results"][0]["mappings"]
            == compile_spanner(".*x{a+}.*").extract("baa")
        )

    def test_enumerate_spans_mode(self, client):
        reply = client.enumerate(".*x{a+}.*", ["ba"], spans=True)
        assert reply["results"][0]["mappings"] == [{"x": [2, 3]}]

    def test_single_document_shorthand(self, client):
        reply = client.evaluate("x{a}b", "ab")
        assert reply["results"][0]["matches"] is True

    def test_ndjson_round_trip_preserves_ids_and_order(self, client):
        lines = client.enumerate_ndjson(
            ".*x{a+}.*", [("second", "bb"), ("first", "ba")]
        )
        assert [line["doc"] for line in lines] == ["second", "first"]
        assert lines[1]["mappings"] == [{"x": "a"}]

    def test_per_document_errors_do_not_poison_the_batch(self, client):
        # A document whose evaluation blows past the FPT sweep budget
        # would be ideal, but a plain engine error is hard to trigger
        # with valid text — so check the contract at the protocol level:
        # results arrive per document, errors nulled.
        reply = client.enumerate("x{a}", ["a", "b"])
        assert [entry["error"] for entry in reply["results"]] == [None, None]

    def test_metrics_exposition(self, client):
        client.evaluate("x{a}b", ["ab"])
        text = client.metrics_text()
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{endpoint="evaluate"}' in text
        assert "repro_documents_total" in text
        assert "repro_queue_depth" in text

    def test_unknown_paths_share_one_metric_label(self, client):
        for path in ("/nope", '/a"b', "/random-123"):
            client.request_raw("GET", path)
        text = client.metrics_text()
        # Client-chosen paths must not mint label values (unbounded
        # cardinality, exposition injection): they all count as "other".
        assert 'endpoint="other"' in text
        assert "nope" not in text and "random-123" not in text


class TestHttpErrors:
    def test_bad_pattern_is_400(self, client):
        with pytest.raises(ServerResponseError) as caught:
            client.enumerate("x{", ["a"])
        assert caught.value.status == 400
        assert "bad pattern" in caught.value.message

    def test_malformed_body_is_400(self, client):
        status, raw = client.request_raw("POST", "/evaluate", b"{nope")
        assert status == 400
        assert "invalid JSON" in json.loads(raw)["error"]

    def test_unknown_route_is_404(self, client):
        status, _ = client.request_raw("GET", "/nope")
        assert status == 404

    def test_get_on_post_endpoint_is_405(self, client):
        status, _ = client.request_raw("GET", "/evaluate")
        assert status == 405

    def test_request_larger_than_queue_is_413(self):
        config = ServerConfig(port=0, max_pending=2)
        with ServerThread(config) as small:
            with ServerClient(*small.address) as client:
                with pytest.raises(ServerResponseError) as caught:
                    client.evaluate("x{a}b", ["ab", "ba", "bb"])
                assert caught.value.status == 413
                assert "split" in caught.value.message

    def test_oversized_body_is_413(self, server):
        import http.client

        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            connection.putrequest("POST", "/evaluate")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(64 * 1024 * 1024))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
        finally:
            connection.close()

    def test_keep_alive_across_requests(self, client):
        # The same ServerClient connection serves several round-trips.
        for _ in range(3):
            assert client.healthz()["status"] == "ok"


class TestBackpressure:
    def test_sheds_with_429_when_queue_is_full(self):
        config = ServerConfig(
            port=0,
            batch_max_delay=30.0,
            batch_max_size=10_000,
            max_pending=1,
        )
        with ServerThread(config) as server:
            host, port = server.address
            replies = {}

            def park():
                with ServerClient(host, port) as parked:
                    replies["parked"] = parked.enumerate(".*x{a}.*", ["za"])

            thread = threading.Thread(target=park)
            thread.start()
            deadline = time.monotonic() + 10.0
            dispatcher = server.server.dispatcher
            while time.monotonic() < deadline:
                if dispatcher.stats()["pending_documents"] == 1:
                    break
                time.sleep(0.005)
            with ServerClient(host, port) as client:
                with pytest.raises(ServerResponseError) as caught:
                    client.enumerate(".*x{a}.*", ["za"])
                assert caught.value.status == 429
            server.drain()
            thread.join(timeout=10)
        # The parked request was not lost by the shed or the drain.
        assert replies["parked"]["results"][0]["mappings"] == [{"x": "a"}]


class TestGracefulDrain:
    def test_inflight_requests_survive_drain(self):
        config = ServerConfig(
            port=0, batch_max_delay=30.0, batch_max_size=10_000
        )
        answers = {}
        with ServerThread(config) as server:
            host, port = server.address

            def post(position):
                with ServerClient(host, port) as client:
                    answers[position] = client.evaluate("x{a}b", ["ab"])

            threads = [
                threading.Thread(target=post, args=(position,))
                for position in range(6)
            ]
            for thread in threads:
                thread.start()
            dispatcher = server.server.dispatcher
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if dispatcher.stats()["pending_documents"] >= 6:
                    break
                time.sleep(0.005)
            server.drain()
            for thread in threads:
                thread.join(timeout=10)
        assert sorted(answers) == list(range(6))
        assert all(
            reply["results"][0]["matches"] is True
            for reply in answers.values()
        )

    def test_drain_is_idempotent_and_health_reports_it(self):
        with ServerThread(ServerConfig(port=0)) as server:
            server.drain()
            server.drain()
        # exiting the context drains a third time; nothing raises


class TestArtifactCache:
    def test_restart_serves_from_warm_artifacts(self, tmp_path):
        """A restarted server answers its first request without recompiling.

        The cold instance compiles and persists the engine; the warm
        instance (same artifact directory) must report an artifact hit
        and zero compiles-from-scratch, with identical output.
        """
        directory = str(tmp_path)

        def run_once():
            config = ServerConfig(
                port=0, batch_max_delay=0.001, artifact_dir=directory
            )
            with ServerThread(config) as server:
                with ServerClient(*server.address) as client:
                    response = client.enumerate(".*x{a+}.*", ["baa"])
                    metrics = client.metrics_text()
            gauges = {
                line.split()[0]: float(line.split()[1])
                for line in metrics.splitlines()
                if line.startswith("repro_artifact_")
            }
            return response, gauges

        cold, cold_gauges = run_once()
        warm, warm_gauges = run_once()
        assert warm == cold
        assert cold_gauges["repro_artifact_misses"] == 1
        assert cold_gauges["repro_artifact_saves"] == 1
        assert warm_gauges["repro_artifact_hits"] == 1
        assert warm_gauges["repro_artifact_misses"] == 0


class TestWorkerProcesses:
    def test_server_on_worker_pool(self):
        config = ServerConfig(port=0, workers=2, batch_max_delay=0.005)
        with ServerThread(config) as server:
            with ServerClient(*server.address) as client:
                first = client.enumerate(".*x{a+}.*", ["baa"])
                second = client.enumerate(".*x{a+}.*", ["baa"])
        assert first == second
        assert first["results"][0]["mappings"] == [
            {"x": "a"},
            {"x": "aa"},
            {"x": "a"},
        ]
