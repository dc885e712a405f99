"""End-to-end HTTP: routes, streaming, shedding, graceful drain."""

import json
import os
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

    def test_metrics_report_the_shared_level_store(self, client):
        client.enumerate(".*x{a+}.*", ["baa"])
        gauges = dict(
            line.split(" ", 1)
            for line in client.metrics_text().splitlines()
            if line.startswith("repro_kernel_")
        )
        assert int(float(gauges["repro_kernel_dag_levels"])) > 0
        assert "repro_kernel_flushes" in gauges

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

    @pytest.mark.parametrize("length", ["-5", "+3", "1_0", ""])
    def test_malformed_content_length_is_400(self, server, client, length):
        import http.client

        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            connection.putrequest("POST", "/evaluate")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", length)
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert "bad Content-Length" in json.loads(response.read())["error"]
        finally:
            connection.close()
        assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize(
        "framing,status",
        [
            ("Transfer-Encoding: chunked\r\n", 501),
            ("Transfer-Encoding: chunked\r\nContent-Length: {n}\r\n", 501),
            ("Content-Length: 2\r\nContent-Length: {n}\r\n", 400),
            ("Content-Length: {n}\r\nContent-Length: {n}\r\n", 200),
        ],
        ids=["chunked", "chunked-with-length", "conflicting-lengths", "equal-lengths"],
    )
    def test_body_framing_gets_exactly_one_response(
        self, server, client, framing, status
    ):
        import socket

        body = b'{"pattern": "x{a}b", "document": "ab"}'
        if "chunked" in framing:
            body = f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n"
        head = (
            "POST /evaluate HTTP/1.1\r\nHost: test\r\n"
            "Content-Type: application/json\r\nConnection: close\r\n"
            + framing.format(n=len(body))
            + "\r\n"
        ).encode("latin-1")
        with socket.create_connection(server.address, timeout=10) as raw:
            raw.sendall(head + body)
            received = b""
            while chunk := raw.recv(65536):
                received += chunk
        # The bytes sent are one request: one status line comes back,
        # then the server closes the connection.
        assert received.count(b"HTTP/1.1 ") == 1, received
        assert received.startswith(f"HTTP/1.1 {status} ".encode()), received
        assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize(
        "framing, status",
        [
            ("Transfer-Encoding: chunked\r\n", 501),
            ("Content-Length: 67108864\r\n", 413),
        ],
        ids=["chunked-4mb", "oversized-length"],
    )
    def test_refusal_with_a_large_unread_body_is_delivered(
        self, server, client, framing, status
    ):
        """The server answers before reading a 4 MB body it refuses, then
        lingers: it discards what the client still sends instead of
        resetting the connection, so the client reads the whole response
        after it has sent everything."""
        import socket

        if "chunked" in framing:
            chunk = b"x" * (1 << 16)
            piece = f"{len(chunk):x}\r\n".encode() + chunk + b"\r\n"
            body = piece * 64 + b"0\r\n\r\n"
        else:
            body = b"x" * (4 << 20)
        head = (
            "POST /evaluate HTTP/1.1\r\nHost: test\r\n"
            "Content-Type: application/json\r\n" + framing + "\r\n"
        ).encode("latin-1")
        with socket.create_connection(server.address, timeout=10) as raw:
            raw.sendall(head + body)
            raw.shutdown(socket.SHUT_WR)
            received = b""
            while chunk := raw.recv(65536):
                received += chunk
        response, _, payload = received.partition(b"\r\n\r\n")
        assert response.startswith(f"HTTP/1.1 {status} ".encode()), response
        length = next(
            int(line.split(b":", 1)[1])
            for line in response.split(b"\r\n")
            if line.lower().startswith(b"content-length:")
        )
        assert len(payload) == length
        assert "error" in json.loads(payload)
        assert client.healthz()["status"] == "ok"

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


class TestWorkerProcesses:
    def test_server_on_worker_pool(self):
        config = ServerConfig(port=0, workers=2, batch_max_delay=0.005)
        with ServerThread(config) as server:
            with ServerClient(*server.address) as client:
                first = client.enumerate(".*x{a+}.*", ["baa"])
                second = client.enumerate(".*x{a+}.*", ["baa"])
            pids = server.server.dispatcher.worker_pool.worker_pids()
        assert first == second
        # Leaving the block drains the server, and the dispatcher's
        # close() shuts down the pool it built: no worker outlives it.
        assert pids
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert first["results"][0]["mappings"] == [
            {"x": "a"},
            {"x": "aa"},
            {"x": "a"},
        ]
