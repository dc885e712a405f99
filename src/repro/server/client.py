"""A small blocking client for the spanner server (stdlib ``http.client``).

One :class:`ServerClient` wraps one keep-alive connection — not
thread-safe, so a load generator gives each of its threads its own
client (benchmark E23 does exactly that).

>>> from repro.server import ServerClient, ServerConfig, ServerThread
>>> with ServerThread(ServerConfig(port=0)) as server:
...     client = ServerClient(*server.address)
...     reply = client.enumerate(".*x{a+}.*", ["baa"])
...     health = client.healthz()
...     client.close()
>>> reply["results"][0]["mappings"]
[{'x': 'a'}, {'x': 'aa'}, {'x': 'a'}]
>>> health["status"]
'ok'
"""

from __future__ import annotations

import http.client
import json
import time

from repro.server.protocol import NDJSON_CONTENT_TYPE

__all__ = ["RetryLaterError", "ServerClient", "ServerResponseError"]

#: Connect-retry backoff: first delay, growth factor, per-wait cap.
_RETRY_BASE = 0.05
_RETRY_FACTOR = 2.0
_RETRY_CAP = 1.0
#: Longest single wait when honouring a server-advertised ``Retry-After``
#: (a breaker can quote tens of seconds; a blocking client should not
#: sleep that long between attempts).
_RETRY_AFTER_CAP = 5.0


class ServerResponseError(Exception):
    """A non-2xx response; carries the HTTP status and the server's message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class RetryLaterError(ServerResponseError):
    """A 422/429 refusal that carried a ``Retry-After`` header.

    The server is shedding load (429: queue full) or failing fast
    (422: circuit breaker open) and told us when to come back;
    ``retry_after`` is that hint in seconds.  A client constructed with
    ``retries=N`` honours the hint automatically before re-sending.
    """

    def __init__(self, status: int, message: str, retry_after: float) -> None:
        super().__init__(status, message)
        self.retry_after = retry_after


class ServerClient:
    """A persistent connection to one server, JSON in / JSON out.

    ``retries`` (opt-in, default 0: exactly the old behaviour) retries a
    *failed connect* up to that many times with capped exponential
    backoff — for harnesses and scripts that race a freshly started
    server's bind.  Only ``ConnectionError``/``OSError`` while
    establishing the TCP connection is retried; once a request has been
    written, errors propagate untouched (the request may have executed).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        retries: int = 0,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self._retries = retries
        self._connection = http.client.HTTPConnection(
            host, port, timeout=timeout
        )

    # -- plumbing --------------------------------------------------------------

    def _connect_with_retries(self) -> None:
        """Establish the TCP connection, retrying refused/unreachable."""
        attempts = self._retries + 1
        delay = _RETRY_BASE
        for attempt in range(attempts):
            try:
                self._connection.connect()
                return
            except (ConnectionError, OSError):
                if attempt == attempts - 1:
                    raise
                time.sleep(delay)
                delay = min(_RETRY_CAP, delay * _RETRY_FACTOR)

    def request_raw(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        content_type: str = "application/json",
    ) -> tuple[int, bytes]:
        """One round-trip; returns ``(status, body)`` without decoding."""
        status, _headers, raw = self._round_trip(method, path, body, content_type)
        return status, raw

    def _round_trip(
        self,
        method: str,
        path: str,
        body: bytes | None,
        content_type: str,
    ) -> tuple[int, dict[str, str], bytes]:
        """One round-trip, keeping the response headers (for Retry-After)."""
        headers = {"Content-Type": content_type} if body is not None else {}
        if self._retries and self._connection.sock is None:
            self._connect_with_retries()
        self._connection.request(method, path, body=body, headers=headers)
        response = self._connection.getresponse()
        lowered = {name.lower(): value for name, value in response.getheaders()}
        return response.status, lowered, response.read()

    @staticmethod
    def _error_for(
        status: int, message: str, headers: dict[str, str]
    ) -> ServerResponseError:
        """The typed error for a non-2xx reply (RetryLaterError when hinted)."""
        hint = headers.get("retry-after")
        if status in (422, 429) and hint is not None:
            try:
                seconds = float(hint)
            except ValueError:
                seconds = 1.0
            return RetryLaterError(status, message, max(0.0, seconds))
        return ServerResponseError(status, message)

    def _with_retries(self, send):
        """Run ``send``, re-sending on :class:`RetryLaterError` within budget.

        Only 422/429-with-hint refusals are retried here — the server
        explicitly refused *before* doing any work, so re-sending is
        safe.  The advertised wait is honoured (floored at the connect
        backoff base, capped at ``_RETRY_AFTER_CAP``).
        """
        attempts = self._retries + 1
        for attempt in range(attempts):
            try:
                return send()
            except RetryLaterError as error:
                if attempt == attempts - 1:
                    raise
                time.sleep(
                    min(_RETRY_AFTER_CAP, max(_RETRY_BASE, error.retry_after))
                )
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_json(self, method: str, path: str, payload=None) -> dict:
        body = (
            None
            if payload is None
            else json.dumps(payload).encode("utf-8")
        )

        def send() -> dict:
            status, headers, raw = self._round_trip(
                method, path, body, "application/json"
            )
            try:
                decoded = json.loads(raw)
            except ValueError:
                decoded = {"error": raw.decode("utf-8", "replace")}
            if status >= 400:
                raise self._error_for(
                    status, decoded.get("error", "<no message>"), headers
                )
            return decoded

        return self._with_retries(send)

    @staticmethod
    def _payload(pattern: str, documents, opt_level, spans=None) -> dict:
        payload: dict[str, object] = {"pattern": pattern}
        if isinstance(documents, str):
            payload["document"] = documents
        else:
            payload["documents"] = documents
        if opt_level is not None:
            payload["opt_level"] = opt_level
        if spans:
            payload["spans"] = True
        return payload

    # -- endpoints --------------------------------------------------------------

    def evaluate(
        self, pattern: str, documents, opt_level: int | None = None
    ) -> dict:
        """``POST /evaluate`` — NonEmp verdicts per document."""
        return self._request_json(
            "POST", "/evaluate", self._payload(pattern, documents, opt_level)
        )

    def enumerate(
        self,
        pattern: str,
        documents,
        opt_level: int | None = None,
        spans: bool = False,
    ) -> dict:
        """``POST /enumerate`` — decoded mappings per document."""
        return self._request_json(
            "POST",
            "/enumerate",
            self._payload(pattern, documents, opt_level, spans),
        )

    def enumerate_ndjson(
        self,
        pattern: str,
        documents,
        opt_level: int | None = None,
        spans: bool = False,
    ) -> list[dict]:
        """``POST /enumerate`` with an NDJSON body; one dict per line back.

        ``documents`` is an iterable of texts or ``(id, text)`` pairs.
        """
        header: dict[str, object] = {"pattern": pattern}
        if opt_level is not None:
            header["opt_level"] = opt_level
        if spans:
            header["spans"] = True
        lines = [json.dumps(header)]
        for item in documents:
            if isinstance(item, str):
                lines.append(json.dumps(item))
            else:
                doc_id, text = item
                lines.append(json.dumps({"id": doc_id, "text": text}))
        body = ("\n".join(lines) + "\n").encode("utf-8")

        def send() -> list[dict]:
            status, headers, raw = self._round_trip(
                "POST", "/enumerate", body, NDJSON_CONTENT_TYPE
            )
            if status >= 400:
                message = json.loads(raw).get("error", "<no message>")
                raise self._error_for(status, message, headers)
            return [
                json.loads(line)
                for line in raw.decode("utf-8").splitlines()
                if line.strip()
            ]

        return self._with_retries(send)

    def query(
        self,
        register: dict | None = None,
        documents=None,
        *,
        evaluate=None,
        spans: bool = False,
    ) -> dict:
        """``POST /query`` — register and/or evaluate named algebra queries.

        ``register`` maps names to query specs (RGX text or the
        :mod:`repro.algebra` JSON wire form); ``documents`` is a single
        text or a collection; ``evaluate`` selects a subset of registered
        query names (default: all).  Omit ``documents`` to only register.
        Keyword names match the HTTP protocol fields one-to-one.

        >>> from repro.server import ServerClient, ServerConfig, ServerThread
        >>> with ServerThread(ServerConfig(port=0)) as server:
        ...     client = ServerClient(*server.address)
        ...     _ = client.query(register={"vowels": ".*x{a+}.*"})
        ...     reply = client.query(documents=["baa"])
        ...     client.close()
        >>> reply["results"][0]["queries"]["vowels"]
        [{'x': 'a'}, {'x': 'aa'}, {'x': 'a'}]
        """
        payload: dict[str, object] = {}
        if register is not None:
            payload["register"] = register
        if documents is not None:
            if isinstance(documents, str):
                payload["document"] = documents
            else:
                payload["documents"] = documents
        if evaluate is not None:
            payload["evaluate"] = evaluate
        if spans:
            payload["spans"] = True
        return self._request_json("POST", "/query", payload)

    def healthz(self) -> dict:
        return self._request_json("GET", "/healthz")

    def metrics_text(self) -> str:
        status, raw = self.request_raw("GET", "/metrics")
        if status != 200:
            raise ServerResponseError(status, raw.decode("utf-8", "replace"))
        return raw.decode("utf-8")

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
