"""The asyncio HTTP server: routing, streaming, graceful drain.

Stdlib only: :func:`asyncio.start_server` connections with hand-rolled
HTTP/1.1 framing (request line + headers + ``Content-Length`` bodies,
keep-alive, chunked NDJSON responses).  Endpoints:

* ``POST /evaluate`` — the paper's NonEmp verdict per document;
* ``POST /enumerate`` — decoded mappings per document (``spans`` option);
* ``GET /healthz`` — liveness plus live queue numbers;
* ``GET /metrics`` — Prometheus text exposition.

Graceful drain (SIGTERM/SIGINT, or :meth:`SpannerServer.drain`):

1. stop accepting connections and mark the server draining;
2. flush every open micro-batch immediately (and every batch formed
   after this point) — queued documents must not wait out a latency
   watermark the server no longer intends to honour;
3. close idle keep-alive connections; busy ones finish their in-flight
   response (with ``Connection: close``) — accepted requests are never
   dropped or answered twice;
4. wait for in-flight handlers (bounded by ``drain_grace``), then close
   the dispatcher's executors.

:class:`ServerThread` runs the whole server on a private event loop in a
daemon thread — the harness used by the tests, the docs examples, and
benchmark E23.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import signal
import sys
import threading
import time
from dataclasses import dataclass

from repro.server.dispatcher import (
    BreakerOpen,
    Dispatcher,
    DispatcherConfig,
    Overloaded,
    RequestTooLarge,
)
from repro.server.metrics import Metrics
from repro.server.protocol import (
    ENUMERATE,
    EVALUATE,
    ProtocolError,
    SpanRequest,
    encode_error,
    encode_query_results,
    encode_result_line,
    encode_results,
    parse_query_request,
    parse_request,
    query_result_entry,
    result_entry,
)
from repro.service.backend import DEFAULT_DEGRADED_RESET
from repro.service.cache import SpannerCache
from repro.service.evaluate import DEFAULT_MAX_REBUILDS
from repro.service.queryset import QuerySet
from repro.util.errors import SpannerError

__all__ = ["ServerConfig", "ServerThread", "SpannerServer", "serve"]

#: Largest accepted request body (the corpus service is the bulk path).
_MAX_BODY = 32 * 1024 * 1024
#: How long, and for how many bytes, a connection refused before its
#: body was read keeps discarding input after its error response (see
#: :meth:`SpannerServer._linger`).
_LINGER_SECONDS = 2.0
_LINGER_BYTES = _MAX_BODY

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


@dataclass
class ServerConfig:
    """Everything ``repro serve`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Worker processes (0 = in-process thread pool; see DispatcherConfig).
    workers: int = 0
    batch_max_size: int = 16
    batch_max_delay: float = 0.002
    max_pending: int = 1024
    inline_threads: int | None = None
    #: Seconds granted to in-flight requests during drain.
    drain_grace: float = 10.0
    #: The E23 ablation baseline: no cache, no coalescing, no batching.
    naive: bool = False
    #: Per-batch worker deadline, seconds (None: REPRO_TASK_TIMEOUT).
    task_timeout: float | None = None
    #: Consecutive pool rebuilds tolerated before degrading to threads.
    max_rebuilds: int = DEFAULT_MAX_REBUILDS
    #: Compile failures that open a pattern's circuit breaker …
    breaker_threshold: int = 5
    #: … and seconds it stays open before a half-open probe.
    breaker_reset: float = 30.0
    #: Seconds a degraded server waits before reviving its worker pool.
    degraded_reset: float = DEFAULT_DEGRADED_RESET

    def __post_init__(self) -> None:
        # Timeout-ish knobs where zero or a negative would misbehave
        # far downstream (a drain that never waits, a batch window that
        # never flushes by time, a deadline that fires immediately) are
        # rejected here, at construction.
        if self.drain_grace <= 0:
            raise ValueError("drain_grace must be positive")
        if self.batch_max_delay < 0:
            raise ValueError("batch_max_delay must be >= 0")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        if self.max_rebuilds < 0:
            raise ValueError("max_rebuilds must be >= 0")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_reset <= 0:
            raise ValueError("breaker_reset must be positive")
        if self.degraded_reset <= 0:
            raise ValueError("degraded_reset must be positive")

    def dispatcher_config(self) -> DispatcherConfig:
        return DispatcherConfig(
            workers=self.workers,
            batch_max_size=self.batch_max_size,
            batch_max_delay=self.batch_max_delay,
            max_pending=self.max_pending,
            inline_threads=self.inline_threads,
            naive=self.naive,
            task_timeout=self.task_timeout,
            max_rebuilds=self.max_rebuilds,
            breaker_threshold=self.breaker_threshold,
            breaker_reset=self.breaker_reset,
            degraded_reset=self.degraded_reset,
        )


class _Connection:
    __slots__ = ("writer", "busy")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.busy = False


class SpannerServer:
    """One serving process: dispatcher + HTTP front-end + drain logic."""

    def __init__(
        self,
        config: ServerConfig | None = None,
        cache: SpannerCache | None = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self.metrics = Metrics()
        self.dispatcher = Dispatcher(
            self.config.dispatcher_config(), self.metrics, cache
        )
        # The server-wide query set behind POST /query; its combined
        # engine compiles through the dispatcher's SpannerCache, so
        # /healthz and /metrics account for it like any other engine.
        self.queryset = QuerySet(cache=self.dispatcher.cache)
        self._started = time.time()
        self._server: asyncio.base_events.Server | None = None
        self._connections: dict[asyncio.Task, _Connection] = {}
        self._draining = False
        self._drained: asyncio.Event | None = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting (``config.port == 0`` picks a free port)."""
        self._drained = asyncio.Event()
        await self.dispatcher.start()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.metrics.gauge("repro_draining", 0)

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — the real port when 0 was asked."""
        assert self._server is not None, "server not started"
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def drain(self) -> None:
        """Graceful shutdown; idempotent, returns when fully drained."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        self.metrics.gauge("repro_draining", 1)
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        self.dispatcher.flush_all()
        for connection in self._connections.values():
            if not connection.busy:
                connection.writer.close()
        handlers = set(self._connections)
        if handlers:
            _, stragglers = await asyncio.wait(
                handlers, timeout=self.config.drain_grace
            )
            for task in stragglers:
                task.cancel()
            if stragglers:
                await asyncio.gather(*stragglers, return_exceptions=True)
        await self.dispatcher.close()
        self._drained.set()

    async def wait_drained(self) -> None:
        assert self._drained is not None
        await self._drained.wait()

    # -- connection handling -----------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        connection = _Connection(writer)
        self._connections[task] = connection
        try:
            while not self._draining:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                connection.busy = True
                started = time.perf_counter()
                keep_alive = await self._respond(writer, *request)
                self.metrics.observe(
                    "repro_request_seconds", time.perf_counter() - started
                )
                connection.busy = False
                if not keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # peer went away (or was closed by drain) mid-read
        finally:
            self._connections.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader, writer):
        """One parsed request, or None on clean EOF/oversize."""
        try:
            header_blob = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if error.partial:
                raise ConnectionError("truncated request") from None
            return None  # clean EOF between requests
        head, *header_lines = header_blob.decode("latin-1").split("\r\n")
        parts = head.split()
        if len(parts) != 3:
            return await self._refuse(reader, writer, 400, "malformed request line")
        method, target, _version = parts
        headers = {}
        conflicting_lengths = False
        for line in header_lines:
            if ":" in line:
                name, _, value = line.partition(":")
                name, value = name.strip().lower(), value.strip()
                if name == "content-length" and headers.get(name, value) != value:
                    conflicting_lengths = True
                headers[name] = value
        # Only Content-Length framing is implemented.  Reading a chunked
        # body as empty would leave its chunks to be parsed as the next
        # request, answering one request twice (RFC 9112 §6.3).
        if "transfer-encoding" in headers:
            return await self._refuse(
                reader,
                writer,
                501,
                "Transfer-Encoding is not supported; send a Content-Length body",
            )
        if conflicting_lengths:
            return await self._refuse(
                reader, writer, 400, "conflicting Content-Length headers"
            )
        length_text = headers.get("content-length", "0")
        # RFC 9110 §8.6: Content-Length = 1*DIGIT.  int() would also take
        # a sign, underscores and non-ASCII digits, and a negative length
        # would reach readexactly() and kill the connection unanswered.
        if not (length_text.isascii() and length_text.isdigit()):
            return await self._refuse(reader, writer, 400, "bad Content-Length")
        length = int(length_text)
        if length > _MAX_BODY:
            return await self._refuse(reader, writer, 413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target.split("?", 1)[0], headers, body

    async def _refuse(self, reader, writer, status: int, message: str) -> None:
        """Answer a request whose body was never read, then close."""
        await self._write_response(writer, status, encode_error(message), close=True)
        await self._linger(reader, writer)

    async def _linger(self, reader, writer) -> None:
        """A lingering close: shut the write side, then discard what the
        client still sends — until it closes its side, or for at most
        :data:`_LINGER_SECONDS` and :data:`_LINGER_BYTES`.

        Closing a socket with unread input makes the kernel reset the
        connection, and the reset can reach the client before it has
        read the response: a client still sending a large body would
        lose the error it is owed.
        """
        if writer.can_write_eof():
            writer.write_eof()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + _LINGER_SECONDS
        discarded = 0
        try:
            while discarded < _LINGER_BYTES:
                left = deadline - loop.time()
                if left <= 0:
                    return
                chunk = await asyncio.wait_for(reader.read(1 << 16), left)
                if not chunk:
                    return  # the client closed its side
                discarded += len(chunk)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass

    # -- responses ---------------------------------------------------------------

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        close: bool = False,
        extra_headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self.metrics.inc("repro_responses_total", status=str(status))
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in extra_headers)
        writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()

    async def _respond(self, writer, method, path, headers, body) -> bool:
        """Route one request; True to keep the connection alive."""
        # A draining server closes each connection after its in-flight
        # response, and says so.
        keep_alive = (
            headers.get("connection", "").lower() != "close"
            and not self._draining
        )
        # Only known routes become label values: a client looping over
        # random paths must not grow the metrics registry (nor inject
        # exposition-breaking characters).
        known = {"/healthz", "/metrics", "/evaluate", "/enumerate", "/query"}
        endpoint = path.strip("/") if path in known else "other"
        self.metrics.inc("repro_requests_total", endpoint=endpoint)
        try:
            if path == "/healthz":
                return await self._healthz(writer, keep_alive)
            if path == "/metrics":
                self.dispatcher.publish_resilience_metrics()
                self.dispatcher.publish_kernel_metrics()
                await self._write_response(
                    writer,
                    200,
                    self.metrics.render().encode("utf-8"),
                    content_type="text/plain; version=0.0.4",
                    close=not keep_alive,
                )
                return keep_alive
            if path in ("/evaluate", "/enumerate"):
                if method != "POST":
                    await self._write_response(
                        writer,
                        405,
                        encode_error(f"{path} takes POST"),
                        close=not keep_alive,
                        extra_headers=(("Allow", "POST"),),
                    )
                    return keep_alive
                mode = EVALUATE if path == "/evaluate" else ENUMERATE
                return await self._extraction(
                    writer, mode, headers, body, keep_alive
                )
            if path == "/query":
                if method != "POST":
                    await self._write_response(
                        writer,
                        405,
                        encode_error("/query takes POST"),
                        close=not keep_alive,
                        extra_headers=(("Allow", "POST"),),
                    )
                    return keep_alive
                return await self._query(writer, headers, body, keep_alive)
            await self._write_response(
                writer, 404, encode_error(f"no route {path}"), close=not keep_alive
            )
            return keep_alive
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception as error:  # a handler bug must not kill the server
            self.metrics.inc("repro_errors_total")
            try:
                await self._write_response(
                    writer,
                    500,
                    encode_error(f"{type(error).__name__}: {error}"),
                    close=True,
                )
            except ConnectionError:
                pass
            return False

    def _health_payload(self) -> dict:
        """The ``/healthz`` body."""
        from repro import __version__

        stats = self.dispatcher.stats()
        resilience = stats["resilience"]
        if self._draining:
            status = "draining"
        elif resilience["degraded"]:
            status = "degraded"
        else:
            status = "ok"
        payload = {
            "status": status,
            "version": __version__,
            "uptime_seconds": round(time.time() - self._started, 3),
            "pending_documents": stats["pending_documents"],
            "inflight_batches": stats["inflight_batches"],
            "spanners_cached": stats["cache"]["size"],
            "workers": stats["workers"],
            "degraded": resilience["degraded"],
            "breakers": resilience["breakers"],
        }
        pool = resilience.get("pool")
        if pool is not None:
            payload["pool"] = {
                "alive": not pool["failed"],
                "worker_restarts": pool["restarts"],
                "task_retries": pool["retries"],
                "task_timeouts": pool["timeouts"],
                "last_restart": pool["last_restart"],
            }
        return payload

    async def _healthz(self, writer, keep_alive: bool) -> bool:
        payload = self._health_payload()
        await self._write_response(
            writer,
            200,
            json.dumps(payload, sort_keys=True).encode("utf-8"),
            close=not keep_alive,
        )
        return keep_alive

    async def _extraction(
        self, writer, mode: str, headers, body: bytes, keep_alive: bool
    ) -> bool:
        try:
            request = parse_request(
                body, mode, headers.get("content-type", "")
            )
        except ProtocolError as error:
            await self._write_response(
                writer, 400, encode_error(str(error)), close=not keep_alive
            )
            return keep_alive
        try:
            engine = await self.dispatcher.engine(request)
        except SpannerError as error:
            await self._write_response(
                writer,
                400,
                encode_error(f"bad pattern: {error}"),
                close=not keep_alive,
            )
            return keep_alive
        except BreakerOpen as error:
            # This pattern keeps failing to compile: fail fast instead
            # of re-planning it under coalesced load.
            await self._write_response(
                writer,
                422,
                encode_error(str(error)),
                close=not keep_alive,
                extra_headers=(
                    ("Retry-After", str(max(1, int(error.retry_after)))),
                ),
            )
            return keep_alive
        try:
            futures = self.dispatcher.submit(engine, request)
        except RequestTooLarge as error:
            await self._write_response(
                writer, 413, encode_error(str(error)), close=not keep_alive
            )
            return keep_alive
        except Overloaded as error:
            await self._write_response(
                writer,
                429,
                encode_error(str(error)),
                close=not keep_alive,
                extra_headers=(("Retry-After", "1"),),
            )
            return keep_alive
        if request.ndjson:
            return await self._stream_ndjson(
                writer, request, futures, keep_alive
            )
        entries = []
        for (doc_id, _), future in zip(request.documents, futures):
            payload, error = await future
            entries.append(result_entry(request, doc_id, payload, error))
        await self._write_response(
            writer, 200, encode_results(request, entries), close=not keep_alive
        )
        return keep_alive

    async def _query(self, writer, headers, body: bytes, keep_alive: bool) -> bool:
        """``POST /query``: register named queries and/or evaluate them.

        Registrations land in the server-wide query set; evaluation runs
        every document once through the set's combined engine, submitted
        via the dispatcher so query documents share the micro-batches,
        queue accounting, and shedding of the single-pattern endpoints.
        """
        try:
            request = parse_query_request(body, headers.get("content-type", ""))
        except ProtocolError as error:
            await self._write_response(
                writer, 400, encode_error(str(error)), close=not keep_alive
            )
            return keep_alive
        try:
            for name, spec in request.register:
                self.queryset.register(name, spec)
        except SpannerError as error:
            await self._write_response(
                writer,
                400,
                encode_error(f"bad query: {error}"),
                close=not keep_alive,
            )
            return keep_alive
        added = [name for name, _ in request.register]
        registered = self.queryset.names()
        if not request.documents:
            payload = {"registered": added, "queries": registered}
            await self._write_response(
                writer,
                200,
                json.dumps(payload, sort_keys=True).encode("utf-8"),
                close=not keep_alive,
            )
            return keep_alive
        unknown = (
            [] if request.names is None
            else [name for name in request.names if name not in registered]
        )
        if unknown or not registered:
            message = (
                "no queries registered"
                if not registered
                else f"unknown quer{'y' if len(unknown) == 1 else 'ies'}: "
                f"{', '.join(unknown)}"
            )
            await self._write_response(
                writer, 400, encode_error(message), close=not keep_alive
            )
            return keep_alive
        try:
            compiled = await self.dispatcher.compile_query_set(self.queryset)
        except SpannerError as error:
            await self._write_response(
                writer,
                400,
                encode_error(f"bad query: {error}"),
                close=not keep_alive,
            )
            return keep_alive
        self.metrics.gauge("repro_queryset_queries", len(compiled.queries))
        self.metrics.gauge("repro_queryset_cores", len(compiled.cores))
        try:
            futures = self.dispatcher.submit_documents(
                compiled.engine, request.documents, kind="mappings"
            )
        except RequestTooLarge as error:
            await self._write_response(
                writer, 413, encode_error(str(error)), close=not keep_alive
            )
            return keep_alive
        except Overloaded as error:
            await self._write_response(
                writer,
                429,
                encode_error(str(error)),
                close=not keep_alive,
                extra_headers=(("Retry-After", "1"),),
            )
            return keep_alive
        names = (
            compiled.names() if request.names is None else list(request.names)
        )
        entries = []
        for (doc_id, text), future in zip(request.documents, futures):
            payload, error = await future
            queries = None
            if error is None:
                queries = compiled.decode(
                    payload, text, names, spans=request.spans
                )
            entries.append(
                query_result_entry(doc_id, queries, error, request.spans)
            )
        await self._write_response(
            writer,
            200,
            encode_query_results(added, names, entries),
            close=not keep_alive,
        )
        return keep_alive

    async def _stream_ndjson(
        self, writer, request: SpanRequest, futures, keep_alive: bool
    ) -> bool:
        """Chunked NDJSON: each document's line ships as soon as it's done."""
        self.metrics.inc("repro_responses_total", status="200")
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        for (doc_id, _), future in zip(request.documents, futures):
            payload, error = await future
            line = encode_result_line(request, doc_id, payload, error)
            writer.write(f"{len(line):x}\r\n".encode("latin-1") + line + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return keep_alive


# -- entry points ---------------------------------------------------------------


async def _serve_until_signalled(config: ServerConfig) -> None:
    server = SpannerServer(config)
    await server.start()
    host, port = server.address
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for signal_number in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signal_number, stop.set)
            installed.append(signal_number)
        except NotImplementedError:  # non-Unix event loop
            pass
    print(
        f"repro serve: listening on http://{host}:{port} "
        f"(workers={config.workers}, batch={config.batch_max_size}"
        f"/{config.batch_max_delay * 1000:g}ms, "
        f"max-pending={config.max_pending})",
        file=sys.stderr,
        flush=True,
    )
    try:
        await stop.wait()
    finally:
        for signal_number in installed:
            loop.remove_signal_handler(signal_number)
    print("repro serve: draining…", file=sys.stderr, flush=True)
    await server.drain()
    print("repro serve: drained, bye", file=sys.stderr, flush=True)


def serve(config: ServerConfig | None = None) -> int:
    """Run the server until SIGTERM/SIGINT, then drain; the CLI entry."""
    try:
        asyncio.run(_serve_until_signalled(config or ServerConfig()))
    except KeyboardInterrupt:  # loops without add_signal_handler support
        pass
    return 0


class ServerThread:
    """A server on a private event loop in a daemon thread.

    The in-process harness for tests, docs examples, and benchmark E23:
    enter the context manager, talk to ``address`` over real sockets,
    and exiting drains gracefully.

    >>> from repro.server import ServerClient, ServerConfig, ServerThread
    >>> with ServerThread(ServerConfig(port=0)) as server:
    ...     client = ServerClient(*server.address)
    ...     verdict = client.evaluate("x{a}b", ["ab"])
    ...     client.close()
    >>> verdict["results"][0]["matches"]
    True
    """

    def __init__(
        self,
        config: ServerConfig | None = None,
        cache: SpannerCache | None = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig(port=0)
        self._cache = cache
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: SpannerServer | None = None
        self._failure: BaseException | None = None

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._failure is not None:
            raise self._failure
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        server = SpannerServer(self.config, cache=self._cache)
        try:
            await server.start()
        except BaseException as error:
            self._failure = error
            self._ready.set()
            return
        self._server = server
        self._ready.set()
        await server.wait_drained()

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None, "server thread not started"
        return self._server.address

    @property
    def server(self) -> SpannerServer:
        assert self._server is not None, "server thread not started"
        return self._server

    def drain(self, timeout: float = 30.0) -> None:
        """Drain from the calling thread (idempotent, blocks until done)."""
        server, loop = self._server, self._loop
        if server is None or loop is None or loop.is_closed():
            return
        if server._drained is not None and server._drained.is_set():
            return
        try:
            future = asyncio.run_coroutine_threadsafe(server.drain(), loop)
            future.result(timeout=timeout)
        except concurrent.futures.TimeoutError:
            # Drain overran its budget (e.g. a wedged in-flight handler).
            # The caller wanted the server *stopped*, not an exception:
            # log it and let __exit__ still join the (daemon) thread.
            print(
                f"repro server: drain did not finish within {timeout:g}s; "
                f"abandoning the wait",
                file=sys.stderr,
                flush=True,
            )
        except (RuntimeError, concurrent.futures.CancelledError):
            # The loop finished (or cancelled the duplicate coroutine)
            # because an earlier drain already completed; only a failure
            # on a live, undrained server is worth raising.
            drained = server._drained is not None and server._drained.is_set()
            if not loop.is_closed() and not drained:
                raise

    def __exit__(self, *exc_info) -> None:
        self.drain()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
