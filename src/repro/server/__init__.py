"""The online serving subsystem (the layer above :mod:`repro.service`).

A long-running asyncio HTTP server answering the paper's evaluation
problems per request: ``POST /evaluate`` (the NonEmp verdict),
``POST /enumerate`` (the output set, decoded), ``GET /healthz`` and
``GET /metrics``.  Concurrent requests for one pattern share a single
compile through the thread-safe :class:`~repro.service.cache.SpannerCache`
(request coalescing), documents from many requests are micro-batched onto
shared executors with size/latency watermarks (sooner when a pool worker
is idle), queues are bounded with 429 load-shedding past the watermark,
and SIGTERM drains gracefully —
see :mod:`repro.server.dispatcher` and :mod:`repro.server.app`, and
``docs/server.md`` for the operational story.
"""

from repro.server.app import ServerConfig, ServerThread, SpannerServer, serve
from repro.server.client import (
    RetryLaterError,
    ServerClient,
    ServerResponseError,
)
from repro.server.dispatcher import (
    Dispatcher,
    DispatcherConfig,
    Overloaded,
    RequestTooLarge,
)
from repro.server.metrics import Metrics
from repro.server.protocol import ProtocolError, SpanRequest, parse_request

__all__ = [
    "Dispatcher",
    "DispatcherConfig",
    "Metrics",
    "Overloaded",
    "ProtocolError",
    "RequestTooLarge",
    "RetryLaterError",
    "ServerClient",
    "ServerConfig",
    "ServerResponseError",
    "ServerThread",
    "SpanRequest",
    "SpannerServer",
    "parse_request",
    "serve",
]
