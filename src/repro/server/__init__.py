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

Every name in ``__all__`` is exported lazily, and its first lookup
imports the submodule defining it: ``ServerConfig``, ``ServerThread``,
``SpannerServer`` and ``serve`` from :mod:`~repro.server.app`;
``Dispatcher``, ``DispatcherConfig``, ``Overloaded`` and
``RequestTooLarge`` from :mod:`~repro.server.dispatcher`; ``Metrics``;
``ServerClient``, ``RetryLaterError`` and ``ServerResponseError`` from
:mod:`~repro.server.client`; ``ProtocolError``, ``SpanRequest`` and
``parse_request`` from :mod:`~repro.server.protocol`.  So ``import
repro.server.client`` (what :mod:`repro.api` does) loads only the
client and the protocol, not asyncio.
"""

#: Public names by the submodule defining them.  ``__getattr__`` (PEP 562)
#: imports a name's submodule on its first lookup.
_EXPORTS = {
    name: submodule
    for submodule, names in {
        "app": ("ServerConfig", "ServerThread", "SpannerServer", "serve"),
        "client": ("RetryLaterError", "ServerClient", "ServerResponseError"),
        "dispatcher": ("Dispatcher", "DispatcherConfig", "Overloaded", "RequestTooLarge"),
        "metrics": ("Metrics",),
        "protocol": ("ProtocolError", "SpanRequest", "parse_request"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module 'repro.server' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"repro.server.{submodule}"), name)
    globals()[name] = value  # later lookups bypass __getattr__
    return value
