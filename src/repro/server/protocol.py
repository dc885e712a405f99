"""The server's wire protocol: request parsing and response encoding.

Pure functions between bytes and typed records — no sockets, no asyncio —
so the whole protocol is unit-testable without a running server.

Two request encodings for ``POST /evaluate`` and ``POST /enumerate``:

* **JSON** (default): one object carrying ``pattern`` plus a single
  ``document`` or a ``documents`` collection (a list of texts, a list of
  ``{"id", "text"}`` objects, or an ``{id: text}`` mapping);
* **NDJSON** (``Content-Type: application/x-ndjson``): the first line is
  the header object (``pattern``, options), every following line one
  document — a bare JSON string or an ``{"id", "text"}`` object.

Responses mirror the corpus service's per-document error isolation: each
document yields a result *or* an error entry, and a bad document never
poisons its batch.

>>> request = parse_request(
...     b'{"pattern": "x{a}", "documents": ["ab", "ba"]}', "evaluate", ""
... )
>>> request.pattern, [doc_id for doc_id, _ in request.documents]
('x{a}', ['doc-00000', 'doc-00001'])
>>> parse_request(b'{"documents": ["ab"]}', "evaluate", "")
Traceback (most recent call last):
    ...
repro.server.protocol.ProtocolError: request needs a "pattern" string
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = [
    "EVALUATE",
    "ENUMERATE",
    "NDJSON_CONTENT_TYPE",
    "QUERY",
    "ProtocolError",
    "QueryRequest",
    "SpanRequest",
    "encode_query_results",
    "encode_result_line",
    "encode_results",
    "parse_query_request",
    "parse_request",
]

#: Request modes (the POST endpoints).
EVALUATE = "evaluate"
ENUMERATE = "enumerate"
QUERY = "query"

NDJSON_CONTENT_TYPE = "application/x-ndjson"

_OPT_LEVELS = (0, 1, 2)
_HEADER_KEYS = frozenset({"pattern", "opt_level", "spans"})


class ProtocolError(Exception):
    """A malformed request; the HTTP layer answers 400 with the message."""


@dataclass(frozen=True)
class SpanRequest:
    """One parsed POST request: a pattern and the documents to run it on."""

    mode: str
    pattern: str
    documents: tuple[tuple[str, str], ...]
    opt_level: int | None = None
    spans: bool = False
    ndjson: bool = False
    #: Coalescing identity: requests with equal keys share one compile.
    key: tuple[str, int | None] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (self.pattern, self.opt_level))


def _generated_id(position: int) -> str:
    return f"doc-{position:05d}"


def _parse_json(raw: bytes, what: str):
    try:
        return json.loads(raw)
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"invalid JSON in {what}: {error}") from None


def _document_entry(item, position: int) -> tuple[str, str]:
    """Coerce one documents[] element into an ``(id, text)`` pair."""
    if isinstance(item, str):
        return _generated_id(position), item
    if isinstance(item, dict):
        text = item.get("text")
        if not isinstance(text, str):
            raise ProtocolError(
                f'document #{position} needs a "text" string'
            )
        doc_id = item.get("id", _generated_id(position))
        if not isinstance(doc_id, str):
            raise ProtocolError(f'document #{position} "id" must be a string')
        return doc_id, text
    raise ProtocolError(
        f"document #{position} must be a string or an object, "
        f"not {type(item).__name__}"
    )


def _documents(body: dict) -> tuple[tuple[str, str], ...]:
    single = body.get("document")
    collection = body.get("documents")
    if (single is None) == (collection is None):
        raise ProtocolError(
            'request needs exactly one of "document" or "documents"'
        )
    if single is not None:
        if not isinstance(single, str):
            raise ProtocolError('"document" must be a string')
        return ((_generated_id(0), single),)
    if isinstance(collection, dict):
        entries = [
            _document_entry({"id": doc_id, "text": text}, position)
            for position, (doc_id, text) in enumerate(collection.items())
        ]
    elif isinstance(collection, list):
        entries = [
            _document_entry(item, position)
            for position, item in enumerate(collection)
        ]
    else:
        raise ProtocolError('"documents" must be a list or an object')
    if not entries:
        raise ProtocolError('"documents" is empty')
    seen: set[str] = set()
    for doc_id, _ in entries:
        if doc_id in seen:
            raise ProtocolError(f"duplicate document id {doc_id!r}")
        seen.add(doc_id)
    return tuple(entries)


def _header_options(body: dict) -> tuple[str, int | None, bool]:
    pattern = body.get("pattern")
    if not isinstance(pattern, str) or not pattern:
        raise ProtocolError('request needs a "pattern" string')
    opt_level = body.get("opt_level")
    # type() rather than isinstance(): JSON true is a bool, which Python
    # would otherwise accept as level 1 (as it would 1.0).
    if opt_level is not None and (
        type(opt_level) is not int or opt_level not in _OPT_LEVELS
    ):
        raise ProtocolError(
            f'"opt_level" must be one of {list(_OPT_LEVELS)}, '
            f"got {opt_level!r}"
        )
    spans = body.get("spans", False)
    if not isinstance(spans, bool):
        raise ProtocolError('"spans" must be a boolean')
    return pattern, opt_level, spans


def _parse_ndjson(raw: bytes, mode: str) -> SpanRequest:
    lines = [line for line in raw.split(b"\n") if line.strip()]
    if not lines:
        raise ProtocolError("NDJSON request is empty")
    header = _parse_json(lines[0], "NDJSON header line")
    if not isinstance(header, dict):
        raise ProtocolError("NDJSON header line must be an object")
    unknown = set(header) - _HEADER_KEYS
    if unknown:
        raise ProtocolError(
            f"unknown NDJSON header key(s): {sorted(unknown)} "
            f"(documents go on the following lines)"
        )
    pattern, opt_level, spans = _header_options(header)
    documents = []
    seen: set[str] = set()
    for position, line in enumerate(lines[1:]):
        item = _parse_json(line, f"NDJSON document line {position + 1}")
        doc_id, text = _document_entry(item, position)
        if doc_id in seen:
            raise ProtocolError(f"duplicate document id {doc_id!r}")
        seen.add(doc_id)
        documents.append((doc_id, text))
    if not documents:
        raise ProtocolError("NDJSON request carries no document lines")
    return SpanRequest(
        mode=mode,
        pattern=pattern,
        documents=tuple(documents),
        opt_level=opt_level,
        spans=spans,
        ndjson=True,
    )


def parse_request(raw: bytes, mode: str, content_type: str) -> SpanRequest:
    """Parse one POST body (JSON or NDJSON) into a :class:`SpanRequest`."""
    if NDJSON_CONTENT_TYPE in (content_type or "").lower():
        return _parse_ndjson(raw, mode)
    body = _parse_json(raw, "request body")
    if not isinstance(body, dict):
        raise ProtocolError("request body must be a JSON object")
    pattern, opt_level, spans = _header_options(body)
    return SpanRequest(
        mode=mode,
        pattern=pattern,
        documents=_documents(body),
        opt_level=opt_level,
        spans=spans,
    )


# -- query sets --------------------------------------------------------------


@dataclass(frozen=True)
class QueryRequest:
    """One parsed ``POST /query`` body.

    ``register`` carries ``(name, spec)`` pairs to add to the server's
    query set (specs in the :mod:`repro.algebra` JSON wire form);
    ``names`` selects which registered queries to answer (``None`` = all);
    ``documents`` may be empty for a registration-only request.
    """

    register: tuple[tuple[str, object], ...]
    names: tuple[str, ...] | None
    documents: tuple[tuple[str, str], ...]
    spans: bool = False


def parse_query_request(raw: bytes, content_type: str) -> QueryRequest:
    """Parse one ``POST /query`` body into a :class:`QueryRequest`.

    >>> request = parse_query_request(
    ...     b'{"register": {"q": "x{a}"}, "documents": ["ab"]}', ""
    ... )
    >>> request.register, request.names
    ((('q', 'x{a}'),), None)
    """
    if NDJSON_CONTENT_TYPE in (content_type or "").lower():
        raise ProtocolError("/query only accepts JSON bodies")
    body = _parse_json(raw, "request body")
    if not isinstance(body, dict):
        raise ProtocolError("request body must be a JSON object")
    register_spec = body.get("register")
    register: tuple[tuple[str, object], ...] = ()
    if register_spec is not None:
        if not isinstance(register_spec, dict) or not register_spec:
            raise ProtocolError(
                '"register" must be a non-empty object of name -> query spec'
            )
        for name in register_spec:
            if not isinstance(name, str) or not name:
                raise ProtocolError(
                    "query names must be non-empty strings"
                )
        register = tuple(register_spec.items())
    evaluate = body.get("evaluate")
    if evaluate is None or evaluate is True:
        names = None
    elif isinstance(evaluate, list) and all(
        isinstance(name, str) for name in evaluate
    ):
        names = tuple(evaluate)
    else:
        raise ProtocolError(
            '"evaluate" must be true or a list of query names'
        )
    if body.get("document") is None and body.get("documents") is None:
        documents: tuple[tuple[str, str], ...] = ()
        if not register:
            raise ProtocolError(
                'request needs "register" and/or "document"/"documents"'
            )
    else:
        documents = _documents(body)
    spans = body.get("spans", False)
    if not isinstance(spans, bool):
        raise ProtocolError('"spans" must be a boolean')
    return QueryRequest(
        register=register, names=names, documents=documents, spans=spans
    )


# -- responses ---------------------------------------------------------------


def _decoded(record: dict, spans: bool) -> dict:
    if spans:
        return {
            variable: [span.begin, span.end]
            for variable, span in record.items()
        }
    return dict(record)


def result_entry(
    request: SpanRequest, doc_id: str, payload, error: str | None
) -> dict:
    """One document's response object (shared by JSON and NDJSON modes)."""
    entry: dict[str, object] = {"doc": doc_id, "error": error}
    if request.mode == EVALUATE:
        entry["matches"] = None if error is not None else bool(payload)
    else:
        entry["mappings"] = (
            None
            if error is not None
            else [_decoded(record, request.spans) for record in payload]
        )
    return entry


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False)


def encode_result_line(
    request: SpanRequest, doc_id: str, payload, error: str | None
) -> bytes:
    """One NDJSON response line (newline-terminated)."""
    entry = result_entry(request, doc_id, payload, error)
    return (_dump(entry) + "\n").encode("utf-8")


def encode_results(
    request: SpanRequest, entries: list[dict]
) -> bytes:
    """The aggregate JSON response body for a non-NDJSON request."""
    payload = {"pattern": request.pattern, "results": entries}
    return _dump(payload).encode("utf-8")


def query_result_entry(
    doc_id: str,
    queries: "dict[str, list[dict]] | None",
    error: str | None,
    spans: bool,
) -> dict:
    """One document's ``/query`` response object."""
    decoded = None
    if error is None:
        decoded = {
            name: [_decoded(record, spans) for record in records]
            for name, records in queries.items()
        }
    return {"doc": doc_id, "error": error, "queries": decoded}


def encode_query_results(
    registered: list[str], names: list[str], entries: list[dict]
) -> bytes:
    """The aggregate JSON response body for a ``/query`` request."""
    payload: dict[str, object] = {
        "registered": registered,
        "queries": names,
        "results": entries,
    }
    return _dump(payload).encode("utf-8")


def encode_error(message: str) -> bytes:
    """A JSON error body (400/404/429/503 responses)."""
    return _dump({"error": message}).encode("utf-8")
