"""The public API: one module, five verbs, CLI-consistent parameters.

Everything a user of the library needs goes through here::

    from repro import api

    engine = api.compile(".*Seller: x{[^,]*},.*")        # one query
    for m in engine.extract("Seller: John, ID75"):       # decoded dicts
        ...

    for result in api.evaluate(pattern, corpus, workers=4):   # many documents
        ...

    for m in api.enumerate(pattern, document):           # polynomial-delay stream
        ...

    queries = api.query({"seller": seller, "buyer": buyer})   # many queries
    results = queries.extract(document)                  # one engine pass

    client = api.connect(host, port)                     # the HTTP server
    client.query(register={"seller": seller}, documents=[...])

Parameter names match the CLI flags one-to-one: ``opt_level``
(``--opt-level``), ``workers`` (``--workers``), ``batch_size``
(``--batch-size``), ``spans`` (``--spans``).

``compile`` and ``query`` accept every supported query form: RGX text, a
parsed :class:`~repro.rgx.ast.Rgx`, an extraction
:class:`~repro.rules.rule.Rule`, a :class:`~repro.automata.va.VA`, a
:class:`~repro.algebra.QueryExpr` built with the
:func:`repro.algebra.query` combinators, or the JSON spec form (a dict).

Deprecation policy: the older scattered entry points —
``repro.Spanner``, ``repro.compile_spanner``,
``repro.engine.compile_spanner``, ``repro.service.cached_spanner`` —
keep working but emit one :class:`DeprecationWarning` naming their
replacement here.  They are shims, not separate code paths: everything
lands on the same planner and engine.  ``import repro.api`` itself is
warning-free under ``-W error::DeprecationWarning``.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.algebra import QueryExpr, query as _query_expr
from repro.engine.compiled import CompiledSpanner
from repro.server.client import ServerClient
from repro.service.cache import cached_spanner
from repro.service.evaluate import CorpusResult, extract_corpus
from repro.service.queryset import QuerySet, QuerySetResult

__all__ = [
    "CompiledSpanner",
    "CorpusResult",
    "QueryExpr",
    "QuerySet",
    "QuerySetResult",
    "ServerClient",
    "compile",
    "connect",
    "enumerate",
    "evaluate",
    "query",
]

_builtin_enumerate = enumerate


def _coerced(source):
    """Dict sources are JSON query specs; everything else passes through."""
    if isinstance(source, dict):
        return _query_expr(source)
    return source


def compile(source, *, opt_level: int | None = None) -> CompiledSpanner:
    """Compile any supported query form into a reusable engine.

    Compiles through the process-wide spanner cache, so compiling the
    same query twice (anywhere in the process) returns the same engine.

    >>> engine = compile("x{a+}b")
    >>> engine.extract("aab")
    [{'x': 'aa'}]
    >>> compile({"op": "union", "of": ["x{a}.*", ".*y{b}"]}).count("ab")
    2
    """
    return cached_spanner(_coerced(source), opt_level)


def evaluate(
    source,
    corpus,
    *,
    opt_level: int | None = None,
    workers: int = 1,
    ordered: bool = True,
    batch_size: int | None = None,
    spans: bool = False,
) -> Iterator[CorpusResult]:
    """Evaluate one query over every document of a corpus.

    ``corpus`` is anything :func:`repro.service.corpus.as_corpus` accepts
    (a list of texts, an ``{id: text}`` mapping, a directory corpus, a
    generator factory).  Results stream back as
    :class:`~repro.service.evaluate.CorpusResult` records with decoded
    mappings; errors are isolated per document.

    >>> [r.mappings for r in evaluate(".*x{a+}.*", ["ba", "bb"])]
    [({'x': 'a'},), ()]
    """
    return extract_corpus(
        compile(source, opt_level=opt_level),
        corpus,
        workers=workers,
        ordered=ordered,
        spans=spans,
        chunk_size=batch_size,
    )


def enumerate(
    source, document, *, opt_level: int | None = None, spans: bool = False
) -> Iterator[dict]:
    """Stream one document's decoded mappings in enumeration order.

    The lazy counterpart of ``compile(source).extract(document)`` —
    backed by Algorithm 2's polynomial-delay enumeration (Theorem 5.1,
    :mod:`repro.evaluation.enumerate`), so the first mapping arrives
    without materialising the output set.

    >>> list(enumerate(".*x{a+}.*", "ba"))
    [{'x': 'a'}]
    """
    engine = compile(source, opt_level=opt_level)
    text = document if isinstance(document, str) else document.text
    for mapping in engine.enumerate(text):
        if spans:
            yield dict(mapping.items())
        else:
            yield {v: s.content(text) for v, s in mapping.items()}


def query(
    queries,
    corpus=None,
    *,
    opt_level: int | None = None,
    workers: int = 1,
    ordered: bool = True,
    batch_size: int | None = None,
    spans: bool = False,
):
    """Build a :class:`~repro.service.queryset.QuerySet`; evaluate if asked.

    ``queries`` maps names to query specs (RGX text, algebra expressions,
    JSON spec dicts — including ``{"op": "ref", "name": ...}`` references
    to sibling queries).  All queries compile into **one** shared engine,
    so each document is scanned once regardless of how many queries are
    registered.

    Without ``corpus``, returns the query set (call ``.extract(text)``
    per document, or ``.evaluate_corpus(...)`` later).  With ``corpus``,
    returns the streaming per-document results directly.

    >>> queries = {"pair": "x{a+}b.*y{b+}",
    ...            "left": {"op": "project", "of": {"op": "ref", "name": "pair"},
    ...                     "keep": ["x"]}}
    >>> query(queries).extract("aabab")["left"]
    [{'x': 'aa'}]
    >>> [r.queries["pair"] for r in query(queries, ["abb"])]
    [[{'x': 'a', 'y': 'b'}]]
    """
    queryset = QuerySet(opt_level=opt_level)
    for name, source in queries.items():
        queryset.register(name, source)
    if corpus is None:
        return queryset
    return queryset.evaluate_corpus(
        corpus,
        workers=workers,
        ordered=ordered,
        batch_size=batch_size,
        spans=spans,
    )


def connect(
    host: str = "127.0.0.1", port: int = 8080, *, timeout: float = 30.0
) -> ServerClient:
    """A client for a running ``repro serve`` instance.

    >>> from repro.server import ServerConfig, ServerThread
    >>> with ServerThread(ServerConfig(port=0)) as server:
    ...     host, port = server.address
    ...     with connect(host, port) as client:
    ...         verdict = client.evaluate("x{a}b", ["ab"])
    >>> verdict["results"][0]["matches"]
    True
    """
    return ServerClient(host, port, timeout=timeout)
