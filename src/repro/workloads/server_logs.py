"""Synthetic web-server logs with optional fields.

A second incomplete-information workload (complementing the land
registry): access-log lines where the authenticated user and the referrer
are optional::

    GET /index.html 200\\n
    GET /admin 403 user=root\\n
    GET /img/a.png 200 user=ana ref=/index.html\\n

The extraction task — path, status, and whichever of user/referrer are
present — exercises partial mappings with *two* independent optional
fields (four distinct mapping domains).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.rgx.ast import (
    EPSILON,
    Rgx,
    VarBind,
    concat,
    not_chars,
    star,
    string,
    union,
)

_PATHS = ["/index.html", "/admin", "/img/a.png", "/api/v1/items", "/login"]
_USERS = ["root", "ana", "bruno", "guest"]
_STATUS = ["200", "403", "404", "500"]


@dataclass(frozen=True)
class LogLine:
    path: str
    status: str
    user: str | None
    referrer: str | None

    def render(self) -> str:
        line = f"GET {self.path} {self.status}"
        if self.user is not None:
            line += f" user={self.user}"
        if self.referrer is not None:
            line += f" ref={self.referrer}"
        return line + "\n"


def generate_lines(
    line_count: int,
    user_probability: float = 0.5,
    referrer_probability: float = 0.3,
    seed: int = 0,
) -> list[LogLine]:
    rng = random.Random(seed)
    lines = []
    for _ in range(line_count):
        lines.append(
            LogLine(
                path=rng.choice(_PATHS),
                status=rng.choice(_STATUS),
                user=rng.choice(_USERS) if rng.random() < user_probability else None,
                referrer=rng.choice(_PATHS) if rng.random() < referrer_probability else None,
            )
        )
    return lines


def render(lines: list[LogLine]) -> str:
    return "".join(line.render() for line in lines)


def generate_document(line_count: int, seed: int = 0) -> str:
    return render(generate_lines(line_count, seed=seed))


def access_expression() -> Rgx:
    """Extract path/status/user/ref with both optional fields as RGX."""
    sigma_star = star(not_chars(""))
    token = star(not_chars(" \n"))
    optional_user = union(
        concat(string(" user="), VarBind("user", token)), EPSILON
    )
    optional_ref = union(
        concat(string(" ref="), VarBind("ref", token)), EPSILON
    )
    return concat(
        sigma_star,
        string("GET "),
        VarBind("path", token),
        string(" "),
        VarBind("status", token),
        optional_user,
        optional_ref,
        string("\n"),
        sigma_star,
    )


def compiled_spanner():
    """The access-log extraction compiled once for repeated serving."""
    from repro.engine.compiled import compile_spanner

    return compile_spanner(access_expression())


def corpus(
    document_count: int, lines_per_document: int = 12, seed: int = 0
):
    """A log *corpus*: many access-log documents with stable ids.

    Ids are ``access-00000.log``, ``access-00001.log``, …; each document
    draws from its own derived seed.

    >>> corpus(2, lines_per_document=1).doc_ids()
    ['access-00000.log', 'access-00001.log']
    """
    from repro.service.corpus import InMemoryCorpus

    return InMemoryCorpus(
        {
            f"access-{index:05d}.log": generate_document(
                lines_per_document, seed=seed + index
            )
            for index in range(document_count)
        }
    )


def extract_corpus_tuples(
    source, workers: int = 1
) -> dict[str, set[tuple[str, str, str | None, str | None]]]:
    """Corpus-level driver: access tuples per document id, optionally sharded.

    >>> tuples = extract_corpus_tuples(corpus(1, lines_per_document=1))
    >>> list(tuples) == ['access-00000.log']
    True
    """
    from repro.service.evaluate import extract_corpus
    from repro.util.errors import CorpusError

    tuples: dict[str, set[tuple[str, str, str | None, str | None]]] = {}
    for result in extract_corpus(access_expression(), source, workers=workers):
        if not result.ok:
            raise CorpusError(
                f"document {result.doc_id!r} failed: {result.error}"
            )
        tuples[result.doc_id] = {
            (
                record["path"],
                record["status"],
                record.get("user"),
                record.get("ref"),
            )
            for record in result.mappings
        }
    return tuples


def extract_batch(documents) -> list[set[tuple[str, str, str | None, str | None]]]:
    """Batch extraction of access tuples per document, compiling once."""
    from repro.workloads.expressions import batch_workload

    materialised = list(documents)
    _, batches = batch_workload(access_expression(), materialised)
    return [
        extraction_tuples(document, mappings)
        for document, mappings in zip(materialised, batches)
    ]


def expected_tuples(lines: list[LogLine]) -> set[tuple[str, str, str | None, str | None]]:
    return {(line.path, line.status, line.user, line.referrer) for line in lines}


def extraction_tuples(document: str, mappings) -> set[tuple[str, str, str | None, str | None]]:
    tuples = set()
    for mapping in mappings:
        path = mapping["path"].content(document)
        status = mapping["status"].content(document)
        user_span = mapping.get("user")
        ref_span = mapping.get("ref")
        tuples.add(
            (
                path,
                status,
                user_span.content(document) if user_span else None,
                ref_span.content(document) if ref_span else None,
            )
        )
    return tuples
