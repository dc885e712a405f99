"""Command-line interface: ``python -m repro`` (installed as ``repro``).

Extract mappings from documents with a variable regex, in the paper's
mapping semantics::

    $ python -m repro '.*Seller: x{[^,\\n]*},.*' registry.csv
    {"x": "John"}
    {"x": "Mark"}

Modes:

* default — one JSON object per output mapping (absent optional fields
  are simply missing keys);
* ``--spans`` — emit ``[begin, end]`` pairs instead of contents;
* ``--check`` — print satisfiability, sequentiality and a witness
  document for the pattern, then exit (static analysis, Section 6);
* ``--explain`` — print the compilation planner's pass log (states and
  transitions before/after every pass, timings), then exit;
* ``--count`` — print only the number of mappings;
* ``--engine {compiled,seed}`` — evaluation engine; ``compiled`` (the
  default) uses :mod:`repro.engine`'s tables, pruning, and memoisation;
* ``--opt-level {0,1,2}`` — the planner pipeline behind the compiled
  engine (0 straight translation, 1 default passes, 2 adds budgeted
  determinisation);
* ``--stats`` — after the run, print the engine's kernel table sizes and
  cache hit/miss counters to stderr.

Serving mode — ``repro serve`` starts the long-running HTTP server
(:mod:`repro.server`) instead of a one-shot extraction::

    $ repro serve --port 8080 --workers 4

See ``repro serve --help`` for the batching/backpressure flags and
``docs/server.md`` for the endpoints.

Multi-query mode — ``repro query`` evaluates a *set* of named queries
(algebra expressions over RGX and named sub-queries) through one shared
compiled engine, so every document is scanned once for all queries::

    $ repro query -q seller='.*Seller: x{[^,]*},.*' \\
                  -q buyer='.*Buyer: y{[^,]*},.*' registry.csv

Batch mode — several files, ``--glob`` patterns, or both — compiles the
pattern once and evaluates every document through the corpus service
(:mod:`repro.service`):

* each record carries a ``"_file"`` key identifying its document;
* ``--workers N`` shards documents across ``N`` worker processes
  (output order is deterministic and identical to ``--workers 1``);
* ``--ndjson`` groups output per *document* instead of per mapping —
  one JSON object per line with ``doc``, ``mappings``, and ``error``
  keys, and unreadable or failing documents become error records
  instead of aborting the run.

Reads from stdin when no file or glob is given.  See ``docs/cli.md`` for
copy-pasteable examples.
"""

from __future__ import annotations

import argparse
import glob as globbing
import json
import sys

from repro.spanner import Spanner
from repro.util.errors import SpannerError


def _distribution_version() -> str:
    """The installed package version (falls back to the source tree's)."""
    from importlib import metadata

    try:
        return metadata.version("repro-spanners")
    except metadata.PackageNotFoundError:
        from repro import __version__

        return __version__


def _positive_int(text: str) -> int:
    """argparse type for flags that require a positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (got {value})"
        )
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type for flags that require an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer (got {value})"
        )
    return value


def _positive_float(text: str) -> float:
    """argparse type for durations that must be strictly positive."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds (got {text})"
        )
    return value


def _nonnegative_float(text: str) -> float:
    """argparse type for durations where zero means "immediately"."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 seconds (got {text})"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Document-spanner extraction with mapping semantics "
            "(Maturana, Riveros, Vrgoč, PODS 2018)."
        ),
        epilog=(
            "examples:\n"
            "  echo 'Seller: John, ID75' | repro '.*Seller: x{[^,]*},.*'\n"
            "  repro '.*x{a+}.*' a.txt b.txt            # batch, records tagged _file\n"
            "  repro '.*x{a+}.*' --glob 'logs/*.txt' --workers 4 --ndjson\n"
            "  repro 'x{ab}c' --check                   # static analysis only\n"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_distribution_version()}",
    )
    parser.add_argument("pattern", help="variable regex, e.g. '.*x{a+}.*'")
    parser.add_argument(
        "files",
        nargs="*",
        metavar="file",
        help="document file(s); defaults to stdin, several run as a batch",
    )
    parser.add_argument(
        "--glob",
        action="append",
        default=[],
        metavar="PATTERN",
        help=(
            "add files matching a glob pattern (repeatable; ** recurses); "
            "matches are sorted and deduplicated against explicit files"
        ),
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help=(
            "evaluate a batch across N worker processes "
            "(default 1: in-process; output order is identical either way)"
        ),
    )
    parser.add_argument(
        "--ndjson",
        action="store_true",
        help=(
            "one JSON object per document (keys: doc, mappings, error) "
            "instead of one per mapping; errors never abort the batch"
        ),
    )
    parser.add_argument(
        "--task-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "deadline per worker task; a batch that exceeds it is retried "
            "on a fresh worker (default: $REPRO_TASK_TIMEOUT, else none; "
            "needs --workers > 1)"
        ),
    )
    parser.add_argument(
        "--spans",
        action="store_true",
        help="emit [begin, end] positions instead of contents",
    )
    parser.add_argument(
        "--count",
        action="store_true",
        help="print only the number of output mappings",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="static analysis of the pattern (no document needed)",
    )
    parser.add_argument(
        "--engine",
        choices=("compiled", "seed"),
        default="compiled",
        help="evaluation engine (default: the compiled engine)",
    )
    parser.add_argument(
        "--opt-level",
        type=int,
        choices=(0, 1, 2),
        default=1,
        help=(
            "compilation planner opt level: 0 straight translation, "
            "1 default pass pipeline, 2 adds budgeted determinisation"
        ),
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the compilation plan's pass log, then exit",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help=(
            "after the run, print kernel table sizes and cache hit/miss "
            "counters to stderr (compiled engine only)"
        ),
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``repro serve`` flags (mirrors :class:`repro.server.ServerConfig`)."""
    from repro.service.backend import DEFAULT_DEGRADED_RESET
    from repro.service.evaluate import DEFAULT_MAX_REBUILDS

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve spanner evaluation over HTTP: POST /evaluate, "
            "POST /enumerate, GET /healthz, GET /metrics.  Concurrent "
            "requests for one pattern share a compile; documents from "
            "many requests are micro-batched onto shared workers; "
            "SIGTERM drains gracefully.  See docs/server.md."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port (0 picks a free one; default 8080)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "evaluate batches on N worker processes; 0 (default) stays "
            "in-process on a thread pool"
        ),
    )
    parser.add_argument(
        "--batch-size",
        type=_positive_int,
        default=16,
        metavar="N",
        help="flush a micro-batch at N documents (default 16)",
    )
    parser.add_argument(
        "--batch-delay",
        type=_nonnegative_float,
        default=0.002,
        metavar="SECONDS",
        help=(
            "flush a micro-batch this long after its first document "
            "(default 0.002; 0 flushes immediately); with --workers N it "
            "goes out sooner when a worker is idle"
        ),
    )
    parser.add_argument(
        "--max-pending",
        type=_positive_int,
        default=1024,
        metavar="N",
        help=(
            "shed requests (HTTP 429) past N queued + in-flight "
            "documents (default 1024)"
        ),
    )
    parser.add_argument(
        "--drain-grace",
        type=_positive_float,
        default=10.0,
        metavar="SECONDS",
        help="seconds granted to in-flight requests on SIGTERM (default 10)",
    )
    parser.add_argument(
        "--task-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "deadline per worker task; a batch that exceeds it is retried "
            "on a fresh worker (default: $REPRO_TASK_TIMEOUT, else none)"
        ),
    )
    parser.add_argument(
        "--max-rebuilds",
        type=_nonnegative_int,
        default=DEFAULT_MAX_REBUILDS,
        metavar="N",
        help=(
            "consecutive worker-pool rebuilds tolerated before the server "
            f"degrades to in-process evaluation (default {DEFAULT_MAX_REBUILDS})"
        ),
    )
    parser.add_argument(
        "--degraded-reset",
        type=_positive_float,
        default=DEFAULT_DEGRADED_RESET,
        metavar="SECONDS",
        help=(
            "after degrading, wait this long before trying to revive the "
            f"worker pool (default {DEFAULT_DEGRADED_RESET:g})"
        ),
    )
    return parser


def build_query_parser() -> argparse.ArgumentParser:
    """The ``repro query`` flags (multi-query evaluation via a QuerySet)."""
    parser = argparse.ArgumentParser(
        prog="repro query",
        description=(
            "Evaluate a set of named algebra queries (union / projection / "
            "join over RGX and named sub-queries) against documents.  The "
            "queries compile into one shared engine, so every document is "
            "scanned once no matter how many queries are registered.  See "
            "docs/cli.md for the query spec forms."
        ),
        epilog=(
            "examples:\n"
            "  echo 'Seller: John, ID75' | repro query -q "
            "seller='.*Seller: x{[^,]*},.*'\n"
            "  repro query --queries rules.json --glob 'logs/*.txt' "
            "--workers 4 --ndjson\n"
            "  repro query -q a='x{a+}' -q b='x{a+}|y{b+}' --explain\n"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "-q",
        "--query",
        action="append",
        default=[],
        metavar="NAME=PATTERN",
        help="register one named RGX query (repeatable)",
    )
    parser.add_argument(
        "--queries",
        metavar="FILE",
        help=(
            "register queries from a JSON file: an object mapping names "
            "to query specs (RGX text or the algebra spec form)"
        ),
    )
    parser.add_argument(
        "files",
        nargs="*",
        metavar="file",
        help="document file(s); defaults to stdin, several run as a batch",
    )
    parser.add_argument(
        "--glob",
        action="append",
        default=[],
        metavar="PATTERN",
        help="add files matching a glob pattern (repeatable; ** recurses)",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="evaluate a batch across N worker processes (default 1)",
    )
    parser.add_argument(
        "--batch-size",
        type=_positive_int,
        default=None,
        metavar="N",
        help="documents shipped to a worker per task (default 8)",
    )
    parser.add_argument(
        "--ndjson",
        action="store_true",
        help=(
            "one JSON object per document (keys: doc, queries, error) "
            "instead of one per mapping"
        ),
    )
    parser.add_argument(
        "--spans",
        action="store_true",
        help="emit [begin, end] positions instead of contents",
    )
    parser.add_argument(
        "--opt-level",
        type=int,
        choices=(0, 1, 2),
        default=None,
        help="compilation planner opt level for the combined engine",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the query-set sharing report, then exit",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help=(
            "after the run, print kernel table sizes and cache hit/miss "
            "counters to stderr (worker counters merged in)"
        ),
    )
    return parser


def _run_query(argv: list[str], stdin: str | None = None) -> int:
    """The ``repro query`` subcommand: many named queries, one engine."""
    from repro.service.cache import DEFAULT_CACHE
    from repro.service.queryset import QuerySet

    arguments = build_query_parser().parse_args(argv)
    queries = QuerySet(opt_level=arguments.opt_level, cache=DEFAULT_CACHE)
    if arguments.queries:
        try:
            with open(arguments.queries, encoding="utf-8") as handle:
                specs = json.load(handle)
        except (OSError, ValueError) as error:
            print(
                f"error: cannot read {arguments.queries}: {error}",
                file=sys.stderr,
            )
            return 2
        if not isinstance(specs, dict):
            print(
                "error: --queries file must be a JSON object "
                "mapping names to query specs",
                file=sys.stderr,
            )
            return 2
        try:
            for name, spec in specs.items():
                queries.register(name, spec)
        except SpannerError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    for item in arguments.query:
        name, equals, pattern = item.partition("=")
        if not equals or not name or not pattern:
            print(
                f"error: -q/--query needs NAME=PATTERN, got {item!r}",
                file=sys.stderr,
            )
            return 2
        source: object = pattern
        if pattern.lstrip().startswith("{"):
            # No RGX pattern starts with a bare '{' (bindings need a
            # variable name first), so this is the JSON spec form.
            try:
                source = json.loads(pattern)
            except ValueError as error:
                print(
                    f"error: query {name!r}: invalid JSON spec: {error}",
                    file=sys.stderr,
                )
                return 2
        try:
            queries.register(name, source)
        except SpannerError as error:
            print(f"error: query {name!r}: {error}", file=sys.stderr)
            return 2
    if not len(queries):
        print(
            "error: no queries registered; "
            "use -q NAME=PATTERN and/or --queries FILE",
            file=sys.stderr,
        )
        return 2
    try:
        compiled = queries.compile()
    except SpannerError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if arguments.explain:
        print(queries.explain())
        return 0

    records, failures, batch = _load_records(arguments, stdin)
    if failures:
        if arguments.ndjson:
            for path, message in failures:
                print(
                    json.dumps(
                        {"doc": path, "queries": None, "error": message},
                        sort_keys=True,
                        ensure_ascii=False,
                    )
                )
        else:
            path, message = failures[0]
            print(f"error: cannot read {path}: {message}", file=sys.stderr)
            return 2

    worker_stats: dict = {}
    results = queries.evaluate_corpus(
        records,
        workers=arguments.workers,
        batch_size=arguments.batch_size,
        spans=arguments.spans,
        on_worker_stats=worker_stats.update if arguments.stats else None,
    )
    code = 0
    for result in results:
        if arguments.ndjson:
            payload = {
                "doc": result.doc_id,
                "queries": None
                if result.queries is None
                else {
                    name: [
                        _decoded(record, arguments.spans) for record in rows
                    ]
                    for name, rows in result.queries.items()
                },
                "error": result.error,
            }
            print(json.dumps(payload, sort_keys=True, ensure_ascii=False))
            continue
        if not result.ok:
            print(f"error: {result.doc_id}: {result.error}", file=sys.stderr)
            return 2
        for name, rows in result.queries.items():
            for record in rows:
                payload = _decoded(record, arguments.spans)
                payload["_query"] = name
                if batch:
                    payload["_file"] = result.doc_id
                print(json.dumps(payload, sort_keys=True, ensure_ascii=False))
    if arguments.stats:
        _print_stats(compiled.engine, arguments.workers, worker_stats or None)
    return code


def _run_serve(argv: list[str]) -> int:
    from repro.server import ServerConfig, serve

    arguments = build_serve_parser().parse_args(argv)
    if arguments.workers < 0:
        print("error: --workers must be >= 0", file=sys.stderr)
        return 2
    if arguments.port < 0 or arguments.port > 65535:
        print("error: --port must be in 0..65535", file=sys.stderr)
        return 2
    return serve(
        ServerConfig(
            host=arguments.host,
            port=arguments.port,
            workers=arguments.workers,
            batch_max_size=arguments.batch_size,
            batch_max_delay=arguments.batch_delay,
            max_pending=arguments.max_pending,
            drain_grace=arguments.drain_grace,
            task_timeout=arguments.task_timeout,
            max_rebuilds=arguments.max_rebuilds,
            degraded_reset=arguments.degraded_reset,
        )
    )


def _extract(spanner: Spanner, document: str, engine: str, spans: bool):
    if engine == "compiled":
        return spanner.compiled.extract(document, spans=spans)
    return spanner.extract(document, spans=spans)


def _count(spanner: Spanner, document: str, engine: str) -> int:
    if engine == "compiled":
        return spanner.compiled.count(document)
    return len(spanner.mappings(document))


def _decoded(record: dict, spans: bool) -> dict:
    if spans:
        return {
            variable: [span.begin, span.end]
            for variable, span in record.items()
        }
    return dict(record)


def _emit(record: dict, spans: bool, file_name: str | None) -> None:
    payload = _decoded(record, spans)
    if file_name is not None:
        payload["_file"] = file_name
    print(json.dumps(payload, sort_keys=True, ensure_ascii=False))


def _collect_files(arguments) -> list[str]:
    """Explicit files plus sorted glob matches, first occurrence wins."""
    paths: list[str] = list(arguments.files)
    for pattern in arguments.glob:
        paths.extend(sorted(globbing.glob(pattern, recursive=True)))
    seen: set[str] = set()
    unique = []
    for path in paths:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def _load_records(arguments, stdin: str | None):
    """Read files/globs (or stdin) into ``(doc_id, text)`` records.

    Returns ``(records, failures, batch)``: unreadable files become
    ``(path, message)`` failures for the caller to report in its own
    format (ndjson error records, or stderr + exit 2).
    """
    files = _collect_files(arguments)
    if not files:
        text = stdin if stdin is not None else sys.stdin.read()
        return [("<stdin>", text)], [], False
    records, failures = [], []
    for path in files:
        try:
            with open(path, encoding="utf-8") as handle:
                records.append((path, handle.read()))
        except OSError as error:
            failures.append((path, str(error)))
    return records, failures, len(files) > 1


def _print_stats(
    engine,
    workers: int,
    worker_stats: dict | None = None,
) -> None:
    """The ``--stats`` report: kernel tables + cache counters, to stderr.

    With ``--workers > 1`` the per-document counters accrue in the worker
    processes; ``worker_stats`` (the :meth:`WorkerPool.stats` summary the
    run captured) is summed into the local engine's tables so the report
    covers the work actually done.
    """
    from repro.service.cache import DEFAULT_CACHE

    def formatted(table: dict) -> str:
        return " ".join(f"{key}={value}" for key, value in table.items())

    def merged(local: dict, remote: dict) -> dict:
        combined = dict(local)
        for key, value in remote.items():
            combined[key] = combined.get(key, 0) + value
        return combined

    kernel = engine.kernel_stats()
    cache = engine.cache_stats()
    reported = bool(worker_stats) and worker_stats.get("workers", 0) > 0
    if reported:
        kernel = merged(kernel, worker_stats["kernel"])
        cache = merged(cache, worker_stats["cache"])
    print(f"stats: kernel {formatted(kernel)}", file=sys.stderr)
    print(f"stats: engine {formatted(cache)}", file=sys.stderr)
    print(
        f"stats: spanner-cache {formatted(DEFAULT_CACHE.stats())}",
        file=sys.stderr,
    )
    resilience = (
        dict(worker_stats.get("resilience", {})) if worker_stats else {}
    )
    if resilience:
        summary = {
            key: resilience[key]
            for key in ("restarts", "retries", "timeouts", "failed")
            if key in resilience
        }
        print(f"stats: resilience {formatted(summary)}", file=sys.stderr)
    if reported:
        print(
            f"stats: merged counters from {worker_stats['workers']} "
            f"worker process(es)",
            file=sys.stderr,
        )
    elif workers > 1:
        print(
            "stats: note: no worker counters were reported",
            file=sys.stderr,
        )


def _run_corpus(
    engine,
    arguments,
    records: list[tuple[str, str]],
    batch: bool,
    on_worker_stats=None,
) -> int:
    """Batch mode through the service layer (``--workers`` / ``--ndjson``)."""
    from repro.service.evaluate import extract_corpus

    results = extract_corpus(
        engine,
        records,
        workers=arguments.workers,
        spans=arguments.spans,
        on_worker_stats=on_worker_stats,
        task_timeout=getattr(arguments, "task_timeout", None),
    )

    if arguments.count:
        total = 0
        for result in results:
            if not result.ok:
                print(
                    f"error: {result.doc_id}: {result.error}", file=sys.stderr
                )
                return 2
            total += len(result.mappings)
        print(total)
        return 0

    for result in results:
        if arguments.ndjson:
            payload = {
                "doc": result.doc_id,
                "mappings": None
                if result.mappings is None
                else [
                    _decoded(record, arguments.spans)
                    for record in result.mappings
                ],
                "error": result.error,
            }
            print(json.dumps(payload, sort_keys=True, ensure_ascii=False))
            continue
        if not result.ok:
            print(f"error: {result.doc_id}: {result.error}", file=sys.stderr)
            return 2
        for record in result.mappings:
            _emit(record, arguments.spans, result.doc_id if batch else None)
    return 0


def run(argv: list[str] | None = None, stdin: str | None = None) -> int:
    """Entry point; returns the process exit code (testable directly)."""
    raw_arguments = sys.argv[1:] if argv is None else argv
    if raw_arguments and raw_arguments[0] == "serve":
        return _run_serve(raw_arguments[1:])
    if raw_arguments and raw_arguments[0] == "query":
        return _run_query(raw_arguments[1:], stdin)
    arguments = build_parser().parse_args(raw_arguments)
    if arguments.engine == "seed" and (arguments.workers > 1 or arguments.ndjson):
        print(
            "error: --workers/--ndjson are served by the corpus service; "
            "they cannot be combined with --engine seed",
            file=sys.stderr,
        )
        return 2
    if arguments.engine == "seed" and arguments.stats:
        print(
            "error: --stats reads the compiled engine's counters; "
            "it cannot be combined with --engine seed",
            file=sys.stderr,
        )
        return 2
    if arguments.ndjson and arguments.count:
        print(
            "error: --count cannot be combined with --ndjson "
            "(per-document mapping counts are visible in the ndjson output)",
            file=sys.stderr,
        )
        return 2
    try:
        spanner = Spanner.compile(
            arguments.pattern, opt_level=arguments.opt_level
        )
    except SpannerError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if arguments.explain:
        print(spanner.plan.explain())
        return 0

    if arguments.check:
        print(f"variables:    {sorted(spanner.variables)}")
        print(f"sequential:   {spanner.is_sequential}")
        satisfiable = spanner.is_satisfiable()
        print(f"satisfiable:  {satisfiable}")
        if satisfiable:
            print(f"witness:      {spanner.witness()!r}")
        return 0

    records, failures, batch = _load_records(arguments, stdin)
    if failures:
        if arguments.ndjson:
            for path, message in failures:
                print(
                    json.dumps(
                        {"doc": path, "mappings": None, "error": message},
                        sort_keys=True,
                        ensure_ascii=False,
                    )
                )
        else:
            path, message = failures[0]
            print(f"error: cannot read {path}: {message}", file=sys.stderr)
            return 2
    documents = [text for _, text in records]

    if arguments.engine == "compiled":
        # Every compiled run goes through the corpus service.  Resolving
        # the engine through the service cache up front means ``--stats``
        # reads the counters of the very engine that does the work (the
        # cache may hand back an engine compiled earlier in this
        # process).  The seed engine keeps the original loop below.
        from repro.service.cache import cached_spanner

        engine = cached_spanner(spanner.compiled)
        worker_stats: dict = {}
        code = _run_corpus(
            engine,
            arguments,
            records,
            batch,
            on_worker_stats=worker_stats.update if arguments.stats else None,
        )
        if arguments.stats:
            _print_stats(engine, arguments.workers, worker_stats or None)
        return code

    if arguments.count:
        total = sum(
            _count(spanner, document, arguments.engine)
            for document in documents
        )
        print(total)
        return 0

    for position, document in enumerate(documents):
        file_name = records[position][0] if batch else None
        for record in _extract(
            spanner, document, arguments.engine, arguments.spans
        ):
            _emit(record, arguments.spans, file_name)
    return 0


def main() -> None:
    """Console-script entry point (``repro`` after ``pip install -e .``)."""
    sys.exit(run())
