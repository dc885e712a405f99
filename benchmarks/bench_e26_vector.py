"""E26 — lockstep vectorized sweeps.

This PR's tentpole, measured on the serving shapes it targets:

* **corpus throughput (lockstep)** — NonEmp verdicts for server-logs
  corpora through :func:`~repro.service.evaluate.evaluate_records`
  (the batch APIs, vector layer included) against one per-document call
  per record (:meth:`~repro.engine.compiled.CompiledSpanner.matches`,
  which sweeps the flat DFA one document at a time).  The lockstep sweep
  advances every document's DFA state with one gather per *position*, so
  the win grows with batch width; outputs must be identical
  batch-for-batch.
* **mapping batches** — the same comparison for full output sets
  (each document on its own output DAG): equality is the point, the speedup rides on how much
  of the work enumeration dominates.

Acceptance: byte-identical outputs everywhere, and (full mode) a median
corpus-throughput speedup of at least ``MINIMUM_SPEEDUP`` from the
lockstep path.  With ``REPRO_BENCH_JSON`` set the series lands in
``BENCH_e26.json``.  Under ``REPRO_BENCH_QUICK`` only output equality
is asserted.
"""

import statistics
import time

import pytest

from benchmarks._harness import (
    print_table,
    quick_mode,
    sizes,
    write_results,
)
from repro.engine.compiled import compile_spanner
from repro.engine.kernel import numpy_or_none
from repro.service.evaluate import evaluate_records
from repro.workloads import server_logs

#: (documents, log lines) corpus shapes: wide batches are the lockstep
#: sweep's regime — per-position numpy dispatch amortises across lanes.
CORPUS_SHAPES = sizes(full=[(256, 48), (512, 24), (1024, 12)], quick=[(16, 4)])
MAPPING_SHAPE = sizes(full=[(96, 24)], quick=[(8, 3)])[0]
MINIMUM_SPEEDUP = 2.0
REPEATS = 1 if quick_mode() else 5


def _corpus(documents: int, lines: int):
    return [
        (f"doc-{seed}", server_logs.generate_document(lines, seed=seed))
        for seed in range(documents)
    ]


def _per_document(engine, records, kind: str):
    """The triples of :func:`evaluate_records`, one public call per record."""
    if kind == "matches":
        return [(doc_id, engine.matches(text), None) for doc_id, text in records]
    return [
        (doc_id, frozenset(engine.mappings(text)), None)
        for doc_id, text in records
    ]


def _run_records(expression, records, kind: str, vectorized: bool):
    """Fresh engine (cold per-spanner caches), shared warm tables."""
    engine = compile_spanner(expression)
    started = time.perf_counter()
    if vectorized:
        triples = evaluate_records(engine, records, kind=kind)
    else:
        triples = _per_document(engine, records, kind)
    return time.perf_counter() - started, triples


def _best(expression, records, kind: str, vectorized: bool):
    best, triples = float("inf"), None
    for _ in range(REPEATS):
        elapsed, triples = _run_records(expression, records, kind, vectorized)
        best = min(best, elapsed)
    return best, triples


@pytest.mark.benchmark(group="e26")
def test_e26_vector(benchmark):
    if numpy_or_none() is None:
        pytest.skip("numpy unavailable: the vector layer cannot engage")
    expression = server_logs.access_expression()

    corpus_rows = []
    corpus_records = []
    for documents, lines in CORPUS_SHAPES:
        records = _corpus(documents, lines)
        flat_time, flat_out = _best(expression, records, "matches", False)
        vector_time, vector_out = _best(expression, records, "matches", True)
        assert vector_out == flat_out  # identical verdict triples
        speedup = flat_time / vector_time if vector_time else float("inf")
        total_chars = sum(len(text) for _, text in records)
        name = f"server-logs/{documents}x{lines}"
        corpus_rows.append(
            (name, documents, total_chars, flat_time, vector_time, speedup)
        )
        corpus_records.append(
            {
                "workload": name,
                "documents": documents,
                "lines": lines,
                "total_chars": total_chars,
                "flat_s": flat_time,
                "vector_s": vector_time,
                "vector_docs_per_s": (
                    documents / vector_time if vector_time else None
                ),
                "speedup": speedup,
            }
        )

    documents, lines = MAPPING_SHAPE
    records = _corpus(documents, lines)
    flat_time, flat_out = _best(expression, records, "mappings", False)
    vector_time, vector_out = _best(expression, records, "mappings", True)
    assert vector_out == flat_out  # identical mapping sets, same order
    mapping_record = {
        "workload": f"server-logs/{documents}x{lines}",
        "documents": documents,
        "flat_s": flat_time,
        "vector_s": vector_time,
        "speedup": flat_time / vector_time if vector_time else float("inf"),
    }

    print_table(
        "E26: lockstep batch vs per-document calls — corpus verdicts",
        ["workload", "docs", "chars", "flat s", "vector s", "speedup"],
        corpus_rows,
    )
    corpus_speedup = statistics.median(
        record["speedup"] for record in corpus_records
    )
    write_results(
        "e26",
        {
            "corpus": corpus_records,
            "mappings": mapping_record,
            "median_speedup": {"corpus": corpus_speedup},
            "minimum_speedup": MINIMUM_SPEEDUP,
        },
    )

    if not quick_mode():
        assert corpus_speedup >= MINIMUM_SPEEDUP, (
            f"lockstep corpus throughput only {corpus_speedup:.2f}x "
            f"per-document calls"
        )

    headline = _corpus(*CORPUS_SHAPES[0])
    benchmark(lambda: _best(expression, headline, "matches", True))
