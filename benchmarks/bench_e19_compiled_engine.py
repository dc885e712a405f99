"""E19 — the compiled engine vs. the seed oracle enumerator.

The compiled engine (:mod:`repro.engine`) must enumerate exactly the seed
path's mapping set — in the seed's output order — while cutting the
per-output delay.  We run the paper's seller/tax extraction (the E1
workload) over growing land-registry documents and record, for both
engines, the median and maximum gap between consecutive outputs.  The
engine's three levers are measured together: precompiled transition
tables, reachability-based span pruning, and prefix-sharing oracles.

Acceptance: the compiled engine's median per-output delay is at least 2×
lower than the seed's on every measured size (the observed gap is two to
three orders of magnitude).  Under ``REPRO_BENCH_QUICK`` the sweep shrinks
to one tiny size and only the equality of outputs is asserted — the CI
smoke job exists to catch breakage, not to time a loaded runner.

A second arm, *fresh short documents*, is the ``registry_corpus``
workload's shape: one warm engine runs ``extract`` over many fresh
16-row land-registry documents, and we record the per-document time and
the share of it spent in the output DAG's backward pass
(:class:`~repro.engine.oracle.Completions`).  Every output is checked
against the documents' truth; nothing is timed against a bound.
"""

import statistics
import time

import pytest

from benchmarks._harness import percentile, print_table, quick_mode, sizes, write_results
from benchmarks.e2e.inputs import REGISTRY_PATTERN, registry_ok, registry_rows
from repro.automata.thompson import to_va
from repro.engine import oracle
from repro.engine.compiled import compile_spanner
from repro.evaluation.enumerate import enumerate_va, enumerate_va_oracle
from repro.workloads import land_registry

ROW_COUNTS = sizes(full=[2, 3, 4, 6], quick=[2])
MINIMUM_SPEEDUP = 2.0
#: The fresh-documents arm: documents per run, and rows per document
#: (the ``registry_corpus`` workload's size).
FRESH_DOCUMENTS = sizes(full=[300], quick=[20])[0]
FRESH_ROWS = 16


def _delays(iterator):
    gaps, outputs = [], []
    last = time.perf_counter()
    for mapping in iterator:
        now = time.perf_counter()
        gaps.append(now - last)
        last = now
        outputs.append(mapping)
    return gaps, outputs


@pytest.mark.benchmark(group="e19")
def test_e19_compiled_engine(benchmark):
    automaton = to_va(land_registry.seller_tax_expression())
    rows = []
    for row_count in ROW_COUNTS:
        document = land_registry.generate_document(row_count, seed=7)
        seed_gaps, seed_outputs = _delays(enumerate_va_oracle(automaton, document))
        compiled_gaps, compiled_outputs = _delays(enumerate_va(automaton, document))
        assert compiled_outputs == seed_outputs  # same mappings, same order
        if not seed_outputs:
            continue
        seed_median = statistics.median(seed_gaps)
        compiled_median = statistics.median(compiled_gaps)
        speedup = seed_median / compiled_median if compiled_median else float("inf")
        rows.append(
            (
                row_count,
                len(document),
                len(seed_outputs),
                seed_median,
                compiled_median,
                max(seed_gaps),
                max(compiled_gaps),
                speedup,
            )
        )
        if not quick_mode():
            assert speedup >= MINIMUM_SPEEDUP, (
                f"compiled median delay only {speedup:.2f}x better "
                f"at {row_count} rows"
            )
    print_table(
        "E19: compiled engine vs seed oracle enumeration (seller/tax seqRGX)",
        [
            "rows",
            "|d|",
            "#out",
            "seed med s",
            "compiled med s",
            "seed max s",
            "compiled max s",
            "speedup",
        ],
        rows,
    )
    write_results(
        "e19",
        {
            "series": [
                {
                    "rows": row[0],
                    "document_length": row[1],
                    "outputs": row[2],
                    "seed_median_s": row[3],
                    "compiled_median_s": row[4],
                    "seed_max_s": row[5],
                    "compiled_max_s": row[6],
                    "speedup": row[7],
                }
                for row in rows
            ],
            "median_speedup": statistics.median(row[7] for row in rows)
            if rows
            else None,
            "minimum_speedup": MINIMUM_SPEEDUP,
        },
    )

    document = land_registry.generate_document(ROW_COUNTS[-1], seed=7)
    benchmark(lambda: list(enumerate_va(automaton, document)))


def _timed_backward_passes(monkeypatch) -> list[float]:
    """Patch :class:`~repro.engine.oracle.Completions` to record the
    seconds each backward pass takes; returns the list it appends to."""
    spent: list[float] = []
    original = oracle.Completions.__init__

    def timed(self, *args):
        started = time.perf_counter()
        original(self, *args)
        spent.append(time.perf_counter() - started)

    monkeypatch.setattr(oracle.Completions, "__init__", timed)
    return spent


@pytest.mark.benchmark(group="e19")
def test_e19_fresh_short_documents(benchmark, monkeypatch):
    engine = compile_spanner(REGISTRY_PATTERN, opt_level=1)
    truths = [
        registry_rows(19, 1, index, FRESH_ROWS) for index in range(FRESH_DOCUMENTS + 1)
    ]
    texts = [land_registry.render(truth) for truth in truths]
    # One document warms the engine, as the workload's first one does.
    assert registry_ok(truths[0], engine.extract(texts[0]))
    spent = _timed_backward_passes(monkeypatch)
    totals, shares = [], []
    for truth, text in zip(truths[1:], texts[1:]):
        spent.clear()
        started = time.perf_counter()
        outputs = engine.extract(text)
        total = time.perf_counter() - started
        assert registry_ok(truth, outputs), text
        totals.append(total)
        shares.append(sum(spent) / total)
    median_us = statistics.median(totals) * 1e6
    p90_us = percentile(totals, 0.9) * 1e6
    share = statistics.median(shares)
    print_table(
        "E19: fresh short documents on one warm engine (registry_corpus shape)",
        ["documents", "rows", "extract med us", "extract p90 us", "backward share"],
        [(FRESH_DOCUMENTS, FRESH_ROWS, median_us, p90_us, share)],
    )
    write_results(
        "e19_fresh",
        {
            "documents": FRESH_DOCUMENTS,
            "rows": FRESH_ROWS,
            "extract_median_us": median_us,
            "extract_p90_us": p90_us,
            "backward_share": share,
            "kernel": engine.kernel_stats(),
        },
    )
    monkeypatch.undo()
    benchmark(lambda: engine.extract(texts[-1]))
