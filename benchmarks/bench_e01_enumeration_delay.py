"""E1 — Theorems 5.1 + 5.7: polynomial-delay enumeration for seqRGX.

Claim: Eval of sequential RGX is PTIME, hence Algorithm 2 enumerates
``⟦γ⟧_d`` with polynomial delay.  We enumerate the paper's seller/tax
extraction over growing land-registry documents and record the maximum
and mean gap between consecutive outputs; the max-delay curve must scale
polynomially (bounded log-log slope), and the automaton stays fixed while
the document grows.

A second arm runs the compiled engine (``CompiledSpanner.enumerate``) over
the end-to-end benchmark's access-log pattern on 40-2,560-line
``server_logs`` documents and records the log-log slope of the mean
per-mapping delay against |d|.  Enumeration reads each document's output
DAG: one forward and one backward pass, then the root node walks the
DAG's marked positions and reads every line's mapping off its own few
marks.  The passes cost a constant per letter and the read-off a
constant per mapping, so the mean delay should stay flat as |d| grows.
Per size the arm also times one NonEmp verdict on the same document and
reports enumerate ÷ verdict.  Full mode asserts a slope below
:data:`MAXIMUM_SLOPE` and writes it into the results as
``maximum_slope`` (quick mode, on 10-40 lines, only prints the slope).
"""

import time

import pytest

from benchmarks._harness import (
    loglog_slope,
    print_table,
    quick_mode,
    sizes,
    write_results,
)
from benchmarks.e2e.inputs import LOGS_PATTERN, logs_ok
from repro.automata.thompson import to_va
from repro.engine.compiled import compile_spanner
from repro.evaluation.enumerate import enumerate_va
from repro.workloads import land_registry, server_logs

ROW_COUNTS = sizes(full=[1, 2, 3, 4, 6], quick=[2, 3])
LOG_LINES = sizes(full=[40, 80, 120, 160, 640, 2560], quick=[10, 20, 30, 40])
#: The E1b bound on the mean-delay log-log slope (full mode): well under
#: the ~1 of a per-mapping cost that grows with the document.
MAXIMUM_SLOPE = 0.2


def _delays(automaton, document):
    gaps = []
    last = time.perf_counter()
    count = 0
    for _ in enumerate_va(automaton, document):
        now = time.perf_counter()
        gaps.append(now - last)
        last = now
        count += 1
    return gaps, count


@pytest.mark.benchmark(group="e01")
def test_e01_enumeration_delay(benchmark):
    automaton = to_va(land_registry.seller_tax_expression())
    rows = []
    lengths, max_delays = [], []
    for row_count in ROW_COUNTS:
        document = land_registry.generate_document(row_count, seed=7)
        sellers = sum(
            1
            for r in land_registry.generate_rows(row_count, seed=7)
            if r.kind == "Seller"
        )
        if sellers == 0:
            continue  # nothing to enumerate at this size
        gaps, outputs = _delays(automaton, document)
        assert outputs == sellers  # one mapping per seller row
        max_delay = max(gaps)
        rows.append(
            (row_count, len(document), outputs, max_delay, sum(gaps) / len(gaps))
        )
        lengths.append(len(document))
        max_delays.append(max_delay)
    slope = loglog_slope(lengths, max_delays)
    print_table(
        "E1: polynomial-delay enumeration (seller/tax seqRGX)",
        ["rows", "|d|", "#outputs", "max delay s", "mean delay s"],
        rows,
    )
    print(f"max-delay log-log slope vs |d|: {slope:.2f} (polynomial ⇔ bounded; paper: PTIME Eval)")
    if not quick_mode():  # tiny sweeps are too noisy for a slope estimate
        assert slope < 5.0

    document = land_registry.generate_document(2, seed=7)
    benchmark(lambda: list(enumerate_va(automaton, document)))


def _mean_delay(text: str, repeat: int = 3):
    """Best-of-``repeat`` seconds to enumerate ``text`` and to decide it
    (one NonEmp verdict), each on a fresh engine (its caches empty; the
    shared lazy DFAs stay warm), and the last run's decoded mappings."""
    best, verdict = float("inf"), float("inf")
    for _ in range(repeat):
        engine = compile_spanner(LOGS_PATTERN)
        started = time.perf_counter()
        found = list(engine.enumerate(text))
        best = min(best, time.perf_counter() - started)
        engine = compile_spanner(LOGS_PATTERN)
        started = time.perf_counter()
        assert engine.matches(text)
        verdict = min(verdict, time.perf_counter() - started)
    decoded = [{v: s.content(text) for v, s in m.items()} for m in found]
    return best, verdict, decoded


@pytest.mark.benchmark(group="e01")
def test_e01_compiled_enumeration_delay(benchmark):
    rows, lengths, delays = [], [], []
    compile_spanner(LOGS_PATTERN).count(server_logs.render(
        server_logs.generate_lines(10, seed=1)
    ))  # warm the shared tables
    for line_count in LOG_LINES:
        lines = server_logs.generate_lines(line_count, seed=21 + line_count)
        text = server_logs.render(lines)
        elapsed, verdict, decoded = _mean_delay(text)
        assert logs_ok(lines, decoded)  # one mapping per log line
        delay = elapsed / max(len(decoded), 1)
        rows.append(
            (line_count, len(text), len(decoded), delay * 1e3, verdict * 1e3, elapsed / verdict)
        )
        lengths.append(len(text))
        delays.append(delay)
    slope = loglog_slope(lengths, delays)
    print_table(
        "E1b: compiled-engine enumeration delay (access-log pattern)",
        ["lines", "|d|", "#outputs", "mean delay ms", "verdict ms", "enumerate/verdict"],
        rows,
    )
    print(
        f"mean-delay log-log slope vs |d|: {slope:.2f} "
        f"(output DAG, constant work per mapping ⇔ ~0; bound {MAXIMUM_SLOPE})"
    )
    write_results(
        "e01_compiled",
        {
            "series": [
                {
                    "lines": row[0],
                    "document_length": row[1],
                    "outputs": row[2],
                    "mean_delay_ms": row[3],
                    "verdict_ms": row[4],
                    "enumerate_verdict_ratio": row[5],
                }
                for row in rows
            ],
            "slope": slope,
            "maximum_slope": MAXIMUM_SLOPE,
        },
    )
    if not quick_mode():  # tiny documents are too noisy for a slope bound
        assert slope < MAXIMUM_SLOPE

    text = server_logs.render(server_logs.generate_lines(LOG_LINES[0], seed=21))
    engine = compile_spanner(LOGS_PATTERN)
    benchmark(lambda: engine.count(text))
