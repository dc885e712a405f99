"""E21 — the compilation planner vs. the straight (unplanned) pipeline.

The planner (:mod:`repro.plan`) must pay for itself: compile+evaluate
through the pass pipeline (ε-elimination, trimming, predicate fusion,
sequentialisation) must beat the straight Thompson-translation engine on
the library's own workloads, while producing *identical* outputs at every
opt level.  Three measurements:

* the **expressions** workload — the seller-like sequential CSV
  extraction, where the win is the smaller post-pass automaton;
* the **server-logs** workload — the access-log extraction over growing
  documents, same lever (the pass pipeline roughly halves the states the
  per-position sweeps touch);
* a **non-sequential VA** — the CSV automaton plus one bogus
  ``v0⊢`` self-loop on the final state, which no valid run can take but
  which makes the automaton fail Proposition 5.5's check.  The engine
  never runs the ``O(2^{2k}·3^k)`` general sweep of Theorem 5.10: the
  planner's sequentialisation pass, or at opt level 0 the engine's own
  compile step, applies Proposition 5.6 and runs the polynomial
  Theorem-5.7 sweep.  This row's baseline is therefore the seed's
  general evaluator — Algorithm 2 over Theorem 5.10's ``Eval`` in
  :mod:`repro.evaluation` — so the asymptotics, not just the constant,
  change.

Acceptance: identical mapping outputs at opt levels 0, 1 and 2 on every
workload, and (full mode) planned compile+evaluate at least
``MINIMUM_SPEEDUP`` faster than the seed's general evaluator on the
non-sequential sweep's larger configurations.  Under
``REPRO_BENCH_QUICK`` only output equality is asserted.
"""

import time

import pytest

from benchmarks._harness import print_table, quick_mode, sizes, write_results
from repro.automata.labels import Open
from repro.automata.thompson import to_va
from repro.automata.va import VA
from repro.engine.compiled import CompiledSpanner
from repro.evaluation.enumerate import enumerate_va_oracle
from repro.plan import OPT_LEVELS, plan
from repro.workloads import server_logs
from repro.workloads.expressions import (
    field_document,
    seller_like_sequential_rgx,
)

MINIMUM_SPEEDUP = 1.1

FIELD_COUNTS = sizes(full=[3, 4, 5], quick=[2])
LOG_LINES = sizes(full=[8, 16], quick=[2])
DOCUMENTS_PER_CONFIG = 8


def _timed_run(source, documents, opt_level=None, repeat=2):
    """Compile (planned or not) and evaluate every document.

    Returns best-of-``repeat`` wall-clock seconds for the full
    compile+evaluate cycle (a fresh engine each time, so compilation and
    planning costs are inside the measurement) and the outputs.
    """
    best, outputs = float("inf"), None
    for _ in range(repeat):
        started = time.perf_counter()
        if opt_level is None:
            # The unplanned straight path: Thompson translation, no passes.
            automaton = source if isinstance(source, VA) else to_va(source)
            engine = CompiledSpanner(automaton)
        else:
            engine = CompiledSpanner(plan=plan(source, opt_level))
        outputs = [engine.mappings(document) for document in documents]
        best = min(best, time.perf_counter() - started)
    return best, outputs


def _seed_general_run(automaton, documents):
    """The seed's general evaluator on every document: Algorithm 2 over
    Theorem 5.10's ``Eval`` (one run — it is the slow baseline)."""
    started = time.perf_counter()
    outputs = [set(enumerate_va_oracle(automaton, document)) for document in documents]
    return time.perf_counter() - started, outputs


def _non_sequential_csv_va(field_count: int) -> VA:
    """The seller-like CSV automaton plus a bogus open on the final state.

    Every accepting path of the chain opens and closes each variable, so
    the extra ``v0⊢`` self-loop is unusable by any valid run — semantics
    are untouched — but a path through it opens ``v0`` twice, so the
    automaton is non-sequential and the seed evaluator runs its general
    (FPT, exponential-in-``k``) sweep.
    """
    automaton = to_va(seller_like_sequential_rgx(field_count))
    looped = automaton.transitions + (
        (automaton.final, Open("v0"), automaton.final),
    )
    return VA(automaton.num_states, automaton.initial, automaton.final, looped)


def _sweep(source, documents, baseline=_timed_run):
    """Baseline vs. planned-at-every-level rows; asserts identical outputs.

    The baseline is the unplanned engine unless ``baseline`` says
    otherwise."""
    baseline_time, baseline_outputs = baseline(source, documents)
    row = [baseline_time]
    for level in OPT_LEVELS:
        planned_time, planned_outputs = _timed_run(source, documents, level)
        assert planned_outputs == baseline_outputs, (
            f"planned opt {level} diverged from the baseline"
        )
        row.append(planned_time)
    return row, baseline_outputs


@pytest.mark.benchmark(group="e21")
def test_e21_planner(benchmark):
    _timed_run(seller_like_sequential_rgx(2), ["f0=a;f1=b;"], 1)  # warm caches
    rows = []

    for field_count in FIELD_COUNTS:
        documents = [
            field_document(field_count, value_length=6, seed=seed)
            for seed in range(DOCUMENTS_PER_CONFIG)
        ]
        expression = seller_like_sequential_rgx(field_count)
        times, _ = _sweep(expression, documents)
        rows.append(("expressions", f"k={field_count}", *times, times[0] / times[2]))

    for line_count in LOG_LINES:
        documents = [
            server_logs.generate_document(line_count, seed=seed)
            for seed in range(2)
        ]
        times, _ = _sweep(server_logs.access_expression(), documents)
        rows.append(("server-logs", f"lines={line_count}", *times, times[0] / times[2]))

    non_sequential_speedups = []
    for field_count in FIELD_COUNTS:
        documents = [
            field_document(field_count, value_length=6, seed=seed)
            for seed in range(DOCUMENTS_PER_CONFIG)
        ]
        automaton = _non_sequential_csv_va(field_count)
        times, outputs = _sweep(automaton, documents, baseline=_seed_general_run)
        assert any(outputs), "the non-sequential workload must produce mappings"
        speedup = times[0] / times[2]
        non_sequential_speedups.append((field_count, speedup))
        rows.append(("non-seq VA", f"k={field_count}", *times, speedup))

    print_table(
        "E21: planned compile+evaluate (opt levels 0/1/2) vs a baseline — the "
        "unplanned engine, or the seed general evaluator on the non-seq VA",
        ["workload", "size", "baseline s", "opt0 s", "opt1 s", "opt2 s", "speedup@1"],
        rows,
    )
    write_results(
        "e21",
        {
            "series": [
                {
                    "workload": row[0],
                    "size": row[1],
                    "baseline_s": row[2],
                    "opt0_s": row[3],
                    "opt1_s": row[4],
                    "opt2_s": row[5],
                    "speedup_at_opt1": row[6],
                }
                for row in rows
            ],
            "non_sequential_speedups": [
                {"fields": fields, "speedup": speedup}
                for fields, speedup in non_sequential_speedups
            ],
            "minimum_speedup": MINIMUM_SPEEDUP,
        },
    )

    if not quick_mode():
        # The asymptotic claim: on the larger non-sequential configurations
        # the sequential sweep must beat the seed's general sweep outright.
        field_count, speedup = max(
            non_sequential_speedups, key=lambda pair: pair[0]
        )
        assert speedup >= MINIMUM_SPEEDUP, (
            f"planned opt 1 only {speedup:.2f}x faster than the seed's "
            f"general evaluator at k={field_count}"
        )

    documents = [
        field_document(FIELD_COUNTS[-1], value_length=6, seed=seed)
        for seed in range(DOCUMENTS_PER_CONFIG)
    ]
    automaton = _non_sequential_csv_va(FIELD_COUNTS[-1])
    benchmark(lambda: _timed_run(automaton, documents, 1))
