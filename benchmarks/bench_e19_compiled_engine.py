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

A third arm, *interning and start-up*, times what a fresh process pays
before its first mapping: ``FlatTables.intern`` (cache cleared) on
ASCII, latin-1 and wide (CJK) documents of 2k, 18k and 70k characters,
each checked against the per-character reference
:meth:`~repro.engine.kernel.AlphabetClasses.intern`; and ``import
repro.api`` in fresh subprocesses (wall ms and peak RSS, ``VmHWM``),
which must load neither numpy nor asyncio.  Bytecode caches change the
import time, so compare runs with the same cache state.
"""

import json
import os
import statistics
import subprocess
import sys
import time

import pytest

import repro
from benchmarks._harness import percentile, print_table, quick_mode, sizes, write_results
from benchmarks.e2e.inputs import (
    LOGS_PATTERN,
    REGISTRY_PATTERN,
    log_lines,
    registry_ok,
    registry_rows,
)
from repro.automata.thompson import to_va
from repro.engine import oracle
from repro.engine.compiled import compile_spanner
from repro.evaluation.enumerate import enumerate_va, enumerate_va_oracle
from repro.workloads import land_registry, server_logs

ROW_COUNTS = sizes(full=[2, 3, 4, 6], quick=[2])
MINIMUM_SPEEDUP = 2.0
#: The fresh-documents arm: documents per run, and rows per document
#: (the ``registry_corpus`` workload's size).
FRESH_DOCUMENTS = sizes(full=[300], quick=[20])[0]
FRESH_ROWS = 16
#: The interning arm: document lengths (characters), timed calls per
#: length and script, and fresh ``import repro.api`` processes.
INTERN_LENGTHS = sizes(full=[2_000, 18_000, 70_000], quick=[2_000])
INTERN_REPEATS = sizes(full=[41], quick=[3])[0]
IMPORT_RUNS = sizes(full=[9], quick=[1])[0]


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


def _scripts(length: int) -> dict[str, str]:
    """ASCII log text, the same with latin-1 letters, and CJK text."""
    ascii_text = server_logs.render(log_lines(23, 1, 0, 1 + length // 20))[:length]
    latin1 = "".join(
        "é\xa0ÿ"[index % 3] if index % 17 == 0 else char
        for index, char in enumerate(ascii_text)
    )
    wide = "".join(chr(0x4E00 + (index * 7) % 600) for index in range(length))
    return {"ascii": ascii_text, "latin-1": latin1, "wide": wide}


_IMPORT_PROBE = """
import json, sys, time
started = time.perf_counter()
import repro.api
elapsed_ms = (time.perf_counter() - started) * 1e3
hwm_mb = None
try:
    with open("/proc/self/status") as status:
        hwm = next(line for line in status if line.startswith("VmHWM:"))
    hwm_mb = int(hwm.split()[1]) / 1024
except OSError:
    pass
print(json.dumps([elapsed_ms, hwm_mb, [name for name in ("numpy", "asyncio") if name in sys.modules]]))
"""


def _fresh_import() -> tuple[float, float | None, list[str]]:
    """One ``import repro.api`` in a fresh interpreter: ms, VmHWM MB
    (``None`` without ``/proc``), and which of numpy/asyncio it loaded."""
    source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    elapsed_ms, hwm_mb, loaded = json.loads(out)
    return elapsed_ms, hwm_mb, loaded


@pytest.mark.benchmark(group="e19")
def test_e19_intern_and_startup(benchmark):
    flat = compile_spanner(LOGS_PATTERN, opt_level=1).tables.kernel.flat
    rows = []
    for length in INTERN_LENGTHS:
        for script, text in _scripts(length).items():
            expected = bytes(flat.classes.intern(text))
            times = []
            for _ in range(INTERN_REPEATS):
                flat._interned.clear()
                started = time.perf_counter()
                ids = flat.intern(text)
                times.append(time.perf_counter() - started)
                assert ids == expected, (script, length)
            rows.append((script, length, statistics.median(times) * 1e6))
    print_table(
        "E19: FlatTables.intern, cache cleared",
        ["script", "chars", "intern med us"],
        rows,
    )
    imports = [_fresh_import() for _ in range(IMPORT_RUNS)]
    for _, _, loaded in imports:
        assert loaded == [], f"import repro.api loaded {loaded}"
    import_ms = statistics.median(run[0] for run in imports)
    hwms = [run[1] for run in imports if run[1] is not None]
    hwm_mb = statistics.median(hwms) if hwms else None
    print_table(
        "E19: import repro.api in a fresh process",
        ["runs", "import med ms", "VmHWM med MB"],
        [(IMPORT_RUNS, import_ms, hwm_mb if hwm_mb is not None else "n/a")],
    )
    write_results(
        "e19_intern",
        {
            "intern_median_us": [
                {"script": script, "chars": length, "us": us}
                for script, length, us in rows
            ],
            "import_runs": IMPORT_RUNS,
            "import_median_ms": import_ms,
            "import_vmhwm_mb": hwm_mb,
        },
    )
    text = _scripts(INTERN_LENGTHS[-1])["ascii"]

    def intern_cold():
        flat._interned.clear()
        return flat.intern(text)

    benchmark(intern_cold)
