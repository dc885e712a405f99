"""Polynomial-delay enumeration via the ``Eval`` oracle (Theorem 5.1).

Algorithm 2 of the paper: refine an extended mapping one variable at a
time, trying every span of the document plus ``⊥``, and recurse only when
the oracle confirms a completion still exists.  When ``Eval`` is decidable
in polynomial time — sequential RGX/VA, Theorem 5.7 — the time between two
consecutive outputs is ``O(|vars| · |d|² · poly)``, a polynomial delay.

The module also exposes :func:`enumerate_direct`, the run-DAG evaluator of
:mod:`repro.automata.simulate`, as the non-oracle baseline for ablation A1.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

from repro.automata.va import VA
from repro.evaluation.eval_problem import eval_va
from repro.spans.document import Document, as_text
from repro.spans.mapping import NULL, ExtendedMapping, Mapping, Variable
from repro.spans.span import Span

EvalOracle = Callable[[ExtendedMapping], bool]


def enumerate_with_oracle(
    oracle: EvalOracle,
    variables: Iterable[Variable],
    document: "Document | str",
    start: ExtendedMapping | None = None,
) -> Iterator[Mapping]:
    """Algorithm 2, generic in the oracle.

    Yields every mapping ``µ' ∈ ⟦γ⟧_d`` with ``µ' ⊇ start`` exactly once
    (each output corresponds to one full assignment of spans/⊥ to the
    variables, and distinct assignments yield distinct mappings).

    The ``O(|d|²)`` candidate-span list is materialised lazily: when every
    variable is already pinned by ``start`` (or there are no variables at
    all) the algorithm never builds it.
    """
    text = as_text(document)
    ordered = sorted(set(variables))
    initial = ExtendedMapping.empty() if start is None else start
    spans: list[Span] = []
    unpinned = [variable for variable in ordered if variable not in initial]
    if unpinned:
        spans = [
            Span(i, j)
            for i in range(1, len(text) + 2)
            for j in range(i, len(text) + 2)
        ]

    def recurse(current: ExtendedMapping, remaining: list[Variable]) -> Iterator[Mapping]:
        if not oracle(current):
            return
        if not remaining:
            yield current.assigned()
            return
        variable = remaining[0]
        rest = remaining[1:]
        if variable in current:
            yield from recurse(current, rest)
            return
        for value in spans:
            yield from recurse(current.pin(variable, value), rest)
        yield from recurse(current.pin(variable, NULL), rest)

    yield from recurse(initial, ordered)


def enumerate_va(
    va: VA, document: "Document | str", compiled: bool = True
) -> Iterator[Mapping]:
    """Enumerate ``⟦A⟧_d`` via Algorithm 2 (poly delay when sequential).

    By default this routes through the compiled engine
    (:mod:`repro.engine`): precompiled transition tables and the
    document's output DAG, with the same outputs in the same order.  Pass
    ``compiled=False`` for the seed oracle loop — kept as the reference
    implementation and as the baseline of benchmark E19.
    """
    if compiled:
        from repro.engine.compiled import compile_spanner

        return compile_spanner(va).enumerate(document)
    return enumerate_va_oracle(va, document)


def enumerate_va_oracle(va: VA, document: "Document | str") -> Iterator[Mapping]:
    """The seed path: Algorithm 2 over the uncompiled ``Eval[VA]`` oracle."""
    text = as_text(document)

    def oracle(candidate: ExtendedMapping) -> bool:
        return eval_va(va, text, candidate)

    return enumerate_with_oracle(oracle, va.mentioned_variables, text)


def enumerate_rgx(
    expression, document: "Document | str", compiled: bool = True
) -> Iterator[Mapping]:
    """Enumerate ``⟦γ⟧_d`` through the Thompson translation."""
    from repro.automata.thompson import to_va

    return enumerate_va(to_va(expression), document, compiled=compiled)


def enumerate_direct(va: VA, document: "Document | str") -> Iterator[Mapping]:
    """Baseline: materialise the run DAG and iterate (ablation A1).

    Exact and usually fast, but offers no delay guarantee — the gap to
    :func:`enumerate_va` is what benchmark A1 quantifies.
    """
    from repro.automata.simulate import evaluate_va

    yield from evaluate_va(va, document)
