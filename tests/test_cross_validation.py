"""Randomised cross-validation: every evaluator against Table 2.

The reference evaluator (`repro.rgx.semantics`) is the ground truth; this
module drives seeded random expressions and documents through every other
evaluation path in the library and demands identical mapping sets.  The
final class property-tests the compilation planner: the planned engine at
*every* opt level must agree with the unplanned engine on random VAs and
documents.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.determinize import determinize
from repro.automata.sequential import make_sequential
from repro.automata.simulate import evaluate_va
from repro.automata.thompson import to_va, to_vastk
from repro.engine.compiled import CompiledSpanner
from repro.evaluation.enumerate import enumerate_va, enumerate_va_oracle
from repro.plan import OPT_LEVELS, plan
from repro.rgx.rewrite import simplify
from repro.rgx.semantics import mappings
from repro.workloads.expressions import random_document, random_rgx, random_va

SEEDS = range(24)


def _case(seed: int):
    expression = random_rgx(9, seed)
    document = random_document(4, seed=seed * 31 + 1)
    return expression, document


@pytest.mark.parametrize("seed", SEEDS)
def test_va_evaluator(seed):
    expression, document = _case(seed)
    assert evaluate_va(to_va(expression), document) == mappings(
        expression, document
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_vastk_evaluator(seed):
    expression, document = _case(seed)
    assert to_vastk(expression).evaluate(document) == mappings(
        expression, document
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_oracle_enumeration(seed):
    expression, document = _case(seed)
    assert set(enumerate_va(to_va(expression), document)) == mappings(
        expression, document
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_sequentialized_evaluator(seed):
    expression, document = _case(seed)
    assert evaluate_va(
        make_sequential(to_va(expression)), document
    ) == mappings(expression, document)


@pytest.mark.parametrize("seed", SEEDS)
def test_determinized_evaluator(seed):
    expression, document = _case(seed)
    assert evaluate_va(determinize(to_va(expression)), document) == mappings(
        expression, document
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_simplifier(seed):
    expression, document = _case(seed)
    assert mappings(simplify(expression), document) == mappings(
        expression, document
    )


@pytest.mark.parametrize("seed", range(12))
def test_path_union_roundtrip(seed):
    from repro.automata.path_union import vastk_to_rgx

    expression = random_rgx(7, seed)
    document = random_document(3, seed=seed * 7 + 2)
    recovered = vastk_to_rgx(to_vastk(expression))
    expected = mappings(expression, document)
    if recovered is None:
        assert expected == set()
    else:
        assert mappings(recovered, document) == expected


@pytest.mark.parametrize("seed", range(12))
def test_rgx_to_rules_roundtrip(seed):
    from repro.rules.translate import rgx_to_treelike_rules

    expression = random_rgx(7, seed + 100)
    document = random_document(3, seed=seed * 13 + 5)
    rules = rgx_to_treelike_rules(expression)
    produced = set()
    for rule in rules:
        produced |= rule.evaluate(document)
    assert produced == mappings(expression, document)


@pytest.mark.parametrize("seed", range(16))
def test_outputs_always_hierarchical(seed):
    """Corollary of Theorems 4.3/4.4: RGX outputs are hierarchical."""
    expression, document = _case(seed)
    for mapping in mappings(expression, document):
        assert mapping.is_hierarchical()


class TestPlanEquivalence:
    """The planner is invisible to semantics: the unplanned engine and the
    engine of every opt level return the seed evaluators' output, in the
    seed enumerator's order."""

    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_planned_engine_matches_unplanned_on_random_vas(
        self, va_seed, doc_seed
    ):
        automaton = random_va(6, seed=va_seed)
        document = random_document(5, seed=doc_seed)
        expected = evaluate_va(automaton, document)
        assert CompiledSpanner(automaton).mappings(document) == expected
        for level in OPT_LEVELS:
            planned = CompiledSpanner(plan=plan(automaton, level))
            assert planned.mappings(document) == expected, level

    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=40, deadline=None)
    def test_planned_engine_matches_reference_on_random_rgx(
        self, rgx_seed, doc_seed
    ):
        expression = random_rgx(8, seed=rgx_seed)
        document = random_document(4, seed=doc_seed)
        expected = mappings(expression, document)
        for level in OPT_LEVELS:
            planned = CompiledSpanner(plan=plan(expression, level))
            assert planned.mappings(document) == expected, level

    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=30, deadline=None)
    def test_planned_enumeration_order_matches_unplanned(
        self, va_seed, doc_seed
    ):
        automaton = random_va(6, seed=va_seed)
        document = random_document(4, seed=doc_seed)
        expected = list(enumerate_va_oracle(automaton, document))
        assert list(CompiledSpanner(automaton).enumerate(document)) == expected
        for level in OPT_LEVELS:
            planned = CompiledSpanner(plan=plan(automaton, level))
            assert list(planned.enumerate(document)) == expected, level
