"""Hypothesis cross-validation: the compiled engine against the seed paths.

The engine must be observationally identical to the seed evaluators:
``CompiledSpanner`` output sets equal ``enumerate_direct``/``eval_va``
results on random RGX and random VAs, and the compiled ``Eval`` oracle
returns the seed verdict on arbitrary extended-mapping pins.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.thompson import to_va
from repro.engine import compile_va
from repro.engine.compiled import compile_spanner
from repro.engine.oracle import eval_compiled
from repro.evaluation.enumerate import enumerate_direct, enumerate_va_oracle
from repro.evaluation.eval_problem import eval_va
from repro.rgx.semantics import mappings
from repro.spans.mapping import NULL, ExtendedMapping
from repro.spans.span import Span
from repro.workloads.expressions import random_document, random_va
from tests.strategies import VARIABLES, documents, rgx_expressions


@st.composite
def extended_mappings(draw, document_length: int = 4) -> ExtendedMapping:
    """Random pins: each variable gets a span, ⊥, or stays unconstrained."""
    limit = document_length + 1
    pins = {}
    for variable in draw(
        st.sets(st.sampled_from(VARIABLES), min_size=0, max_size=3)
    ):
        if draw(st.booleans()):
            begin = draw(st.integers(min_value=1, max_value=limit))
            end = draw(st.integers(min_value=begin, max_value=limit))
            pins[variable] = Span(begin, end)
        else:
            pins[variable] = NULL
    return ExtendedMapping(pins)


class TestAgainstSeedEvaluators:
    @given(rgx_expressions(max_depth=3), documents(max_length=4))
    @settings(max_examples=50, deadline=None)
    def test_rgx_mapping_sets(self, expression, document):
        engine = compile_spanner(expression)
        assert engine.mappings(document) == mappings(expression, document)

    @given(rgx_expressions(max_depth=3), documents(max_length=4))
    @settings(max_examples=30, deadline=None)
    def test_rgx_order_matches_seed_enumerator(self, expression, document):
        automaton = to_va(expression)
        assert list(compile_spanner(automaton).enumerate(document)) == list(
            enumerate_va_oracle(automaton, document)
        )

    @given(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=400),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_va_against_direct_evaluator(self, va_seed, doc_seed):
        automaton = random_va(6, seed=va_seed)
        document = random_document(4, seed=doc_seed)
        engine = compile_spanner(automaton)
        assert engine.mappings(document) == set(
            enumerate_direct(automaton, document)
        )

    @given(
        rgx_expressions(max_depth=3),
        documents(max_length=4),
        extended_mappings(),
    )
    @settings(max_examples=60, deadline=None)
    def test_eval_verdicts_match_seed(self, expression, document, pinned):
        automaton = to_va(expression)
        assert eval_compiled(
            compile_va(automaton), document, pinned
        ) == eval_va(automaton, document, pinned)

    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=300),
        extended_mappings(),
    )
    @settings(max_examples=60, deadline=None)
    def test_va_eval_verdicts_match_seed(self, va_seed, doc_seed, pinned):
        automaton = random_va(6, seed=va_seed)
        document = random_document(4, seed=doc_seed)
        assert eval_compiled(
            compile_va(automaton), document, pinned
        ) == eval_va(automaton, document, pinned)
