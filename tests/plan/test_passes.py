"""Unit tests for the planner's individual passes.

Each pass must (1) preserve the mapping semantics exactly, (2) be
idempotent up to structural fingerprint, and (3) report no-ops by
returning the input object unchanged (the plan log relies on identity).
"""

import pytest

from repro.alphabet import CharSet
from repro.automata.determinize import determinize, is_complete_deterministic
from repro.automata.fingerprint import va_fingerprint
from repro.automata.labels import Close, Open, Sym
from repro.automata.sequential import is_sequential, make_sequential
from repro.automata.simulate import evaluate_va
from repro.automata.thompson import to_va
from repro.automata.va import VA, VABuilder
from repro.plan.passes import (
    determinize_budgeted,
    eliminate_epsilon,
    fuse_predicates,
    sequentialize,
    trim,
)
from repro.rgx.parser import parse
from repro.util.errors import BudgetExceededError
from repro.workloads.expressions import random_document, random_va

DOCUMENTS = ["", "a", "b", "ab", "ba", "aab", "abab"]


def assert_equivalent(original: VA, rewritten: VA):
    for document in DOCUMENTS:
        assert evaluate_va(rewritten, document) == evaluate_va(
            original, document
        ), document


class TestEliminateEpsilon:
    def test_preserves_semantics_on_thompson_output(self):
        for pattern in ("x{a}b", "(x{a}|y{b})*", ".*x{a+}.*", "x{a*}y{b*}"):
            va = to_va(parse(pattern))
            assert_equivalent(va, eliminate_epsilon(va))

    def test_preserves_semantics_on_random_vas(self):
        for seed in range(30):
            va = random_va(6, seed=seed)
            rewritten = eliminate_epsilon(va)
            for doc_seed in range(3):
                document = random_document(4, seed=seed * 7 + doc_seed)
                assert evaluate_va(rewritten, document) == evaluate_va(
                    va, document
                )

    def test_idempotent_fingerprint(self):
        va = eliminate_epsilon(to_va(parse("(x{a}|y{b})*c")))
        again = eliminate_epsilon(va)
        assert again is va  # already in eliminated shape

    def test_epsilon_free_result_modulo_glue(self):
        va = eliminate_epsilon(to_va(parse("(a|b)*x{a}")))
        from repro.automata.labels import Eps

        for _, label, target in va.transitions:
            if isinstance(label, Eps):
                assert target == va.final
        assert not va.out_edges(va.final)


class TestTrim:
    def test_removes_dead_states(self):
        b = VABuilder()
        q0, q1, dead = b.add_states(3)
        b.add(q0, Sym(CharSet.single("a")), q1)
        b.add(q0, Sym(CharSet.single("b")), dead)  # dead end
        va = b.build(initial=q0, final=q1)
        assert trim(va).num_states == 2

    def test_noop_returns_input_object(self):
        va = trim(to_va(parse("x{a}")))
        assert trim(va) is va


class TestFusePredicates:
    def test_merges_parallel_letter_edges(self):
        b = VABuilder()
        q0, q1 = b.add_states(2)
        b.add(q0, Sym(CharSet.single("a")), q1)
        b.add(q0, Sym(CharSet.single("b")), q1)
        va = b.build(initial=q0, final=q1)
        fused = fuse_predicates(va)
        assert len(fused.transitions) == 1
        assert fused.transitions[0][1] == Sym(CharSet.of("ab"))
        assert_equivalent(va, fused)

    def test_fuses_positive_into_cofinite(self):
        b = VABuilder()
        q0, q1 = b.add_states(2)
        b.add(q0, Sym(CharSet.single(",")), q1)
        b.add(q0, Sym(CharSet.excluding(",;")), q1)
        va = b.build(initial=q0, final=q1)
        fused = fuse_predicates(va)
        assert len(fused.transitions) == 1
        charset = fused.transitions[0][1].charset
        assert charset.contains(",") and charset.contains("z")
        assert not charset.contains(";")

    def test_deduplicates_operations(self):
        b = VABuilder()
        q0, q1, q2 = b.add_states(3)
        b.add(q0, Open("x"), q1)
        b.add(q0, Open("x"), q1)
        b.add(q1, Close("x"), q2)
        va = b.build(initial=q0, final=q2)
        assert len(fuse_predicates(va).transitions) == 2

    def test_noop_returns_input_object(self):
        va = fuse_predicates(to_va(parse("x{[ab]}")))
        assert fuse_predicates(va) is va


class TestSequentialize:
    def test_makes_non_sequential_sequential(self):
        va = to_va(parse("(x{a})*"))
        assert not is_sequential(va)
        rewritten = sequentialize(va)
        assert is_sequential(rewritten)
        assert_equivalent(va, rewritten)

    def test_sequential_input_passes_through(self):
        va = to_va(parse("x{a}b"))
        assert sequentialize(va) is va

    def test_budget_raises(self):
        # The engine sweeps only sequential automata, so there is no
        # fallback to keep the input for.
        va = to_va(parse("(x{a}|y{b}|z{a})*"))
        assert not is_sequential(va)
        with pytest.raises(BudgetExceededError):
            sequentialize(va, max_states=3)

    def test_budget_error_from_make_sequential(self):
        va = to_va(parse("(x{a}|y{b}|z{a})*"))
        with pytest.raises(BudgetExceededError):
            make_sequential(va, max_states=3)


class TestDeterminizeBudgeted:
    def test_deterministic_input_passes_through(self):
        va = determinize(to_va(parse("x{a}b")))
        assert is_complete_deterministic(va)
        assert determinize_budgeted(va) is va

    def test_budget_falls_back_to_input(self):
        va = to_va(parse("(a|b)*x{a+}(a|b)*"))
        assert determinize_budgeted(va, max_states=2) is va
        with pytest.raises(BudgetExceededError):
            determinize(va, max_states=2)

    def test_preserves_semantics(self):
        va = to_va(parse(".*x{a+}.*"))
        assert_equivalent(va, determinize_budgeted(va, max_states=4096))


class TestPipelineIdempotence:
    """Planning an already-planned automaton lands on the same fingerprint."""

    @pytest.mark.parametrize(
        "pattern", ["x{a}b", ".*x{a+}.*", "(x{a}|y{b})*", "x{a*}y{b*}c"]
    )
    def test_pass_chain_is_idempotent(self, pattern):
        va = to_va(parse(pattern))
        once = fuse_predicates(trim(eliminate_epsilon(va)))
        twice = fuse_predicates(trim(eliminate_epsilon(once)))
        assert va_fingerprint(once) == va_fingerprint(twice)
