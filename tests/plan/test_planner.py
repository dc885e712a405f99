"""The pass-based compilation planner: front-ends, pipeline, explain."""

import pytest

from repro.automata.sequential import is_sequential
from repro.automata.thompson import to_va
from repro.automata.simulate import evaluate_va
from repro.engine.compiled import compile_spanner
from repro.plan import (
    DEFAULT_OPT_LEVEL,
    OPT_LEVELS,
    Plan,
    plan,
    planner,
)
from repro.rgx.ast import ANY_STAR, char, concat, var as bare
from repro.rgx.parser import parse
from repro.rules.rule import Rule
from repro.spanner import Spanner
from repro.util.errors import BudgetExceededError


class TestFrontEnds:
    def test_text_ast_spanner_share_fingerprint(self):
        pattern = ".*Seller: x{[^,\n]*},.*"
        from_text = plan(pattern)
        from_ast = plan(parse(pattern))
        from_spanner = plan(Spanner.compile(pattern))
        assert from_text.fingerprint == from_ast.fingerprint
        assert from_text.fingerprint == from_spanner.fingerprint

    def test_va_source(self):
        va = to_va(parse("x{a}b"))
        p = plan(va)
        assert p.source_kind == "va"
        assert p.source_expression is None
        assert evaluate_va(p.automaton, "ab") == evaluate_va(va, "ab")

    def test_rule_source_matches_rule_semantics(self):
        rule = Rule(
            concat(ANY_STAR, bare("x"), ANY_STAR),
            (("x", parse("ab*")),),
        )
        for level in OPT_LEVELS:
            p = plan(rule, level)
            for document in ("ab", "abb", "ba", ""):
                assert evaluate_va(p.automaton, document) == rule.evaluate(
                    document
                ), (level, document)

    def test_rule_with_chained_conjuncts(self):
        rule = Rule(
            bare("x"),
            (("x", concat(char("a"), bare("y"))), ("y", parse("b*"))),
        )
        p = plan(rule)
        assert p.source_kind == "rule"
        assert [r.name for r in p.passes][0] == "translate-rule"
        for document in ("abb", "aba", ""):
            assert evaluate_va(p.automaton, document) == rule.evaluate(document)

    def test_unsatisfiable_translation_plans_to_empty_language(self):
        # union_of_rules_to_rgx signals unsatisfiability with None; the
        # front-end maps that to the empty-language automaton.
        from repro.plan.planner import _rule_to_va

        empty = _rule_to_va(None, frozenset())
        assert evaluate_va(empty, "") == set()
        assert evaluate_va(empty, "a") == set()

    def test_plan_of_plan_is_identity_at_same_level(self):
        p = plan("x{a}b")
        assert plan(p) is p
        assert plan(p, DEFAULT_OPT_LEVEL) is p

    def test_plan_of_plan_replans_at_other_level(self):
        p = plan("x{a}b", 0)
        replanned = plan(p, 2)
        assert replanned.opt_level == 2
        assert replanned.source is p.source

    def test_rejects_unknown_source(self):
        with pytest.raises(TypeError):
            plan(42)

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            plan("x{a}", 7)


class TestPipeline:
    def test_opt0_is_the_straight_translation(self):
        p = plan(".*x{a+}.*", 0)
        assert p.passes == ()
        assert p.automaton is p.raw_automaton

    def test_opt1_shrinks_thompson_output(self):
        p = plan(".*Seller: x{[^,\n]*},.*")
        assert p.automaton.num_states < p.raw_automaton.num_states

    def test_opt1_sequentializes(self):
        p = plan("(x{a})*")
        assert not p.source_sequential
        assert is_sequential(p.automaton)

    def test_opt2_runs_determinize(self):
        p = plan(".*x{a+}.*", 2)
        assert "determinize" in [record.name for record in p.passes]

    def test_structural_sharing_across_sources(self):
        assert plan("x{a}|x{a}").fingerprint == plan("x{a}").fingerprint

    def test_sequentialize_budget_raises(self, monkeypatch):
        monkeypatch.setattr(planner, "DEFAULT_SEQUENTIALIZE_BUDGET", 3)
        with pytest.raises(BudgetExceededError):
            plan("(x{a}|y{b}|z{a})*")
        assert plan("x{a}b").opt_level == 1  # sequential sources need no product

    def test_replanning_planned_automaton_is_stable(self):
        # The cache re-plans already-planned automata; the pipeline must
        # land on the same fingerprint (idempotence up to fingerprint).
        for pattern in ("x{a}b", ".*x{a+}.*", "x{a*}y{b*}c", "x{[ab]}|c"):
            p = plan(pattern)
            assert plan(p.automaton).fingerprint == p.fingerprint, pattern


class TestExplain:
    def test_reports_at_least_four_passes_with_state_counts(self):
        p = plan(".*Seller: x{[^,\n]*},.*")
        assert len(p.passes) >= 4
        assert len({record.name for record in p.passes}) >= 4
        explained = p.explain()
        for record in p.passes:
            assert record.name in explained
        va_passes = [r for r in p.passes if r.unit == "states"]
        assert len(va_passes) >= 4
        for record in va_passes:
            assert f"{record.states_before} -> {record.states_after} states" in explained

    def test_explain_shows_source_and_result_shapes(self):
        p = plan("x{a}b")
        explained = p.explain()
        assert "source:" in explained and "result:" in explained
        assert p.fingerprint[:12] in explained

    def test_opt0_explain_mentions_empty_pipeline(self):
        assert "none" in plan("x{a}b", 0).explain()

    def test_pass_timings_recorded(self):
        p = plan("x{a}b")
        assert all(record.elapsed >= 0 for record in p.passes)
        assert p.total_time >= 0


class TestEngineIntegration:
    def test_compile_spanner_carries_the_plan(self):
        engine = compile_spanner(".*x{a+}.*")
        assert isinstance(engine.plan, Plan)
        assert engine.plan.opt_level == DEFAULT_OPT_LEVEL
        assert engine.automaton is engine.plan.automaton

    def test_compile_spanner_opt_levels_agree(self):
        pattern = "(x{a}|y{b})*"
        outputs = {
            level: compile_spanner(pattern, opt_level=level).mappings("abab")
            for level in OPT_LEVELS
        }
        assert outputs[0] == outputs[1] == outputs[2]

    def test_plan_compile_roundtrip(self):
        p = plan(".*x{a+}.*")
        engine = p.compile()
        assert engine.plan is p
        assert engine.extract("baab") == [{"x": "a"}, {"x": "aa"}, {"x": "a"}]

    def test_source_classification_preserved(self):
        engine = compile_spanner("(x{a})*")
        assert not engine.is_sequential  # the source's fragment membership
        assert is_sequential(engine.tables.va)  # but the engine sweeps sequentially

    def test_spanner_keeps_raw_automaton(self):
        spanner = Spanner.compile("(x{a})*")
        assert not spanner.is_sequential
        assert spanner.plan.raw_automaton == spanner.automaton
        assert spanner.compiled.automaton is spanner.plan.automaton
