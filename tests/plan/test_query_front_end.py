"""Algebra query expressions through the planner front-end.

Cross-validates the compiled engine on ``QueryExpr`` sources — union,
projection, join, and nested combinations — against the reference
semantics (Table 2 mappings composed with the set-level algebra), at
every optimisation level.  The engine path exercises the Theorem 4.5
constructions (`repro.automata.algebra`) *through* the pass pipeline,
which is what PR 6's query service compiles.
"""

import pytest
from hypothesis import given, settings

from repro.algebra import query
from repro.engine.compiled import CompiledSpanner
from repro.plan import plan as build_plan, planner
from repro.rgx.parser import parse
from repro.rgx.semantics import mappings
from repro.spans.mapping import join as semantic_join
from repro.util.errors import BudgetExceededError
from tests.strategies import documents, rgx_expressions

DOCS = ["", "a", "b", "ab", "ba", "aab", "abb"]
OPT_LEVELS = [0, 1, 2]


def _reference(expression, document):
    """The semantic value of a QueryExpr: Table 2 plus the set algebra."""
    from repro.algebra import Atom, JoinExpr, ProjectExpr, UnionExpr

    if isinstance(expression, Atom):
        source = expression.source
        parsed = parse(source) if isinstance(source, str) else source
        return mappings(parsed, document)
    if isinstance(expression, UnionExpr):
        result = set()
        for part in expression.parts:
            result |= _reference(part, document)
        return result
    if isinstance(expression, JoinExpr):
        result = _reference(expression.parts[0], document)
        for part in expression.parts[1:]:
            result = semantic_join(result, _reference(part, document))
        return result
    if isinstance(expression, ProjectExpr):
        return {
            m.project(expression.keep)
            for m in _reference(expression.child, document)
        }
    raise AssertionError(f"unhandled expression {expression!r}")


def _engines(expression):
    return [
        CompiledSpanner(plan=build_plan(expression, opt_level=level))
        for level in OPT_LEVELS
    ]


class TestUnionPath:
    @given(rgx_expressions(), rgx_expressions(), documents(max_length=4))
    @settings(max_examples=30, deadline=None)
    def test_union_matches_reference(self, first, second, document):
        expression = query(first).union(query(second))
        expected = _reference(expression, document)
        for engine in _engines(expression):
            assert engine.mappings(document) == expected

    def test_nary_union(self):
        expression = query("x{a}").union(query("y{b}")).union(query("x{b}"))
        for document in DOCS:
            expected = _reference(expression, document)
            for engine in _engines(expression):
                assert engine.mappings(document) == expected


class TestProjectionPath:
    @given(rgx_expressions(), documents(max_length=4))
    @settings(max_examples=30, deadline=None)
    def test_projection_matches_reference(self, inner, document):
        for keep in (["x"], ["y"], []):
            expression = query(inner).project(keep)
            expected = _reference(expression, document)
            for engine in _engines(expression):
                assert engine.mappings(document) == expected

    def test_projection_over_union(self):
        expression = (
            query("x{a*}y{b*}").union(query("x{b}|y{a}")).project(["x"])
        )
        for document in DOCS:
            expected = _reference(expression, document)
            for engine in _engines(expression):
                assert engine.mappings(document) == expected


class TestJoinPath:
    @given(rgx_expressions(), rgx_expressions(), documents(max_length=3))
    @settings(max_examples=25, deadline=None)
    def test_join_matches_reference(self, first, second, document):
        expression = query(first).join(query(second))
        expected = _reference(expression, document)
        for engine in _engines(expression):
            assert engine.mappings(document) == expected

    @pytest.mark.parametrize(
        "left,right",
        [
            ("x{a*}y{b*}", "x{a*}.*"),  # shared x
            ("x{a}.*", ".*x{a}"),       # shared, positions must agree
            ("x{a}|y{b}", "x{.}|y{.}"), # partial domains both sides
        ],
    )
    def test_join_cases(self, left, right):
        expression = query(left).join(query(right))
        for document in DOCS:
            expected = _reference(expression, document)
            for engine in _engines(expression):
                assert engine.mappings(document) == expected

    def test_nested_algebra(self):
        expression = (
            query("x{a*}y{b*}")
            .join(query("x{a*}.*"))
            .union(query("x{b}z{a*}"))
            .project(["x", "z"])
        )
        for document in DOCS:
            expected = _reference(expression, document)
            for engine in _engines(expression):
                assert engine.mappings(document) == expected

    def test_non_sequential_operand_respects_budget(self, monkeypatch):
        # (x{a})* is not sequential; join operands are sequentialised up
        # front under the planner's state budget, so a tiny budget must
        # surface as a planner error, not an exponential compile.
        monkeypatch.setattr(planner, "DEFAULT_SEQUENTIALIZE_BUDGET", 1)
        expression = query("(x{a})*").join(query(".*x{a}.*"))
        with pytest.raises(BudgetExceededError):
            build_plan(expression, opt_level=1)

    def test_non_sequential_operand_within_budget(self):
        expression = query("(x{a})*").join(query(".*x{a}.*"))
        for document in DOCS:
            expected = _reference(expression, document)
            for engine in _engines(expression):
                assert engine.mappings(document) == expected
