"""Differential harness: the flat lazy DFA against the seed reference.

The flat tables (:class:`~repro.engine.kernel.FlatTables`, the sweeps of
:mod:`repro.engine.oracle`) and the output DAG enumeration reads
(:class:`~repro.engine.oracle.OutputDAG`) are the engine's one
sequential path.  Every test here runs the same
input through it and through the seed evaluators — ``eval_va``,
``enumerate_va_oracle`` and the RGX semantics of
:mod:`repro.rgx.semantics` — and asserts *identical* observable output:
index contents, sweep verdicts, enumeration order, decoded mappings.
Each case runs under every flat-DFA state budget of
:data:`tests.engine_checks.LIMITS`, so the flush paths answer the same
questions as the unbounded table.

These tests carry the ``differential`` marker: the hypothesis budget
defaults low so the tier-1 run stays fast, and the dedicated CI job
raises it through ``REPRO_DIFFERENTIAL_EXAMPLES``.
"""

import bisect
import functools
import os
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.automata.labels import Open, sym
from repro.automata.sequential import is_sequential
from repro.automata.thompson import to_va
from repro.automata.va import VA, VABuilder
from repro.engine import compile_va
from repro.engine.compiled import CompiledSpanner, compile_spanner
from repro.engine import oracle as oracle_module
from repro.engine.oracle import OutputDAG, eval_compiled
from repro.engine.tables import DocumentIndex
from repro.evaluation.enumerate import enumerate_va_oracle
from repro.evaluation.eval_problem import eval_va
from repro.plan import OPT_LEVELS, plan
from repro.rgx.parser import parse
from repro.rgx.semantics import mappings as seed_mappings
from repro.spans.mapping import NULL, ExtendedMapping, Mapping
from repro.spans.span import Span, all_spans
from repro.workloads import land_registry, server_logs
from repro.workloads.expressions import random_va, seller_like_sequential_rgx
from tests.engine_checks import FlushTally, flat_limit, reference_index
from tests.strategies import VARIABLES, documents, rgx_expressions

pytestmark = [pytest.mark.kernel, pytest.mark.differential]


def _examples(default: int = 25) -> int:
    try:
        value = int(os.environ.get("REPRO_DIFFERENTIAL_EXAMPLES", ""))
    except ValueError:
        return default
    return value if value > 0 else default


EXAMPLES = _examples()

#: An automaton whose subset construction needs more than 8 DFA states
#: (the classic ``(a|b)*a(a|b)^3`` blow-up), so every small budget flushes.
HEAVY = parse("(a|b)*a(a|b)(a|b)(a|b)x{(a|b)*}")
HEAVY_DOCUMENT = "abbababbabab"


def _non_sequential_csv_va(field_count: int) -> VA:
    """E21's non-sequential automaton: the seller-like CSV chain plus a
    ``v0⊢`` self-loop on the final state that no valid run can take."""
    base = to_va(seller_like_sequential_rgx(field_count))
    looped = base.transitions + ((base.final, Open("v0"), base.final),)
    return VA(base.num_states, base.initial, base.final, looped)


@st.composite
def extended_pins(draw, document_length: int = 4) -> ExtendedMapping:
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


def _seed_decoded(automaton, document):
    """The seed enumerator's output, decoded in its own order."""
    return [
        {v: s.content(document) for v, s in mapping.items()}
        for mapping in enumerate_va_oracle(automaton, document)
    ]


def _algorithm2_key(mapping: Mapping, variables) -> tuple:
    """Algorithm 2's output order as a sort key: variable by variable in
    sorted order, its spans ``i``-major then ``j``, unassigned (⊥) last."""
    return tuple(
        (0, mapping[v].begin, mapping[v].end) if v in mapping else (1, 0, 0)
        for v in sorted(variables)
    )


@functools.lru_cache(maxsize=None)
def _seed_set(expression, document) -> frozenset[Mapping]:
    return frozenset(seed_mappings(expression, document))


def _seed_ordered(expression, document, start=None) -> list[Mapping]:
    """The seed semantics' mappings extending ``start``, in Algorithm 2's
    order — the seed enumerator's output without its ``O(|d|²)``
    candidate loop, so it stays usable on multi-line documents."""
    pins = dict(start.items()) if start is not None else {}
    found = [
        mapping
        for mapping in _seed_set(expression, document)
        if all(
            variable not in mapping if value is NULL else mapping.get(variable) == value
            for variable, value in pins.items()
        )
    ]
    variables = set(pins).union(*(mapping.domain for mapping in found))
    return sorted(found, key=lambda mapping: _algorithm2_key(mapping, variables))


def _children(cva, document, base, variable) -> list[tuple]:
    """The children a private DAG gives the node ``(base, variable)``."""
    dag = OutputDAG(cva, document)
    completions = dag.restrict(base)
    return [] if completions is None else list(dag.children(completions, variable))


def _seed_children(automaton, document, base, variable) -> list[tuple]:
    """The node's children by brute force: every value the seed's ``Eval``
    accepts, in Algorithm 2's order (spans ``i``-major, ``⊥`` last), with
    the seed's count of completions capped at 2."""
    outputs = list(enumerate_va_oracle(automaton, document))
    found = []
    for value in [*sorted(all_spans(len(document))), NULL]:
        pins = {**base, variable: value}
        if eval_va(automaton, document, ExtendedMapping(pins)):
            completions = sum(
                all(
                    v not in mapping if pin is NULL else mapping.get(v) == pin
                    for v, pin in pins.items()
                )
                for mapping in outputs
            )
            found.append((value, min(completions, 2)))
    return found


def _dag_walk(cva, document, start=None) -> tuple[list[Mapping], list[tuple]]:
    """Algorithm 2's recursion as ``CompiledSpanner.enumerate`` runs it —
    children built while their parent's walk is paused — over one shared
    :class:`OutputDAG`, except that *every* child becomes a node, read
    off or not.  A child the DAG reads off must be exactly the one
    mapping its own node reaches, and every child's count must be the
    number of mappings its node reaches (capped at 2).  Each node is
    also answered by a private DAG of its own and must agree.  Returns
    the outputs in order and the nodes ``(base, variable)`` in creation
    order."""
    dag = OutputDAG(cva, document)
    outputs: list[Mapping] = []
    nodes: list[tuple] = []

    def walk(base, remaining) -> list[Mapping]:
        if not remaining:
            found = Mapping({v: s for v, s in base.items() if isinstance(s, Span)})
            outputs.append(found)
            return [found]
        variable, rest = remaining[0], remaining[1:]
        nodes.append((base, variable))
        children, reached = [], []
        for value, count, single in dag.children(dag.restrict(base), variable):
            children.append((value, count, single))
            below = walk({**base, variable: value}, rest)
            assert min(len(below), 2) == count, (base, variable, value)
            assert count != 1 or below == [single], (base, variable, value)
            reached += below
        assert children == _children(cva, document, base, variable), (base, variable)
        return reached

    pins = {} if start is None else dict(start.items())
    completions = dag.restrict(pins)
    if completions is not None and completions.total:
        walk(pins, [v for v in sorted(cva.mentioned_variables) if v not in pins])
    return outputs, nodes


class TestFlatAgainstDictAndSets:
    """Hypothesis sweeps: the flat path against the seed's set-based
    evaluators.  (The class keeps its name so test ids stay stable; of
    the paths it names, only the set-based reference remains.)"""

    def test_document_index_three_ways(self):
        """The flat sweeps and a set-based reference build the same
        index."""
        tally = FlushTally()

        @given(expression=rgx_expressions(), document=documents())
        @example(expression=HEAVY, document=HEAVY_DOCUMENT)
        @settings(max_examples=EXAMPLES, deadline=None)
        def check(expression, document):
            def run():
                cva = compile_va(plan(expression, opt_level=1).automaton)
                index = DocumentIndex(cva, document)
                reach, coreach, candidate_spans = reference_index(cva, document)
                assert index.reach == reach
                assert index.coreach == coreach
                for variable in sorted(cva.variables):
                    assert index.candidate_spans(variable) == (
                        candidate_spans(variable)
                    ), variable

            tally.run(run)

        check()
        tally.assert_flushed()

    def test_sequential_eval_three_ways(self):
        """Theorem 5.7 on the flat DFA, the seed ``eval_va`` on the planned
        automaton, and the seed on the raw translation (Theorem 5.10's
        FPT sweep whenever that is not sequential) agree on every pin."""
        tally = FlushTally()

        @given(
            expression=rgx_expressions(),
            document=documents(max_length=5),
            pinned=extended_pins(),
        )
        @example(
            expression=HEAVY,
            document=HEAVY_DOCUMENT,
            pinned=ExtendedMapping({"x": NULL}),
        )
        @settings(max_examples=EXAMPLES, deadline=None)
        def check(expression, document, pinned):
            def run():
                automaton = plan(expression, opt_level=1).automaton
                cva = compile_va(automaton)
                verdict = eval_compiled(cva, document, pinned)
                assert verdict == eval_va(automaton, document, pinned)
                assert verdict == eval_va(to_va(expression), document, pinned)

            tally.run(run)

        check()
        tally.assert_flushed()

    def test_node_sweep_three_ways(self):
        """A root node's walk over the DAG gives every value of its
        variable that ``eval_va`` accepts — on the planned automaton and
        on the raw translation — in Algorithm 2's order, each with its
        number of completions; the spans lie in the index's candidate
        product."""
        tally = FlushTally()

        @given(expression=rgx_expressions(), document=documents(max_length=5))
        @example(expression=HEAVY, document=HEAVY_DOCUMENT)
        @settings(max_examples=EXAMPLES, deadline=None)
        def check(expression, document):
            automaton = plan(expression, opt_level=1).automaton
            raw = to_va(expression)
            expected = {
                variable: _seed_children(automaton, document, {}, variable)
                for variable in sorted(automaton.mentioned_variables)
            }
            for variable, children in expected.items():
                assert children == _seed_children(raw, document, {}, variable)

            def run():
                cva = compile_va(automaton)
                index = DocumentIndex(cva, document)
                for variable, children in expected.items():
                    got = _children(cva, document, {}, variable)
                    assert [(value, count) for value, count, _ in got] == children
                    candidates = set(index.candidate_spans(variable))
                    assert {value for value, _ in children} - {NULL} <= candidates

            tally.run(run)

        check()
        tally.assert_flushed()

    @pytest.mark.parametrize(
        "pattern, document",
        [
            ("y{a}x{b}", "ab"),
            ("x{y{a}b}", "ab"),
            ("x{ε}y{a}", "a"),
            ("x{y{ε}}", ""),
            (".*y{a}x{b}.*", "abab"),
            (".*x{y{a}b}.*", "babb"),
        ],
    )
    def test_node_spans_where_the_open_meets_a_pinned_operation(self, pattern, document):
        """``x⊢`` at a position that also carries a pinned variable's
        operation: the node's edge filter must keep the marker set that
        holds both, so the node's children still equal the seed's
        verdicts, counts and order."""
        automaton = plan(parse(pattern), opt_level=1).automaton
        pins = [NULL, *all_spans(len(document))]
        cases = [
            (variable, {other: value})
            for variable, other in (("x", "y"), ("y", "x"))
            for value in pins
        ]
        truths = [_seed_children(automaton, document, base, variable) for variable, base in cases]
        assert any(truths)
        tally = FlushTally()

        def run():
            cva = compile_va(automaton)
            for (variable, base), truth in zip(cases, truths):
                got = _children(cva, document, base, variable)
                assert [(value, count) for value, count, _ in got] == truth, base

        tally.run(run)

    def test_mappings_identical_at_every_opt_level(self):
        tally = FlushTally()

        @given(expression=rgx_expressions(), document=documents())
        @example(expression=HEAVY, document=HEAVY_DOCUMENT)
        @settings(max_examples=EXAMPLES, deadline=None)
        def check(expression, document):
            expected = seed_mappings(expression, document)

            def run():
                for level in OPT_LEVELS:
                    engine = compile_spanner(expression, opt_level=level)
                    assert engine.mappings(document) == expected, level

            tally.run(run)

        check()
        tally.assert_flushed()

    def test_decoded_enumeration_order_matches(self):
        """``enumerate`` yields the seed enumerator's mappings in its order,
        and the candidate spans are a sound superset of the seed's spans."""
        tally = FlushTally()

        @given(expression=rgx_expressions(), document=documents())
        @example(expression=HEAVY, document=HEAVY_DOCUMENT)
        @settings(max_examples=EXAMPLES, deadline=None)
        def check(expression, document):
            automaton = plan(expression, opt_level=1).automaton
            expected = list(enumerate_va_oracle(automaton, document))

            def run():
                engine = compile_spanner(expression, opt_level=1)
                assert list(engine.enumerate(document)) == expected
                index = engine.index(document)
                for mapping in expected:
                    for variable, span in mapping.items():
                        assert span in index.candidate_spans(variable)

            tally.run(run)

        check()
        tally.assert_flushed()


class TestFlatEdgeCases:
    """Deterministic corners the hypothesis grammar rarely reaches."""

    COFINITE = ".*x{[^,;]+};.*"

    def test_cofinite_charset_with_residual_heavy_document(self):
        # 'Q', '~' and 'é' are unmentioned: all land in the residual
        # class; ',' and ';' are excluded/mentioned and must not.
        document = "Q~é,ab;tail"
        expected = seed_mappings(parse(self.COFINITE), document)
        assert expected  # the corner must actually produce mappings
        ordered = _seed_decoded(plan(parse(self.COFINITE)).automaton, document)
        tally = FlushTally()

        def run():
            engine = compile_spanner(self.COFINITE)
            assert engine.mappings(document) == expected
            decoded = [
                {v: s.content(document) for v, s in mapping.items()}
                for mapping in engine.enumerate(document)
            ]
            assert decoded == ordered

        tally.run(run)
        tally.assert_flushed(limits=(2, 3))  # its DFAs fit in 8 states

    @pytest.mark.parametrize("document", ["", "a", "z", "zzzz"])
    def test_tiny_and_all_residual_documents(self, document):
        tally = FlushTally()

        def run():
            for expression in (".*x{a+}.*", "x{a*}", self.COFINITE):
                automaton = plan(parse(expression)).automaton
                assert list(compile_spanner(expression).enumerate(document)) == (
                    list(enumerate_va_oracle(automaton, document))
                ), expression

        tally.run(run)
        if document:
            # Short documents need only a few states: a budget of 2
            # still flushes, 8 may not.
            tally.assert_flushed(limits=(2,))

    def test_sequentialised_source_runs_flat(self):
        # The e21 trick: a bogus unusable open makes the source fail the
        # sequentiality check; planning sequentialises it and the flat
        # sweep must agree with the seed enumerator on the result.
        automaton = _non_sequential_csv_va(2)
        document = "f0=ab;f1=cd;"
        expected = _seed_decoded(automaton, document)
        assert expected
        tally = FlushTally()

        def run():
            engine = compile_spanner(automaton, opt_level=1)
            assert is_sequential(engine.tables.va)
            decoded = [
                {v: s.content(document) for v, s in mapping.items()}
                for mapping in engine.enumerate(document)
            ]
            assert decoded == expected

        tally.run(run)
        tally.assert_flushed()

    def test_non_sequential_pins_hit_the_flat_context_path(self):
        # Pinned variables build restricted sweep contexts, each with a
        # flat DFA of its own.  Cross-check the verdict for every pin of
        # one variable over a short document.
        expression = parse(".*x{a+}y{b*}.*")
        automaton = plan(expression, opt_level=1).automaton
        document = "aabb"
        pins = [
            ExtendedMapping(entry)
            for span in all_spans(len(document))
            for entry in ({"x": span}, {"x": span, "y": NULL})
        ]
        expected = [eval_va(automaton, document, pin) for pin in pins]
        assert any(expected) and not all(expected)
        tally = FlushTally()

        def run():
            cva = compile_va(automaton)
            verdicts = [eval_compiled(cva, document, pin) for pin in pins]
            assert verdicts == expected

        tally.run(run)
        tally.assert_flushed()

    @pytest.mark.parametrize("limit", [2, 3])
    def test_interleaved_nodes_survive_each_others_flushes(self, limit):
        """DAGs of one automaton share its frontier DFA.  Between two
        children of one node, a fresh DAG of the same document — and
        one of another document — flush that DFA under the paused
        node: its recorded frontier ids still resolve through the tables
        generation its segments captured, with or without pins."""
        cases = [
            ("(a|b)*x{a(a|b)*}(a|b)*b(a|b)(a|b)", {}),
            ("(a|b)*x{a(a|b)*}(a|b)*y{b}(a|b)(a|b)", {"y": Span(10, 11)}),
        ]
        document, other = HEAVY_DOCUMENT, HEAVY_DOCUMENT[::-1]
        for pattern, base in cases:
            automaton = plan(parse(pattern), opt_level=1).automaton
            expected = _seed_children(automaton, document, base, "x")
            assert len(expected) > 2
            with flat_limit(limit) as probe:
                cva = compile_va(automaton)
                dag = OutputDAG(cva, document)
                got = []
                for value, count, _ in dag.children(dag.restrict(base), "x"):
                    got.append((value, count))
                    flushes = probe.frontier_flushes
                    _children(cva, other, base, "x")
                    fresh = _children(cva, document, base, "x")
                    assert [(v, c) for v, c, _ in fresh[: len(got)]] == got
                    assert probe.frontier_flushes > flushes
            assert got == expected

    @pytest.mark.parametrize("limit", [2, 3])
    def test_interleaved_span_generation_survives_flushes(self, limit):
        """A node's span walk pauses between yields — enumeration recurses
        there — and other documents' forward passes flush the frontier
        DFA meanwhile; the paused walk's DAG keeps its own tables."""
        expression = parse("(a|b)*x{a(a|b)*}(a|b)*b(a|b)(a|b)")
        automaton = plan(expression, opt_level=1).automaton
        document = HEAVY_DOCUMENT
        expected = _seed_children(automaton, document, {}, "x")
        assert expected
        with flat_limit(limit) as probe:
            cva = compile_va(automaton)
            dag = OutputDAG(cva, document)
            spans = []
            for value, count, _ in dag.children(dag.restrict({}), "x"):
                spans.append((value, count))
                OutputDAG(cva, document[1:] + "a").count()
            assert dag._tables[-1] is not oracle_module.frontier_dfa(cva).tables
        assert spans == expected
        assert probe.frontier_flushes > 0

    def test_threads_sharing_an_engine_across_flushes(self):
        """Threads enumerating on one engine flush its shared frontier DFA
        under each other's forward passes; every pass holds the DFA's
        lock, and each call's DAG keeps the tables generations it
        recorded in, so each thread still gets the seed's output.  The
        multi-line logs run at a budget of 2, where nearly every line of
        a forward pass flushes."""
        rng = random.Random(7)
        suffix_documents = [
            "".join(rng.choice("ab") for _ in range(rng.randint(16, 28)))
            for _ in range(8)
        ]
        suffix = parse("(a|b)*x{a(a|b)*}(a|b)*b(a|b)(a|b)")
        automaton = plan(suffix, opt_level=1).automaton
        log_documents = [
            server_logs.render(server_logs.generate_lines(6, seed=seed)) for seed in range(6)
        ]
        suffix_expected = [
            list(enumerate_va_oracle(automaton, text)) for text in suffix_documents
        ]
        log_expected = [_seed_ordered(LOGS, text) for text in log_documents]
        cases = [
            (3, suffix, suffix_documents, 40, suffix_expected),
            (2, LOGS, log_documents, 6, log_expected),
        ]
        for limit, expression, documents, rounds, expected in cases:
            assert any(expected)
            failures = []
            with flat_limit(limit) as probe:
                engine = compile_spanner(expression, opt_level=1)

                def work(offset):
                    try:
                        for round_ in range(rounds):
                            for k in range(len(documents)):
                                index = (k + offset + round_) % len(documents)
                                got = list(engine.enumerate(documents[index]))
                                if got != expected[index]:
                                    failures.append((offset, index))
                            verdicts = engine.matches_many(documents[offset:])
                            if verdicts != [bool(out) for out in expected[offset:]]:
                                failures.append((offset, "matches_many"))
                    except Exception as error:  # reported below, not swallowed
                        failures.append(repr(error))

                threads = [
                    threading.Thread(target=work, args=(offset,)) for offset in range(6)
                ]
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-6)
                try:
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=120)
                finally:
                    sys.setswitchinterval(interval)
                assert not any(thread.is_alive() for thread in threads)
            assert failures == [], limit
            assert probe.frontier_flushes > 0


#: Multi-line documents: each line or row is one child of the root node,
#: read off the DAG along its own stretch of marked positions.
LOGS = server_logs.access_expression()
LOGS_DOCUMENT = server_logs.render(server_logs.generate_lines(9, seed=5))
REGISTRY = land_registry.seller_tax_expression()
REGISTRY_DOCUMENT = land_registry.generate_document(12, seed=6)
#: Tail states that keep changing (the last three letters are tracked),
#: so frontiers keep changing and small budgets flush deep into the
#: document.
SUFFIX = parse("(a|b)*x{a}(a|b)*(y{b}|ε)(a|b)*a(a|b)(a|b)")
SUFFIX_DOCUMENT = "abbababbaabbabb"
#: ``x`` sorts first but sits later in the text, with a fixed-length
#: tail after it: every ``x`` span has several ``y`` completions before
#: it, so the root's children are nodes of their own, each with a
#: restricted backward pass.
TAIL = parse("(a|b)*y{a}(a|b)*x{b}(a|b)(a|b)")
TAIL_DOCUMENT = "abbababbaabbab"
#: Acceptance needs the footer: a read-off must follow its links all the
#: way to the document's end.
FOOTER = parse(".*x{a+}(,y{b+}|ε);.*!")
FOOTER_DOCUMENT = "aa,b;a;aa,bb;b;a,b;a;bab;!"


def _first_output(expression, document, variable):
    """A span some output assigns to ``variable`` (an ``enumerate(start=...)`` pin)."""
    return min(
        mapping[variable]
        for mapping in _seed_set(expression, document)
        if variable in mapping
    )


class TestSharedSweeps:
    """Every node of one enumeration call reads one shared output DAG
    (its level descriptions and memo included) and answers exactly like
    a node with a private DAG; enumeration stays the seed's, order
    included."""

    def test_algorithm2_key_is_the_seed_enumerators_order(self):
        """The order key the multi-line cases sort the seed semantics by
        is the seed enumerator's own order (checked where it is fast)."""
        cases = [
            (REGISTRY, land_registry.generate_document(3, seed=14)),
            (parse(".*x{a+}y{b*}.*"), "aabab"),
        ]
        for expression, document in cases:
            automaton = plan(expression, opt_level=1).automaton
            expected = list(enumerate_va_oracle(automaton, document))
            assert len(expected) > 1
            assert _seed_ordered(expression, document) == expected

    @pytest.mark.parametrize(
        "expression, document, start, root_only",
        [
            pytest.param(LOGS, LOGS_DOCUMENT, None, True, id="logs"),
            pytest.param(LOGS, LOGS_DOCUMENT, {"ref": NULL}, True, id="logs-null-ref"),
            pytest.param(LOGS, LOGS_DOCUMENT, {"status": "first"}, True, id="logs-pinned-status"),
            pytest.param(REGISTRY, REGISTRY_DOCUMENT, None, True, id="registry"),
            pytest.param(REGISTRY, REGISTRY_DOCUMENT, {"y": NULL}, True, id="registry-null-tax"),
            pytest.param(
                REGISTRY, REGISTRY_DOCUMENT, {"x": "first"}, True, id="registry-pinned-name"
            ),
            pytest.param(SUFFIX, SUFFIX_DOCUMENT, None, False, id="suffix"),
            pytest.param(FOOTER, FOOTER_DOCUMENT, None, True, id="footer"),
            pytest.param(TAIL, TAIL_DOCUMENT, None, False, id="tail"),
        ],
    )
    def test_shared_nodes_match_private_nodes_and_the_seed(
        self, expression, document, start, root_only, monkeypatch
    ):
        """Every budget: each node of the shared walk against a private
        DAG, and the enumeration (library and shared walk) against the
        seed.  ``"first"`` stands for the span the first output assigns;
        ``root_only`` says whether the library's enumeration needs no
        node but the root — every child of the root read off the DAG."""
        if start is not None:
            start = ExtendedMapping(
                {
                    variable: _first_output(expression, document, variable)
                    if value == "first"
                    else value
                    for variable, value in start.items()
                }
            )
        expected = _seed_ordered(expression, document, start)
        assert expected
        passes = []
        restrict = OutputDAG.restrict

        def counting(self, pins):
            passes.append(dict(pins))
            return restrict(self, pins)

        tally = FlushTally()

        def run():
            engine = compile_spanner(expression, opt_level=1)
            passes.clear()
            with monkeypatch.context() as patch:
                patch.setattr(OutputDAG, "restrict", counting)
                assert list(engine.enumerate(document, start)) == expected
            assert (len(passes) == 1) == root_only, passes
            outputs, nodes = _dag_walk(engine.tables, document, start)
            assert outputs == expected
            assert nodes

        tally.run(run)
        tally.assert_flushed()

    @pytest.mark.parametrize(
        "pattern, document",
        [
            (".*y{a}.*x{b}.*", "aabb"),
            ("(x{a}|ε)(y{b}|ε).*", "ab"),
            (".*x{.*}.*y{.*}.*", "abcd"),
        ],
    )
    def test_order_where_a_depth_first_walk_diverges(self, pattern, document):
        """A plain depth-first walk of the DAG yields the right mappings in
        position order, which differs from Algorithm 2's on these cases;
        enumeration keeps Algorithm 2's order at every budget."""
        expression = parse(pattern)
        automaton = plan(expression, opt_level=1).automaton
        expected = list(enumerate_va_oracle(automaton, document))
        assert expected == _seed_ordered(expression, document)
        tally = FlushTally()

        def run():
            engine = compile_spanner(expression, opt_level=1)
            assert list(engine.enumerate(document)) == expected
            depth_first = _depth_first(OutputDAG(engine.tables, document))
            assert sorted(depth_first, key=repr) == sorted(expected, key=repr)
            assert depth_first != expected

        tally.run(run)
        tally.assert_flushed(limits=(2,))  # their DFAs fit in a few states

    def test_count_sums_dag_paths_at_every_budget(self):
        """``count`` sums the DAG's paths without enumerating: the number
        of mappings ``enumerate`` yields, and the seed's, at every
        budget."""
        tally = FlushTally()

        @given(expression=rgx_expressions(), document=documents())
        @example(expression=HEAVY, document=HEAVY_DOCUMENT)
        @example(expression=LOGS, document=LOGS_DOCUMENT)
        @settings(max_examples=EXAMPLES, deadline=None)
        def check(expression, document):
            expected = len(_seed_set(expression, document))

            def run():
                engine = compile_spanner(expression, opt_level=1)
                assert engine.count(document) == len(list(engine.enumerate(document)))
                assert engine.count(document) == expected

            tally.run(run)

        check()
        tally.assert_flushed()

    @pytest.mark.parametrize("limit", [2, 3, 20])
    def test_a_flush_between_the_forward_pass_and_the_node_walks(self, limit):
        """A DAG records its frontier ids, then other documents' forward
        passes flush the frontier DFA before any node walks it: the
        backward passes and walks read the generations the DAG's
        segments captured, and answer like a DAG built afterwards."""
        with flat_limit(limit) as probe:
            cva = compile_va(plan(LOGS, opt_level=1).automaton)
            dag = OutputDAG(cva, LOGS_DOCUMENT)
            flushes = probe.frontier_flushes
            for seed in range(3):
                OutputDAG(cva, server_logs.render(server_logs.generate_lines(9, seed=seed)))
            assert probe.frontier_flushes > flushes
            assert dag._tables[-1] is not oracle_module.frontier_dfa(cva).tables
            fresh = OutputDAG(cva, LOGS_DOCUMENT)
            assert dag.count() == fresh.count() == len(_seed_set(LOGS, LOGS_DOCUMENT))
            paths = [value for value, _, _ in dag.children(dag.restrict({}), "path")]
            assert len(paths) > 3
            for span in paths:
                base = {"path": span}
                assert list(dag.children(dag.restrict(base), "ref")) == list(
                    fresh.children(fresh.restrict(base), "ref")
                )

    @pytest.mark.parametrize("limit", [2, 3, 8])
    def test_dag_tables_survive_flushes(self, limit):
        """A forward pass that flushes mid-document records each stretch
        in the tables generation it ran in: position by position, the
        segments hold the frontiers — and the edges — one uninterrupted
        pass at the default budget records."""
        document = LOGS_DOCUMENT
        whole = OutputDAG(compile_va(plan(LOGS, opt_level=1).automaton), document)
        assert len(whole._tables) == 1

        def frontiers(dag):
            starts = dag._starts
            for pos in range(1, dag.end + 1):
                tables = dag._tables[bisect.bisect_right(starts, pos) - 1]
                fid = dag.fids[pos]
                edges = tables.edges[fid][dag.classes[pos - 1]] if pos < dag.end else None
                yield pos, tables.frontiers[fid], edges

        with flat_limit(limit) as probe:
            cva = compile_va(plan(LOGS, opt_level=1).automaton)
            stepped = OutputDAG(cva, document)
            assert len(stepped._tables) > 1
            assert list(frontiers(stepped)) == list(frontiers(whole))
        assert probe.frontier_flushes >= len(stepped._tables) - 1

    def test_siblings_sweep_only_their_pinned_stretch(self, monkeypatch):
        """On a 160-line log every child of the root is read off the DAG,
        and each read-off visits only the marked positions of its own
        line — a handful — out of the thousands the document has: no
        child node, no backward pass but the root's."""
        visits: list[int] = []
        passes: list[int] = []
        read_off = oracle_module.Completions.read_off
        restrict = OutputDAG.restrict

        class Counted(list):
            reads = 0

            def __getitem__(self, at):
                Counted.reads += 1
                return super().__getitem__(at)

        def counting_restrict(self, pins):
            completions = restrict(self, pins)
            completions.marks = Counted(completions.marks)
            passes.append(len(completions.marks))
            return completions

        def counting_read_off(self, at, node, markers):
            before = Counted.reads
            found = read_off(self, at, node, markers)
            visits.append(Counted.reads - before)
            return found

        monkeypatch.setattr(OutputDAG, "restrict", counting_restrict)
        monkeypatch.setattr(oracle_module.Completions, "read_off", counting_read_off)
        lines = server_logs.generate_lines(160, seed=181)
        document = server_logs.render(lines)
        engine = compile_spanner(LOGS, opt_level=1)
        found = list(engine.enumerate(document))
        assert server_logs.extraction_tuples(document, found) == (
            server_logs.expected_tuples(lines)
        )
        assert len(passes) == 1 and passes[0] > 500, passes
        assert len(visits) == len(found) == 160
        assert max(visits) <= 12, max(visits)


def _depth_first(dag: OutputDAG) -> list[Mapping]:
    """Every DAG path in plain depth-first order: position by position,
    each node's marker sets ascending."""
    completions = dag.restrict({})
    marks = completions.marks
    found: list[Mapping] = []

    def walk(at, node, markers):
        for markers_here, target in completions.at_mark[at][4][node]:
            path = [*markers, (marks[at], markers_here)] if markers_here else markers
            if marks[at] == dag.end:
                found.append(dag.mapping(path))
            else:
                walk(at + 1, completions.after_mark[at][1][target], path)

    if completions.total:
        walk(0, completions.start(), [])
    return found


#: 300 two-character alternatives over distinct code points: 300 alphabet
#: classes plus the residual, past the 256 that fit a byte.
WIDE_LETTERS = [chr(0x100 + offset) for offset in range(300)]
WIDE = ".*x{(" + "|".join(letter * 2 for letter in WIDE_LETTERS) + ")}.*"
WIDE_DOCUMENTS = [
    "",
    "z" + WIDE_LETTERS[0] * 2 + "z",
    WIDE_LETTERS[7] * 2 + WIDE_LETTERS[299] * 3,
    WIDE_LETTERS[5] + WIDE_LETTERS[6],
    "".join(WIDE_LETTERS[:40]),
]


class TestWideAlphabet:
    """More than 256 alphabet classes: documents intern to tuples, not
    bytes, and every sweep indexes them alike."""

    def test_wide_alphabet_matches_seed(self):
        expression = parse(WIDE)
        expected = [seed_mappings(expression, document) for document in WIDE_DOCUMENTS]
        assert [bool(out) for out in expected] == [False, True, True, False, False]
        tally = FlushTally()

        def run():
            engine = compile_spanner(WIDE)
            assert engine.kernel_stats()["classes"] == 301
            assert isinstance(engine.tables.kernel.flat.intern("ab"), tuple)
            for document, mappings in zip(WIDE_DOCUMENTS, expected):
                assert engine.mappings(document) == mappings
                assert engine.eval(document, ExtendedMapping.empty()) == bool(mappings)
                index = engine.index(document)
                assert isinstance(index.classes, tuple)
                spans = set(index.candidate_spans("x"))
                assert {m["x"] for m in mappings} <= spans
            fresh = compile_spanner(WIDE)
            assert fresh.matches_many(WIDE_DOCUMENTS) == [
                bool(out) for out in expected
            ]
            built = fresh.index_many(WIDE_DOCUMENTS)
            for document, index in zip(WIDE_DOCUMENTS, built):
                reference = DocumentIndex(fresh.tables, document)
                assert index.reach == reference.reach
                assert index.coreach == reference.coreach

        tally.run(run)
        tally.assert_flushed()


def _dangling_open_va() -> VA:
    """``docs/semantics.md``'s automaton: every accepting run traverses
    ``x⊢`` and never closes it."""
    builder = VABuilder()
    q0, q1, q2 = builder.add_states(3)
    builder.add(q0, Open("x"), q1)
    builder.add(q1, sym("a"), q2)
    return builder.build(initial=q0, final=q2)


def _pins(variables, document) -> list[ExtendedMapping]:
    """The empty pin, every single-variable pin (``⊥`` and every span),
    and ``⊥`` on one variable next to every span of another."""
    values = [NULL, *all_spans(len(document))]
    pins = [ExtendedMapping.empty()]
    pins += [ExtendedMapping({v: value}) for v in variables for value in values]
    pins += [
        ExtendedMapping({v: NULL, w: value})
        for v in variables
        for w in variables
        if v != w
        for value in values[1:]
    ]
    return pins


def _check_non_sequential(source, documents) -> FlushTally:
    """The unplanned engine and the engines of every opt level against the
    seed on a non-sequential ``source`` (an RGX or a VA), at every state
    budget: enumeration output and order, ``eval`` under span and ``⊥``
    pins, and the batch verdicts and indexes of ``matches_many`` /
    ``index_many``."""
    raw = source if isinstance(source, VA) else to_va(source)
    assert not is_sequential(raw)
    variables = sorted(raw.mentioned_variables)
    expected = [list(enumerate_va_oracle(raw, document)) for document in documents]
    if not isinstance(source, VA):
        for document, outputs in zip(documents, expected):
            assert set(outputs) == seed_mappings(source, document), document
    nonempty = [bool(outputs) for outputs in expected]
    pins = [_pins(variables, document) for document in documents]
    verdicts = [
        [eval_va(raw, document, pin) for pin in document_pins]
        for document, document_pins in zip(documents, pins)
    ]
    makers = [lambda: CompiledSpanner(raw)] + [
        functools.partial(compile_spanner, source, opt_level=level)
        for level in OPT_LEVELS
    ]
    tally = FlushTally()

    def run():
        for arm, make in enumerate(makers):
            assert make().matches_many(documents) == nonempty, arm
            engine = make()
            assert is_sequential(engine.tables.va)
            for document, index in zip(documents, engine.index_many(documents)):
                reach, coreach, _ = reference_index(engine.tables, document)
                assert (index.reach, index.coreach) == (reach, coreach), arm
            assert [engine.matches(document) for document in documents] == nonempty
            for document, outputs, document_pins, truth in zip(
                documents, expected, pins, verdicts
            ):
                assert list(engine.enumerate(document)) == outputs, (arm, document)
                assert [engine.eval(document, pin) for pin in document_pins] == truth

    tally.run(run)
    return tally


class TestNonSequentialInputs:
    """Non-sequential automata reach the engine only as their Proposition
    5.6 product (``compile_va`` builds it when the planner did not), so the
    one sequential sweep answers for them — unplanned and at every opt
    level — exactly like the seed's general (Theorem 5.10) evaluator."""

    @pytest.mark.parametrize(
        "source, documents",
        [
            pytest.param(
                _non_sequential_csv_va(2),
                ["f0=ab;f1=cd;", "f0=;f1=x;", "f0=a;", ""],
                id="e21-csv",
            ),
            pytest.param(parse("(x{a})*"), ["", "a", "aa", "aab"], id="star"),
            pytest.param(
                parse("(x{a}|y{b}|z{a})*"),
                ["", "ab", "aba", "bb"],
                id="star-of-unions",
            ),
            pytest.param(_dangling_open_va(), ["", "a", "aa"], id="dangling-open"),
        ],
    )
    def test_fixed_cases_match_the_seed(self, source, documents):
        _check_non_sequential(source, documents).assert_flushed(limits=(2,))

    def test_random_non_sequential_vas_match_the_seed(self):
        @given(
            seed=st.integers(min_value=0, max_value=5_000),
            document=documents(max_length=4),
        )
        @settings(max_examples=EXAMPLES, deadline=None)
        def check(seed, document):
            automaton = random_va(6, seed=seed)
            if is_sequential(automaton):
                return
            _check_non_sequential(automaton, [document, document + "a"])

        check()
