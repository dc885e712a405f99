"""Differential harness: the flat lazy DFA against the seed reference.

The flat tables (:class:`~repro.engine.kernel.FlatTables`, the sweeps of
:mod:`repro.engine.oracle` and :class:`~repro.engine.oracle.FlatNodeSweep`)
are the engine's one sequential path.  Every test here runs the same
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

import os
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.automata.labels import Open
from repro.automata.thompson import to_va
from repro.automata.va import VA
from repro.engine import compile_va
from repro.engine.compiled import compile_spanner
from repro.engine.kernel import numpy_or_none
from repro.engine.oracle import (
    FlatNodeSweep,
    GeneralNode,
    eval_general_compiled,
    eval_sequential_compiled,
)
from repro.engine.tables import DocumentIndex
from repro.engine.vector import batch_index
from repro.evaluation.enumerate import enumerate_va_oracle
from repro.evaluation.eval_problem import eval_va
from repro.plan import OPT_LEVELS, plan
from repro.rgx.parser import parse
from repro.rgx.semantics import mappings as seed_mappings
from repro.spans.mapping import NULL, ExtendedMapping
from repro.spans.span import Span, all_spans
from repro.workloads.expressions import seller_like_sequential_rgx
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


class TestFlatAgainstDictAndSets:
    """Hypothesis sweeps: the flat path against the seed's set-based
    evaluators.  (The class keeps its name so test ids stay stable; of
    the paths it names, only the set-based reference remains.)"""

    def test_document_index_three_ways(self):
        """Per-document sweep, lockstep batch sweep and a set-based
        reference build the same index."""
        tally = FlushTally()

        @given(expression=rgx_expressions(), document=documents())
        @example(expression=HEAVY, document=HEAVY_DOCUMENT)
        @settings(max_examples=EXAMPLES, deadline=None)
        def check(expression, document):
            def run():
                cva = compile_va(plan(expression, opt_level=1).automaton)
                index = DocumentIndex(cva, document)
                reach, coreach, candidate_spans = reference_index(cva, document)
                batch = batch_index(cva, [document])
                indexes = [index] if batch is None else [index, batch[0]]
                for built in indexes:
                    assert built.reach == reach
                    assert built.coreach == coreach
                    for variable in sorted(cva.variables):
                        assert built.candidate_spans(variable) == (
                            candidate_spans(variable)
                        ), variable

            tally.run(run)

        check()
        tally.assert_flushed()

    def test_sequential_eval_three_ways(self):
        """Theorem 5.7 on the flat DFA, Theorem 5.10's FPT sweep and the
        seed ``eval_va`` agree on every pin."""
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
                if not cva.is_sequential:
                    return
                verdict = eval_sequential_compiled(cva, document, pinned)
                assert verdict == eval_general_compiled(cva, document, pinned)
                assert verdict == eval_va(automaton, document, pinned)

            tally.run(run)

        check()
        tally.assert_flushed()

    def test_node_sweep_three_ways(self):
        """Every span verdict — and so the enumeration order — agrees.

        Queries run in candidate order (``i``-major), the access pattern
        the flat sweep's lazy open-sweep and backward co-acceptance
        caches are built for; querying *all* spans additionally hits the
        cache-extension and dead-state paths.
        """
        tally = FlushTally()

        @given(expression=rgx_expressions(), document=documents(max_length=5))
        @example(expression=HEAVY, document=HEAVY_DOCUMENT)
        @settings(max_examples=EXAMPLES, deadline=None)
        def check(expression, document):
            def run():
                automaton = plan(expression, opt_level=1).automaton
                cva = compile_va(automaton)
                if not cva.is_sequential or not cva.mentioned_variables:
                    return
                for variable in sorted(cva.mentioned_variables):
                    node = FlatNodeSweep(cva, document, {}, variable)
                    general = GeneralNode(cva, document, {}, variable)
                    verdict = node.accepts_null()
                    assert verdict == general.accepts_null()
                    assert verdict == eval_va(
                        automaton, document, ExtendedMapping({variable: NULL})
                    )
                    for span in all_spans(len(document)):
                        verdict = node.accepts_span(span)
                        assert verdict == general.accepts_span(span), span
                        assert verdict == eval_va(
                            automaton, document, ExtendedMapping({variable: span})
                        ), span
                    # Node-generated spans: the candidate product filtered
                    # by accepts_span, order included.
                    index = DocumentIndex(cva, document)
                    positions = (
                        index.open_positions(variable),
                        index.close_positions(variable),
                    )
                    expected = [
                        span
                        for span in index.candidate_spans(variable)
                        if FlatNodeSweep(cva, document, {}, variable).accepts_span(span)
                    ]
                    spans = FlatNodeSweep(cva, document, {}, variable).spans(*positions)
                    assert list(spans) == expected
                    assert list(general.spans(*positions)) == expected

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
        operation fires from a state the base entering mask lacks, so the
        open-source bit test must not skip that position: ``spans`` still
        equals the filtered candidate product and the seed's verdicts."""
        automaton = plan(parse(pattern), opt_level=1).automaton
        pins = [NULL, *all_spans(len(document))]
        cases = [
            (variable, {other: value})
            for variable, other in (("x", "y"), ("y", "x"))
            for value in pins
        ]
        accepted = 0
        tally = FlushTally()

        def run():
            nonlocal accepted
            cva = compile_va(automaton)
            assert cva.is_sequential
            index = DocumentIndex(cva, document)
            for variable, base in cases:
                positions = (
                    index.open_positions(variable),
                    index.close_positions(variable),
                )
                truth = [
                    span
                    for span in index.candidate_spans(variable)
                    if eval_va(
                        automaton, document, ExtendedMapping({**base, variable: span})
                    )
                ]
                reference = FlatNodeSweep(cva, document, base, variable)
                filtered = [
                    span
                    for span in index.candidate_spans(variable)
                    if reference.accepts_span(span)
                ]
                node = FlatNodeSweep(cva, document, base, variable)
                assert list(node.spans(*positions)) == filtered == truth, base
                general = GeneralNode(cva, document, base, variable)
                assert list(general.spans(*positions)) == truth, base
                accepted += len(truth)

        tally.run(run)
        assert accepted

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
        base = to_va(seller_like_sequential_rgx(2))
        looped = base.transitions + ((base.final, Open("v0"), base.final),)
        automaton = VA(base.num_states, base.initial, base.final, looped)
        document = "f0=ab;f1=cd;"
        expected = _seed_decoded(automaton, document)
        assert expected
        tally = FlushTally()

        def run():
            engine = compile_spanner(automaton, opt_level=1)
            assert engine.tables.is_sequential
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
            verdicts = [eval_sequential_compiled(cva, document, pin) for pin in pins]
            assert verdicts == expected

        tally.run(run)
        tally.assert_flushed()

    @pytest.mark.parametrize("limit", [2, 3])
    def test_interleaved_nodes_survive_each_others_flushes(self, limit):
        """Node sweeps on one pin context share a DFA.  Between two span
        queries of one node, a fresh node's base sweep flushes that DFA
        under the first node's paused open sweep, which must carry its
        live state over into the new generation."""
        expression = parse("(a|b)*x{a(a|b)*}(a|b)*b(a|b)(a|b)")
        automaton = plan(expression, opt_level=1).automaton
        document = HEAVY_DOCUMENT
        spans = list(all_spans(len(document)))
        expected = [
            eval_va(automaton, document, ExtendedMapping({"x": span}))
            for span in spans
        ]
        assert any(expected) and not all(expected)
        null_verdict = eval_va(automaton, document, ExtendedMapping({"x": NULL}))
        with flat_limit(limit) as probe:
            cva = compile_va(automaton)
            node = FlatNodeSweep(cva, document, {}, "x")
            verdicts = []
            for span in spans:
                verdicts.append(node.accepts_span(span))
                other = FlatNodeSweep(cva, document, {}, "x")
                assert other._fdfa is node._fdfa
                assert other.accepts_null() == null_verdict
        assert verdicts == expected
        assert probe.flushes > 0

    @pytest.mark.parametrize("limit", [2, 3])
    def test_interleaved_span_generation_survives_flushes(self, limit):
        """``spans`` pauses between yields — enumeration recurses there —
        and other nodes' sweeps flush the shared DFA meanwhile."""
        expression = parse("(a|b)*x{a(a|b)*}(a|b)*b(a|b)(a|b)")
        automaton = plan(expression, opt_level=1).automaton
        document = HEAVY_DOCUMENT
        expected = [
            span
            for span in all_spans(len(document))
            if eval_va(automaton, document, ExtendedMapping({"x": span}))
        ]
        assert expected
        with flat_limit(limit) as probe:
            cva = compile_va(automaton)
            index = DocumentIndex(cva, document)
            node = FlatNodeSweep(cva, document, {}, "x")
            spans = []
            for span in node.spans(index.open_positions("x"), index.close_positions("x")):
                spans.append(span)
                FlatNodeSweep(cva, document, {}, "x").accepts_null()
        assert spans == expected
        assert probe.flushes > 0

    def test_threads_sharing_an_engine_across_flushes(self):
        """Threads enumerating on one engine flush its shared DFAs under
        each other's sweeps; every sweep segment holds its DFA's lock, so
        each thread still gets the seed's output."""
        expression = parse("(a|b)*x{a(a|b)*}(a|b)*b(a|b)(a|b)")
        automaton = plan(expression, opt_level=1).automaton
        rng = random.Random(7)
        documents = [
            "".join(rng.choice("ab") for _ in range(rng.randint(16, 28)))
            for _ in range(8)
        ]
        expected = [list(enumerate_va_oracle(automaton, text)) for text in documents]
        assert any(expected)
        failures = []
        with flat_limit(3) as probe:
            engine = compile_spanner(expression, opt_level=1)

            def work(offset):
                try:
                    for round_ in range(40):
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
        assert failures == []
        assert probe.flushes > 0


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
    bytes, and the vector layer steps aside."""

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
            if numpy_or_none() is not None:
                assert batch_index(fresh.tables, WIDE_DOCUMENTS) is None

        tally.run(run)
        tally.assert_flushed()
