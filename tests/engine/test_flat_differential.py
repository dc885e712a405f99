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
from repro.engine.kernel import numpy_or_none
from repro.engine.oracle import FlatNodeSweep, SweepShare, eval_compiled
from repro.engine.tables import DocumentIndex
from repro.engine.vector import batch_index
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


def _shared_walk(cva, document, start=None) -> tuple[list[Mapping], list[FlatNodeSweep]]:
    """Algorithm 2's recursion as ``CompiledSpanner.enumerate`` runs it —
    children built while their parent's span generator is paused — over
    nodes sharing one :class:`SweepShare`.  Every node is checked against
    a private twin (its own empty share) on its accepted spans, ``⊥``
    verdict and every candidate span's verdict.  Returns the outputs in
    order and the shared nodes in creation order."""
    index = DocumentIndex(cva, document)
    share = SweepShare()
    outputs: list[Mapping] = []
    nodes: list[FlatNodeSweep] = []

    def walk(base, remaining):
        if not remaining:
            outputs.append(Mapping({v: s for v, s in base.items() if isinstance(s, Span)}))
            return
        variable, rest = remaining[0], remaining[1:]
        node = FlatNodeSweep(cva, document, base, variable, index.classes, share)
        nodes.append(node)
        positions = (index.open_positions(variable), index.close_positions(variable))
        accepted = []
        for span in node.spans(*positions):
            accepted.append(span)
            walk({**base, variable: span}, rest)
        twin = FlatNodeSweep(cva, document, base, variable)
        assert accepted == list(twin.spans(*positions)), (base, variable)
        assert node.accepts_null() == twin.accepts_null(), (base, variable)
        for span in index.candidate_spans(variable):
            assert node.accepts_span(span) == twin.accepts_span(span), (base, variable, span)
        if node.accepts_null():
            walk({**base, variable: NULL}, rest)

    pins = ExtendedMapping.empty() if start is None else start
    if eval_compiled(cva, document, pins):
        base = dict(pins.items())
        walk(base, [v for v in sorted(cva.mentioned_variables) if v not in base])
    return outputs, nodes


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
                raw = to_va(expression)
                cva = compile_va(automaton)
                if not cva.mentioned_variables:
                    return
                for variable in sorted(cva.mentioned_variables):
                    node = FlatNodeSweep(cva, document, {}, variable)
                    pin = ExtendedMapping({variable: NULL})
                    verdict = node.accepts_null()
                    assert verdict == eval_va(automaton, document, pin)
                    assert verdict == eval_va(raw, document, pin)
                    for span in all_spans(len(document)):
                        pin = ExtendedMapping({variable: span})
                        verdict = node.accepts_span(span)
                        assert verdict == eval_va(automaton, document, pin), span
                        assert verdict == eval_va(raw, document, pin), span
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
        """Node sweeps on one pin context share a DFA.  Between two span
        queries of one node, a fresh node's sweeps flush that DFA under
        the first node's paused recordings: its open sweep and its lane's
        trails, and with a pinned base also its own backward sweep below
        the last pin.  Each keeps its frontier as masks, which the next
        extension re-interns in the new generation.  Open positions run
        from the last down, so every query reaches one close lower than
        the one before and resumes a paused backward sweep."""
        cases = [
            ("(a|b)*x{a(a|b)*}(a|b)*b(a|b)(a|b)", {}),
            ("(a|b)*x{a(a|b)*}(a|b)*y{b}(a|b)(a|b)", {"y": Span(10, 11)}),
        ]
        document = HEAVY_DOCUMENT
        spans = sorted(all_spans(len(document)), key=lambda span: (-span.begin, span.end))
        for pattern, base in cases:
            automaton = plan(parse(pattern), opt_level=1).automaton
            expected = [
                eval_va(automaton, document, ExtendedMapping({**base, "x": span}))
                for span in spans
            ]
            assert any(expected) and not all(expected)
            null_verdict = eval_va(automaton, document, ExtendedMapping({**base, "x": NULL}))
            with flat_limit(limit) as probe:
                cva = compile_va(automaton)
                node = FlatNodeSweep(cva, document, base, "x")
                verdicts = []
                for span, verdict in zip(spans, expected):
                    verdicts.append(node.accepts_span(span))
                    other = FlatNodeSweep(cva, document, base, "x")
                    assert other._fdfa is node._fdfa
                    assert other.accepts_null() == null_verdict
                    assert other.accepts_span(span) == verdict
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
        each thread still gets the seed's output.  The multi-line logs run
        at a budget of 2 with many sibling nodes per sweep context: every
        enumeration call keeps its sweep share to itself, so no thread
        resumes or rejoins another call's trails."""
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
            assert probe.flushes > 0


#: Multi-line documents: each line or row opens a sibling node in most
#: sweep contexts, so the nodes share prefixes, suffixes and rejoins.
LOGS = server_logs.access_expression()
LOGS_DOCUMENT = server_logs.render(server_logs.generate_lines(9, seed=5))
REGISTRY = land_registry.seller_tax_expression()
REGISTRY_DOCUMENT = land_registry.generate_document(12, seed=6)
#: Tail states that keep changing (the last three letters are tracked),
#: so a sibling's sweep past its pins flushes small DFAs deep into the
#: stretch it compares.
SUFFIX = parse("(a|b)*x{a}(a|b)*(y{b}|ε)(a|b)*a(a|b)(a|b)")
SUFFIX_DOCUMENT = "abbababbaabbabb"
#: ``x`` sorts first but sits later in the text, with a fixed-length
#: tail after it: nodes refining ``y`` sweep backward from ``x``'s close
#: themselves, where no ``.*`` loop blurs a slot taken one position off.
TAIL = parse("(a|b)*y{a}(a|b)*x{b}(a|b)(a|b)")
TAIL_DOCUMENT = "abbababbaabbab"
#: Acceptance needs the footer: a rejoin mid-document must take the
#: reference's final state, not the state it rejoined in.
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
    """Sibling nodes sharing a :class:`SweepShare` (pin-free prefix and
    suffix trails, rejoins with a sibling's trail) answer exactly like
    private nodes, and enumeration stays the seed's, order included."""

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
        "expression, document, start, rejoins",
        [
            pytest.param(LOGS, LOGS_DOCUMENT, None, True, id="logs"),
            pytest.param(LOGS, LOGS_DOCUMENT, {"ref": NULL}, True, id="logs-null-ref"),
            pytest.param(LOGS, LOGS_DOCUMENT, {"status": "first"}, False, id="logs-pinned-status"),
            pytest.param(REGISTRY, REGISTRY_DOCUMENT, None, True, id="registry"),
            pytest.param(REGISTRY, REGISTRY_DOCUMENT, {"y": NULL}, False, id="registry-null-tax"),
            pytest.param(
                REGISTRY, REGISTRY_DOCUMENT, {"x": "first"}, False, id="registry-pinned-name"
            ),
            pytest.param(SUFFIX, SUFFIX_DOCUMENT, None, True, id="suffix"),
            pytest.param(FOOTER, FOOTER_DOCUMENT, None, True, id="footer"),
            pytest.param(TAIL, TAIL_DOCUMENT, None, False, id="tail"),
        ],
    )
    def test_shared_nodes_match_private_nodes_and_the_seed(
        self, expression, document, start, rejoins
    ):
        """Every budget: each shared node against its private twin, and
        the enumeration (library and shared walk) against the seed.
        ``"first"`` stands for the span the first output assigns;
        ``rejoins`` says whether siblings rejoin at the unbounded budget."""
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
        tally = FlushTally()
        rejoined = []

        def run():
            engine = compile_spanner(expression, opt_level=1)
            assert list(engine.enumerate(document, start)) == expected
            outputs, nodes = _shared_walk(engine.tables, document, start)
            assert outputs == expected
            rejoined.append(sum(len(node._trails) > 2 for node in nodes))

        tally.run(run)
        tally.assert_flushed()
        assert (rejoined[0] > 0) == rejoins, rejoined

    @pytest.mark.parametrize("limit", [2, 3, 20])
    def test_a_flush_between_the_reference_and_a_rejoin_check(self, limit):
        """A sibling records the lane's rejoin reference, then a sweep on
        the same DFA flushes it: the reference's ids now belong to a dead
        generation, so later siblings must not rejoin on them — they
        answer like private nodes.  At 2 and 3 states stale ids collide
        with live ones; at 20 the later sibling's sweep mostly hits cached
        rows, so its rejoin check really reads the reference's ids."""
        with flat_limit(limit) as probe:
            cva = compile_va(plan(LOGS, opt_level=1).automaton)
            index = DocumentIndex(cva, LOGS_DOCUMENT)
            share = SweepShare()
            root = FlatNodeSweep(cva, LOGS_DOCUMENT, {}, "path", index.classes, share)
            paths = list(
                root.spans(index.open_positions("path"), index.close_positions("path"))
            )
            assert len(paths) > 3
            positions = (index.open_positions("ref"), index.close_positions("ref"))
            checked = 0
            for at, span in enumerate(paths):
                node = FlatNodeSweep(
                    cva, LOGS_DOCUMENT, {"path": span}, "ref", index.classes, share
                )
                reference = node._lane.reference
                if reference is None or reference.trails is not node._trails:
                    continue  # not the lane's reference
                if at == len(paths) - 1:
                    continue
                flushes = node._fdfa.flushes
                # A private sibling on the same context DFA flushes it.
                FlatNodeSweep(cva, LOGS_DOCUMENT, {"path": paths[-1]}, "ref")
                assert node._fdfa.flushes > flushes
                assert node._forward.current_from() is None
                later = paths[at + 1]
                sibling = FlatNodeSweep(
                    cva, LOGS_DOCUMENT, {"path": later}, "ref", index.classes, share
                )
                twin = FlatNodeSweep(cva, LOGS_DOCUMENT, {"path": later}, "ref")
                assert node._forward not in sibling._trails
                assert list(sibling.spans(*positions)) == list(twin.spans(*positions))
                assert sibling.accepts_null() == twin.accepts_null()
                for candidate in index.candidate_spans("ref"):
                    assert sibling.accepts_span(candidate) == twin.accepts_span(candidate)
                checked += 1
            assert checked
        assert probe.flushes > 0

    @pytest.mark.parametrize("limit", [2, 3, 8])
    def test_lane_trails_resume_across_flushes(self, limit):
        """The shared trails grow in steps, and between two steps other
        sweeps flush their DFAs: every slot still holds the mask one
        uninterrupted sweep records."""
        document = LOGS_DOCUMENT
        end = len(document) + 1
        with flat_limit(limit) as probe:
            cva = compile_va(plan(LOGS, opt_level=1).automaton)
            stepped = FlatNodeSweep(cva, document, {}, "path")._lane
            whole = FlatNodeSweep(cva, document, {}, "path")._lane
            step = end // 6
            for target in range(1, end + 1, step):
                stepped.forward_to(target)
                stepped.backward_to(end + 1 - target)
                flushes = probe.flushes
                # Private sweeps on the same context DFAs, both directions.
                other = FlatNodeSweep(cva, document, {}, "path")
                other._lane.forward_to(end)
                other._lane.backward_to(1)
                assert probe.flushes > flushes
            forward, backward = stepped.forward_to(end), stepped.backward_to(1)
            expected_forward, expected_backward = whole.forward_to(end), whole.backward_to(1)
            for pos in range(1, end + 1):
                assert forward.id(pos) and backward.id(pos), pos
                assert forward.mask(pos) == expected_forward.mask(pos), pos
                assert backward.mask(pos) == expected_backward.mask(pos), pos

    def test_siblings_sweep_only_their_pinned_stretch(self, monkeypatch):
        """On a 160-line log, each sweep context has one node that sweeps
        to the end — the first whose run survives its pins — and every
        other node's own windows stay within its pinned line and the
        distance to its rejoin point: a few hundred positions at most."""
        nodes = []
        build = FlatNodeSweep.__init__

        def recording(self, *args, **kwargs):
            build(self, *args, **kwargs)
            nodes.append(self)

        monkeypatch.setattr(FlatNodeSweep, "__init__", recording)
        lines = server_logs.generate_lines(160, seed=181)
        document = server_logs.render(lines)
        engine = compile_spanner(LOGS, opt_level=1)
        found = list(engine.enumerate(document))
        assert server_logs.extraction_tuples(document, found) == (
            server_logs.expected_tuples(lines)
        )
        contexts: dict[object, list[FlatNodeSweep]] = {}
        for node in nodes:
            contexts.setdefault(node._context, []).append(node)
        assert max(len(siblings) for siblings in contexts.values()) >= 100
        bound = 200
        for siblings in contexts.values():
            forward = sorted(
                0 if node._forward is None else node._forward.hi - node._forward.lo
                for node in siblings
            )
            assert forward[:-1] == [] or forward[-2] <= bound, forward[-3:]
            for node in siblings:
                if node._backward is not None:
                    assert node._backward.hi - node._backward.lo <= bound
        assert len(document) > 20 * bound


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
