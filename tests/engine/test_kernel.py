"""The bitmask kernel: alphabet classes, mask tables, the flat lazy DFA.

Every test cross-validates the kernel against the seed's set-based
evaluators (:mod:`repro.evaluation`, :mod:`repro.rgx.semantics`) or a
plain-set reference index, or pins down the kernel's own invariants —
class partitioning with cofinite charsets, the state budget and its
flushes, sharing across documents.  The cross-validations run under every
flat-DFA state budget of :data:`tests.engine_checks.LIMITS`.  All tests
carry the ``kernel`` marker, so ``pytest -m kernel`` is the fast loop for
engine work.
"""

import itertools
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.alphabet import CharSet
from repro.automata.labels import Open, Sym
from repro.automata.sequential import is_sequential
from repro.automata.thompson import to_va
from repro.automata.va import VA
from repro.engine import compile_va
from repro.engine import compiled as compiled_module
from repro.engine import kernel as kernel_module
from repro.engine.compiled import CompiledSpanner, compile_spanner
from repro.engine.kernel import AlphabetClasses, FlatDFA, Trail, iter_bits
from repro.engine.oracle import OutputDAG, eval_compiled
from repro.engine.tables import DocumentIndex
from repro.evaluation.enumerate import enumerate_va_oracle
from repro.evaluation.eval_problem import eval_va
from repro.plan import OPT_LEVELS, plan
from repro.rgx.parser import parse
from repro.rgx.semantics import mappings as seed_mappings
from repro.spans.mapping import NULL, ExtendedMapping
from repro.spans.span import Span, all_spans
from repro.workloads.expressions import seller_like_sequential_rgx
from tests.engine_checks import FlushTally, _set_closure, reference_index, set_closure
from tests.strategies import VARIABLES, documents, rgx_expressions

pytestmark = pytest.mark.kernel

#: An automaton whose subset construction needs more than 8 DFA states
#: (the classic ``(a|b)*a(a|b)^3`` blow-up), so every small budget flushes.
HEAVY = parse("(a|b)*a(a|b)(a|b)(a|b)x{(a|b)*}")
HEAVY_DOCUMENT = "abbababbabab"


class TestAlphabetClasses:
    def test_positive_charsets_group_equivalent_letters(self):
        classes = AlphabetClasses([CharSet.of("ab"), CharSet.of("bc")])
        assert classes.classify("a") != classes.classify("b")
        assert classes.classify("b") != classes.classify("c")
        assert classes.classify("a") != classes.classify("c")

    def test_cofinite_charset_gets_a_residual_class(self):
        classes = AlphabetClasses([CharSet.of("ab"), CharSet.excluding(",")])
        # a and b enable exactly the same predicates: one class.
        assert classes.classify("a") == classes.classify("b")
        # every unmentioned character shares the residual class ...
        assert classes.classify("z") == classes.residual
        assert classes.classify("é") == classes.residual
        # ... and the excluded comma is in neither of those classes.
        assert classes.classify(",") not in (
            classes.classify("a"),
            classes.residual,
        )

    def test_residual_never_merges_with_a_mentioned_letter(self):
        # A mentioned character always differs from the residual on the
        # predicate that mentions it (positive: contains; cofinite:
        # excludes), so the residual class is its own class.
        for charsets in (
            [CharSet.excluding("a")],
            [CharSet.of("a"), CharSet.excluding("b")],
            [CharSet.excluding("ab"), CharSet.of("a")],
        ):
            classes = AlphabetClasses(charsets)
            mentioned = {ch for cs in charsets for ch in cs.chars}
            assert all(
                classes.classify(ch) != classes.residual for ch in mentioned
            )

    def test_representatives_are_faithful(self):
        charsets = [CharSet.of("ab"), CharSet.excluding(",x")]
        classes = AlphabetClasses(charsets)
        for char in "abx,z~Q":
            representative = classes.representatives[classes.classify(char)]
            for charset in charsets:
                assert charset.contains(representative) == charset.contains(char)

    def test_intern_maps_text_to_class_ids(self):
        classes = AlphabetClasses([CharSet.of("ab")])
        interned = classes.intern("abz")
        assert interned == (
            classes.classify("a"),
            classes.classify("b"),
            classes.residual,
        )

    def test_no_sym_edges_still_has_a_residual(self):
        classes = AlphabetClasses([])
        assert classes.count == 1
        assert classes.intern("xyz") == (classes.residual,) * 3


#: Mentions ASCII, latin-1 (``é``, ``\xa0``, ``ÿ``), BMP (``’``, ``李``)
#: and astral characters, with a cofinite charset: six classes.
INTERN_PATTERN = ".*x{[aé\xa0]+}[^,’]y{李|\U0001F600|ÿ}.*"


def _intern_reference(flat, text):
    """The per-character reference, in the representation ``intern`` uses."""
    ids = flat.classes.intern(text)
    return ids if flat.num_classes > 256 else bytes(ids)


class TestInterning:
    """``FlatTables.intern`` — ``bytes.translate`` below U+0100,
    ``str.translate`` above, tuples past 256 classes — against
    :meth:`AlphabetClasses.intern`, character by character."""

    @pytest.mark.parametrize(
        "text",
        [
            "Seller: John, ID75",
            "café\xa0ÿ, é,a",
            "a李’,é",
            "a\U0001F600,ÿ",
            "a\ud800é",
            "\udfff",
            "",
            "ab, é" * 409 + "ab",
            "ab, é" * 410,
            "ab, é" * 410 + "a",
            "ab, é" * 410 + "李",
            ("ab, " * 1024)[:2047],
            "ab, " * 512,
        ],
        ids=lambda text: f"{len(text)}:{ascii(text[:8])}",
    )
    def test_matches_reference(self, text):
        flat = compile_spanner(INTERN_PATTERN).tables.kernel.flat
        assert flat.num_classes == 6
        assert flat.intern(text) == _intern_reference(flat, text)
        flat._interned.clear()
        assert flat.intern(text) == _intern_reference(flat, text)  # warm tables

    @given(text=st.text())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_any_text(self, text):
        flat = compile_spanner(INTERN_PATTERN).tables.kernel.flat
        assert flat.intern(text) == _intern_reference(flat, text)

    def test_more_than_256_classes_interns_tuples(self):
        """300 single-letter edges from U+0021: latin-1 documents too
        intern to tuples once the class ids outgrow a byte."""
        letters = [chr(0x21 + offset) for offset in range(300)]
        automaton = VA(2, 0, 1, tuple((0, Sym(CharSet.of(c)), 1) for c in letters))
        flat = compile_va(automaton).kernel.flat
        assert flat.num_classes == 301
        for text in ["", "!~é", "".join(letters), "z\u014c\U0001F600"]:
            ids = flat.intern(text)
            assert isinstance(ids, tuple)
            assert ids == _intern_reference(flat, text)


class TestKernelTables:
    def test_free_closure_masks_match_set_closure(self):
        cva = compile_va(to_va(parse(".*x{a+}y{b*}.*")))
        for state in range(cva.num_states):
            expected = set_closure(cva, {state})
            assert frozenset(iter_bits(cva.kernel.free[state])) == expected
            expected_rev = set_closure(cva, {state}, reverse=True)
            assert frozenset(iter_bits(cva.kernel.free_rev[state])) == expected_rev

    def test_context_closures_match_set_closure_both_directions(self):
        """Every pin partition's closure, forward and reverse, is the set
        closure over its restricted free moves; the reverse context
        mirrors the forward one and, with no pins, is the kernel's own."""
        base = to_va(seller_like_sequential_rgx(2))
        looped = base.transitions + ((base.final, Open("v0"), base.final),)
        non_sequential = VA(base.num_states, base.initial, base.final, looped)
        for cva in (compile_va(to_va(parse(".*x{a+}y{b*}.*"))), compile_va(non_sequential)):
            kernel = cva.kernel
            variables = sorted(cva.variables)
            for roles in itertools.product("pnf", repeat=len(variables)):
                pinned = frozenset(v for v, r in zip(variables, roles) if r == "p")
                nulls = frozenset(v for v, r in zip(variables, roles) if r == "n")
                forward = [[] for _ in range(cva.num_states)]
                backward = [[] for _ in range(cva.num_states)]
                for source in range(cva.num_states):
                    targets = list(cva.eps[source])
                    targets += [t for v, t in cva.opens[source] if v not in pinned]
                    targets += [
                        t for v, t in cva.closes[source] if v not in pinned | nulls
                    ]
                    for target in targets:
                        forward[source].append(target)
                        backward[target].append(source)
                context = kernel.context(pinned, nulls)
                reverse = context.reverse
                for state in range(cva.num_states):
                    assert frozenset(iter_bits(context.closure[state])) == (
                        _set_closure(forward, {state})
                    )
                    assert frozenset(iter_bits(reverse.closure[state])) == (
                        _set_closure(backward, {state})
                    )
                assert reverse.reverse is context
                for variable in variables:
                    for key in (("o", variable), ("c", variable)):
                        swapped = tuple((t, s) for s, t in context.op_edges(key))
                        assert reverse.op_edges(key) == swapped
            free = kernel.context(frozenset(), frozenset())
            assert free.reverse.closure is kernel.free_rev
            assert kernel.flat.context(free.reverse) is kernel.flat.dfa_rev
            assert free.flat_dfa_rev is kernel.flat.dfa_rev

    def test_class_step_masks_match_step(self):
        cva = compile_va(to_va(seller_like_sequential_rgx(2)))
        kernel = cva.kernel
        for class_id, representative in enumerate(kernel.classes.representatives):
            for state in range(cva.num_states):
                expected = 0
                for target in cva.step(state, representative):
                    expected |= 1 << target
                assert kernel.step[class_id][state] == expected

    def test_delta_memo_records_transitions(self):
        """The flat DFA's rows are the lazy-DFA memo: explore once, then hit."""
        cva = compile_va(to_va(seller_like_sequential_rgx(1)))
        kernel = cva.kernel
        dfa = FlatDFA(
            kernel.free, kernel.flat.step_flat, cva.num_states, kernel.classes.count
        )
        start = dfa.intern(kernel.free[cva.initial])
        class_id = kernel.classes.residual
        assert dfa.rows[start][class_id] == -1  # unexplored
        target = dfa.explore(start, class_id)
        assert dfa.rows[start][class_id] == target  # recorded
        seeds = 0
        for state in iter_bits(kernel.free[cva.initial]):
            seeds |= kernel.step[class_id][state]
        expected = 0
        for state in iter_bits(seeds):
            expected |= kernel.free[state]
        assert dfa.masks[target] == expected

    def test_delta_memo_is_bounded(self, monkeypatch):
        """At the budget the DFA flushes and keeps going (RE2's policy)."""
        monkeypatch.setattr(kernel_module, "FLAT_STATE_LIMIT", 3)
        dfa = FlatDFA((1, 2, 4, 8), [0] * 4, 4, 1)
        assert [dfa.intern(mask) for mask in (1, 2)] == [1, 2]
        assert len(dfa.masks) == 3 and dfa.flushes == 0  # full
        old_masks = dfa.masks
        assert dfa.intern(4) == 1  # flushed: dead state 0, then mask 4
        assert (dfa.generation, dfa.flushes) == (1, 1)
        assert dfa.masks == [0, 4] and dfa.masks is not old_masks
        assert dfa.ids == {0: 0, 4: 1}
        assert list(dfa.rows[0]) == [0]  # the dead state loops to itself
        assert old_masks == [0, 1, 2]  # captured lists stay readable
        for mask in range(1, 64):
            dfa.intern(mask)
            assert len(dfa.masks) <= 3

    def test_explore_that_flushes_records_nothing(self, monkeypatch):
        monkeypatch.setattr(kernel_module, "FLAT_STATE_LIMIT", 2)
        # Two states, one class: 0b01 steps to 0b10 and 0b10 to itself.
        dfa = FlatDFA((1, 2), [2, 2], 2, 1)
        first = dfa.intern(1)
        target = dfa.explore(first, 0)  # 0b10 is new: the table flushes
        assert dfa.flushes == 1
        assert dfa.masks[target] == 2
        assert list(dfa.rows[target]) == [-1]  # the old row is gone

    def test_trail_resolves_ids_across_flushes(self, monkeypatch):
        monkeypatch.setattr(kernel_module, "FLAT_STATE_LIMIT", 2)
        dfa = FlatDFA((1, 2, 4), [0] * 3, 3, 1)
        forward = Trail(dfa, 5, 1)
        forward.ids[1] = dfa.intern(1)
        forward.ids[2] = dfa.intern(1)
        forward.ids[3] = dfa.intern(2)  # flushes
        forward.sync(3)
        forward.ids[4] = dfa.intern(4)  # flushes again
        forward.sync(4)
        assert forward.masks() == [0, 1, 1, 2, 4]
        assert [forward.mask(pos) for pos in range(5)] == [0, 1, 1, 2, 4]
        backward = Trail(dfa, 4, 3)
        backward.ids[3] = dfa.intern(4)
        backward.ids[2] = dfa.intern(1)  # flushes
        backward.sync(2)
        backward.ids[1] = dfa.intern(1)
        backward.sync(1)  # no flush since the last sync: a no-op
        assert backward.masks() == [0, 1, 1, 4]

    def test_intern_cache_verifies_text_on_hit(self):
        cva = compile_va(to_va(seller_like_sequential_rgx(1)))
        flat = cva.kernel.flat
        first = flat.intern("f0=a;")
        assert flat.intern("f0=a;") is first  # cached
        second = flat.intern("f0=b;")  # different text, no false hit
        assert second is not first and len(flat._interned) == 2


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


class TestKernelAgainstSets:
    """The kernel against set-based references, under every state budget."""

    def test_document_index_matches_set_index(self):
        tally = FlushTally()

        @given(expression=rgx_expressions(), document=documents())
        @example(expression=HEAVY, document=HEAVY_DOCUMENT)
        @settings(max_examples=60, deadline=None)
        def check(expression, document):
            def run():
                cva = compile_va(plan(expression, opt_level=1).automaton)
                index = DocumentIndex(cva, document)
                reach, coreach, candidate_spans = reference_index(cva, document)
                assert index.reach == reach
                assert index.coreach == coreach
                for variable in sorted(cva.variables):
                    assert index.candidate_spans(variable) == candidate_spans(
                        variable
                    )

            tally.run(run)

        check()
        tally.assert_flushed()

    def test_sequential_eval_matches_sets(self):
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
        @settings(max_examples=60, deadline=None)
        def check(expression, document, pinned):
            def run():
                automaton = plan(expression, opt_level=1).automaton
                verdict = eval_compiled(compile_va(automaton), document, pinned)
                assert verdict == eval_va(automaton, document, pinned)
                # Unplanned: compile_va sequentialises the raw translation.
                raw = to_va(expression)
                assert eval_compiled(compile_va(raw), document, pinned) == verdict
                assert eval_va(raw, document, pinned) == verdict

            tally.run(run)

        check()
        tally.assert_flushed()

    def test_node_sweep_matches_set_sweep(self):
        tally = FlushTally()

        @given(expression=rgx_expressions(), document=documents(max_length=5))
        @example(expression=HEAVY, document=HEAVY_DOCUMENT)
        @settings(max_examples=40, deadline=None)
        def check(expression, document):
            def run():
                automaton = plan(expression, opt_level=1).automaton
                cva = compile_va(automaton)
                if not cva.mentioned_variables:
                    return
                variable = sorted(cva.mentioned_variables)[0]
                dag = OutputDAG(cva, document)
                values = [value for value, _, _ in dag.children(dag.restrict({}), variable)]
                expected = [
                    value
                    for value in [*sorted(all_spans(len(document))), NULL]
                    if eval_va(automaton, document, ExtendedMapping({variable: value}))
                ]
                assert values == expected

            tally.run(run)

        check()
        tally.assert_flushed()

    def test_mappings_identical_at_every_opt_level(self):
        tally = FlushTally()

        @given(expression=rgx_expressions(), document=documents())
        @example(expression=HEAVY, document=HEAVY_DOCUMENT)
        @settings(max_examples=40, deadline=None)
        def check(expression, document):
            expected = seed_mappings(expression, document)

            def run():
                for level in OPT_LEVELS:
                    engine = compile_spanner(expression, opt_level=level)
                    assert engine.mappings(document) == expected, level

            tally.run(run)

        check()
        tally.assert_flushed()

    def test_sequentialised_non_sequential_source(self):
        # The e21 trick: a bogus unusable open makes the source fail the
        # sequentiality check; planning (or, unplanned and at opt 0,
        # compile_va) sequentialises it, and the kernel then runs the
        # Theorem-5.7 sweep on the product.
        base = to_va(seller_like_sequential_rgx(2))
        looped = base.transitions + ((base.final, Open("v0"), base.final),)
        automaton = VA(base.num_states, base.initial, base.final, looped)
        document = "f0=ab;f1=cd;"
        expected = set(enumerate_va_oracle(automaton, document))
        assert expected  # the workload must actually produce mappings
        tally = FlushTally()

        def run():
            for engine in (
                CompiledSpanner(automaton),
                compile_spanner(automaton, opt_level=0),
                compile_spanner(automaton, opt_level=1),
            ):
                assert is_sequential(engine.tables.va)
                assert engine.mappings(document) == expected

        tally.run(run)
        tally.assert_flushed()


class TestKernelSharing:
    def test_delta_memo_shared_across_documents(self, monkeypatch):
        """A second document with the same class sequence explores nothing."""
        engine = compile_spanner(".*x{a+}.*")
        assert engine.mappings("baa")
        explored = []
        original = FlatDFA.explore

        def counting_explore(self, sid, class_id):
            explored.append((sid, class_id))
            return original(self, sid, class_id)

        monkeypatch.setattr(FlatDFA, "explore", counting_explore)
        assert engine.mappings("caa")  # 'b' and 'c' are both residual
        assert explored == []
        stats = engine.kernel_stats()
        assert stats["flat_states"] > 0
        assert stats["classes"] >= 2

    def test_flat_states_shared_across_documents(self):
        engine = compile_spanner(".*x{a+}.*")
        assert engine.mappings("baa")
        states = engine.kernel_stats()["flat_states"]
        assert states > 0
        assert engine.mappings("aab")  # same classes: mostly interned hits
        assert engine.kernel_stats()["flat_states"] >= states

    def test_stats_count_every_flat_dfa(self):
        """``flat_states`` sums every distinct DFA: the document-index
        pair, the DFAs of the pin contexts (with their reverse ones) and
        the enumeration's frontier DFA."""
        engine = compile_spanner(".*x{a+}b y{c+}.*", opt_level=1)
        document = "zaabccz aab cc abc"
        assert engine.mappings(document)
        assert engine.index(document)
        assert engine.eval(document, ExtendedMapping({"x": Span(9, 11)}))
        kernel = engine.tables.kernel
        flat = kernel.flat
        dfas = {id(flat.dfa): flat.dfa, id(flat.dfa_rev): flat.dfa_rev}
        for context in kernel._contexts.values():
            for dfa in (context.flat_dfa, context.flat_dfa_rev):
                if dfa is not None:
                    dfas[id(dfa)] = dfa
        assert len(dfas) == 3  # the index pair and the pinned context's
        assert flat.frontier.states > 1
        stats = engine.kernel_stats()
        assert stats["flat_states"] == (
            sum(len(dfa.masks) for dfa in dfas.values()) + flat.frontier.states
        )
        assert stats["flat_states"] == 44
        assert stats["flushes"] == 0
        assert stats["dag_levels"] == len(flat.frontier.store.levels) > 0
        assert sorted(stats) == [
            "classes",
            "contexts",
            "dag_levels",
            "flat_states",
            "flushes",
            "interned",
        ]


def _pinned_subset(expected, pins: dict) -> set:
    """The mappings of ``expected`` that agree with every pin (``⊥`` = unset)."""
    return {
        mapping
        for mapping in expected
        if all(
            (variable not in mapping) if value is NULL else mapping.get(variable) == value
            for variable, value in pins.items()
        )
    }


class TestKernelThreads:
    def test_lru_caches_survive_threads_evicting_each_other(self, monkeypatch):
        """The kernel's context and interning LRUs hold one or two entries,
        so threads sharing one engine evict each other's keys between a
        lookup and its recency update; every thread still gets the seed's
        output for its own documents and pin partitions."""
        monkeypatch.setattr(kernel_module, "_CONTEXT_LIMIT", 1)
        monkeypatch.setattr(kernel_module, "_INTERN_LIMIT", 2)
        # One-entry engine caches: every enumeration re-interns its
        # document and rebuilds its pin contexts.
        monkeypatch.setattr(compiled_module, "_DOCUMENT_CACHE_LIMIT", 1)
        monkeypatch.setattr(compiled_module, "_VERDICT_CACHE_LIMIT", 1)
        pattern = ".*x{a+}(b y{c+}|ε)(z w{a*}|ε).*"
        expression = parse(pattern)
        rng = random.Random(11)
        documents = [
            "".join(rng.choice("abcz") for _ in range(rng.randint(6, 12)))
            for _ in range(12)
        ]
        jobs = []
        for text in documents:
            expected = seed_mappings(expression, text)
            partitions = [{}, {"y": NULL}, {"w": NULL, "y": NULL}]
            partitions += [dict(mapping.items()) for mapping in sorted(expected, key=repr)[:2]]
            partitions += [{"x": mapping["x"]} for mapping in expected if "x" in mapping][:1]
            for pins in partitions:
                jobs.append((text, pins, _pinned_subset(expected, pins)))
        assert any(want for _, _, want in jobs)
        compile_va.cache_clear()
        engine = compile_spanner(pattern)
        failures = []

        def work(offset):
            try:
                for round_ in range(30):
                    for k in range(offset, len(jobs), 6):
                        text, pins, want = jobs[(k + round_) % len(jobs)]
                        got = set(engine.enumerate(text, ExtendedMapping(pins)))
                        if got != want:
                            failures.append((text, pins))
            except Exception as error:  # reported below, not swallowed
                failures.append(repr(error))

        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            compile_va.cache_clear()
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
