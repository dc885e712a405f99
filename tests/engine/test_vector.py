"""The batch APIs against per-document calls, bit for bit.

``matches_many``, ``index_many`` and ``evaluate_many`` take a vector of
documents.  The contract is that every observable output — NonEmp
verdicts, document indexes, candidate spans, mapping sets, enumeration
order — is *identical* to the per-document calls on a fresh engine and
to the seed reference.  NonEmp's own walk is tested in
``tests/engine/test_compiled.py::TestNonEmp``.  The hypothesis sweeps run the same batches both ways at every opt level
and under every flat-DFA state budget of
:data:`tests.engine_checks.LIMITS`; the deterministic tests cover the
numpy interning gate and the tuning constants.
"""

import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.automata.labels import Open
from repro.automata.sequential import is_sequential
from repro.automata.thompson import to_va
from repro.automata.va import VA
from repro.engine import CompiledSpanner, compile_va
from repro.engine import kernel as kernel_module
from repro.engine.compiled import compile_spanner
from repro.engine.kernel import FlatTables, numpy_or_none
from repro.engine.tables import DocumentIndex
from repro.evaluation.eval_problem import non_empty_va
from repro.plan import OPT_LEVELS, plan
from repro.rgx.parser import parse
from repro.rgx.semantics import mappings as seed_mappings
from repro.workloads.expressions import seller_like_sequential_rgx
from tests.engine_checks import FlushTally, flat_limit
from tests.strategies import documents, rgx_expressions

pytestmark = [pytest.mark.kernel, pytest.mark.differential]

PATTERNS = [
    ".*x{a+}.*",
    "(a|b)*x{(ab)+}y{b*}(a|b)*",
    ".*u{ab*}v{ba}.*",
    "a*x{a|b}b*",
]

BATCH = ["", "a", "b", "ab", "ba", "aabba", "ab" * 20, "b" * 7, "abab" + "b" * 5]

#: A pattern whose DFAs outgrow every small budget (see
#: ``tests/engine/test_kernel.py``).
HEAVY = "(a|b)*a(a|b)(a|b)(a|b)x{(a|b)*}"


def _examples(default: int = 25) -> int:
    try:
        value = int(os.environ.get("REPRO_DIFFERENTIAL_EXAMPLES", ""))
    except ValueError:
        return default
    return value if value > 0 else default


EXAMPLES = _examples()


def _per_document(pattern, batch, opt_level=None):
    """Verdicts and mapping sets from per-document calls on a fresh engine."""
    engine = compile_spanner(pattern, opt_level=opt_level)
    return (
        [engine.matches(text) for text in batch],
        [engine.mappings(text) for text in batch],
    )


class TestGates:
    def test_no_numpy_env_gates_the_layer(self, monkeypatch):
        """``REPRO_NO_NUMPY=1`` keeps long documents off the numpy
        interning path, the one numpy path left."""
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        monkeypatch.setattr(kernel_module, "NUMPY_INTERN_MIN", 1)
        assert numpy_or_none() is None
        cva = compile_va(plan(parse(PATTERNS[0]), opt_level=1).automaton)
        flat = FlatTables(cva.kernel)
        monkeypatch.setattr(FlatTables, "_intern_numpy", None)  # must not be reached
        assert flat.intern("baab") == bytes(
            flat.classes.classify(char) for char in "baab"
        )

    def test_batch_accept_on_a_non_sequential_source(self):
        """``compile_va`` sequentialises a non-sequential automaton, so its
        batch verdicts walk the product's DFA and match the seed."""
        base = to_va(seller_like_sequential_rgx(1))
        looped = base.transitions + ((base.final, Open("v0"), base.final),)
        automaton = VA(base.num_states, base.initial, base.final, looped)
        assert not is_sequential(automaton)
        texts = [*BATCH, "f0=ab;", "f0=;", "f0=a;f0=b;", "xf0=a;"]
        expected = [non_empty_va(automaton, text) for text in texts]
        assert any(expected) and not all(expected)
        assert CompiledSpanner(automaton).matches_many(texts) == expected


class TestBatchFunctions:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_batch_accept_matches_per_document_eval(self, pattern):
        engine = compile_spanner(pattern)
        expected = [non_empty_va(engine.automaton, text) for text in BATCH]
        assert engine.matches_many(BATCH) == expected
        assert [compile_spanner(pattern).eval(text, {}) for text in BATCH] == expected

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_batch_index_matches_per_document_index(self, pattern):
        engine = compile_spanner(pattern)
        cva = engine.tables
        for text, index in zip(BATCH, engine.index_many(BATCH)):
            reference = DocumentIndex(cva, text)
            assert index.reach == reference.reach
            assert index.coreach == reference.coreach
            for variable in sorted(cva.variables):
                assert index.candidate_spans(variable) == (
                    reference.candidate_spans(variable)
                ), (text, variable)

    def test_empty_batch(self):
        engine = compile_spanner(PATTERNS[0])
        assert engine.matches_many([]) == []
        assert engine.index_many([]) == []

    def test_all_empty_documents(self):
        engine = compile_spanner("x{a*}")
        verdicts = engine.matches_many(["", "", ""])
        assert verdicts == [compile_spanner("x{a*}").eval("", {}), True, True]


class TestCompiledBatchApi:
    """The batch APIs against per-document calls on a fresh engine, and
    against themselves once their caches are warm."""

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_matches_many_identical_with_layer_off(self, pattern):
        expected, _ = _per_document(pattern, BATCH)
        engine = compile_spanner(pattern)
        assert engine.matches_many(BATCH) == expected
        # Second call is served from the verdict cache, same answers.
        assert engine.matches_many(BATCH) == expected

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_evaluate_many_identical_with_layer_off(self, pattern):
        _, expected = _per_document(pattern, BATCH)
        assert compile_spanner(pattern).evaluate_many(BATCH) == expected
        engine = compile_spanner(pattern)
        for index, text in zip(engine.index_many(BATCH), BATCH):
            assert index.reach == DocumentIndex(engine.tables, text).reach

    def test_extraction_order_survives_index_many(self):
        engine = compile_spanner(PATTERNS[1])
        engine.index_many(BATCH)
        reference = compile_spanner(PATTERNS[1])
        for text in BATCH:
            assert list(engine.extract(text)) == list(reference.extract(text))


class TestHypothesisDifferential:
    """The acceptance sweep: batches at every opt level and state budget,
    batch APIs against per-document calls and the seed semantics."""

    def test_matches_many_every_opt_level(self):
        tally = FlushTally()

        @given(
            expression=rgx_expressions(),
            batch=st.lists(documents(), min_size=0, max_size=6),
        )
        @example(expression=parse(HEAVY), batch=["abbababbabab", "ab", ""])
        @settings(max_examples=EXAMPLES, deadline=None)
        def check(expression, batch):
            def run():
                for level in OPT_LEVELS:
                    expected, _ = _per_document(expression, batch, level)
                    engine = compile_spanner(expression, opt_level=level)
                    assert engine.matches_many(batch) == expected, level

            tally.run(run)

        check()
        tally.assert_flushed()

    def test_evaluate_many_every_opt_level(self):
        tally = FlushTally()

        @given(
            expression=rgx_expressions(),
            batch=st.lists(documents(), min_size=0, max_size=4),
        )
        @example(expression=parse(HEAVY), batch=["abbababbabab", "ab", ""])
        @settings(max_examples=EXAMPLES, deadline=None)
        def check(expression, batch):
            def run():
                for level in OPT_LEVELS:
                    _, expected = _per_document(expression, batch, level)
                    engine = compile_spanner(expression, opt_level=level)
                    assert engine.evaluate_many(batch) == expected, level

            tally.run(run)

        check()
        tally.assert_flushed()

    def test_vector_agrees_with_seed(self):
        tally = FlushTally()

        @given(
            expression=rgx_expressions(),
            batch=st.lists(documents(), min_size=1, max_size=4),
        )
        @example(expression=parse(HEAVY), batch=["abbababbabab", "ab"])
        @settings(max_examples=EXAMPLES, deadline=None)
        def check(expression, batch):
            expected = [seed_mappings(expression, text) for text in batch]

            def run():
                engine = compile_spanner(expression)
                assert engine.evaluate_many(batch) == expected
                assert engine.matches_many(batch) == [bool(out) for out in expected]

            tally.run(run)

        check()
        tally.assert_flushed()


SMALL_BATCH = ["", "a", "ab", "ba" * 9, "aabba"]


def _assert_batch_matches_seed(pattern=".*x{a+}.*"):
    expected = [seed_mappings(parse(pattern), text) for text in SMALL_BATCH]
    engine = compile_spanner(pattern)
    assert engine.matches_many(SMALL_BATCH) == [bool(out) for out in expected]
    assert engine.evaluate_many(SMALL_BATCH) == expected


class TestEnvironmentOverrides:
    """The process-wide knobs: the two tuning constants of
    :mod:`repro.engine.kernel` (patched in-process) and ``REPRO_NO_NUMPY``.
    """

    def test_tiny_flat_state_limit_still_identical(self):
        # A budget this small flushes on nearly every new state, inside
        # a batch and inside a document: outputs must not change.
        with flat_limit(2) as probe:
            _assert_batch_matches_seed()
            _assert_batch_matches_seed(HEAVY)
        assert probe.flushes > 0

    def test_numpy_intern_threshold_zero_still_identical(self, monkeypatch):
        # Threshold 0 interns every document, the empty one too, via numpy.
        monkeypatch.setattr(kernel_module, "NUMPY_INTERN_MIN", 0)
        calls = []
        original = FlatTables._intern_numpy

        def spy(self, text):
            calls.append(text)
            return original(self, text)

        monkeypatch.setattr(FlatTables, "_intern_numpy", spy)
        _assert_batch_matches_seed()
        assert bool(calls) == (numpy_or_none() is not None)

    def test_no_numpy_env_still_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        monkeypatch.setattr(kernel_module, "NUMPY_INTERN_MIN", 1)
        _assert_batch_matches_seed()
