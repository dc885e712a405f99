"""Unit tests for the compiled engine (tables, pruning, batch API)."""

import dataclasses
import random
import re
import sys
import threading

import pytest

from repro.automata.labels import EPS, Close, Open, Sym
from repro.automata.sequential import is_sequential
from repro.automata.simulate import evaluate_va
from repro.automata.thompson import to_va
from repro.automata.va import VABuilder
from repro.alphabet import CharSet
from repro.engine import CompiledSpanner, compile_va
from repro.engine import compiled as compiled_module
from repro.engine.compiled import compile_spanner
from repro.evaluation.enumerate import enumerate_va, enumerate_va_oracle
from repro.evaluation.eval_problem import non_empty_va
from repro.plan import planner
from repro.rgx.parser import parse
from repro.spanner import Spanner
from repro.spans.mapping import NULL, ExtendedMapping, Mapping
from repro.spans.span import Span, all_spans
from repro.util.errors import BudgetExceededError
from benchmarks.e2e.inputs import LOGS_PATTERN, REGISTRY_PATTERN, logs_ok, registry_ok
from repro.workloads import land_registry, server_logs
from tests.engine_checks import flat_limit


def build_mixed_va():
    """A small VA with ε, ops, positive and cofinite letter predicates."""
    b = VABuilder()
    q0, q1, q2, q3 = b.add_states(4)
    b.add(q0, EPS, q1)
    b.add(q0, Sym(CharSet.of("ab")), q1)
    b.add(q1, Open("x"), q2)
    b.add(q2, Sym(CharSet.excluding(",")), q2)
    b.add(q2, Close("x"), q3)
    return b.build(initial=q0, final=q3)


class TestCompiledTables:
    def test_step_agrees_with_edge_scan(self):
        va = build_mixed_va()
        cva = compile_va(va)
        for state in range(va.num_states):
            for char in "ab,z~":
                expected = sorted(
                    target
                    for label, target in va.out_edges(state)
                    if isinstance(label, Sym) and label.charset.contains(char)
                )
                assert sorted(cva.step(state, char)) == expected

    def test_step_is_memoised(self):
        cva = compile_va(build_mixed_va())
        first = cva.step(2, "z")
        assert cva.step(2, "z") is first

    def test_buckets_partition_transitions(self):
        va = build_mixed_va()
        cva = compile_va(va)
        bucketed = (
            sum(len(t) for t in cva.eps)
            + sum(len(t) for t in cva.opens)
            + sum(len(t) for t in cva.closes)
            + len(cva.sym_edges)
        )
        assert bucketed == len(va.transitions)

    def test_compile_va_is_cached(self):
        va = build_mixed_va()
        assert compile_va(va) is compile_va(va)

    def test_sequentiality_precomputed(self):
        # Sequentiality is settled at compile time: a sequential input is
        # compiled as is, a non-sequential one as its Proposition 5.6 product.
        sequential = to_va(parse("x{a*}y{b*}"))
        assert compile_va(sequential).va is sequential
        looping = to_va(parse("(x{a})*"))
        assert not is_sequential(looping)
        assert is_sequential(compile_va(looping).va)

    def test_product_over_budget_is_a_compile_error(self, monkeypatch):
        monkeypatch.setattr(planner, "DEFAULT_SEQUENTIALIZE_BUDGET", 3)
        compile_va.cache_clear()  # an equal automaton may be cached already
        with pytest.raises(BudgetExceededError):
            compile_va(to_va(parse("(x{a}|y{b}|z{a})*")))
        with pytest.raises(BudgetExceededError):
            CompiledSpanner(to_va(parse("(x{a}|y{b})*")))


class TestSpanPruning:
    def test_candidates_cover_all_outputs(self):
        engine = compile_spanner(".*Seller: x{[^,\n]*},.*")
        document = "Noise line\nSeller: John, ID75\nSeller: Mark, ID7\n"
        index = engine.index(document)
        candidates = set(index.candidate_spans("x"))
        outputs = evaluate_va(engine.automaton, document)
        for mapping in outputs:
            assert mapping["x"] in candidates

    def test_pruning_shrinks_candidate_list(self):
        engine = compile_spanner(".*Seller: x{[^,\n]*},.*")
        document = "Noise line\nSeller: John, ID75\nSeller: Mark, ID7\n"
        candidates = engine.index(document).candidate_spans("x")
        assert 0 < len(candidates) < len(all_spans(len(document))) / 4

    def test_unmatchable_variable_has_no_candidates(self):
        engine = compile_spanner("x{a}|b")
        assert engine.index("b").candidate_spans("x") == ()


class TestCompiledSpanner:
    def test_accepts_all_source_kinds(self):
        pattern = "x{a*}b"
        from_text = compile_spanner(pattern)
        from_ast = compile_spanner(parse(pattern))
        from_va = compile_spanner(to_va(parse(pattern)))
        from_spanner = compile_spanner(Spanner.compile(pattern))
        results = {
            engine.mappings("aab") == {Mapping({"x": Span(1, 3)})}
            for engine in (from_text, from_ast, from_va, from_spanner)
        }
        assert results == {True}

    def test_idempotent_on_compiled(self):
        engine = compile_spanner("x{a}")
        assert compile_spanner(engine) is engine

    def test_rejects_unknown_source(self):
        with pytest.raises(TypeError):
            compile_spanner(42)

    def test_extract_matches_seed_spanner(self):
        pattern = ".*Seller: x{[^,\n]*},.*"
        document = "Seller: John, ID75\nSeller: Mark, ID7\n"
        assert compile_spanner(pattern).extract(document) == Spanner.compile(
            pattern
        ).extract(document)

    def test_enumeration_order_matches_seed(self):
        va = to_va(parse(".*x{[^b]}.*"))
        document = "abca"
        assert list(compile_spanner(va).enumerate(document)) == list(
            enumerate_va_oracle(va, document)
        )

    def test_enumerate_with_start_pin(self):
        engine = compile_spanner("(x{(a|b)*}|y{(a|b)*})*")
        document = "ab"
        start = ExtendedMapping({"x": Span(1, 2)})
        produced = set(engine.enumerate(document, start=start))
        expected = {
            m
            for m in evaluate_va(engine.automaton, document)
            if m.get("x") == Span(1, 2)
        }
        assert produced == expected

    def test_non_sequential_automaton(self):
        engine = compile_spanner("(x{a})*")
        assert not engine.is_sequential
        assert engine.mappings("aa") == evaluate_va(engine.automaton, "aa")

    def test_eval_is_memoised(self):
        engine = compile_spanner(".*x{a+}.*")
        pinned = ExtendedMapping({"x": Span(1, 2)})
        assert engine.eval("aa", pinned)
        key = (len("aa"), hash("aa"), frozenset(pinned.items()))
        assert key in engine._verdicts
        assert engine.eval("aa", pinned)  # second call hits the cache

    def test_eval_null_pin(self):
        engine = compile_spanner("x{a}|b")
        assert engine.eval("b", ExtendedMapping({"x": NULL}))
        assert not engine.eval("a", ExtendedMapping({"x": NULL}))

    def test_matches_and_count(self):
        engine = compile_spanner(".*x{a}.*")
        assert engine.matches("bab")
        assert not engine.matches("bbb")
        assert engine.count("aaa") == 3

    def test_check_model(self):
        engine = compile_spanner("x{a}(y{b}|ε)c*")
        assert engine.check("ac", Mapping({"x": Span(1, 2)}))
        assert not engine.check(
            "ac", Mapping({"x": Span(1, 2), "y": Span(2, 3)})
        )

    def test_empty_document(self):
        engine = compile_spanner("x{a*}")
        assert engine.mappings("") == {Mapping({"x": Span(1, 1)})}

    def test_variable_free_pattern(self):
        engine = compile_spanner("a*")
        assert engine.mappings("aaa") == {Mapping.empty()}
        assert engine.mappings("ab") == set()


class TestBatchApi:
    def test_evaluate_many_matches_per_document(self):
        engine = compile_spanner(".*x{a+}.*")
        documents = ["baab", "ab", "", "baab"]
        batch = engine.evaluate_many(documents)
        assert batch == [engine.mappings(d) for d in documents]

    def test_evaluate_many_caches_repeated_documents(self):
        # Enumeration builds one output DAG per document; what a repeated
        # document shares is its interned class sequence.
        # (The kernel is shared with every engine of the same automaton.)
        engine = compile_spanner(".*x{a+}.*")
        interned = engine.kernel_stats()["interned"]
        outputs = engine.evaluate_many(["bzaab", "bzaab", "bzaab"])
        assert outputs[0] == outputs[1] == outputs[2] and outputs[0]
        assert engine.kernel_stats()["interned"] <= interned + 1
        assert engine.cache_stats()["dags"] == 3

    def test_index_cache_keys_are_constant_size(self):
        # (len, hash) keys instead of the document text: no unbounded key
        # memory on large documents, text verified on hit.
        engine = compile_spanner(".*x{a+}.*")
        document = "b" * 1000 + "a"
        index = engine.index(document)
        assert engine.index(document) is index
        assert (len(document), hash(document)) in engine._indexes

    def test_index_cache_eviction_is_lru_not_fifo(self):
        from repro.engine import compiled as compiled_module

        engine = compile_spanner(".*x{a+}.*")
        documents = [f"a{'b' * i}" for i in range(compiled_module._DOCUMENT_CACHE_LIMIT)]
        for document in documents:
            engine.index(document)
        oldest = engine.index(documents[0])  # touch: becomes most-recent
        engine.index("a new document")  # evicts documents[1], not [0]
        assert engine.index(documents[0]) is oldest
        assert (len(documents[1]), hash(documents[1])) not in engine._indexes

    def test_verdict_cache_eviction_is_lru(self):
        from repro.engine import compiled as compiled_module

        engine = compile_spanner(".*x{a+}.*")
        empty = ExtendedMapping.empty()
        engine.eval("a", empty)
        first_key = (1, hash("a"), frozenset())
        assert first_key in engine._verdicts
        limit = compiled_module._VERDICT_CACHE_LIMIT
        documents = [f"a{'b' * i}" for i in range(1, limit)]
        for document in documents:
            engine.eval(document, empty)
        engine.eval("a", empty)  # touch: most-recent again
        engine.eval("one more", empty)  # evicts the oldest untouched entry
        assert first_key in engine._verdicts
        assert (len(documents[0]), hash(documents[0]), frozenset()) not in (
            engine._verdicts
        )

    def test_extract_many(self):
        engine = compile_spanner("x{a}b")
        assert engine.extract_many(["ab", "bb"]) == [[{"x": "a"}], []]

    def test_spanner_facade_evaluate_many(self):
        spanner = Spanner.compile(".*x{a+}.*")
        documents = ["baab", "ab"]
        assert spanner.evaluate_many(documents) == [
            spanner.mappings(d) for d in documents
        ]

    def test_workload_batch_helpers(self):
        from repro.workloads import batch_workload, land_registry, server_logs

        documents = [
            land_registry.generate_document(2, seed=7),
            land_registry.generate_document(3, seed=11),
        ]
        batches = land_registry.extract_batch(documents)
        expected = [
            land_registry.expected_extraction(
                land_registry.generate_rows(2, seed=7)
            ),
            land_registry.expected_extraction(
                land_registry.generate_rows(3, seed=11)
            ),
        ]
        assert batches == expected

        logs = [server_logs.generate_document(3, seed=1)]
        (tuples,) = server_logs.extract_batch(logs)
        assert tuples == server_logs.expected_tuples(
            server_logs.generate_lines(3, seed=1)
        )

        engine, results = batch_workload(parse(".*x{a+}.*"), ["baab"])
        assert isinstance(engine, CompiledSpanner)
        assert results == [engine.mappings("baab")]


#: A pattern whose flat DFA outgrows every small state budget: it must
#: remember the last four letters.  As a plain regex over ``{a, b}``:
HEAVY = "(a|b)*a(a|b)(a|b)(a|b)x{(a|b)*}"
HEAVY_RE = re.compile("[ab]*a[ab]{3}[ab]*")


def _ab_documents(count: int, seed: int, longest: int = 12) -> list[str]:
    rng = random.Random(seed)
    return [
        "".join(rng.choice("ab") for _ in range(rng.randrange(longest)))
        for _ in range(count)
    ]


class TestNonEmp:
    """NonEmp (``matches``, ``matches_many``, the unpinned ``eval``) is one
    forward walk of the pin-free flat DFA per distinct document."""

    def test_a_flush_in_the_middle_of_a_batch(self, monkeypatch):
        documents = _ab_documents(40, seed=3)
        expected = [bool(HEAVY_RE.fullmatch(d)) for d in documents]
        with flat_limit(3):
            engine = compile_spanner(HEAVY)
            dfa = engine.tables.kernel.flat.dfa
            before = []
            walk = compiled_module.non_empty_compiled

            def spy(cva, text):
                before.append(dfa.flushes)
                return walk(cva, text)

            monkeypatch.setattr(compiled_module, "non_empty_compiled", spy)
            assert engine.matches_many(documents) == expected
        # The DFA flushed between two documents of the one batch, after
        # the first walk had already been answered.
        assert before[0] < before[-1]
        assert engine.matches_many(documents) == expected  # from the cache

    def test_more_than_256_alphabet_classes(self):
        letters = [chr(0x100 + offset) for offset in range(300)]
        pattern = ".*x{(" + "|".join(letter * 2 for letter in letters) + ")}.*"
        documents = [
            "",
            "z" + letters[0] * 2 + "z",
            letters[7] * 2 + letters[299] * 3,
            letters[5] + letters[6],
            "".join(letters[:40]),
        ]
        engine = compile_spanner(pattern)
        assert engine.kernel_stats()["classes"] == 301
        assert isinstance(engine.tables.kernel.flat.intern("ab"), tuple)
        expected = [non_empty_va(engine.automaton, d) for d in documents]
        assert expected == [False, True, True, False, False]
        assert engine.matches_many(documents) == expected
        assert [compile_spanner(pattern).matches(d) for d in documents] == expected

    def test_duplicate_and_empty_documents(self):
        engine = compile_spanner("x{a*}")
        documents = ["", "a", "", "ba", "a", ""]
        assert engine.matches_many(documents) == [True, True, True, False, True, True]
        stats = engine.cache_stats()
        # One walk per distinct document.
        assert (stats["verdict_misses"], stats["verdict_size"]) == (3, 3)
        assert engine.matches_many(documents) == [True, True, True, False, True, True]
        assert engine.cache_stats()["verdict_hits"] == len(documents)

    def test_four_threads_share_one_engine(self):
        """Walks of several threads interleave on one flushing DFA: each
        holds the DFA's lock, so no flush lands under another's ids."""
        # Long walks, so that thread switches land inside them.
        batches = [_ab_documents(150, seed=seed, longest=400) for seed in range(4)]
        failures = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with flat_limit(8) as probe:
                engine = compile_spanner(HEAVY)
                barrier = threading.Barrier(len(batches))

                def run(batch):
                    try:
                        barrier.wait(timeout=30)
                        for start in range(0, len(batch), 16):
                            chunk = batch[start : start + 16]
                            verdicts = engine.matches_many(chunk)
                            if verdicts != [bool(HEAVY_RE.fullmatch(d)) for d in chunk]:
                                failures.append(chunk)
                    except Exception as error:  # pragma: no cover - reported below
                        failures.append(error)

                threads = [threading.Thread(target=run, args=(b,)) for b in batches]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        assert probe.flushes > 0

    def test_every_nonemp_entry_shares_one_key_object(self):
        engine = compile_spanner(".*x{a+}.*")
        engine.matches("ba")
        engine.matches_many(["bb", "ab", "ba"])
        engine.eval("aa", {})
        engine.eval("b", ExtendedMapping.empty())
        engine.check("ba", Mapping({"x": Span(2, 3)}))
        pins = [key[2] for key in engine._verdicts]
        unpinned = [p for p in pins if not p]
        assert len(unpinned) == 5
        assert len({id(p) for p in unpinned}) == 1
        assert unpinned[0] is compiled_module._NO_PINS
        assert len(pins) == 6  # the pinned check keeps its own key


#: Two variables, so enumeration also runs pinned backward passes.
PAIR = "(a|b)*x{a(a|b)*}(a|b)*y{b}(a|b)(a|b)"


def _seed_outputs(pattern: str, documents: list[str]) -> list[list[Mapping]]:
    automaton = to_va(parse(pattern))
    return [list(enumerate_va(automaton, text, compiled=False)) for text in documents]


def _registry_reshaped(rows, seed: int):
    """Rows of the same shape — kinds, tax present or not — with other values."""
    rng = random.Random(seed)
    return [
        dataclasses.replace(
            row,
            name=rng.choice(land_registry._FIRST_NAMES),
            identifier=f"ID{rng.randrange(1, 999)}",
            tax=None if row.tax is None else f"${rng.randrange(1, 99)},{rng.randrange(100, 999)}",
        )
        for row in rows
    ]


def _logs_reshaped(lines, seed: int):
    """Lines of the same shape — user and referrer present or not — with
    other values."""
    rng = random.Random(seed)
    return [
        dataclasses.replace(
            line,
            path=rng.choice(server_logs._PATHS),
            status=rng.choice(server_logs._STATUS),
            user=None if line.user is None else rng.choice(server_logs._USERS),
            referrer=None if line.referrer is None else rng.choice(server_logs._PATHS),
        )
        for line in lines
    ]


@pytest.mark.kernel
@pytest.mark.differential
class TestSharedLevelStore:
    """The backward pass's level descriptions and memo hang off the
    engine's frontier DFA, so every document shares them: bounded,
    flushed like a DFA, and guarded by the DFA's lock."""

    @pytest.mark.parametrize(
        "pattern, opt_level, generate, render, reshape, ok",
        [
            (
                REGISTRY_PATTERN,
                1,
                lambda: land_registry.generate_rows(16, seed=1),
                land_registry.render,
                _registry_reshaped,
                registry_ok,
            ),
            (
                LOGS_PATTERN,
                None,
                lambda: server_logs.generate_lines(40, seed=1),
                server_logs.render,
                _logs_reshaped,
                logs_ok,
            ),
        ],
        ids=["registry", "logs"],
    )
    def test_a_fresh_document_of_a_warm_shape_adds_no_levels(
        self, pattern, opt_level, generate, render, reshape, ok
    ):
        engine = compile_spanner(pattern, opt_level=opt_level)
        warm = generate()
        assert ok(warm, engine.extract(render(warm)))
        held = engine.kernel_stats()["dag_levels"]
        assert held > 0
        for seed in range(2, 8):
            fresh = reshape(warm, seed)
            assert ok(fresh, engine.extract(render(fresh)))
            assert engine.kernel_stats()["dag_levels"] == held, seed

    @pytest.mark.parametrize("limit", [2, 3])
    @pytest.mark.parametrize("pattern", [HEAVY, PAIR])
    def test_store_flushes_inside_an_enumeration_keep_outputs(self, pattern, limit):
        documents = _ab_documents(10, seed=limit, longest=14)
        expected = _seed_outputs(pattern, documents)
        assert any(expected)
        flushed_inside = False
        with flat_limit(limit) as probe:
            engine = compile_spanner(to_va(parse(pattern)))
            for text, mappings in zip(documents, expected):
                before = probe.level_flushes
                assert list(engine.enumerate(text)) == mappings, text
                assert engine.count(text) == len(mappings)
                # Two flushes in one document: at least one fell inside a pass.
                flushed_inside |= probe.level_flushes - before >= 2
        # flat_limit checked on exit that no store outgrew the budget.
        assert flushed_inside

    def test_four_threads_share_one_store(self):
        """Backward passes of several threads interleave on one flushing
        store: each holds the frontier DFA's lock, so no flush lands
        under another's ids."""
        batches = [_ab_documents(12, seed=seed, longest=14) for seed in range(4)]
        expected = [_seed_outputs(PAIR, batch) for batch in batches]
        failures = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with flat_limit(3) as probe:
                engine = compile_spanner(to_va(parse(PAIR)))
                barrier = threading.Barrier(len(batches))

                def run(batch, outputs):
                    try:
                        barrier.wait(timeout=30)
                        for _ in range(3):
                            for text, mappings in zip(batch, outputs):
                                if list(engine.enumerate(text)) != mappings:
                                    failures.append(text)
                    except Exception as error:  # pragma: no cover - reported below
                        failures.append(error)

                threads = [
                    threading.Thread(target=run, args=pair)
                    for pair in zip(batches, expected)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        assert probe.level_flushes > 0
