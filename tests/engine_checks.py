"""Shared helpers for the engine differential suites.

**State budgets.**  The flat lazy DFA (:class:`repro.engine.kernel.FlatDFA`)
and the enumeration's frontier DFA (:class:`repro.engine.oracle.FrontierDFA`)
flush when interning one more state would pass ``FLAT_STATE_LIMIT``.
Real workloads rarely get there, so the differential suites re-run each
check with the limit patched down to a handful of states:
:func:`flat_limit` patches the budget, starts from fresh compiled
tables, and watches every DFA of either kind built inside it; :class:`FlushTally` runs one check under
every budget in :data:`LIMITS` and remembers whether the small budgets
really flushed.

**A set-based reference index.**  :func:`reference_index` recomputes a
:class:`~repro.engine.tables.DocumentIndex`'s reach/coreach sets and
candidate spans with plain Python sets straight off the compiled
transition lists — no kernel, no DFA.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.engine import kernel as kernel_module
from repro.engine.kernel import FlatDFA
from repro.engine.oracle import FrontierDFA
from repro.engine.tables import CompiledVA, compile_va
from repro.spans.span import Span

#: The production budget first, then budgets small enough to flush.
LIMITS = (kernel_module.FLAT_STATE_LIMIT, 2, 3, 8)
SMALL_LIMITS = LIMITS[1:]


class Probe:
    """Every ``FlatDFA`` and ``FrontierDFA`` built under one budget, and
    the most states (or, for a frontier DFA's level store, descriptions)
    any of them ever held at once."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.dfas: list[FlatDFA | FrontierDFA] = []
        self.peak = 0

    @property
    def frontier_flushes(self) -> int:
        return sum(dfa.flushes for dfa in self.dfas if isinstance(dfa, FrontierDFA))

    @property
    def flushes(self) -> int:
        return sum(dfa.flushes for dfa in self.dfas)

    @property
    def level_flushes(self) -> int:
        return sum(dfa.level_flushes for dfa in self.dfas if isinstance(dfa, FrontierDFA))


@contextlib.contextmanager
def flat_limit(limit: int):
    """Patch ``FLAT_STATE_LIMIT`` to ``limit`` around fresh compiled tables.

    Yields a :class:`Probe`; on exit asserts that no DFA ever held more
    than ``limit`` states, and no frontier DFA's level store more than
    ``limit`` descriptions or ``limit`` × its class count memo entries.
    ``compile_va``'s cache is cleared on entry and exit, so kernels built
    under one budget never leak into another.
    """
    probe = Probe(limit)

    def watched(cls, size):
        original_init, original_intern = cls.__init__, cls.intern

        def init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            probe.dfas.append(self)

        def intern(self, key):
            sid = original_intern(self, key)
            probe.peak = max(probe.peak, size(self))
            return sid

        return init, intern

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_module, "FLAT_STATE_LIMIT", limit)
        for cls, size in (
            (FlatDFA, lambda dfa: len(dfa.masks)),
            (FrontierDFA, lambda dfa: dfa.states),
        ):
            init, intern = watched(cls, size)
            patch.setattr(cls, "__init__", init)
            patch.setattr(cls, "intern", intern)
        original_level_id = FrontierDFA.level_id

        def level_id(self, level):
            found = original_level_id(self, level)
            probe.peak = max(probe.peak, len(self.store.levels))
            return found

        patch.setattr(FrontierDFA, "level_id", level_id)
        compile_va.cache_clear()
        try:
            yield probe
        finally:
            compile_va.cache_clear()
    assert probe.peak <= limit, (
        f"a DFA or level store held {probe.peak} states under a limit of {limit}"
    )
    for dfa in probe.dfas:
        if isinstance(dfa, FrontierDFA):
            assert dfa.store.entries <= limit * dfa.num_classes, dfa.store.entries


class FlushTally:
    """Runs checks under every budget in :data:`LIMITS`, counting flushes."""

    def __init__(self) -> None:
        self.flushes = dict.fromkeys(LIMITS, 0)

    def run(self, check) -> None:
        """``check()`` once per budget, each on fresh tables."""
        for limit in LIMITS:
            with flat_limit(limit) as probe:
                check()
            self.flushes[limit] += probe.flushes

    def assert_flushed(self, limits=SMALL_LIMITS) -> None:
        """Every budget in ``limits`` flushed at least once (and the
        default never).  Checks on automata whose DFAs fit in a few
        states pass only the budgets below that size."""
        assert self.flushes[LIMITS[0]] == 0, self.flushes
        for limit in limits:
            assert self.flushes[limit] > 0, (
                f"no flush at FLAT_STATE_LIMIT={limit}: {self.flushes}"
            )


def _set_closure(adjacency, states) -> frozenset[int]:
    seen = set(states)
    frontier = list(seen)
    while frontier:
        for target in adjacency[frontier.pop()]:
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return frozenset(seen)


def set_closure(cva: CompiledVA, states, reverse: bool = False) -> frozenset[int]:
    """Closure of ``states`` under ε and variable operations as free moves.

    The adjacency is built here from the compiled edge buckets, so the
    reference shares no code with the kernel's free-move builder.
    """
    adjacency: list[list[int]] = [[] for _ in range(cva.num_states)]
    for source in range(cva.num_states):
        targets = [*cva.eps[source], *(t for _, t in cva.opens[source])]
        targets += [t for _, t in cva.closes[source]]
        for target in targets:
            if reverse:
                adjacency[target].append(source)
            else:
                adjacency[source].append(target)
    return _set_closure(adjacency, states)


def reference_index(cva: CompiledVA, text: str):
    """``(reach, coreach, candidate_spans)`` computed with Python sets.

    ``candidate_spans(variable)`` lists the spans ``(i, j)``, ``i``-major,
    where some open edge of the variable is live at ``i`` and some close
    edge at ``j`` — the definition :class:`DocumentIndex` implements.
    """
    end = len(text) + 1
    reach = [frozenset()] * (end + 1)
    current = set_closure(cva, {cva.initial})
    reach[1] = current
    for pos in range(1, end):
        seeds = {t for state in current for t in cva.step(state, text[pos - 1])}
        current = set_closure(cva, seeds) if seeds else frozenset()
        reach[pos + 1] = current
    coreach = [frozenset()] * (end + 1)
    current = set_closure(cva, {cva.final}, reverse=True)
    coreach[end] = current
    for pos in range(end - 1, 0, -1):
        seeds = {
            source
            for source, charset, target in cva.sym_edges
            if target in current and charset.contains(text[pos - 1])
        }
        current = set_closure(cva, seeds, reverse=True) if seeds else frozenset()
        coreach[pos] = current

    def live(table, variable):
        edges = table.get(variable, ())
        return [
            pos
            for pos in range(1, end + 1)
            if any(s in reach[pos] and t in coreach[pos] for s, t in edges)
        ]

    def candidate_spans(variable):
        opens = live(cva.opens_by_variable, variable)
        closes = live(cva.closes_by_variable, variable)
        return tuple(Span(i, j) for i in opens for j in closes if i <= j)

    return reach, coreach, candidate_spans
