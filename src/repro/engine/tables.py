"""Compiled transition tables for variable-set automata.

The seed evaluators walk ``va.out_edges(state)`` and dispatch on the label
class at every simulation step — a linear scan with ``isinstance`` checks in
the innermost loop.  :class:`CompiledVA` precompiles a :class:`~repro.automata.va.VA`
once into indexed buckets:

* ``eps[q]`` / ``opens[q]`` / ``closes[q]`` — ε-targets and variable
  operations, separated so sweeps never touch labels they cannot use;
* a letter-step table: positive finite charsets are exploded into a
  per-state ``char → targets`` dict, cofinite predicates stay as a short
  residual list, and resolved ``(state, char)`` steps are memoised.

The sweeps themselves run on the bitmask kernel these tables seed
(:mod:`repro.engine.kernel`), built lazily per automaton.  The kernel
reads its free moves — ε and variable operations collapsed into plain
edges, the over-approximation the reachability index below uses —
straight from the ``eps``/``opens``/``closes`` buckets.

:class:`DocumentIndex` pairs a compiled automaton with one document and
precomputes, per position, which states any run prefix can occupy
(``reach``) and which states can still finish the document (``coreach``).
From those two arrays it derives, per variable, the positions where an
``x⊢`` transition can fire on a live run (:meth:`~DocumentIndex.open_positions`)
and where a ``⊣x`` transition can (:meth:`~DocumentIndex.close_positions`).
:meth:`~DocumentIndex.candidate_spans` spells out their ``O(|d|²)``
product: a sound superset of every span an output assigns, kept for
inspection (enumeration reads the output DAG of
:mod:`repro.engine.oracle` instead).
"""

from __future__ import annotations

from functools import lru_cache

from repro.automata.labels import Close, Eps, Open, Sym
from repro.automata.sequential import is_sequential, make_sequential
from repro.automata.va import VA
from repro.engine.kernel import Kernel, Trail, _flat_sweep, _sweep_back, iter_bits
from repro.plan import planner
from repro.spans.mapping import Variable
from repro.spans.span import Span

#: Operation keys — hashable stand-ins for ``Open``/``Close`` labels in the
#: compiled sweeps (tuple hashing is cheaper than dataclass hashing).
OPEN, CLOSE = "o", "c"
OpKey = tuple[str, Variable]


def open_key(variable: Variable) -> OpKey:
    return (OPEN, variable)


def close_key(variable: Variable) -> OpKey:
    return (CLOSE, variable)


class CompiledVA:
    """Indexed transition tables for one automaton (document-independent)."""

    __slots__ = (
        "va",
        "num_states",
        "initial",
        "final",
        "eps",
        "opens",
        "closes",
        "sym_edges",
        "opens_by_variable",
        "closes_by_variable",
        "variables",
        "mentioned_variables",
        "_single",
        "_residual",
        "_step_cache",
        "_kernel",
    )

    def __init__(self, va: VA) -> None:
        self.va = va
        self.num_states = va.num_states
        self.initial = va.initial
        self.final = va.final
        count = va.num_states
        self.eps: list[tuple[int, ...]] = [() for _ in range(count)]
        self.opens: list[tuple[tuple[Variable, int], ...]] = [() for _ in range(count)]
        self.closes: list[tuple[tuple[Variable, int], ...]] = [() for _ in range(count)]
        #: Every letter transition as ``(source, charset, target)`` — the
        #: predicates :class:`~repro.engine.kernel.AlphabetClasses` partitions
        #: the alphabet by, whose class representatives seed the kernel's
        #: forward and reverse step tables.
        self.sym_edges: list[tuple[int, object, int]] = []
        single: list[dict[str, list[int]]] = [{} for _ in range(count)]
        residual: list[list[tuple[object, int]]] = [[] for _ in range(count)]
        eps_acc: list[list[int]] = [[] for _ in range(count)]
        opens_acc: list[list[tuple[Variable, int]]] = [[] for _ in range(count)]
        closes_acc: list[list[tuple[Variable, int]]] = [[] for _ in range(count)]
        for source, label, target in va.transitions:
            if isinstance(label, Eps):
                eps_acc[source].append(target)
            elif isinstance(label, Open):
                opens_acc[source].append((label.variable, target))
            elif isinstance(label, Close):
                closes_acc[source].append((label.variable, target))
            else:
                assert isinstance(label, Sym)
                self.sym_edges.append((source, label.charset, target))
                if label.charset.negated:
                    residual[source].append((label.charset, target))
                else:
                    for char in label.charset.chars:
                        single[source].setdefault(char, []).append(target)
        self.eps = [tuple(targets) for targets in eps_acc]
        self.opens = [tuple(edges) for edges in opens_acc]
        self.closes = [tuple(edges) for edges in closes_acc]
        #: Per-variable operation edges as ``(source, target)`` lists —
        #: precomputed so per-query code (candidate spans, counted
        #: closures) never rescans every state.
        by_open: dict[Variable, list[tuple[int, int]]] = {}
        by_close: dict[Variable, list[tuple[int, int]]] = {}
        for state in range(count):
            for variable, target in self.opens[state]:
                by_open.setdefault(variable, []).append((state, target))
            for variable, target in self.closes[state]:
                by_close.setdefault(variable, []).append((state, target))
        self.opens_by_variable = {
            variable: tuple(edges) for variable, edges in by_open.items()
        }
        self.closes_by_variable = {
            variable: tuple(edges) for variable, edges in by_close.items()
        }
        self._kernel: Kernel | None = None
        self._single = single
        self._residual = [tuple(edges) for edges in residual]
        self._step_cache: dict[tuple[int, str], tuple[int, ...]] = {}
        self.variables = va.variables
        self.mentioned_variables = va.mentioned_variables

    # -- the bitmask kernel ----------------------------------------------------

    @property
    def kernel(self) -> Kernel:
        """The bitmask kernel of this automaton (built lazily, then shared
        by every document index, oracle call and sweep context)."""
        if self._kernel is None:
            self._kernel = Kernel(self)
        return self._kernel

    # -- letter steps ----------------------------------------------------------

    def step(self, state: int, char: str) -> tuple[int, ...]:
        """Targets reachable from ``state`` by consuming ``char`` (memoised)."""
        key = (state, char)
        cached = self._step_cache.get(key)
        if cached is not None:
            return cached
        targets = list(self._single[state].get(char, ()))
        for charset, target in self._residual[state]:
            if charset.contains(char):
                targets.append(target)
        resolved = tuple(targets)
        self._step_cache[key] = resolved
        return resolved


@lru_cache(maxsize=128)
def compile_va(va: VA) -> CompiledVA:
    """Compile (and cache) the transition tables of an automaton.

    Every engine sweeps a *sequential* automaton (Theorem 5.7): a
    non-sequential input is replaced here by its Proposition 5.6 product
    under the planner's ``DEFAULT_SEQUENTIALIZE_BUDGET``, and a product
    above that budget raises
    :class:`~repro.util.errors.BudgetExceededError`.  The tables'
    ``va`` is then the product, not the input.

    The cache keys on VA equality; for *structural* sharing across
    independently built automata (and across processes) use
    :class:`repro.service.cache.SpannerCache` instead.

    >>> from repro.spanner import Spanner
    >>> cva = compile_va(Spanner.compile("(x{a})*").automaton)
    >>> is_sequential(cva.va), sorted(cva.variables)
    (True, ['x'])
    """
    if not is_sequential(va):
        va = make_sequential(
            va, prune=True, max_states=planner.DEFAULT_SEQUENTIALIZE_BUDGET
        )
    return CompiledVA(va)


class DocumentIndex:
    """Per-document reachability and candidate-span tables.

    ``reach[p]`` over-approximates the states a run prefix can occupy at
    position ``p`` (variable operations treated as ε, so no run is missed);
    ``coreach[p]`` over-approximates the states from which the rest of the
    document can still be consumed into the final state.  A variable can
    only open at positions where an ``x⊢`` edge connects the two, and only
    close where a ``⊣x`` edge does — every span outside the product of
    those position sets is unreachable and safely skipped.

    Both sweeps run over the kernel's flat tables: the document is
    interned once into alphabet-class ids, and each pass is one of the
    kernel's two recorded sweeps —
    :func:`~repro.engine.kernel._flat_sweep` forward on the pin-free
    sweep context and :func:`~repro.engine.kernel._sweep_back` backward
    on its :attr:`~repro.engine.kernel.SweepContext.reverse` — two
    indexed loads per position (:class:`~repro.engine.kernel.FlatDFA`).

    >>> from repro.spanner import Spanner
    >>> cva = compile_va(Spanner.compile(".*x{a}.*").automaton)
    >>> DocumentIndex(cva, "ba").candidate_spans("x")
    (Span(begin=2, end=3),)
    """

    def __init__(self, cva: CompiledVA, text: str) -> None:
        self.cva = cva
        self.text = text
        self.end = len(text) + 1
        kernel = cva.kernel
        flat = kernel.flat
        #: Interned class ids — ``bytes``, or a tuple past 256 classes.
        classes = self.classes = flat.intern(text)
        end = self.end
        # Each trail is made after its first id is interned: the id must
        # belong to the generation the trail captures.
        free = kernel.context(frozenset(), frozenset())
        dfa = flat.context(free)
        start = kernel.free[cva.initial]
        with dfa.lock:
            state = dfa.intern(start)
            reach = Trail(dfa, 2, 1)
            reach.ids[1] = state
            _flat_sweep(dfa, free, classes, 1, end, [start], 0, {}, reach)
            masks = reach.masks()
        self._reach_masks = masks + [0] * (end + 1 - len(masks))
        back = free.reverse
        dfa = flat.context(back)
        final = back.closure[cva.final]
        with dfa.lock:
            state = dfa.intern(final)
            coreach = Trail(dfa, end + 1, end)
            coreach.ids[end] = state
            _sweep_back(dfa, classes, coreach, end - 1, final, 1)
            self._coreach_masks = coreach.masks()
        self._reach_sets: list[frozenset[int]] | None = None
        self._coreach_sets: list[frozenset[int]] | None = None
        self._positions: dict[OpKey, tuple[int, ...]] = {}

    @property
    def reach(self) -> list[frozenset[int]]:
        """Per-position reach state sets (materialised from the masks;
        kept for inspection and cross-validation)."""
        if self._reach_sets is None:
            self._reach_sets = [
                frozenset(iter_bits(mask)) for mask in self._reach_masks
            ]
        return self._reach_sets

    @property
    def coreach(self) -> list[frozenset[int]]:
        if self._coreach_sets is None:
            self._coreach_sets = [
                frozenset(iter_bits(mask)) for mask in self._coreach_masks
            ]
        return self._coreach_sets

    def open_positions(self, variable: Variable) -> tuple[int, ...]:
        """Positions where an ``x⊢`` transition can fire on a live run
        (ascending, memoised per variable)."""
        return self._op_positions(OPEN, variable)

    def close_positions(self, variable: Variable) -> tuple[int, ...]:
        """Positions where a ``⊣x`` transition can fire on a live run."""
        return self._op_positions(CLOSE, variable)

    def _op_positions(self, kind: str, variable: Variable) -> tuple[int, ...]:
        key = (kind, variable)
        positions = self._positions.get(key)
        if positions is None:
            cva = self.cva
            table = cva.opens_by_variable if kind == OPEN else cva.closes_by_variable
            positions = self._positions[key] = tuple(
                self._live_positions(table.get(variable, ()))
            )
        return positions

    def _live_positions(self, edges) -> list[int]:
        if not edges:
            return []
        pairs = [(1 << source, 1 << target) for source, target in edges]
        source_all = 0
        target_all = 0
        for source_bit, target_bit in pairs:
            source_all |= source_bit
            target_all |= target_bit
        reach, coreach = self._reach_masks, self._coreach_masks
        positions = []
        for pos in range(1, self.end + 1):
            live, ahead = reach[pos], coreach[pos]
            if not (live & source_all and ahead & target_all):
                continue
            if any(
                live & source_bit and ahead & target_bit
                for source_bit, target_bit in pairs
            ):
                positions.append(pos)
        return positions

    def candidate_spans(self, variable: Variable) -> tuple[Span, ...]:
        """The pruned span list for one variable, in the seed's (i, j) order:
        every ``(i, j)`` with ``i`` an open and ``j`` a close position.

        Enumeration never builds this list; it is kept for inspection."""
        closes = self.close_positions(variable)
        return tuple(
            Span(i, j) for i in self.open_positions(variable) for j in closes if i <= j
        )

