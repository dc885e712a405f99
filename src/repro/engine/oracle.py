"""Compiled ``Eval`` and the per-document output DAG (Theorem 5.7 on tables).

Every engine automaton is sequential — :func:`~repro.engine.tables.compile_va`
applies Proposition 5.6 to any input that is not — so one construction
serves them all.  Two layers:

* :func:`eval_compiled` — a drop-in for
  :func:`repro.evaluation.eval_problem.eval_va` that runs Theorem 5.7's
  sweep (:func:`~repro.engine.kernel._flat_sweep`) on the kernel's flat
  lazy DFA: state sets are interned bitmasks, a position without required
  operations is one table load, and the ≤ 2k positions with required
  operations run a counted closure over per-count masks.  With no pins
  it is NonEmp, :func:`non_empty_compiled`: one forward walk of the
  pin-free DFA.

* :class:`OutputDAG` — what enumeration reads, after the output DAG of
  Florenzano et al. (PODS 2018) and Amarilli et al. (ICDT 2019).  A node
  is a subset of the automaton's states live at one position; its edges
  are the *marker sets* (the variable operations done at that position)
  and lead to the subset reached after the letter.  Different marker
  sets reaching one subset merge into one node, so the DAG is
  deterministic: a path from the root to an accepting edge is one
  mapping, and no mapping has two paths.  Building it is one forward
  pass over :class:`FrontierDFA` — a lazy DFA one level above
  :class:`~repro.engine.kernel.FlatDFA`, whose states are the ordered
  tuples of nodes at a position — and one backward pass
  (:class:`Completions`) that counts each node's completions as 0, 1 or
  many and links every live node to the next level where some live node
  leaves by a non-empty marker set.  Mappings are then read off along
  those links, so a level where every live node just reads its letter
  costs nothing.

Enumeration keeps Algorithm 2's recursion
(:meth:`~repro.engine.compiled.CompiledSpanner.enumerate`): a recursion
node pins some variables and refines the next one, and the DAG answers
it (:meth:`OutputDAG.children`).  Pins only filter edges — a span pin
``y → (i, j)`` keeps, at ``i`` and ``j``, the edges that open and close
``y`` there; a ``⊥`` pin drops every edge touching ``y`` — and a
sequential path that opens ``y`` at ``i`` cannot touch it anywhere else.
So a node's backward pass is the DAG's own with those filters, and its
spans come from one walk over the linked levels.  A child whose
completion count is 1 is read off as its single path, with no further
nodes; only a child with several completions becomes a node of its own.

The seed evaluators of :mod:`repro.evaluation` — Theorem 5.10's general
sweep included — are the reference all of this is cross-validated
against.
"""

from __future__ import annotations

import threading
from array import array
from collections.abc import Iterator

from repro.engine import kernel as _kernel
from repro.engine.kernel import _flat_sweep
from repro.engine.tables import CompiledVA, close_key, open_key
from repro.spans.mapping import NULL, ExtendedMapping, Mapping, Variable
from repro.spans.span import Span

_NO_OPS: frozenset = frozenset()


class Requirements:
    """Pinned operations bucketed by position (compiled ``_Requirements``)."""

    __slots__ = ("valid", "required", "pinned", "nulls")

    def __init__(self, cva: CompiledVA, end: int, pinned) -> None:
        self.valid = True
        self.required: dict[int, frozenset] = {}
        self.pinned: set[Variable] = set()
        self.nulls: set[Variable] = set()
        automaton_variables = cva.variables
        accumulated: dict[int, set] = {}
        for variable, value in pinned.items():
            if value is NULL:
                self.nulls.add(variable)
                continue
            if (
                variable not in automaton_variables
                or value.begin < 1
                or value.end > end
            ):
                self.valid = False  # no run can ever satisfy this pin
                return
            self.pinned.add(variable)
            accumulated.setdefault(value.begin, set()).add(open_key(variable))
            accumulated.setdefault(value.end, set()).add(close_key(variable))
        self.required = {pos: frozenset(ops) for pos, ops in accumulated.items()}


def eval_compiled(cva: CompiledVA, text: str, pinned: ExtendedMapping) -> bool:
    """``Eval[VA]``: Theorem 5.7's sweep over the kernel's flat tables.

    ``pinned`` constrains the output mapping: a span value pins the
    assignment, ``⊥`` (:data:`~repro.spans.mapping.NULL`) pins the
    variable *unassigned*, absence leaves it unconstrained.

    >>> from repro.engine.tables import compile_va
    >>> from repro.spanner import Spanner
    >>> cva = compile_va(Spanner.compile("x{a}(y{b}|ε)c*").automaton)
    >>> eval_compiled(cva, "ac", ExtendedMapping({"y": NULL}))
    True
    >>> eval_compiled(cva, "ab", ExtendedMapping({"y": NULL}))
    False
    """
    if not pinned:
        return non_empty_compiled(cva, text)
    end = len(text) + 1
    requirements = Requirements(cva, end, pinned)
    if not requirements.valid:
        return False
    kernel = cva.kernel
    flat = kernel.flat
    context = kernel.context(
        frozenset(requirements.pinned), frozenset(requirements.nulls)
    )
    classes = flat.intern(text)
    fdfa = flat.context(context)
    required = requirements.required
    first = required.get(1, _NO_OPS)
    masks, needed = context.closure_counted([1 << cva.initial], first), len(first)
    with fdfa.lock:
        swept = _flat_sweep(fdfa, context, classes, 1, end, masks, needed, required)
    if swept is None:
        return False
    masks, needed = swept
    return bool((masks[needed] >> cva.final) & 1)


def non_empty_compiled(cva: CompiledVA, text: str) -> bool:
    """NonEmp, ``⟦A⟧_d ≠ ∅``: one forward walk of the pin-free flat DFA.

    The engine's automaton is sequential, so the unpinned ``Eval`` is
    plain acceptance of the document by the DFA of its free closure —
    the paper's single forward pass.  A ``-1`` row entry is explored on
    the spot; an exploration that flushed the DFA returns an id of the
    new generation, after which the walk re-reads ``rows``.  The walk
    holds the DFA's lock throughout, so no other thread flushes the ids
    it keeps.

    >>> from repro.engine.tables import compile_va
    >>> from repro.spanner import Spanner
    >>> cva = compile_va(Spanner.compile(".*x{a+}.*").automaton)
    >>> non_empty_compiled(cva, "ba"), non_empty_compiled(cva, "bb")
    (True, False)
    """
    flat = cva.kernel.flat
    classes = flat.intern(text)
    dfa = flat.dfa
    with dfa.lock:
        state = dfa.intern(cva.kernel.free[cva.initial])
        rows = dfa.rows
        row = rows[state]
        explore = dfa.explore
        for class_id in classes:
            target = row[class_id]
            if target < 0:
                target = explore(state, class_id)
                rows = dfa.rows
            if not target:
                return False
            state = target
            row = rows[target]
        return bool((dfa.masks[state] >> cva.final) & 1)


# -- the frontier DFA ------------------------------------------------------------


class _FrontierTables:
    """One generation of a :class:`FrontierDFA`'s tables.

    ``frontiers[fid]`` is a frontier: the tuple of node masks live at a
    position, in a fixed order.  ``rows[fid][class_id]`` is the next
    frontier's id (``-1`` = unexplored) and ``edges[fid][class_id]`` the
    marker-set edges, one tuple of ``(markers, target index)`` pairs per
    node.  ``accepts[fid]`` holds, per node, the marker sets with which
    the node accepts at the document's end (``None`` until asked).
    """

    __slots__ = ("frontiers", "ids", "rows", "edges", "accepts", "closures", "store", "memos")

    def __init__(self, num_classes: int) -> None:
        # The dead frontier (no node) is id 0 in every generation.
        self.frontiers: list[tuple[int, ...]] = [()]
        self.ids: dict[tuple[int, ...], int] = {(): 0}
        self.rows: list[array] = [array("i", [0]) * num_classes]
        self.edges: list[list] = [[()] * num_classes]
        self.accepts: list[tuple | None] = [()]
        #: Per node mask: its ``(markers, states)`` pairs before the letter.
        self.closures: dict[int, tuple[tuple[int, int], ...]] = {}
        #: The backward pass's memo over these frontier ids, valid for the
        #: level store ``store``: per ``(pinned, nulls)``, per level id,
        #: ``fid * width + class`` → the level id one position earlier.
        self.store: _LevelStore | None = None
        self.memos: dict[tuple[int, int], dict[int, dict[int, int]]] = {}


class _LevelStore:
    """The backward pass's level descriptions, shared by every document.

    ``levels[id]`` is a description (see :class:`Completions`), ``ids``
    interns them by content and ``marked[id]`` is its marked flag.
    ``entries`` counts the memo entries recorded against the store, on
    whichever tables generation they live.
    """

    __slots__ = ("levels", "ids", "marked", "entries")

    def __init__(self) -> None:
        self.levels: list[tuple] = []
        self.ids: dict[tuple, int] = {}
        self.marked = bytearray()
        self.entries = 0


class FrontierDFA:
    """The lazy DFA of frontiers the output DAG's forward pass runs on.

    A frontier is the ordered tuple of DAG nodes at one position; one
    memoised ``(frontier, class)`` row gives the next frontier and every
    node's marker-set edges, so a forward pass is one table load per
    letter, like a :class:`~repro.engine.kernel.FlatDFA` sweep.

    A marker set is a bitmask over the automaton's variables, sorted:
    bit ``2v`` opens variable ``v``, bit ``2v + 1`` closes it.  A node's
    edge for marker set ``M`` leads to the states reached by doing
    exactly the operations of ``M`` (plus ε moves) and then the letter.
    A path repeating an operation is dropped; so is every state that
    cannot reach the final state, which is what makes a live node's
    paths agree on which variables are open.

    The tables hold at most :data:`~repro.engine.kernel.FLAT_STATE_LIMIT`
    frontiers.  Interning one more *flushes*: the DFA starts a fresh
    generation of tables and ``flushes`` goes up.  A pass that holds the
    old tables keeps reading them (:class:`OutputDAG` records where each
    generation starts), so a flush never invalidates a recorded id.  A
    pass holds ``lock`` while it interns or explores: one engine serves
    several threads under ``repro serve --workers 0``.

    The backward pass is a lazy DFA too.  Its level descriptions live in
    one :class:`_LevelStore` (``store``) and its memo on the frontier
    tables it reads, so every document of the engine reuses both.  The
    store holds at most ``FLAT_STATE_LIMIT`` descriptions and
    ``FLAT_STATE_LIMIT`` × the class count memo entries (one generation's
    worth of rows); past either bound :meth:`level_id` flushes it —
    ``store`` becomes a fresh store and ``level_flushes`` goes up — and a
    pass in flight re-interns the level it carries.  Backward passes
    hold ``lock`` too.
    """

    __slots__ = (
        "num_classes",
        "variables",
        "bits",
        "tables",
        "flushes",
        "store",
        "level_flushes",
        "lock",
        "_step",
        "_useful",
        "_final",
        "_moves",
    )

    def __init__(self, cva: CompiledVA) -> None:
        kernel = cva.kernel
        self.num_classes = kernel.classes.count
        #: The sorted variables, and each one's open bit (its close bit is
        #: the next one up).
        self.variables = sorted(cva.mentioned_variables)
        bits = self.bits = {v: 1 << (2 * index) for index, v in enumerate(self.variables)}
        self._step = kernel.step
        self._final = cva.final
        self.flushes = 0
        self.store = _LevelStore()
        self.level_flushes = 0
        self.lock = threading.RLock()
        self.tables = _FrontierTables(self.num_classes)
        # Every non-letter move as ``(target, marker bit)`` (0 for ε).
        moves: list[list[tuple[int, int]]] = [[] for _ in range(cva.num_states)]
        for state in range(cva.num_states):
            moves[state] += [(target, 0) for target in cva.eps[state]]
            moves[state] += [(t, bits[v]) for v, t in cva.opens[state]]
            moves[state] += [(t, bits[v] << 1) for v, t in cva.closes[state]]
        self._moves = moves
        # The states from which the final state is reachable at all.
        useful, frontier = 1 << cva.final, [cva.final]
        backward: list[list[int]] = [[] for _ in range(cva.num_states)]
        for state in range(cva.num_states):
            for target, _ in moves[state]:
                backward[target].append(state)
            for step in kernel.step:
                for target in _kernel.iter_bits(step[state]):
                    backward[target].append(state)
        while frontier:
            for source in backward[frontier.pop()]:
                if not (useful >> source) & 1:
                    useful |= 1 << source
                    frontier.append(source)
        self._useful = useful

    @property
    def states(self) -> int:
        """Frontiers the current tables hold (the dead one included)."""
        return len(self.tables.frontiers)

    def root(self, initial: int) -> tuple[int, ...]:
        """The frontier at position 1: the initial state, if it is useful."""
        return ((1 << initial),) if (self._useful >> initial) & 1 else ()

    def intern(self, frontier: tuple[int, ...]) -> int:
        """The id of ``frontier`` in the current tables (which it may flush)."""
        tables = self.tables
        fid = tables.ids.get(frontier)
        if fid is None:
            if len(tables.frontiers) >= _kernel.FLAT_STATE_LIMIT:
                tables = self.tables = _FrontierTables(self.num_classes)
                self.flushes += 1
            fid = len(tables.frontiers)
            tables.ids[frontier] = fid
            tables.frontiers.append(frontier)
            tables.rows.append(array("i", [-1]) * self.num_classes)
            tables.edges.append([None] * self.num_classes)
            tables.accepts.append(None)
        return fid

    def _closure(self, tables: _FrontierTables, node: int) -> tuple[tuple[int, int], ...]:
        """``(markers, states)`` pairs of one node before its letter: the
        useful states reached by doing exactly ``markers`` (plus ε)."""
        found = tables.closures.get(node)
        if found is not None:
            return found
        moves, useful = self._moves, self._useful
        reached: dict[int, int] = {}
        seen = set()
        stack = [(state, 0) for state in _kernel.iter_bits(node)]
        while stack:
            item = stack.pop()
            if item in seen:
                continue
            seen.add(item)
            state, markers = item
            reached[markers] = reached.get(markers, 0) | (1 << state)
            for target, bit in moves[state]:
                if (useful >> target) & 1 and not markers & bit:
                    stack.append((target, markers | bit))
        found = tables.closures[node] = tuple(sorted(reached.items()))
        return found

    def explore(self, tables: _FrontierTables, fid: int, class_id: int) -> int:
        """Resolve one unexplored row of ``tables`` (the caller holds the
        lock).  Returns the next frontier's id in the *current* tables:
        if interning it flushed, the row is not recorded, but the edges
        — which depend only on the frontier's content — are."""
        step, useful = self._step[class_id], self._useful
        targets: dict[int, int] = {}
        edges = []
        for node in tables.frontiers[fid]:
            out = []
            for markers, states in self._closure(tables, node):
                reached = 0
                while states:
                    low = states & -states
                    reached |= step[low.bit_length() - 1]
                    states ^= low
                reached &= useful
                if reached:
                    target = targets.get(reached)
                    if target is None:
                        target = targets[reached] = len(targets)
                    out.append((markers, target))
            edges.append(tuple(out))
        tables.edges[fid][class_id] = tuple(edges)
        following = self.intern(tuple(targets))
        if self.tables is tables:
            tables.rows[fid][class_id] = following
        return following

    def accepting(self, tables: _FrontierTables, fid: int) -> tuple:
        """Per node of frontier ``fid``: the marker sets it accepts with."""
        found = tables.accepts[fid]
        if found is None:
            final = self._final
            found = tables.accepts[fid] = tuple(
                tuple(
                    markers
                    for markers, states in self._closure(tables, node)
                    if (states >> final) & 1
                )
                for node in tables.frontiers[fid]
            )
        return found

    # -- the backward pass's store (the caller holds the lock) ------------------

    def level_id(self, level: tuple) -> int:
        """The id of a level description in the current store, which it
        flushes when the store is at a bound."""
        store = self.store
        found = store.ids.get(level)
        full = store.entries >= _kernel.FLAT_STATE_LIMIT * self.num_classes
        if found is not None and not full:
            return found
        if full or len(store.levels) >= _kernel.FLAT_STATE_LIMIT:
            store = self.store = _LevelStore()
            self.level_flushes += 1
        found = store.ids[level] = len(store.levels)
        store.levels.append(level)
        store.marked.append(level[3])
        return found

    def memo(self, tables: _FrontierTables, pins: tuple[int, int]) -> dict:
        """The backward memo rows over ``tables`` for ``pins``, in the
        current store (memo rows of an earlier store are dropped)."""
        if tables.store is not self.store:
            tables.store, tables.memos = self.store, {}
        rows = tables.memos.get(pins)
        if rows is None:
            rows = tables.memos[pins] = {}
        return rows


def frontier_dfa(cva: CompiledVA) -> FrontierDFA:
    """The (lazily built) frontier DFA of an automaton, kept on its flat
    tables so it lives and dies with them."""
    flat = cva.kernel.flat
    dfa = flat.frontier
    if dfa is None:
        with flat._lock:
            dfa = flat.frontier
            if dfa is None:
                dfa = flat.frontier = FrontierDFA(cva)
    return dfa


# -- the output DAG ----------------------------------------------------------------


class Completions:
    """One backward pass over an :class:`OutputDAG`, under a set of pins.

    A level description is a tuple ``(counts, links, alone, marked,
    kept)`` over the nodes at one position: each node's completions,
    capped at 2 ("many"); for a live node, its index at the next
    *marked* position; whether a node with one completion takes only
    empty marker sets from there on; whether the position is marked; and
    each node's live edges ``(markers, target)`` (at the end: its
    accepting marker sets, as ``(markers, -1)``).  A position is marked
    when some live node leaves it by a non-empty marker set (the end
    always is).  Between two marked positions every live node has
    exactly one live edge, the empty one, so a walk crosses the gap
    through ``links`` in one step — and the pass keeps only the marked
    positions: ``marks`` (ascending), the description at each
    (``at_mark``) and at the position after it (``after_mark``, whose
    ``links`` lead on to the next mark; ``None`` after the end), and
    the description at position 1 (``root``).

    A description depends only on the frontier edges below it, never on
    the document, so the pass runs on the frontier DFA's shared level
    store and memo (:meth:`FrontierDFA.level_id`, :meth:`FrontierDFA.memo`)
    under its lock: a position whose ``(level, frontier, class)`` step
    some earlier pass — of any document — took is one dict load.  The
    pass records descriptions, not their ids, so nothing it keeps
    depends on the store once it returns.

    Pins only filter edges: at position ``p`` an edge must carry exactly
    ``required[p]`` of the span-pinned bits (``pinned``), and never a bit
    of ``nulls`` (the ``⊥``-pinned variables).  ``total`` is the root's
    count: 0 when nothing satisfies the pins.
    """

    __slots__ = ("dag", "marks", "at_mark", "after_mark", "root", "total")

    def __init__(self, dag: "OutputDAG", required: dict[int, int], pinned: int, nulls: int) -> None:
        self.dag = dag
        self.marks: list[int] = []
        self.at_mark: list[tuple] = []
        self.after_mark: list[tuple | None] = []
        self.root: tuple | None = None
        self.total = 0
        if dag.dead:
            return
        dfa = dag._dfa
        with dfa.lock:
            self._backward(dfa, required, pinned, nulls)

    def _backward(self, dfa: FrontierDFA, required: dict[int, int], pinned: int, nulls: int) -> None:
        dag = self.dag
        end = dag.end
        pins = (pinned, nulls)
        level_id = dfa.level_id
        state = level_id(_end_level(dag.accepts, required.get(end, 0), pinned, nulls))
        store = dfa.store
        levels, flags = store.levels, store.marked
        marks, at_mark, after_mark = [end], [levels[state]], [None]
        fids, classes, width = dag.fids, dag.classes, dag._width
        starts, generations = dag._starts, dag._tables
        pinned_at = sorted(pos for pos in required if pos < end)
        for at in range(len(starts) - 1, -1, -1):
            generation = generations[at]
            table = generation.edges
            rows = dfa.memo(generation, pins)
            top = starts[at + 1] if at + 1 < len(starts) else end
            lo = starts[at]
            # Stretches without pinned operations take the memoised fast
            # path; each pinned position is one slow step between them.
            stops = [pos for pos in pinned_at if lo <= pos < top]
            while True:
                stop = stops.pop() if stops else lo - 1
                row = rows.get(state)
                if row is None:
                    row = rows[state] = {}
                for pos, fid, class_id in zip(
                    range(top - 1, stop, -1),
                    reversed(fids[stop + 1 : top]),
                    reversed(classes[stop : top - 1]),
                ):
                    key = fid * width + class_id
                    found = row.get(key)
                    if found is None:
                        found = level_id(
                            _level(table[fid][class_id], levels[state], 0, pinned, nulls)
                        )
                        if dfa.store is not store:
                            # The store flushed: carry on in the new one.
                            carried, store = levels[state], dfa.store
                            levels, flags = store.levels, store.marked
                            state = level_id(carried)
                            rows = dfa.memo(generation, pins)
                            row = rows[state] = {}
                        row[key] = found
                        store.entries += 1
                    if flags[found]:
                        marks.append(pos)
                        at_mark.append(levels[found])
                        after_mark.append(levels[state])
                    if found != state:
                        state = found
                        row = rows.get(found)
                        if row is None:
                            row = rows[found] = {}
                if stop < lo:
                    break
                following = levels[state]
                state = level_id(
                    _level(
                        table[fids[stop]][classes[stop - 1]],
                        following,
                        required[stop],
                        pinned,
                        nulls,
                    )
                )
                if dfa.store is not store:
                    store = dfa.store
                    levels, flags = store.levels, store.marked
                    rows = dfa.memo(generation, pins)
                if flags[state]:
                    marks.append(stop)
                    at_mark.append(levels[state])
                    after_mark.append(following)
                top = stop
        marks.reverse()
        at_mark.reverse()
        after_mark.reverse()
        self.marks, self.at_mark, self.after_mark = marks, at_mark, after_mark
        self.root = levels[state]
        self.total = self.root[0][0]

    def start(self) -> int:
        """The root's node index at the first mark."""
        return self.root[1][0]

    def read_off(self, at: int, node: int, markers: list) -> list:
        """Append to ``markers`` those of the single completion of
        ``node`` at the ``at``-th mark."""
        marks, at_mark, after_mark = self.marks, self.at_mark, self.after_mark
        end = self.dag.end
        while True:
            level = at_mark[at]
            if level[2][node]:
                return markers  # only empty marker sets from here on
            found, target = level[4][node][0]
            if found:
                markers.append((marks[at], found))
            if marks[at] == end:
                return markers
            node = after_mark[at][1][target]
            at += 1


def _end_level(accepts, need: int, pinned: int, nulls: int) -> tuple:
    kept = tuple(
        tuple((found, -1) for found in node if (found & pinned) == need and not found & nulls)
        for node in accepts
    )
    counts = tuple(min(len(edges), 2) for edges in kept)
    links = tuple(k if count else -1 for k, count in enumerate(counts))
    alone = tuple(edges == ((0, -1),) for edges in kept)
    return (counts, links, alone, True, kept)


def _level(edges, following, need: int, pinned: int, nulls: int) -> tuple:
    """One level of a backward pass from the next level's description."""
    next_counts, next_links, next_alone = following[0], following[1], following[2]
    counts, kept, marked = [], [], False
    for node in edges:
        count, live = 0, []
        for found, target in node:
            if (found & pinned) != need or found & nulls:
                continue
            reach = next_counts[target]
            if reach:
                count += reach
                live.append((found, target))
                marked = marked or found != 0
        counts.append(min(count, 2))
        kept.append(tuple(live))
    if marked:
        links = tuple(k if count else -1 for k, count in enumerate(counts))
    else:
        links = tuple(next_links[live[0][1]] if live else -1 for live in kept)
    alone = tuple(
        count == 1 and live[0][0] == 0 and next_alone[live[0][1]]
        for count, live in zip(counts, kept)
    )
    return (tuple(counts), links, alone, marked, tuple(kept))


class OutputDAG:
    """The output DAG of one document: one forward pass, backward passes
    on demand.

    ``fids[p]`` is the frontier id at position ``p`` (``1 ≤ p ≤ end``),
    in the generation of :class:`FrontierDFA` tables that the segment
    holding ``p`` recorded it in (``_starts``/``_tables``: a flush
    during the pass starts a new segment).  A node is an index into its
    frontier.  :meth:`restrict` runs the backward pass for a set of pins
    (:class:`Completions`) on the frontier DFA's level store and memo,
    which every document of the engine shares; the DAG keeps only the
    descriptions its passes recorded.

    >>> from repro.engine.tables import compile_va
    >>> from repro.spanner import Spanner
    >>> cva = compile_va(Spanner.compile(".*x{a}.*").automaton)
    >>> dag = OutputDAG(cva, "aba")
    >>> dag.count()
    2
    """

    __slots__ = (
        "end",
        "classes",
        "fids",
        "accepts",
        "dead",
        "variables",
        "_cva",
        "_dfa",
        "_bits",
        "_width",
        "_starts",
        "_tables",
        "_free",
    )

    def __init__(self, cva: CompiledVA, text: str) -> None:
        self._cva = cva
        end = self.end = len(text) + 1
        classes = self.classes = cva.kernel.flat.intern(text)
        dfa = self._dfa = frontier_dfa(cva)
        self.variables, self._bits = dfa.variables, dfa.bits
        self._width = dfa.num_classes
        fids = self.fids = array("i", [0])
        self._free: Completions | None = None
        self.accepts: tuple = ()
        self.dead = True
        with dfa.lock:
            fid = dfa.intern(dfa.root(cva.initial))
            tables = dfa.tables
            self._starts, self._tables = [1], [tables]
            rows = tables.rows
            row = rows[fid]
            fids.append(fid)
            record = fids.append
            for class_id in classes:
                following = row[class_id]
                if following <= 0:
                    if not following:
                        return  # no run survives: no mapping
                    following = dfa.explore(tables, fids[-1], class_id)
                    if dfa.tables is not tables:
                        tables = dfa.tables
                        rows = tables.rows
                        self._starts.append(len(fids))
                        self._tables.append(tables)
                    if not following:
                        return
                record(following)
                row = rows[following]
            if not fids[end]:
                return
            self.accepts = dfa.accepting(tables, fids[end])
        self.dead = False

    # -- pins ----------------------------------------------------------------------

    def restrict(self, pins: dict) -> Completions | None:
        """The backward pass under ``pins`` (variable → span or ``⊥``), or
        ``None`` when no run can satisfy them (a span pin outside the
        document, or on a variable the automaton never opens)."""
        if not pins:
            if self._free is None:
                self._free = Completions(self, {}, 0, 0)
            return self._free
        required: dict[int, int] = {}
        pinned = nulls = 0
        variables, bits = self._cva.variables, self._bits
        for variable, value in pins.items():
            bit = bits.get(variable, 0)
            if value is NULL:
                nulls |= bit | bit << 1
                continue
            if variable not in variables or value.begin < 1 or value.end > self.end:
                return None
            pinned |= bit | bit << 1
            required[value.begin] = required.get(value.begin, 0) | bit
            required[value.end] = required.get(value.end, 0) | bit << 1
        return Completions(self, required, pinned, nulls)

    # -- Algorithm 2's recursion nodes -----------------------------------------

    def children(self, completions: Completions, variable: Variable) -> Iterator[tuple]:
        """The children of the recursion node ``(pins, variable)``.

        Yields ``(value, count, single)`` in Algorithm 2's order — the
        variable's spans ``i``-major, then ``⊥`` — for every value with at
        least one completion under the node's pins.  ``count`` is capped
        at 2; when it is 1, ``single`` is the child's only mapping.

        One walk from the root carries the paths that have not touched
        the variable; where such a path opens it, :meth:`_spans` follows
        it to every close.  The automaton is sequential and the DAG keeps
        only states that can still accept, so no live edge closes a
        variable its path never opened, or opens one twice.
        """
        if not completions.total:
            return
        bit = self._bits.get(variable, 0)
        end = self.end
        start = {completions.start(): (1, [])}
        for at, opened, unset in self._walk(completions, 0, start, bit):
            if unset is None:
                yield from self._spans(completions, at, opened, bit << 1)
                continue
            for value, group in ((Span(end, end), opened), (NULL, unset)):
                if group:
                    yield (value, *self._combine(completions, group))

    def _spans(self, completions: Completions, at: int, opened: list, closer: int):
        """Every span opened at the ``at``-th mark by one of ``opened``,
        ``j`` ascending, with its completion count."""
        marks, after_mark = completions.marks, completions.after_mark
        begin = marks[at]
        counts, links = after_mark[at][0], after_mark[at][1]
        empty = [
            (count, path, counts[target], links[target])
            for count, path, target, found in opened
            if found & closer
        ]
        if empty:
            yield (Span(begin, begin), *self._combine(completions, empty, at + 1))
        carried: dict[int, tuple] = {}
        for count, path, target, found in opened:
            if not found & closer:
                target = links[target]
                carried[target] = (2, None) if target in carried else (count, path)
        for at, closed, unset in self._walk(completions, at + 1, carried, closer):
            if unset is not None:
                yield (Span(begin, self.end), *self._combine(completions, closed))
                return
            counts, links = after_mark[at][0], after_mark[at][1]
            closed = [
                (count, path, counts[target], links[target])
                for count, path, target, _ in closed
            ]
            yield (Span(begin, marks[at]), *self._combine(completions, closed, at + 1))

    def _walk(self, completions: Completions, at: int, carried: dict, bit: int):
        """Carry paths mark by mark from the ``at``-th mark: ``carried``
        maps each node there to its count and — while that is 1 — the
        markers of its only path.

        At each mark where some carried path takes an edge with ``bit``,
        yields ``(at, hits, None)``, ``hits`` listing ``(count, path,
        target, markers)`` for each such edge; the other edges carry on.
        At the end, yields ``(at, hits, misses)``: the paths that accept
        with ``bit`` and those that accept without it, as contributions
        to :meth:`_combine`.
        """
        end = self.end
        marks, at_mark, after_mark = completions.marks, completions.at_mark, completions.after_mark
        for at in range(at, len(marks)):
            if not carried:
                return
            kept = at_mark[at][4]
            mark = marks[at]
            if mark == end:
                hits, misses = [], []
                for node, (count, path) in carried.items():
                    for found, _ in kept[node]:
                        group = hits if found & bit else misses
                        group.append((count, _extend(path, end, found), 1, None))
                yield at, hits, misses
                return
            links = after_mark[at][1]
            if len(carried) == 1:
                # The common mark: one path, which reads its letter.
                ((node, entry),) = carried.items()
                edges = kept[node]
                if len(edges) == 1 and not edges[0][0]:
                    carried = {links[edges[0][1]]: entry}
                    continue
            following: dict[int, tuple] = {}
            hits = []
            for node, (count, path) in carried.items():
                for found, target in kept[node]:
                    extended = _extend(path, mark, found)
                    if found & bit:
                        hits.append((count, extended, target, found))
                        continue
                    target = links[target]
                    following[target] = (2, None) if target in following else (count, extended)
            if hits:
                yield at, hits, None
            carried = following

    def _combine(self, completions: Completions, contributions: list, at: int = 0) -> tuple:
        """A child's completion count (capped at 2) and, when it is 1, its
        mapping — from the contributions ``(count, path, reach, node)``
        of the paths that reach its value: ``reach`` completions of
        ``node`` at the ``at``-th mark finish each (``node`` ``None``:
        the path is complete)."""
        total, single = 0, None
        for count, path, reach, node in contributions:
            total += count * reach
            if count * reach == 1:
                single = (path, node)
        if total != 1:
            return min(total, 2), None
        path, node = single
        markers = path if node is None else completions.read_off(at, node, list(path))
        return 1, self.mapping(markers)

    def mapping(self, markers) -> Mapping:
        """The mapping a path's ``(position, marker set)`` list spells, its
        variables in sorted order."""
        bounds: dict[int, list] = {}
        for pos, found in markers:
            while found:
                low = found & -found
                index = low.bit_length() - 1
                bound = bounds.get(index >> 1)
                if bound is None:
                    bound = bounds[index >> 1] = [0, 0]
                bound[index & 1] = pos
                found ^= low
        variables = self.variables
        return Mapping._adopt(
            {variables[index]: Span(*bounds[index]) for index in sorted(bounds)}
        )

    # -- counting ------------------------------------------------------------------

    def count(self) -> int:
        """The number of mappings, exactly: the DAG's paths, summed mark
        by mark (nothing is enumerated)."""
        completions = self.restrict({})
        if not completions.total:
            return 0
        after_mark = completions.after_mark
        carried = {completions.start(): 1}
        for at, level in enumerate(completions.at_mark):
            kept = level[4]
            links = after_mark[at][1] if after_mark[at] is not None else None
            following: dict[int, int] = {}
            for node, count in carried.items():
                for _, target in kept[node]:
                    if links is not None:
                        target = links[target]
                    following[target] = following.get(target, 0) + count
            carried = following
        return sum(carried.values())


def _extend(path, pos: int, found: int):
    """A carried path after an edge (``None`` stands for several paths)."""
    return path if path is None or not found else [*path, (pos, found)]
