"""Bitmask kernel: alphabet compression + a flat lazy DFA.

The sequential sweep of Theorem 5.7 and the op-free reachability index
simulate the automaton's state *set* at every document position.  This
module applies the machinery behind RE2-style lazy DFAs to
variable-set automata:

* **Alphabet compression** (:class:`AlphabetClasses`) — characters are
  partitioned once per :class:`~repro.engine.tables.CompiledVA` into
  equivalence classes by which ``Sym`` edges they enable.  Cofinite
  charsets (``Σ - S``) contribute a *residual* class standing for every
  character no predicate mentions.  Each document is interned once into a
  class-id sequence, after which the simulation never touches characters.

* **Bitmask state sets** (:class:`Kernel`) — a state set is a Python int
  with bit ``q`` for state ``q``.  Free closure (ε and variable
  operations treated as free moves, :func:`_free_moves`) is precomputed
  per state as a mask, in each direction, so closing a set is an OR-fold
  instead of a worklist loop; the letter step is a per-class per-state
  target-mask table, with its transpose for backward sweeps.

* **A flat lazy DFA** (:class:`FlatTables` / :class:`FlatDFA`) — each
  distinct state mask is interned to a small integer id, and the
  composite "letter step then closure" transition is memoised in one
  contiguous class-indexed ``array('i')`` row per id (``-1`` =
  unexplored).  Documents are interned to ``bytes`` of class ids in one
  C-level ``str.translate`` pass (numpy for long documents), so the inner
  sweep loop is two indexed loads per character.  The tables live on the
  kernel, which lives on the ``CompiledVA``, so they are shared by every
  document a :class:`~repro.engine.compiled.CompiledSpanner` evaluates —
  and, through the worker-resident engine of :mod:`repro.service.evaluate`,
  by the whole corpus batch a worker processes.

* **A bounded cache** — a DFA holds at most :data:`FLAT_STATE_LIMIT`
  states.  Interning one more *flushes* it and keeps going, RE2's
  lazy-DFA cache policy (Cox, "Regular Expression Matching in the Wild"):
  the tables restart from the dead state under a new generation.  Ids
  recorded before a flush stay readable through the masks list captured
  with them (:class:`Trail`), so a powerset-heavy automaton costs
  re-exploration, never an error and never unbounded memory.

* **Two recorded sweeps** — :func:`_flat_sweep` (forward, with counted
  closures where a ``required`` dict asks) and :func:`_sweep_back`
  (backward) keep that flush contract for the document index and the
  pinned ``Eval`` oracle.  NonEmp needs no recording: it is one forward
  walk of the pin-free DFA
  (:func:`~repro.engine.oracle.non_empty_compiled`), one document at a
  time, batches included.  Enumeration runs one level up, on the
  frontier DFA of :mod:`repro.engine.oracle`, which follows the same
  budget.

Every sweep runs over a :class:`SweepContext`: the same machinery with
the closure graph restricted by a pin partition — operations of
span-pinned variables only fire where required, closes of ⊥-pinned
variables never fire — and a flat DFA of its own.  A context sweeps
forward; its :attr:`~SweepContext.reverse` is the same partition swept
backward, one set of primitives over reversed tables (as RE2 runs its
backward search on a reversed program).  Contexts are cached per
kernel, so repeated oracle calls share closures and tables.

Every automaton the kernel sees is sequential:
:func:`~repro.engine.tables.compile_va` replaces a non-sequential input
by its Proposition 5.6 product, whose status vectors live in the product
states and so pack into per-state bits like any other.  The seed
evaluators of :mod:`repro.evaluation` — Theorem 5.10's general sweep
included — are the reference the kernel is cross-validated against.
"""

from __future__ import annotations

import os
import threading
from array import array
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.alphabet import CharSet

try:  # pragma: no cover - absence is exercised via monkeypatching in tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tables imports us)
    from repro.engine.tables import CompiledVA

#: Interned class-id sequences kept per kernel (LRU, keyed by
#: ``(len(text), hash(text))`` with the text verified on hit).
_INTERN_LIMIT = 64

#: Pin contexts kept per kernel (LRU).  Enumeration revisits the same
#: (pinned, nulls) partitions at every recursion depth and across
#: documents, so this hit rate is high.
_CONTEXT_LIMIT = 256

#: States one :class:`FlatDFA` holds before it flushes (at least 2: the
#: dead state and one live state).  Each state costs one ``array('i')``
#: row of ``num_classes`` entries plus its mask, so the bound caps a
#: DFA's memory even when the automaton's subset construction explodes.
FLAT_STATE_LIMIT = 1 << 12

#: Documents at least this long take the numpy interning path (when
#: numpy is importable): one vectorised table lookup over the UTF-32
#: code points instead of the per-character ``str.translate`` dict walk.
NUMPY_INTERN_MIN = 2048


def numpy_or_none():
    """The ``numpy`` module, or ``None`` when absent or disabled.

    ``REPRO_NO_NUMPY=1`` forces every numpy fast path off process-wide —
    the pure-python lane CI runs — without uninstalling anything; unset
    or ``0`` leaves numpy on when importable.  Document interning is
    the one numpy path it gates (:data:`NUMPY_INTERN_MIN`).
    """
    if _np is None or os.environ.get("REPRO_NO_NUMPY", "") not in ("", "0"):
        return None
    return _np


def iter_bits(mask: int):
    """The set bit indices of ``mask`` (lowest first)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class AlphabetClasses:
    """Character equivalence classes for a family of ``CharSet`` predicates.

    Two characters are equivalent iff every predicate classifies them
    identically — simulating on one is simulating on the other.  All
    characters mentioned by no predicate share the *residual* class
    (non-empty exactly because cofinite predicates exist, or trivially
    when the automaton reads nothing).

    >>> classes = AlphabetClasses([CharSet.of("ab"), CharSet.excluding(",")])
    >>> classes.classify("a") == classes.classify("b")
    True
    >>> classes.classify("z") == classes.residual
    True
    >>> classes.classify(",") in (classes.classify("a"), classes.residual)
    False
    """

    __slots__ = ("count", "residual", "representatives", "_class_of")

    def __init__(self, charsets) -> None:
        distinct = list(dict.fromkeys(charsets))
        mentioned = sorted({ch for cs in distinct for ch in cs.chars})
        by_signature: dict[tuple[bool, ...], int] = {}
        class_of: dict[str, int] = {}
        members: list[list[str]] = []
        for char in mentioned:
            signature = tuple(cs.contains(char) for cs in distinct)
            class_id = by_signature.setdefault(signature, len(by_signature))
            if class_id == len(members):
                members.append([])
            members[class_id].append(char)
            class_of[char] = class_id
        # The residual: contained exactly by the cofinite predicates.  Its
        # signature can coincide with a mentioned character's (e.g. a char
        # excluded by no predicate), in which case the classes merge.
        residual_signature = tuple(cs.negated for cs in distinct)
        self.residual = by_signature.setdefault(
            residual_signature, len(by_signature)
        )
        if self.residual == len(members):
            members.append([])
        self.count = len(by_signature)
        self._class_of = class_of
        fresh = CharSet.excluding(mentioned).witness()
        self.representatives = tuple(
            group[0] if group else fresh for group in members
        )

    def classify(self, char: str) -> int:
        return self._class_of.get(char, self.residual)

    def intern(self, text: str) -> tuple[int, ...]:
        """The class-id sequence of a document as a tuple (the form
        :meth:`FlatTables.intern` uses past 256 classes)."""
        class_of, residual = self._class_of, self.residual
        return tuple(class_of.get(char, residual) for char in text)


def _free_moves(
    cva: "CompiledVA", pinned: frozenset, nulls: frozenset, backward: bool = False
) -> list[list[int]]:
    """The free-move adjacency of one pin partition, forward or reversed.

    ε edges and operations of unconstrained variables are free; so are
    opens of ⊥-pinned variables (a dangling open leaves the variable
    unused, run-DAG semantics), but not their closes.  Operations of
    span-pinned variables are never free.  ``adjacency[q]`` lists the
    states one free move leads to from ``q`` — or, ``backward``, comes
    from.
    """
    adjacency: list[list[int]] = [[] for _ in range(cva.num_states)]
    for state in range(cva.num_states):
        moves = list(cva.eps[state])
        moves += [t for v, t in cva.opens[state] if v not in pinned]
        moves += [t for v, t in cva.closes[state] if v not in pinned and v not in nulls]
        if backward:
            for target in moves:
                adjacency[target].append(state)
        else:
            adjacency[state] = moves
    return adjacency


def _closure_masks(count: int, adjacency) -> tuple[int, ...]:
    """Per-state reachability masks over a free-move adjacency.

    ``adjacency[q]`` lists the states reachable in one free move; the
    result masks include ``q`` itself (reflexive-transitive closure).
    """
    masks = []
    for start in range(count):
        seen = 1 << start
        frontier = [start]
        while frontier:
            state = frontier.pop()
            for target in adjacency[state]:
                bit = 1 << target
                if not seen & bit:
                    seen |= bit
                    frontier.append(target)
        masks.append(seen)
    return tuple(masks)


class Kernel:
    """Bitmask tables, sweep contexts and flat DFAs for one automaton."""

    __slots__ = (
        "cva",
        "classes",
        "num_states",
        "free",
        "free_rev",
        "step",
        "step_rev",
        "_contexts",
        "_lock",
        "_flat",
    )

    def __init__(self, cva: "CompiledVA") -> None:
        self.cva = cva
        count = cva.num_states
        self.num_states = count
        self.classes = AlphabetClasses(
            charset for _, charset, _ in cva.sym_edges
        )
        none = frozenset()
        self.free = _closure_masks(count, _free_moves(cva, none, none))
        self.free_rev = _closure_masks(count, _free_moves(cva, none, none, True))
        step: list[tuple[int, ...]] = []
        step_rev: list[list[int]] = []
        for representative in self.classes.representatives:
            forward = []
            backward = [0] * count
            for state in range(count):
                mask = 0
                for target in cva.step(state, representative):
                    mask |= 1 << target
                    backward[target] |= 1 << state
                forward.append(mask)
            step.append(tuple(forward))
            step_rev.append(backward)
        self.step = tuple(step)
        self.step_rev = tuple(tuple(masks) for masks in step_rev)
        self._contexts: OrderedDict[tuple[frozenset, frozenset], SweepContext]
        self._contexts = OrderedDict()
        #: Guards the context LRU: threads sharing one engine would
        #: otherwise evict a key between its lookup and its recency update.
        self._lock = threading.Lock()
        self._flat: FlatTables | None = None

    def context(self, pinned: frozenset, nulls: frozenset) -> "SweepContext":
        """The (cached) sweep context for one pin partition."""
        key = (pinned, nulls)
        with self._lock:
            context = self._contexts.get(key)
            if context is not None:
                self._contexts.move_to_end(key)
                return context
            context = SweepContext(self, pinned, nulls)
            if len(self._contexts) >= _CONTEXT_LIMIT:
                self._contexts.popitem(last=False)
            self._contexts[key] = context
            return context

    @property
    def flat(self) -> "FlatTables":
        """The flat tables: interned documents and lazy DFAs (built lazily)."""
        if self._flat is None:
            self._flat = FlatTables(self)
        return self._flat

    def stats(self) -> dict[str, int]:
        """Table sizes, for dashboards and the memory-bound docs.

        ``flat_states`` and ``flushes`` sum over every distinct
        :class:`FlatDFA` the kernel reaches — the document-index pair and
        those of every cached sweep context and its reverse — and the
        enumeration's frontier DFA (:class:`~repro.engine.oracle.FrontierDFA`).
        ``dag_levels`` counts the level descriptions in that DFA's shared
        backward-pass store, whose flushes ``flushes`` counts too.
        """
        flat = self._flat
        dfas: dict[int, FlatDFA] = {}
        if flat is not None:
            candidates = [flat.dfa, flat.dfa_rev]
            with self._lock:
                contexts = list(self._contexts.values())
            for ctx in contexts:
                candidates += (ctx.flat_dfa, ctx.flat_dfa_rev)
            for dfa in candidates:
                if dfa is not None:
                    dfas[id(dfa)] = dfa
        frontier = None if flat is None else flat.frontier
        return {
            "classes": self.classes.count,
            "contexts": len(self._contexts),
            "interned": len(flat._interned) if flat is not None else 0,
            "flat_states": sum(len(dfa.masks) for dfa in dfas.values())
            + (frontier.states if frontier is not None else 0),
            "dag_levels": len(frontier.store.levels) if frontier is not None else 0,
            "flushes": sum(dfa.flushes for dfa in dfas.values())
            + (frontier.flushes + frontier.level_flushes if frontier is not None else 0),
        }


class SweepContext:
    """Kernel tables specialised to one pin partition ``(pinned, nulls)``.

    The *base* closure treats ε, operations of unconstrained variables,
    and opens of ⊥-pinned variables as free; closes of ⊥-pinned variables
    and every operation of a span-pinned variable are excluded — the
    latter re-enter only as *counted* edges at the positions where
    :class:`~repro.engine.oracle.Requirements` demands them (see
    :meth:`closure_counted`).  With no pins the context degenerates to
    the kernel's own free closure and shares its flat DFAs.

    A context sweeps forward; :attr:`reverse` is the same partition swept
    backward — reversed free moves, the reverse letter table, op edges
    traversed target → source — through the very same primitives.
    """

    __slots__ = (
        "kernel",
        "pinned",
        "nulls",
        "backward",
        "closure",
        "step",
        "flat_dfa",
        "_reverse",
        "_op_edges",
    )

    def __init__(
        self, kernel: Kernel, pinned: frozenset, nulls: frozenset, _mirror=None
    ) -> None:
        """``_mirror``: the context this one reverses (set by :attr:`reverse`)."""
        self.kernel = kernel
        self.pinned = pinned
        self.nulls = nulls
        backward = self.backward = _mirror is not None
        self._reverse = _mirror
        self._op_edges: dict[tuple[str, str], tuple[tuple[int, int], ...]] = {}
        #: The interned flat DFA over this context's closure, attached
        #: lazily by :meth:`FlatTables.context` (``None`` until first use).
        self.flat_dfa: FlatDFA | None = None
        #: The letter table :meth:`letter` reads.
        self.step = kernel.step_rev if backward else kernel.step
        if not pinned and not nulls:
            # No pins: the base closure IS the free closure, so share the
            # kernel's masks — and through them the document-index DFAs.
            self.closure = kernel.free_rev if backward else kernel.free
        else:
            moves = _free_moves(kernel.cva, pinned, nulls, backward)
            self.closure = _closure_masks(kernel.num_states, moves)

    @property
    def reverse(self) -> "SweepContext":
        """This partition swept the other way (built on first use;
        ``context.reverse.reverse is context``)."""
        mirror = self._reverse
        if mirror is None:
            mirror = self._reverse = SweepContext(self.kernel, self.pinned, self.nulls, self)
        return mirror

    @property
    def flat_dfa_rev(self) -> "FlatDFA | None":
        """The flat DFA of :attr:`reverse` (``None`` until first use)."""
        mirror = self._reverse
        return None if mirror is None else mirror.flat_dfa

    # -- primitive steps ---------------------------------------------------------

    def close(self, mask: int) -> int:
        out = 0
        closure = self.closure
        while mask:  # iter_bits, inlined: this fold is the hot primitive
            low = mask & -mask
            out |= closure[low.bit_length() - 1]
            mask ^= low
        return out

    def letter(self, mask: int, class_id: int) -> int:
        """The raw letter step (no closure) — used before a counted closure."""
        table = self.step[class_id]
        seeds = 0
        while mask:
            low = mask & -mask
            seeds |= table[low.bit_length() - 1]
            mask ^= low
        return seeds

    # -- counted closures (positions with required operations) -------------------

    def op_edges(self, key: tuple[str, str]) -> tuple[tuple[int, int], ...]:
        """``(from_bit, to_bit)`` pairs for one required op key, in sweep
        direction: source → target forward, target → source backward."""
        cached = self._op_edges.get(key)
        if cached is None:
            kind, variable = key
            cva = self.kernel.cva
            table = (
                cva.opens_by_variable if kind == "o" else cva.closes_by_variable
            )
            cached = tuple(
                (1 << target, 1 << source) if self.backward
                else (1 << source, 1 << target)
                for source, target in table.get(variable, ())
            )
            self._op_edges[key] = cached
        return cached

    def closure_counted(self, seeds: list[int], required: frozenset) -> list[int]:
        """Closure at a position with required ops, as per-count masks.

        ``seeds[c]`` holds the states that have performed ``c`` required
        operations; the result is the saturation under base-free moves
        (count unchanged) and required-op edges (count + 1) — the
        ``(state, count)`` closure of the seed's Theorem 5.7 sweep, one
        mask per count.  Required ops fire level by level — counts only
        grow — so one pass over ``0..total`` suffices.
        """
        total = len(required)
        edges = [edge for key in required for edge in self.op_edges(key)]
        out = [0] * (total + 1)
        carry = 0
        for count in range(total + 1):
            mask = carry | (seeds[count] if count < len(seeds) else 0)
            if not mask:
                carry = 0
                continue
            closed = self.close(mask)
            out[count] = closed
            if count < total:
                carry = 0
                for from_bit, to_bit in edges:
                    if closed & from_bit:
                        carry |= to_bit
        return out


class _TranslateTable(dict):
    """``str.translate`` table mapping code points to class-id characters.

    Unmentioned code points default to the residual class; the miss is
    memoised so repeated exotic characters cost one dict hit like
    everything else.
    """

    __slots__ = ("residual",)

    def __missing__(self, code: int) -> str:
        value = self.residual
        self[code] = value
        return value


class FlatDFA:
    """An interned lazy DFA over one closure: integer state ids, flat rows.

    Each distinct state mask is interned to a small integer id and the
    transition memo is one contiguous class-indexed ``array('i')`` row
    per id (``-1`` = unexplored, id ``0`` = the dead state).  The hot
    sweep loop is then ``row[class_id]`` — two indexed loads per
    character, no tuple keys, no big-int hashing.

    The table holds at most :data:`FLAT_STATE_LIMIT` states.  When
    :meth:`intern` meets a new mask on a full table it *flushes*: fresh
    ``masks``/``ids``/``rows`` lists holding only the dead state, then
    ``generation`` and ``flushes`` go up by one.  Only :meth:`intern` and
    :meth:`explore` (which interns) can flush, and both return an id of
    the current generation, so a sweep checks for a flush only on its
    miss branch: re-read ``rows``/``masks`` and carry on.  Ids it
    recorded earlier resolve through the lists captured with them
    (:class:`Trail`).

    A sweep holds ``lock`` while it touches the tables, from its first
    ``intern`` to its last id lookup: ids kept in locals stay valid only
    while no other thread can flush (one engine serves several threads
    under ``repro serve --workers 0``).
    """

    __slots__ = (
        "closure",
        "step_flat",
        "num_states",
        "num_classes",
        "masks",
        "ids",
        "rows",
        "generation",
        "flushes",
        "lock",
        "_blank",
    )

    def __init__(self, closure, step_flat, num_states: int, num_classes: int) -> None:
        #: Per-state closure masks this DFA saturates with (the kernel's
        #: free closure, its reverse, or a pin context's restriction).
        self.closure = closure
        #: Class-major flat letter table: ``step_flat[class_id * n + q]``.
        self.step_flat = step_flat
        self.num_states = num_states
        self.num_classes = num_classes
        self.generation = 0
        self.flushes = 0
        self.lock = threading.RLock()
        self._blank = array("i", [-1]) * num_classes
        self._restart()

    def _restart(self) -> None:
        self.masks: list[int] = [0]
        self.ids: dict[int, int] = {0: 0}
        # The dead state loops to itself on every class, so a dead sweep
        # short-circuits without ever exploring.
        self.rows: list[array] = [array("i", [0]) * self.num_classes]

    def intern(self, mask: int) -> int:
        """The state id of ``mask`` (assigning one on first sight)."""
        sid = self.ids.get(mask)
        if sid is None:
            if len(self.masks) >= FLAT_STATE_LIMIT:
                self._restart()
                self.generation += 1
                self.flushes += 1
            sid = len(self.masks)
            self.ids[mask] = sid
            self.masks.append(mask)
            self.rows.append(self._blank[:])
        return sid

    def explore(self, sid: int, class_id: int) -> int:
        """Resolve one unexplored transition (letter step then closure).

        Returns the target's id.  If interning it flushed the table,
        ``sid`` belongs to the old generation and nothing is recorded.
        """
        mask = self.masks[sid]
        step = self.step_flat
        base = class_id * self.num_states
        seeds = 0
        while mask:
            low = mask & -mask
            seeds |= step[base + low.bit_length() - 1]
            mask ^= low
        out = 0
        closure = self.closure
        while seeds:
            low = seeds & -seeds
            out |= closure[low.bit_length() - 1]
            seeds ^= low
        rows = self.rows
        target = self.intern(out)
        if rows is self.rows:
            rows[sid][class_id] = target
        return target


#: One unrecorded trail slot.  Ids stay below :data:`FLAT_STATE_LIMIT`;
#: an ``array`` slot costs 4 bytes where a list slot costs 8.
_ZERO_ID = array("i", [0])


class Trail:
    """Per-position state ids one sweep records on a :class:`FlatDFA`.

    The ids cover a window of positions: ``ids[pos - lo]`` is the id
    recorded at ``pos``.  A forward sweep may grow the window at its top
    by appending (positions recorded one after another), a backward one
    at its bottom through :meth:`grow_down`.  Ids resolve through
    ``table``, the masks list of the generation they were recorded in,
    so later flushes (by this sweep or any other on the shared DFA)
    never invalidate them.  When the DFA
    flushes *while* the sweep runs, the sweep calls :meth:`sync` with
    its frontier: the ids recorded since the last sync are settled into
    masks through the old list, and the trail adopts the new one.  Id 0
    is the dead state in every generation, so a zero test on ``ids``
    needs no resolving.
    """

    __slots__ = ("dfa", "ids", "lo", "table", "_mark", "_settled")

    def __init__(self, dfa: FlatDFA, size: int, start: int, lo: int = 0) -> None:
        self.dfa = dfa
        self.ids = _ZERO_ID * size
        #: The position of ``ids[0]``.
        self.lo = lo
        self.table = dfa.masks
        #: The first position recorded since the last generation change
        #: (``start``, the sweep's first, until a flush): ids from here on
        #: — up, or down on a backward sweep — belong to ``table``.
        self._mark = start
        self._settled: dict[int, int] | None = None

    @property
    def hi(self) -> int:
        """One past the window's top position."""
        return self.lo + len(self.ids)

    def grow_down(self, pos: int) -> None:
        """Extend the window down to ``pos`` with unrecorded (0) slots."""
        if pos < self.lo:
            self.ids[0:0] = _ZERO_ID * (self.lo - pos)
            self.lo = pos

    def sync(self, frontier: int) -> None:
        """Adopt the DFA's current generation if it flushed.

        ``frontier`` is the next position the sweep will record; every
        position between the last sync and it (exclusive — below it on a
        forward sweep, above it on a backward one) holds an id of the
        previous generation.
        """
        table = self.dfa.masks
        if table is self.table:
            return
        settled = self._settled
        if settled is None:
            settled = self._settled = {}
        old, ids, lo, mark = self.table, self.ids, self.lo, self._mark
        if frontier >= mark:
            positions = range(mark, frontier)
        else:
            positions = range(frontier + 1, mark + 1)
        for pos in positions:
            settled[pos] = old[ids[pos - lo]]
        self._mark = frontier
        self.table = table

    def mask(self, pos: int) -> int:
        """The state mask recorded at ``pos``."""
        settled = self._settled
        if settled is not None:
            mask = settled.get(pos)
            if mask is not None:
                return mask
        return self.table[self.ids[pos - self.lo]]

    def masks(self) -> list[int]:
        """Every recorded position's state mask, window order."""
        table, settled = self.table, self._settled
        if settled is None:
            return [table[sid] for sid in self.ids]
        return [
            table[sid] if (mask := settled.get(pos)) is None else mask
            for pos, sid in enumerate(self.ids, self.lo)
        ]


def _flat_sweep(fdfa, context, classes, start, end, masks, needed, required, trail=None):
    """Advance per-count masks from ``start`` to ``end`` on the flat DFA.

    ``masks``/``needed`` are the closure at ``start`` (``masks[needed]``
    is the live set).  Positions with required operations (the sorted
    keys of the ``required`` dict in ``(start, end]``) take a raw letter
    step and a counted closure; every run of plain positions between them
    walks the interned DFA — two indexed loads per character,
    re-interning the live mask only when re-entering from a counted
    closure.  When ``trail`` is given, the id of the count-0 closed state
    entering every swept position is appended to it — its window must
    end at ``start`` — and id 0 (the dead state) stops the sweep.  A
    flush of the DFA is caught on the miss branch: the sweep re-reads
    the rows, syncs its trail and carries on.  The caller holds
    ``fdfa.lock``.  Returns the final ``(masks, needed)`` pair — plain
    masks, a frontier any later extension can resume from — or ``None``
    once no run survives.
    """
    if start >= end:
        return masks, needed
    if not masks[needed]:
        return None
    points = sorted([pos for pos in required if start < pos <= end])
    points.append(end + 1)  # sentinel: a final plain run to ``end``
    explore = fdfa.explore
    record = None if trail is None else trail.ids.append
    pos = start
    state = fdfa.intern(masks[needed])
    if trail is not None:
        trail.sync(start + 1)
    for point in points:
        limit = point - 1 if point <= end else end
        if pos < limit:
            rows = fdfa.rows
            row = rows[state]
            if record is None:
                for class_id in classes[pos - 1 : limit - 1]:
                    target = row[class_id]
                    if target < 0:
                        target = explore(state, class_id)
                        rows = fdfa.rows
                    if not target:
                        return None
                    state = target
                    row = rows[target]
            else:
                for ahead, class_id in enumerate(classes[pos - 1 : limit - 1], pos + 1):
                    target = row[class_id]
                    if target < 0:
                        target = explore(state, class_id)
                        rows = fdfa.rows
                        trail.sync(ahead)
                    record(target)
                    if not target:
                        return None
                    state = target
                    row = rows[target]
            pos = limit
        if point > end:
            return [fdfa.masks[state]], 0
        # Counted landing at ``point``: raw letter step off the live mask,
        # then the requirement-tracking closure.
        upcoming = required[point]
        seeds = context.letter(fdfa.masks[state], classes[point - 2])
        masks = context.closure_counted([seeds], upcoming) if seeds else None
        if record is not None:
            entered = fdfa.intern(masks[0]) if masks else 0
            trail.sync(point)
            record(entered)
        if masks is None:
            return None
        needed = len(upcoming)
        if point == end:
            return masks, needed
        pos = point
        live = masks[needed]
        if not live:
            return None
        state = fdfa.intern(live)
        if trail is not None:
            trail.sync(point + 1)
    raise AssertionError("unreachable: the sentinel point always returns")


def _sweep_back(fdfa, classes, trail, position, live, target):
    """Extend a backward co-acceptance recording down to ``target``.

    ``fdfa`` is the flat DFA of a :attr:`SweepContext.reverse`.
    ``position`` is the next slot to record and ``live`` the mask of the
    co-acceptance states above it (0 once nothing co-accepts); slot ``j``
    ends up holding the states (post-closure at ``j``) from which the
    suffix ``j..end`` still accepts.  Each position walks the DFA — one
    step is the whole letter-then-closure composite, and its id is both
    the recorded slot and the continuation.  The masks come out closed
    under the reverse free moves, which is what makes a forward/backward
    intersection test exact: a forward-closed live mask meets slot ``j``
    iff it meets the raw co-acceptance set.  The caller holds
    ``fdfa.lock``.  Returns the new ``(position, live)`` frontier (live 0
    once nothing co-accepts: every lower slot stays 0).
    """
    if position < target or not live:
        return position, live
    trail.grow_down(target)
    state = fdfa.intern(live)
    trail.sync(position)
    ids, lo = trail.ids, trail.lo
    rows, explore = fdfa.rows, fdfa.explore
    row = rows[state]
    while position >= target:
        class_id = classes[position - 1]
        step = row[class_id]
        if step < 0:
            step = explore(state, class_id)
            rows = fdfa.rows
            trail.sync(position)
        ids[position - lo] = step
        position -= 1
        if not step:
            return position, 0
        state = step
        row = rows[step]
    return position, fdfa.masks[state]


class FlatTables:
    """The flat tables of one kernel: interned documents + flat DFAs.

    Built lazily by :attr:`Kernel.flat` and shared exactly like the
    kernel itself — per :class:`~repro.engine.tables.CompiledVA`, across
    every document and oracle call.  Holds the forward/backward
    document-index DFAs; pinned sweep contexts get their own
    :class:`FlatDFA` on first use (attached to the cached
    :class:`SweepContext`, so they obey the same LRU lifetime).
    """

    __slots__ = (
        "kernel",
        "classes",
        "num_states",
        "num_classes",
        "step_flat",
        "step_rev_flat",
        "dfa",
        "dfa_rev",
        "frontier",
        "_translate",
        "_np_table",
        "_interned",
        "_lock",
    )

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.classes = kernel.classes
        self.num_states = kernel.num_states
        self.num_classes = kernel.classes.count
        step_flat: list[int] = []
        for row in kernel.step:
            step_flat.extend(row)
        self.step_flat = step_flat
        step_rev_flat: list[int] = []
        for row in kernel.step_rev:
            step_rev_flat.extend(row)
        self.step_rev_flat = step_rev_flat
        self.dfa = FlatDFA(kernel.free, step_flat, self.num_states, self.num_classes)
        self.dfa_rev = FlatDFA(
            kernel.free_rev, step_rev_flat, self.num_states, self.num_classes
        )
        self._translate: _TranslateTable | None = None
        self._np_table = None
        self._interned: OrderedDict[tuple[int, int], tuple[str, object]]
        self._interned = OrderedDict()
        #: Guards the document LRU (see :attr:`Kernel._lock`); interning
        #: itself runs outside it.
        self._lock = threading.Lock()
        #: The enumeration's frontier DFA over these tables, attached
        #: lazily by :func:`repro.engine.oracle.frontier_dfa`.
        self.frontier = None

    # -- documents -------------------------------------------------------------

    def intern(self, text: str):
        """The (cached) class-id sequence of a document.

        ``bytes`` from one C-level ``str.translate`` pass (or a vectorised
        numpy table lookup for long documents); automata with more than
        256 alphabet classes get a tuple instead — the sweeps index either
        representation identically.  Keyed by ``(len, hash)`` so keys
        stay O(1); the stored text is compared on hit, so a hash
        collision costs a re-intern, never a wrong answer.
        """
        key = (len(text), hash(text))
        interned = self._interned
        with self._lock:
            entry = interned.get(key)
            if entry is not None and entry[0] == text:
                interned.move_to_end(key)
                return entry[1]
        if self.num_classes > 256:
            ids = self.classes.intern(text)
        else:
            ids = self._intern_bytes(text)
        with self._lock:
            if key not in interned and len(interned) >= _INTERN_LIMIT:
                interned.popitem(last=False)
            interned[key] = (text, ids)
        return ids

    def _intern_bytes(self, text: str) -> bytes:
        if len(text) >= NUMPY_INTERN_MIN and numpy_or_none() is not None:
            return self._intern_numpy(text)
        table = self._translate
        if table is None:
            table = _TranslateTable(
                (ord(char), chr(class_id))
                for char, class_id in self.classes._class_of.items()
            )
            table.residual = chr(self.classes.residual)
            self._translate = table
        return text.translate(table).encode("latin-1")

    def _intern_numpy(self, text: str) -> bytes:
        table = self._np_table
        if table is None:
            class_of = self.classes._class_of
            size = max((ord(char) for char in class_of), default=0) + 2
            table = _np.full(size, self.classes.residual, dtype=_np.uint8)
            for char, class_id in class_of.items():
                table[ord(char)] = class_id
            self._np_table = table
        codes = _np.frombuffer(text.encode("utf-32-le"), dtype=_np.uint32)
        # Code points past the table (all unmentioned) clip onto the last
        # slot, which is one past the highest mentioned code point and
        # therefore always residual.
        return table[_np.minimum(codes, len(table) - 1)].tobytes()

    # -- sweep contexts ----------------------------------------------------------

    def context(self, context: SweepContext) -> FlatDFA:
        """The flat DFA of one sweep context (built on first use).

        A forward context steps on the letter table, a
        :attr:`~SweepContext.reverse` one on its transpose.  The no-pin
        context and its reverse share the document-index pair — the
        index's sweeps and the unpinned oracle warm the
        same interned states.
        """
        dfa = context.flat_dfa
        if dfa is None:
            kernel = self.kernel
            if context.closure is kernel.free:
                dfa = self.dfa
            elif context.closure is kernel.free_rev:
                dfa = self.dfa_rev
            else:
                dfa = FlatDFA(
                    context.closure,
                    self.step_rev_flat if context.backward else self.step_flat,
                    self.num_states,
                    self.num_classes,
                )
            context.flat_dfa = dfa
        return dfa
