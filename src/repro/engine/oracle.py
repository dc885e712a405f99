"""Compiled, memoised ``Eval`` oracles (Theorem 5.7 on tables).

Every engine automaton is sequential — :func:`~repro.engine.tables.compile_va`
applies Proposition 5.6 to any input that is not — so one sweep serves
them all.  Two layers, and what the second shares between its instances:

* :func:`eval_compiled` — a drop-in for
  :func:`repro.evaluation.eval_problem.eval_va` that runs Theorem 5.7's
  sweep (:func:`~repro.engine.kernel._flat_sweep`) on the kernel's flat
  lazy DFA: state sets are interned bitmasks, a position without required
  operations is one table load, and the ≤ 2k positions with required
  operations run a counted closure over per-count masks.

* :class:`FlatNodeSweep` — the enumeration-time oracle for one recursion
  node of Algorithm 2.  A node fixes a base extended mapping ``µ`` and
  refines one variable ``x``; its sibling branches ``µ[x → (i, j)]``
  share the entire sweep prefix below position ``i``, so the node runs
  that prefix once and answers each sibling from the recorded state —
  turning the seed's ``O(|d|)`` sweep per candidate into a few table
  lookups — and generates its accepted spans from its own sweeps
  instead of being asked about every candidate pair.

* :class:`SweepShare` — what sibling *nodes* share within one
  enumeration call.  Nodes of one sweep context differ only in where
  their pins sit, so the share keeps, per context, the pin-free forward
  and backward trails and the latest node that swept past its pins: a
  node sweeps only from its first pin until it rejoins that sibling's
  trail, and backward only below its last pin.  Per-node sweeping then
  follows the pinned stretch, not ``|d|``.

Every recording here is one of the kernel's two recorded sweeps; only
:meth:`FlatNodeSweep._sweep_tail`, which compares ids with a sibling's
trail as it goes, walks the DFA rows itself.

The seed evaluators of :mod:`repro.evaluation` — Theorem 5.10's general
sweep included — are the reference all of this is cross-validated
against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from typing import NamedTuple

from repro.engine.kernel import Trail, _flat_sweep, _sweep_back
from repro.engine.tables import CompiledVA, close_key, open_key
from repro.spans.mapping import NULL, ExtendedMapping, Variable
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

    def at(self, pos: int) -> frozenset:
        return self.required.get(pos, _NO_OPS)


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


def _segments(starts, trails, end: int, pos: int) -> list[tuple[int, int, Trail]]:
    """A base trail from ``pos`` on, as ``(begin, stop, trail)`` pieces:
    positions ``begin ≤ p < stop`` read ``trail``.  ``trails[k]`` holds
    the positions from ``starts[k]`` up to the next start (the last one
    up to ``end``)."""
    at = bisect_right(starts, pos) - 1
    stops = starts[at + 1 :] + [end + 1]
    return [
        (max(starts[at + offset], pos), stop, trails[at + offset])
        for offset, stop in enumerate(stops)
    ]


class _Reference(NamedTuple):
    """What later siblings read of a lane's reference node: its base
    trail pieces, its last pin and its final state.  Not the node itself,
    which holds its lane — that cycle would keep a finished call's trails
    alive until the next full garbage collection."""

    starts: list[int]
    trails: list[Trail]
    last: int
    final_masks: list[int]
    final_needed: int


class _Lane:
    """One sweep context's shared trails inside a :class:`SweepShare`.

    The forward trail records the pin-free base sweep (every pinned
    operation forbidden) from position 1, the backward trail the pin-free
    co-acceptance sweep from ``end``; both are extended on demand only
    (:meth:`forward_to`, :meth:`backward_to`).  ``reference`` is the
    :class:`_Reference` of the most recent node of the context whose own
    sweep ran past its last pin: the trail later siblings try to rejoin.
    """

    __slots__ = (
        "reference",
        "_cva",
        "_end",
        "_context",
        "_reverse",
        "_fdfa",
        "_flat",
        "_classes",
        "_forward",
        "_backward",
        "_back_pos",
        "_back_mask",
    )

    def __init__(self, node: "FlatNodeSweep") -> None:
        self._cva = node.cva
        self._end = node.end
        self.reference: _Reference | None = None
        self._context = node._context
        self._fdfa = node._fdfa
        self._flat = node._flat
        self._classes = node._classes
        self._forward: Trail | None = None
        self._backward: Trail | None = None

    def forward_to(self, pos: int) -> Trail:
        """The pin-free forward trail, recorded through ``pos`` (or up to
        where no run survives)."""
        fdfa, trail = self._fdfa, self._forward
        if trail is None:
            with fdfa.lock:
                state = fdfa.intern(self._context.close(1 << self._cva.initial))
                trail = self._forward = Trail(fdfa, 1, 1, 1)
                trail.ids[0] = state
        top = trail.hi - 1
        if top < pos and trail.ids[-1]:
            with fdfa.lock:
                masks = [trail.mask(top)]
                _flat_sweep(fdfa, self._context, self._classes, top, pos, masks, 0, {}, trail)
        return trail

    def backward_to(self, pos: int) -> Trail:
        """The pin-free co-acceptance trail, recorded down to ``pos`` (or
        down to where nothing co-accepts)."""
        trail = self._backward
        if trail is None:
            reverse = self._reverse = self._context.reverse
            fdfa = self._flat.context(reverse)
            end = self._end
            live = reverse.close(1 << self._cva.final)
            with fdfa.lock:
                state = fdfa.intern(live)
                trail = self._backward = Trail(fdfa, end + 1, end)
                trail.ids[end] = state
            self._back_pos, self._back_mask = end - 1, live
        if self._back_pos >= pos and self._back_mask:
            fdfa = trail.dfa
            with fdfa.lock:
                frontier = (self._back_pos, self._back_mask)
                self._back_pos, self._back_mask = _sweep_back(
                    fdfa, self._reverse, self._classes, {}, trail, *frontier, pos
                )
        return trail


class SweepShare:
    """The sweeps sibling enumeration nodes share, one lane per
    :class:`~repro.engine.kernel.SweepContext`.

    One share serves one document: :meth:`CompiledSpanner.enumerate
    <repro.engine.compiled.CompiledSpanner.enumerate>` makes a fresh one
    per call and hands it to every :class:`FlatNodeSweep` it builds.  It
    lives only as long as that call — not on the cached document index,
    not on the kernel that threads share — so it needs no lock of its
    own; the trails it holds take their DFA's lock like every sweep.
    """

    __slots__ = ("_lanes",)

    def __init__(self) -> None:
        self._lanes: dict[object, _Lane] = {}

    def lane(self, node: "FlatNodeSweep") -> _Lane:
        """The lane of ``node``'s sweep context (opened by its first node)."""
        lane = self._lanes.get(node._context)
        if lane is None:
            lane = self._lanes[node._context] = _Lane(node)
        return lane


class FlatNodeSweep:
    """Sibling-sharing oracle for one recursion node (sequential automata).

    The base context pins every previously fixed variable and treats the
    refined variable ``x`` as *operation-less pinned* — classified exactly
    like ``x → ⊥`` — so one base sweep both answers the ``⊥`` branch and
    records the count-0 closed state entering every position, shared
    verbatim by every span branch ``(i, j)``: a branch resumes at ``i``
    with the open/close requirements spliced in (base closure is
    idempotent, so resuming from the closed state is exact).

    The node's pins confine its own work to a short stretch.  Nodes of
    one sweep context differ only in where their pins sit, so the
    context's lane in the :class:`SweepShare` keeps what they have in
    common:

    * **before the first pin** the base sweep is the context's pin-free
      forward trail, read as it is (and extended to this node's first
      pin if no sibling has gone that far);
    * **from the first pin** the node sweeps itself, and past its last
      pin it compares its state ids with the lane's reference — the most
      recent sibling that swept past its own last pin — at every position
      past both last pins where the reference's ids are of the DFA's
      current generation.  The first match is a rejoin: from there both
      runs meet no pin and read the same letters, so the node reads the
      reference's trail (and final state) instead of sweeping on;
    * **co-acceptance** — the states from which the suffix ``j..end``
      still accepts, met with a span's live mask at its close ``j`` —
      comes above the last pin from the lane's pin-free backward trail;
      the node sweeps backward itself only from its last pin down to the
      lowest close it is asked about.

    So beyond what it shares, a node costs its pinned stretch, the
    distance to its rejoin point and its queried closes — not ``|d|``.
    The base trail is a list of pieces (:func:`_segments`) of those
    trails.  The sharing goes two levels deeper inside the node: for a
    fixed open position ``i``, one *open sweep* (the open spliced at
    ``i``) records the states entering later positions, so each sibling
    close ``j`` resumes from a recorded state, and the co-acceptance slot
    at ``j`` turns the run from ``j`` to ``end`` into one mask
    intersection.

    The node generates its accepted spans itself (:meth:`spans`): it
    passes over the open positions once, skips an ``i`` the base run
    never enters or where no ``x⊢`` can fire, and walks the close
    positions ``j ≥ i`` only until the open sweep's frontier dies.  Each
    surviving pair costs one counted closure plus two table lookups —
    the same verdict :meth:`accepts_span` gives a single span.  Every
    recording is a :class:`Trail`, so it stays valid when any sweep
    flushes the shared DFAs.  A recording that resumes across calls (the
    open sweep, the backward sweeps) keeps its frontier as masks, not as
    a state id, and the next extension re-interns it in whatever
    generation the DFA has reached.

    ``share`` defaults to a fresh, empty share: a lone node sweeps
    everything itself, exactly as much as one node of a shared context.
    """

    __slots__ = (
        "cva",
        "text",
        "end",
        "variable",
        "valid",
        "_context",
        "_reverse",
        "_flat",
        "_fdfa",
        "_classes",
        "_required",
        "_lane",
        "_last",
        "_starts",
        "_trails",
        "_forward",
        "_backward",
        "_back_pos",
        "_back_mask",
        "_final_masks",
        "_final_needed",
        "_open_key",
        "_close_key",
        "_open_at",
        "_open",
        "_open_frontier",
    )

    def __init__(
        self,
        cva: CompiledVA,
        text: str,
        base,
        variable: Variable,
        classes=None,
        share: SweepShare | None = None,
    ) -> None:
        self.cva = cva
        self.text = text
        self.end = len(text) + 1
        self.variable = variable
        requirements = Requirements(cva, self.end, base)
        self.valid = requirements.valid
        self._open_key = open_key(variable)
        self._close_key = close_key(variable)
        self._open_at = 0  # position of the cached open sweep (0 = none)
        self._open: Trail | None = None
        self._forward: Trail | None = None
        self._backward: Trail | None = None
        if not self.valid:
            return
        kernel = cva.kernel
        flat = self._flat = kernel.flat
        # x joins the pinned set with no required ops anywhere: forbidden at
        # every position, exactly like the ⊥ pin, so the prefix states are
        # shared verbatim by every sibling branch.
        self._context = kernel.context(
            frozenset(requirements.pinned | {variable}),
            frozenset(requirements.nulls),
        )
        self._classes = flat.intern(text) if classes is None else classes
        self._fdfa = flat.context(self._context)
        required = self._required = requirements.required
        self._last = max(required, default=0)
        self._lane = (SweepShare() if share is None else share).lane(self)
        self._run_base()

    def _run_base(self) -> None:
        lane, end, last = self._lane, self.end, self._last
        context, fdfa, required = self._context, self._fdfa, self._required
        first = min(required, default=end)
        shared = lane.forward_to(first)
        self._starts, self._trails = [1], [shared]
        # Until a sweep reaches the end: no run survives.
        self._final_masks, self._final_needed = [0], 0
        if not shared.id(first):
            return  # no pin-free run reaches the first pin
        ops = required.get(first, _NO_OPS)
        masks, needed = context.closure_counted([shared.mask(first)], ops), len(ops)
        if first == end:
            self._final_masks, self._final_needed = masks, needed
            return
        reference = lane.reference
        with fdfa.lock:
            own = self._forward = Trail(fdfa, 0, first + 1, first + 1)
            self._starts.append(first + 1)
            self._trails.append(own)
            swept = _flat_sweep(
                fdfa, context, self._classes, first, last, masks, needed, required, own
            )
            if swept is None:
                return
            masks, needed = swept
            if last == end:
                self._final_masks, self._final_needed = masks, needed
                return
            if not masks[needed]:
                return
            reached = self._sweep_tail(masks[needed], reference)
        if reached:
            lane.reference = _Reference(
                self._starts, self._trails, last, self._final_masks, self._final_needed
            )

    def _sweep_tail(self, live: int, reference: _Reference | None) -> bool:
        """The plain positions after the last pin, from the live mask
        there, until the end or a rejoin with ``reference`` (the caller
        holds the DFA lock).  Returns whether a run survives to the end.

        Ids are compared only past both last pins — from there neither
        run meets a pin — and only against reference ids of the DFA's
        current generation: a flush under this sweep ends the comparing.
        """
        fdfa, own, end = self._fdfa, self._forward, self.end
        pos = self._last
        state = fdfa.intern(live)
        own.sync(pos + 1)
        stretches = [(end, None)]
        if reference is not None:
            bar = max(pos, reference.last)
            stretches = [(bar, None)] + [
                (stop - 1, trail)
                for _, stop, trail in _segments(reference.starts, reference.trails, end, bar + 1)
            ]
        record, classes = own.ids.append, self._classes
        rows, explore = fdfa.rows, fdfa.explore
        row = rows[state]
        for stop, trail in stretches:
            if pos >= stop:
                continue
            # ``mark``: the first position whose reference id is comparable.
            table, mark, ids, lo = None, end + 1, (), 0
            if trail is not None and trail.current_from() is not None:
                table, mark = trail.table, trail.current_from()
                ids, lo = trail.ids, trail.lo
            for ahead, class_id in enumerate(classes[pos - 1 : stop - 1], pos + 1):
                target = row[class_id]
                if target < 0:
                    target = explore(state, class_id)
                    rows = fdfa.rows
                    own.sync(ahead)
                    if fdfa.masks is not table:
                        mark = end + 1
                record(target)
                if not target:
                    return False
                if ahead >= mark and target == ids[ahead - lo]:
                    # Rejoined: read the reference from the next position on.
                    tail = _segments(reference.starts, reference.trails, end, ahead + 1)
                    for begin, _, shared in tail:
                        if begin <= end:
                            self._starts.append(begin)
                            self._trails.append(shared)
                    self._final_masks = reference.final_masks
                    self._final_needed = reference.final_needed
                    return True
                state = target
                row = rows[target]
            pos = stop
        self._final_masks, self._final_needed = [fdfa.masks[state]], 0
        return True

    def _base(self, pos: int) -> Trail:
        """The trail holding the base sweep's state entering ``pos``."""
        return self._trails[bisect_right(self._starts, pos) - 1]

    def accepts_null(self) -> bool:
        """The verdict for ``µ[x → ⊥]`` — the base sweep's own acceptance."""
        if not self.valid:
            return False
        tail = len(self._required.get(self.end, _NO_OPS))
        if tail != self._final_needed:
            return False
        return bool((self._final_masks[tail] >> self.cva.final) & 1)

    def _open_sweep(self, i: int, j: int) -> Trail:
        """The trail of state ids entering positions ``(i, j]`` after
        splicing the open at ``i``.

        One sweep per distinct ``i``, cached and extended *lazily*:
        :meth:`spans` is ``i``-major, so sibling close positions hit the
        cache, and the walk only ever advances to the largest ``j``
        queried — accepted spans are usually short, so this stays far
        from ``end``.  Slot ``j`` holds the id of the count-0 closed
        state entering ``j`` for runs that satisfied the base
        requirements *and* opened ``x`` at ``i`` (0 = no such run, so the
        span ``(i, j)`` is rejected for free).  The frontier at the
        window's top is :func:`_flat_sweep`'s ``(masks, needed)``
        (``None`` once dead: the window ends where the sweep died).
        """
        fdfa, trail = self._fdfa, self._open
        if self._open_at != i:
            ops = self._required.get(i, _NO_OPS) | {self._open_key}
            masks = self._context.closure_counted([self._base(i).mask(i)], ops)
            trail = self._open = Trail(fdfa, 0, i + 1, i + 1)
            self._open_at, self._open_frontier = i, (masks, len(ops))
        frontier, top = self._open_frontier, trail.hi - 1
        if frontier is not None and top < j:
            context, classes, required = self._context, self._classes, self._required
            with fdfa.lock:
                self._open_frontier = _flat_sweep(
                    fdfa, context, classes, top, j, *frontier, required, trail
                )
        return trail

    def _coaccepting(self, j: int) -> int:
        """The co-acceptance mask at ``j < end`` (0 when nothing
        co-accepts there) under the base requirements.

        Above the last pin it is the lane's pin-free backward trail.  At
        or below it, the node's own backward sweep starts from the lane's
        slot just above the last pin (or from the end's operations when
        the last pin is ``end``) and is extended lazily down to the
        lowest ``j`` asked for.
        """
        last, end = self._last, self.end
        if j > last:
            trail = self._lane.backward_to(j)
        else:
            trail = self._backward
            if trail is None:
                reverse = self._reverse = self._context.reverse
                fdfa = self._flat.context(reverse)
                final_mask = 1 << self.cva.final
                if last == end:
                    tail = self._required[end]
                    current = reverse.closure_counted([final_mask], tail)[len(tail)]
                    position = end - 1
                else:
                    above = self._lane.backward_to(last + 1)
                    current = above.mask(last + 1) if above.id(last + 1) else 0
                    position = last
                trail = self._backward = Trail(fdfa, 0, position, position + 1)
                self._back_pos, self._back_mask = position, current
            if self._back_pos >= j and self._back_mask:
                fdfa = trail.dfa
                with fdfa.lock:
                    frontier = (self._back_pos, self._back_mask)
                    self._back_pos, self._back_mask = _sweep_back(
                        fdfa, self._reverse, self._classes, self._required, trail, *frontier, j
                    )
        return trail.mask(j) if trail.id(j) else 0

    def accepts_span(self, span: Span) -> bool:
        """The verdict for ``µ[x → span]``, resumed from the shared prefix."""
        if not self.valid:
            return False
        i, j = span.begin, span.end
        if i < 1 or j > self.end or self.variable not in self.cva.variables:
            return False
        if not self._base(i).id(i):
            return False
        return self._resume(i, j)

    def spans(self, opens: Sequence[int], closes: Sequence[int]) -> Iterator[Span]:
        """The accepted spans ``(i, j)`` with ``i`` in ``opens``, ``j`` in
        ``closes`` and ``i ≤ j``, in the seed's ``i``-major order.

        ``opens`` and ``closes`` are ascending positions in ``1..end`` (a
        :class:`~repro.engine.tables.DocumentIndex`'s).  The output is
        exactly the pairs :meth:`accepts_span` accepts, but an ``i`` is
        skipped outright when the base run never enters it or, if ``i``
        carries no pinned operation, when its entering state holds no
        source of an ``x⊢`` edge (with another operation at ``i``, ``x⊢``
        may fire after it, from a state the entering mask lacks); and the
        walk over ``j`` stops once the open sweep from ``i`` is dead.
        """
        if not self.valid or self.variable not in self.cva.variables:
            return
        required = self._required
        sources = 0
        for source_bit, _ in self._context.op_edges(self._open_key):
            sources |= source_bit
        resume = self._resume
        count = len(closes)
        for begin, stop, trail in _segments(self._starts, self._trails, self.end, 1):
            ids, lo = trail.ids, trail.lo
            size = len(ids)
            for i in opens[bisect_left(opens, begin) : bisect_left(opens, stop)]:
                if i - lo >= size or not ids[i - lo]:
                    continue
                if i not in required and not trail.mask(i) & sources:
                    continue
                for at in range(bisect_left(closes, i), count):
                    j = closes[at]
                    if self._open_at == i and self._open_frontier is None and self._open.hi <= j:
                        break  # every slot past the dead sweep's window is 0
                    if resume(i, j):
                        yield Span(i, j)

    def _resume(self, i: int, j: int) -> bool:
        """The verdict for ``µ[x → (i, j)]`` once the base run enters ``i``:
        splice the operations in, resume from the recorded prefix and meet
        the co-acceptance slot at ``j``."""
        context = self._context
        required = self._required
        if i == j:
            # Empty span: both operations splice into one position's
            # counted closure, resumed from the base entering state.
            ops = required.get(i, _NO_OPS) | {self._open_key, self._close_key}
            levels = context.closure_counted([self._base(i).mask(i)], ops)
        else:
            trail = self._open_sweep(i, j)
            if not trail.id(j):
                return False
            # Resume at ``j``: the close joins whatever base operations
            # ``j`` already requires (closure idempotence makes resuming
            # from the recorded closed state exact, as at the node level).
            ops = required.get(j, _NO_OPS) | {self._close_key}
            levels = context.closure_counted([trail.mask(j)], ops)
        live = levels[len(ops)]
        if not live:
            return False
        if j == self.end:
            return bool((live >> self.cva.final) & 1)
        return bool(live & self._coaccepting(j))
