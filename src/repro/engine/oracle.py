"""Compiled, memoised ``Eval`` oracles (Theorems 5.7 / 5.10 on tables).

Two layers:

* :func:`eval_compiled` — a drop-in for
  :func:`repro.evaluation.eval_problem.eval_va` that runs the same position
  sweeps over :class:`~repro.engine.tables.CompiledVA` tables.  Sequentiality
  is decided once at compile time instead of per oracle call.  Sequential
  automata run Theorem 5.7's sweep on the kernel's flat lazy DFA
  (:mod:`repro.engine.kernel`): state sets are interned bitmasks, a
  position without required operations is one table load, and the ≤ 2k
  positions with required operations run a counted closure over
  per-count masks.  Non-sequential automata run Theorem 5.10's FPT sweep
  over set-based states — its performed-sets and status vectors do not
  pack into per-state bits.

* :class:`FlatNodeSweep` — the enumeration-time oracle for one recursion
  node of Algorithm 2 on sequential automata.  A node fixes a base
  extended mapping ``µ`` and refines one variable ``x``; its sibling
  branches ``µ[x → (i, j)]`` share the entire sweep prefix below position
  ``i``, so the node runs that prefix once and answers each sibling from
  the recorded state — turning the seed's ``O(|d|)`` sweep per candidate
  into a few table lookups — and generates its accepted spans from its
  own sweeps instead of being asked about every candidate pair.
  :class:`GeneralNode` is the full-sweep oracle for non-sequential
  automata.

The seed evaluators of :mod:`repro.evaluation` are the reference both
layers are cross-validated against.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Sequence

from repro.engine.kernel import Trail
from repro.engine.tables import CompiledVA, close_key, open_key
from repro.spans.mapping import NULL, ExtendedMapping, Variable
from repro.spans.span import Span

_NO_OPS: frozenset = frozenset()

_FRESH, _OPEN, _DONE = range(3)


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


def _flat_sweep(fdfa, context, classes, start, end, masks, needed, required, trail=None):
    """Advance per-count masks from ``start`` to ``end`` on the flat DFA.

    ``masks``/``needed`` are the closure at ``start`` (``masks[needed]``
    is the live set).  Positions with required operations (the sorted
    keys of the ``required`` dict in ``(start, end]``) take a raw letter
    step and a counted closure; every run of plain positions between them
    walks the interned DFA — two indexed loads per character,
    re-interning the live mask only when re-entering from a counted
    closure.  When ``trail`` is given, the id of the count-0 closed state
    entering every swept position is recorded into it (id 0 — the dead
    state — stops the sweep).  A flush of the DFA is caught on the miss
    branch: the sweep re-reads the rows, syncs its trail and carries on.
    Returns the final ``(masks, needed)`` pair, or ``None`` once no run
    survives.
    """
    if start >= end:
        return masks, needed
    if not masks[needed]:
        return None
    if required:
        points = sorted(pos for pos in required if start < pos <= end)
    else:
        points = []
    points.append(end + 1)  # sentinel: a final plain run to ``end``
    explore = fdfa.explore
    ids = None if trail is None else trail.ids
    pos = start
    state = fdfa.intern(masks[needed])
    if trail is not None:
        trail.sync(start + 1)
    for point in points:
        limit = point - 1 if point <= end else end
        if pos < limit:
            rows = fdfa.rows
            row = rows[state]
            if ids is None:
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
                    ids[ahead] = target
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
        if ids is not None:
            entered = fdfa.intern(masks[0]) if masks else 0
            trail.sync(point)
            ids[point] = entered
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


def eval_sequential_compiled(cva: CompiledVA, text: str, pinned) -> bool:
    """Theorem 5.7's sweep over the kernel's flat tables."""
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
    first = required.get(1)
    initial_mask = 1 << cva.initial
    if first:
        masks = context.closure_counted([initial_mask], first)
        needed = len(first)
    else:
        masks = [context.close(initial_mask)]
        needed = 0
    with fdfa.lock:
        swept = _flat_sweep(fdfa, context, classes, 1, end, masks, needed, required)
    if swept is None:
        return False
    masks, needed = swept
    return bool((masks[needed] >> cva.final) & 1)


def _general_closure(cva: CompiledVA, seeds, required: frozenset, pinned, nulls, index):
    """Theorem 5.10's closure: performed-set plus free-variable statuses."""
    out = set(seeds)
    frontier = list(out)
    eps, opens, closes = cva.eps, cva.opens, cva.closes
    while frontier:
        state, done, statuses = frontier.pop()
        for target in eps[state]:
            nxt = (target, done, statuses)
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
        for kind, table, before, after in (
            ("o", opens, _FRESH, _OPEN),
            ("c", closes, _OPEN, _DONE),
        ):
            for variable, target in table[state]:
                if variable in nulls and kind == "c":
                    # ⊥-pin: the close would assign the variable; the open
                    # stays available and is status-tracked like a free one.
                    continue
                if variable in pinned:
                    key = (kind, variable)
                    if key in done or key not in required:
                        continue
                    if (
                        kind == "c"
                        and ("o", variable) in required
                        and ("o", variable) not in done
                    ):
                        # Empty pinned span: the open must precede the close
                        # within this position for the run to be valid.
                        continue
                    nxt = (target, done | {key}, statuses)
                else:
                    i = index[variable]
                    if statuses[i] != before:
                        continue
                    nxt = (
                        target,
                        done,
                        statuses[:i] + (after,) + statuses[i + 1 :],
                    )
                if nxt not in out:
                    out.add(nxt)
                    frontier.append(nxt)
    return out


def eval_general_compiled(cva: CompiledVA, text: str, pinned) -> bool:
    """Theorem 5.10's FPT sweep over compiled tables."""
    end = len(text) + 1
    requirements = Requirements(cva, end, pinned)
    if not requirements.valid:
        return False
    pinned_set, nulls = requirements.pinned, requirements.nulls
    # ⊥-pinned variables stay status-tracked (opens may fire at most once on
    # a run); only span-pinned variables leave the status vector.
    free_variables = tuple(sorted(cva.mentioned_variables - pinned_set))
    index = {variable: i for i, variable in enumerate(free_variables)}
    initial = (cva.initial, _NO_OPS, (_FRESH,) * len(free_variables))
    current = _general_closure(
        cva, {initial}, requirements.at(1), pinned_set, nulls, index
    )
    for pos in range(1, end):
        required = requirements.at(pos)
        letter = text[pos - 1]
        seeds = set()
        step = cva.step
        for state, done, statuses in current:
            if done != required:
                continue
            for target in step(state, letter):
                seeds.add((target, _NO_OPS, statuses))
        if not seeds:
            return False
        current = _general_closure(
            cva, seeds, requirements.at(pos + 1), pinned_set, nulls, index
        )
    required = requirements.at(end)
    final = cva.final
    return any(
        state == final and done == required for state, done, _ in current
    )


def eval_compiled(cva: CompiledVA, text: str, pinned: ExtendedMapping) -> bool:
    """``Eval[VA]`` on compiled tables (sequentiality decided at compile time).

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
    if cva.is_sequential:
        return eval_sequential_compiled(cva, text, pinned)
    return eval_general_compiled(cva, text, pinned)


class FlatNodeSweep:
    """Sibling-sharing oracle for one recursion node (sequential automata).

    The base context pins every previously fixed variable and treats the
    refined variable ``x`` as *operation-less pinned* — classified exactly
    like ``x → ⊥`` — so one base sweep both answers the ``⊥`` branch and
    records the count-0 closed state entering every position, shared
    verbatim by every span branch ``(i, j)``: a branch resumes at ``i``
    with the open/close requirements spliced in (base closure is
    idempotent, so resuming from the closed state is exact).  Plain
    positions walk the interned flat DFA, and the sharing goes two
    levels deeper:

    * for a fixed open position ``i``, one *open sweep* (the open
      spliced at ``i``) records the states entering every later position,
      so each sibling close position ``j`` resumes from a recorded state
      instead of re-sweeping ``i..j``;
    * one *backward co-acceptance sweep* per node records, for every
      position ``j``, the states that can still complete the suffix
      ``j..end`` under the base requirements — so the run from ``j`` to
      ``end`` collapses to a single mask intersection.  Forward masks
      are closed under the context's free moves and the backward masks
      are closed under their reversal, so a non-empty intersection is
      exactly suffix acceptance.

    The node generates its accepted spans itself (:meth:`spans`): it
    passes over the open positions once, skips an ``i`` the base run
    never enters or where no ``x⊢`` can fire, and walks the close
    positions ``j ≥ i`` only until the open sweep's frontier dies.  Each
    surviving pair costs one counted closure plus two table lookups —
    the same verdict :meth:`accepts_span` gives a single span.  All three
    recordings are :class:`Trail` s, so they stay valid when any sweep
    flushes the shared DFAs; the open sweep, which resumes across calls,
    carries its live state over into the new generation.
    """

    __slots__ = (
        "cva",
        "text",
        "end",
        "variable",
        "valid",
        "_context",
        "_flat",
        "_fdfa",
        "_classes",
        "_required",
        "_base",
        "_entering",
        "_final_masks",
        "_final_needed",
        "_open_key",
        "_close_key",
        "_open_at",
        "_open",
        "_open_entering",
        "_open_pos",
        "_open_state",
        "_coaccept",
    )

    def __init__(
        self,
        cva: CompiledVA,
        text: str,
        base,
        variable: Variable,
        classes=None,
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
        self._coaccept: Trail | None = None
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
        self._required = requirements.required
        self._run_base()

    def _run_base(self) -> None:
        context, fdfa = self._context, self._fdfa
        required = self._required
        initial_mask = 1 << self.cva.initial
        closed = context.close(initial_mask)
        first = required.get(1)
        if first:
            masks = context.closure_counted([initial_mask], first)
            needed = len(first)
        else:
            masks = [closed]
            needed = 0
        with fdfa.lock:
            start = fdfa.intern(closed)
            trail = self._base = Trail(fdfa, self.end + 1, 1)
            self._entering = trail.ids
            trail.ids[1] = start
            swept = _flat_sweep(
                fdfa, context, self._classes, 1, self.end, masks, needed, required, trail
            )
        if swept is None:
            # Some position was unreachable in the base context; every
            # later slot stays 0 and no branch can accept.
            self._final_masks = [0]
            self._final_needed = 0
        else:
            self._final_masks, self._final_needed = swept

    def accepts_null(self) -> bool:
        """The verdict for ``µ[x → ⊥]`` — the base sweep's own acceptance."""
        if not self.valid:
            return False
        tail = len(self._required.get(self.end, _NO_OPS))
        if tail != self._final_needed:
            return False
        return bool((self._final_masks[tail] >> self.cva.final) & 1)

    def _open_sweep(self, i: int, j: int) -> list[int]:
        """State ids entering positions ``(i, j]`` after splicing the open
        at ``i`` (resolve them through :attr:`_open`).

        One sweep per distinct ``i``, cached and extended *lazily*:
        :meth:`spans` is ``i``-major, so sibling close positions hit the
        cache, and the walk only ever advances to the largest ``j``
        queried — accepted spans are usually short, so this stays far
        from ``end``.  Slot ``j`` holds the id of the count-0 closed
        state entering ``j`` for runs that satisfied the base
        requirements *and* opened ``x`` at ``i`` (0 = no such run, so the
        span ``(i, j)`` is rejected for free).
        """
        if self._open_at == i:
            pos = self._open_pos
            if pos >= j:
                return self._open_entering
            state = self._open_state
            if not state:
                return self._open_entering  # a dead frontier leaves 0s
            live = None
        else:
            ops = self._required.get(i, _NO_OPS) | {self._open_key}
            masks = self._context.closure_counted([self._base.mask(i)], ops)
            live = masks[len(ops)]
            pos = i
        fdfa = self._fdfa
        context, classes = self._context, self._classes
        required = self._required
        with fdfa.lock:
            if live is not None:  # a fresh open sweep
                state = fdfa.intern(live) if live else 0
                trail = self._open
                if trail is None:
                    trail = self._open = Trail(fdfa, self.end + 1, i + 1)
                    self._open_entering = trail.ids
                else:
                    # Reuse the slots: zero what the last open sweep recorded.
                    done = self._open_at
                    trail.ids[done + 1 : self._open_pos + 1] = [0] * (
                        self._open_pos - done
                    )
                    trail.restart(i + 1)
                self._open_at = i
            else:
                trail = self._open
                if fdfa.masks is not trail.table:
                    # Another sweep flushed the shared DFA since the last
                    # call: carry the live state over into the new
                    # generation.
                    state = fdfa.intern(trail.table[state])
                    trail.sync(pos + 1)
            ids = trail.ids
            rows, explore = fdfa.rows, fdfa.explore
            while pos < j and state:
                ahead = pos + 1
                ops = required.get(ahead)
                if ops is None:
                    class_id = classes[pos - 1]
                    target = rows[state][class_id]
                    if target < 0:
                        target = explore(state, class_id)
                        rows = fdfa.rows
                        trail.sync(ahead)
                    ids[ahead] = target
                    state = target
                else:
                    seeds = context.letter(fdfa.masks[state], classes[pos - 1])
                    state = 0
                    if seeds:
                        masks = context.closure_counted([seeds], ops)
                        entered = fdfa.intern(masks[0])
                        trail.sync(ahead)
                        ids[ahead] = entered
                        live = masks[len(ops)]
                        if live:
                            state = fdfa.intern(live)
                            trail.sync(ahead + 1)
                        rows = fdfa.rows
                pos = ahead
        self._open_pos = pos
        self._open_state = state
        return ids

    def _coaccepting(self) -> Trail:
        """Co-acceptance states: slot ``j`` holds the states (post-closure
        at ``j``, all of ``j``'s operations done) from which the suffix
        ``j..end`` still accepts under the base requirements.

        One backward sweep per node, computed on the first span query:
        plain positions walk the reverse flat DFA, required positions
        run the backward counted closure (op edges traversed target →
        source).  The masks come out closed under the reverse free
        moves, which is what makes the forward/backward intersection
        test exact: a forward-closed live mask meets slot ``j`` iff it
        meets the raw co-acceptance set.
        """
        trail = self._coaccept
        if trail is not None:
            return trail
        context, classes = self._context, self._classes
        end = self.end
        required = self._required
        final_mask = 1 << self.cva.final
        tail = required.get(end)
        if tail:
            current = context.closure_counted_rev([final_mask], tail)[len(tail)]
        else:
            current = context.close_rev(final_mask)
        points = [p for p in sorted(required, reverse=True) if p < end]
        points.append(0)  # sentinel: a final plain run down to position 1
        position = end - 1
        fdfa = self._flat.context_rev(context)
        with fdfa.lock:
            state = fdfa.intern(current)
            trail = Trail(fdfa, end + 1, end - 1)
            ids = trail.ids
            rows, explore = fdfa.rows, fdfa.explore
            for point in points:
                row = rows[state]
                while position > point and state:
                    # Plain position: one reverse-DFA step is the whole
                    # letter-then-closure composite, and its id is both the
                    # recorded slot and the continuation.
                    class_id = classes[position - 1]
                    target = row[class_id]
                    if target < 0:
                        target = explore(state, class_id)
                        rows = fdfa.rows
                        trail.sync(position)
                    ids[position] = target
                    state = target
                    row = rows[target]
                    position -= 1
                if not state or not point:
                    break
                seeds = context.letter_rev(fdfa.masks[state], classes[point - 1])
                if not seeds:
                    break
                ops = required[point]
                levels = context.closure_counted_rev([seeds], ops)
                # Level 0 is the closed co-acceptance slot (the span's own
                # ops fire forward, in the resume's counted closure); the
                # top level carries the base ops backward.
                entered = fdfa.intern(levels[0])
                trail.sync(point)
                ids[point] = entered
                top = levels[len(ops)]
                state = fdfa.intern(top) if top else 0
                trail.sync(point - 1)
                rows = fdfa.rows
                position = point - 1
        self._coaccept = trail
        return trail

    def accepts_span(self, span: Span) -> bool:
        """The verdict for ``µ[x → span]``, resumed from the shared prefix."""
        if not self.valid:
            return False
        i, j = span.begin, span.end
        if i < 1 or j > self.end or self.variable not in self.cva.variables:
            return False
        if not self._entering[i]:
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
        entering, required, base = self._entering, self._required, self._base
        sources = 0
        for source_bit, _ in self._context.op_edges(self._open_key):
            sources |= source_bit
        resume = self._resume
        count = len(closes)
        for i in opens:
            if not entering[i]:
                continue
            if i not in required and not base.mask(i) & sources:
                continue
            for at in range(bisect_left(closes, i), count):
                j = closes[at]
                if self._open_at == i and not self._open_state and self._open_pos < j:
                    break  # every slot past the dead frontier is 0
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
            levels = context.closure_counted([self._base.mask(i)], ops)
        else:
            if not self._open_sweep(i, j)[j]:
                return False
            # Resume at ``j``: the close joins whatever base operations
            # ``j`` already requires (closure idempotence makes resuming
            # from the recorded closed state exact, as at the node level).
            ops = required.get(j, _NO_OPS) | {self._close_key}
            levels = context.closure_counted([self._open.mask(j)], ops)
        live = levels[len(ops)]
        if not live:
            return False
        if j == self.end:
            return bool((live >> self.cva.final) & 1)
        coaccept = self._coaccepting()
        return bool(coaccept.ids[j] and live & coaccept.mask(j))


class GeneralNode:
    """Per-node oracle for non-sequential automata (full sweep per branch)."""

    __slots__ = ("cva", "text", "base", "variable")

    def __init__(self, cva: CompiledVA, text: str, base, variable: Variable) -> None:
        self.cva = cva
        self.text = text
        self.base = base
        self.variable = variable

    def accepts_null(self) -> bool:
        pinned = dict(self.base)
        pinned[self.variable] = NULL
        return eval_general_compiled(self.cva, self.text, pinned)

    def accepts_span(self, span: Span) -> bool:
        pinned = dict(self.base)
        pinned[self.variable] = span
        return eval_general_compiled(self.cva, self.text, pinned)

    def spans(self, opens: Sequence[int], closes: Sequence[int]) -> Iterator[Span]:
        """The accepted spans of the ``opens × closes`` product (``i ≤ j``),
        ``i``-major — one full sweep per pair."""
        count = len(closes)
        for i in opens:
            for at in range(bisect_left(closes, i), count):
                span = Span(i, closes[at])
                if self.accepts_span(span):
                    yield span
