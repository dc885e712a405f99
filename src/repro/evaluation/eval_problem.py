"""The ``Eval[L]`` decision problem (paper, Section 5.1).

``Eval`` takes an expression/automaton, a document, and an *extended*
mapping ``µ`` (variables pinned to spans, pinned to ``⊥``, or left free)
and asks whether some ``µ' ⊇ µ`` is in ``⟦γ⟧_d``.  Theorem 5.1 turns a
polynomial ``Eval`` into polynomial-delay enumeration, so this module is
the engine room of Section 5.

Two algorithms, dispatched on sequentiality:

* :func:`eval_sequential_va` — Theorem 5.7.  The paper embeds the pinned
  variable operations into the document as *coalesced* operation sets
  ``T_i`` and reduces to NFA acceptance; counting suffices because a
  sequential path can never repeat an operation.  Our sweep keeps, per
  document position, reachable pairs ``(state, #required ops performed)``.
  Pinned operations elsewhere are forbidden, free variables' operations
  act as ε-moves (sequentiality guarantees their consistency along any
  accepting path).

* :func:`eval_general_va` — the fixed-parameter-tractable algorithm behind
  Theorem 5.10.  Without sequentiality the sweep additionally tracks the
  *set* of required operations performed at the current position and a
  global status for every free variable — ``O(2^{2k} · 3^k)`` states per
  position, i.e. exponential only in the number of variables ``k``.
  (The paper iterates over the ``k!`` orderings of each coalesced set
  instead; the set-tracking formulation is the same FPT class and is
  benchmarked against the ordering-based variant in ablation A2.)
"""

from __future__ import annotations

from repro.automata.labels import Close, Eps, Label, Open, Sym
from repro.automata.sequential import is_sequential
from repro.automata.va import VA
from repro.spans.document import Document, as_text
from repro.spans.mapping import ExtendedMapping, Mapping, Variable
from repro.spans.span import Span


def eval_va(va: VA, document: "Document | str", pinned: ExtendedMapping) -> bool:
    """``Eval[VA]`` — dispatches on sequentiality (Theorems 5.7 / 5.10)."""
    if is_sequential(va):
        return eval_sequential_va(va, document, pinned)
    return eval_general_va(va, document, pinned)


def eval_rgx(expression, document: "Document | str", pinned: ExtendedMapping) -> bool:
    """``Eval[RGX]`` via the Thompson translation (Propositions 5.3/5.6)."""
    from repro.automata.thompson import to_va

    return eval_va(to_va(expression), document, pinned)


class _Requirements:
    """Pinned operations indexed by document position."""

    def __init__(
        self, va: VA, text: str, pinned: ExtendedMapping
    ) -> None:
        self.valid = True
        end = len(text) + 1
        self.opens: dict[int, set[Label]] = {}
        self.closes: dict[int, set[Label]] = {}
        self.required: dict[int, frozenset[Label]] = {}
        self.pinned_variables: set[Variable] = set()
        self.null_variables: set[Variable] = set()
        automaton_variables = va.variables
        for variable, value in pinned.items():
            if value is None:
                continue
            if isinstance(value, Span):
                if variable not in automaton_variables:
                    self.valid = False  # no run can ever assign it
                    return
                if value.end > end or value.begin < 1:
                    self.valid = False
                    return
                self.pinned_variables.add(variable)
                self.opens.setdefault(value.begin, set()).add(Open(variable))
                self.closes.setdefault(value.end, set()).add(Close(variable))
            else:
                self.null_variables.add(variable)
        for pos in range(1, end + 1):
            ops = self.opens.get(pos, set()) | self.closes.get(pos, set())
            if ops:
                self.required[pos] = frozenset(ops)

    def required_at(self, pos: int) -> frozenset[Label]:
        return self.required.get(pos, frozenset())

    def classify(self, label: Label, pos: int) -> str:
        """One of ``"required"``, ``"free"``, ``"forbidden"`` for an op here."""
        variable = label.variable  # type: ignore[union-attr]
        if variable in self.null_variables:
            # A variable opened but never closed is *unused* (VA semantics),
            # which is exactly what a ⊥ pin demands — so the open stays
            # available and only the close (which would assign) is forbidden.
            return "forbidden" if isinstance(label, Close) else "free"
        if variable in self.pinned_variables:
            return "required" if label in self.required_at(pos) else "forbidden"
        return "free"


def eval_sequential_va(
    va: VA, document: "Document | str", pinned: ExtendedMapping
) -> bool:
    """Theorem 5.7's polynomial algorithm (position sweep with counters)."""
    text = as_text(document)
    end = len(text) + 1
    requirements = _Requirements(va, text, pinned)
    if not requirements.valid:
        return False

    # Reachable (state, performed-count) pairs at the current position.
    current: set[tuple[int, int]] = set()
    _position_closure(va, {(va.initial, 0)}, current, requirements, 1)
    for pos in range(1, end):
        needed = len(requirements.required_at(pos))
        letter = text[pos - 1]
        seeds = {
            (target, 0)
            for state, count in current
            if count == needed
            for label, target in va.out_edges(state)
            if isinstance(label, Sym) and label.charset.contains(letter)
        }
        current = set()
        _position_closure(va, seeds, current, requirements, pos + 1)
        if not current:
            return False
    needed = len(requirements.required_at(end))
    return (va.final, needed) in current


def _position_closure(
    va: VA,
    seeds: set[tuple[int, int]],
    out: set[tuple[int, int]],
    requirements: _Requirements,
    pos: int,
) -> None:
    """Saturate ε/operation moves available without consuming a letter."""
    frontier = list(seeds)
    out.update(seeds)
    required = requirements.required_at(pos)
    total = len(required)
    while frontier:
        state, count = frontier.pop()
        for label, target in va.out_edges(state):
            if isinstance(label, Eps):
                nxt = (target, count)
            elif isinstance(label, (Open, Close)):
                kind = requirements.classify(label, pos)
                if kind == "forbidden":
                    continue
                if kind == "required":
                    if count >= total:
                        continue
                    nxt = (target, count + 1)
                else:
                    nxt = (target, count)
            else:
                continue
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)


_FRESH, _OPEN, _DONE = range(3)


def eval_general_va(
    va: VA, document: "Document | str", pinned: ExtendedMapping
) -> bool:
    """The FPT algorithm of Theorem 5.10 (set + status tracking)."""
    text = as_text(document)
    end = len(text) + 1
    requirements = _Requirements(va, text, pinned)
    if not requirements.valid:
        return False
    # ⊥-pinned variables stay status-tracked: their opens are legal ε-moves
    # (an unclosed open leaves the variable unused) but may fire at most once
    # on a run, and their closes are forbidden by `classify`.
    free_variables = tuple(
        sorted(va.mentioned_variables - requirements.pinned_variables)
    )
    index = {variable: i for i, variable in enumerate(free_variables)}

    # A sweep state: (automaton state, frozenset of required ops performed
    # at this position, statuses of free variables).
    initial = (va.initial, frozenset(), (_FRESH,) * len(free_variables))
    current: set[tuple] = set()
    _status_closure(va, {initial}, current, requirements, index, 1)
    for pos in range(1, end):
        required = requirements.required_at(pos)
        letter = text[pos - 1]
        seeds = set()
        for state, done, statuses in current:
            if done != required:
                continue
            for label, target in va.out_edges(state):
                if isinstance(label, Sym) and label.charset.contains(letter):
                    seeds.add((target, frozenset(), statuses))
        current = set()
        _status_closure(va, seeds, current, requirements, index, pos + 1)
        if not current:
            return False
    required = requirements.required_at(end)
    return any(
        state == va.final and done == required for state, done, _ in current
    )


def _status_closure(
    va: VA,
    seeds: set[tuple],
    out: set[tuple],
    requirements: _Requirements,
    index: dict[Variable, int],
    pos: int,
) -> None:
    frontier = list(seeds)
    out.update(seeds)
    required = requirements.required_at(pos)
    while frontier:
        state, done, statuses = frontier.pop()
        for label, target in va.out_edges(state):
            if isinstance(label, Eps):
                nxt = (target, done, statuses)
            elif isinstance(label, (Open, Close)):
                kind = requirements.classify(label, pos)
                if kind == "forbidden":
                    continue
                if kind == "required":
                    if label in done or label not in required:
                        continue
                    if (
                        isinstance(label, Close)
                        and Open(label.variable) in required
                        and Open(label.variable) not in done
                    ):
                        # Empty pinned span: the open must precede the close
                        # within this position for the run to be valid.
                        continue
                    nxt = (target, done | {label}, statuses)
                else:
                    i = index[label.variable]
                    if isinstance(label, Open):
                        if statuses[i] != _FRESH:
                            continue
                        updated = statuses[:i] + (_OPEN,) + statuses[i + 1 :]
                    else:
                        if statuses[i] != _OPEN:
                            continue
                        updated = statuses[:i] + (_DONE,) + statuses[i + 1 :]
                    nxt = (target, done, updated)
            else:
                continue
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)


def eval_va_permutation_baseline(
    va: VA, document: "Document | str", pinned: ExtendedMapping
) -> bool:
    """The paper's ordering-based FPT variant (ablation A2 baseline).

    At each position, iterate over all orderings of the coalesced required
    set ``T_i`` and check a path performing exactly that sequence exists
    (free operations and ε interleaved).  Exponentially slower in the
    per-position operation count than the set-tracking algorithm, with the
    same answers — asserted by the ablation benchmark.
    """
    from itertools import permutations

    text = as_text(document)
    end = len(text) + 1
    requirements = _Requirements(va, text, pinned)
    if not requirements.valid:
        return False
    # ⊥-pinned variables stay status-tracked: their opens are legal ε-moves
    # (an unclosed open leaves the variable unused) but may fire at most once
    # on a run, and their closes are forbidden by `classify`.
    free_variables = tuple(
        sorted(va.mentioned_variables - requirements.pinned_variables)
    )
    index = {variable: i for i, variable in enumerate(free_variables)}

    def position_reach(seeds: set[tuple], pos: int) -> set[tuple]:
        """(state, consumed-prefix-length, statuses) reach via one ordering."""
        required = sorted(requirements.required_at(pos), key=str)
        results: set[tuple] = set()
        orderings = [
            ordering
            for ordering in (permutations(required) if required else [()])
            if _ordering_valid(ordering)
        ]
        for ordering in orderings:
            reached: set[tuple] = set()
            frontier = [
                (state, 0, statuses) for (state, statuses) in seeds
            ]
            reached.update(frontier)
            while frontier:
                state, consumed, statuses = frontier.pop()
                for label, target in va.out_edges(state):
                    if isinstance(label, Eps):
                        nxt = (target, consumed, statuses)
                    elif isinstance(label, (Open, Close)):
                        kind = requirements.classify(label, pos)
                        if kind == "forbidden":
                            continue
                        if kind == "required":
                            if consumed >= len(ordering) or ordering[consumed] != label:
                                continue
                            nxt = (target, consumed + 1, statuses)
                        else:
                            i = index[label.variable]
                            if isinstance(label, Open):
                                if statuses[i] != _FRESH:
                                    continue
                                updated = statuses[:i] + (_OPEN,) + statuses[i + 1 :]
                            else:
                                if statuses[i] != _OPEN:
                                    continue
                                updated = statuses[:i] + (_DONE,) + statuses[i + 1 :]
                            nxt = (target, consumed, updated)
                    else:
                        continue
                    if nxt not in reached:
                        reached.add(nxt)
                        frontier.append(nxt)
            results |= {
                (state, statuses)
                for state, consumed, statuses in reached
                if consumed == len(ordering)
            }
        return results

    current = position_reach({(va.initial, (_FRESH,) * len(free_variables))}, 1)
    for pos in range(1, end):
        letter = text[pos - 1]
        seeds = {
            (target, statuses)
            for state, statuses in current
            for label, target in va.out_edges(state)
            if isinstance(label, Sym) and label.charset.contains(letter)
        }
        current = position_reach(seeds, pos + 1)
        if not current:
            return False
    return any(state == va.final for state, _ in current)


def _ordering_valid(ordering: tuple[Label, ...]) -> bool:
    """An ordering of coalesced operations must open before it closes."""
    members = set(ordering)
    seen: set[Label] = set()
    for label in ordering:
        if isinstance(label, Close):
            matching_open = Open(label.variable)
            if matching_open in members and matching_open not in seen:
                return False
        seen.add(label)
    return True


def model_check_va(va: VA, document: "Document | str", mapping: Mapping) -> bool:
    """``ModelCheck[VA]``: is ``µ ∈ ⟦A⟧_d`` exactly (Section 5.1)?

    Implemented as the special case of ``Eval`` where every variable of the
    automaton not assigned by ``µ`` is pinned to ``⊥``.
    """
    pinned = ExtendedMapping.total_for(mapping, va.mentioned_variables)
    return eval_va(va, document, pinned)


def non_empty_va(va: VA, document: "Document | str") -> bool:
    """``NonEmp[VA]``: is ``⟦A⟧_d`` non-empty?  (= ``Eval`` with empty µ.)"""
    return eval_va(va, document, ExtendedMapping.empty())
