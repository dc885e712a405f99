"""Sequential variable automata (Propositions 5.5 and 5.6).

A path of a VA from the initial to the final state is *sequential* when
every variable is opened at most once, closed exactly once if opened, and
closed only after being opened.  A VA is sequential when every such path
is.  Sequentiality is the paper's key tractability condition: it makes
``Eval`` polynomial (Theorem 5.7), satisfiability NLOGSPACE (Theorem 6.2),
and containment of deterministic point-disjoint automata polynomial
(Theorem 6.7).

* :func:`is_sequential` implements the (N)LOGSPACE check of Proposition 5.5
  as a deterministic product search: for each variable, explore
  ``(state, status)`` pairs and look for a violation.
* :func:`make_sequential` implements Proposition 5.6: every VA has an
  equivalent sequential VA.  The construction is a product with a
  per-variable status vector ``{fresh, open, done, skipped}`` where
  ``skipped`` replaces an "open that is never closed" (such opens produce
  no assignment, so an ε-move is equivalent) — this both preserves the
  semantics and guarantees every surviving path is sequential.
"""

from __future__ import annotations

from repro.automata.labels import EPS, Close, Eps, Label, Open, Sym
from repro.automata.va import VA
from repro.spans.mapping import Variable
from repro.util.errors import BudgetExceededError

_FRESH, _OPEN, _DONE, _SKIPPED = range(4)


def is_sequential(va: VA) -> bool:
    """Proposition 5.5's check, one variable at a time.

    For variable ``x`` we walk the product of the automaton with the status
    automaton ``fresh → open → done`` restricted to states that can still
    reach the final state; a non-sequential path exists iff some reachable
    product state admits an incompatible operation, or the final state is
    reachable with status ``open``.
    """
    co_reachable = _co_reachable(va)
    for variable in sorted(va.mentioned_variables):
        if not _sequential_for(va, variable, co_reachable):
            return False
    return True


def _co_reachable(va: VA) -> set[int]:
    backward: dict[int, list[int]] = {}
    for source, _, target in va.transitions:
        backward.setdefault(target, []).append(source)
    seen = {va.final}
    frontier = [va.final]
    while frontier:
        state = frontier.pop()
        for previous in backward.get(state, ()):
            if previous not in seen:
                seen.add(previous)
                frontier.append(previous)
    return seen


def _sequential_for(va: VA, variable: Variable, co_reachable: set[int]) -> bool:
    seen = {(va.initial, _FRESH)}
    frontier = [(va.initial, _FRESH)]
    while frontier:
        state, status = frontier.pop()
        for label, target in va.out_edges(state):
            if target not in co_reachable:
                # The paper's walk stops at the final state; transitions that
                # cannot be part of an initial-to-final path are irrelevant.
                continue
            if isinstance(label, Open) and label.variable == variable:
                if status != _FRESH:
                    return False
                next_status = _OPEN
            elif isinstance(label, Close) and label.variable == variable:
                if status != _OPEN:
                    return False
                next_status = _DONE
            else:
                next_status = status
            nxt = (target, next_status)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    # A path reaching the final state with the variable still open is
    # non-sequential (condition (2) of the definition).
    return (va.final, _OPEN) not in seen


def make_sequential(
    va: VA, prune: bool = True, max_states: int | None = None
) -> VA:
    """Proposition 5.6: an equivalent sequential VA.

    Product states pair an original state with a status vector over the
    automaton's variables.  Opens from status ``fresh`` proceed normally;
    alternatively an ε-copy marks the variable ``skipped``, standing for
    the original run that opened it and never closed it (which assigns
    nothing).  Closes require status ``open``.  Acceptance requires no
    variable to remain ``open``, and a fresh final state keeps the
    automaton single-final.  ``prune=True`` trims dead states.

    The product is worst-case ``|Q| · 4^k`` states; ``max_states`` aborts
    with :class:`~repro.util.errors.BudgetExceededError` instead of
    exhausting memory (the planner's sequentialisation pass and
    :func:`~repro.engine.tables.compile_va` report it as a compile
    error: the engine sweeps only sequential automata).
    """
    variables = tuple(sorted(va.mentioned_variables))
    index = {variable: i for i, variable in enumerate(variables)}

    states: dict[tuple[int, tuple[int, ...]], int] = {}
    transitions: list[tuple[int, Label, int]] = []

    def state_of(key: tuple[int, tuple[int, ...]]) -> int:
        if key not in states:
            if max_states is not None and len(states) >= max_states:
                raise BudgetExceededError("sequentialisation product", max_states)
            states[key] = len(states)
        return states[key]

    initial_key = (va.initial, (_FRESH,) * len(variables))
    state_of(initial_key)
    frontier = [initial_key]
    explored = {initial_key}
    accepting: list[tuple[int, tuple[int, ...]]] = []

    while frontier:
        key = frontier.pop()
        state, statuses = key
        if state == va.final and _OPEN not in statuses:
            accepting.append(key)
        source = state_of(key)
        for label, target in va.out_edges(state):
            moves: list[tuple[Label, tuple[int, ...]]] = []
            if isinstance(label, (Eps, Sym)):
                moves.append((label, statuses))
            elif isinstance(label, Open):
                i = index[label.variable]
                if statuses[i] == _FRESH:
                    moves.append(
                        (label, statuses[:i] + (_OPEN,) + statuses[i + 1 :])
                    )
                    moves.append(
                        (EPS, statuses[:i] + (_SKIPPED,) + statuses[i + 1 :])
                    )
            else:
                assert isinstance(label, Close)
                i = index[label.variable]
                if statuses[i] == _OPEN:
                    moves.append(
                        (label, statuses[:i] + (_DONE,) + statuses[i + 1 :])
                    )
            for out_label, next_statuses in moves:
                next_key = (target, next_statuses)
                if next_key not in explored:
                    explored.add(next_key)
                    frontier.append(next_key)
                transitions.append((source, out_label, state_of(next_key)))

    final = len(states)
    for key in accepting:
        transitions.append((states[key], EPS, final))
    result = VA(
        num_states=len(states) + 1,
        initial=states[initial_key],
        final=final,
        transitions=tuple(transitions),
    )
    return result.trimmed() if prune else result
