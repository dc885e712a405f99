"""The planner's automaton-level passes.

Every pass is a pure function ``VA -> VA`` that preserves the mapping
semantics ``⟦A⟧_d`` exactly (cross-validated by the plan equivalence
tests) and is *idempotent up to fingerprint*: running a pass on its own
output returns a structurally identical automaton.  Idempotence is what
lets the service cache re-plan an already-optimised automaton and still
land on the same :func:`~repro.automata.fingerprint.va_fingerprint`.

Passes either return the input object unchanged (no-op, recorded as such
in the plan log) or a new :class:`~repro.automata.va.VA`:

* :func:`eliminate_epsilon` — classical ε-removal over the label alphabet
  ``Sym ∪ Open ∪ Close`` (variable operations are *not* ε: a run's
  validity is a property of its label sequence, which the pass preserves
  exactly — the same argument that justifies determinisation);
* :func:`trim` — drop states not on any initial-to-final path;
* :func:`fuse_predicates` — merge parallel letter transitions between the
  same state pair into one :class:`~repro.alphabet.CharSet` predicate and
  deduplicate transitions;
* :func:`sequentialize` — Proposition 5.6's product, budgeted: the
  engine only runs the polynomial Theorem-5.7 sweep, so a product over
  budget is a compile error rather than a slower engine;
* :func:`determinize_budgeted` — Proposition 6.5's subset construction,
  budgeted, behind opt level 2.
"""

from __future__ import annotations

from repro.alphabet import CharSet
from repro.automata.determinize import determinize, is_complete_deterministic
from repro.automata.labels import EPS, Eps, Sym
from repro.automata.sequential import is_sequential, make_sequential
from repro.automata.va import VA
from repro.util.errors import BudgetExceededError

#: ε-elimination copies each non-ε edge once per ε-predecessor; on dense
#: automata that can be quadratic, which would trade states for a much
#: larger transition table.  Beyond this growth factor the pass backs off.
_EPSILON_TRANSITION_GROWTH = 3


def _epsilon_closures(va: VA) -> list[set[int]]:
    closures: list[set[int]] = []
    for start in range(va.num_states):
        seen = {start}
        frontier = [start]
        while frontier:
            state = frontier.pop()
            for label, target in va.out_edges(state):
                if isinstance(label, Eps) and target not in seen:
                    seen.add(target)
                    frontier.append(target)
        closures.append(seen)
    return closures


def _only_final_glue(va: VA) -> bool:
    """True when the only ε-edges are glue into a dead-end final state.

    This is exactly the shape :func:`eliminate_epsilon` itself produces,
    so treating it as already-eliminated makes the pass idempotent.
    """
    if va.out_edges(va.final):
        return not any(isinstance(label, Eps) for _, label, _ in va.transitions)
    return all(
        target == va.final
        for _, label, target in va.transitions
        if isinstance(label, Eps)
    )


def eliminate_epsilon(va: VA) -> VA:
    """An equivalent VA whose only ε-edges (if any) glue accepting states.

    For every state ``q`` and every non-ε edge ``p --l--> r`` with ``p``
    in the ε-closure of ``q``, the result has ``q --l--> r``; a state
    accepts when its closure contains the final state.  Multiple
    accepting states are folded into a fresh final through ε-glue (the
    same harmless trailing ε :func:`~repro.automata.determinize.determinize`
    uses).  Pure-ε through-states lose all non-ε in-edges and are removed
    by the following :func:`trim`.

    Returns the input unchanged when it is already in eliminated shape or
    when elimination would grow the transition table past the back-off
    factor (:func:`eliminate_epsilon_verbose` reports which).
    """
    return eliminate_epsilon_verbose(va)[0]


def eliminate_epsilon_verbose(va: VA) -> tuple[VA, str]:
    """:func:`eliminate_epsilon` plus a note for the plan's pass log.

    The note distinguishes the two no-op cases — "already eliminated" and
    "growth limit hit" (the back-off) — so ``Plan.explain()`` never shows
    a silent skip.
    """
    if _only_final_glue(va):
        return va, "already eliminated"
    closures = _epsilon_closures(va)
    transitions: list[tuple] = []
    seen: set[tuple] = set()
    for state in range(va.num_states):
        for member in sorted(closures[state]):
            for label, target in va.out_edges(member):
                if isinstance(label, Eps):
                    continue
                edge = (state, label, target)
                if edge not in seen:
                    seen.add(edge)
                    transitions.append(edge)
    limit = max(
        _EPSILON_TRANSITION_GROWTH * len(va.transitions),
        len(va.transitions) + 16,
    )
    if len(transitions) > limit:
        return va, f"growth limit hit ({len(transitions)} > {limit} transitions)"
    accepting = [
        state for state in range(va.num_states) if va.final in closures[state]
    ]
    if len(accepting) == 1:
        return VA(va.num_states, va.initial, accepting[0], tuple(transitions)), ""
    fresh_final = va.num_states
    for state in accepting:
        transitions.append((state, EPS, fresh_final))
    return VA(va.num_states + 1, va.initial, fresh_final, tuple(transitions)), ""


def trim(va: VA) -> VA:
    """Remove states not on any initial-to-final path (dead/unreachable)."""
    trimmed = va.trimmed()
    # Preserve object identity on no-ops so the plan log records them.
    return va if trimmed == va else trimmed


def _charset_union(first: CharSet, second: CharSet) -> CharSet:
    if not first.negated and not second.negated:
        return CharSet(first.chars | second.chars)
    if first.negated and second.negated:
        # (Σ - S1) ∪ (Σ - S2) = Σ - (S1 ∩ S2)
        return CharSet(first.chars & second.chars, negated=True)
    positive, negative = (
        (first, second) if not first.negated else (second, first)
    )
    # P ∪ (Σ - S) = Σ - (S - P)
    return CharSet(negative.chars - positive.chars, negated=True)


def fuse_predicates(va: VA) -> VA:
    """Compress parallel letter edges into one character-class predicate.

    Thompson construction and the rule translations emit one singleton
    transition per union branch; after ε-elimination many of them connect
    the same state pair.  Fusing them into a single
    :class:`~repro.alphabet.CharSet` (and deduplicating all edges) shrinks
    the transition table the engine sweeps — without changing the accepted
    label sequences, since a fused predicate matches exactly the union of
    the originals.
    """
    fused: dict[tuple[int, int], CharSet] = {}
    order: list[tuple] = []
    seen: set[tuple] = set()
    for source, label, target in va.transitions:
        if isinstance(label, Sym):
            pair = (source, target)
            if pair in fused:
                fused[pair] = _charset_union(fused[pair], label.charset)
            else:
                fused[pair] = label.charset
                order.append((source, None, target))
        else:
            edge = (source, label, target)
            if edge not in seen:
                seen.add(edge)
                order.append(edge)
    transitions = tuple(
        (source, Sym(fused[(source, target)]), target)
        if label is None
        else (source, label, target)
        for source, label, target in order
    )
    if transitions == va.transitions:
        return va
    return VA(va.num_states, va.initial, va.final, transitions)


def sequentialize(va: VA, max_states: int | None = None) -> VA:
    """An equivalent *sequential* VA (Proposition 5.6).

    Sequentiality is the paper's tractability switch: the engine runs
    only the polynomial counter sweep of Theorem 5.7, never the
    ``O(2^{2k}·3^k)``-state general algorithm of Theorem 5.10.  Already
    sequential automata pass through untouched; a product above
    ``max_states`` raises :class:`~repro.util.errors.BudgetExceededError`.
    """
    return sequentialize_verbose(va, max_states)[0]


def sequentialize_verbose(
    va: VA, max_states: int | None = None
) -> tuple[VA, str]:
    """:func:`sequentialize` plus a note for the plan's pass log."""
    if is_sequential(va):
        return va, "already sequential"
    rewritten = make_sequential(va, prune=True, max_states=max_states)
    return rewritten, f"Proposition 5.6 product (budget {max_states})"


def determinize_budgeted(va: VA, max_states: int | None = None) -> VA:
    """Subset-construction determinisation, budget permitting (opt level 2).

    Skips automata that are already deterministic (up to final ε-glue) —
    which both avoids pointless renumbering and makes the pass idempotent
    — and keeps the input when the subset exploration exceeds the budget.
    """
    return determinize_budgeted_verbose(va, max_states)[0]


def determinize_budgeted_verbose(
    va: VA, max_states: int | None = None
) -> tuple[VA, str]:
    """:func:`determinize_budgeted` plus a note for the plan's pass log."""
    if is_complete_deterministic(va):
        return va, "already deterministic"
    try:
        rewritten = determinize(va, max_states=max_states)
    except BudgetExceededError:
        return va, f"budget {max_states} exceeded; keeping nondeterminism"
    return rewritten, f"subset construction (budget {max_states})"
