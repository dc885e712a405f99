"""1-IN-3-SAT and the paper's two reductions from it.

1-IN-3-SAT: given clauses of three positive propositional variables,
decide whether some assignment makes *exactly one* variable per clause
true.  The paper uses it twice:

* **Theorem 5.2** — reduction to ``NonEmp[spanRGX]`` over the empty
  document: variable ``x_{i,j}`` is assigned a span iff ``p_{i,j}`` is
  true, and conflict variables ``y_{i,j,k,l}`` occupy both sides of a
  conflict so that incompatible choices would have to assign the same
  variable twice (which Table 2's concatenation forbids);
* **Theorem 5.8** — reduction to satisfiability / non-emptiness of
  *functional dag-like rules* over the document ``#``: spans left of the
  ``#`` encode true, spans right of it false.

Both reductions double as benchmark workload generators (E2, E9, E10) and
are cross-checked against :func:`brute_force_one_in_three` in the tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from repro.rgx.ast import EPSILON, Rgx, char, concat, union, var as var_binding
from repro.rules.rule import Rule
from repro.spans.mapping import Variable


@dataclass(frozen=True)
class OneInThreeInstance:
    """A conjunction of clauses, each a triple of positive variables."""

    clauses: tuple[tuple[str, str, str], ...]

    @property
    def variables(self) -> frozenset[str]:
        return frozenset(v for clause in self.clauses for v in clause)

    def satisfied_by(self, assignment: dict[str, bool]) -> bool:
        return all(
            sum(1 for v in clause if assignment.get(v, False)) == 1
            for clause in self.clauses
        )


def brute_force_one_in_three(instance: OneInThreeInstance) -> bool:
    """Exhaustive check — exponential reference solver for the tests."""
    names = sorted(instance.variables)
    for values in product((False, True), repeat=len(names)):
        if instance.satisfied_by(dict(zip(names, values))):
            return True
    return False


def random_instance(
    clause_count: int, variable_count: int, seed: int = 0
) -> OneInThreeInstance:
    """A random instance (variables may repeat across clauses)."""
    rng = random.Random(seed)
    names = [f"p{i}" for i in range(variable_count)]
    clauses = []
    for _ in range(clause_count):
        clauses.append(tuple(rng.sample(names, 3)))
    return OneInThreeInstance(tuple(clauses))


# ---------------------------------------------------------------------------
# Theorem 5.2: 1-IN-3-SAT → NonEmp[spanRGX] on the empty document
# ---------------------------------------------------------------------------


def _conflicts(instance: OneInThreeInstance) -> dict[tuple[int, int], list[Variable]]:
    """``conflict(p_{i,j})`` as variable names ``y_{i,j,k,l}``.

    ``p_{i,j}`` conflicts with ``p_{k,l}`` (``i < k``) when making both
    true is impossible under the one-in-three regime: they name the same
    variable in different clause positions, or share a clause... — the
    paper's two conditions are implemented verbatim below.
    """
    clauses = instance.clauses
    table: dict[tuple[int, int], list[Variable]] = {
        (i, j): [] for i in range(len(clauses)) for j in range(3)
    }
    for i in range(len(clauses)):
        for k in range(i + 1, len(clauses)):
            for j in range(3):
                for ell in range(3):
                    in_conflict = False
                    # ∃m: p_{i,j} = p_{k,m} and m ≠ l
                    for m in range(3):
                        if clauses[i][j] == clauses[k][m] and m != ell:
                            in_conflict = True
                    # ∃m: p_{i,m} = p_{k,l} and m ≠ j
                    for m in range(3):
                        if clauses[i][m] == clauses[k][ell] and m != j:
                            in_conflict = True
                    if in_conflict:
                        name = f"y_{i}_{j}_{k}_{ell}"
                        table[(i, j)].append(name)
                        table[(k, ell)].append(name)
    return table


def to_spanrgx(instance: OneInThreeInstance) -> Rgx:
    """The spanRGX ``γ_α`` of Theorem 5.2 (evaluate over document ``""``)."""
    conflicts = _conflicts(instance)
    clause_expressions: list[Rgx] = []
    for i in range(len(instance.clauses)):
        options: list[Rgx] = []
        for j in range(3):
            parts: list[Rgx] = [var_binding(f"x_{i}_{j}")]
            parts.extend(var_binding(name) for name in conflicts[(i, j)])
            options.append(concat(*parts))
        clause_expressions.append(union(*options))
    return concat(*clause_expressions) if clause_expressions else EPSILON


def spanrgx_nonempty_on_epsilon(instance: OneInThreeInstance) -> bool:
    """Decide the instance through the reduction (general VA evaluation)."""
    from repro.automata.thompson import to_va
    from repro.evaluation.eval_problem import non_empty_va

    return non_empty_va(to_va(to_spanrgx(instance)), "")


# ---------------------------------------------------------------------------
# Theorem 5.8: 1-IN-3-SAT → NonEmp / Sat of functional dag-like rules
# ---------------------------------------------------------------------------


def to_daglike_rule(instance: OneInThreeInstance) -> Rule:
    """The functional dag-like rule of Theorem 5.8 (document ``#``)."""
    clauses = instance.clauses
    n = len(clauses)
    conjuncts: list[tuple[Variable, Rgx]] = []
    for i in range(n):
        p1, p2, p3 = (var_binding(v) for v in clauses[i])
        if i < n - 1:
            nxt = var_binding(f"c{i + 1}")
            formula = union(
                concat(p1, nxt, p2, p3),
                concat(p2, nxt, p1, p3),
                concat(p3, nxt, p1, p2),
            )
        else:
            middle = concat(var_binding("T"), char("#"), var_binding("F"))
            formula = union(
                concat(p1, middle, p2, p3),
                concat(p2, middle, p1, p3),
                concat(p3, middle, p1, p2),
            )
        conjuncts.append((f"c{i}", formula))
    root = concat(var_binding("T"), var_binding("c0"), var_binding("F"))
    return Rule(root, tuple(conjuncts))


def rule_nonempty_on_hash(instance: OneInThreeInstance) -> bool:
    """Decide the instance through the Theorem 5.8 reduction."""
    return bool(to_daglike_rule(instance).evaluate("#"))
