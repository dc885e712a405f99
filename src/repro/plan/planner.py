"""The pass-based compilation planner — any formalism to one optimised VA.

The paper's tractability results are compile-time facts: sequentiality
makes ``Eval`` polynomial (Theorem 5.7), determinisation enables
containment (Theorem 6.7), and rules/RGX/VA are inter-translatable
(§4.3).  :func:`plan` is where the library applies that machinery.  A
:class:`Plan` wraps a *source* — RGX text, an AST, an extraction
:class:`~repro.rules.rule.Rule`, a :class:`~repro.automata.va.VA`, or a
:class:`~repro.spanner.Spanner` — normalises it to a VA through the
appropriate front-end (rules go through the §4.3 translation with its
budget), and runs an ordered pass pipeline over it, recording per-pass
metrics:

====  =======================================================
opt   passes
====  =======================================================
0     none — the straight front-end translation
1     ``simplify-rgx``, ``eliminate-epsilon``, ``trim``,
      ``fuse-predicates``, ``sequentialize``
2     opt 1 + budgeted ``determinize`` + final ``trim``
====  =======================================================

Every pass preserves ``⟦·⟧_d`` exactly (property-tested against the
seed evaluators at every opt level), so downstream consumers — the
compiled engine, the corpus service, the cache — treat
:attr:`Plan.automaton` as a drop-in replacement whose
:attr:`Plan.fingerprint` is the canonical cache key.

Sequentialisation is not optional: the engine sweeps only sequential
automata, so at opt level 0 :func:`~repro.engine.tables.compile_va`
applies the same Proposition 5.6 product the ``sequentialize`` pass
does.  Both use :data:`DEFAULT_SEQUENTIALIZE_BUDGET` and raise
:class:`~repro.util.errors.BudgetExceededError` above it.

>>> p = plan(".*x{a+}.*")
>>> [record.name for record in p.passes]
['simplify-rgx', 'eliminate-epsilon', 'trim', 'fuse-predicates', 'sequentialize']
>>> p.automaton.num_states < p.raw_automaton.num_states
True
>>> plan("x{a}|x{a}").fingerprint == plan("x{a}").fingerprint
True
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

from repro.algebra import (
    Atom,
    JoinExpr,
    ProjectExpr,
    QueryExpr,
    Ref,
    UnionExpr,
)
from repro.automata.fingerprint import va_fingerprint
from repro.automata.sequential import is_sequential, make_sequential
from repro.automata.thompson import to_va
from repro.automata.va import VA
from repro.plan.passes import (
    determinize_budgeted_verbose,
    eliminate_epsilon_verbose,
    fuse_predicates,
    sequentialize_verbose,
    trim,
)
from repro.rgx.ast import Rgx
from repro.rgx.parser import parse
from repro.rgx.rewrite import simplify
from repro.rules.rule import Rule
from repro.rules.translate import DEFAULT_RULE_BUDGET, union_of_rules_to_rgx
from repro.util.errors import BudgetExceededError, SpannerError

#: The opt level entry points use when none is requested.
DEFAULT_OPT_LEVEL = 1

OPT_LEVELS = (0, 1, 2)

#: State budget for the sequentialisation product (|Q|·4^k worst case),
#: shared by the ``sequentialize`` pass, join operands and
#: :func:`~repro.engine.tables.compile_va` — generous, since the engine
#: sweeps only sequential automata and a product over budget is a
#: compile error.
DEFAULT_SEQUENTIALIZE_BUDGET = 20_000

#: Default subset budget for opt-level-2 determinisation (worst-case
#: exponential; strictly best-effort).
DEFAULT_DETERMINIZE_BUDGET = 4_096


@dataclass(frozen=True)
class PassRecord:
    """One pipeline step's recorded metrics (see :meth:`Plan.explain`)."""

    name: str
    states_before: int
    states_after: int
    transitions_before: int
    transitions_after: int
    elapsed: float
    changed: bool
    unit: str = "states"
    note: str = ""

    def describe(self) -> str:
        size = (
            f"{self.states_before} -> {self.states_after} {self.unit}"
        )
        if self.unit == "states":
            size += (
                f", {self.transitions_before} -> "
                f"{self.transitions_after} transitions"
            )
        detail = f" [{self.note}]" if self.note else ""
        change = "" if self.changed else " (no change)"
        return f"{self.name:<18} {size}{change}  {self.elapsed * 1000:.2f} ms{detail}"


class Plan:
    """A compiled plan: source, normalised automaton, and the pass log.

    Instances are produced by :func:`plan` and are immutable in spirit:
    everything interesting is exposed as read-only attributes.
    """

    def __init__(
        self,
        *,
        source,
        source_kind: str,
        opt_level: int,
        source_expression: Rgx | None,
        expression: Rgx | None,
        raw_automaton: VA,
        automaton: VA,
        passes: tuple[PassRecord, ...],
    ) -> None:
        self.source = source
        self.source_kind = source_kind
        self.opt_level = opt_level
        #: The source RGX exactly as written (``None`` for VA/rule sources).
        self.source_expression = source_expression
        #: The normalised expression the pipeline compiled (simplified at
        #: opt >= 1; the §4.3 translation for rule sources).
        self.expression = expression
        #: The straight front-end translation, before any pass.
        self.raw_automaton = raw_automaton
        #: The post-pipeline automaton the engine runs on.
        self.automaton = automaton
        self.passes = passes

    @cached_property
    def fingerprint(self) -> str:
        """Structural digest of the *post-optimisation* automaton.

        The service cache keys compiled engines on this, so structurally
        different sources that plan to the same automaton share one
        engine.
        """
        return va_fingerprint(self.automaton)

    @cached_property
    def source_sequential(self) -> bool:
        """Fragment membership of the *source* (Theorem 5.7's condition).

        Planning may sequentialise the automaton the engine sweeps, but
        classification questions ("is this pattern in the tractable
        fragment?") are about the source, so this is computed on
        :attr:`raw_automaton`.
        """
        return is_sequential(self.raw_automaton)

    @property
    def total_time(self) -> float:
        """Wall-clock seconds spent inside the recorded passes."""
        return sum(record.elapsed for record in self.passes)

    def describe_source(self) -> str:
        if self.source_kind in ("rgx-text", "algebra"):
            text = str(self.source)
        elif self.source_expression is not None:
            text = str(self.source_expression)
        else:
            return self.source_kind
        if len(text) > 40:
            text = text[:37] + "..."
        return f"{text!r}"

    def explain(self) -> str:
        """The pretty-printed pass log (the CLI's ``--explain`` output).

        One line per pass with before/after state counts, transition
        counts, and timings, bracketed by the source and result shapes.
        """
        lines = [
            f"plan {self.describe_source()} "
            f"({self.source_kind}, opt level {self.opt_level})"
        ]
        lines.append(
            f"  source: {self.raw_automaton.num_states} states, "
            f"{len(self.raw_automaton.transitions)} transitions, "
            f"sequential={self.source_sequential}"
        )
        if not self.passes:
            lines.append("  passes: none (opt level 0)")
        for number, record in enumerate(self.passes, start=1):
            lines.append(f"  {number}. {record.describe()}")
        lines.append(
            f"  result: {self.automaton.num_states} states, "
            f"{len(self.automaton.transitions)} transitions, "
            f"sequential={is_sequential(self.automaton)}, "
            f"fingerprint {self.fingerprint[:12]}"
        )
        return "\n".join(lines)

    def compile(self):
        """The :class:`~repro.engine.compiled.CompiledSpanner` for this plan."""
        from repro.engine.compiled import compile_spanner

        return compile_spanner(self)

    def __repr__(self) -> str:
        return (
            f"Plan({self.describe_source()}, opt {self.opt_level}, "
            f"{self.raw_automaton.num_states} -> "
            f"{self.automaton.num_states} states, "
            f"{len(self.passes)} passes)"
        )


def _record(
    name: str, action, before: VA, records: list[PassRecord], note: str = ""
) -> VA:
    started = time.perf_counter()
    outcome = action(before)
    elapsed = time.perf_counter() - started
    if isinstance(outcome, tuple):
        after, pass_note = outcome
        note = pass_note or note
    else:
        after = outcome
    records.append(
        PassRecord(
            name=name,
            states_before=before.num_states,
            states_after=after.num_states,
            transitions_before=len(before.transitions),
            transitions_after=len(after.transitions),
            elapsed=elapsed,
            changed=after is not before,
            note=note,
        )
    )
    return after


def _translate_rule(rule: Rule, budget: int) -> tuple[Rgx | None, frozenset]:
    """§4.3 front-end: rule → RGX (``None`` = unsatisfiable) + auxiliaries."""
    translated = union_of_rules_to_rgx([rule], budget)
    if translated is None:
        return None, frozenset()
    auxiliary = translated.variables() - rule.variables()
    return translated, frozenset(auxiliary)


def _rule_to_va(expression: Rgx | None, auxiliary: frozenset) -> VA:
    from repro.automata.algebra import project_va

    if expression is None:
        return VA(2, 0, 1, ())  # the empty-language automaton
    automaton = to_va(expression)
    if auxiliary:
        automaton = project_va(
            automaton, automaton.variables - auxiliary
        )
    return automaton


def plan(
    source,
    opt_level: int | None = None,
    *,
    rule_budget: int = DEFAULT_RULE_BUDGET,
    determinize_budget: int = DEFAULT_DETERMINIZE_BUDGET,
) -> Plan:
    """Plan the compilation of any formalism down to one optimised VA.

    ``source`` may be RGX text, a parsed :class:`~repro.rgx.ast.Rgx`, an
    extraction :class:`~repro.rules.rule.Rule` (translated through §4.3
    under ``rule_budget``, auxiliary variables projected away), a
    :class:`~repro.automata.va.VA`, a :class:`~repro.spanner.Spanner`, a
    :class:`~repro.engine.compiled.CompiledSpanner`, or an existing
    :class:`Plan` (re-planned only when the requested level differs).
    A Proposition 5.6 product above :data:`DEFAULT_SEQUENTIALIZE_BUDGET`
    raises :class:`~repro.util.errors.BudgetExceededError`.

    >>> plan("x{a}b", opt_level=0).passes
    ()
    >>> p = plan("x{a}b")
    >>> p.opt_level, len(p.passes) >= 4
    (1, True)
    >>> plan(p) is p
    True
    """
    level = DEFAULT_OPT_LEVEL if opt_level is None else opt_level
    if level not in OPT_LEVELS:
        raise ValueError(f"opt_level must be one of {OPT_LEVELS}, got {level}")

    if isinstance(source, Plan):
        if source.opt_level == level:
            return source
        return plan(
            source.source,
            level,
            rule_budget=rule_budget,
            determinize_budget=determinize_budget,
        )

    records: list[PassRecord] = []
    kind, source_expression, working_expression, raw, working = _front_end(
        source, level, rule_budget, records
    )

    if level >= 1:
        working = _record(
            "eliminate-epsilon", eliminate_epsilon_verbose, working, records
        )
        working = _record("trim", trim, working, records)
        working = _record("fuse-predicates", fuse_predicates, working, records)
        working = _record(
            "sequentialize",
            lambda va: sequentialize_verbose(
                va, max_states=DEFAULT_SEQUENTIALIZE_BUDGET
            ),
            working,
            records,
        )
    if level >= 2:
        working = _record(
            "determinize",
            lambda va: determinize_budgeted_verbose(
                va, max_states=determinize_budget
            ),
            working,
            records,
        )
        working = _record("trim", trim, working, records)

    return Plan(
        source=source,
        source_kind=kind,
        opt_level=level,
        source_expression=source_expression,
        expression=working_expression,
        raw_automaton=raw,
        automaton=working,
        passes=tuple(records),
    )


def _front_end(source, level: int, rule_budget: int, records: list[PassRecord]):
    """Normalise a source to ``(kind, source_rgx, rgx, raw_va, working_va)``.

    The returned ``working_va`` is where the VA pass pipeline starts: the
    translation of the (opt >= 1: simplified) expression, or the source
    automaton itself.  ``raw_va`` is always the straight, unoptimised
    translation — the baseline the benchmarks compare against and the
    automaton used for source classification.
    """
    from repro.engine.compiled import CompiledSpanner
    from repro.spanner import Spanner

    if isinstance(source, str):
        return _expression_front_end(
            "rgx-text", source, parse(source), level, records
        )
    if isinstance(source, Rgx):
        return _expression_front_end("rgx-ast", source, source, level, records)
    if isinstance(source, Rule):
        return _rule_front_end(source, level, rule_budget, records)
    if isinstance(source, VA):
        return "va", None, None, source, source
    if isinstance(source, QueryExpr):
        return _query_front_end(source, rule_budget, records)
    if isinstance(source, Spanner):
        if source.expression is not None:
            return _expression_front_end(
                "spanner", source, source.expression, level, records
            )
        return "spanner", None, None, source.automaton, source.automaton
    if isinstance(source, CompiledSpanner):
        return "compiled", None, None, source.automaton, source.automaton
    raise TypeError(f"cannot plan {type(source).__name__} into a spanner")


def _query_front_end(
    expression: QueryExpr, rule_budget: int, records: list[PassRecord]
):
    """Lower an algebra query expression through Theorem 4.5's constructions.

    Leaves reuse the single-source front-ends; union/projection/join
    combine the leaf automata at the raw level, and the ordinary pass
    pipeline then runs over the combined automaton.  Join operands are
    sequentialised up front under the planner's budget (Proposition 5.6
    is a semantic precondition of the join product, not an optimisation),
    so a non-sequential operand whose product would explode raises
    :class:`~repro.util.errors.BudgetExceededError` instead of exhausting
    memory.
    """
    started = time.perf_counter()
    counts = {"atoms": 0, "union": 0, "project": 0, "join": 0}
    notes: list[str] = []
    raw = _query_to_va(expression, rule_budget, counts, notes)
    elapsed = time.perf_counter() - started
    note = " ".join(f"{name}={count}" for name, count in counts.items() if count)
    if notes:
        note += "; " + "; ".join(notes)
    records.append(
        PassRecord(
            name="algebra",
            states_before=raw.num_states,
            states_after=raw.num_states,
            transitions_before=len(raw.transitions),
            transitions_after=len(raw.transitions),
            elapsed=elapsed,
            changed=True,
            note=note,
        )
    )
    return "algebra", None, None, raw, raw


def _query_leaf_va(source, rule_budget: int) -> VA:
    """The straight translation of one algebra atom."""
    if isinstance(source, str):
        return to_va(parse(source))
    if isinstance(source, Rgx):
        return to_va(source)
    if isinstance(source, Rule):
        translated, auxiliary = _translate_rule(source, rule_budget)
        return _rule_to_va(translated, auxiliary)
    if isinstance(source, VA):
        return source
    automaton = getattr(source, "automaton", None)
    if isinstance(automaton, VA):  # Spanner / CompiledSpanner
        return automaton
    raise TypeError(
        f"cannot use a {type(source).__name__} as a query atom"
    )


def _sequential_join_operand(va: VA, notes: list[str]) -> VA:
    if is_sequential(va):
        return va
    budget = DEFAULT_SEQUENTIALIZE_BUDGET
    try:
        rewritten = make_sequential(va, max_states=budget)
    except BudgetExceededError:
        raise BudgetExceededError(
            "join operand is not sequential and its Proposition 5.6 product",
            budget,
        ) from None
    notes.append(
        f"sequentialised join operand "
        f"({va.num_states} -> {rewritten.num_states} states, budget {budget})"
    )
    return rewritten


def _query_to_va(
    expression: QueryExpr,
    rule_budget: int,
    counts: dict[str, int],
    notes: list[str],
) -> VA:
    from repro.automata.algebra import join_va, project_va, union_va

    if isinstance(expression, Atom):
        counts["atoms"] += 1
        return _query_leaf_va(expression.source, rule_budget)
    if isinstance(expression, Ref):
        raise SpannerError(
            f"unresolved query reference {expression.name!r}; plan this "
            f"expression through a QuerySet (or call .resolve() first)"
        )
    parts = [
        _query_to_va(child, rule_budget, counts, notes)
        for child in expression.children()
    ]
    if isinstance(expression, UnionExpr):
        counts["union"] += 1
        combined = parts[0]
        for part in parts[1:]:
            combined = union_va(combined, part)
        return combined
    if isinstance(expression, ProjectExpr):
        counts["project"] += 1
        return project_va(parts[0], expression.keep)
    if isinstance(expression, JoinExpr):
        counts["join"] += 1
        combined = _sequential_join_operand(parts[0], notes)
        for part in parts[1:]:
            combined = join_va(combined, _sequential_join_operand(part, notes))
        return combined
    raise TypeError(
        f"cannot lower {type(expression).__name__} into an automaton"
    )


def _expression_front_end(kind, source, expression, level, records):
    raw = to_va(expression)
    if level < 1:
        return kind, expression, expression, raw, raw
    started = time.perf_counter()
    simplified = simplify(expression)
    elapsed = time.perf_counter() - started
    records.append(
        PassRecord(
            name="simplify-rgx",
            states_before=expression.size(),
            states_after=simplified.size(),
            transitions_before=0,
            transitions_after=0,
            elapsed=elapsed,
            changed=simplified != expression,
            unit="nodes",
        )
    )
    working = raw if simplified == expression else to_va(simplified)
    return kind, expression, simplified, raw, working


def _rule_front_end(rule, level, rule_budget, records):
    started = time.perf_counter()
    translated, auxiliary = _translate_rule(rule, rule_budget)
    raw = _rule_to_va(translated, auxiliary)
    elapsed = time.perf_counter() - started
    note = "unsatisfiable rule" if translated is None else (
        f"projected {len(auxiliary)} auxiliary variable(s)"
        if auxiliary
        else "no auxiliary variables"
    )
    records.append(
        PassRecord(
            name="translate-rule",
            states_before=raw.num_states,
            states_after=raw.num_states,
            transitions_before=len(raw.transitions),
            transitions_after=len(raw.transitions),
            elapsed=elapsed,
            changed=True,
            note=note,
        )
    )
    working_expression = translated
    working = raw
    if level >= 1 and translated is not None:
        started = time.perf_counter()
        simplified = simplify(translated)
        elapsed = time.perf_counter() - started
        records.append(
            PassRecord(
                name="simplify-rgx",
                states_before=translated.size(),
                states_after=simplified.size(),
                transitions_before=0,
                transitions_after=0,
                elapsed=elapsed,
                changed=simplified != translated,
                unit="nodes",
            )
        )
        working_expression = simplified
        if simplified != translated:
            working = _rule_to_va(simplified, auxiliary)
    return "rule", None, working_expression, raw, working
