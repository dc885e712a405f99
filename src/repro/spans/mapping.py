"""Mappings — partial functions from variables to spans (paper, Section 2).

The paper's central move is to let spanners output *mappings* (partial
functions ``V ⇀ span(d)``) instead of relations, so that documents with
missing or optional parts still produce maximal output.  This module
implements:

* :class:`Mapping` — immutable, hashable partial functions with the paper's
  operations: compatibility ``µ1 ~ µ2``, union ``µ1 ∪ µ2``, the singleton
  ``[x → s]`` and the empty mapping;
* the join ``M1 ⋈ M2`` of two *sets* of mappings;
* the *hierarchical* and *point-disjoint* predicates used in Sections 4
  and 6;
* :data:`NULL` — the ``⊥`` marker of Section 5.1's extended mappings, which
  asserts a variable is *not* assigned (as opposed to "unconstrained").
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping as AbstractMapping
from typing import Union

from repro.spans.span import Span
from repro.util.errors import MappingError

Variable = str
"""Variables are plain strings, disjoint from the alphabet by convention."""


class _Null:
    """The ``⊥`` marker for extended mappings (Section 5.1).

    ``NULL`` in an *extended* mapping says the variable must remain
    unassigned in any completion, whereas absence from the domain says the
    variable is still free to take any value.
    """

    _instance: "_Null | None" = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __reduce__(self):
        return (_Null, ())


NULL = _Null()

SpanOrNull = Union[Span, _Null]


class Mapping:
    """An immutable partial function from variables to spans.

    >>> from repro.spans import Span, Mapping
    >>> mu = Mapping({"x": Span(1, 12)})
    >>> mu["x"]
    Span(begin=1, end=12)
    >>> mu.domain
    frozenset({'x'})

    Mappings are hashable, so the semantics ``⟦γ⟧_d`` is a plain ``set`` of
    mappings and the paper's join is literal code (see :func:`join`).
    """

    __slots__ = ("_assignments", "_hash")

    def __init__(
        self,
        assignments: AbstractMapping[Variable, Span] | Iterable[tuple[Variable, Span]] = (),
    ) -> None:
        items = dict(assignments)
        for variable, span in items.items():
            if not isinstance(span, Span):
                raise MappingError(
                    f"variable {variable!r} must map to a Span, got {span!r}"
                )
        self._assignments: dict[Variable, Span] = items
        self._hash: int | None = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def empty(cls) -> "Mapping":
        """The empty mapping ``∅`` (defined on no variable)."""
        return _EMPTY

    @classmethod
    def singleton(cls, variable: Variable, span: Span) -> "Mapping":
        """The mapping ``[x → s]`` defined only on ``variable``."""
        return cls({variable: span})

    @classmethod
    def _adopt(cls, assignments: dict[Variable, Span]) -> "Mapping":
        """A mapping over ``assignments`` itself, unchecked and uncopied —
        for engines that build the dict of spans and never touch it again."""
        mapping = cls.__new__(cls)
        mapping._assignments = assignments
        mapping._hash = None
        return mapping

    # -- mapping protocol ----------------------------------------------------

    @property
    def domain(self) -> frozenset[Variable]:
        """``dom(µ)`` — the variables on which the mapping is defined."""
        return frozenset(self._assignments)

    def __getitem__(self, variable: Variable) -> Span:
        try:
            return self._assignments[variable]
        except KeyError:
            raise MappingError(f"mapping undefined on variable {variable!r}") from None

    def get(self, variable: Variable) -> Span | None:
        """The span assigned to ``variable``, or ``None`` if undefined."""
        return self._assignments.get(variable)

    def __contains__(self, variable: Variable) -> bool:
        return variable in self._assignments

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._assignments)

    def __len__(self) -> int:
        return len(self._assignments)

    def items(self) -> Iterator[tuple[Variable, Span]]:
        return iter(self._assignments.items())

    def as_dict(self) -> dict[Variable, Span]:
        """A fresh mutable ``dict`` copy of the assignments."""
        return dict(self._assignments)

    # -- equality / hashing --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return self._assignments == other._assignments

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._assignments.items()))
        return self._hash

    def __repr__(self) -> str:
        if not self._assignments:
            return "Mapping.empty()"
        inner = ", ".join(
            f"{var} -> {span}" for var, span in sorted(self._assignments.items())
        )
        return f"Mapping({{{inner}}})"

    # -- paper operations ----------------------------------------------------

    def compatible(self, other: "Mapping") -> bool:
        """``µ1 ~ µ2``: agreement on every shared variable."""
        small, large = self._assignments, other._assignments
        if len(small) > len(large):
            small, large = large, small
        for variable, span in small.items():
            if variable in large and large[variable] != span:
                return False
        return True

    def union(self, other: "Mapping") -> "Mapping":
        """``µ1 ∪ µ2`` — extend ``self`` with ``other`` (requires ``µ1 ~ µ2``)."""
        if not self.compatible(other):
            raise MappingError(f"incompatible mappings {self} and {other}")
        merged = dict(self._assignments)
        merged.update(other._assignments)
        return Mapping(merged)

    def disjoint_union(self, other: "Mapping") -> "Mapping":
        """Union requiring *disjoint* domains (concatenation semantics).

        Table 2's rule for ``R1 . R2`` demands ``dom(µ1) ∩ dom(µ2) = ∅``;
        this helper raises :class:`MappingError` when the domains intersect.
        """
        if self._assignments.keys() & other._assignments.keys():
            raise MappingError(
                f"domains of {self} and {other} are not disjoint"
            )
        merged = dict(self._assignments)
        merged.update(other._assignments)
        return Mapping(merged)

    def extend(self, variable: Variable, span: Span) -> "Mapping":
        """``µ[x → s]`` — a copy with one additional/overridden assignment."""
        merged = dict(self._assignments)
        merged[variable] = span
        return Mapping(merged)

    def project(self, variables: Iterable[Variable]) -> "Mapping":
        """Restriction of the mapping to the given variables."""
        keep = set(variables)
        return Mapping(
            {v: s for v, s in self._assignments.items() if v in keep}
        )

    def drop(self, variables: Iterable[Variable]) -> "Mapping":
        """A copy with the given variables removed from the domain."""
        remove = set(variables)
        return Mapping(
            {v: s for v, s in self._assignments.items() if v not in remove}
        )

    def rename(self, renaming: AbstractMapping[Variable, Variable]) -> "Mapping":
        """A copy with variables renamed (identity on unmentioned ones)."""
        return Mapping(
            {renaming.get(v, v): s for v, s in self._assignments.items()}
        )

    def shift(self, offset: int) -> "Mapping":
        """All spans translated by ``offset`` (rule evaluation re-rooting)."""
        return Mapping(
            {v: s.shift(offset) for v, s in self._assignments.items()}
        )

    def extends(self, other: "Mapping") -> bool:
        """True when ``other ⊆ self`` as partial functions."""
        for variable, span in other._assignments.items():
            if self._assignments.get(variable) != span:
                return False
        return True

    # -- structural predicates (Sections 2 and 6) ------------------------------

    def is_hierarchical(self) -> bool:
        """Paper, Section 2: every pair of assigned spans nests or is disjoint."""
        spans = list(self._assignments.values())
        for i, first in enumerate(spans):
            for second in spans[i + 1 :]:
                if not first.overlaps_hierarchically(second):
                    return False
        return True

    def is_point_disjoint(self) -> bool:
        """Paper, Section 6: images of *different* variables share no endpoints."""
        entries = list(self._assignments.values())
        for i, first in enumerate(entries):
            for second in entries[i + 1 :]:
                if not first.point_disjoint(second):
                    return False
        return True

    def is_total_on(self, variables: Iterable[Variable]) -> bool:
        """True when the mapping assigns every variable in ``variables``."""
        return set(variables) <= self._assignments.keys()


_EMPTY = Mapping()


class ExtendedMapping:
    """An *extended* mapping — variables map to spans or ``⊥`` (Section 5.1).

    Used as the third input of the ``Eval[L]`` decision problem:
    ``µ(x) = ⊥`` pins ``x`` to be unassigned, a variable outside the domain
    is unconstrained, and a span value pins the assignment.
    """

    __slots__ = ("_assignments",)

    def __init__(
        self,
        assignments: AbstractMapping[Variable, SpanOrNull] | Iterable[tuple[Variable, SpanOrNull]] = (),
    ) -> None:
        items = dict(assignments)
        for variable, value in items.items():
            if not (isinstance(value, Span) or value is NULL):
                raise MappingError(
                    f"variable {variable!r} must map to a Span or NULL, got {value!r}"
                )
        self._assignments: dict[Variable, SpanOrNull] = items

    @classmethod
    def empty(cls) -> "ExtendedMapping":
        return cls()

    @classmethod
    def from_mapping(
        cls, mapping: Mapping, null_variables: Iterable[Variable] = ()
    ) -> "ExtendedMapping":
        """Lift a plain mapping, pinning ``null_variables`` to ``⊥``."""
        items: dict[Variable, SpanOrNull] = dict(mapping.items())
        for variable in null_variables:
            if variable in items:
                raise MappingError(
                    f"variable {variable!r} cannot be both assigned and NULL"
                )
            items[variable] = NULL
        return cls(items)

    @classmethod
    def total_for(cls, mapping: Mapping, variables: Iterable[Variable]) -> "ExtendedMapping":
        """The extended mapping that *is exactly* ``mapping`` on ``variables``.

        Every variable of ``variables`` not assigned by ``mapping`` is pinned
        to ``⊥``; this turns ``Eval`` into ``ModelCheck`` (Section 5.1).
        """
        items: dict[Variable, SpanOrNull] = dict(mapping.items())
        for variable in variables:
            items.setdefault(variable, NULL)
        return cls(items)

    @property
    def domain(self) -> frozenset[Variable]:
        return frozenset(self._assignments)

    def value(self, variable: Variable) -> SpanOrNull | None:
        """Span, ``NULL``, or ``None`` when the variable is unconstrained."""
        return self._assignments.get(variable)

    def __getitem__(self, variable: Variable) -> SpanOrNull:
        try:
            return self._assignments[variable]
        except KeyError:
            raise MappingError(f"extended mapping undefined on {variable!r}") from None

    def __contains__(self, variable: Variable) -> bool:
        return variable in self._assignments

    def __len__(self) -> int:
        return len(self._assignments)

    def items(self) -> Iterator[tuple[Variable, SpanOrNull]]:
        return iter(self._assignments.items())

    def assigned(self) -> Mapping:
        """The plain mapping formed by the span-valued entries."""
        return Mapping(
            {v: s for v, s in self._assignments.items() if isinstance(s, Span)}
        )

    def nulled(self) -> frozenset[Variable]:
        """The variables pinned to ``⊥``."""
        return frozenset(
            v for v, s in self._assignments.items() if s is NULL
        )

    def pin(self, variable: Variable, value: SpanOrNull) -> "ExtendedMapping":
        """``µ[x → s]`` for extended mappings (Algorithm 2's refinement step)."""
        items = dict(self._assignments)
        items[variable] = value
        return ExtendedMapping(items)

    def admits(self, mapping: Mapping) -> bool:
        """True when ``mapping`` is a completion: ``self ⊆ mapping`` as in §5.1.

        Span-valued entries must match exactly and ``⊥`` entries must be
        absent from ``mapping``'s domain.
        """
        for variable, value in self._assignments.items():
            if value is NULL:
                if variable in mapping:
                    return False
            elif mapping.get(variable) != value:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtendedMapping):
            return NotImplemented
        return self._assignments == other._assignments

    def __hash__(self) -> int:
        return hash(frozenset(self._assignments.items()))

    def __repr__(self) -> str:
        if not self._assignments:
            return "ExtendedMapping.empty()"
        inner = ", ".join(
            f"{var} -> {value}"
            for var, value in sorted(self._assignments.items(), key=lambda kv: kv[0])
        )
        return f"ExtendedMapping({{{inner}}})"


def join(first: Iterable[Mapping], second: Iterable[Mapping]) -> set[Mapping]:
    """The join ``M1 ⋈ M2`` of two sets of mappings (paper, Section 2).

    ``M1 ⋈ M2 = {µ1 ∪ µ2 | µ1 ∈ M1, µ2 ∈ M2, µ1 ~ µ2}``.
    """
    left = list(first)
    right = list(second)
    result: set[Mapping] = set()
    for mu1 in left:
        for mu2 in right:
            if mu1.compatible(mu2):
                result.add(mu1.union(mu2))
    return result


def join_all(mapping_sets: Iterable[Iterable[Mapping]]) -> set[Mapping]:
    """Iterated join ``M1 ⋈ M2 ⋈ ... ⋈ Mk`` (empty product is ``{∅}``)."""
    result: set[Mapping] = {Mapping.empty()}
    for mapping_set in mapping_sets:
        result = join(result, mapping_set)
        if not result:
            return result
    return result


def is_hierarchical_set(mappings: Iterable[Mapping]) -> bool:
    """A set of mappings is hierarchical iff all its members are."""
    return all(mapping.is_hierarchical() for mapping in mappings)


def all_total_mappings(
    variables: Iterable[Variable], document_length: int
) -> set[Mapping]:
    """All *total* functions from ``variables`` to ``span(d)`` (Theorem 4.2).

    Used to recover the semantics of [2]'s span regular expressions, where
    unmatched variables take arbitrary values: ``⟦γ⟧'_d = M ⋈ ⟦γ⟧_d``.
    Exponential in the number of variables — intended for small inputs.
    """
    from repro.spans.span import all_spans

    variables = sorted(set(variables))
    spans = all_spans(document_length)
    result: set[Mapping] = {Mapping.empty()}
    for variable in variables:
        result = {
            mapping.extend(variable, span)
            for mapping in result
            for span in spans
        }
    return result
