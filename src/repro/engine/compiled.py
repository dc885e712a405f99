"""The compiled spanner: pruned enumeration, memoised Eval, batch evaluation.

:func:`compile_spanner` accepts concrete RGX syntax, an AST, an extraction
:class:`~repro.rules.rule.Rule`, a VA, an existing
:class:`~repro.spanner.Spanner`, or a prepared
:class:`~repro.plan.Plan` and returns a reusable :class:`CompiledSpanner`.
Every source is routed through the pass-based compilation planner
(:mod:`repro.plan`): the front-end normalises it to a VA, the pass
pipeline optimises it (ε-elimination, trimming, predicate fusion,
sequentialisation — ``opt_level`` picks the pipeline), and the engine
compiles the *planned* automaton.  Compilation work (the plan, transition
tables, the sequentiality check) happens once; per-document indexes and
verdicts are cached so repeated evaluation of the same document — the
serving pattern the batch API targets — pays for them once.

Enumeration follows Algorithm 2 exactly, answered by the document's
output DAG (:class:`~repro.engine.oracle.OutputDAG`; the engine's
automaton is always sequential: :func:`~repro.engine.tables.compile_va`
applies Proposition 5.6 to any input that is not):

* one forward pass over the frontier DFA records the DAG — per position
  the nodes (live state subsets) and their marker-set edges — and one
  backward pass counts each node's completions as 0, 1 or many and
  links it to the next position where a live node takes a non-empty
  marker set;
* each recursion node gets its variable's spans from the DAG restricted
  to the node's pins, in the seed's order (``i``-major, ``⊥`` last),
  each with its child's completion count;
* a child with exactly one completion is read off the DAG as its single
  path, with no further nodes, so on patterns whose mappings are fixed
  by their first variable only the root does restricted work;
* :meth:`CompiledSpanner.count` sums the DAG's paths and enumerates
  nothing.

The DAG lives for one call and is read by one thread.  What it is
built from is shared by every document and thread: the frontier DFA of
the forward pass, and the backward pass's level descriptions and memo,
which hang off that DFA.  Both passes take its lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterable, Iterator, Sequence

from repro.automata.fingerprint import va_fingerprint
from repro.automata.sequential import is_sequential
from repro.automata.va import VA
from repro.engine.oracle import Completions, OutputDAG, eval_compiled, non_empty_compiled
from repro.engine.tables import CompiledVA, DocumentIndex, compile_va
from repro.plan import Plan, plan as build_plan
from repro.spans.document import Document, as_text
from repro.spans.mapping import ExtendedMapping, Mapping, Variable
from repro.spans.span import Span

#: Per-spanner bound on cached document indexes / verdicts (LRU).  Cache
#: keys are ``(len(text), hash(text))``-based so an entry's key stays O(1)
#: regardless of document size.
_DOCUMENT_CACHE_LIMIT = 64
_VERDICT_CACHE_LIMIT = 4096

#: The pin component of every NonEmp verdict's cache key: one shared
#: object, so a cached NonEmp verdict costs a key tuple and no set.
_NO_PINS: frozenset = frozenset()


class CompiledSpanner:
    """A spanner compiled for repeated, high-throughput evaluation.

    Built either directly from an automaton (the worker-process path —
    the automaton is then assumed to be planned already) or from a
    :class:`~repro.plan.Plan`, in which case the engine runs on the
    plan's optimised automaton while classification questions
    (:attr:`is_sequential`) answer about the *source*.
    """

    def __init__(
        self,
        automaton: VA | None = None,
        expression=None,
        plan: "Plan | None" = None,
    ) -> None:
        if plan is not None:
            automaton = plan.automaton
            if expression is None:
                expression = plan.source_expression
        if automaton is None:
            raise TypeError("CompiledSpanner needs an automaton or a plan")
        self._va = automaton
        self._cva: CompiledVA = compile_va(automaton)
        self._expression = expression
        self._plan = plan
        #: Lazily computed classification of a plan-less engine's source.
        self._source_sequential: bool | None = None
        self._fingerprint: str | None = None
        # The per-spanner LRU caches are mutated under this lock so one
        # engine can serve concurrent threads (the async server's
        # in-process executor).  Index/verdict *computation* happens
        # outside the lock, on the kernel's shared flat tables.
        self._lock = threading.Lock()
        self._indexes: OrderedDict[tuple[int, int], DocumentIndex] = OrderedDict()
        self._verdicts: OrderedDict[tuple, bool] = OrderedDict()
        self._index_hits = 0
        self._index_misses = 0
        self._verdict_hits = 0
        self._verdict_misses = 0
        self._dags = 0

    # -- inspection ------------------------------------------------------------

    @property
    def automaton(self) -> VA:
        """The (planned) automaton the engine evaluates."""
        return self._va

    @property
    def plan(self) -> "Plan | None":
        """The compilation plan this engine came from (``None`` when built
        directly from an automaton, e.g. inside a worker process)."""
        return self._plan

    @property
    def expression(self):
        """The source RGX, when compiled from one."""
        return self._expression

    @property
    def tables(self) -> CompiledVA:
        """The underlying transition tables (shared, cached per VA)."""
        return self._cva

    @property
    def variables(self) -> frozenset[Variable]:
        return self._cva.variables

    @property
    def fingerprint(self) -> str:
        """The structural digest of the automaton the engine runs.

        Identical to :attr:`repro.plan.Plan.fingerprint` when the engine
        came from a plan — both digest the post-optimisation automaton —
        and computable even for worker-built engines that carry no plan.

        >>> engine = compile_spanner("x{a}|x{a}")
        >>> engine.fingerprint == compile_spanner("x{a}").fingerprint
        True
        """
        if self._fingerprint is None:
            self._fingerprint = va_fingerprint(self._va)
        return self._fingerprint

    def kernel_stats(self) -> dict[str, int]:
        """Table sizes of the shared bitmask kernel (alphabet classes,
        sweep contexts, interned documents, flat-DFA states, the output
        DAG's level descriptions, and flushes) — a live view of the state
        every document this engine evaluates shares.  Forces the kernel
        build.

        >>> engine = compile_spanner(".*x{a+}.*")
        >>> _ = engine.mappings("baa")
        >>> engine.kernel_stats()["classes"] >= 2
        True
        """
        return self._cva.kernel.stats()

    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/size counters of the per-spanner LRU caches.

        ``index`` counts :meth:`index` lookups, ``verdict`` counts
        memoised ``Eval`` calls, and ``dags`` the output DAGs built (one
        per document :meth:`enumerate` or :meth:`count` reads) — the
        counters behind the CLI's ``--stats`` and the server's
        ``/metrics``.

        >>> engine = compile_spanner(".*x{a+}.*")
        >>> _ = engine.index("baa"); _ = engine.index("baa")
        >>> stats = engine.cache_stats()
        >>> stats["index_misses"], stats["index_hits"] >= 1
        (1, True)
        """
        with self._lock:
            return {
                "index_hits": self._index_hits,
                "index_misses": self._index_misses,
                "index_size": len(self._indexes),
                "index_capacity": _DOCUMENT_CACHE_LIMIT,
                "verdict_hits": self._verdict_hits,
                "verdict_misses": self._verdict_misses,
                "verdict_size": len(self._verdicts),
                "verdict_capacity": _VERDICT_CACHE_LIMIT,
                "dags": self._dags,
            }

    @property
    def is_sequential(self) -> bool:
        """Fragment membership of the *source* (Theorem 5.7's condition).

        The engine always sweeps a sequential automaton — planning or
        :func:`~repro.engine.tables.compile_va` sequentialised it — so a
        ``False`` here still enjoys the polynomial sweep.
        """
        if self._plan is not None:
            return self._plan.source_sequential
        if self._source_sequential is None:
            self._source_sequential = is_sequential(self._va)
        return self._source_sequential

    # -- per-document infrastructure --------------------------------------------

    def index(self, document: "Document | str") -> DocumentIndex:
        """The (cached, LRU) reachability index of one document.

        The key is ``(len(text), hash(text))`` — O(1) memory per entry —
        and the stored index's own text is compared on hit, so a hash
        collision costs a rebuild, never a wrong index.
        """
        text = as_text(document)
        key = (len(text), hash(text))
        with self._lock:
            index = self._indexes.get(key)
            if index is not None and index.text == text:
                self._indexes.move_to_end(key)
                self._index_hits += 1
                return index
        built = DocumentIndex(self._cva, text)  # heavy: outside the lock
        with self._lock:
            self._index_misses += 1
            current = self._indexes.get(key)
            if current is not None and current.text == text:
                return current  # another thread built it first
            if current is None and len(self._indexes) >= _DOCUMENT_CACHE_LIMIT:
                self._indexes.popitem(last=False)
            self._indexes[key] = built
        return built

    def index_many(self, documents: "Sequence[Document | str]") -> list[DocumentIndex]:
        """:meth:`index` for every document of a batch, in order."""
        return [self.index(document) for document in documents]

    # -- decision problems -------------------------------------------------------

    def eval(self, document: "Document | str", pinned: ExtendedMapping) -> bool:
        """Memoised ``Eval``: verdicts keyed on the document digest and the
        frozen extended mapping (LRU-bounded).

        The document key is ``(len(text), hash(text))`` so entries never
        retain the document itself — the point of the scheme — which
        means a 64-bit hash collision between two same-length documents
        would alias their verdicts.  Unlike :meth:`index` there is no
        stored text to verify against; the risk is accepted as
        negligible (siphash collisions at ~2⁻⁶⁴ per candidate pair)
        in exchange for O(1) memory per cached verdict.  With no pins
        this is NonEmp (:func:`~repro.engine.oracle.non_empty_compiled`).
        """
        text = as_text(document)
        pins = frozenset(pinned.items()) or _NO_PINS
        key = (len(text), hash(text), pins)
        with self._lock:
            verdict = self._verdicts.get(key)
            if verdict is not None:
                self._verdicts.move_to_end(key)
                self._verdict_hits += 1
                return verdict
        verdict = eval_compiled(self._cva, text, pinned)  # outside the lock
        with self._lock:
            self._verdict_misses += 1
            self._remember(key, verdict)
        return verdict

    def _remember(self, key: tuple, verdict: bool) -> None:
        # The caller holds ``self._lock``.
        if key not in self._verdicts:
            if len(self._verdicts) >= _VERDICT_CACHE_LIMIT:
                self._verdicts.popitem(last=False)
            self._verdicts[key] = verdict

    def matches(self, document: "Document | str") -> bool:
        """``⟦A⟧_d ≠ ∅`` (NonEmp as ``Eval`` with the empty mapping)."""
        return self.eval(document, ExtendedMapping.empty())

    def matches_many(self, documents: "Sequence[Document | str]") -> list[bool]:
        """NonEmp verdicts for a batch of documents.

        Identical to ``[self.matches(d) for d in documents]`` — same
        verdicts, same cache keys and counters — with one pass over the
        verdict cache for the whole batch; each distinct miss is one
        forward walk (:func:`~repro.engine.oracle.non_empty_compiled`).
        This is the server ``/evaluate`` hot path.

        >>> engine = compile_spanner(".*x{a+}.*")
        >>> engine.matches_many(["ba", "bb", "a"])
        [True, False, True]
        """
        texts = [as_text(document) for document in documents]
        out: list[bool | None] = [None] * len(texts)
        pending: dict[str, list[int]] = {}
        with self._lock:
            for position, text in enumerate(texts):
                key = (len(text), hash(text), _NO_PINS)
                verdict = self._verdicts.get(key)
                if verdict is not None:
                    self._verdicts.move_to_end(key)
                    self._verdict_hits += 1
                    out[position] = verdict
                else:
                    pending.setdefault(text, []).append(position)
        if not pending:
            return out
        cva = self._cva
        verdicts = [non_empty_compiled(cva, text) for text in pending]
        with self._lock:
            for (text, positions), verdict in zip(pending.items(), verdicts):
                self._verdict_misses += 1
                self._remember((len(text), hash(text), _NO_PINS), verdict)
                for position in positions:
                    out[position] = verdict
        return out

    def check(self, document: "Document | str", mapping: Mapping) -> bool:
        """``µ ∈ ⟦A⟧_d`` (ModelCheck as a total ``Eval`` instance)."""
        pinned = ExtendedMapping.total_for(mapping, self._cva.mentioned_variables)
        return self.eval(document, pinned)

    # -- enumeration ---------------------------------------------------------------

    def _dag(self, document: "Document | str") -> OutputDAG:
        dag = OutputDAG(self._cva, as_text(document))
        with self._lock:
            self._dags += 1
        return dag

    def enumerate(
        self,
        document: "Document | str",
        start: ExtendedMapping | None = None,
    ) -> Iterator[Mapping]:
        """Algorithm 2 over the document's output DAG: one forward and one
        backward pass (:class:`~repro.engine.oracle.OutputDAG`), then the
        recursion reads its mappings off the DAG."""
        dag = self._dag(document)
        base = {} if start is None else dict(start.items())
        completions = dag.restrict(base)
        if completions is None or not completions.total:
            return
        remaining = [
            variable
            for variable in sorted(self._cva.mentioned_variables)
            if variable not in base
        ]
        # Outputs list their variables in the order the recursion assigns
        # them: the pinned ones first.
        order = [*base, *remaining] if base else None
        yield from self._recurse(dag, completions, base, remaining, order)

    def _recurse(
        self,
        dag: OutputDAG,
        completions: Completions,
        base: dict,
        remaining: list,
        order: list | None,
    ) -> Iterator[Mapping]:
        # Invariant: `completions` counts at least one completion of
        # `base`, so a node with no remaining variables is an output.
        if not remaining:
            yield Mapping(
                {v: s for v, s in base.items() if isinstance(s, Span)}
            )
            return
        variable = remaining[0]
        rest = remaining[1:]
        for value, count, single in dag.children(completions, variable):
            if count == 1:
                # The child's only completion, read off the DAG.
                if order is not None:
                    single = Mapping((v, single[v]) for v in order if v in single)
                yield single
            else:
                child = dict(base)
                child[variable] = value
                yield from self._recurse(dag, dag.restrict(child), child, rest, order)

    # -- materialised results --------------------------------------------------------

    def mappings(self, document: "Document | str") -> set[Mapping]:
        """``⟦A⟧_d`` as a set (drives :meth:`enumerate`)."""
        return set(self.enumerate(document))

    def count(self, document: "Document | str") -> int:
        """``|⟦A⟧_d|``, summed over the output DAG's paths without
        enumerating them.

        >>> compile_spanner(".*x{a+}.*").count("aab")
        3
        """
        return self._dag(document).count()

    def extract(
        self, document: "Document | str", spans: bool = False
    ) -> list[dict[str, object]]:
        """Decoded results, one dict per mapping, absent fields omitted."""
        text = as_text(document)
        results = []
        for mapping in sorted(
            self.mappings(text),
            key=lambda m: sorted((v, s) for v, s in m.items()),
        ):
            if spans:
                results.append(dict(mapping.items()))
            else:
                results.append(
                    {v: s.content(text) for v, s in mapping.items()}
                )
        return results

    # -- batch API ---------------------------------------------------------------------

    def evaluate_many(
        self, documents: Iterable["Document | str"]
    ) -> list[set[Mapping]]:
        """``⟦A⟧_d`` for every document, sharing all compiled state.

        The transition tables and lazy-DFA memos are computed once for
        the whole batch.  For corpus-scale batches with worker-pool
        sharding and error isolation, see
        :func:`repro.service.evaluate.evaluate_corpus`.

        >>> engine = compile_spanner(".*x{a+}.*")
        >>> [len(output) for output in engine.evaluate_many(["ba", "bb"])]
        [1, 0]
        """
        return [self.mappings(document) for document in documents]

    def extract_many(
        self, documents: Iterable["Document | str"], spans: bool = False
    ) -> list[list[dict[str, object]]]:
        """Decoded batch results (one list of dicts per document)."""
        return [self.extract(document, spans=spans) for document in documents]

    def __repr__(self) -> str:
        return (
            f"CompiledSpanner({self._cva.num_states} states, "
            f"variables {sorted(self.variables)})"
        )


def compile_spanner(source, opt_level: int | None = None) -> CompiledSpanner:
    """Compile any formalism into a reusable engine, through the planner.

    ``source`` may be RGX text, an AST, an extraction rule, a VA, a
    ``Spanner``, an existing ``CompiledSpanner`` (returned as-is), or a
    prepared :class:`~repro.plan.Plan`.  ``opt_level`` picks the planner
    pipeline (default: :data:`repro.plan.DEFAULT_OPT_LEVEL`); a plan at a
    different level is re-planned from its original source.

    >>> from repro.engine.compiled import compile_spanner
    >>> engine = compile_spanner(".*Seller: x{[^,\\n]*},.*")
    >>> engine.extract("Seller: John, ID75\\n")
    [{'x': 'John'}]
    >>> engine.plan.opt_level
    1
    """
    if isinstance(source, CompiledSpanner):
        return source
    return CompiledSpanner(plan=build_plan(source, opt_level=opt_level))
