"""Compiled-spanner memoisation keyed by the *post-optimisation* plan.

:func:`repro.engine.tables.compile_va` already caches transition tables,
but it keys on VA object *identity-equality* through ``lru_cache`` — two
structurally identical automata built independently (say, by two requests
parsing the same pattern) hash to distinct cache slots only when their
dataclass equality differs, and the cache holds the whole
:class:`~repro.automata.va.VA` alive as its key.

The service layer instead keys on the compilation planner's output:
:class:`SpannerCache` plans every source through :func:`repro.plan.plan`
and memoises whole :class:`~repro.engine.compiled.CompiledSpanner`
instances (tables *and* their document/verdict caches) under
:attr:`~repro.plan.Plan.fingerprint` — the structural digest of the
automaton *after* the pass pipeline.  Structurally different sources
that plan to the same automaton therefore share one compiled engine:

>>> cache = SpannerCache()
>>> cache.get("x{a}|x{a}") is cache.get("x{a}")   # simplify merges the union
True

:func:`va_fingerprint` (re-exported from
:mod:`repro.automata.fingerprint`) hashes the canonical transition list,
so any two equal automata — whether parsed, built, or unpickled in a
worker process — share one digest.

>>> from repro.spanner import Spanner
>>> first = Spanner.compile(".*x{a+}.*").automaton
>>> second = Spanner.compile(".*x{a+}.*").automaton
>>> first is second
False
>>> va_fingerprint(first) == va_fingerprint(second)
True
"""

from __future__ import annotations

import threading

from repro.automata.fingerprint import va_fingerprint
from repro.engine.compiled import CompiledSpanner
from repro.plan import DEFAULT_OPT_LEVEL, Plan, plan as build_plan

__all__ = [
    "DEFAULT_CACHE",
    "SpannerCache",
    "cached_spanner",
    "va_fingerprint",
]

#: Default bound on distinct spanners held by a cache (FIFO eviction, like
#: the engine's per-spanner document/verdict caches).
_DEFAULT_CAPACITY = 128


class SpannerCache:
    """Memoised :class:`CompiledSpanner` construction, keyed by plan fingerprint.

    Accepts everything :func:`~repro.plan.plan` accepts (RGX text, an
    AST, a rule, a VA, a ``Spanner``, a prepared ``Plan``).  String
    sources are additionally memoised by ``(pattern text, opt level)``,
    so the common serving pattern — the same pattern string on every
    request — skips parsing and planning entirely after the first hit.

    >>> cache = SpannerCache()
    >>> engine = cache.get(".*x{a+}.*")
    >>> cache.get(".*x{a+}.*") is engine   # same pattern text: no parse
    True
    >>> from repro.spanner import Spanner
    >>> cache.get(Spanner.compile(".*x{a+}.*")) is engine  # same plan
    True
    >>> cache.stats()["hits"], cache.stats()["misses"]
    (2, 1)
    """

    def __init__(self, capacity: int = _DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self._capacity = capacity
        # All bookkeeping happens under this lock: the async server's
        # executor threads share one cache, and an unguarded dict-evict
        # racing a lookup could hand out a half-evicted entry.  Planning
        # and engine compilation stay *outside* the lock (they dominate
        # the cost); a lost race compiles twice and keeps the first.
        self._lock = threading.RLock()
        self._by_fingerprint: dict[str, CompiledSpanner] = {}
        self._by_pattern: dict[tuple[str, int], str] = {}
        self._hits = 0
        self._misses = 0

    def _insert(self, fingerprint, engine, pattern, level) -> CompiledSpanner:
        """First-insert-wins publication of ``engine`` under the lock."""
        with self._lock:
            cached = self._by_fingerprint.get(fingerprint)
            if cached is not None:
                # A concurrent get() compiled the same plan; keep the
                # canonical first entry so callers share one engine.
                self._hits += 1
                engine = cached
            else:
                self._misses += 1
                if len(self._by_fingerprint) >= self._capacity:
                    evicted = next(iter(self._by_fingerprint))
                    del self._by_fingerprint[evicted]
                    self._by_pattern = {
                        key: digest
                        for key, digest in self._by_pattern.items()
                        if digest != evicted
                    }
                self._by_fingerprint[fingerprint] = engine
            if pattern is not None:
                self._by_pattern[(pattern, level)] = fingerprint
            return engine

    def _resolve_plan(self, source, opt_level: int | None) -> Plan:
        """The plan for ``source``, reusing one the source already carries."""
        candidate = source if isinstance(source, Plan) else getattr(source, "plan", None)
        if not isinstance(candidate, Plan):
            candidate = None
        if candidate is not None and (
            opt_level is None or candidate.opt_level == opt_level
        ):
            return candidate
        base = candidate.source if candidate is not None else source
        return build_plan(base, opt_level=opt_level)

    def get(self, source, opt_level: int | None = None) -> CompiledSpanner:
        """The compiled spanner for ``source``, reused when its plan is known."""
        pattern = source if isinstance(source, str) else None
        level = DEFAULT_OPT_LEVEL if opt_level is None else opt_level
        if pattern is not None:
            with self._lock:
                fingerprint = self._by_pattern.get((pattern, level))
                if fingerprint is not None:
                    cached = self._by_fingerprint.get(fingerprint)
                    if cached is not None:
                        self._hits += 1
                        return cached
        plan = self._resolve_plan(source, opt_level)  # heavy: outside the lock
        fingerprint = plan.fingerprint
        with self._lock:
            cached = self._by_fingerprint.get(fingerprint)
            if cached is not None:
                self._hits += 1
                if pattern is not None:
                    self._by_pattern[(pattern, level)] = fingerprint
                return cached
        if isinstance(source, CompiledSpanner) and source.automaton is plan.automaton:
            engine = source  # already compiled on exactly this plan
        else:
            engine = CompiledSpanner(plan=plan)  # heavy: outside the lock
        return self._insert(fingerprint, engine, pattern, level)

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_fingerprint)

    def __contains__(self, source) -> bool:
        """Membership without ever constructing an engine.

        A string is looked up by pattern text; anything else is *planned*
        — cheap relative to engine compilation — and looked up by plan
        fingerprint.  Sources that do not carry a plan of their own are
        resolved at the *default* opt level, so entries populated via
        ``get(source, opt_level=0|2)`` may not be visible here; an
        uncached pattern string whose *structure* is cached likewise
        reports ``False``.  :meth:`get` is the authoritative (and still
        cheap) path in both cases.
        """
        if isinstance(source, str):
            key = (source, DEFAULT_OPT_LEVEL)
            with self._lock:
                return self._by_pattern.get(key) in self._by_fingerprint
        try:
            plan = self._resolve_plan(source, None)
        except TypeError:
            return False
        with self._lock:
            return plan.fingerprint in self._by_fingerprint

    def engines(self) -> list[CompiledSpanner]:
        """The cached engines, oldest first."""
        with self._lock:
            return list(self._by_fingerprint.values())

    def stats(self) -> dict[str, int]:
        """Hit/miss/size counters (for capacity tuning and dashboards)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._by_fingerprint),
                "capacity": self._capacity,
            }

    def clear(self) -> None:
        with self._lock:
            self._by_fingerprint.clear()
            self._by_pattern.clear()
            self._hits = 0
            self._misses = 0

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"SpannerCache({stats['size']}/{stats['capacity']} spanners, "
            f"{stats['hits']} hits, {stats['misses']} misses)"
        )


#: The process-wide default cache used by the service entry points.
DEFAULT_CACHE = SpannerCache()


def cached_spanner(source, opt_level: int | None = None) -> CompiledSpanner:
    """Compile through the process-wide :data:`DEFAULT_CACHE`.

    >>> cached_spanner("x{a}b") is cached_spanner("x{a}b")
    True
    """
    return DEFAULT_CACHE.get(source, opt_level)
