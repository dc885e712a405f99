"""The corpus evaluation service (one spanner, many documents).

The layer above :mod:`repro.engine` on the production roadmap: document
*corpora* with stable ids (:mod:`repro.service.corpus`), structural
memoisation of compiled spanners (:mod:`repro.service.cache`), and
sharded, error-isolated corpus evaluation with a worker pool
(:mod:`repro.service.evaluate`).

>>> from repro.service import evaluate_corpus
>>> [r.doc_id for r in evaluate_corpus("x{a}", ["a", "b"]) if r.mappings]
['doc-00000']
"""

import warnings as _warnings

from repro.service.backend import ProcessBackend, ThreadBackend
from repro.service.cache import (
    DEFAULT_CACHE,
    SpannerCache,
    va_fingerprint,
)
from repro.service.corpus import (
    Corpus,
    CorpusRecord,
    DirectoryCorpus,
    GeneratorCorpus,
    InMemoryCorpus,
    as_corpus,
)
from repro.service.evaluate import (
    CorpusResult,
    WorkerPool,
    corpus_outputs,
    evaluate_corpus,
    extract_corpus,
)
from repro.service.queryset import QuerySet, QuerySetResult
from repro.service.resilience import (
    BreakerOpen,
    CircuitBreaker,
    PoolBroken,
    RetryPolicy,
)
from repro.util.errors import CorpusError

__all__ = [
    "BreakerOpen",
    "CircuitBreaker",
    "Corpus",
    "CorpusError",
    "CorpusRecord",
    "CorpusResult",
    "DEFAULT_CACHE",
    "DirectoryCorpus",
    "GeneratorCorpus",
    "InMemoryCorpus",
    "PoolBroken",
    "ProcessBackend",
    "ThreadBackend",
    "QuerySet",
    "QuerySetResult",
    "RetryPolicy",
    "SpannerCache",
    "WorkerPool",
    "as_corpus",
    "cached_spanner",
    "corpus_outputs",
    "evaluate_corpus",
    "extract_corpus",
    "va_fingerprint",
]


def __getattr__(name: str):
    if name == "cached_spanner":
        _warnings.warn(
            "repro.service.cached_spanner is deprecated; "
            "use repro.api.compile instead",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.service.cache import cached_spanner

        globals()[name] = cached_spanner  # warn exactly once per process
        return cached_spanner
    raise AttributeError(f"module 'repro.service' has no attribute {name!r}")
