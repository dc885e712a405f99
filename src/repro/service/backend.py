"""Executor backends: one submit/stats/close seam over threads and processes.

The server dispatcher and :func:`~repro.service.evaluate.evaluate_corpus`
run a batch of ``(doc_id, text)`` records in one of two places: an
in-process thread pool or the :class:`~repro.service.evaluate.WorkerPool`
process pool.  :class:`ExecutorBackend` is the seam both share, so the
dispatcher can fall back from one to the other when degraded:

* :meth:`ExecutorBackend.submit` ships one ``evaluate_records``-shaped
  batch and returns a :class:`concurrent.futures.Future` resolving to the
  usual ``(doc_id, payload, error)`` triples, in submission order;
* :meth:`ExecutorBackend.stats` reports the executor-side counters
  (worker kernel/cache sums for processes);
* :meth:`ExecutorBackend.close` releases the executor.

:class:`ThreadBackend` runs batches on in-process threads (no pickling,
engines shared across threads — the ``workers=0`` server path and the
degraded-mode fallback).  :class:`ProcessBackend` wraps a
:class:`~repro.service.evaluate.WorkerPool` and inherits its whole fault
story (rebuild + requeue, quarantine bisection,
:class:`~repro.service.resilience.PoolBroken` when the rebuild budget is
exhausted).

>>> from repro.engine.compiled import compile_spanner
>>> with ThreadBackend() as backend:
...     backend.submit(
...         compile_spanner("x{a}"), [("d0", "a")], kind="matches"
...     ).result()
[('d0', True, None)]
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor

from repro.engine.compiled import CompiledSpanner
from repro.service.evaluate import WorkerPool, evaluate_records

__all__ = ["ExecutorBackend", "ProcessBackend", "ThreadBackend"]

_KINDS = ("mappings", "extract", "matches")


class ExecutorBackend:
    """The abstract executor seam (see the module docstring).

    Concrete backends are duck-typed — anything with this surface works —
    but subclassing documents intent and inherits the context-manager
    plumbing.  ``parallelism`` is the backend's useful concurrency width
    (callers size their in-flight backlog from it).
    """

    name = "abstract"

    @property
    def parallelism(self) -> int:
        return 1

    def submit(
        self,
        engine: CompiledSpanner,
        records,
        *,
        kind: str = "mappings",
        spans: bool = False,
    ) -> Future:
        raise NotImplementedError

    def stats(self, fingerprint: str | None = None) -> dict:
        """Executor-side counters; shape varies per backend."""
        return {"backend": self.name, "workers": 0}

    def revive(self) -> None:
        """Reset a failed backend (no-op where failure cannot happen)."""

    def close(self, wait: bool = True) -> None:
        raise NotImplementedError

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _check_kind(kind: str) -> None:
    if kind not in _KINDS:
        raise ValueError(f"unknown batch kind {kind!r}")


class ThreadBackend(ExecutorBackend):
    """Batches on an in-process thread pool, engines shared across threads.

    The executor is created lazily on first submit, so a ThreadBackend
    held only as a fallback (the worker-pool server's degraded target)
    costs nothing until the day it is needed.
    """

    name = "threads"

    def __init__(self, threads: int | None = None) -> None:
        if threads is not None and threads < 1:
            raise ValueError("threads must be >= 1 (or None to auto-size)")
        self._threads = threads or min(32, (os.cpu_count() or 1) + 4)
        self._executor: ThreadPoolExecutor | None = None
        self._closed = False

    @property
    def parallelism(self) -> int:
        return self._threads

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._closed:
            raise RuntimeError("cannot submit to a closed ThreadBackend")
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self._threads, thread_name_prefix="repro-eval"
            )
        return self._executor

    def submit(
        self,
        engine: CompiledSpanner,
        records,
        *,
        kind: str = "mappings",
        spans: bool = False,
    ) -> Future:
        _check_kind(kind)
        batch = list(records)
        return self._ensure_executor().submit(
            evaluate_records, engine, batch, kind, spans
        )

    def stats(self, fingerprint: str | None = None) -> dict:
        # Counters accrue on the caller's own engine — there is no
        # executor-side engine copy to report on.
        return {"backend": self.name, "workers": 0}

    def close(self, wait: bool = True) -> None:
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=wait)


class ProcessBackend(ExecutorBackend):
    """Batches on a :class:`~repro.service.evaluate.WorkerPool`.

    Either wraps a caller-owned pool (``pool=...`` — ``close`` leaves it
    alone) or spawns and owns one (``workers=N`` plus the pool's keyword
    arguments).  Submit-time failure semantics are the pool's own:
    worker death rebuilds and requeues, and only
    :class:`~repro.service.resilience.PoolBroken` reaches the caller.
    """

    name = "processes"

    def __init__(
        self,
        workers: int | None = None,
        *,
        pool: WorkerPool | None = None,
        **pool_kwargs,
    ) -> None:
        if (workers is None) == (pool is None):
            raise ValueError("pass exactly one of workers= or pool=")
        if pool is not None and pool_kwargs:
            raise ValueError("pool keyword arguments need workers=")
        self._owned = pool is None
        self.pool = pool if pool is not None else WorkerPool(workers, **pool_kwargs)

    @property
    def parallelism(self) -> int:
        return self.pool.workers

    @property
    def failed(self) -> bool:
        return self.pool.failed

    def submit(
        self,
        engine: CompiledSpanner,
        records,
        *,
        kind: str = "mappings",
        spans: bool = False,
    ) -> Future:
        return self.pool.submit(engine, records, kind=kind, spans=spans)

    def stats(self, fingerprint: str | None = None) -> dict:
        stats = self.pool.stats(fingerprint)
        stats["backend"] = self.name
        return stats

    def revive(self) -> None:
        self.pool.revive()

    def close(self, wait: bool = True) -> None:
        if self._owned:
            self.pool.shutdown(wait=wait)
