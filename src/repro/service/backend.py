"""Executor backends: where a batch of ``(doc_id, text)`` records runs.

The server dispatcher and :func:`~repro.service.evaluate.evaluate_corpus`
hand batches to one of two backends with the same duck-typed surface:
``submit(engine, records, kind=..., spans=...)`` ships one
``evaluate_records``-shaped batch and returns a
:class:`concurrent.futures.Future` resolving to the usual
``(doc_id, payload, error)`` triples, in submission order, and
``close()`` releases the executor.

:class:`ThreadBackend` runs batches on in-process threads (no pickling,
engines shared across threads — the ``workers=0`` server path).
:class:`ProcessBackend` runs them on a
:class:`~repro.service.evaluate.WorkerPool` and owns the one degrade
policy: the pool's own fault story (rebuild + requeue, quarantine
bisection) handles worker deaths, and once the pool exhausts its
rebuild budget (:class:`~repro.service.resilience.PoolBroken`) the
backend answers on in-process threads instead, reviving the pool after
``degraded_reset`` seconds.  Callers only submit; none of them sees
``PoolBroken``.

>>> from repro.engine.compiled import compile_spanner
>>> with ThreadBackend() as backend:
...     backend.submit(
...         compile_spanner("x{a}"), [("d0", "a")], kind="matches"
...     ).result()
[('d0', True, None)]
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ThreadPoolExecutor

from repro.engine.compiled import CompiledSpanner
from repro.service.evaluate import (
    WorkerPool,
    _settle_exception,
    _settle_result,
    evaluate_records,
)
from repro.service.resilience import PoolBroken

__all__ = ["DEFAULT_DEGRADED_RESET", "ProcessBackend", "ThreadBackend"]

_KINDS = ("mappings", "extract", "matches")

#: Seconds a broken pool's batches run on threads before the pool is
#: revived and probed.
DEFAULT_DEGRADED_RESET = 30.0


def _check_kind(kind: str) -> None:
    if kind not in _KINDS:
        raise ValueError(f"unknown batch kind {kind!r}")


class ThreadBackend:
    """Batches on an in-process thread pool, engines shared across threads.

    The executor is created lazily on first submit, so a ThreadBackend
    held only as a fallback (a :class:`ProcessBackend`'s degraded target)
    costs nothing until the day it is needed.
    """

    name = "threads"

    def __init__(self, threads: int | None = None) -> None:
        if threads is not None and threads < 1:
            raise ValueError("threads must be >= 1 (or None to auto-size)")
        self._threads = threads or min(32, (os.cpu_count() or 1) + 4)
        self._executor: ThreadPoolExecutor | None = None
        self._closed = False

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

    def close(self, wait: bool = True) -> None:
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=wait)

    def __enter__(self) -> "ThreadBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ProcessBackend:
    """Batches on a :class:`~repro.service.evaluate.WorkerPool`, degrading
    to in-process threads while the pool is broken.

    Either wraps a caller-owned pool (``pool=...`` — ``close`` leaves it
    alone) or spawns and owns one (``workers=N`` plus the pool's keyword
    arguments).  Worker death rebuilds and requeues inside the pool.
    When the pool exhausts its rebuild budget — its ``submit`` raises
    :class:`~repro.service.resilience.PoolBroken`, or a batch's future
    resolves to it — that batch and every later one run on an owned,
    auto-sized :class:`ThreadBackend`, with identical results.  The
    backend is *degraded* exactly while ``pool.failed`` holds.  The
    first submit ``degraded_reset`` seconds after the break revives the
    pool and probes it with its own batch.
    """

    name = "processes"

    def __init__(
        self,
        workers: int | None = None,
        *,
        pool: WorkerPool | None = None,
        degraded_reset: float = DEFAULT_DEGRADED_RESET,
        **pool_kwargs,
    ) -> None:
        if (workers is None) == (pool is None):
            raise ValueError("pass exactly one of workers= or pool=")
        if pool is not None and pool_kwargs:
            raise ValueError("pool keyword arguments need workers=")
        if degraded_reset <= 0:
            raise ValueError("degraded_reset must be positive")
        self._owned = pool is None
        self.pool = pool if pool is not None else WorkerPool(workers, **pool_kwargs)
        self._degraded_reset = degraded_reset
        self._fallback = ThreadBackend()

    @property
    def parallelism(self) -> int:
        """The pool's worker count (callers size their backlog from it)."""
        return self.pool.workers

    def submit(
        self,
        engine: CompiledSpanner,
        records,
        *,
        kind: str = "mappings",
        spans: bool = False,
    ) -> Future:
        batch = list(records)

        def degrade() -> Future:
            return self._fallback.submit(engine, batch, kind=kind, spans=spans)

        if not self._pool_ready():
            return degrade()
        try:
            inner = self.pool.submit(engine, batch, kind=kind, spans=spans)
        except PoolBroken:
            return degrade()
        outer: Future = Future()

        def finish(done: Future) -> None:
            error = done.exception()
            if error is None:
                _settle_result(outer, done.result())
            else:
                _settle_exception(outer, error)

        def settle(done: Future) -> None:
            # Runs on a pool thread, so it must not block: a broken
            # batch is resubmitted, and settles from its fallback future.
            # No closure here refers to itself: a cycle would keep every
            # batch's results alive until the cycle collector ran.
            if isinstance(done.exception(), PoolBroken):
                try:
                    degrade().add_done_callback(finish)
                except RuntimeError as closed:  # the backend was closed
                    _settle_exception(outer, closed)
                return
            finish(done)

        inner.add_done_callback(settle)
        return outer

    def _pool_ready(self) -> bool:
        """Whether the next batch goes to the pool: it is alive, or it
        broke ``degraded_reset`` seconds ago and was just revived."""
        state = self.pool.resilience()
        if not state["failed"]:
            return True
        if time.time() - state["last_restart"] < self._degraded_reset:
            return False
        try:
            self.pool.revive()
        except RuntimeError:  # shut down by its owner: stay on threads
            return False
        return True

    def stats(self, fingerprint: str | None = None) -> dict:
        """The pool's summed worker-side counters."""
        stats = self.pool.stats(fingerprint)
        stats["backend"] = self.name
        return stats

    def close(self, wait: bool = True) -> None:
        self._fallback.close(wait=wait)
        if self._owned:
            self.pool.shutdown(wait=wait)

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
