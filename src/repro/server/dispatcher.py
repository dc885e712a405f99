"""The coalescing dispatcher: shared compiles, micro-batches, backpressure.

The heart of the serving subsystem.  Three mechanisms turn many small
concurrent requests into the large warm batches the engine is built for:

* **request coalescing** — concurrent requests for the same
  ``(pattern, opt_level)`` share one compile: the first request plans and
  compiles through the thread-safe
  :class:`~repro.service.cache.SpannerCache` in an executor thread, every
  other request awaits the same future, and later requests resolve via
  the cache's ``(pattern, opt level)`` memo — the one bounded store of
  compiled engines, so its stats describe what is actually served;
* **micro-batching** — documents are appended to a per-``(engine, kind)``
  batch that flushes when it reaches ``batch_max_size`` documents *or*
  ``batch_max_delay`` seconds after its first document (size/latency
  watermarks), so one flush serves documents from many requests and each
  executor round-trip amortises over the whole batch;
* **bounded queues** — at most ``max_pending`` documents may be queued or
  in flight; past the watermark new work is shed with :class:`Overloaded`
  (the HTTP layer answers 429) instead of growing the queue without
  bound.

Batches execute on an :class:`~repro.service.backend.ExecutorBackend`:
a :class:`~repro.service.backend.ProcessBackend` over the
:class:`~repro.service.evaluate.WorkerPool` (``workers >= 1`` — each
worker's kernel memo stays warm across batches, and hence across
requests), a :class:`~repro.service.backend.ThreadBackend`
(``workers = 0`` — no pickling, engines shared across threads, which is
what the engine's cache locks exist for), or any injected backend
(``DispatcherConfig.backend`` — the cluster coordinator injects its
node-routing backend here).  A backend that reports itself broken
(:class:`~repro.service.resilience.PoolBroken`) degrades the dispatcher
onto an in-process ThreadBackend until the reset window passes.

``naive=True`` is the ablation baseline the serving benchmark (E23)
compares against: no cache, no coalescing, no batching — every request
compiles its own engine and every document runs alone, the
one-request-one-eval server someone would write first.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.engine.compiled import CompiledSpanner, compile_spanner
from repro.server.metrics import Metrics
from repro.server.protocol import EVALUATE, SpanRequest
from repro.service import faults
from repro.service.backend import (
    ExecutorBackend,
    ProcessBackend,
    ThreadBackend,
)
from repro.service.cache import SpannerCache
from repro.service.evaluate import DEFAULT_MAX_REBUILDS
from repro.service.resilience import BreakerOpen, CircuitBreaker, PoolBroken

__all__ = [
    "BreakerOpen",
    "Dispatcher",
    "DispatcherConfig",
    "Overloaded",
    "RequestTooLarge",
]

_LOGGER = logging.getLogger("repro.server")

#: Distinct (pattern, opt_level) circuit breakers kept live (FIFO bound —
#: an unbounded dict would grow with every pattern ever requested).
_BREAKER_LIMIT = 256


class Overloaded(Exception):
    """The pending-document queue is full; shed the request (HTTP 429)."""


class RequestTooLarge(Exception):
    """More documents than ``max_pending`` in one request: retrying can
    never succeed, so the HTTP layer answers 413, not 429."""


@dataclass
class DispatcherConfig:
    """Tuning knobs for the dispatcher (see the module docstring)."""

    #: Worker processes for batch evaluation; 0 evaluates in-process on a
    #: thread pool (no pickling, engines shared across threads).
    workers: int = 0
    #: Flush a batch at this many documents …
    batch_max_size: int = 16
    #: … or this many seconds after its first document, whichever first.
    batch_max_delay: float = 0.002
    #: Queued + in-flight documents beyond which submissions are shed.
    max_pending: int = 1024
    #: Threads for the in-process executor (``workers == 0``); None picks
    #: a small multiple of the CPU count.
    inline_threads: int | None = None
    #: Disable cache, coalescing, and batching (the E23 baseline).
    naive: bool = False
    #: Directory of durable engine artifacts; None leaves the cache purely
    #: in-memory (see repro.service.artifact_store).
    artifact_dir: str | None = None
    #: Per-batch deadline on the worker pool, seconds; None disables
    #: (falls back to ``REPRO_TASK_TIMEOUT``).
    task_timeout: float | None = None
    #: Consecutive pool rebuilds tolerated before degrading to threads.
    max_rebuilds: int = DEFAULT_MAX_REBUILDS
    #: Consecutive compile failures that open a pattern's breaker …
    breaker_threshold: int = 5
    #: … and how long the breaker stays open before a half-open probe.
    breaker_reset: float = 30.0
    #: How long degraded mode lasts before the pool is revived and probed.
    degraded_reset: float = 30.0
    #: An injected :class:`~repro.service.backend.ExecutorBackend` that
    #: overrides the workers-derived choice (the cluster coordinator
    #: injects its node-routing backend here).  The dispatcher does not
    #: own an injected backend: ``close()`` leaves it running.
    backend: "ExecutorBackend | None" = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.batch_max_size < 1:
            raise ValueError("batch_max_size must be >= 1")
        if self.batch_max_delay < 0:
            raise ValueError("batch_max_delay must be >= 0")
        if self.max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        if self.max_rebuilds < 0:
            raise ValueError("max_rebuilds must be >= 0")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_reset <= 0:
            raise ValueError("breaker_reset must be positive")
        if self.degraded_reset <= 0:
            raise ValueError("degraded_reset must be positive")


class _Batch:
    """One open micro-batch: items plus the pending flush timer."""

    __slots__ = ("engine", "kind", "spans", "items", "timer")

    def __init__(self, engine: CompiledSpanner, kind: str, spans: bool) -> None:
        self.engine = engine
        self.kind = kind
        self.spans = spans
        # (doc_id, text, future) per document, in arrival order.
        self.items: list[tuple[str, str, asyncio.Future]] = []
        self.timer: asyncio.TimerHandle | None = None


def _request_kind(request: SpanRequest) -> str:
    return "matches" if request.mode == EVALUATE else "extract"


class Dispatcher:
    """Routes parsed requests onto shared engines and batched executors."""

    def __init__(
        self,
        config: DispatcherConfig | None = None,
        metrics: Metrics | None = None,
        cache: SpannerCache | None = None,
    ) -> None:
        self.config = config if config is not None else DispatcherConfig()
        self.metrics = metrics if metrics is not None else Metrics()
        # NB: `cache or SpannerCache()` would silently replace an *empty*
        # cache — SpannerCache defines __len__, so empty means falsy.
        self.cache = cache if cache is not None else SpannerCache()
        self.artifacts = None
        if self.config.artifact_dir:
            from repro.service.artifact_store import ArtifactStore

            self.artifacts = ArtifactStore(self.config.artifact_dir)
            self.cache.attach_artifacts(self.artifacts)
        elif getattr(self.cache, "artifacts", None) is not None:
            self.artifacts = self.cache.artifacts
        self._loop: asyncio.AbstractEventLoop | None = None
        self._compile_pool: ThreadPoolExecutor | None = None
        # The execution seam: the primary backend serves batches, the
        # fallback (an in-process ThreadBackend, created lazily) takes
        # over while the primary is degraded.  An injected backend is
        # borrowed, never owned.
        self._backend: ExecutorBackend | None = None
        self._fallback: ThreadBackend | None = None
        self._backend_owned = True
        # In-flight compiles, keyed by (pattern, opt_level).  Resolved
        # engines live only in the SpannerCache — a loop-local mirror
        # would dodge the cache's capacity bound and make its stats (and
        # /healthz) lie about what is actually being served.
        self._compiles: dict[tuple[str, int | None], asyncio.Future] = {}
        self._batches: dict[tuple, _Batch] = {}
        self._batch_tasks: set[asyncio.Task] = set()
        self._pending = 0
        self._flush_immediately = False
        self._closed = False
        # Resilience: one compile breaker per (pattern, opt_level), the
        # degraded flag set when the worker pool exhausts its rebuild
        # budget, and the last-published counter totals (pool counters
        # are cumulative; /metrics counters only take deltas).
        self._breakers: "OrderedDict[tuple, CircuitBreaker]" = OrderedDict()
        self._degraded = False
        self._degraded_at: float | None = None
        self._published: dict[str, int] = {}

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._compile_pool = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-compile"
        )
        if self.config.backend is not None:
            self._backend = self.config.backend
            self._backend_owned = False
        elif self.config.workers >= 1:
            self._backend = ProcessBackend(
                self.config.workers,
                task_timeout=self.config.task_timeout,
                max_rebuilds=self.config.max_rebuilds,
            )
        else:
            # In-process serving: the primary backend *is* the fallback,
            # so degraded mode can never trigger (nothing to degrade to).
            self._fallback = ThreadBackend(self.config.inline_threads)
            self._backend = self._fallback

    @property
    def backend(self) -> "ExecutorBackend | None":
        """The primary execution backend (None before ``start()``)."""
        return self._backend

    @property
    def worker_pool(self):
        """The primary backend's WorkerPool, when it has one."""
        return getattr(self._backend, "pool", None)

    def _fallback_backend(self) -> ThreadBackend:
        """The in-process fallback — the degraded-mode target, created
        lazily when a non-thread server first needs it."""
        if self._fallback is None:
            self._fallback = ThreadBackend(self.config.inline_threads)
        return self._fallback

    def flush_all(self) -> None:
        """Flush every open batch now and every future batch on arrival.

        The first step of a graceful drain: request handlers still
        running may submit more documents, and those must not wait out a
        latency watermark the server no longer intends to honour.
        """
        self._flush_immediately = True
        for key in list(self._batches):
            self._flush(key)

    async def close(self) -> None:
        """Flush, wait for every in-flight batch, release the executors."""
        self.flush_all()
        while self._batch_tasks:
            await asyncio.gather(*list(self._batch_tasks), return_exceptions=True)
        self._closed = True
        if self._compile_pool is not None:
            self._compile_pool.shutdown(wait=False)
        if self._fallback is not None:
            self._fallback.close(wait=True)
        if (
            self._backend is not None
            and self._backend is not self._fallback
            and self._backend_owned
        ):
            self._backend.close(wait=True)

    # -- compilation (coalesced) ------------------------------------------------

    async def _coalesced(self, key: tuple, build):
        """Run ``build`` in the compile pool, coalescing concurrent callers.

        Every concurrent caller with the same ``key`` awaits one executor
        round-trip; the winner's result (or exception) fans out to all of
        them.  Resolved values are never memoised here — ``build`` is
        expected to consult its own bounded store (the
        :class:`~repro.service.cache.SpannerCache`, a query set's version
        memo), so the dispatcher cannot make that store's stats lie.
        """
        assert self._loop is not None, "Dispatcher.start() was never awaited"
        self.metrics.inc("repro_compile_requests_total")
        in_flight = self._compiles.get(key)
        if in_flight is not None:
            self.metrics.inc("repro_compiles_coalesced_total")
            return await asyncio.shield(in_flight)
        future: asyncio.Future = self._loop.create_future()
        self._compiles[key] = future
        started = time.perf_counter()
        try:
            result = await self._loop.run_in_executor(
                self._compile_pool, build
            )
        except BaseException as error:
            self._compiles.pop(key, None)
            future.set_exception(error)
            future.exception()  # consumed: waiters got theirs via shield
            raise
        self.metrics.observe(
            "repro_compile_seconds", time.perf_counter() - started
        )
        self._compiles.pop(key, None)
        future.set_result(result)
        return result

    def _breaker(self, key: tuple) -> CircuitBreaker:
        """The (bounded) compile breaker for one ``(pattern, opt_level)``."""
        breaker = self._breakers.get(key)
        if breaker is None:
            while len(self._breakers) >= _BREAKER_LIMIT:
                self._breakers.popitem(last=False)
            breaker = CircuitBreaker(
                failure_threshold=self.config.breaker_threshold,
                reset_timeout=self.config.breaker_reset,
            )
            self._breakers[key] = breaker
        return breaker

    async def engine(self, request: SpanRequest) -> CompiledSpanner:
        """The compiled engine for one request, compiling at most once.

        Raises whatever the planner raises on a bad pattern (the HTTP
        layer answers 400), or :class:`BreakerOpen` when the pattern's
        compile breaker is refusing work (the HTTP layer answers 422) —
        a pattern that keeps failing to compile under coalesced load
        fails fast instead of re-planning for every request.
        """
        assert self._loop is not None, "Dispatcher.start() was never awaited"
        if self.config.naive:
            # Ablation baseline: a fresh compile for every request.
            self.metrics.inc("repro_compile_requests_total")
            return await self._loop.run_in_executor(
                self._compile_pool,
                lambda: compile_spanner(request.pattern, request.opt_level),
            )
        breaker = self._breaker(request.key)
        if not breaker.allow():
            self.metrics.inc("repro_breaker_rejections_total")
            raise BreakerOpen(request.key, breaker.retry_after())

        def build() -> CompiledSpanner:
            faults.inject(faults.COMPILE)
            return self.cache.get(request.pattern, request.opt_level)

        try:
            engine = await self._coalesced(request.key, build)
        except Exception:
            breaker.record_failure()
            raise
        breaker.record_success()
        return engine

    async def compile_query_set(self, queryset):
        """The compiled snapshot of a query set, compiling at most once.

        The coalescing key carries the registry version, so a request that
        lands after a registration waits on (or starts) the new combined
        engine's compile while in-flight evaluations keep their snapshot.
        Even in naive mode the *compile* is coalesced — the query set's
        whole point is the shared engine — only caching/batching of the
        evaluation itself stays ablated.
        """
        return await self._coalesced(
            ("\x00queryset", id(queryset), queryset.version),
            queryset.compile,
        )

    # -- submission + batching ---------------------------------------------------

    def submit(
        self, engine: CompiledSpanner, request: SpanRequest
    ) -> list[asyncio.Future]:
        """Queue every document of a request; one future per document.

        Each future resolves to a ``(payload, error)`` pair.  Raises
        :class:`Overloaded` — queueing nothing — when the request would
        push the pending count past ``max_pending``.
        """
        return self.submit_documents(
            engine,
            request.documents,
            kind=_request_kind(request),
            spans=request.spans,
        )

    def submit_documents(
        self,
        engine: CompiledSpanner,
        documents,
        *,
        kind: str,
        spans: bool = False,
    ) -> list[asyncio.Future]:
        """Queue ``(doc_id, text)`` pairs onto ``engine``'s micro-batches.

        The endpoint-agnostic core of :meth:`submit` — ``/query`` submits
        its combined engine here with ``kind="mappings"`` so query-set
        documents share the queue accounting, shedding, and batching of
        the single-pattern endpoints.
        """
        assert self._loop is not None, "Dispatcher.start() was never awaited"
        if self._closed:
            raise RuntimeError("dispatcher is closed")
        documents = list(documents)
        count = len(documents)
        if count > self.config.max_pending:
            # Even an empty queue could never admit this request: a 429
            # retry loop would spin forever, so reject it outright.
            raise RequestTooLarge(
                f"{count} documents in one request exceeds the server's "
                f"queue capacity ({self.config.max_pending}); split the "
                f"request or use the corpus service"
            )
        if self._pending + count > self.config.max_pending:
            self.metrics.inc("repro_shed_total", count)
            raise Overloaded(
                f"{self._pending} documents pending (limit "
                f"{self.config.max_pending}); retry later"
            )
        self._pending += count
        self.metrics.inc("repro_documents_total", count)
        self.metrics.gauge("repro_queue_depth", self._pending)
        futures = []
        for doc_id, text in documents:
            futures.append(self._enqueue(engine, kind, spans, doc_id, text))
        return futures

    def _enqueue(
        self,
        engine: CompiledSpanner,
        kind: str,
        spans: bool,
        doc_id: str,
        text: str,
    ) -> asyncio.Future:
        future: asyncio.Future = self._loop.create_future()
        if self.config.naive:
            # One document, one executor round-trip, no shared state.
            task = self._loop.create_task(
                self._run_batch(
                    _Batch(engine, kind, spans), [(doc_id, text, future)]
                )
            )
            self._track(task)
            return future
        key = (id(engine), kind, spans)
        batch = self._batches.get(key)
        if batch is None:
            batch = _Batch(engine, kind, spans)
            self._batches[key] = batch
            if not self._flush_immediately and self.config.batch_max_delay > 0:
                batch.timer = self._loop.call_later(
                    self.config.batch_max_delay, self._flush, key
                )
        batch.items.append((doc_id, text, future))
        if (
            len(batch.items) >= self.config.batch_max_size
            or self._flush_immediately
            or self.config.batch_max_delay <= 0
        ):
            self._flush(key)
        return future

    def _flush(self, key: tuple) -> None:
        batch = self._batches.pop(key, None)
        if batch is None:
            return  # already flushed by the size watermark
        if batch.timer is not None:
            batch.timer.cancel()
        self.metrics.inc("repro_batches_total")
        self.metrics.observe("repro_batch_documents", len(batch.items))
        task = self._loop.create_task(self._run_batch(batch, batch.items))
        self._track(task)

    def _track(self, task: asyncio.Task) -> None:
        self._batch_tasks.add(task)
        self.metrics.gauge("repro_inflight_batches", len(self._batch_tasks))
        task.add_done_callback(self._untrack)

    def _untrack(self, task: asyncio.Task) -> None:
        self._batch_tasks.discard(task)
        self.metrics.gauge("repro_inflight_batches", len(self._batch_tasks))

    def _ready_backend(self) -> ExecutorBackend:
        """The backend that should serve this batch; degraded-mode
        bookkeeping (including timed revival probes) lives here."""
        backend = self._backend
        assert backend is not None, "Dispatcher.start() was never awaited"
        if backend is self._fallback or not self._degraded:
            return backend
        if (
            self._degraded_at is not None
            and time.monotonic() - self._degraded_at
            >= self.config.degraded_reset
        ):
            try:
                backend.revive()
            except RuntimeError:
                return self._fallback_backend()  # already shut down
            self._degraded = False
            self._degraded_at = None
            self.metrics.gauge("repro_degraded", 0)
            _LOGGER.warning("degraded period over; probing the %s backend", backend.name)
            return backend
        return self._fallback_backend()

    def _enter_degraded(self) -> None:
        if self._degraded:
            return
        self._degraded = True
        self._degraded_at = time.monotonic()
        self.metrics.gauge("repro_degraded", 1)
        _LOGGER.warning(
            "%s backend broken; serving on in-process threads (degraded) "
            "for %.3gs",
            self._backend.name if self._backend is not None else "primary",
            self.config.degraded_reset,
        )

    async def _run_batch(self, batch: _Batch, items: list) -> None:
        records = [(doc_id, text) for doc_id, text, _ in items]
        try:
            backend = self._ready_backend()
            try:
                triples = await asyncio.wrap_future(
                    backend.submit(
                        batch.engine,
                        records,
                        kind=batch.kind,
                        spans=batch.spans,
                    )
                )
            except PoolBroken:
                # Graceful degradation: answer this batch (and the
                # next ones, until the reset window passes) on the
                # in-process thread executor instead of failing it.
                if backend is self._fallback:
                    raise
                self._enter_degraded()
                triples = await asyncio.wrap_future(
                    self._fallback_backend().submit(
                        batch.engine,
                        records,
                        kind=batch.kind,
                        spans=batch.spans,
                    )
                )
            # Results come back in submission order.  Document ids are
            # only unique *within* one request — a batch spans many — so
            # matching must be positional, never by id.
            if len(triples) != len(items):
                raise RuntimeError(
                    f"batch returned {len(triples)} results for "
                    f"{len(items)} documents"
                )
            outcomes = [(payload, error) for _, payload, error in triples]
        except Exception as error:
            # The whole batch failed (e.g. a broken pool): report every
            # document rather than losing the requests.
            described = f"{type(error).__name__}: {error}"
            outcomes = [(None, described)] * len(items)
        finally:
            self._pending -= len(items)
            self.metrics.gauge("repro_queue_depth", self._pending)
        for (_, _, future), outcome in zip(items, outcomes):
            if not future.done():
                future.set_result(outcome)

    # -- introspection -----------------------------------------------------------

    def artifact_counters(self) -> dict[str, int]:
        """The dispatcher's artifact-store hit/miss/save/error counters."""
        if self.artifacts is None:
            return {}
        return self.artifacts.counters()

    def publish_artifact_metrics(self) -> None:
        """Refresh the ``repro_artifact_*`` gauges."""
        for key, value in self.artifact_counters().items():
            self.metrics.gauge(f"repro_artifact_{key}", value)

    @property
    def degraded(self) -> bool:
        """Whether batches are being served on the in-process fallback."""
        return self._degraded

    def breaker_states(self) -> dict[str, int]:
        """How many compile breakers sit in each state right now."""
        counts = {
            CircuitBreaker.CLOSED: 0,
            CircuitBreaker.OPEN: 0,
            CircuitBreaker.HALF_OPEN: 0,
        }
        for breaker in list(self._breakers.values()):
            counts[breaker.state] += 1
        return counts

    def resilience_stats(self) -> dict[str, object]:
        """Pool liveness + breaker summary for ``/healthz`` and tests."""
        stats: dict[str, object] = {
            "degraded": self._degraded,
            "breakers": self.breaker_states(),
        }
        pool = self.worker_pool
        if pool is not None:
            stats["pool"] = pool.resilience()
        return stats

    def publish_resilience_metrics(self) -> None:
        """Refresh the resilience counters and gauges on ``/metrics``.

        The pool's counters are cumulative, Prometheus counters only go
        up by deltas — so each publication increments by the growth
        since the last one.
        """
        pool = self.worker_pool
        if pool is not None:
            resilience = pool.resilience()
            for metric, key in (
                ("repro_worker_restarts_total", "restarts"),
                ("repro_task_retries_total", "retries"),
                ("repro_tasks_timeout_total", "timeouts"),
            ):
                total = int(resilience[key])
                published = self._published.get(metric, 0)
                if total > published:
                    self.metrics.inc(metric, total - published)
                self._published[metric] = max(total, published)
        for state, count in self.breaker_states().items():
            self.metrics.gauge("repro_breaker_state", count, state=state)
        self.metrics.gauge("repro_degraded", 1 if self._degraded else 0)

    def stats(self) -> dict[str, object]:
        """A live snapshot for ``/healthz`` and tests."""
        snapshot: dict[str, object] = {
            "pending_documents": self._pending,
            "inflight_batches": len(self._batch_tasks),
            "open_batches": len(self._batches),
            "cache": self.cache.stats(),
            "workers": self.config.workers,
            "naive": self.config.naive,
            "resilience": self.resilience_stats(),
        }
        if self._backend is not None:
            snapshot["backend"] = self._backend.name
        if self.artifacts is not None:
            snapshot["artifacts"] = self.artifact_counters()
        pool = self.worker_pool
        if pool is not None:
            snapshot["worker_stats"] = pool.stats()
        return snapshot
