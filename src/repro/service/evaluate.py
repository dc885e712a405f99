"""Corpus evaluation: one spanner over many documents, optionally parallel.

:func:`evaluate_corpus` is the service layer's main entry point.  It
compiles the spanner once (through the process-wide
:class:`~repro.service.cache.SpannerCache`), shards the corpus into chunks,
and evaluates them either serially or across a :class:`WorkerPool` — each
worker process compiles its own engine once from the pickled automaton
(memoised by fingerprint, so one pool can serve many spanners) and keeps
it for every chunk it receives, so the per-document cost matches the
serial batch path and the dominant overhead is shipping documents and
results.  The pickled automaton is the one way an engine reaches a
worker: it rides along with every batch as a once-pickled blob, and
warm workers never even unpickle it.  Keeping the
engine also keeps its bitmask kernel (:mod:`repro.engine.kernel`): the
flat lazy DFA and alphabet classes warm up on the first documents and
are shared across the worker's whole batch.

Results stream back as :class:`CorpusResult` records:

* **ordered mode** (default) — results arrive in corpus order, byte-for-byte
  identical across worker counts (the contract benchmark E20 checks);
* **as-completed mode** (``ordered=False``) — results arrive as shards
  finish, minimising latency to first result on skewed corpora.

Failures are isolated per document: an evaluation error (or a poisoned
chunk) produces a :class:`CorpusResult` with ``error`` set and never
aborts the run, so one bad document in a million-document corpus costs
exactly one error record.

>>> results = list(extract_corpus(".*x{a+}.*", ["ba", "aa"]))
>>> [(r.doc_id, sorted(record["x"] for record in r.mappings))
...  for r in results]
[('doc-00000', ['a']), ('doc-00001', ['a', 'a', 'aa'])]
"""

from __future__ import annotations

import itertools
import logging
import os
import pickle
import signal
import threading
import time
import weakref
from collections import OrderedDict, deque
from collections.abc import Iterator, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    InvalidStateError,
    ProcessPoolExecutor,
    TimeoutError as FuturesTimeoutError,
    wait,
)
from dataclasses import dataclass

from repro.engine.compiled import CompiledSpanner
from repro.service import faults
from repro.service.cache import cached_spanner
from repro.service.corpus import Corpus, CorpusRecord, as_corpus
from repro.service.resilience import PoolBroken, RetryPolicy, task_timeout_from_env
from repro.spans.mapping import Mapping
from repro.util.errors import CorpusError

_LOGGER = logging.getLogger("repro.service")

#: Documents shipped to a worker per task.  Small enough to keep all
#: workers busy on modest corpora, large enough to amortise IPC.
DEFAULT_CHUNK_SIZE = 8

#: Chunks in flight per worker; bounds memory on unbounded corpora.
_BACKLOG_PER_WORKER = 2

#: Consecutive executor rebuilds (no successful batch in between) a pool
#: tolerates before declaring itself failed (:class:`PoolBroken`).
DEFAULT_MAX_REBUILDS = 5


@dataclass(frozen=True)
class CorpusResult:
    """The outcome of evaluating one document of a corpus.

    Exactly one of ``mappings`` / ``error`` is set: ``mappings`` is the
    document's output set ``⟦A⟧_d`` (or decoded dictionaries when produced
    by :func:`extract_corpus`), ``error`` a one-line description of why the
    document could not be evaluated.
    """

    doc_id: str
    mappings: "frozenset[Mapping] | tuple | None"
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def __repr__(self) -> str:
        if self.error is not None:
            return f"CorpusResult({self.doc_id!r}, error={self.error!r})"
        return f"CorpusResult({self.doc_id!r}, {len(self.mappings)} mappings)"


# -- worker-process state ---------------------------------------------------
#
# Each worker keeps a bounded table of compiled engines keyed by automaton
# fingerprint.  The first batch for a spanner compiles it (from the pickled
# VA shipped with the batch); every later batch for the same fingerprint —
# whether from the same corpus run or, under the online server, from a
# completely different request — reuses the warm engine, so document
# indexes, Eval verdicts, and the kernel's lazy DFA accumulate in the
# worker exactly as they do serially.

#: Distinct engines a worker keeps warm (LRU); the online server can route
#: many patterns through one pool.
_WORKER_ENGINE_LIMIT = 32

_WORKER_ENGINES: "OrderedDict[str, CompiledSpanner]" = OrderedDict()


def _worker_init() -> None:
    """Process-pool initializer: arm the fault registry in the worker."""
    # Spawn-started workers parse the fault environment themselves;
    # fork-started ones re-parse so faults armed after the parent first
    # imported the registry still take effect.
    faults.reload()
    faults.inject(faults.WORKER_BOOT)


def _worker_engine(fingerprint: str, automaton_blob: bytes) -> CompiledSpanner:
    """The warm engine for ``fingerprint``, else one built from the blob."""
    engine = _WORKER_ENGINES.get(fingerprint)
    if engine is None:
        if len(_WORKER_ENGINES) >= _WORKER_ENGINE_LIMIT:
            _WORKER_ENGINES.popitem(last=False)
        engine = CompiledSpanner(pickle.loads(automaton_blob))
        _WORKER_ENGINES[fingerprint] = engine
    else:
        _WORKER_ENGINES.move_to_end(fingerprint)
    return engine


def _describe(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def _settle_result(future: Future, result) -> None:
    """``set_result`` that tolerates an already-settled/cancelled future."""
    try:
        future.set_result(result)
    except InvalidStateError:
        pass


def _settle_exception(future: Future, error: BaseException) -> None:
    try:
        future.set_exception(error)
    except InvalidStateError:
        pass


def _evaluate_one(
    engine: CompiledSpanner, doc_id: str, text, decode: bool, spans: bool
):
    """One document → one ``(doc_id, payload, error)`` triple.

    The single definition of per-document evaluation and error isolation,
    shared verbatim by the serial path and the worker processes — which is
    what keeps ``workers=1`` and ``workers=N`` byte-identical.
    """
    try:
        if decode:
            payload: object = tuple(engine.extract(text, spans=spans))
        else:
            payload = frozenset(engine.mappings(text))
        return (doc_id, payload, None)
    except Exception as error:  # isolation: one bad document, one record
        return (doc_id, None, _describe(error))


def evaluate_records(
    engine: CompiledSpanner, records, kind: str = "mappings", spans: bool = False
):
    """Evaluate records on one engine; per-document errors become triples.

    ``kind`` selects the per-document payload: ``"mappings"`` (the frozen
    output set), ``"extract"`` (decoded dictionaries), or ``"matches"``
    (the boolean NonEmp verdict the server's ``/evaluate`` returns).  The
    single definition of batch semantics, shared by the worker processes
    and the online server's in-process executor.

    Batches take the vector layer when available: ``"matches"`` resolves
    verdicts through one lockstep forward sweep
    (:meth:`~repro.engine.compiled.CompiledSpanner.matches_many`), the
    other kinds pre-warm the per-document indexes in lockstep chunks
    (:meth:`~repro.engine.compiled.CompiledSpanner.prewarm`) before the
    per-document pass.  Verdicts, mappings, and error isolation are
    identical either way.

    >>> from repro.engine.compiled import compile_spanner
    >>> evaluate_records(
    ...     compile_spanner("x{a}"), [("d0", "a")], kind="matches"
    ... )
    [('d0', True, None)]
    """
    records = list(records)
    if kind == "matches":
        if all(isinstance(text, str) for _, text in records):
            try:
                verdicts = engine.matches_many([text for _, text in records])
                return [
                    (doc_id, verdict, None)
                    for (doc_id, _), verdict in zip(records, verdicts)
                ]
            except Exception:
                pass  # isolate errors per document below
        results = []
        for doc_id, text in records:
            try:
                results.append((doc_id, engine.matches(text), None))
            except Exception as error:
                results.append((doc_id, None, _describe(error)))
        return results
    # Interleave prewarm and evaluation so batches wider than the
    # engine's index cache never evict an index before it is used.
    limit = getattr(engine, "prewarm_limit", len(records)) or len(records)
    results = []
    for start in range(0, len(records), limit):
        chunk = records[start : start + limit]
        engine.prewarm(text for _, text in chunk)
        results.extend(
            _evaluate_one(engine, doc_id, text, kind == "extract", spans)
            for doc_id, text in chunk
        )
    return results


def _evaluate_batch(
    fingerprint: str, automaton_blob: bytes, records, kind: str, spans: bool
):
    """One batch inside a worker process: warm engine lookup, then records.

    Returns ``(triples, (fingerprint, snapshot))``: alongside the result
    triples, each batch ships back a snapshot of the worker engine's
    cumulative kernel/cache counters, so the coordinating process can
    report merged ``--stats`` instead of silently showing only its own
    (cold) engine.  Counters are cumulative per worker engine, so the
    pool keeps only the *latest* snapshot per ``(pid, fingerprint)``.
    """
    faults.inject(faults.WORKER_KILL)
    faults.inject(faults.TASK_SLOW)
    faults.inject(faults.TASK_ERROR)
    faults.maybe_poison(records)
    engine = _worker_engine(fingerprint, automaton_blob)
    triples = evaluate_records(engine, records, kind, spans)
    snapshot = {
        "pid": os.getpid(),
        "kernel": engine.kernel_stats(),
        "cache": engine.cache_stats(),
    }
    return triples, (fingerprint, snapshot)


class WorkerPool:
    """A persistent process pool whose workers keep engines warm per spanner.

    The reusable substrate under both :func:`evaluate_corpus` and the
    online server (:mod:`repro.server`): batches of ``(doc_id, text)``
    records are shipped to worker processes together with the automaton
    and its fingerprint, and each worker memoises compiled engines by
    fingerprint (LRU of :data:`_WORKER_ENGINE_LIMIT`), so consecutive
    batches for the same spanner — no matter which request or corpus run
    they came from — hit a warm kernel.

    >>> from repro.engine.compiled import compile_spanner
    >>> with WorkerPool(2) as pool:
    ...     future = pool.submit(
    ...         compile_spanner(".*x{a+}.*"), [("d0", "ba")], kind="extract"
    ...     )
    ...     future.result()
    [('d0', ({'x': 'a'},), None)]
    """

    def __init__(
        self,
        workers: int,
        task_timeout: "float | None" = None,
        retry: "RetryPolicy | None" = None,
        max_rebuilds: int = DEFAULT_MAX_REBUILDS,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if task_timeout is None:
            task_timeout = task_timeout_from_env()
        elif task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        if max_rebuilds < 0:
            raise ValueError("max_rebuilds must be >= 0")
        self._workers = workers
        self._task_timeout = task_timeout
        self._retry = retry if retry is not None else RetryPolicy.from_env()
        self._max_rebuilds = max_rebuilds
        # Resilience state: the executor is *replaceable* — a broken or
        # hung pool is reaped and respawned under _pool_lock, and the
        # generation counter makes sure each broken executor is rebuilt
        # exactly once no matter how many in-flight batches observed the
        # same failure.
        self._pool_lock = threading.RLock()
        self._generation = 0
        self._restarts = 0
        self._retries = 0
        self._timeouts = 0
        self._consecutive_rebuilds = 0
        self._failed = False
        self._closed = False
        self._last_restart: float | None = None
        self._timers: "dict[threading.Timer, Future | None]" = {}
        self._pool = self._spawn_executor()
        # The automaton is serialised once per engine, not once per batch
        # (workers only unpickle it on an engine-cache miss anyway).
        self._blobs: "weakref.WeakKeyDictionary[CompiledSpanner, bytes]" = (
            weakref.WeakKeyDictionary()
        )
        # Latest cumulative counter snapshot per (pid, fingerprint); see
        # _evaluate_batch.  Guarded: done-callbacks run on executor threads.
        self._stats_lock = threading.Lock()
        self._worker_stats: dict[tuple[int, str], dict] = {}

    @property
    def workers(self) -> int:
        return self._workers

    def _automaton_blob(self, engine: CompiledSpanner) -> bytes:
        blob = self._blobs.get(engine)
        if blob is None:
            blob = pickle.dumps(
                engine.automaton, protocol=pickle.HIGHEST_PROTOCOL
            )
            self._blobs[engine] = blob
        return blob

    def _spawn_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self._workers, initializer=_worker_init
        )

    @property
    def failed(self) -> bool:
        """Whether the rebuild budget is exhausted (see :meth:`revive`)."""
        with self._pool_lock:
            return self._failed

    def worker_pids(self) -> "list[int]":
        """Pids of the live worker processes (empty before the first task)."""
        with self._pool_lock:
            pool = self._pool
        if pool is None:
            return []
        return list(getattr(pool, "_processes", None) or {})

    def submit(
        self,
        engine: CompiledSpanner,
        records: "Sequence[CorpusRecord]",
        *,
        kind: str = "mappings",
        spans: bool = False,
    ) -> Future:
        """Ship one batch; resolves to ``(doc_id, payload, error)`` triples.

        Worker death (``BrokenProcessPool``) and blown deadlines never
        surface here: the pool rebuilds its executor and requeues the
        batch with bounded, backed-off retries; a batch that breaks the
        pool twice is bisected down to per-document granularity so one
        poison document costs one error record.  Only
        :class:`~repro.service.resilience.PoolBroken` (rebuild budget
        exhausted) and deterministic task errors reach the caller.
        """
        if kind not in ("mappings", "extract", "matches"):
            raise ValueError(f"unknown batch kind {kind!r}")
        with self._pool_lock:
            if self._failed:
                raise PoolBroken("worker pool rebuild budget exhausted")
            if self._closed:
                raise RuntimeError("cannot submit to a shut-down WorkerPool")
        outer: Future = Future()
        task = {
            "records": list(records),
            "kind": kind,
            "spans": spans,
            "attempt": 0,
            "breaks": 0,
        }
        self._dispatch(engine, task, outer)
        return outer

    def _dispatch(self, engine: CompiledSpanner, task: dict, outer: Future) -> None:
        """One attempt: submit to the current executor, arm the deadline."""
        with self._pool_lock:
            if self._closed:
                _settle_exception(outer, PoolBroken("worker pool shut down"))
                return
            if self._failed or self._pool is None:
                _settle_exception(
                    outer, PoolBroken("worker pool rebuild budget exhausted")
                )
                return
            generation = self._generation
            pool = self._pool
        try:
            inner = pool.submit(
                _evaluate_batch,
                engine.fingerprint,
                self._automaton_blob(engine),
                list(task["records"]),
                task["kind"],
                task["spans"],
            )
        except BrokenExecutor:
            self._rebuild(generation)
            self._retry_or_fail(engine, task, outer, "worker process died")
            return
        except RuntimeError as error:  # shutdown raced the submit
            _settle_exception(outer, PoolBroken(str(error)))
            return
        # Exactly one of the deadline timer and the done-callback settles
        # this attempt; the flag is flipped under the lock so the loser
        # becomes a no-op instead of double-retrying.
        state = {"settled": False}
        attempt_lock = threading.Lock()
        timer: "threading.Timer | None" = None

        def _deadline() -> None:
            with attempt_lock:
                if state["settled"]:
                    return
                state["settled"] = True
            self._discard_timer(timer)
            with self._pool_lock:
                self._timeouts += 1
            _LOGGER.warning(
                "batch of %d documents missed its %.3gs deadline; "
                "reclaiming workers",
                len(task["records"]),
                self._task_timeout,
            )
            inner.cancel()
            self._rebuild(generation)
            self._retry_or_fail(engine, task, outer, "task deadline exceeded")

        if self._task_timeout is not None:
            timer = threading.Timer(self._task_timeout, _deadline)
            timer.daemon = True
            self._track_timer(timer)
            timer.start()

        def _on_done(done: Future) -> None:
            with attempt_lock:
                if state["settled"]:
                    return
                state["settled"] = True
            if timer is not None:
                timer.cancel()
                self._discard_timer(timer)
            if done.cancelled():
                outer.cancel()
                return
            error = done.exception()
            if error is None:
                triples, (fingerprint, snapshot) = done.result()
                with self._stats_lock:
                    self._worker_stats[(snapshot["pid"], fingerprint)] = snapshot
                with self._pool_lock:
                    self._consecutive_rebuilds = 0
                _settle_result(outer, triples)
                return
            if isinstance(error, BrokenExecutor):
                self._rebuild(generation)
                self._retry_or_fail(engine, task, outer, "worker process died")
                return
            # Deterministic task failure: pass through unchanged (the
            # corpus loop turns it into per-document error records).
            _settle_exception(outer, error)

        inner.add_done_callback(_on_done)

    def _retry_or_fail(
        self, engine: CompiledSpanner, task: dict, outer: Future, reason: str
    ) -> None:
        task["breaks"] += 1
        with self._pool_lock:
            failed, closed = self._failed, self._closed
        if failed or closed:
            _settle_exception(
                outer,
                PoolBroken(
                    "worker pool rebuild budget exhausted"
                    if failed
                    else "worker pool shut down"
                ),
            )
            return
        records = task["records"]
        if task["breaks"] >= 2:
            # Twice is enemy action: bisect the batch down to the poison
            # document — in quarantine (a dedicated one-worker executor),
            # so probing can neither break the shared pool again nor be
            # framed by other batches breaking it.
            self._quarantine(engine, task, outer)
            return
        if task["attempt"] >= self._retry.max_retries:
            described = f"WorkerCrash: {reason} (retry budget exhausted)"
            _settle_result(
                outer, [(doc_id, None, described) for doc_id, _ in records]
            )
            return
        task["attempt"] += 1
        with self._pool_lock:
            self._retries += 1
        delay = self._retry.backoff(task["attempt"])
        _LOGGER.warning(
            "requeueing batch of %d documents in %.3gs (attempt %d; %s)",
            len(records),
            delay,
            task["attempt"],
            reason,
        )
        self._schedule_retry(delay, engine, task, outer)

    def _quarantine(self, engine: CompiledSpanner, task: dict, outer: Future) -> None:
        """Bisect a pool-breaking batch on a dedicated one-worker executor.

        Runs in a daemon thread: each probe ships a sub-batch to a fresh
        single-worker pool, so a poison document kills only its probe —
        the shared pool keeps serving every other batch — and collateral
        breaks of the shared pool cannot implicate innocent documents.
        Bisection converges geometrically to exactly the documents that
        reproducibly kill (or hang) a worker; everything else in the
        batch yields its normal result.
        """
        _LOGGER.warning(
            "bisecting batch of %d documents in quarantine after "
            "repeated pool breaks",
            len(task["records"]),
        )

        def probe(records) -> list:
            triples = self._probe_once(
                engine, records, task["kind"], task["spans"]
            )
            if triples is not None:
                return triples
            if len(records) == 1:
                doc_id = records[0][0]
                _LOGGER.warning("isolating poison document %r", doc_id)
                return [
                    (
                        doc_id,
                        None,
                        "WorkerCrash: document reproducibly kills its "
                        "worker (isolated)",
                    )
                ]
            mid = len(records) // 2
            return probe(records[:mid]) + probe(records[mid:])

        def run() -> None:
            try:
                _settle_result(outer, probe(task["records"]))
            except BaseException as error:  # pragma: no cover - safety net
                _settle_exception(outer, error)

        threading.Thread(
            target=run, name="repro-quarantine", daemon=True
        ).start()

    def _probe_once(self, engine, records, kind: str, spans: bool):
        """One quarantined attempt; ``None`` when the probe pool broke/hung."""
        probe_pool = ProcessPoolExecutor(max_workers=1, initializer=_worker_init)
        try:
            future = probe_pool.submit(
                _evaluate_batch,
                engine.fingerprint,
                self._automaton_blob(engine),
                list(records),
                kind,
                spans,
            )
            try:
                triples, (fingerprint, snapshot) = future.result(
                    timeout=self._task_timeout
                )
            except BrokenExecutor:
                return None
            except FuturesTimeoutError:
                with self._pool_lock:
                    self._timeouts += 1
                return None
            except Exception as error:
                described = _describe(error)
                return [(doc_id, None, described) for doc_id, _ in records]
            with self._stats_lock:
                self._worker_stats[(snapshot["pid"], fingerprint)] = snapshot
            return triples
        finally:
            self._reap(probe_pool)

    def _rebuild(self, generation: int) -> None:
        """Replace the executor after a break; reap the old processes."""
        with self._pool_lock:
            if self._closed or self._failed:
                return
            if generation != self._generation:
                return  # this broken executor was already replaced
            old = self._pool
            self._generation += 1
            self._restarts += 1
            self._consecutive_rebuilds += 1
            self._last_restart = time.time()
            if self._consecutive_rebuilds > self._max_rebuilds:
                self._failed = True
                self._pool = None
                _LOGGER.error(
                    "worker pool failed after %d consecutive rebuilds; "
                    "callers degrade to in-process execution",
                    self._max_rebuilds,
                )
            else:
                self._pool = self._spawn_executor()
                _LOGGER.warning(
                    "worker pool rebuilt (restart #%d, %d/%d consecutive)",
                    self._restarts,
                    self._consecutive_rebuilds,
                    self._max_rebuilds,
                )
        if old is not None:
            self._reap(old)

    @staticmethod
    def _reap(old: ProcessPoolExecutor) -> None:
        # A hung worker never drains the call queue, so a plain shutdown
        # could block forever: kill the processes first, then release the
        # executor's threads/queues without waiting.
        for pid in list(getattr(old, "_processes", None) or {}):
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError, OSError):
                pass
        old.shutdown(wait=False, cancel_futures=True)

    def revive(self) -> None:
        """Reset a failed pool: fresh executor, fresh rebuild budget."""
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("cannot revive a shut-down WorkerPool")
            if not self._failed:
                return
            self._failed = False
            self._consecutive_rebuilds = 0
            self._generation += 1
            self._pool = self._spawn_executor()
            _LOGGER.warning("worker pool revived after degraded period")

    def resilience(self) -> dict:
        """Cumulative fault-handling counters and liveness state."""
        with self._pool_lock:
            return {
                "restarts": self._restarts,
                "retries": self._retries,
                "timeouts": self._timeouts,
                "consecutive_rebuilds": self._consecutive_rebuilds,
                "max_rebuilds": self._max_rebuilds,
                "failed": self._failed,
                "last_restart": self._last_restart,
                "task_timeout": self._task_timeout,
            }

    def _track_timer(self, timer: threading.Timer, outer: "Future | None" = None) -> None:
        with self._pool_lock:
            self._timers[timer] = outer

    def _discard_timer(self, timer: "threading.Timer | None") -> None:
        if timer is None:
            return
        with self._pool_lock:
            self._timers.pop(timer, None)

    def _schedule_retry(
        self, delay: float, engine: CompiledSpanner, task: dict, outer: Future
    ) -> None:
        def _fire() -> None:
            self._discard_timer(timer)
            self._dispatch(engine, task, outer)

        with self._pool_lock:
            if self._closed:
                _settle_exception(outer, PoolBroken("worker pool shut down"))
                return
            timer = threading.Timer(delay, _fire)
            timer.daemon = True
            self._timers[timer] = outer
        timer.start()

    def stats(self, fingerprint: str | None = None) -> dict:
        """Summed worker-side kernel/cache counters (latest per worker).

        Restricted to one engine when ``fingerprint`` is given; empty
        component dictionaries when no worker has reported yet.
        """
        with self._stats_lock:
            snapshots = [
                snapshot
                for (pid, fp), snapshot in self._worker_stats.items()
                if fingerprint is None or fp == fingerprint
            ]
        kernel: dict[str, int] = {}
        cache: dict[str, int] = {}
        for snapshot in snapshots:
            for target, source in ((kernel, "kernel"), (cache, "cache")):
                for key, value in snapshot[source].items():
                    target[key] = target.get(key, 0) + value
        return {
            "workers": len({snapshot["pid"] for snapshot in snapshots}),
            "kernel": kernel,
            "cache": cache,
            # Always empty: workers build engines from the pickled
            # automaton.  Kept because benchmarks/e2e/replay.py reads both.
            "artifacts": {},
            "shm": {},
            "resilience": self.resilience(),
        }

    def shutdown(self, wait: bool = True) -> None:
        with self._pool_lock:
            self._closed = True
            timers = list(self._timers.items())
            self._timers.clear()
            pool = self._pool
        for timer, outer in timers:
            timer.cancel()
            if outer is not None:
                _settle_exception(outer, PoolBroken("worker pool shut down"))
        if pool is not None:
            pool.shutdown(wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return f"WorkerPool({self._workers} workers)"


def _unique_records(corpus: Corpus) -> Iterator[CorpusRecord]:
    """Stream corpus records, rejecting duplicate ids as they appear."""
    seen: set[str] = set()
    for doc_id, text in corpus:
        if doc_id in seen:
            raise CorpusError(f"duplicate document id {doc_id!r}")
        seen.add(doc_id)
        yield doc_id, text


def _chunked(records: Iterator[CorpusRecord], size: int) -> Iterator[list[CorpusRecord]]:
    while chunk := list(itertools.islice(records, size)):
        yield chunk


def _serial(engine: CompiledSpanner, records, decode: bool, spans: bool):
    for doc_id, text in records:
        yield CorpusResult(*_evaluate_one(engine, doc_id, text, decode, spans))


def _parallel(
    engine: CompiledSpanner,
    chunks: Iterator[list[CorpusRecord]],
    workers: int,
    ordered: bool,
    decode: bool,
    spans: bool,
    on_worker_stats=None,
    task_timeout: "float | None" = None,
    pool: "WorkerPool | None" = None,
    backend=None,
) -> Iterator[CorpusResult]:
    kind = "extract" if decode else "mappings"
    # Local import: repro.service.backend imports this module.
    from repro.service.backend import ProcessBackend

    owned = backend is None and pool is None
    if backend is None:
        backend = (
            ProcessBackend(pool=pool)
            if pool is not None
            else ProcessBackend(workers, task_timeout=task_timeout)
        )
    degraded = False
    # ``(future, chunk)`` in flight; a ``None`` future marks a chunk that
    # will be evaluated in-process (degraded mode) when its turn comes —
    # keeping it in the deque preserves corpus order in ordered mode.
    pending: "deque[tuple[Future | None, list[CorpusRecord]]]" = deque()

    def note_degraded() -> None:
        nonlocal degraded
        if not degraded:
            degraded = True
            _LOGGER.warning(
                "worker pool unavailable; evaluating remaining corpus "
                "chunks in-process"
            )

    def submit_next() -> bool:
        chunk = next(chunks, None)
        if chunk is None:
            return False
        if not degraded:
            try:
                pending.append(
                    (
                        backend.submit(engine, chunk, kind=kind, spans=spans),
                        chunk,
                    )
                )
                return True
            except PoolBroken:
                note_degraded()
        pending.append((None, chunk))
        return True

    try:
        backlog = max(1, backend.parallelism) * _BACKLOG_PER_WORKER
        for _ in range(backlog):
            if not submit_next():
                break
        while pending:
            if ordered:
                future, chunk = pending.popleft()
            else:
                position = next(
                    (
                        i
                        for i, (f, _) in enumerate(pending)
                        if f is None or f.done()
                    ),
                    None,
                )
                if position is None:
                    wait(
                        {f for f, _ in pending if f is not None},
                        return_when=FIRST_COMPLETED,
                    )
                    position = next(
                        i for i, (f, _) in enumerate(pending) if f.done()
                    )
                future, chunk = pending[position]
                del pending[position]
            error = future.exception() if future is not None else None
            submit_next()
            if future is None or isinstance(error, PoolBroken):
                # Graceful degradation: the pool is gone — evaluate this
                # chunk (and every later one) on the caller's own engine,
                # same per-document semantics, no documents lost.
                note_degraded()
                yield from _serial(engine, chunk, decode, spans)
                continue
            if error is not None:
                # The whole shard failed (e.g. unpicklable results): report
                # every document of the chunk rather than aborting the run.
                described = _describe(error)
                for doc_id, _ in chunk:
                    yield CorpusResult(doc_id, None, described)
                continue
            for doc_id, payload, problem in future.result():
                yield CorpusResult(doc_id, payload, problem)
        if on_worker_stats is not None:
            on_worker_stats(backend.stats(engine.fingerprint))
    finally:
        if owned:
            backend.close()


def evaluate_corpus(
    spanner,
    corpus,
    *,
    workers: int = 1,
    ordered: bool = True,
    chunk_size: int | None = None,
    on_worker_stats=None,
    task_timeout: "float | None" = None,
    pool: "WorkerPool | None" = None,
    backend=None,
    _decode: bool = False,
    _spans: bool = False,
) -> Iterator[CorpusResult]:
    """Evaluate one spanner over every document of a corpus.

    ``spanner`` is anything :func:`~repro.engine.compiled.compile_spanner`
    accepts; ``corpus`` anything :func:`~repro.service.corpus.as_corpus`
    accepts.  With ``workers > 1`` documents are sharded over a process
    pool in chunks of ``chunk_size``; with ``ordered=True`` (the default)
    results stream back in corpus order regardless of which worker
    finishes first.  Duplicate document ids raise
    :class:`~repro.util.errors.CorpusError`; evaluation failures are
    reported per document in the result stream.

    ``on_worker_stats``, if given, is called once after the last result —
    parallel runs pass the pool's summed worker-side kernel/cache counters
    (see :meth:`WorkerPool.stats`); serial runs skip the call, since the
    caller's own engine already carries the counters.

    Parallel runs are fault tolerant: a killed or hung worker rebuilds
    the pool and requeues its batches (``task_timeout`` arms a
    per-batch deadline, default ``REPRO_TASK_TIMEOUT``), and if the pool
    exhausts its rebuild budget the remaining documents are evaluated
    in-process — the result stream is identical either way.  ``pool``
    reuses a caller-owned :class:`WorkerPool` (and forces the parallel
    path) instead of spawning one per call; ``backend`` generalises that
    to any caller-owned :class:`~repro.service.backend.ExecutorBackend`
    (threads, processes, or a cluster of remote nodes — never closed by
    this function).

    >>> [r.doc_id for r in evaluate_corpus("x{a}", {"one": "a", "two": "b"})]
    ['one', 'two']
    >>> [len(r.mappings) for r in evaluate_corpus("x{a}", ["a", "b"])]
    [1, 0]
    >>> evaluate_corpus("x{a}", ["a"], workers=0)
    Traceback (most recent call last):
        ...
    ValueError: workers must be at least 1
    """
    # Validate eagerly — bad arguments raise here, at the call site, not
    # at the first iteration of the returned generator.
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if pool is not None and backend is not None:
        raise ValueError("pass at most one of pool= and backend=")
    engine = cached_spanner(spanner)
    records = _unique_records(as_corpus(corpus))

    def stream() -> Iterator[CorpusResult]:
        if workers == 1 and pool is None and backend is None:
            yield from _serial(engine, records, _decode, _spans)
            return
        chunks = _chunked(records, chunk_size or DEFAULT_CHUNK_SIZE)
        yield from _parallel(
            engine,
            chunks,
            workers,
            ordered,
            _decode,
            _spans,
            on_worker_stats,
            task_timeout,
            pool,
            backend,
        )

    return stream()


def extract_corpus(
    spanner,
    corpus,
    *,
    workers: int = 1,
    ordered: bool = True,
    spans: bool = False,
    chunk_size: int | None = None,
    on_worker_stats=None,
    task_timeout: "float | None" = None,
    pool: "WorkerPool | None" = None,
    backend=None,
) -> Iterator[CorpusResult]:
    """Like :func:`evaluate_corpus`, but with *decoded* per-document results.

    Each successful :class:`CorpusResult` carries a tuple of dictionaries —
    the engine's :meth:`~repro.engine.compiled.CompiledSpanner.extract`
    output (strings, or :class:`~repro.spans.span.Span` objects with
    ``spans=True``) — decoded inside the worker so the coordinating process
    never needs the document text back.

    >>> [r.mappings for r in extract_corpus(".*x{a+}.*", ["ba"])]
    [({'x': 'a'},)]
    """
    return evaluate_corpus(
        spanner,
        corpus,
        workers=workers,
        ordered=ordered,
        chunk_size=chunk_size,
        on_worker_stats=on_worker_stats,
        task_timeout=task_timeout,
        pool=pool,
        backend=backend,
        _decode=True,
        _spans=spans,
    )


def corpus_outputs(
    spanner, corpus, *, workers: int = 1
) -> "list[frozenset[Mapping]]":
    """The ordered mapping sets of a corpus (errors re-raised).

    The list-returning convenience mirroring
    :meth:`~repro.engine.compiled.CompiledSpanner.evaluate_many`, for
    callers who want batch semantics with corpus-level parallelism.

    >>> [len(out) for out in corpus_outputs(".*x{a+}.*", ["ba", "bb"])]
    [1, 0]
    """
    outputs = []
    for result in evaluate_corpus(spanner, corpus, workers=workers, ordered=True):
        if not result.ok:
            raise CorpusError(
                f"document {result.doc_id!r} failed: {result.error}"
            )
        outputs.append(result.mappings)
    return outputs
