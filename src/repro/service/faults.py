"""Deterministic fault injection for the service layer's chaos tests.

The resilience layer (:mod:`repro.service.resilience`) exists to survive
worker death, hung tasks, and broken caches — failure modes that almost
never happen on a developer laptop.  This module makes them happen on
demand, so the chaos suite (``pytest -m chaos``) and the CI smoke lanes
can exercise every recovery path deterministically.

Faults are armed through ``REPRO_FAULTS``, a comma-separated list of
``point:trigger`` entries::

    REPRO_FAULTS=worker_kill:0.1,artifact_load:2

Injection **points** name where the fault fires (each is checked by one
call site in the service layer):

===================  ==========================================================
``worker_boot``      raise in the worker-pool initializer (the pool breaks
                     before its first task)
``worker_kill``      SIGKILL the worker process at task entry (the classic
                     OOM-killer / preemption failure)
``task_error``       raise inside batch execution (a poisoned shard)
``task_slow``        sleep :data:`SLOW_SECONDS` at task entry (a hung worker,
                     for deadline tests)
``artifact_load``    fail the artifact-store load in the coordinating process
                     (a counted miss; the engine is compiled instead)
``compile``          raise in the server dispatcher's compile path (trips the
                     per-pattern circuit breaker)
===================  ==========================================================

**Triggers** say when an armed point fires:

* ``fail`` — every check fires;
* ``once`` — exactly one check fires;
* an integer ``N`` — the first ``N`` checks fire;
* a float in ``(0, 1)`` — that fraction of checks fires, chosen by a
  deterministic counter hash (same ``REPRO_FAULTS_SEED``, same sequence —
  no wall-clock or global RNG involved).

Counted triggers are per process by default.  Worker processes are
separate processes, and a freshly respawned worker would re-arm its
counter from zero — so chaos runs that must *converge* (kill N times,
then heal) set ``REPRO_FAULTS_STATE`` to a directory and the registry
counts fires in an append-only file shared by every process on the host.

A separate ``REPRO_FAULT_POISON=<token>`` knob marks any document whose
text contains the token as a *poison document*: the worker SIGKILLs
itself when a batch containing one arrives, which is how the chaos suite
drives the worker pool's batch-bisection path down to a single
per-document error record.

>>> registry = FaultRegistry.parse("artifact_load:2")
>>> [registry.should_fire("artifact_load") for _ in range(4)]
[True, True, False, False]
>>> registry.counters()["artifact_load"]
2
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
from contextlib import contextmanager

__all__ = [
    "ARTIFACT_LOAD",
    "COMPILE",
    "FaultRegistry",
    "InjectedFault",
    "SLOW_SECONDS",
    "TASK_ERROR",
    "TASK_SLOW",
    "WORKER_BOOT",
    "WORKER_KILL",
    "active",
    "counters",
    "inject",
    "injected",
    "maybe_poison",
    "registry",
    "reload",
]

#: Environment variable arming the registry (``point:trigger,…``).
FAULTS_ENV = "REPRO_FAULTS"
#: Seed for the deterministic probability triggers.
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"
#: Directory for cross-process fire counting (counted/once triggers).
FAULTS_STATE_ENV = "REPRO_FAULTS_STATE"
#: Substring marking poison documents (see :func:`maybe_poison`).
POISON_ENV = "REPRO_FAULT_POISON"

WORKER_BOOT = "worker_boot"
WORKER_KILL = "worker_kill"
TASK_ERROR = "task_error"
TASK_SLOW = "task_slow"
ARTIFACT_LOAD = "artifact_load"
COMPILE = "compile"

#: Points whose effect is killing the current process outright.
_KILL_POINTS = frozenset({WORKER_KILL})
#: Points whose effect is sleeping (deadline tests).
_SLEEP_POINTS = frozenset({TASK_SLOW})

#: How long a fired sleep point sleeps — far past any sane task deadline.
SLOW_SECONDS = 30.0


class InjectedFault(RuntimeError):
    """An error raised by a fired injection point (never in production:
    the registry is inert unless ``REPRO_FAULTS`` is set)."""

    def __init__(self, point: str) -> None:
        super().__init__(f"injected fault at {point!r}")
        self.point = point


class _Trigger:
    """One armed point's firing rule plus its local counter."""

    __slots__ = ("point", "rate", "budget", "checks", "fired")

    def __init__(self, point: str, rate: float | None, budget: int | None):
        self.point = point
        self.rate = rate        # probability triggers
        self.budget = budget    # counted triggers (None: unbounded)
        self.checks = 0
        self.fired = 0


def _parse_trigger(point: str, text: str) -> _Trigger:
    text = text.strip().lower()
    if text == "fail":
        return _Trigger(point, None, None)
    if text == "once":
        return _Trigger(point, None, 1)
    try:
        count = int(text)
    except ValueError:
        pass
    else:
        if count < 0:
            raise ValueError(f"fault {point!r}: negative count {count}")
        return _Trigger(point, None, count)
    try:
        rate = float(text)
    except ValueError:
        raise ValueError(
            f"fault {point!r}: trigger must be 'fail', 'once', a count, "
            f"or a probability — got {text!r}"
        ) from None
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"fault {point!r}: probability {rate} not in [0, 1]")
    return _Trigger(point, rate, None)


class FaultRegistry:
    """The armed injection points of one process (plus shared state files).

    Thread-safe; every check is O(1) and the registry with no armed
    points short-circuits immediately, so production call sites cost one
    attribute read.
    """

    def __init__(
        self,
        triggers: dict[str, _Trigger] | None = None,
        seed: int = 0,
        state_dir: str | None = None,
    ) -> None:
        self._triggers = triggers or {}
        self._seed = seed
        self._state_dir = state_dir
        self._lock = threading.Lock()

    @classmethod
    def parse(
        cls, text: str | None, seed: int = 0, state_dir: str | None = None
    ) -> "FaultRegistry":
        """A registry from ``point:trigger,…`` text (``None``/empty: inert)."""
        triggers: dict[str, _Trigger] = {}
        for entry in (text or "").split(","):
            entry = entry.strip()
            if not entry:
                continue
            point, colon, spec = entry.partition(":")
            point = point.strip()
            if not point or not colon:
                raise ValueError(
                    f"fault entry {entry!r}: expected 'point:trigger'"
                )
            triggers[point] = _parse_trigger(point, spec)
        return cls(triggers, seed=seed, state_dir=state_dir)

    @classmethod
    def from_env(cls, environ=None) -> "FaultRegistry":
        """The registry the environment describes (inert when unset)."""
        environ = os.environ if environ is None else environ
        try:
            seed = int(environ.get(FAULTS_SEED_ENV, "0") or "0")
        except ValueError:
            seed = 0
        return cls.parse(
            environ.get(FAULTS_ENV),
            seed=seed,
            state_dir=environ.get(FAULTS_STATE_ENV) or None,
        )

    @property
    def active(self) -> bool:
        return bool(self._triggers)

    # -- firing decisions --------------------------------------------------

    def _shared_count(self, point: str) -> int:
        """Record one check in the host-wide state file; returns its index.

        The file grows by one byte per check (``O_APPEND`` writes are
        atomic at this size), so its length *is* the cross-process check
        counter — no locking protocol between processes needed.
        """
        path = os.path.join(self._state_dir, f"{point}.fired")
        descriptor = os.open(
            path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            os.write(descriptor, b".")
            return os.fstat(descriptor).st_size - 1
        finally:
            os.close(descriptor)

    def should_fire(self, point: str) -> bool:
        """Check (and count) one pass over an injection point."""
        trigger = self._triggers.get(point)
        if trigger is None:
            return False
        with self._lock:
            index = trigger.checks
            trigger.checks += 1
        if trigger.budget is not None and self._state_dir:
            try:
                index = self._shared_count(point)
            except OSError:
                pass  # state dir unusable: per-process counting
        if trigger.budget is not None:
            fire = index < trigger.budget
        elif trigger.rate is not None:
            digest = hashlib.sha256(
                f"{self._seed}:{point}:{index}".encode()
            ).digest()
            fire = int.from_bytes(digest[:4], "big") / 2**32 < trigger.rate
        else:
            fire = True
        if fire:
            with self._lock:
                trigger.fired += 1
        return fire

    def inject(self, point: str) -> None:
        """Fire ``point``'s effect if its trigger says so.

        Kill points SIGKILL the current process, sleep points block for
        :data:`SLOW_SECONDS`, everything else raises
        :class:`InjectedFault`.  A miss (or an unarmed point) returns
        immediately.
        """
        if not self._triggers or not self.should_fire(point):
            return
        if point in _KILL_POINTS:
            os.kill(os.getpid(), signal.SIGKILL)
        if point in _SLEEP_POINTS:
            time.sleep(SLOW_SECONDS)
            return
        raise InjectedFault(point)

    def counters(self) -> dict[str, int]:
        """Fired count per armed point (this process's view)."""
        with self._lock:
            return {
                point: trigger.fired
                for point, trigger in self._triggers.items()
            }


# -- the process-wide registry ------------------------------------------------

_REGISTRY: FaultRegistry | None = None
_REGISTRY_LOCK = threading.Lock()


def registry() -> FaultRegistry:
    """The process-wide registry, lazily parsed from the environment."""
    global _REGISTRY
    if _REGISTRY is None:
        with _REGISTRY_LOCK:
            if _REGISTRY is None:
                _REGISTRY = FaultRegistry.from_env()
    return _REGISTRY


def reload() -> FaultRegistry:
    """Re-read the environment (worker initializers call this: a spawned
    worker must honour faults armed after the parent first imported us)."""
    global _REGISTRY
    with _REGISTRY_LOCK:
        _REGISTRY = FaultRegistry.from_env()
    return _REGISTRY


def active() -> bool:
    return registry().active


def inject(point: str) -> None:
    """Module-level :meth:`FaultRegistry.inject` on the process registry."""
    reg = _REGISTRY
    if reg is None:
        reg = registry()
    if reg.active:
        reg.inject(point)


def counters() -> dict[str, int]:
    return registry().counters()


@contextmanager
def injected(point: str, trigger: str, state_dir: str | None = None):
    """Arm one fault for the duration of a ``with`` block (programmatic API).

    Mutates ``REPRO_FAULTS`` in :data:`os.environ` — deliberately, so
    worker processes started inside the block inherit the fault — and
    restores the previous value (and re-parses) on exit.

    >>> with injected("compile", "once"):
    ...     try:
    ...         inject("compile")
    ...     except InjectedFault as fault:
    ...         print("fired:", fault.point)
    ...     inject("compile")  # budget spent: a no-op
    fired: compile
    >>> inject("compile")      # disarmed outside the block
    """
    saved = {
        FAULTS_ENV: os.environ.get(FAULTS_ENV),
        FAULTS_STATE_ENV: os.environ.get(FAULTS_STATE_ENV),
    }
    entries = [
        entry
        for entry in (saved[FAULTS_ENV] or "").split(",")
        if entry.strip() and not entry.strip().startswith(f"{point}:")
    ]
    entries.append(f"{point}:{trigger}")
    os.environ[FAULTS_ENV] = ",".join(entries)
    if state_dir is not None:
        os.environ[FAULTS_STATE_ENV] = state_dir
    reload()
    try:
        yield registry()
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        reload()


# -- poison documents ---------------------------------------------------------


def poison_token() -> str | None:
    """The poison-document token, or ``None`` when the knob is unset."""
    return os.environ.get(POISON_ENV) or None


def maybe_poison(records) -> None:
    """SIGKILL the current process when a batch carries a poison document.

    Called by the worker-side batch entry point: a batch containing a
    document whose text includes ``REPRO_FAULT_POISON`` kills the worker
    outright, every time — the deterministic stand-in for a document
    that reliably OOMs or segfaults a worker.  The pool's bisection then
    narrows the blast radius to exactly that document.
    """
    token = poison_token()
    if not token:
        return
    for _, text in records:
        if isinstance(text, str) and token in text:
            os.kill(os.getpid(), signal.SIGKILL)
