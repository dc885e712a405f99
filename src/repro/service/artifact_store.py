"""On-disk cache of compiled-engine artifacts, keyed by plan fingerprint.

:mod:`repro.engine.artifact` turns a compiled engine into one versioned,
checksummed byte blob; this module gives those blobs a home.  An
:class:`ArtifactStore` maps a post-plan automaton fingerprint to an
``.rpra`` file under a cache directory, so a fresh CLI invocation or a
restarted server can skip planning, table derivation, and kernel
construction entirely and mmap the finished engine instead.  The store
lives in the coordinating process only: worker-pool processes build
their engines from the pickled automaton shipped with each batch (see
:mod:`repro.service.evaluate`).

Layout (all under the store root)::

    v1/<fp[:2]>/<fingerprint>.rpra    the artifact blobs, fan-out by prefix
    v1/refs/<sha256(level\\x00pattern)>   pattern → fingerprint side-channel

The ``refs`` files let a *string* pattern resolve straight to its
artifact without parsing or planning: the ref name hashes the pattern
text together with the opt level, and its content is the fingerprint
hex.  Anything that is not a plain pattern string still has to plan
first (planning is cheap next to compilation) and then loads by
fingerprint.

Concurrency is first-insert-wins, the same discipline as the in-memory
:class:`~repro.service.cache.SpannerCache`: writers serialise into a
private temp file and publish it with :func:`os.link`, which is atomic
and fails with ``FileExistsError`` when another process got there first
— the loser just deletes its temp file.  Readers never see a partial
artifact, and the checksum inside the blob catches torn or corrupted
files anyway: every :class:`~repro.engine.artifact.ArtifactError` is
counted, the offending file is quarantined (unlinked), and the caller
falls back to recompiling.

>>> import tempfile
>>> from repro.engine.compiled import compile_spanner
>>> store = ArtifactStore(tempfile.mkdtemp())
>>> engine = compile_spanner(".*x{a+}.*")
>>> store.save(engine, opt_level=1, pattern=".*x{a+}.*")
True
>>> warm = store.load(engine.fingerprint)
>>> sorted(m["x"].begin for m in warm.mappings("baa"))
[2, 2, 3]
>>> store.resolve(".*x{a+}.*", 1) == engine.fingerprint
True
>>> store.stats()["hits"], store.stats()["saves"]
(1, 1)
"""

from __future__ import annotations

import hashlib
import mmap
import os
import threading

from repro.engine.artifact import (
    ArtifactError,
    artifact_meta,
    deserialize_engine,
    serialize_engine,
)
from repro.service import faults

__all__ = ["ArtifactStore", "default_artifact_root"]

#: Environment variable naming the cache directory, read when no
#: directory is given explicitly.
ARTIFACT_DIR_ENV = "REPRO_ARTIFACT_DIR"

_LAYOUT_VERSION = "v1"


def default_artifact_root() -> str:
    """The cache directory used when nothing more specific is configured.

    Respects ``XDG_CACHE_HOME`` when set, else ``~/.cache``.
    """
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-spanners", "artifacts")


class ArtifactStore:
    """Durable compiled engines under one directory, first-insert-wins.

    All methods are thread-safe and never raise on cache trouble: a
    missing, corrupt, or stale artifact is a miss (counted), and a
    failed save is an error (counted) — the caller always has the
    recompile path.
    """

    def __init__(self, root: str | None = None) -> None:
        if root is None:
            root = os.environ.get(ARTIFACT_DIR_ENV) or default_artifact_root()
        self._root = os.path.abspath(os.path.expanduser(str(root)))
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._saves = 0
        self._errors = 0

    # -- layout ------------------------------------------------------------

    @property
    def root(self) -> str:
        return self._root

    def artifact_path(self, fingerprint: str) -> str:
        """Where the artifact for ``fingerprint`` lives (may not exist)."""
        return os.path.join(
            self._root, _LAYOUT_VERSION, fingerprint[:2], f"{fingerprint}.rpra"
        )

    def _ref_path(self, pattern: str, opt_level: int) -> str:
        digest = hashlib.sha256(
            f"{opt_level}\x00{pattern}".encode()
        ).hexdigest()
        return os.path.join(self._root, _LAYOUT_VERSION, "refs", digest)

    # -- counters ----------------------------------------------------------

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def counters(self) -> dict[str, int]:
        """This process's hit/miss/save/error counters."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "saves": self._saves,
                "errors": self._errors,
            }

    # -- save --------------------------------------------------------------

    def save(self, engine, opt_level: int | None = None, pattern: str | None = None) -> bool:
        """Persist ``engine``; ``True`` when this call published the file.

        ``False`` means another writer already published an artifact for
        the same fingerprint (its bytes are equivalent — the format is
        deterministic given the engine) or the write failed (counted in
        ``errors``).  A ``pattern`` additionally records the
        pattern → fingerprint ref so later lookups skip planning.
        """
        fingerprint = engine.fingerprint
        final = self.artifact_path(fingerprint)
        published = False
        if not os.path.exists(final):
            try:
                blob = serialize_engine(
                    engine, opt_level=opt_level, expression=pattern
                )
                directory = os.path.dirname(final)
                os.makedirs(directory, exist_ok=True)
                temp = os.path.join(
                    directory,
                    f".{fingerprint}.{os.getpid()}.{threading.get_ident()}.tmp",
                )
                with open(temp, "wb") as handle:
                    handle.write(blob)
                try:
                    os.link(temp, final)  # atomic; loses to a faster writer
                    published = True
                finally:
                    os.unlink(temp)
            except FileExistsError:
                pass  # first-insert-wins: keep the other writer's file
            except OSError:
                self._count("_errors")
                return False
        if published:
            self._count("_saves")
        if pattern is not None:
            level = opt_level if opt_level is not None else -1
            self._save_ref(pattern, level, fingerprint)
        return published

    def _save_ref(self, pattern: str, opt_level: int, fingerprint: str) -> None:
        path = self._ref_path(pattern, opt_level)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            temp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
            with open(temp, "w", encoding="ascii") as handle:
                handle.write(fingerprint)
            os.replace(temp, path)  # refs are idempotent: last write fine
        except OSError:
            self._count("_errors")

    # -- load --------------------------------------------------------------

    def resolve(self, pattern: str, opt_level: int | None = None) -> str | None:
        """The fingerprint recorded for ``(pattern, opt_level)``, if any."""
        level = opt_level if opt_level is not None else -1
        try:
            with open(
                self._ref_path(pattern, level), encoding="ascii"
            ) as handle:
                fingerprint = handle.read().strip()
        except OSError:
            return None
        # A ref is only trustworthy while its artifact validates; a bogus
        # fingerprint fails there, never here.
        return fingerprint if len(fingerprint) == 64 else None

    def load(self, fingerprint: str):
        """The engine for ``fingerprint``, rebuilt zero-copy from its mmap.

        ``None`` on a miss.  A file that exists but fails validation —
        truncated, bit-flipped, written by a different format version,
        keyed under the wrong fingerprint — counts as an error *and* a
        miss, is quarantined, and returns ``None`` so the caller
        recompiles.
        """
        path = self.artifact_path(fingerprint)
        try:
            faults.inject(faults.ARTIFACT_LOAD)
        except faults.InjectedFault:
            self._count("_errors")
            self._count("_misses")
            return None
        try:
            with open(path, "rb") as handle:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):  # absent, unreadable, or empty
            self._count("_misses")
            return None
        try:
            # The memoryview slices taken by the ≤64-state fast path keep
            # the mapping alive for as long as the kernel does; we never
            # close it explicitly.
            engine = deserialize_engine(mapped, expected_fingerprint=fingerprint)
        except ArtifactError:
            self._count("_errors")
            self._count("_misses")
            self._quarantine(path)
            return None
        self._count("_hits")
        return engine

    def _quarantine(self, path: str) -> None:
        try:
            os.unlink(path)  # make room for a good rewrite
        except OSError:
            pass

    # -- inspection / maintenance -----------------------------------------

    def _artifact_files(self):
        base = os.path.join(self._root, _LAYOUT_VERSION)
        try:
            shards = sorted(os.listdir(base))
        except OSError:
            return
        for shard in shards:
            if shard == "refs":
                continue
            directory = os.path.join(base, shard)
            try:
                names = sorted(os.listdir(directory))
            except OSError:
                continue
            for name in names:
                if name.endswith(".rpra"):
                    yield os.path.join(directory, name)

    def list(self) -> list[dict]:
        """One record per stored artifact: meta plus file size and path.

        Unreadable or invalid files are reported with an ``"error"`` key
        instead of being silently skipped — ``repro cache list`` is the
        tool for noticing a corrupted cache.
        """
        records = []
        for path in self._artifact_files():
            record: dict = {"path": path, "size": None}
            try:
                with open(path, "rb") as handle:
                    blob = handle.read()
                record["size"] = len(blob)
                meta = artifact_meta(blob)
            except (OSError, ArtifactError) as error:
                record["error"] = str(error)
            else:
                record.update(
                    fingerprint=meta.get("fingerprint"),
                    expression=meta.get("expression"),
                    opt_level=meta.get("opt_level"),
                    num_states=meta.get("num_states"),
                    num_classes=meta.get("num_classes"),
                )
            records.append(record)
        return records

    def clear(self) -> int:
        """Delete every artifact and ref; the number of artifacts removed."""
        removed = 0
        for path in list(self._artifact_files()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        refs = os.path.join(self._root, _LAYOUT_VERSION, "refs")
        try:
            names = os.listdir(refs)
        except OSError:
            names = []
        for name in names:
            try:
                os.unlink(os.path.join(refs, name))
            except OSError:
                pass
        return removed

    def stats(self) -> dict:
        """Counters plus on-disk totals (artifact count and bytes)."""
        artifacts = 0
        size = 0
        for path in self._artifact_files():
            artifacts += 1
            try:
                size += os.path.getsize(path)
            except OSError:
                pass
        out = self.counters()
        out["artifacts"] = artifacts
        out["bytes"] = size
        out["root"] = self._root
        return out

    def __repr__(self) -> str:
        counters = self.counters()
        return (
            f"ArtifactStore({self._root!r}, {counters['hits']} hits, "
            f"{counters['misses']} misses)"
        )
