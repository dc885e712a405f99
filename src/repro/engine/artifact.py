"""Durable engine artifacts: zero-copy serialization of compiled engines.

A compiled engine is expensive to build — planning passes, transition
tables, the kernel's closure masks and class-major step tables — and
fully deterministic given the planned automaton.  This module persists
that work: :func:`serialize_engine` packs the post-plan automaton and
the kernel's mask tables into one versioned, checksummed byte blob, and
:func:`deserialize_engine` rebuilds a ready
:class:`~repro.engine.compiled.CompiledSpanner` from it without
re-planning or re-deriving any table.

Format (little-endian throughout)::

    offset  size  field
    0       4     magic  b"RPRA"
    4       4     format version (u32)
    8       32    SHA-256 of the payload
    40      8     payload length (u64)
    48      ...   payload

    payload := meta_len (u32) | meta JSON | pickled VA | mask blob

The meta JSON carries the automaton fingerprint, the alphabet-class
partition (``class_of``, residual, representatives), section sizes, and
the mask width.  The mask blob is the kernel's four tables — ``free``,
``free_rev``, then ``step`` and ``step_rev`` in class-major order, the
exact layout :class:`~repro.engine.kernel.FlatTables` flattens to — as
fixed-width little-endian masks.  For automata of at most 64 states
(``mask_width == 8``) loading is **zero-copy**: the blob is wrapped in a
``memoryview`` cast to ``Q`` and sliced per table, so an mmap'd artifact
shares pages with the OS cache instead of materialising Python ints.
Wider automata decode eagerly (``int.from_bytes`` per mask).

Every validation failure — bad magic, version or fingerprint mismatch,
truncation, checksum corruption, malformed meta — raises
:class:`ArtifactError`; callers (the
:class:`~repro.service.artifact_store.ArtifactStore`) treat any of them
as a cache miss and recompile.  Artifacts embed a pickle of the planned
automaton, so a cache directory must be trusted exactly like the
installed code itself — the checksum detects corruption, not tampering.

>>> from repro.engine.compiled import compile_spanner
>>> blob = serialize_engine(compile_spanner(".*x{a+}.*"))
>>> engine = deserialize_engine(blob)
>>> [m["x"].begin for m in engine.mappings("baa")]
[2, 2, 3]
"""

from __future__ import annotations

import hashlib
import json
import pickle

from repro.automata.fingerprint import va_fingerprint
from repro.engine.kernel import AlphabetClasses, Kernel
from repro.engine.tables import compile_va

MAGIC = b"RPRA"
FORMAT_VERSION = 1

_HEADER_LEN = 4 + 4 + 32 + 8

#: Mask width that takes the zero-copy ``memoryview.cast("Q")`` path.
_ZERO_COPY_WIDTH = 8


class ArtifactError(RuntimeError):
    """An artifact failed validation — treat as a miss and recompile."""


def _mask_width(num_states: int) -> int:
    """Bytes per serialized mask: 8 (zero-copy) for ≤64 states, else enough."""
    return max(_ZERO_COPY_WIDTH, (num_states + 7) // 8)


def serialize_engine(
    engine, opt_level: int | None = None, expression: str | None = None
) -> bytes:
    """The durable byte form of a compiled engine (forces the kernel build).

    ``opt_level`` and ``expression`` are advisory provenance recorded in
    the meta block (the artifact itself is keyed by the post-plan
    fingerprint, which already incorporates whatever the plan did);
    ``expression`` fills in when the engine does not carry pattern text.
    """
    cva = engine.tables
    kernel = cva.kernel
    classes = kernel.classes
    num_states = kernel.num_states
    num_classes = classes.count
    width = _mask_width(num_states)
    automaton = pickle.dumps(engine.automaton, protocol=pickle.HIGHEST_PROTOCOL)
    if not isinstance(expression, str):
        expression = (
            engine.expression if isinstance(engine.expression, str) else None
        )
    meta = {
        "fingerprint": engine.fingerprint,
        "expression": expression,
        "opt_level": opt_level,
        "source_sequential": engine.is_sequential,
        "num_states": num_states,
        "num_classes": num_classes,
        "residual": classes.residual,
        "class_of": classes._class_of,
        "representatives": list(classes.representatives),
        "mask_width": width,
        "pickle_len": len(automaton),
    }
    meta_blob = json.dumps(meta, separators=(",", ":"), sort_keys=True).encode()
    masks = bytearray()
    for table in (kernel.free, kernel.free_rev):
        for mask in table:
            masks += mask.to_bytes(width, "little")
    for step in (kernel.step, kernel.step_rev):
        for row in step:
            for mask in row:
                masks += mask.to_bytes(width, "little")
    payload = (
        len(meta_blob).to_bytes(4, "little") + meta_blob + automaton + masks
    )
    header = (
        MAGIC
        + FORMAT_VERSION.to_bytes(4, "little")
        + hashlib.sha256(payload).digest()
        + len(payload).to_bytes(8, "little")
    )
    return header + payload


def _mask_sections(buffer, offset: int, meta: dict):
    """The four kernel tables out of the mask blob (zero-copy when it fits)."""
    num_states = meta["num_states"]
    num_classes = meta["num_classes"]
    width = meta["mask_width"]
    total = 2 * num_states + 2 * num_classes * num_states
    if len(buffer) - offset != total * width:
        raise ArtifactError("artifact mask blob has the wrong length")
    if width == _ZERO_COPY_WIDTH:
        flat = memoryview(buffer)[offset:].cast("Q")
        cut = [0, num_states, 2 * num_states]
        for _ in range(2 * num_classes):
            cut.append(cut[-1] + num_states)
        parts = [flat[cut[i] : cut[i + 1]] for i in range(len(cut) - 1)]
    else:
        def unpack(index: int, count: int):
            start = offset + index * width
            return tuple(
                int.from_bytes(
                    buffer[start + i * width : start + (i + 1) * width], "little"
                )
                for i in range(count)
            )

        parts = [unpack(0, num_states), unpack(num_states, num_states)]
        position = 2 * num_states
        for _ in range(2 * num_classes):
            parts.append(unpack(position, num_states))
            position += num_states
    free, free_rev = parts[0], parts[1]
    step = tuple(parts[2 : 2 + num_classes])
    step_rev = tuple(parts[2 + num_classes :])
    return free, free_rev, step, step_rev


def _checked_payload(buffer) -> memoryview:
    """The payload of an artifact whose envelope validates.

    Checks the magic, format version, declared length and SHA-256, and
    raises :class:`ArtifactError` on the first that fails.
    """
    view = bytes(buffer[:_HEADER_LEN])
    if len(view) < _HEADER_LEN or view[:4] != MAGIC:
        raise ArtifactError("not an engine artifact (bad magic)")
    version = int.from_bytes(view[4:8], "little")
    if version != FORMAT_VERSION:
        raise ArtifactError(
            f"artifact format v{version}, this build reads v{FORMAT_VERSION}"
        )
    declared = int.from_bytes(view[40:48], "little")
    payload = memoryview(buffer)[_HEADER_LEN:]
    if len(payload) != declared:
        raise ArtifactError("artifact payload truncated")
    if hashlib.sha256(payload).digest() != view[8:40]:
        raise ArtifactError("artifact checksum mismatch")
    return payload


def deserialize_engine(buffer, expected_fingerprint: str | None = None):
    """Rebuild a :class:`~repro.engine.compiled.CompiledSpanner` from bytes.

    ``buffer`` may be any buffer-protocol object — in particular an
    ``mmap.mmap``, which the ≤64-state fast path slices without copying.
    Raises :class:`ArtifactError` on any validation failure.
    """
    from repro.engine.compiled import CompiledSpanner

    payload = _checked_payload(buffer)
    try:
        meta_len = int.from_bytes(payload[:4], "little")
        meta = json.loads(bytes(payload[4 : 4 + meta_len]))
        pickle_end = 4 + meta_len + meta["pickle_len"]
        automaton = pickle.loads(bytes(payload[4 + meta_len : pickle_end]))
    except ArtifactError:
        raise
    except Exception as error:  # malformed meta/pickle despite checksum
        raise ArtifactError(f"artifact meta unreadable: {error}") from error
    fingerprint = meta.get("fingerprint")
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        raise ArtifactError("artifact fingerprint does not match its key")
    if va_fingerprint(automaton) != fingerprint:
        raise ArtifactError("artifact automaton does not match its fingerprint")
    free, free_rev, step, step_rev = _mask_sections(
        payload, pickle_end, meta
    )
    classes = AlphabetClasses.from_parts(
        meta["class_of"],
        meta["residual"],
        meta["num_classes"],
        meta["representatives"],
    )
    cva = compile_va(automaton)
    if cva._kernel is None:
        cva._kernel = Kernel.from_tables(
            cva, classes, free, free_rev, step, step_rev
        )
    return CompiledSpanner(
        automaton=automaton,
        expression=meta.get("expression"),
        source_sequential=meta.get("source_sequential"),
    )


def artifact_meta(buffer) -> dict:
    """The meta block of an artifact, without rebuilding the engine.

    Validates the envelope (magic, version, checksum) only — used by the
    store's listing and stats paths.
    """
    payload = _checked_payload(buffer)
    try:
        meta_len = int.from_bytes(payload[:4], "little")
        return json.loads(bytes(payload[4 : 4 + meta_len]))
    except Exception as error:
        raise ArtifactError(f"artifact meta unreadable: {error}") from error
