"""Vectorized lockstep sweeps over the flat tables (the numpy layer).

The flat tables (:class:`~repro.engine.kernel.FlatTables`) make the
per-document sweep two indexed loads per character — but still one
*python-level* loop iteration per character per document.  This module
removes the per-document loop for corpus batches: the interned flat-DFA
rows are mirrored into one contiguous 2-D numpy table
(``table[sid, class_id] → sid``), and a whole batch of documents
advances in lockstep — one fancy-indexed gather per document *position*
moves every document's state id at once, so the python-loop cost is
``O(max_len)`` per batch instead of ``O(total_chars)``.

Three helpers sit on top of the lockstep sweep:

* :func:`batch_index` — forward reach and backward coreach sweeps for a
  document batch, yielding ready
  :class:`~repro.engine.tables.DocumentIndex` objects (on ≤64-state
  automata they additionally carry per-position ``uint64`` mask arrays,
  so candidate-span filtering in
  :meth:`~repro.engine.tables.DocumentIndex.open_positions` is one
  vectorized bitwise pass instead of a per-position python loop);
* :func:`batch_accept` — NonEmp verdicts for a batch, straight off the
  forward reach sweep (the state walked is exactly the one the unpinned
  ``Eval`` sweep walks on the engine's sequential automaton, so the
  verdicts are identical by construction);
* :func:`op_positions_np` — the vectorized per-variable open/close
  position filter over precomputed reach/coreach mask arrays.

Every helper returns ``None`` whenever the fast path cannot run —
numpy absent or disabled (``REPRO_NO_NUMPY=1``), more than 256 alphabet
classes, a batch too large to pad densely, or a DFA whose completion
would outgrow its state budget — and the caller falls back to the
per-document flat sweeps, which compute the same states from the same
tables.  Outputs are bit-identical either way;
``tests/engine/test_vector.py`` cross-validates this differentially.

Before a batch sweep the flat DFA is *completed* — every transition of
every interned state is explored eagerly, so the inner loop needs no
miss handling and the mirror only has to catch up when a genuinely new
state was interned.  Completion stops short of ``FLAT_STATE_LIMIT``
rather than flush, and the mirror restarts whenever the DFA's
generation moved on.  Per-document and batch sweeps warm the same DFA
either way.
"""

from __future__ import annotations

from repro.engine.kernel import numpy_or_none

#: Upper bound on the padded class matrix (documents × max_len cells) a
#: single lockstep sweep may allocate.  Two matrices of this many int32
#: cells (~128 MB each at the bound) is the worst case; above it the
#: caller falls back to per-document sweeps rather than risk a dense-pad
#: blow-up on skewed batches (one huge document next to tiny ones).
_BATCH_CELL_LIMIT = 1 << 25

class _DfaMirror:
    """A completed numpy mirror of one :class:`~repro.engine.kernel.FlatDFA`.

    ``table[sid, class_id]`` mirrors ``dfa.rows[sid][class_id]``, with
    one extra *pad* column (``class_id == num_classes``) that maps every
    sid to the dead state — lanes past their document's end ride the pad
    class, so the lockstep inner loop needs no per-position length
    gating.  Before a sweep the underlying DFA is *completed*
    (:meth:`complete`): every transition of every interned state is
    explored eagerly, so gathers never see an unexplored ``-1`` and the
    inner loop is one multiply-add plus one flat gather per position.
    ``masks64`` maps sids to their state masks as ``uint64`` on
    ≤64-state automata (``None`` beyond that).
    """

    __slots__ = (
        "dfa",
        "np",
        "table",
        "masks64",
        "_generation",
        "_synced",
        "_completed",
    )

    def __init__(self, dfa, np_module) -> None:
        self.dfa = dfa
        self.np = np_module
        self.table = np_module.zeros((0, dfa.num_classes + 1), dtype=np_module.int32)
        self.masks64 = (
            np_module.zeros(0, dtype=np_module.uint64)
            if dfa.num_states <= 64
            else None
        )
        self._generation = dfa.generation
        self._synced = 0
        self._completed = 0

    def complete(self):
        """Explore every transition, mirror the rows, return the table.

        Completion can intern new states (whose rows are then completed
        in turn).  It never flushes: once the DFA is full it returns
        ``None`` and the batch falls back per document — exactly the
        engines whose lazy sweeps would flush anyway.  Once closed,
        per-document sweeps share the same DFA and can never miss, so
        later calls are no-ops until someone interns a genuinely new
        state; a flush in between restarts the mirror from scratch.
        """
        np = self.np
        dfa = self.dfa
        if dfa.generation != self._generation:
            self._generation = dfa.generation
            self._synced = self._completed = 0
        rows = dfa.rows
        num_classes = dfa.num_classes
        sid = self._completed
        if sid < len(rows):
            explore = dfa.explore
            while sid < len(rows):
                row = rows[sid]
                for class_id in range(num_classes):
                    if row[class_id] < 0:
                        if dfa.full:
                            return None
                        explore(sid, class_id)
                sid += 1
            # Rows mirrored before this pass may have gained entries
            # (their -1 slots were just explored): recopy from scratch.
            self._synced = min(self._synced, self._completed)
            self._completed = sid
        count = len(rows)
        if count > len(self.table):
            grown = np.zeros((count, num_classes + 1), dtype=np.int32)
            grown[: len(self.table)] = self.table
            self.table = grown
            if self.masks64 is not None:
                masks_grown = np.zeros(count, dtype=np.uint64)
                masks_grown[: self.masks64.shape[0]] = self.masks64
                self.masks64 = masks_grown
        if num_classes:
            table = self.table
            for row_id in range(self._synced, count):
                table[row_id, :num_classes] = np.frombuffer(
                    rows[row_id], dtype=np.int32
                )
        if self.masks64 is not None:
            masks = dfa.masks
            for row_id in range(self._synced, count):
                self.masks64[row_id] = masks[row_id]
        self._synced = count
        return self.table


class VectorTables:
    """The vector layer of one :class:`~repro.engine.kernel.FlatTables`:
    forward and reverse DFA mirrors, built lazily and cached on the flat
    tables (so they share the kernel's lifetime)."""

    __slots__ = ("flat", "np", "mirror", "mirror_rev")

    def __init__(self, flat) -> None:
        np = numpy_or_none()
        if np is None:  # pragma: no cover - callers gate on numpy_or_none
            raise RuntimeError("vector layer requires numpy")
        self.flat = flat
        self.np = np
        self.mirror = _DfaMirror(flat.dfa, np)
        self.mirror_rev = _DfaMirror(flat.dfa_rev, np)


def vector_tables(flat) -> VectorTables:
    """The (cached) vector layer of one flat-table instance."""
    tables = flat._vector
    if tables is None:
        tables = VectorTables(flat)
        flat._vector = tables
    return tables


def _flat_or_none(cva):
    """The flat tables when a lockstep sweep can run on them, else ``None``."""
    if numpy_or_none() is None:
        return None
    flat = cva.kernel.flat
    if flat.num_classes > 256:
        # >256 classes interns to tuples, not bytes — stay per-document.
        return None
    return flat


def _lockstep(mirror, np, classes_t, start_sid):
    """Advance every lane through ``classes_t`` rows in lockstep.

    ``classes_t`` is *position-major* — ``classes_t[pos]`` is the
    contiguous vector of every lane's class id at ``pos``, with lanes
    past their document's end holding the pad class (which every sid
    maps to the dead state, and sid 0 self-loops on everything) — so the
    inner loop is one flat gather per position with no length gating and,
    thanks to :meth:`_DfaMirror.complete`, no miss checks.  ``out[pos,
    lane]`` is lane ``lane``'s sid after consuming its character at
    ``pos`` (0 beyond its length).  ``None`` when the DFA could not be
    completed within its state budget.
    """
    table = mirror.complete()
    if table is None:
        return None
    flat_table = table.ravel()
    width = table.shape[1]
    # sid * width + class_id stays inside the table, so int32 index math
    # is safe unless the table itself outgrows int32.
    wide = table.size > 2**31 - 1
    maxlen, ndocs = classes_t.shape
    out = np.zeros((maxlen, ndocs), dtype=np.int32)
    current = np.full(ndocs, start_sid, dtype=np.int32)
    for pos in range(maxlen):
        if wide:  # pragma: no cover - needs a >2^31-cell table
            current = current.astype(np.int64)
        current = flat_table[current * width + classes_t[pos]]
        out[pos] = current
        if not (pos & 31) and not current.any():
            break  # every lane dead; the rest stays 0
    return out


def _class_matrices(np, sequences, pad, include_backward=True):
    """Position-major padded class matrices ``(forward, reversed)``.

    ``None`` when dense padding would exceed :data:`_BATCH_CELL_LIMIT`.
    The reversed matrix is left-aligned (each lane's classes reversed,
    then padded on the right) so both sweeps share one lockstep loop;
    forward-only callers (NonEmp verdicts) skip building it.
    """
    count = len(sequences)
    maxlen = max((len(seq) for seq in sequences), default=0)
    if count * maxlen > _BATCH_CELL_LIMIT:
        return None

    if pad <= 0xFF:
        # Classes intern to bytes, so padding is one C-speed ljust+join.
        pad_byte = bytes((pad,))

        def padded(rows):
            buffer = b"".join(row.ljust(maxlen, pad_byte) for row in rows)
            grid = np.frombuffer(buffer, dtype=np.uint8).reshape(count, maxlen)
            return np.ascontiguousarray(grid.T)

        forward = padded(sequences)
        backward = (
            padded([seq[::-1] for seq in sequences]) if include_backward else None
        )
        return forward, backward

    # 256 classes: the pad id does not fit a byte, so fill lane by lane.
    forward = np.full((count, maxlen), pad, dtype=np.uint16)
    backward = np.full((count, maxlen), pad, dtype=np.uint16) if include_backward else None
    for lane, seq in enumerate(sequences):
        if seq:
            row = np.frombuffer(seq, dtype=np.uint8)
            forward[lane, : len(seq)] = row
            if backward is not None:
                backward[lane, : len(seq)] = row[::-1]
    return (
        np.ascontiguousarray(forward.T),
        np.ascontiguousarray(backward.T) if backward is not None else None,
    )


def _batch_sweeps(cva, flat, texts, backward: bool):
    """The lockstep sweeps behind the batch entry points, or ``None``.

    Returns ``(sequences, sweeps)``: ``sweeps[0]`` is the forward reach
    sweep as a ``(start_sid, out)`` pair (see :func:`_lockstep`),
    ``sweeps[1]`` the backward coreach sweep when ``backward`` is set.
    The caller holds the lock of every DFA swept until it has resolved
    the sids.
    """
    np = numpy_or_none()
    sequences = [flat.intern(text) for text in texts]
    matrices = _class_matrices(
        np, sequences, flat.num_classes, include_backward=backward
    )
    if matrices is None:
        return None
    tables = vector_tables(flat)
    kernel = flat.kernel
    directions = [(tables.mirror, kernel.free[cva.initial])]
    if backward:
        directions.append((tables.mirror_rev, kernel.free_rev[cva.final]))
    sweeps = []
    for (mirror, start_mask), classes_t in zip(directions, matrices):
        start = mirror.dfa.intern(start_mask)
        out = _lockstep(mirror, np, classes_t, start)
        if out is None:
            return None
        sweeps.append((start, out))
    return sequences, sweeps


def batch_accept(cva, texts):
    """NonEmp verdicts for a batch of documents, or ``None``.

    The engine's automaton is sequential, so the forward reach sweep
    walks exactly the DFA the unpinned
    :func:`~repro.engine.oracle.eval_compiled` walks, and the
    final-state bit at document end *is* the verdict.  Verdict
    extraction never materialises per-document sweep rows — one gather
    pulls every lane's final sid.
    """
    flat = _flat_or_none(cva)
    if flat is None:
        return None
    np = numpy_or_none()
    final = cva.final
    with flat.dfa.lock:
        swept = _batch_sweeps(cva, flat, texts, backward=False)
        if swept is None:
            return None
        sequences, [(start, out)] = swept
        count = len(sequences)
        if out.shape[0] == 0:  # every document empty: all lanes sit on start
            finals = np.full(count, start, dtype=np.int32)
        else:
            lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
            finals = np.where(
                lengths > 0,
                out[np.maximum(lengths, 1) - 1, np.arange(count)],
                start,
            )
        masks64 = flat._vector.mirror.masks64
        if masks64 is not None:
            bit = np.uint64(1) << np.uint64(final)
            return ((masks64[finals] & bit) != 0).tolist()
        masks = flat.dfa.masks
        return [bool((masks[sid] >> final) & 1) for sid in finals.tolist()]


def batch_index(cva, texts):
    """Ready :class:`~repro.engine.tables.DocumentIndex` objects for a
    batch (forward reach + backward coreach in lockstep), or ``None``.

    On ≤64-state automata the indexes carry per-position ``uint64`` mask
    arrays, enabling the vectorized candidate-span filter
    (:func:`op_positions_np`).
    """
    from repro.engine.tables import DocumentIndex

    flat = _flat_or_none(cva)
    if flat is None:
        return None
    np = numpy_or_none()
    with flat.dfa.lock, flat.dfa_rev.lock:
        swept = _batch_sweeps(cva, flat, texts, backward=True)
        if swept is None:
            return None
        sequences, [(start, out), (start_rev, out_rev)] = swept
        masks = flat.dfa.masks
        masks_rev = flat.dfa_rev.masks
        mirror, mirror_rev = flat._vector.mirror, flat._vector.mirror_rev
        indexes = []
        for lane, text in enumerate(texts):
            length = len(sequences[lane])
            reach_ids = np.zeros(length + 2, dtype=np.int32)
            reach_ids[1] = start
            reach_ids[2:] = out[:length, lane]
            coreach_ids = np.zeros(length + 2, dtype=np.int32)
            coreach_ids[-1] = start_rev
            coreach_ids[1 : length + 1] = out_rev[:length, lane][::-1]
            reach_np = coreach_np = None
            if mirror.masks64 is not None:
                reach_np = mirror.masks64[reach_ids]
                coreach_np = mirror_rev.masks64[coreach_ids]
            indexes.append(
                DocumentIndex.from_flat_sweeps(
                    cva,
                    text,
                    sequences[lane],
                    [masks[sid] for sid in reach_ids.tolist()],
                    [masks_rev[sid] for sid in coreach_ids.tolist()],
                    reach_np,
                    coreach_np,
                )
            )
    return indexes


def op_positions_np(reach_np, coreach_np, edges):
    """Positions where any ``(source, target)`` op edge is live, or ``None``.

    The vectorized form of the per-position loop in
    :meth:`~repro.engine.tables.DocumentIndex.open_positions`: a span
    operation can fire at ``pos`` iff some edge has its source in
    ``reach[pos]`` and its target in ``coreach[pos]``.  Index 0 of the
    mask arrays is always 0, so the result lands in ``1..end`` exactly
    like the python loop.
    """
    np = numpy_or_none()
    if np is None:
        return None
    live = None
    for source, target in edges:
        hit = (reach_np & np.uint64(1 << source)) != 0
        hit &= (coreach_np & np.uint64(1 << target)) != 0
        live = hit if live is None else live | hit
    return np.nonzero(live)[0].tolist()
