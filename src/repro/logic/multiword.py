"""Multi-word 2-D (fault x vector) packed simulation on numpy uint64.

The single-word engine of :mod:`repro.logic.compiled` packs one test
vector per bit of an unbounded Python integer; that is unbeatable for
the 1-vector delta resimulation at the heart of PODEM fault dropping,
but campaigns on thousands-of-gate netlists want the other axis too:
*fault-parallel* simulation, where a whole batch of faulty machines
advances through the circuit in lockstep.  This module provides that as
a thin numpy layer over the same flattened op arrays:

**Packing layout.**  Vector ``k`` of a batch lives in bit ``k & 63`` of
word ``k >> 6`` — i.e. the vector axis is split across ``W =
ceil(n / 64)`` little-endian ``uint64`` words (*vector-major* within a
word, word-major across the row).  A net's fault-free state is a pair
of ``(W,)`` rail rows (ones rail / zeros rail, identical Kleene
semantics to the single-word engine); a fault batch of ``F`` machines
widens a net to ``(F, W)`` — the *fault-major* axis is axis 0, so one
numpy bitwise op advances all ``F`` faulty machines over all ``n``
vectors at once.  The tail of the last word (bits ``n .. 63``) is
*ragged*: both rails keep it 0 (= X), so it can never produce a
detection, and every word handed back to callers is additionally ANDed
with the tail mask so forced-line writes (which set full 64-bit words)
cannot leak tail bits into detection results.

**Streaming batches.**  The batch kernel holds ``(F, W)`` rails only
for nets some fault of the chunk has changed, and only until the net's
last reader; every other net is read from the good rails through a
zero-stride broadcast view, and ops whose inputs are all good (and
carry no override) are skipped.  Primary outputs are compared with the
good machine as they are written.  The working set is therefore the
live frontier of the faults' cones, not ``n_nets x F x W``.

**Equivalence.**  For any fault list and vector set the detection
words produced here are bit-identical to the single-word engine's
(:func:`repro.logic.compiled.CompiledNetwork.detect_word`) and to the
serial dict simulator — enforced by the differential harness in
``tests/test_multiword_engine.py`` on random circuits and the ISCAS-
class corpus under ``benchmarks/netlists/``.

Usage::

    from repro.logic.multiword import (
        FaultBatch, pack_vectors_multiword, simulate_good,
    )

    cnet = network.compiled()
    mv = pack_vectors_multiword(cnet, vectors)     # any vector count
    good = simulate_good(cnet, mv)                 # (n_nets, W) rails
    words = batch_detect(cnet, mv, good, injections)
    # words[f] is a Python int: bit k set -> vectors[k] detects fault f
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

import numpy as np

from repro.logic.compiled import (
    OP_AND,
    OP_BUF,
    OP_INV,
    OP_MAJ,
    OP_MIN,
    OP_NAND,
    OP_NOR,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    CompiledNetwork,
    FaultInjection,
)
from repro.logic.values import X

WORD_BITS = 64
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
_DTYPE = np.dtype("<u8")

#: Fault rows simulated per vectorized pass.  Each live net of a chunk
#: costs chunk x W x 16 bytes (two rails); a wide fault axis amortizes
#: the per-op Python and numpy dispatch over more faulty machines.
DEFAULT_FAULT_CHUNK = 1024

#: Dual-rail multi-word net state: (ones, zeros) uint64 arrays of
#: shape (n_nets, W).
MultiwordState = tuple[np.ndarray, np.ndarray]


def words_from_int(value: int, n_words: int) -> np.ndarray:
    """Split a packed Python-int word into ``n_words`` uint64 words."""
    return np.frombuffer(
        value.to_bytes(n_words * 8, "little"), dtype=_DTYPE
    ).copy()


def int_from_words(row: np.ndarray) -> int:
    """Reassemble a multi-word row into the single-word Python int."""
    return int.from_bytes(np.ascontiguousarray(row, dtype=_DTYPE).tobytes(),
                          "little")


@dataclasses.dataclass(frozen=True)
class MultiwordVectors:
    """A vector batch packed bit-per-vector into multi-word rail rows.

    Attributes:
        n: Number of vectors.
        n_words: ``ceil(n / 64)`` (at least 1, so empty batches still
            carry well-formed arrays).
        mask: ``(n_words,)`` tail mask — all-ones words except the last,
            whose bits ``n % 64 ..`` are clear (the ragged tail).
        ones / zeros: Primary-input net index -> ``(n_words,)`` rail row.
    """

    n: int
    n_words: int
    mask: np.ndarray
    ones: dict[int, np.ndarray]
    zeros: dict[int, np.ndarray]


def pack_vectors_multiword(
    cnet: CompiledNetwork,
    vectors: Sequence[Mapping[str, int]],
) -> MultiwordVectors:
    """Pack test vectors for ``cnet``; missing / X entries stay X.

    Mirrors :func:`repro.logic.compiled.pack_vectors` (and therefore the
    serial simulator's missing-input-is-X convention), with the batch
    split across ``ceil(n / 64)`` uint64 words instead of one Python
    int.
    """
    n = len(vectors)
    n_words = max(1, (n + WORD_BITS - 1) // WORD_BITS)
    ones: dict[int, np.ndarray] = {}
    zeros: dict[int, np.ndarray] = {}
    for net, idx in cnet.pi_items:
        o = z = 0
        for k, vector in enumerate(vectors):
            value = vector.get(net, X)
            if value == 1:
                o |= 1 << k
            elif value == 0:
                z |= 1 << k
        ones[idx] = words_from_int(o, n_words)
        zeros[idx] = words_from_int(z, n_words)
    mask = words_from_int((1 << n) - 1 if n else 0, n_words)
    return MultiwordVectors(
        n=n, n_words=n_words, mask=mask, ones=ones, zeros=zeros
    )


def _eval_gate_np(
    code: int, pw: Sequence[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Dual-rail evaluation of one opcode over rail arrays.

    Shape-agnostic: the pin arrays may be ``(W,)`` (good machine) or
    ``(F, W)`` (fault batch).  Always returns fresh arrays (never views
    of the inputs), so callers may patch per-fault rows in place.
    """
    a1, a0 = pw[0]
    if code == OP_BUF:
        return a1.copy(), a0.copy()
    if code == OP_INV:
        return a0.copy(), a1.copy()
    if code == OP_AND or code == OP_NAND:
        b1, b0 = pw[1]
        o, z = a1 & b1, a0 | b0
        for b1, b0 in pw[2:]:
            o &= b1
            z |= b0
        return (z, o) if code == OP_NAND else (o, z)
    if code == OP_OR or code == OP_NOR:
        b1, b0 = pw[1]
        o, z = a1 | b1, a0 & b0
        for b1, b0 in pw[2:]:
            o |= b1
            z &= b0
        return (z, o) if code == OP_NOR else (o, z)
    if code == OP_XOR or code == OP_XNOR:
        o, z = a1, a0
        for b1, b0 in pw[1:]:
            o, z = (o & b0) | (z & b1), (o & b1) | (z & b0)
        if o is a1:  # single-input XOR: still must not alias
            o, z = o.copy(), z.copy()
        return (z, o) if code == OP_XNOR else (o, z)
    # OP_MAJ / OP_MIN
    b1, b0 = pw[1]
    c1, c0 = pw[2]
    o = (a1 & b1) | (b1 & c1) | (a1 & c1)
    z = (a0 & b0) | (b0 & c0) | (a0 & c0)
    return (z, o) if code == OP_MIN else (o, z)


def simulate_good(
    cnet: CompiledNetwork, mv: MultiwordVectors
) -> MultiwordState:
    """Fault-free simulation of the whole batch; ``(n_nets, W)`` rails."""
    ones = np.zeros((cnet.n_nets, mv.n_words), dtype=_DTYPE)
    zeros = np.zeros((cnet.n_nets, mv.n_words), dtype=_DTYPE)
    for idx in cnet.pi_index:
        ones[idx] = mv.ones[idx]
        zeros[idx] = mv.zeros[idx]
    for code, out, ins in cnet.ops:
        o, z = _eval_gate_np(code, [(ones[i], zeros[i]) for i in ins])
        ones[out] = o
        zeros[out] = z
    return ones, zeros


def _eval_tables(
    tables: Sequence[Mapping[tuple[int, ...], int]],
    pin_rows: Sequence[tuple[np.ndarray, np.ndarray]],
    mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Local-truth-table evaluation, one table per ``(R, W)`` pin row.

    Row ``r`` of the result evaluates ``tables[r]`` on row ``r`` of the
    pins — the multi-word counterpart of :func:`repro.logic.compiled.
    eval_table_packed`: table values outside (0, 1), and minterms a
    table lacks, contribute to neither rail, so those vectors come out
    X.
    """
    shape = pin_rows[0][0].shape
    ones = np.zeros(shape, dtype=_DTYPE)
    zeros = np.zeros(shape, dtype=_DTYPE)
    minterms = dict.fromkeys(m for table in tables for m in table)
    for minterm in minterms:
        values = [table.get(minterm) for table in tables]
        drive1 = np.fromiter((v == 1 for v in values), bool, len(values))
        drive0 = np.fromiter((v == 0 for v in values), bool, len(values))
        if not (drive1.any() or drive0.any()):
            continue
        word = np.broadcast_to(mask, shape)
        for (o, z), bit in zip(pin_rows, minterm):
            word = word & (o if bit else z)
        ones[drive1] |= word[drive1]
        zeros[drive0] |= word[drive0]
    return ones, zeros


def _eval_table_row(
    table: Mapping[tuple[int, ...], int],
    pin_rows: Sequence[tuple[np.ndarray, np.ndarray]],
    mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_eval_tables` for one table over ``(W,)`` pin rows."""
    ones, zeros = _eval_tables(
        [table], [(o[None], z[None]) for o, z in pin_rows], mask
    )
    return ones[0], zeros[0]


def minterm_word_multiword(
    pin_rows: Sequence[tuple[np.ndarray, np.ndarray]],
    minterm: Sequence[int],
    mask: np.ndarray,
) -> np.ndarray:
    """Word of vectors whose pins definitely equal ``minterm``.

    Multi-word counterpart of :func:`repro.logic.compiled.minterm_word`
    (vectors with any X pin match no minterm).
    """
    word = mask.copy()
    for (o, z), bit in zip(pin_rows, minterm):
        word &= o if bit else z
        if not word.any():
            break
    return word


def gate_input_rows(
    cnet: CompiledNetwork, state: MultiwordState, gate: str
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Dual-rail ``(W,)`` rows on one gate's input pins (good state)."""
    ones, zeros = state
    _, _, ins = cnet.ops[cnet.gate_op[gate]]
    return [(ones[i], zeros[i]) for i in ins]


class FaultBatch:
    """Index-level overrides for ``F`` faults, grouped for array writes.

    Built from a sequence of single-fault
    :class:`~repro.logic.compiled.FaultInjection` objects; fault ``f``
    of the batch owns row ``f`` of every ``(F, W)`` net-state array.
    The grouping turns each override class into the cheapest possible
    vectorized write:

    * ``line_rows``: net index -> (rows forced to 1, rows forced to 0)
      — applied at every write of the net, as full-word row assignments.
    * ``word_rows``: net index -> [(row, ones_row, zeros_row)] — the
      per-vector forced patterns of the stuck-open engine.
    * ``pin_rows``: op position -> [(pin, row, value)] — branch faults,
      patched onto a copy of the gathered pin array.
    * ``table_rows``: op position -> (rows, tables) — functional
      (polarity) faults, re-evaluated together on the affected rows.
    """

    def __init__(
        self,
        cnet: CompiledNetwork,
        injections: Sequence[FaultInjection],
        n_words: int,
    ) -> None:
        self.size = len(injections)
        line1: dict[int, list[int]] = {}
        line0: dict[int, list[int]] = {}
        self.word_rows: dict[int, list[tuple[int, np.ndarray, np.ndarray]]]
        self.word_rows = {}
        self.pin_rows: dict[int, list[tuple[int, int, int]]] = {}
        table_rows: dict[int, list[tuple[int, Mapping]]] = {}
        for row, injection in enumerate(injections):
            for idx, value in injection.lines.items():
                (line1 if value else line0).setdefault(idx, []).append(row)
            for idx, (o, z) in injection.words.items():
                self.word_rows.setdefault(idx, []).append(
                    (row, words_from_int(o, n_words),
                     words_from_int(z, n_words))
                )
            for (pos, pin), value in injection.pins.items():
                self.pin_rows.setdefault(pos, []).append((pin, row, value))
            for pos, table in injection.tables.items():
                table_rows.setdefault(pos, []).append((row, table))
        self.line_rows = {
            idx: (
                np.asarray(line1.get(idx, ()), dtype=np.intp),
                np.asarray(line0.get(idx, ()), dtype=np.intp),
            )
            for idx in line1.keys() | line0.keys()
        }
        self.table_rows = {
            pos: (
                np.asarray([row for row, _ in entries], dtype=np.intp),
                [table for _, table in entries],
            )
            for pos, entries in table_rows.items()
        }
        self.forced_nets = self.line_rows.keys() | self.word_rows.keys()

    def apply_forces(
        self, idx: int, ones_row: np.ndarray, zeros_row: np.ndarray
    ) -> None:
        """Apply line/word forces for net ``idx`` onto ``(F, W)`` rows."""
        entry = self.line_rows.get(idx)
        if entry is not None:
            rows1, rows0 = entry
            if rows1.size:
                ones_row[rows1] = _FULL
                zeros_row[rows1] = 0
            if rows0.size:
                ones_row[rows0] = 0
                zeros_row[rows0] = _FULL
        for row, o, z in self.word_rows.get(idx, ()):
            ones_row[row] = o
            zeros_row[row] = z


def batch_detection_matrix(
    cnet: CompiledNetwork,
    mv: MultiwordVectors,
    good: MultiwordState,
    batch: FaultBatch,
) -> np.ndarray:
    """Simulate ``F`` faulty machines; return the ``(F, W)`` detections.

    Bit ``k & 63`` of word ``k >> 6`` in row ``f`` is set iff vector
    ``k`` *definitely* detects fault ``f`` at a primary output (strict
    X semantics, matching :meth:`CompiledNetwork.output_diff`); the
    ragged tail is masked off.

    The kernel streams over the ops and keeps ``(F, W)`` faulty rails
    only for nets the batch has written (``bad``); every other net is
    read from the good rails through a zero-stride broadcast view.  An
    op none of whose inputs is in ``bad`` and that carries no override
    is skipped — its output equals the good machine's.  A net's faulty
    rails are dropped after its last reader (``cnet.net_last_op``), and
    each primary output is compared with the good machine as soon as it
    is written, so the working set is the live frontier of the faults'
    cones rather than the whole net state.  The batch's overrides are
    applied at the contract points: line/word forces on undriven nets
    once at the start and on driven nets at their write, pin forces on
    the gathered pin arrays, table overrides on the affected rows after
    the healthy gate function.
    """
    good_ones, good_zeros = good
    f = batch.size
    shape = (cnet.n_nets, f, mv.n_words)
    good1 = np.broadcast_to(good_ones[:, None, :], shape)
    good0 = np.broadcast_to(good_zeros[:, None, :], shape)
    ops = cnet.ops
    first = cnet.net_first_op
    last = cnet.net_last_op
    po = set(cnet.po_index)
    diff = np.zeros((f, mv.n_words), dtype=_DTYPE)
    bad: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for idx in batch.forced_nets:
        # A driven net's first op is its driver (topological order);
        # its forces are applied when that op writes it.
        if first[idx] < len(ops) and ops[first[idx]][1] == idx:
            continue
        o, z = good1[idx].copy(), good0[idx].copy()
        batch.apply_forces(idx, o, z)
        if idx in po:
            diff |= (good_ones[idx] & z) | (good_zeros[idx] & o)
        bad[idx] = (o, z)
    forced = batch.forced_nets
    pin_rows = batch.pin_rows
    table_rows = batch.table_rows
    for pos, (code, out, ins) in enumerate(ops):
        forces = pin_rows.get(pos)
        tables = table_rows.get(pos)
        if not (forces or tables or out in forced):
            for i in ins:
                if i in bad:
                    break
            else:
                continue
        pw = []
        for k, i in enumerate(ins):
            rails = bad.get(i)
            o, z = rails if rails is not None else (good1[i], good0[i])
            if forces:
                patched = False
                for pin, row, value in forces:
                    if pin != k:
                        continue
                    if not patched:
                        o, z = o.copy(), z.copy()
                        patched = True
                    if value:
                        o[row] = _FULL
                        z[row] = 0
                    else:
                        o[row] = 0
                        z[row] = _FULL
            pw.append((o, z))
        for i in ins:
            if last[i] == pos:
                bad.pop(i, None)
        o, z = _eval_gate_np(code, pw)
        if tables:
            rows, row_tables = tables
            o[rows], z[rows] = _eval_tables(
                row_tables, [(p1[rows], p0[rows]) for p1, p0 in pw], mv.mask
            )
        batch.apply_forces(out, o, z)
        if out in po:
            diff |= (good_ones[out] & z) | (good_zeros[out] & o)
        if last[out] > pos:
            bad[out] = (o, z)
    diff &= mv.mask
    return diff


def batch_detect(
    cnet: CompiledNetwork,
    mv: MultiwordVectors,
    good: MultiwordState,
    injections: Sequence[FaultInjection],
    fault_chunk: int = DEFAULT_FAULT_CHUNK,
) -> list[int]:
    """Detection words for every injection, chunked along the fault axis.

    The result is index-aligned with ``injections``; each entry is the
    same Python-int detection word the single-word engine's
    :meth:`~repro.logic.compiled.CompiledNetwork.detect_word` produces
    over the full vector set (bit ``k`` set iff vector ``k`` detects
    the fault).  ``fault_chunk`` is the ``F`` of each streamed batch
    (see :func:`batch_detection_matrix`); the final ragged chunk
    simply runs narrower.
    """
    words: list[int] = []
    for base in range(0, len(injections), fault_chunk):
        chunk = injections[base:base + fault_chunk]
        batch = FaultBatch(cnet, chunk, mv.n_words)
        diff = batch_detection_matrix(cnet, mv, good, batch)
        words.extend(int_from_words(diff[f]) for f in range(len(chunk)))
    return words


def first_detection_index(word: int) -> int | None:
    """Index of the lowest set bit (= first detecting vector), or None."""
    if not word:
        return None
    return (word & -word).bit_length() - 1
