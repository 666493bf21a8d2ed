"""Compiled PODEM: the five-valued D-calculus on the bit-parallel engine.

This is the fast counterpart of the dict-based search in
:mod:`repro.atpg.podem`, built directly on the flattened op arrays of
:class:`repro.logic.compiled.CompiledNetwork` (obtained through the
:func:`repro.logic.compiled.compile_network` memo, so PODEM and the
fault simulator share one compiled form per network structure).

**D-calculus in the dual-rail words.**  The compiled engine packs one
simulation "vector" per bit of its dual-rail (ones, zeros) words; here
the batch is the two machines of the D-calculus: bit 0 is the *good*
machine and bit 1 the *faulty* machine.  A net's five-valued state is
then a pair of 2-bit words, and every gate evaluates both machines at
once through the same bitwise Kleene operators the fault simulator
uses (:func:`repro.logic.compiled._eval_gate`):

===========  ==========  ===========
value        ones word   zeros word
===========  ==========  ===========
``0``        ``0b00``    ``0b11``
``1``        ``0b11``    ``0b00``
``D``        ``0b01``    ``0b10``
``D'``       ``0b10``    ``0b01``
``X``        pins unset on the unknown machine
===========  ==========  ===========

Faults enter exactly as in the simulator's override contract: a stem
stuck-at forces the faulty bit wherever the net is written, a branch
fault forces the faulty bit of one gate input pin, and a functional
(gate) fault evaluates the faulty machine through a local truth table
(:func:`repro.logic.compiled.eval_table_packed` with the faulty-bit
mask).

**Event-driven implication.**  Instead of re-simulating the whole
network per PODEM decision (the legacy ``_FaultMachine.imply``), the
:class:`_DMachine` keeps the full net state resident and propagates a
primary-input (un)assignment only through its fanout cone: consumer
ops are processed in topological order off a heap and propagation
stops where a recomputed output equals the stored value.  Backtracking
is just another event — re-implication from the flipped PI — so no
state snapshots are needed.

**Search equivalence.**  The search mirrors the legacy decision rules
*exactly* (objective order, D-frontier traversal in levelized order,
first-X-input backtrace, backtrack bookkeeping, safety bounds), so for
any fault both engines make identical decisions, consume identical
backtrack budgets, and return identical vectors and identical
testable / untestable / aborted classifications —
``tests/test_podem_compiled.py`` enforces this across every generated
benchmark and fault class.  The precomputed SCOAP-style
controllability estimates (:class:`repro.logic.compiled.
NetworkStructures`) drive an optional ``heuristic="controllability"``
backtrace that picks the cheapest X input instead of the first one;
it trades the bit-exact mirror for fewer backtracks on deep circuits.
"""

from __future__ import annotations

import heapq
from typing import Mapping, Sequence

from repro.atpg.podem import PodemResult
from repro.logic.compiled import (
    OP_AND,
    OP_INV,
    OP_MAJ,
    OP_MIN,
    OP_NAND,
    OP_NOR,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    CompiledNetwork,
    _eval_gate,
    compile_network,
    eval_table_packed,
)
from repro.logic.network import Network
from repro.logic.values import X

if False:  # pragma: no cover - typing only
    from repro.atpg.faults import StuckAtFault

#: Bit of the good (fault-free) machine in the 2-bit rail words.
GOOD = 0b01
#: Bit of the faulty machine.
FAULT = 0b10
#: Both machines.
BOTH = 0b11


def _force_faulty(o: int, z: int, value: int) -> tuple[int, int]:
    """Force the faulty-machine bit of one dual-rail word to ``value``."""
    if value:
        return (o & GOOD) | FAULT, z & GOOD
    return o & GOOD, (z & GOOD) | FAULT


class _DMachine:
    """Event-driven five-valued implication over flattened op arrays.

    The index-level replacement for the legacy ``_FaultMachine``: net
    state lives in two integer lists of 2-bit dual-rail words (bit 0
    good machine, bit 1 faulty machine), faults are installed as index
    -level overrides, and :meth:`set_pi` re-implies only the changed
    fanout cone.
    """

    def __init__(
        self,
        cnet: CompiledNetwork,
        line_idx: int = -1,
        line_value: int = 0,
        pin_forces: Mapping[int, tuple[tuple[int, int], ...]] | None = None,
        tables: Mapping[int, Mapping[tuple[int, ...], int]] | None = None,
    ) -> None:
        self.cnet = cnet
        self.structs = cnet.structures()
        self.ops = cnet.ops
        self.line_idx = line_idx
        self.line_value = line_value
        self.pin_forces = dict(pin_forces or {})
        self.tables = dict(tables or {})
        self.assign: dict[int, int] = {}
        n_ops = len(self.ops)
        self._queued = bytearray(n_ops)
        # Ops the inlined fast path must route through the slow
        # evaluator: pin/table overrides and the faulted net's driver.
        special = bytearray(n_ops)
        for pos in self.pin_forces:
            special[pos] = 1
        for pos in self.tables:
            special[pos] = 1
        if line_idx >= 0:
            driver = self.structs.driver_op[line_idx]
            if driver >= 0:
                special[driver] = 1
        self._special = bytes(special)
        # Start from the cached fault-free all-X fixpoint and re-imply
        # only the fault's cone, instead of evaluating every op.
        base = getattr(cnet, "_dcalc_base", None)
        if base is None:
            base = self._all_x_base(cnet)
            cnet._dcalc_base = base
        self.ones = list(base[0])
        self.zeros = list(base[1])
        seeds: list[int] = []
        if line_idx >= 0:
            if self.structs.is_pi[line_idx]:
                self.ones[line_idx], self.zeros[line_idx] = self._pi_word(
                    line_idx
                )
                seeds.extend(self.structs.fanout_ops[line_idx])
            else:
                seeds.append(self.structs.driver_op[line_idx])
        seeds.extend(self.pin_forces)
        seeds.extend(self.tables)
        if seeds:
            self._propagate(seeds)

    @staticmethod
    def _all_x_base(cnet: CompiledNetwork) -> tuple[list[int], list[int]]:
        """Fault-free net state under the empty assignment (all PIs X)."""
        ones = [0] * cnet.n_nets
        zeros = [0] * cnet.n_nets
        for code, out, ins in cnet.ops:
            o, z = _eval_gate(code, [(ones[i], zeros[i]) for i in ins])
            ones[out] = o
            zeros[out] = z
        return ones, zeros

    # ------------------------------------------------------------------
    def _pi_word(self, idx: int) -> tuple[int, int]:
        """Dual-rail word a primary input loads (assignment + fault)."""
        value = self.assign.get(idx, X)
        if value == 1:
            o, z = BOTH, 0
        elif value == 0:
            o, z = 0, BOTH
        else:
            o, z = 0, 0
        if idx == self.line_idx:
            o, z = _force_faulty(o, z, self.line_value)
        return o, z

    def _eval_pos(self, pos: int) -> tuple[int, int]:
        """Evaluate one op over the current state (faults applied)."""
        code, out, ins = self.ops[pos]
        ones = self.ones
        zeros = self.zeros
        pw = [(ones[i], zeros[i]) for i in ins]
        forces = self.pin_forces.get(pos)
        if forces is not None:
            for pin, value in forces:
                po, pz = pw[pin]
                pw[pin] = _force_faulty(po, pz, value)
        table = self.tables.get(pos)
        if table is None:
            o, z = _eval_gate(code, pw)
        else:
            # Good machine through the healthy gate function, faulty
            # machine through the local truth table (any X pin -> X).
            go, gz = _eval_gate(code, pw)
            fo, fz = eval_table_packed(
                table, [(po & FAULT, pz & FAULT) for po, pz in pw], FAULT
            )
            o = (go & GOOD) | fo
            z = (gz & GOOD) | fz
        if out == self.line_idx:
            o, z = _force_faulty(o, z, self.line_value)
        return o, z

    def set_pi(self, idx: int, value: int) -> None:
        """(Un)assign one primary input and re-imply its fanout cone.

        ``value`` is 0, 1 or :data:`~repro.logic.values.X` (unassign).
        Consumer ops are processed in topological order; propagation
        dies out where a recomputed output matches the stored state, so
        the cost is the size of the *changed* cone, not the network.
        """
        if value == X:
            self.assign.pop(idx, None)
        else:
            self.assign[idx] = value
        o, z = self._pi_word(idx)
        if o == self.ones[idx] and z == self.zeros[idx]:
            return
        self.ones[idx] = o
        self.zeros[idx] = z
        self._propagate(self.structs.fanout_ops[idx])

    def _propagate(self, seed_positions: Sequence[int]) -> None:
        """Re-imply from the given op positions until the state settles.

        The hot loop of the engine: plain ops are evaluated inline on
        the local rail lists (no call, no pin-word list); only ops
        carrying an override (``self._special``) go through the full
        :meth:`_eval_pos`.
        """
        ones = self.ones
        zeros = self.zeros
        ops = self.ops
        fanout = self.structs.fanout_ops
        queued = self._queued
        special = self._special
        heappush = heapq.heappush
        heappop = heapq.heappop
        heap = list(seed_positions)
        for pos in heap:
            queued[pos] = 1
        heapq.heapify(heap)
        while heap:
            pos = heappop(heap)
            queued[pos] = 0
            code, out, ins = ops[pos]
            if special[pos]:
                o, z = self._eval_pos(pos)
            else:
                i = ins[0]
                o = ones[i]
                z = zeros[i]
                if code == OP_AND or code == OP_NAND:
                    for i in ins[1:]:
                        o &= ones[i]
                        z |= zeros[i]
                    if code == OP_NAND:
                        o, z = z, o
                elif code == OP_OR or code == OP_NOR:
                    for i in ins[1:]:
                        o |= ones[i]
                        z &= zeros[i]
                    if code == OP_NOR:
                        o, z = z, o
                elif code == OP_XOR or code == OP_XNOR:
                    for i in ins[1:]:
                        b1 = ones[i]
                        b0 = zeros[i]
                        o, z = (o & b0) | (z & b1), (o & b1) | (z & b0)
                    if code == OP_XNOR:
                        o, z = z, o
                elif code == OP_MAJ or code == OP_MIN:
                    i1 = ins[1]
                    i2 = ins[2]
                    b1 = ones[i1]
                    c1 = ones[i2]
                    b0 = zeros[i1]
                    c0 = zeros[i2]
                    o = (o & b1) | (b1 & c1) | (o & c1)
                    z = (z & b0) | (b0 & c0) | (z & c0)
                    if code == OP_MIN:
                        o, z = z, o
                elif code == OP_INV:
                    o, z = z, o
                # OP_BUF falls through with (o, z) already correct.
            if o != ones[out] or z != zeros[out]:
                ones[out] = o
                zeros[out] = z
                for nxt in fanout[out]:
                    if not queued[nxt]:
                        queued[nxt] = 1
                        heappush(heap, nxt)

    # ------------------------------------------------------------------
    def good_value(self, idx: int) -> int:
        """Good-machine ternary value of one net (0/1/X)."""
        if (self.ones[idx] | self.zeros[idx]) & GOOD:
            return self.ones[idx] & GOOD
        return X

    def is_effect(self, idx: int) -> bool:
        """True when the net carries D or D' (machines disagree)."""
        o, z = self.ones[idx], self.zeros[idx]
        return bool(((o & (z >> 1)) | (z & (o >> 1))) & GOOD)

    def is_unresolved(self, idx: int) -> bool:
        """True when either machine is still X on the net."""
        return ((self.ones[idx] | self.zeros[idx]) & BOTH) != BOTH


def _x_path_exists(
    machine: _DMachine, origin: int, cone_start: int
) -> bool:
    """Can some fault effect still reach a primary output through
    unresolved nets?

    Single forward pass over the topologically ordered ops (the legacy
    fixpoint collapses to one sweep because every edge points forward),
    with seeds pruned by the static output-reachability mask — an
    effect on a net that cannot structurally reach a PO never matters.
    """
    cnet = machine.cnet
    ones = machine.ones
    zeros = machine.zeros
    po_reach = machine.structs.po_reachable
    ops = cnet.ops
    reach = bytearray(cnet.n_nets)
    seeded = False
    has_effect = False
    # Effects can only live on the origin net or on op outputs inside
    # the fault cone — no need to scan the whole net array.
    candidates = [ops[pos][1] for pos in range(cone_start, len(ops))]
    if origin >= 0:
        candidates.append(origin)
    for idx in candidates:
        o, z = ones[idx], zeros[idx]
        if ((o & (z >> 1)) | (z & (o >> 1))) & GOOD:
            has_effect = True
            if po_reach[idx]:
                reach[idx] = 1
                seeded = True
    if not has_effect and origin >= 0:
        # No D yet: the origin net (where the effect will materialise)
        # seeds the search while it is still unresolved.
        if (
            ((ones[origin] | zeros[origin]) & BOTH) != BOTH
            and po_reach[origin]
        ):
            reach[origin] = 1
            seeded = True
    if not seeded:
        return False
    ops = cnet.ops
    for pos in range(cone_start, len(ops)):
        _, out, ins = ops[pos]
        if reach[out]:
            continue
        if ((ones[out] | zeros[out]) & BOTH) == BOTH:
            continue  # blocked: output already resolved in both machines
        for i in ins:
            if reach[i]:
                reach[out] = 1
                break
    for idx in cnet.po_index:
        if reach[idx]:
            return True
    return False


def compiled_justify_and_propagate(
    network: Network,
    condition: Sequence[tuple[str, int]],
    line_fault: "StuckAtFault | None" = None,
    gate_fault_name: str | None = None,
    gate_fault_table: Mapping[tuple[int, ...], int] | None = None,
    propagate: bool = True,
    max_backtracks: int = 500,
    heuristic: str = "mirror",
) -> PodemResult:
    """Generic PODEM on the compiled engine.

    Same contract as :func:`repro.atpg.podem.justify_and_propagate`
    (which dispatches here by default); ``heuristic`` selects the
    backtrace input choice: ``"mirror"`` replicates the legacy
    first-X-input rule bit-for-bit, ``"controllability"`` picks the
    X input with the cheapest SCOAP-style estimate for the required
    value.
    """
    if heuristic not in ("mirror", "controllability"):
        raise ValueError(f"unknown backtrace heuristic {heuristic!r}")
    cnet = compile_network(network)
    structs = cnet.structures()
    net_index = cnet.net_index
    cond = [(net_index[net], required) for net, required in condition]

    line_idx = -1
    line_value = 0
    pin_forces: dict[int, tuple[tuple[int, int], ...]] = {}
    tables: dict[int, Mapping[tuple[int, ...], int]] = {}
    fault_op = -1  # op where the fault effect first materialises
    origin = -1  # net where it first materialises
    if gate_fault_name is not None:
        fault_op = cnet.gate_op[gate_fault_name]
        tables[fault_op] = gate_fault_table or {}
        origin = cnet.ops[fault_op][1]
    if line_fault is not None:
        if line_fault.is_branch:
            pos = cnet.gate_op[line_fault.gate]
            pin_forces[pos] = ((line_fault.pin, line_fault.value),)
            if fault_op < 0:
                fault_op = pos
                origin = cnet.ops[pos][1]
        else:
            line_idx = net_index[line_fault.net]
            line_value = line_fault.value
            if origin < 0:
                origin = line_idx
    n_ops = len(cnet.ops)
    # Earliest op position a fault effect (and thus a D-frontier gate)
    # can exist at: everything before the fault's cone is skipped by
    # the frontier scan and the X-path sweep.
    cone_start = n_ops
    if fault_op >= 0:
        cone_start = fault_op
    if line_idx >= 0:
        cone_start = min(cone_start, cnet.net_first_op[line_idx])

    machine = _DMachine(
        cnet,
        line_idx=line_idx,
        line_value=line_value,
        pin_forces=pin_forces,
        tables=tables,
    )
    ones = machine.ones
    zeros = machine.zeros
    stack: list[tuple[int, int, bool]] = []
    backtracks = 0

    def result_vector() -> dict[str, int]:
        names = cnet.net_names
        return {names[i]: v for i, v in machine.assign.items()}

    def status() -> tuple[bool, bool]:
        """Returns (success, dead_end) over the resident state."""
        justified = True
        for idx, required in cond:
            good = machine.good_value(idx)
            if good == X:
                justified = False
            elif good != required:
                return False, True
        if not propagate:
            return justified, False
        if justified:
            for idx in cnet.po_index:
                if machine.is_effect(idx):
                    return True, False
            if not _x_path_exists(machine, origin, cone_start):
                return False, True
        return False, False

    def pick_objective() -> tuple[int, int] | None:
        for idx, required in cond:
            if machine.good_value(idx) == X:
                return idx, required
        if not propagate:
            return None
        # D-frontier walk in levelized order: first unresolved gate
        # carrying (or materialising) the fault effect that still has
        # an X pin to justify.
        ops = cnet.ops
        objective_value = structs.objective_value
        for pos in range(cone_start, n_ops):
            _, out, ins = ops[pos]
            if ((ones[out] | zeros[out]) & BOTH) == BOTH:
                continue  # output resolved: fault cannot advance here
            if pos != fault_op:
                for i in ins:
                    o, z = ones[i], zeros[i]
                    if ((o & (z >> 1)) | (z & (o >> 1))) & GOOD:
                        break
                else:
                    continue  # no fault effect on any input
            for i in ins:
                if ((ones[i] | zeros[i]) & BOTH) != BOTH:
                    return i, objective_value[pos]
        return None

    def backtrace(net: int, target: int) -> tuple[int, int] | None:
        """Map an objective to a PI decision through X lines."""
        is_pi = structs.is_pi
        driver = structs.driver_op
        inverting = structs.inverting
        controllability = heuristic == "controllability"
        for _ in range(n_ops + len(cnet.pi_index) + 1):
            if is_pi[net]:
                return net, target
            pos = driver[net]
            if pos < 0:
                return None
            if inverting[pos]:
                target = 1 - target
            ins = cnet.ops[pos][2]
            nxt = -1
            if controllability:
                cc = structs.cc1 if target else structs.cc0
                best = -1
                for i in ins:
                    if ((ones[i] | zeros[i]) & BOTH) != BOTH and (
                        nxt < 0 or cc[i] < best
                    ):
                        nxt, best = i, cc[i]
            else:
                for i in ins:
                    if ((ones[i] | zeros[i]) & BOTH) != BOTH:
                        nxt = i
                        break
            if nxt < 0:
                return None
            net = nxt
        return None

    def backtrack_step() -> bool:
        """Flip the deepest untried decision; False when exhausted."""
        nonlocal backtracks
        while stack:
            pi, value, tried = stack.pop()
            if not tried:
                machine.set_pi(pi, 1 - value)
                stack.append((pi, 1 - value, True))
                backtracks += 1
                return True
            machine.set_pi(pi, X)
        return False

    for _ in range(20000):  # hard safety bound (mirrors the legacy)
        success, dead = status()
        if success:
            return PodemResult(True, result_vector(), backtracks)
        objective = None if dead else pick_objective()
        decision = (
            backtrace(*objective) if objective is not None else None
        )
        if decision is None:
            # Dead end, nothing to decide, or unreachable objective.
            if not backtrack_step():
                return PodemResult(False, {}, backtracks)
            if backtracks > max_backtracks:
                return PodemResult(False, {}, backtracks, aborted=True)
            continue
        pi, value = decision
        machine.set_pi(pi, value)
        stack.append((pi, value, False))
    return PodemResult(False, {}, backtracks, aborted=True)


_BATCH_DROP_MIN_FAULTS = 512


def batch_drop_detected(
    cnet: CompiledNetwork,
    vector: Mapping[str, int],
    pending: Mapping[str, "FaultInjection"],
) -> set[str]:
    """Names in ``pending`` whose fault ``vector`` detects.

    The fault-dropping inner loop of :func:`repro.atpg.podem.
    run_stuck_at_atpg`: one freshly generated test against every
    still-undetected fault.  Below ``_BATCH_DROP_MIN_FAULTS`` pending
    faults the per-fault single-word :meth:`CompiledNetwork.detect_word`
    resimulation wins (one vector packs into one bit); at ISCAS scale
    the pending set dominates, so the whole set runs as a single
    fault-major 2-D sweep on :mod:`repro.logic.multiword` instead of a
    Python loop of full resimulations.  Both paths score detection with
    the same strict dual-rail diff, so the drop set is bit-identical.
    """
    names = list(pending)
    if len(names) >= _BATCH_DROP_MIN_FAULTS:
        from repro.logic import multiword as mw

        mv = mw.pack_vectors_multiword(cnet, [vector])
        good = mw.simulate_good(cnet, mv)
        words = mw.batch_detect(cnet, mv, good, [pending[n] for n in names])
        return {n for n, w in zip(names, words) if w}
    from repro.logic.compiled import pack_vectors

    packed = pack_vectors(cnet, [vector])
    good = cnet.simulate(packed)
    return {
        n for n in names if cnet.detect_word(packed, good, pending[n])
    }
