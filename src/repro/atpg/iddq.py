"""IDDQ test selection for polarity faults.

Section V-B: pull-up polarity faults are observable only through supply
current.  This module selects a compact set of vectors such that every
polarity fault is driven into (at least) one of its conflict-activating
local input combinations — a classic set-cover problem solved greedily.
"""

from __future__ import annotations

import dataclasses

from repro.atpg.fault_sim import polarity_detection_words
from repro.atpg.polarity_atpg import generate_polarity_test
from repro.faults.logic import PolarityFault
from repro.logic.network import Network


@dataclasses.dataclass
class IddqSelection:
    """A compact IDDQ vector set.

    Attributes:
        vectors: Selected PI vectors (fully specified).
        covered: Fault name -> index of the covering vector.
        uncovered: Faults no generated vector could activate.
    """

    vectors: list[dict[str, int]]
    covered: dict[str, int]
    uncovered: list[str]

    @property
    def coverage(self) -> float:
        total = len(self.covered) + len(self.uncovered)
        return len(self.covered) / total if total else 1.0


def _fill(network: Network, vector: dict[str, int]) -> dict[str, int]:
    full = dict(vector)
    for net in network.primary_inputs:
        full.setdefault(net, 0)
    return full


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cover_masks(
    network: Network,
    faults: list[PolarityFault],
    candidates: list[dict[str, int]],
) -> list[int]:
    """Per candidate, the bitmask (bit ``i`` = ``faults[i]``) of the
    faults it detects through supply current or at the outputs."""
    masks = [0] * len(candidates)
    voltage = polarity_detection_words(network, faults, candidates)
    current = polarity_detection_words(
        network, faults, candidates, iddq=True
    )
    for i, (v_word, i_word) in enumerate(zip(voltage, current)):
        for k in _bits(v_word | i_word):
            masks[k] |= 1 << i
    return masks


def select_iddq_vectors(
    network: Network,
    faults: list[PolarityFault] | None = None,
    max_backtracks: int = 300,
    engine: str = "compiled",
) -> IddqSelection:
    """Generate candidate vectors per fault, then greedily compact.

    Candidate generation goes through the justification-only ATPG; the
    greedy pass then keeps the subset of vectors that still covers every
    coverable fault, largest marginal gain first.

    ``engine`` picks the PODEM engine that generates the candidates
    only.  The candidate x fault matrix always comes from two
    bit-parallel :func:`polarity_detection_words` sweeps (IDDQ and
    voltage), each candidate's row an int bitmask over the coverable
    faults.
    """
    if faults is None:
        from repro.faults import get_universe

        faults = get_universe("polarity").collapse(network)

    candidates: list[dict[str, int]] = []
    uncovered_names: set[str] = set()
    for fault in faults:
        test = generate_polarity_test(
            network, fault, allow_iddq=True,
            max_backtracks=max_backtracks, engine=engine,
        )
        if test is None:
            uncovered_names.add(fault.name)
            continue
        candidates.append(_fill(network, test.vector))

    coverable = [f for f in faults if f.name not in uncovered_names]
    masks = _cover_masks(network, coverable, candidates)

    remaining = (1 << len(coverable)) - 1
    chosen: list[int] = []
    while remaining:
        best, best_gain = None, 0
        for k, mask in enumerate(masks):
            gain = (mask & remaining).bit_count()
            if gain > best_gain:
                best, best_gain = k, gain
        if best is None:
            uncovered_names.update(
                coverable[i].name for i in _bits(remaining)
            )
            break
        chosen.append(best)
        remaining &= ~masks[best]

    vectors = [candidates[k] for k in chosen]
    covered: dict[str, int] = {}
    for order, k in enumerate(chosen):
        for i in _bits(masks[k]):
            covered.setdefault(coverable[i].name, order)
    return IddqSelection(
        vectors=vectors,
        covered=covered,
        uncovered=sorted(uncovered_names),
    )
