"""Reference helpers that tests check the engine against."""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from fusionsim.fock import FockState, Mode


def post_select(state: FockState, pattern: Mapping[Mode, int]) -> tuple[FockState, float]:
    """Condition on exact counts over a subset of modes.

    The pattern modes are consumed: the returned state lives on the
    remaining modes and is renormalized.  A pattern with no support
    returns probability 0 and an empty state.  Rows are masked on the
    modes themselves, so the heralded densities, which the engine reads
    off flavor-blind detector counts, can be checked against it.
    """
    mask = np.ones(len(state), dtype=bool)
    for mode, n in pattern.items():
        mask &= (state.occ[:, state.modes.index(mode)] if mode in state.modes else 0) == n
    # Selected rows agree on the pattern columns, so dropping them keeps rows distinct.
    kept = [c for c, mode in enumerate(state.modes) if mode not in pattern]
    modes = tuple(state.modes[c] for c in kept)
    rows = np.flatnonzero(mask)
    rest = FockState._of(modes, state.occ.take(rows, axis=0)[:, kept], state.amps[rows])
    prob = rest.norm_squared()
    return (rest.normalized(), prob) if prob else (FockState({}), 0.0)


def bosonic_product(*states: FockState) -> dict[tuple, complex]:
    """Product of states as a term-by-term loop, folded from the first
    factor: occupation -> amplitude in order of first production.  Each
    pair of terms multiplies as Python multiplies complex numbers, is
    scaled by sqrt(C(m + n, n)) for each mode both terms occupy, in mode
    order, and adds to its occupation's running sum; zero sums are dropped."""
    product = dict(states[0].terms)
    for state in states[1:]:
        out: dict[tuple, complex] = {}
        for occ_a, amp_a in product.items():
            for occ_b, amp_b in state.terms.items():
                counts_a, counts_b = dict(occ_a), dict(occ_b)
                amp = amp_a * amp_b
                for mode in sorted(counts_a.keys() & counts_b.keys()):
                    amp *= math.sqrt(math.comb(counts_a[mode] + counts_b[mode], counts_b[mode]))
                merged = {m: counts_a.get(m, 0) + counts_b.get(m, 0)
                          for m in counts_a.keys() | counts_b.keys()}
                key = tuple(sorted(merged.items()))
                out[key] = out.get(key, 0j) + amp
        product = {key: amp for key, amp in out.items() if amp != 0}
    return product
