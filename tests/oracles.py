"""Reference helpers that tests check the engine against."""

from __future__ import annotations

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
