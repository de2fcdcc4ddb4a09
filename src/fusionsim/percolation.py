"""Monte Carlo percolation on the square lattice, tuned for large sizes.

One sweep draws a random order of the elements (bonds, or sites and
bonds) and adds them one per step; the microcanonical record S_m (largest
cluster after m additions) is then converted to any fixed occupation
probability p by a binomial convolution (Newman and Ziff).  This gives the
whole curve S(p) from a single pass per trial, which is what makes
1000 x 1000 lattices practical.

The site-bond mode activates sites and bonds with the same probability:
a site is a fused node of the growing cluster state and a bond an
inter-node fusion, so the occupation probability is the fusion success
probability.  A bond joins its endpoints once it and both endpoints are
present, so the sweep is one Kruskal pass: each bond gets the effective
step max(own step, steps of its endpoints) and a union-find merges the
bonds in effective-step order.  A bond-only mode (every site present from
step 0) serves as the exactly-solvable control, with its self-dual
threshold at 1/2.

Success probabilities below ``MIN_FUSION_SUCCESS`` cannot sustain
connected growth from three-photon GHZ resources (literature value).
Note that the plain equal-probability site-bond model implemented here
has its threshold at ``SITE_BOND_EQUAL_THRESHOLD`` (about 0.74), higher
than the ``CLUSTER_BUILD_THRESHOLD`` of 0.672 reported for full
GHZ-to-cluster architectures, whose failure handling keeps partial
connectivity that plain site removal discards.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

#: Minimum fusion success for scalable growth from 3-photon GHZ states.
MIN_FUSION_SUCCESS = 0.5898

#: Threshold reported for building 2D cluster states from 3-photon GHZ
#: resources (literature value for the full fusion-network construction).
CLUSTER_BUILD_THRESHOLD = 0.672

#: Known threshold of square-lattice site-bond percolation with equal
#: site and bond probability (literature value).
SITE_BOND_EQUAL_THRESHOLD = 0.74045

#: Exact bond-percolation threshold of the square lattice (self-duality).
BOND_THRESHOLD = 0.5

BOUNDARIES = ("open", "periodic")
MODES = ("bond", "site-bond")
OBSERVABLES = ("fraction", "spanning")


@dataclass(frozen=True)
class Lattice:
    """Square lattice of ``length`` x ``length`` sites with its bond list."""

    length: int
    boundary: str
    bonds: np.ndarray = field(repr=False, compare=False)

    @property
    def n_sites(self) -> int:
        return self.length * self.length

    @property
    def n_bonds(self) -> int:
        return len(self.bonds)


def build_square_lattice(length: int, boundary: str = "open") -> Lattice:
    """Square lattice; open boundaries give 2L(L-1) bonds, periodic 2L^2."""
    if length < 2:
        raise ValueError("lattice side must be at least 2")
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}")
    L = length
    idx = np.arange(L * L, dtype=np.int64).reshape(L, L)
    pairs = []
    right = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
    down = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)
    pairs.extend([right, down])
    if boundary == "periodic":
        wrap_right = np.stack([idx[:, -1], idx[:, 0]], axis=1)
        wrap_down = np.stack([idx[-1, :], idx[0, :]], axis=1)
        pairs.extend([wrap_right, wrap_down])
    bonds = np.concatenate(pairs, axis=0)
    return Lattice(length=L, boundary=boundary, bonds=bonds)


@dataclass(frozen=True)
class PercModel:
    """Occupation model: bond-only, or sites and bonds at one probability."""

    mode: str = "site-bond"
    p: Optional[float] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ValueError("occupation probability must lie in [0, 1]")


def n_elements(lattice: Lattice, model: PercModel) -> int:
    if model.mode == "bond":
        return lattice.n_bonds
    return lattice.n_sites + lattice.n_bonds


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Deterministic per-trial generator: counter-based stream derived
    from the master seed and the trial index."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(trial,)))
    )


def run_trial(
    lattice: Lattice,
    model: PercModel,
    seed: int,
    trial: int = 0,
    observable: str = "fraction",
) -> np.ndarray:
    """One microcanonical sweep: element m of the random order is added at
    step m and entry m of the result records the observable after it.

    For ``fraction`` the record is the largest-cluster size S_m (entry 0 is
    1 in bond mode, where isolated sites are clusters, and 0 in site-bond
    mode, where no site is active yet).  For ``spanning`` the record is the
    0/1 indicator of a cluster touching both the first and last row.

    Bonds are merged with union by size and path halving in order of
    effective step (ties in bond order); the fraction record is written
    where the largest cluster grows and forward-filled, and the spanning
    record switches on at the first merge that joins the two rows.
    """
    if observable not in OBSERVABLES:
        raise ValueError(f"observable must be one of {OBSERVABLES}")
    rng = trial_rng(seed, trial)
    n = lattice.n_sites
    bonds = lattice.bonds
    m_total = n_elements(lattice, model)
    order = rng.permutation(m_total)
    step = np.empty(m_total, dtype=np.int64)
    step[order] = np.arange(1, m_total + 1)
    if model.mode == "bond":
        site_step, bond_step = np.zeros(n, dtype=np.int64), step
    else:
        site_step, bond_step = step[:n], step[n:]
    key = np.maximum.reduce(
        [bond_step, site_step[bonds[:, 0]], site_step[bonds[:, 1]]]
    )
    ranked = np.argsort(key, kind="stable")

    spanning = observable == "spanning"
    record = np.zeros(m_total + 1, dtype=np.int64)
    if not spanning:
        record[site_step.min()] = 1
    L = lattice.length
    # Bit 1 marks a cluster touching the first row, bit 2 the last row.
    rows = [0] * n
    rows[:L] = [1] * L
    rows[n - L :] = [2] * L
    parent = list(range(n))
    size = [1] * n
    largest = 1
    for k, u, v in zip(
        key[ranked].tolist(), bonds[ranked, 0].tolist(), bonds[ranked, 1].tolist()
    ):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u == v:
            continue
        if size[u] < size[v]:
            u, v = v, u
        parent[v] = u
        size[u] += size[v]
        if spanning:
            rows[u] |= rows[v]
            if rows[u] == 3:
                record[k:] = 1  # spanning is monotone under additions
                break
        elif size[u] > largest:
            largest = size[u]
            record[k] = largest
    if not spanning:
        np.maximum.accumulate(record, out=record)
    return record


def binomial_window(m_total: int, p: float) -> tuple[int, np.ndarray]:
    """Binomial(M, p) weights above 1e-16, as (first index, weights).

    Computed by the multiplicative recurrence outward from the modal term,
    which stays finite for M in the millions where factorial-based forms
    overflow.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 0.0:
        return 0, np.array([1.0])
    if p == 1.0:
        return m_total, np.array([1.0])
    mode = min(m_total, int((m_total + 1) * p))
    log_peak = (
        math.lgamma(m_total + 1)
        - math.lgamma(mode + 1)
        - math.lgamma(m_total - mode + 1)
        + mode * math.log(p)
        + (m_total - mode) * math.log1p(-p)
    )
    peak = math.exp(log_peak)
    ratio = p / (1.0 - p)
    lower: list[float] = []
    w = peak
    m = mode
    while m > 0:
        w *= m / ((m_total - m + 1) * ratio)
        if w < 1e-16:
            break
        lower.append(w)
        m -= 1
    upper: list[float] = []
    w = peak
    m = mode
    while m < m_total:
        w *= (m_total - m) * ratio / (m + 1)
        if w < 1e-16:
            break
        upper.append(w)
        m += 1
    weights = np.array(lower[::-1] + [peak] + upper)
    # The gamma-function anchor drifts by ~1e-8 relative for element counts
    # in the millions; the window mass is 1 up to ~1e-13 truncated tails, so
    # renormalizing removes the anchor error.
    weights /= weights.sum()
    return mode - len(lower), weights


@dataclass(frozen=True)
class SweepCurve:
    """Observable versus occupation probability for one lattice."""

    length: int
    boundary: str
    mode: str
    observable: str
    p_grid: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    trials: int
    seed: int

    def value_at(self, p: float) -> float:
        matches = np.nonzero(np.isclose(self.p_grid, p, rtol=0.0, atol=1e-12))[0]
        if len(matches) == 0:
            raise ValueError(f"p={p} is not on the grid")
        return float(self.mean[matches[0]])


def _records_to_values(
    records: Sequence[np.ndarray], p_grid: np.ndarray, normalizer: float
) -> np.ndarray:
    m_total = len(records[0]) - 1
    windows = [binomial_window(m_total, float(p)) for p in p_grid]
    values = np.empty((len(records), len(p_grid)))
    for i, record in enumerate(records):
        if len(record) != m_total + 1:
            raise ValueError("records have mismatched element counts")
        for j, (start, weights) in enumerate(windows):
            values[i, j] = weights @ record[start : start + len(weights)]
    return values / normalizer


def convolve_binomial(
    records: Sequence[np.ndarray],
    p_grid: Sequence[float],
    lattice: Lattice,
    model: PercModel,
    observable: str = "fraction",
    seed: int = 0,
) -> SweepCurve:
    """Canonical-ensemble curve from microcanonical records.

    Every element is occupied independently with the same probability, so
    the fixed-p observable is the binomial mixture of the per-step records.
    Means and errors use compensated sums in trial order, making the result
    bit-identical however the records were computed.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    normalizer = lattice.n_sites if observable == "fraction" else 1.0
    values = _records_to_values(records, p_grid, normalizer)
    n_trials = len(records)
    mean = np.array([math.fsum(values[:, j]) / n_trials for j in range(len(p_grid))])
    if n_trials > 1:
        stderr = np.array(
            [
                math.sqrt(
                    math.fsum((values[:, j] - mean[j]) ** 2)
                    / (n_trials - 1)
                    / n_trials
                )
                for j in range(len(p_grid))
            ]
        )
    else:
        stderr = np.zeros(len(p_grid))
    return SweepCurve(
        length=lattice.length,
        boundary=lattice.boundary,
        mode=model.mode,
        observable=observable,
        p_grid=p_grid,
        mean=mean,
        stderr=stderr,
        trials=n_trials,
        seed=seed,
    )


def _sweep_chunk(args) -> list[np.ndarray]:
    length, boundary, mode, seed, trials, observable = args
    lattice = build_square_lattice(length, boundary)
    model = PercModel(mode=mode)
    return [
        run_trial(lattice, model, seed, trial=t, observable=observable)
        for t in trials
    ]


def sweep_curve(
    lattice: Lattice,
    model: PercModel,
    p_grid: Sequence[float],
    trials: int,
    seed: int,
    observable: str = "fraction",
    workers: int = 1,
) -> SweepCurve:
    """Monte Carlo sweep: ``trials`` independent microcanonical passes
    convolved onto ``p_grid``.

    Trials are keyed by (seed, trial index) and aggregated in index order,
    so the curve is identical for any worker count.  The worker count is
    clamped to the trial count and the CPU count.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    workers = min(workers, trials, os.cpu_count() or 1)
    indices = list(range(trials))
    if workers <= 1:
        records = [
            run_trial(lattice, model, seed, trial=t, observable=observable)
            for t in indices
        ]
    else:
        chunks = [
            (
                lattice.length,
                lattice.boundary,
                model.mode,
                seed,
                indices[i::workers],
                observable,
            )
            for i in range(workers)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_sweep_chunk, chunks))
        records_by_index: dict[int, np.ndarray] = {}
        for chunk, recs in zip(chunks, partials):
            for t, rec in zip(chunk[4], recs):
                records_by_index[t] = rec
        records = [records_by_index[t] for t in indices]
    return convolve_binomial(records, p_grid, lattice, model, observable, seed=seed)


def _component_labels(n: int, edges: np.ndarray) -> np.ndarray:
    """Smallest site index of each site's connected component.

    Vectorized label propagation with pointer jumping, independent of the
    union-find in ``run_trial`` so that it can check it.
    """
    labels = np.arange(n)
    u, v = edges[:, 0], edges[:, 1]
    while True:
        low = np.minimum(labels[u], labels[v])
        new = labels.copy()
        np.minimum.at(new, u, low)
        np.minimum.at(new, v, low)
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def direct_monte_carlo(
    lattice: Lattice,
    model: PercModel,
    p: float,
    trials: int,
    seed: int,
    observable: str = "fraction",
) -> tuple[float, float]:
    """Fixed-p sampling oracle: occupy each element Bernoulli(p), measure
    the observable directly.  Returns (mean, standard error)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if observable not in OBSERVABLES:
        raise ValueError(f"observable must be one of {OBSERVABLES}")
    n = lattice.n_sites
    bonds = lattice.bonds
    bond_mode = model.mode == "bond"
    values = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        site_open = (
            np.ones(n, dtype=bool) if bond_mode else rng.random(n) < p
        )
        bond_open = rng.random(len(bonds)) < p
        live = bond_open & site_open[bonds[:, 0]] & site_open[bonds[:, 1]]
        labels = _component_labels(n, bonds[live])
        if observable == "spanning":
            L = lattice.length
            tops = labels[:L][site_open[:L]]
            bottoms = labels[n - L :][site_open[n - L :]]
            values.append(1.0 if np.intersect1d(tops, bottoms).size else 0.0)
        elif site_open.any():
            values.append(np.bincount(labels[site_open]).max() / n)
        else:
            values.append(0.0)
    mean = math.fsum(values) / trials
    if trials > 1:
        stderr = math.sqrt(
            math.fsum((v - mean) ** 2 for v in values) / (trials - 1) / trials
        )
    else:
        stderr = 0.0
    return mean, stderr


@dataclass(frozen=True)
class ThresholdEstimate:
    """Crossing-based threshold with a slope-peak diagnostic."""

    estimate: float
    method: str
    slope_peak: float
    grid_step: float
    sizes: tuple[int, ...]
    crossings: dict[int, float]


def _half_crossing(p_grid: np.ndarray, mean: np.ndarray) -> float:
    level = 0.5
    flat = np.nonzero(np.abs(mean - level) <= 1e-12)[0]
    if len(flat) > 0:
        # Grid plateau exactly at the level: report its midpoint.
        return float((p_grid[flat[0]] + p_grid[flat[-1]]) / 2.0)
    below = np.nonzero(mean < level)[0]
    if len(below) == 0 or below[-1] + 1 >= len(mean):
        raise ValueError("curve never crosses 0.5 on the grid")
    i = below[-1]
    p0, p1 = p_grid[i], p_grid[i + 1]
    y0, y1 = mean[i], mean[i + 1]
    return float(p0 + (level - y0) * (p1 - p0) / (y1 - y0))


def max_slope_location(curve: SweepCurve) -> float:
    """p of the steepest finite-difference slope (midpoint of the pair)."""
    slopes = np.diff(curve.mean) / np.diff(curve.p_grid)
    i = int(np.argmax(slopes))
    return float((curve.p_grid[i] + curve.p_grid[i + 1]) / 2.0)


def estimate_threshold(curves: Sequence[SweepCurve]) -> ThresholdEstimate:
    """Threshold from where the largest-size curve crosses one half.

    The secondary slope-peak location is reported as a diagnostic; with at
    least two sizes the crossings of the smaller sizes come along for
    finite-size comparisons.
    """
    if len(curves) < 2:
        raise ValueError("need curves for at least two lattice sizes")
    ordered = sorted(curves, key=lambda c: c.length)
    crossings = {c.length: _half_crossing(c.p_grid, c.mean) for c in ordered}
    largest = ordered[-1]
    grid_step = float(np.max(np.diff(largest.p_grid)))
    return ThresholdEstimate(
        estimate=crossings[largest.length],
        method="half-crossing of largest size",
        slope_peak=max_slope_location(largest),
        grid_step=grid_step,
        sizes=tuple(c.length for c in ordered),
        crossings=crossings,
    )


def largest_cluster_curves(
    sizes: Sequence[int],
    trials: int,
    p_grid: Sequence[float],
    seed: int,
    mode: str = "site-bond",
    boundary: str = "open",
    observable: str = "fraction",
    workers: int = 1,
) -> dict[int, SweepCurve]:
    """One sweep curve per lattice size, larger sizes turning on harder.

    Per-size seeds are derived from the master seed and the size so curves
    are independent and reproducible individually.
    """
    model = PercModel(mode=mode)
    out: dict[int, SweepCurve] = {}
    for length in sizes:
        lattice = build_square_lattice(length, boundary)
        out[length] = sweep_curve(
            lattice,
            model,
            p_grid,
            trials,
            seed=seed + length,
            observable=observable,
            workers=workers,
        )
    return out
