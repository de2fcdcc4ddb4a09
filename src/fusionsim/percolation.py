"""Monte Carlo percolation on the square lattice, tuned for large sizes.

One sweep draws a random order of the elements (bonds, or sites and
bonds) and adds them one per step; the microcanonical records (largest
cluster S_m after m additions, and spanning, kept as one step per trial:
the first at which a cluster joins the first and last rows) are then
converted to any fixed occupation probability p by a binomial
convolution (Newman and Ziff).  ``sweep_curves`` thus gives the
whole curve of both observables from a single pass per trial (and
``size_sweeps`` does so per lattice size), which is what makes
1000 x 1000 lattices practical.  Each trial is convolved onto the grid as
soon as it finishes, so memory is O(trials x grid).  The pass covers only
the steps that the grid points' binomial windows read: the bonds in
effect by the first such step are merged at once, by vectorized root
hooking, and the union-find runs from there to the last such step.

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
from dataclasses import dataclass, field
from functools import partial
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

#: Bonds of the merge order converted to Python lists at a time.
_MERGE_CHUNK = 1 << 12

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

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


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


def _merge_order(
    lattice: Lattice, model: PercModel, seed: int, trial: int, first_step: int, last_step: int
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], int]:
    """The trial's bonds split at ``first_step``: the endpoint pairs in effect
    by then, unsorted; ``(effective steps, endpoint pairs)`` of the rest up
    to ``last_step``, in merge order; and the step of the first site."""
    m_total = n_elements(lattice, model)
    # uint32 steps take half the memory of int64 in the three arrays of M,
    # and the scatter and the sort run faster on them.
    if m_total >= 2**32:
        raise ValueError(f"{m_total} elements overflow the uint32 merge steps")
    rng = trial_rng(seed, trial)
    n = lattice.n_sites
    bonds = lattice.bonds
    step = np.empty(m_total, dtype=np.uint32)
    step[rng.permutation(m_total)] = np.arange(1, m_total + 1, dtype=np.uint32)
    if model.mode == "bond":
        site_step, bond_step = np.zeros(n, dtype=np.uint32), step
    else:
        site_step, bond_step = step[:n], step[n:]
    key = np.maximum(bond_step, site_step[bonds[:, 0]])
    np.maximum(key, site_step[bonds[:, 1]], out=key)
    prefix = bonds.compress(key <= first_step, axis=0)
    # Ties are bonds completed by one site at the same step.  Their order
    # cannot move a record: entry k is read only after every bond of step
    # k, and connectivity after a step does not depend on the order
    # within it.  So the faster unstable sort serves.
    window = np.flatnonzero((key > first_step) & (key <= last_step))
    window = window[np.argsort(key[window])]
    return prefix, (key[window], bonds.take(window, axis=0)), int(site_step.min())


def _prefix_roots(n: int, edges: np.ndarray) -> np.ndarray:
    """Smallest site of each site's component in the graph of ``edges``.

    Each round hooks the larger root of every edge that joins two roots
    onto the smallest root it meets (``np.minimum.at``), then pointer-jumps
    until every site points at its root; rounds repeat until no edge
    joins two roots.  Pointers only ever go to smaller sites, so each root
    is the smallest site of its tree.
    """
    root = np.arange(n)
    u, v = edges[:, 0], edges[:, 1]
    while True:
        ru, rv = root[u], root[v]
        live = ru != rv
        if not live.any():
            return root
        u, v, ru, rv = u[live], v[live], ru[live], rv[live]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped


def run_trial(
    lattice: Lattice,
    model: PercModel,
    seed: int,
    trial: int = 0,
    last_step: Optional[int] = None,
    first_step: int = 0,
) -> tuple[np.ndarray, int]:
    """One microcanonical sweep: element m of the random order is added at
    step m.  Returns ``(largest, span)`` over steps ``first_step``..
    ``last_step`` (default: the whole sweep of M elements).

    ``largest[i]`` is the largest-cluster size S_m at step ``first_step + i``
    (1 at step 0 in bond mode, where isolated sites are clusters, and 0 in
    site-bond mode, where no site is active yet), in the narrowest type
    that holds the site count.  ``span`` is the first step at which a
    cluster touches both the first and last row (spanning is monotone
    under additions), or ``last_step + 1`` if none does by then.

    The bonds in effect by ``first_step`` are merged at once, unsorted, by
    ``_prefix_roots``, which seeds the union-find with its components
    (``span`` is ``first_step`` if they join the two rows); the rest are
    merged with union by size and path halving in order of effective
    step, up to ``last_step``.  The largest-cluster record is written where
    the largest cluster grows and forward-filled; after the merge that
    sets ``span``, the row bits are no longer tracked.
    """
    m_total = n_elements(lattice, model)
    if last_step is None:
        last_step = m_total
    if not 0 <= first_step <= last_step <= m_total:
        raise ValueError(
            f"need 0 <= first_step <= last_step <= {m_total}, "
            f"got first_step={first_step}, last_step={last_step}"
        )
    prefix, (keys, ends), first_site = _merge_order(
        lattice, model, seed, trial, first_step, last_step
    )
    n, L = lattice.n_sites, lattice.length
    # Flat forest: each site points at its prefix root (itself if no bond
    # precedes the window).  Window bonds inside one prefix cluster join
    # nothing; keys become the record index of each merge.
    parent = _prefix_roots(n, prefix)
    ends = parent[ends]
    keep = ends[:, 0] != ends[:, 1]
    keys = keys[keep] - first_step
    ends = ends.compress(keep, axis=0)
    # Each array becomes its list before the next is made, which bounds
    # their memory at large sizes.  Bit 1 marks a cluster touching the
    # first row, bit 2 the last row.
    rows = np.zeros(n, dtype=np.int64)
    np.bitwise_or.at(rows, parent[:L], 1)
    np.bitwise_or.at(rows, parent[n - L :], 2)
    span = first_step if (rows == 3).any() else last_step + 1
    rows = rows.tolist()
    size = np.bincount(parent, minlength=n)
    biggest = int(size.max())
    size = size.tolist()
    parent = parent.tolist()
    # np.zeros leaves the pages unwritten until the pass writes them
    # (np.zeros_like would write them all at once).
    largest = np.zeros(last_step - first_step + 1, dtype=np.min_scalar_type(n))
    if first_site <= last_step:
        largest[max(first_site - first_step, 0)] = biggest
    # The merge order becomes Python lists one chunk at a time, which
    # bounds their memory at large sizes.
    for lo in range(0, len(keys), _MERGE_CHUNK):
        hi = lo + _MERGE_CHUNK
        for k, u, v in zip(
            keys[lo:hi].tolist(), ends[lo:hi, 0].tolist(), ends[lo:hi, 1].tolist()
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
            if span > last_step:
                rows[u] |= rows[v]
                if rows[u] == 3:
                    span = first_step + k
            if size[u] > biggest:
                biggest = size[u]
                largest[k] = biggest
    np.maximum.accumulate(largest, out=largest)
    return largest, span


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

    def tail(ms: range, factor) -> list[float]:
        """Weights from the mode outward, one factor per m, down to 1e-16."""
        out, w = [], peak
        for m in ms:
            w *= factor(m)
            if w < 1e-16:
                break
            out.append(w)
        return out

    lower = tail(range(mode, 0, -1), lambda m: m / ((m_total - m + 1) * ratio))
    upper = tail(range(mode, m_total), lambda m: (m_total - m) * ratio / (m + 1))
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


def _trial_values(
    lattice: Lattice,
    model: PercModel,
    seed: int,
    trial: int,
    windows: Sequence[tuple[int, np.ndarray]],
    first_step: int,
    last_step: int,
) -> tuple[np.ndarray, ...]:
    """One trial's observables on the grid, in ``OBSERVABLES`` order.

    Each grid point is the binomial mixture of the per-step record over its
    window (spanning is 1 from the span step on); each is then dropped.
    """
    shifted = [(start - first_step, weights) for start, weights in windows]
    largest, span = run_trial(lattice, model, seed, trial, last_step, first_step)
    spanning = np.zeros(last_step - first_step + 1)
    spanning[span - first_step :] = 1.0
    # One float64 record each, not one cast slice per window.
    return tuple(
        np.array([w.dot(record[lo : lo + len(w)]) for lo, w in shifted])
        for record in (largest.astype(np.float64), spanning)
    )


def sweep_curves(
    lattice: Lattice,
    model: PercModel,
    p_grid: Sequence[float],
    trials: int,
    seed: int,
    workers: int = 1,
) -> dict[str, SweepCurve]:
    """Monte Carlo sweep: ``trials`` independent microcanonical passes
    convolved onto ``p_grid``, one curve per observable.

    Every element is occupied independently with the same probability, so
    the fixed-p observable is the binomial mixture of the per-step records.
    One pass per trial yields both observables; each trial is convolved as
    it finishes, so memory is O(trials x grid), and the pass covers only
    the steps from the first to the last that any grid window reads.
    Trials are keyed by (seed, trial index) and go through one ordered
    map over the indices, in process or in one contiguous chunk per
    worker; they are aggregated in index order with compensated sums, so
    the curves are bit-identical for any worker count.  The worker count
    is clamped to the trial count and the CPU count.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    p_grid = np.asarray(p_grid, dtype=float)
    if len(p_grid) == 0:
        raise ValueError("need at least one grid point")
    m_total = n_elements(lattice, model)
    windows = [binomial_window(m_total, float(p)) for p in p_grid]
    first_step = min(start for start, _ in windows)
    last_step = max(start + len(weights) - 1 for start, weights in windows)
    workers = max(1, min(workers, trials, os.cpu_count() or 1))
    trial = partial(_trial_values, lattice, model, seed, windows=windows,
                    first_step=first_step, last_step=last_step)
    if workers == 1:
        rows = list(map(trial, range(trials)))
    else:
        # Imported here: the pool module is a measurable part of the
        # package's import time, and serial runs never need it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = math.ceil(trials / workers)
            rows = list(pool.map(trial, range(trials), chunksize=chunksize))
    curves = {}
    for i, observable in enumerate(OBSERVABLES):
        values = np.array([row[i] for row in rows])
        if observable == "fraction":
            values = values / lattice.n_sites
        mean = np.array([math.fsum(column) / trials for column in values.T])
        if trials > 1:
            stderr = np.array(
                [
                    math.sqrt(math.fsum((column - m) ** 2) / (trials - 1) / trials)
                    for column, m in zip(values.T, mean)
                ]
            )
        else:
            stderr = np.zeros(len(p_grid))
        curves[observable] = SweepCurve(
            length=lattice.length,
            boundary=lattice.boundary,
            mode=model.mode,
            observable=observable,
            p_grid=p_grid,
            mean=mean,
            stderr=stderr,
            trials=trials,
            seed=seed,
        )
    return curves


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
    if trials < 1:
        raise ValueError("need at least one trial")
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


class NoCrossingError(ValueError):
    """A curve that never crosses one half on its grid."""


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
        raise NoCrossingError("curve never crosses 0.5 on the grid")
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
    finite-size comparisons.  Raises :class:`NoCrossingError` when any
    curve never crosses one half on its grid, and ``ValueError`` for a
    periodic curve: its wrap bonds make the first and last rows
    neighbours, so one bond already "spans" them.
    """
    if len(curves) < 2:
        raise ValueError("need curves for at least two lattice sizes")
    if any(c.boundary != "open" for c in curves):
        raise ValueError("a spanning threshold needs open boundaries")
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


def size_sweeps(
    sizes: Sequence[int],
    trials: int,
    p_grid: Sequence[float],
    seed: int,
    mode: str = "site-bond",
    boundary: str = "open",
    workers: int = 1,
) -> dict[int, dict[str, SweepCurve]]:
    """Both observables' curves for each lattice size, one sweep per size.

    Per-size seeds are derived from the master seed and the size so curves
    are independent and reproducible individually.
    """
    model = PercModel(mode=mode)
    return {
        length: sweep_curves(
            build_square_lattice(length, boundary),
            model,
            p_grid,
            trials,
            seed=seed + length,
            workers=workers,
        )
        for length in sizes
    }
