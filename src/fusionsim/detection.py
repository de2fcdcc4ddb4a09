"""Click-pattern discrimination, pseudo-number-resolving detection, and
the derived estimators (success probability, heralded-state fidelity,
the singlet-heralded phase fringe, n-fold coincidence rate).

The discrimination table is a plain dict, derived from data: a
photon-number pattern heralds a Bell state exactly when it appears in the
ideal output distribution of that input and of no other, and maps to None
when several inputs reach it.  Every ambiguous pattern is a failure, and so
is every pattern absent from the table (an unseen one, or a click signature
whose total differs from the photon number, since no key has that total).
Detectors are modelled as 1-to-k splitters feeding k binary detectors
(pseudo photon-number resolution): a pattern is fully resolved only when
every photon lands on its own sub-detector and registers, which is what the
per-pattern normalization factors quantify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .experiment import (
    FULL_PREPARATION,
    BellLabel,
    ExperimentConfig,
    FusionResult,
    run_fusion,
)

Pattern = tuple[int, ...]

#: Classification tolerance: ideal probabilities below this are "zero".
SUPPORT_EPS = 1e-12


@dataclass(frozen=True)
class PPNRDConfig:
    """A 1-to-``fanout`` multiplexed detector group."""

    fanout: int = 4
    efficiency: float = 1.0

    def __post_init__(self):
        if self.fanout < 1:
            raise ValueError("fanout must be at least 1")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")


def derive_discrimination_table(
    ideal_distributions: Mapping[BellLabel, Mapping[Pattern, float]],
) -> dict[Pattern, Optional[BellLabel]]:
    """Build the table from the four ideal (perfect-overlap) distributions.

    A pattern maps to the one Bell input whose ideal distribution contains
    it; patterns reachable from two or more inputs map to failure (None).
    """
    supports: dict[BellLabel, set[Pattern]] = {
        label: {p for p, prob in dist.items() if prob > SUPPORT_EPS}
        for label, dist in ideal_distributions.items()
    }
    if len(supports) != 4:
        raise ValueError("need ideal distributions for all four Bell inputs")
    totals = {sum(p) for sup in supports.values() for p in sup}
    if len(totals) != 1:
        raise ValueError(f"ideal supports mix photon totals {sorted(totals)}")
    assignments: dict[Pattern, Optional[BellLabel]] = {}
    for label, support in supports.items():
        for pattern in support:
            if pattern in assignments:
                assignments[pattern] = None
            else:
                assignments[pattern] = label
    return assignments


def ideal_table(config: ExperimentConfig) -> dict[Pattern, Optional[BellLabel]]:
    """Discrimination table for the configured topology at perfect overlap."""
    ideal_config = replace(config, overlap=1.0, phase=0.0)
    results = run_fusion(tuple(BellLabel), ideal_config)
    return derive_discrimination_table(
        {label: result.pattern_probs for label, result in zip(BellLabel, results)}
    )


def classify_distribution(
    pattern_probs: Mapping[Pattern, float], table: Mapping[Pattern, Optional[BellLabel]]
) -> dict[Optional[BellLabel], float]:
    """Total probability routed to each outcome (None = failure); a
    pattern missing from ``table`` is a failure."""
    out: dict[Optional[BellLabel], float] = {label: 0.0 for label in BellLabel}
    out[None] = 0.0
    for pattern, prob in pattern_probs.items():
        out[table.get(pattern)] += prob
    return out


def heralded_mixture(
    result: FusionResult,
    table: Mapping[Pattern, Optional[BellLabel]],
    outcome: BellLabel,
) -> np.ndarray:
    """Analyzer-photon state heralded by an outcome: the sum of its
    patterns' unnormalized polarization density matrices, in sorted
    pattern order.

    Each pattern's matrix has trace equal to the pattern's probability,
    so every pattern enters in proportion to its probability."""
    if result.conditional_states is None:
        raise ValueError("heralded states need a full-preparation fusion run")
    densities = [
        result.conditional_states[pattern]
        for pattern in sorted(result.conditional_states)
        if table.get(pattern) is outcome
    ]
    if not densities:
        raise ValueError(f"no patterns herald {outcome}")
    return sum(densities, np.zeros((4, 4), dtype=complex))


@dataclass(frozen=True)
class OutcomeStats:
    """Discrimination statistics for a configuration.

    per_input_success[B] is the probability that input B produces a
    pattern heralding B; outcome_probs weights the four inputs uniformly
    (the reduced state of two fused pair halves), with None collecting the
    failures.  table is the discrimination table the patterns were routed
    by, and results holds the fusion run of each Bell input behind these
    numbers.
    """

    per_input_success: dict[BellLabel, float]
    outcome_probs: dict[Optional[BellLabel], float]
    total_success: float
    table: dict[Pattern, Optional[BellLabel]]
    results: dict[BellLabel, FusionResult]


def success_probability(config: ExperimentConfig) -> OutcomeStats:
    """Per-input and mixture-averaged Bell discrimination probabilities."""
    table = ideal_table(config)
    per_input: dict[BellLabel, float] = {}
    results = dict(zip(BellLabel, run_fusion(tuple(BellLabel), config)))
    outcome_probs: dict[Optional[BellLabel], float] = {label: 0.0 for label in BellLabel}
    outcome_probs[None] = 0.0
    for label, result in results.items():
        routed = classify_distribution(result.pattern_probs, table)
        per_input[label] = routed[label]
        for outcome, prob in routed.items():
            outcome_probs[outcome] += 0.25 * prob
    total = math.fsum(prob for out, prob in outcome_probs.items() if out is not None)
    return OutcomeStats(per_input, outcome_probs, total, table, results)


#: The diagonal analyzer outcomes as (H, V) amplitude vectors.
_DIAGONAL = (
    ("+", np.array([1, 1]) / math.sqrt(2)),
    ("-", np.array([1, -1]) / math.sqrt(2)),
)


@dataclass(frozen=True)
class FringePoint:
    phase: float
    #: joint probability of the singlet herald together with each +/-
    #: analyzer outcome on the kept photons, keyed '++', '+-', '-+', '--'
    coincidences: dict[str, float]


def phase_sweep(
    phases: Sequence[float], config: ExperimentConfig
) -> list[FringePoint]:
    """Unboosted fusion fringe versus the port-2 polarization phase.

    For each phase the full four-photon preparation is fused without
    ancillas, heralded on the patterns that the derived table assigns to
    the singlet, and the kept photons are analyzed in the +/- basis.  With
    perfect overlap the '++' coincidence follows (1 - cos phase)/32 per
    herald pattern, (1 - cos phase)/16 over both: a visibility-1 fringe.
    """
    if len(phases) == 0:
        raise ValueError("phase grid must be non-empty")
    config = replace(config, ancilla_enabled=False)
    table = ideal_table(config)
    targets = {
        sx + sy: np.kron(vx, vy) for sx, vx in _DIAGONAL for sy, vy in _DIAGONAL
    }
    points = []
    for phi in phases:
        result = run_fusion(FULL_PREPARATION, replace(config, phase=phi))
        rho = heralded_mixture(result, table, BellLabel.PSI_MINUS)
        joint = {name: float((t.conj() @ rho @ t).real) for name, t in targets.items()}
        points.append(FringePoint(phase=phi, coincidences=joint))
    return points


# --------------------------------------------------------------------------
# Pseudo photon-number resolution
# --------------------------------------------------------------------------


def ppnrd_response(n: int, config: PPNRDConfig) -> list[float]:
    """Click-count distribution for ``n`` photons on one detector group.

    Each photon independently registers with the sub-detector efficiency
    a/b and lands on one of k = ``fanout`` sub-detectors uniformly; the
    click count is the number of distinct sub-detectors hit by registered
    photons.  A photon misses every cell outside m given ones with
    probability (k(b - a) + a m)/(kb), so by inclusion-exclusion over the
    fired cells, for c <= min(n, k),
        P(c) = C(k, c) sum_j (-1)^j C(c, j) (k(b - a) + a(c - j))^n / (kb)^n,
    and the integer sum is the c-th forward difference of (k(b - a) + a m)^n
    at m = 0.  Index c of the returned list is P(c clicks), correctly
    rounded, so the list sums to 1 up to rounding.
    """
    if n < 0:
        raise ValueError("photon number must be non-negative")
    k = config.fanout
    a, b = config.efficiency.as_integer_ratio()
    diffs = [(k * (b - a) + a * m) ** n for m in range(min(n, k) + 1)]
    total = (k * b) ** n
    probs = [0.0] * (k + 1)
    for c in range(min(n, k) + 1):
        probs[c] = math.comb(k, c) * diffs[0] / total
        diffs = [hi - lo for lo, hi in zip(diffs, diffs[1:])]
    return probs


def resolve_probability(n: int, config: PPNRDConfig) -> float:
    """Probability that ``n`` photons produce exactly ``n`` clicks (all
    registered, all on distinct sub-detectors): perm(k, n) a^n / (kb)^n
    for efficiency a/b, entry n of :func:`ppnrd_response` and 0 past k."""
    k = config.fanout
    a, b = config.efficiency.as_integer_ratio()
    return math.perm(k, n) * a**n / (k * b) ** n


def normalization_factors(
    table: Mapping[Pattern, Optional[BellLabel]], config: PPNRDConfig
) -> dict[Pattern, float]:
    """Per-pattern probability of a fully resolving click signature.

    Groups are independent, so the factor is the product of per-group
    resolving probabilities; dividing observed fully-resolved click rates
    by these factors recovers the underlying pattern probabilities.
    """
    return {
        pattern: math.prod(resolve_probability(n, config) for n in pattern)
        for pattern in sorted(table)
    }


def fold_clicks(
    pattern_probs: Mapping[Pattern, float], config: PPNRDConfig
) -> dict[Pattern, float]:
    """Push a photon-number distribution through the detector model,
    yielding the distribution over click signatures."""
    out: dict[Pattern, float] = {}
    for pattern, prob in pattern_probs.items():
        partials: list[tuple[tuple[int, ...], float]] = [((), prob)]
        for n in pattern:
            response = ppnrd_response(n, config)
            partials = [
                (sig + (c,), p * pc)
                for sig, p in partials
                for c, pc in enumerate(response)
                if pc > 0.0
            ]
        for sig, p in partials:
            out[sig] = out.get(sig, 0.0) + p
    return out


# --------------------------------------------------------------------------
# Scalar estimators
# --------------------------------------------------------------------------


def estimate_fidelity_singlet(xx: float, yy: float, zz: float) -> float:
    """Singlet fidelity from the three joint Pauli correlations.

    F = (1 - <XX> - <YY> - <ZZ>) / 4, clamped to [0, 1]; the measurement
    bases are the +/- diagonal, circular, and H/V pairs.
    """
    for name, value in (("XX", xx), ("YY", yy), ("ZZ", zz)):
        if not -1.0 <= value <= 1.0:
            raise ValueError(f"correlation {name}={value} outside [-1, 1]")
    return min(1.0, max(0.0, (1.0 - xx - yy - zz) / 4.0))


def nfold_rate(attempt_rate: float, efficiency: float, fold: int) -> float:
    """n-fold coincidence rate: attempts/s times the per-photon efficiency
    raised to the fold order."""
    if not 0.0 <= attempt_rate < math.inf:
        raise ValueError("attempt rate must be finite and non-negative")
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError("efficiency must lie in [0, 1]")
    if fold < 1:
        raise ValueError("fold order must be at least 1")
    return attempt_rate * efficiency**fold
