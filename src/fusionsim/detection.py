"""Click-pattern discrimination, pseudo-number-resolving detection, and
the derived estimators (success probability, heralded-state fidelity,
coincidence rates).

The discrimination table is data-driven: a photon-number pattern heralds a
Bell state exactly when it appears in the ideal output distribution of that
input and of no other.  Every ambiguous or unseen pattern is a failure.
Detectors are modelled as 1-to-k splitters feeding k binary detectors
(pseudo photon-number resolution): a pattern is fully resolved only when
every photon lands on its own sub-detector and registers, which is what the
per-pattern normalization factors quantify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional

import numpy as np

from .experiment import (
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


class DiscriminationTable:
    """Pattern -> Bell outcome map; unknown patterns read as failures."""

    def __init__(
        self,
        assignments: Mapping[Pattern, Optional[BellLabel]],
        expected_photons: int,
    ):
        self._assignments = dict(assignments)
        self.expected_photons = expected_photons

    @property
    def assignments(self) -> Mapping[Pattern, Optional[BellLabel]]:
        return self._assignments

    def outcome(self, pattern: Pattern) -> Optional[BellLabel]:
        return self._assignments.get(pattern)

    def outcome_from_clicks(self, clicks: Pattern) -> Optional[BellLabel]:
        """Raw-click classification: a click signature is accepted only
        when every photon resolved (total clicks equal the expected photon
        number), in which case it reads as the corresponding pattern."""
        if sum(clicks) != self.expected_photons:
            return None
        return self._assignments.get(clicks)


def derive_discrimination_table(
    ideal_distributions: Mapping[BellLabel, Mapping[Pattern, float]],
) -> DiscriminationTable:
    """Build the table from the four ideal (perfect-overlap) distributions.

    A pattern maps to the one Bell input whose ideal distribution contains
    it; patterns reachable from two or more inputs map to failure.
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
    return DiscriminationTable(assignments, expected_photons=totals.pop())


def ideal_table(config: ExperimentConfig) -> DiscriminationTable:
    """Discrimination table for the configured topology at perfect overlap."""
    ideal_config = replace(config, overlap=1.0, phase=0.0, per_photon_overlap=None)
    distributions = {
        label: run_fusion(label, ideal_config).pattern_probs for label in BellLabel
    }
    return derive_discrimination_table(distributions)


def classify_distribution(
    pattern_probs: Mapping[Pattern, float], table: DiscriminationTable
) -> dict[Optional[BellLabel], float]:
    """Total probability routed to each outcome (None = failure)."""
    out: dict[Optional[BellLabel], float] = {label: 0.0 for label in BellLabel}
    out[None] = 0.0
    for pattern, prob in pattern_probs.items():
        out[table.outcome(pattern)] += prob
    return out


def classify_click_distribution(
    click_probs: Mapping[Pattern, float], table: DiscriminationTable
) -> dict[Optional[BellLabel], float]:
    """Raw-click classification of a folded click-signature distribution.

    Only fully resolving signatures (total clicks equal to the expected
    photon number) are accepted; everything else fails.  With fixed photon
    totals such signatures are unambiguous, so each outcome's rate is the
    underlying pattern rate scaled by its normalization factor.
    """
    out: dict[Optional[BellLabel], float] = {label: 0.0 for label in BellLabel}
    out[None] = 0.0
    for clicks, prob in click_probs.items():
        out[table.outcome_from_clicks(clicks)] += prob
    return out


def heralded_mixture(
    result: FusionResult, table: DiscriminationTable, outcome: BellLabel
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
        if table.outcome(pattern) is outcome
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
    failures.  Normalization factors cover every pattern in the table.
    results holds the fusion run of each Bell input behind these numbers.
    """

    per_input_success: dict[BellLabel, float]
    outcome_probs: dict[Optional[BellLabel], float]
    total_success: float
    factors: dict[Pattern, float]
    results: dict[BellLabel, FusionResult]


def success_probability(
    config: ExperimentConfig, ppnrd: PPNRDConfig | None = None
) -> OutcomeStats:
    """Per-input and mixture-averaged Bell discrimination probabilities."""
    table = ideal_table(config)
    per_input: dict[BellLabel, float] = {}
    results: dict[BellLabel, FusionResult] = {}
    outcome_probs: dict[Optional[BellLabel], float] = {label: 0.0 for label in BellLabel}
    outcome_probs[None] = 0.0
    for label in BellLabel:
        result = results[label] = run_fusion(label, config)
        routed = classify_distribution(result.pattern_probs, table)
        per_input[label] = routed[label]
        for outcome, prob in routed.items():
            outcome_probs[outcome] += 0.25 * prob
    total = math.fsum(prob for out, prob in outcome_probs.items() if out is not None)
    factors = normalization_factors(table, ppnrd or PPNRDConfig())
    return OutcomeStats(per_input, outcome_probs, total, factors, results)


# --------------------------------------------------------------------------
# Pseudo photon-number resolution
# --------------------------------------------------------------------------


def _surjections(d: int, c: int) -> int:
    """Number of ways d labelled photons cover exactly c labelled cells."""
    return sum(
        (-1) ** j * math.comb(c, j) * (c - j) ** d for j in range(c + 1)
    )


def ppnrd_response(n: int, config: PPNRDConfig) -> list[float]:
    """Click-count distribution for ``n`` photons on one detector group.

    Each photon independently registers with the sub-detector efficiency
    and lands on one of ``fanout`` sub-detectors uniformly; the click count
    is the number of distinct sub-detectors hit by registered photons.
    Index c of the returned list is P(c clicks); the list sums to 1.
    """
    if n < 0:
        raise ValueError("photon number must be non-negative")
    k = config.fanout
    eta = config.efficiency
    probs = [0.0] * (k + 1)
    for d in range(n + 1):
        p_detected = math.comb(n, d) * eta**d * (1.0 - eta) ** (n - d)
        if p_detected == 0.0:
            continue
        for c in range(min(d, k) + 1):
            p_cells = math.comb(k, c) * _surjections(d, c) / k**d
            probs[c] += p_detected * p_cells
    return probs


def resolve_probability(n: int, config: PPNRDConfig) -> float:
    """Probability that ``n`` photons produce exactly ``n`` clicks (all
    registered, all on distinct sub-detectors)."""
    k = config.fanout
    if n > k:
        return 0.0
    if n == 0:
        return 1.0
    return config.efficiency**n * math.perm(k, n) / k**n


def normalization_factors(
    table: DiscriminationTable, config: PPNRDConfig
) -> dict[Pattern, float]:
    """Per-pattern probability of a fully resolving click signature.

    Groups are independent, so the factor is the product of per-group
    resolving probabilities; dividing observed fully-resolved click rates
    by these factors recovers the underlying pattern probabilities.
    """
    return {
        pattern: math.prod(resolve_probability(n, config) for n in pattern)
        for pattern in sorted(table.assignments)
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
    if attempt_rate < 0.0:
        raise ValueError("attempt rate must be non-negative")
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError("efficiency must lie in [0, 1]")
    if fold < 1:
        raise ValueError("fold order must be at least 1")
    return attempt_rate * efficiency**fold


def compose_efficiency(source: float, transmission: float, detector: float) -> float:
    """End-to-end per-photon efficiency from its three stages."""
    for name, value in (
        ("source", source),
        ("transmission", transmission),
        ("detector", detector),
    ):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} efficiency outside [0, 1]")
    return source * transmission * detector


def expected_coincidence_rate(
    config: ExperimentConfig, attempt_rate: float, fold: int = 8
) -> float:
    """Coincidence rate implied by a configuration's per-photon efficiency.

    Loss enters the simulation as a rate-only effect (patterns are
    post-selected on the full photon number), so this is the whole loss
    model: attempts/s times transmission to the fold power.
    """
    return nfold_rate(attempt_rate, config.transmission, fold)
