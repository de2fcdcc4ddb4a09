"""Discrimination table, detector model, and scalar estimators."""

import itertools
import math
from fractions import Fraction

import pytest

from fusionsim.detection import (
    OutcomeStats,
    PPNRDConfig,
    classify_distribution,
    derive_discrimination_table,
    estimate_fidelity_singlet,
    fold_clicks,
    heralded_mixture,
    ideal_table,
    nfold_rate,
    normalization_factors,
    ppnrd_response,
    resolve_probability,
    success_probability,
)
from fusionsim.experiment import (
    FULL_PREPARATION,
    PORT_KEEP_A,
    PORT_KEEP_B,
    BellLabel,
    ExperimentConfig,
    FusionResult,
    bell_state,
    detection_groups,
    pair_correlations,
    pair_density,
    run_fusion,
    singlet_fidelity,
)
from fusionsim.fock import H, Mode, create_photons


def brute_force_clicks(n: int, k: int, eta: float) -> list[float]:
    """Enumerate every assignment of n photons to k cells and every
    detection subset; exact reference for the click-count distribution."""
    probs = [0.0] * (k + 1)
    for cells in itertools.product(range(k), repeat=n):
        for detected in itertools.product((0, 1), repeat=n):
            weight = (1 / k) ** n * math.prod(
                eta if d else (1 - eta) for d in detected
            )
            clicked = {c for c, d in zip(cells, detected) if d}
            probs[len(clicked)] += weight
    return probs


def surjections(d: int, c: int) -> int:
    """Number of ways d labelled photons cover exactly c labelled cells."""
    return sum((-1) ** j * math.comb(c, j) * (c - j) ** d for j in range(c + 1))


def exact_clicks(n: int, k: int, eta: float) -> list[Fraction]:
    """Exact click-count distribution: the sum over registered photon
    counts d of Binom(n, d; eta) C(k, c) surj(d, c) / k^d."""
    eta = Fraction(eta)
    probs = [Fraction(0)] * (k + 1)
    for d in range(n + 1):
        p_detected = math.comb(n, d) * eta**d * (1 - eta) ** (n - d)
        for c in range(min(d, k) + 1):
            probs[c] += p_detected * Fraction(math.comb(k, c) * surjections(d, c), k**d)
    return probs


class TestPPNRD:
    def test_no_photons(self):
        assert ppnrd_response(0, PPNRDConfig()) == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_single_photon_click_probability_is_efficiency(self):
        for eta in (1.0, 0.72, 0.3):
            dist = ppnrd_response(1, PPNRDConfig(4, eta))
            assert abs(dist[1] - eta) < 1e-15
            assert abs(dist[0] - (1 - eta)) < 1e-15

    def test_four_photons_fully_resolved(self):
        dist = ppnrd_response(4, PPNRDConfig(4, 1.0))
        assert dist[4] == 24 / 256
        assert resolve_probability(4, PPNRDConfig(4, 1.0)) == 24 / 256
        # Five photons cannot all land on distinct cells of four.
        assert resolve_probability(5, PPNRDConfig(4, 1.0)) == 0.0

    def test_two_photons(self):
        dist = ppnrd_response(2, PPNRDConfig(4, 1.0))
        assert abs(dist[2] - 0.75) < 1e-15
        assert abs(dist[1] - 0.25) < 1e-15

    @pytest.mark.parametrize("eta", [1.0, 0.72])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_brute_force(self, n, eta):
        exact = brute_force_clicks(n, 4, eta)
        model = ppnrd_response(n, PPNRDConfig(4, eta))
        for c in range(5):
            assert abs(model[c] - exact[c]) < 1e-12

    def test_distributions_sum_to_one(self):
        for n in range(6):
            for eta in (1.0, 0.5):
                assert abs(sum(ppnrd_response(n, PPNRDConfig(4, eta))) - 1.0) < 1e-12

    @pytest.mark.parametrize("eta", [1.0, 0.72])
    def test_large_photon_number(self, eta):
        """Past float range (4**2000), the distribution sums to 1, and
        three clicks keep their closed form: each photon misses one given
        cell with probability 1 - eta/4, and three cells missed at once
        (2 clicks or fewer) are far below double precision."""
        n = 2000
        dist = ppnrd_response(n, PPNRDConfig(4, eta))
        assert abs(sum(dist) - 1.0) < 1e-12
        assert max(dist[:3]) < 1e-300
        assert abs(dist[3] / (4 * (1 - eta / 4) ** n) - 1.0) < 1e-9

    @pytest.mark.parametrize("eta", [1.0, 0.9])
    def test_resolve_probability_past_float_range(self, eta):
        """perm(1000, 200) exceeds every float, yet the probability that
        200 photons land on distinct cells of 1000 is about 5e-10."""
        n, k = 200, 1000
        expected = eta**n * math.prod((k - i) / k for i in range(n))
        got = resolve_probability(n, PPNRDConfig(k, eta))
        assert abs(got / expected - 1.0) < 1e-12

    @pytest.mark.parametrize("eta", [1.0, 0.0, 0.72])
    def test_no_binomial_over_the_photon_number(self, monkeypatch, eta):
        """The sum runs over fired cells, not registered photon counts, so
        no C(n, d) is built at any efficiency."""
        built, comb = [], math.comb
        monkeypatch.setattr(math, "comb", lambda n, k: built.append((n, k)) or comb(n, k))
        ppnrd_response(200, PPNRDConfig(4, eta))
        assert built and all(pair[0] != 200 for pair in built)

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_certain_registration_keeps_the_integer_formula(self, eta):
        """At efficiency 1 all n photons register and at 0 none do, so
        P(c) is the one integer division C(k, c) surj(d, c) / k^d for that
        d alone, bit for bit."""
        cases = [*itertools.product(range(13), range(1, 17)), (200, 1000), (10000, 4)]
        for n, k in cases:
            d = n if eta == 1.0 else 0
            expected = [
                math.comb(k, c) * surjections(d, c) / k**d if c <= d else 0.0
                for c in range(k + 1)
            ]
            got = ppnrd_response(n, PPNRDConfig(k, eta))
            assert [x.hex() for x in got] == [x.hex() for x in expected], (n, k)

    @pytest.mark.parametrize("eta", [0.0, 0.123, 0.3, 0.5, 0.72, 1.0])
    def test_correctly_rounded(self, eta):
        for n in range(11):
            for k in (1, 2, 3, 4, 5, 8):
                expected = [float(p) for p in exact_clicks(n, k, eta)]
                assert ppnrd_response(n, PPNRDConfig(k, eta)) == expected, (n, k)

    def test_negative_photons_rejected(self):
        with pytest.raises(ValueError):
            ppnrd_response(-1, PPNRDConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PPNRDConfig(fanout=0)
        with pytest.raises(ValueError):
            PPNRDConfig(efficiency=1.4)


class TestNormalizationFactors:
    def setup_method(self):
        self.table = ideal_table(ExperimentConfig())

    def test_singly_occupied_pattern_factor_one(self):
        factors = normalization_factors(self.table, PPNRDConfig(4, 1.0))
        for pattern, factor in factors.items():
            if all(n <= 1 for n in pattern):
                assert abs(factor - 1.0) < 1e-15

    def test_four_photon_group(self):
        # A pattern whose only multiply-occupied group holds all four
        # photons; the leftover pair resolves singly on the other side.
        factors = normalization_factors(self.table, PPNRDConfig(4, 1.0))
        bunched = next(
            p for p in factors if 4 in p and all(n <= 1 for n in p if n != 4)
        )
        assert abs(factors[bunched] - 24 / 256) < 1e-15

    def test_two_double_groups(self):
        # Doubly-occupied groups contribute 3/4 each; singles contribute 1.
        config = PPNRDConfig(4, 1.0)
        factors = normalization_factors(self.table, config)
        double = next(
            p for p in factors
            if sum(n == 2 for n in p) == 2 and max(p) == 2
        )
        assert abs(factors[double] - 9 / 16) < 1e-15
        assert abs(resolve_probability(2, config) ** 2 - 9 / 16) < 1e-15

    def test_round_trip_recovers_pattern_probabilities(self):
        """Folding a real distribution through the detectors and dividing the
        fully-resolved click rates by the factors recovers the input."""
        config = PPNRDConfig(4, 1.0)
        result = run_fusion(BellLabel.PHI_PLUS, ExperimentConfig())
        clicks = fold_clicks(result.pattern_probs, config)
        factors = {
            pattern: math.prod(resolve_probability(n, config) for n in pattern)
            for pattern in result.pattern_probs
        }
        for pattern, prob in result.pattern_probs.items():
            observed = clicks.get(pattern, 0.0)
            # With unit efficiency a full-resolution signature is unambiguous
            # within a fixed photon total.
            recovered = observed / factors[pattern]
            assert abs(recovered - prob) < 1e-9


class TestDiscriminationTable:
    def setup_method(self):
        self.config = ExperimentConfig()
        self.table = ideal_table(self.config)
        self.ideal = {
            label: run_fusion(label, self.config).pattern_probs
            for label in BellLabel
        }

    def test_no_double_assignment_and_exhaustive(self):
        for label, dist in self.ideal.items():
            for pattern, prob in dist.items():
                if prob <= 1e-12:
                    continue
                others = [
                    other
                    for other, odist in self.ideal.items()
                    if other is not label and odist.get(pattern, 0.0) > 1e-12
                ]
                expected = None if others else label
                assert self.table.get(pattern) is expected

    def test_one_photon_per_group_on_one_side_heralds_phi_plus(self):
        for pattern in self.table:
            for side in (pattern[:4], pattern[4:]):
                if side == (1, 1, 1, 1):
                    assert self.table.get(pattern) is BellLabel.PHI_PLUS

    def test_four_bunched_photons_fail(self):
        for pattern in self.table:
            if 4 in pattern:
                assert self.table.get(pattern) is None

    def test_three_three_split_heralds_singlet(self):
        for pattern in self.table:
            if sum(pattern[:4]) == 3 and sum(pattern[4:]) == 3:
                assert self.table.get(pattern) is BellLabel.PSI_MINUS

    def test_antibunched_opposite_polarizations_unboosted(self):
        table = ideal_table(ExperimentConfig(ancilla_enabled=False))
        assert table.get((1, 0, 0, 1)) is BellLabel.PSI_MINUS
        assert table.get((0, 1, 1, 0)) is BellLabel.PSI_MINUS
        assert table.get((1, 1, 0, 0)) is BellLabel.PSI_PLUS
        assert table.get((2, 0, 0, 0)) is None

    def test_unseen_pattern_fails(self):
        assert self.table.get((8, 0, 0, 0, 0, 0, 0, 0)) is None
        assert self.table.get((1,) + (0,) * 7) is None

    def test_raw_click_mode(self):
        """A click signature short of the photon total (a photon lost or
        two photons in one cell) is never a table key, so its probability
        is routed to failure while a fully resolved one keeps its label."""
        resolved = next(
            p for p, lab in self.table.items() if lab is BellLabel.PSI_MINUS
        )
        i = next(i for i, n in enumerate(resolved) if n)
        short = resolved[:i] + (resolved[i] - 1,) + resolved[i + 1:]
        routed = classify_distribution({resolved: 0.25, short: 0.5}, self.table)
        assert routed[BellLabel.PSI_MINUS] == 0.25
        assert routed[None] == 0.5

    def test_raw_click_outcome_rates_scale_by_factors(self):
        """Folding through lossy detectors and classifying only the fully
        resolved signatures leaves each outcome at its pattern rate times
        the normalization factor."""
        ppnrd = PPNRDConfig(4, 0.72)
        result = run_fusion(BellLabel.PHI_MINUS, ExperimentConfig())
        clicks = fold_clicks(result.pattern_probs, ppnrd)
        routed = classify_distribution(clicks, self.table)
        for outcome in BellLabel:
            expected = sum(
                prob * math.prod(resolve_probability(n, ppnrd) for n in pattern)
                for pattern, prob in result.pattern_probs.items()
                if self.table.get(pattern) is outcome
            )
            assert abs(routed[outcome] - expected) < 1e-9

    def test_needs_all_four_inputs(self):
        with pytest.raises(ValueError):
            derive_discrimination_table(
                {BellLabel.PHI_PLUS: {(1, 1, 1, 1, 2, 0, 0, 0): 1.0}}
            )

    def test_mixed_photon_totals_rejected(self):
        supports = {label: {(1, 0, 0, 1): 1.0} for label in BellLabel}
        supports[BellLabel.PHI_MINUS] = {(2, 0, 0, 1): 1.0}
        with pytest.raises(ValueError, match=r"mix photon totals \[2, 3\]"):
            derive_discrimination_table(supports)


class TestSuccessProbability:
    def test_ideal_values(self):
        stats = success_probability(ExperimentConfig())
        expected = {
            BellLabel.PSI_MINUS: 1.0,
            BellLabel.PSI_PLUS: 1.0,
            BellLabel.PHI_PLUS: 0.5,
            BellLabel.PHI_MINUS: 0.5,
        }
        for label, value in expected.items():
            assert abs(stats.per_input_success[label] - value) < 1e-9
        assert abs(stats.outcome_probs[BellLabel.PSI_MINUS] - 0.25) < 1e-9
        assert abs(stats.outcome_probs[BellLabel.PHI_PLUS] - 0.125) < 1e-9
        assert abs(stats.total_success - 0.75) < 1e-9
        assert abs(stats.outcome_probs[None] - 0.25) < 1e-9

    def test_unboosted_limit(self):
        stats = success_probability(ExperimentConfig(ancilla_enabled=False))
        assert abs(stats.total_success - 0.5) < 1e-9
        assert stats.per_input_success[BellLabel.PHI_PLUS] < 1e-9
        assert stats.per_input_success[BellLabel.PHI_MINUS] < 1e-9

    def test_outcome_probabilities_sum_to_one(self):
        stats = success_probability(ExperimentConfig(overlap=0.95))
        assert abs(sum(stats.outcome_probs.values()) - 1.0) < 1e-9

    def test_distinguishable_even_parity_discrimination_collapses(self):
        """With fully distinguishable photons the ancilla boost dies: the
        even-parity inputs are heralded correctly only rarely (3.125%,
        versus 50% with perfect overlap)."""
        table = ideal_table(ExperimentConfig())
        result = run_fusion(BellLabel.PHI_PLUS, ExperimentConfig(overlap=0.0))
        routed = classify_distribution(result.pattern_probs, table)
        assert routed[BellLabel.PHI_PLUS] < 0.1
        assert abs(routed[BellLabel.PHI_PLUS] - 0.03125) < 1e-9


class TestHeraldedStates:
    def test_singlet_herald_fidelity_and_estimator_agree(self):
        config = ExperimentConfig()
        result = run_fusion(FULL_PREPARATION, config)
        table = ideal_table(config)
        mixture = heralded_mixture(result, table, BellLabel.PSI_MINUS)
        fid_direct = singlet_fidelity(mixture)
        xx, yy, zz = pair_correlations(mixture)
        fid_pauli = estimate_fidelity_singlet(xx, yy, zz)
        assert abs(fid_direct - 1.0) < 1e-9
        assert abs(fid_pauli - 1.0) < 1e-9

    def test_patterns_weighted_by_their_probability(self):
        """Each pattern's density has its pattern's probability as its
        trace, so a pattern of probability 0.1 heralding the singlet and
        one of 0.3 heralding a state orthogonal to it give singlet
        fidelity 0.25."""
        singlet = bell_state(PORT_KEEP_A, PORT_KEEP_B, BellLabel.PSI_MINUS)
        product = create_photons([(Mode(PORT_KEEP_A, H), 1), (Mode(PORT_KEEP_B, H), 1)])
        first, second = (1, 0, 0, 1), (0, 1, 1, 0)
        config = ExperimentConfig(ancilla_enabled=False)
        result = FusionResult(
            detection_groups(config),
            {first: 0.1, second: 0.3, (2, 0, 0, 0): 0.6},
            {
                first: 0.1 * pair_density(singlet, PORT_KEEP_A, PORT_KEEP_B),
                second: 0.3 * pair_density(product, PORT_KEEP_A, PORT_KEEP_B),
            },
        )
        table = {first: BellLabel.PSI_MINUS, second: BellLabel.PSI_MINUS}
        mixture = heralded_mixture(result, table, BellLabel.PSI_MINUS)
        fidelity = singlet_fidelity(mixture)
        assert abs(fidelity - 0.25) < 1e-12

    def test_requires_full_preparation(self):
        config = ExperimentConfig()
        result = run_fusion(BellLabel.PSI_MINUS, config)
        with pytest.raises(ValueError):
            heralded_mixture(result, ideal_table(config), BellLabel.PSI_MINUS)

    def test_outcome_without_heralds_rejected(self):
        config = ExperimentConfig(ancilla_enabled=False)
        result = run_fusion(FULL_PREPARATION, config)
        table = {p: label for p, label in ideal_table(config).items()
                 if label is not BellLabel.PSI_PLUS}
        with pytest.raises(ValueError, match="no patterns herald"):
            heralded_mixture(result, table, BellLabel.PSI_PLUS)


class TestScalarEstimators:
    def test_fidelity_singlet_values(self):
        assert estimate_fidelity_singlet(-1.0, -1.0, -1.0) == 1.0
        assert estimate_fidelity_singlet(0.0, 0.0, 0.0) == 0.25
        assert estimate_fidelity_singlet(0.0, 0.0, -1.0) == 0.5

    def test_fidelity_clamps(self):
        assert estimate_fidelity_singlet(1.0, 1.0, 1.0) == 0.0

    def test_fidelity_range_check(self):
        with pytest.raises(ValueError, match="XX"):
            estimate_fidelity_singlet(1.5, 0.0, 0.0)

    def test_rate_identity(self):
        assert nfold_rate(1000.0, 1.0, 8) == 1000.0

    def test_eightfold_rate(self):
        rate = nfold_rate(7.1e6, 0.16, 8)
        assert abs(rate - 3.0494267801600006) < 1e-9
        assert abs(rate - 3.0) / 3.0 < 0.05

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            nfold_rate(-1.0, 0.5, 2)
        with pytest.raises(ValueError):
            nfold_rate(1.0, 1.2, 2)
        with pytest.raises(ValueError):
            nfold_rate(1.0, 0.5, 0)
