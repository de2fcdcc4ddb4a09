"""State preparations, the fusion interferometer, and diagnostics."""

import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionsim.experiment import (
    FULL_PREPARATION,
    PORT_ANCILLA_A,
    PORT_ANCILLA_B,
    PORT_FUSE_A,
    PORT_FUSE_B,
    PORT_KEEP_A,
    PORT_KEEP_B,
    BellLabel,
    N_PHOTONS,
    ExperimentConfig,
    bell_state,
    build_fusion_network,
    detection_groups,
    flavor_branches,
    fringe_visibility,
    full_preparation,
    hom_dip,
    hom_visibility,
    pair_correlations,
    pair_density,
    pair_projection_prob,
    prepare_bell_pair,
    prepare_noon_pair,
    run_fusion,
    single_photon,
    singlet_fidelity,
    _bundles,
    _pair_densities,
    _prepared,
)
from fusionsim import detection, experiment, fock
from fusionsim.detection import phase_sweep
from fusionsim.fock import (
    H,
    V,
    FockState,
    Mode,
    apply_network,
    apply_op,
    BeamSplitter,
    HalfWavePlate,
    PolarizingBeamSplitter,
    compose,
    create_photons,
    occupation,
    partition,
    pattern_distribution,
    project_port_counts,
    superpose,
    _parts,
)
from oracles import post_select

SQ2 = math.sqrt(2)
SQ6 = math.sqrt(6)

PHI_PLUS_TARGET = {(H, H): 1 / SQ2 + 0j, (V, V): 1 / SQ2 + 0j}


# ---------------------------------------------------------------------------
# Frozen four-photon outputs of one ancilla splitter for the bunched
# (same-port) even-parity inputs, derived with the standalone polynomial
# oracle below.  Slots: (out1 H, out1 V, out2 H, out2 V).
# ---------------------------------------------------------------------------

BUNCHED_PLUS_PROBS = {
    (4, 0, 0, 0): 6 / 64, (0, 0, 4, 0): 6 / 64,
    (0, 4, 0, 0): 6 / 64, (0, 0, 0, 4): 6 / 64,
    (2, 0, 2, 0): 4 / 64, (0, 2, 0, 2): 4 / 64,
    (2, 2, 0, 0): 1 / 16, (2, 0, 0, 2): 1 / 16,
    (0, 2, 2, 0): 1 / 16, (0, 0, 2, 2): 1 / 16,
    (1, 1, 1, 1): 1 / 4,
}

BUNCHED_MINUS_PROBS = {
    (4, 0, 0, 0): 6 / 64, (0, 0, 4, 0): 6 / 64,
    (0, 4, 0, 0): 6 / 64, (0, 0, 0, 4): 6 / 64,
    (2, 0, 2, 0): 4 / 64, (0, 2, 0, 2): 4 / 64,
    (2, 1, 0, 1): 1 / 8, (1, 2, 1, 0): 1 / 8,
    (1, 0, 1, 2): 1 / 8, (0, 1, 2, 1): 1 / 8,
}

# The same expansions in a convention whose reflected arms carry phase i
# (signs there differ from ours by mode-local phase redefinitions only).
REPHASED_PLUS_AMPS = {
    (4, 0, 0, 0): -SQ6 / 8, (0, 0, 4, 0): -SQ6 / 8,
    (0, 4, 0, 0): -SQ6 / 8, (0, 0, 0, 4): -SQ6 / 8,
    (2, 0, 2, 0): -0.25, (0, 2, 0, 2): -0.25,
    (2, 2, 0, 0): -0.25, (2, 0, 0, 2): 0.25,
    (0, 2, 2, 0): 0.25, (0, 0, 2, 2): -0.25,
    (1, 1, 1, 1): -0.5,
}

REPHASED_MINUS_AMPS = {
    (4, 0, 0, 0): -SQ6 / 8, (0, 0, 4, 0): -SQ6 / 8,
    (0, 4, 0, 0): SQ6 / 8, (0, 0, 0, 4): SQ6 / 8,
    (2, 0, 2, 0): -0.25, (0, 2, 0, 2): 0.25,
    (2, 1, 0, 1): 1j * SQ2 / 4, (1, 2, 1, 0): -1j * SQ2 / 4,
    (1, 0, 1, 2): 1j * SQ2 / 4, (0, 1, 2, 1): -1j * SQ2 / 4,
}


def polynomial_oracle(parity: int) -> dict[tuple[int, ...], float]:
    """Hand expansion of [(x_H^2 + parity * x_V^2) / 2] * [(y_H^2 + y_V^2) / 2]
    under x -> (a + b)/sqrt(2), y -> (a - b)/sqrt(2), independent of the
    engine's operator machinery.  Returns pattern -> probability over the
    slots (a_H, a_V, b_H, b_V)."""
    def sub(var: int):
        # creation operator of input var (0 = x, 1 = y): list of (slot vec, coeff)
        sign = 1.0 if var == 0 else -1.0
        return lambda pol: [
            ((1 if pol == 0 else 0, 1 if pol == 1 else 0, 0, 0), 1 / SQ2),
            ((0, 0, 1 if pol == 0 else 0, 1 if pol == 1 else 0), sign / SQ2),
        ]

    poly: dict[tuple[int, int, int, int], float] = {(0, 0, 0, 0): 1.0}

    def multiply(factor):
        nonlocal poly
        out: dict[tuple[int, int, int, int], float] = {}
        for mono, coeff in poly.items():
            for vec, c in factor:
                key = tuple(m + v for m, v in zip(mono, vec))
                out[key] = out.get(key, 0.0) + coeff * c
        poly = out

    # (x_pol)^2 terms with weights 1/2, parity/2; (y_H^2 + y_V^2)/2.
    terms: dict[tuple[int, ...], float] = {}
    for x_pol, wx in ((0, 0.5), (1, 0.5 * parity)):
        for y_pol, wy in ((0, 0.5), (1, 0.5)):
            poly = {(0, 0, 0, 0): 1.0}
            multiply(sub(0)(x_pol))
            multiply(sub(0)(x_pol))
            multiply(sub(1)(y_pol))
            multiply(sub(1)(y_pol))
            for mono, coeff in poly.items():
                terms[mono] = terms.get(mono, 0.0) + wx * wy * coeff
    # Bosonic normalization: the 1/2 weights above already hold the input
    # 1/sqrt(2!) factors, so the amplitude for K is just coeff * sqrt(K!).
    dist = {}
    for mono, coeff in terms.items():
        weight = coeff * math.sqrt(math.prod(math.factorial(k) for k in mono))
        if abs(weight) > 1e-12:
            dist[mono] = weight**2
    return dist


class TestFourPhotonOracle:
    def test_oracle_reproduces_frozen_tables(self):
        plus = polynomial_oracle(+1)
        minus = polynomial_oracle(-1)
        assert set(plus) == set(BUNCHED_PLUS_PROBS)
        assert set(minus) == set(BUNCHED_MINUS_PROBS)
        for pattern, prob in BUNCHED_PLUS_PROBS.items():
            assert abs(plus[pattern] - prob) < 1e-12
        for pattern, prob in BUNCHED_MINUS_PROBS.items():
            assert abs(minus[pattern] - prob) < 1e-12

    def test_frozen_tables_sum_to_one(self):
        assert abs(sum(BUNCHED_PLUS_PROBS.values()) - 1.0) < 1e-15
        assert abs(sum(BUNCHED_MINUS_PROBS.values()) - 1.0) < 1e-15


def bell_pair_density(config: ExperimentConfig) -> np.ndarray:
    """Pair-preparation density of photons 1 and 2 over their flavor
    branches, each weighted by its post-selection probability."""
    rho = np.zeros((4, 4), dtype=complex)
    for weight, flavors in flavor_branches((1, 2), config):
        state, prob = prepare_bell_pair(1, 2, (flavors[1], flavors[2]))
        rho += weight * prob * pair_density(state, 1, 2)
    return rho


class TestBellPairPreparation:
    def test_ideal_pair_is_phi_plus(self):
        state, prob = prepare_bell_pair(1, 2)
        assert abs(prob - 0.5) < 1e-12
        assert abs(pair_projection_prob(pair_density(state, 1, 2), PHI_PLUS_TARGET) - 1.0) < 1e-12

    def test_distinguishable_pair_fidelity_half(self):
        state, prob = prepare_bell_pair(1, 2, (1, 2))
        assert abs(prob - 0.5) < 1e-12
        assert abs(pair_projection_prob(pair_density(state, 1, 2), PHI_PLUS_TARGET) - 0.5) < 1e-12

    def test_overlap_interpolates_fidelity(self):
        # Wave packets are polarization-correlated after the splitter, so
        # the coincidence fidelity is (1 + V)/2.
        for overlap in (0.25, 0.5, 0.9):
            rho = bell_pair_density(ExperimentConfig(overlap=overlap))
            assert abs(np.trace(rho) - 0.5) < 1e-12
            fid = pair_projection_prob(rho, PHI_PLUS_TARGET)
            assert abs(fid - (1 + overlap) / 2) < 1e-12


class TestNoonPreparation:
    def test_ideal_amplitudes(self):
        state = prepare_noon_pair(5, 6)
        amp_h = state.amplitude(occupation({Mode(5, H): 2}))
        amp_v = state.amplitude(occupation({Mode(5, V): 2}))
        assert abs(abs(amp_h) - 1 / SQ2) < 1e-12
        assert abs(abs(amp_v) - 1 / SQ2) < 1e-12
        assert abs(state.norm_squared() - 1.0) < 1e-12

    def test_bunching_after_splitter_alone(self):
        photons = compose(
            create_photons([(Mode(5, H), 1)]), create_photons([(Mode(6, H), 1)])
        )
        out = apply_op(photons, BeamSplitter(5, 6))
        dist = pattern_distribution(out, [(5, None), (6, None)])
        assert abs(dist.get((2, 0), 0.0) - 0.5) < 1e-12
        assert abs(dist.get((0, 2), 0.0) - 0.5) < 1e-12

    def test_everything_lands_on_output_rail(self):
        for overlap in (1.0, 0.6, 0.0):
            for _, flavors in flavor_branches((5, 6), ExperimentConfig(overlap=overlap)):
                state = prepare_noon_pair(5, 6, (flavors[5], flavors[6]))
                assert state.ports() == {5}

    def test_distinguishable_photons_leak_mixed_polarization(self):
        state = prepare_noon_pair(5, 6, (5, 6))
        dist = pattern_distribution(state, [(5, H), (5, V)])
        assert abs(dist.get((1, 1), 0.0) - 0.5) < 1e-12


class TestMemoizedPreparations:
    def test_cached_states_are_read_only(self):
        bell, _ = prepare_bell_pair(PORT_KEEP_A, PORT_FUSE_A, (1, 2))
        noon = prepare_noon_pair(PORT_ANCILLA_A, 6, (5, 0))
        pair = bell_state(PORT_FUSE_A, PORT_FUSE_B, BellLabel.PSI_PLUS, 2, 0)
        assert prepare_noon_pair(PORT_ANCILLA_A, 6, (5, 0)) is noon
        assert bell_state(PORT_FUSE_A, PORT_FUSE_B, BellLabel.PSI_PLUS, 2, 0) is pair
        for state in (bell, noon, pair):
            for array in (state.occ, state.amps):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0

    def test_preparations_reject_bad_arguments(self):
        with pytest.raises(ValueError, match="unknown polarization 'D'"):
            single_photon(0, {H: 0.6, "D": 0.8})
        with pytest.raises(ValueError, match="two distinct ports"):
            bell_state(PORT_FUSE_A, PORT_FUSE_A, BellLabel.PSI_PLUS)

    def test_repeated_runs_are_bit_identical(self):
        config = ExperimentConfig(overlap=0.95)
        first, second = (
            run_fusion(BellLabel.PSI_MINUS, config).pattern_probs for _ in range(2)
        )
        assert list(first) == list(second)
        assert [p.hex() for p in first.values()] == [p.hex() for p in second.values()]


def accumulated_tables(fusion_input, config: ExperimentConfig):
    """run_fusion's pattern table and heralded densities, summed branch by
    branch and pattern by pattern in dict order: weight * prob from
    pattern_distribution, and weight * pair_density of each partition
    part."""
    full = fusion_input == FULL_PREPARATION
    photon_ids = (1, 2, 3, 4, 5, 6, 7, 8) if full else (2, 3, 5, 6, 7, 8)
    prepared = []
    for weight, f in flavor_branches(photon_ids, config):
        if full:
            state, prob = full_preparation(f)
        else:
            state, prob = compose(
                bell_state(PORT_FUSE_A, PORT_FUSE_B, fusion_input, f[2], f[3]),
                prepare_noon_pair(PORT_ANCILLA_A, 6, (f[5], f[6])),
                prepare_noon_pair(PORT_ANCILLA_B, 8, (f[7], f[8])),
            ), 1.0
        prepared.append((weight * prob, state))
    total = math.fsum(weight for weight, _ in prepared)
    network, groups = build_fusion_network(config), detection_groups(config)
    probs, densities = {}, {}
    for weight, state in prepared:
        weight /= total
        out = apply_network(state, network)
        for pattern, prob in pattern_distribution(out, groups).items():
            probs[pattern] = probs.get(pattern, 0.0) + weight * prob
        if not full:
            continue
        for pattern, part in partition(out, groups).items():
            rho = weight * pair_density(part, PORT_KEEP_A, PORT_KEEP_B)
            if pattern in densities:
                rho = rho + densities[pattern]
            densities[pattern] = rho
    return probs, densities


class TestAccumulationOracle:
    """run_fusion's accumulation equals the plain dict loop, item by item:
    same keys in the same order, same bits."""

    @staticmethod
    def assert_same_table(table, oracle):
        assert list(table) == list(oracle)
        assert [p.hex() for p in table.values()] == [p.hex() for p in oracle.values()]

    @pytest.mark.parametrize("label", list(BellLabel))
    def test_bell_inputs_at_v95(self, label):
        config = ExperimentConfig(overlap=0.95)
        probs, _ = accumulated_tables(label, config)
        self.assert_same_table(run_fusion(label, config).pattern_probs, probs)

    def test_full_preparation_with_two_branches(self):
        config = ExperimentConfig(per_photon_overlap=(1.0, 0.9) + (1.0,) * 6)
        assert len(flavor_branches(range(1, N_PHOTONS + 1), config)) == 2
        probs, densities = accumulated_tables(FULL_PREPARATION, config)
        result = run_fusion(FULL_PREPARATION, config)
        self.assert_same_table(result.pattern_probs, probs)
        assert list(result.conditional_states) == list(densities) == list(probs)
        for pattern, rho in densities.items():
            assert result.conditional_states[pattern].tobytes() == rho.tobytes()


#: Bundled evolution is checked on every flavor branch of these configs.
BUNDLE_CONFIGS = {
    "v95": ExperimentConfig(overlap=0.95),
    "per-photon-no-ancilla": ExperimentConfig(
        ancilla_enabled=False, per_photon_overlap=(1.0, 0.9, 0.8) + (1.0,) * 5
    ),
    "phase": ExperimentConfig(overlap=0.9, phase=0.3),
}


class TestBundledEvolution:
    """run_fusion evolves the Bell inputs of a branch that share their rows
    as one bundle, bundling the members again by their rows after each
    element; every member equals its input's lone evolution, bit for bit."""

    @pytest.mark.parametrize("name", BUNDLE_CONFIGS)
    def test_members_match_lone_evolution(self, name):
        config = BUNDLE_CONFIGS[name]
        network = build_fusion_network(config)
        branches = zip(*(_prepared(label, config) for label in BellLabel))
        splits = 0
        for branch in branches:
            lone = {label: state for label, (_, state) in zip(BellLabel, branch)}
            bundles = _bundles(lone.items())
            # Phi+/Phi- and Psi+/Psi- hold the same rows.
            assert [set(tags) for tags, _ in bundles] == [
                {BellLabel.PHI_PLUS, BellLabel.PHI_MINUS},
                {BellLabel.PSI_PLUS, BellLabel.PSI_MINUS},
            ]
            for op in network:
                splits += len(bundles)
                bundles = [new for tags, states in bundles
                           for new in _bundles(zip(tags, apply_op(tuple(states), op)))]
                splits -= len(bundles)
                lone = {label: apply_op(state, op) for label, state in lone.items()}
                assert sorted(label.value for tags, _ in bundles for label in tags) == sorted(
                    label.value for label in BellLabel
                )
                for tags, states in bundles:
                    assert all(state.occ is states[0].occ for state in states)
                    for label, state in zip(tags, states):
                        alone = lone[label]
                        assert state.modes == alone.modes
                        assert state.occ.shape == alone.occ.shape
                        assert state.occ.tobytes() == alone.occ.tobytes()
                        assert state.amps.tobytes() == alone.amps.tobytes()
        if name == "v95":
            assert splits < 0  # some bundle split, so re-bundling ran

    def test_tuple_call_equals_single_calls(self):
        """Inputs with different branch counts share one call: the full
        preparation has four branches here and each Bell input two."""
        config = ExperimentConfig(
            ancilla_enabled=False, per_photon_overlap=(0.9, 1.0, 0.8) + (1.0,) * 5
        )
        inputs = (FULL_PREPARATION, BellLabel.PSI_MINUS, BellLabel.PSI_PLUS)
        for together, item in zip(run_fusion(inputs, config), inputs):
            alone = run_fusion(item, config)
            assert list(together.pattern_probs) == list(alone.pattern_probs)
            assert [p.hex() for p in together.pattern_probs.values()] == [
                p.hex() for p in alone.pattern_probs.values()
            ]
            if item == FULL_PREPARATION:
                for pattern, rho in alone.conditional_states.items():
                    assert together.conditional_states[pattern].tobytes() == rho.tobytes()
            else:
                assert together.conditional_states is None

    def test_apply_op_returns_each_member_as_its_lone_evolution(self):
        config = ExperimentConfig(overlap=0.95)
        op = build_fusion_network(config)[0]
        bundles = [bundle for branch in zip(*(_prepared(label, config) for label in BellLabel))
                   for bundle in _bundles((label, state) for label, (_, state) in
                                          zip(BellLabel, branch))]
        pruned = 0
        for tags, states in bundles:
            out = apply_op(tuple(states), op)
            for state, member in zip(out, states):
                alone = apply_op(member, op)
                assert state.modes == alone.modes
                assert state.occ.shape == alone.occ.shape
                assert state.occ.tobytes() == alone.occ.tobytes()
                assert state.amps.tobytes() == alone.amps.tobytes()
                assert (state.amps != 0).all()
            for a, b in itertools.combinations(out, 2):
                same = a.occ.shape == b.occ.shape and a.occ.tobytes() == b.occ.tobytes()
                assert (a.occ is b.occ) == same
                pruned += not same
        assert pruned  # some member dropped rows that its partner keeps

    def test_input_order_does_not_move_bits(self):
        """The order of the inputs decides which member leads each bundle;
        every input still gets the bits of its single call."""
        config = BUNDLE_CONFIGS["per-photon-no-ancilla"]
        labels = tuple(BellLabel)
        alone = {label: run_fusion(label, config) for label in labels}
        for order in (labels, labels[::-1], labels[::2] + labels[1::2]):
            for label, result in zip(order, run_fusion(order, config)):
                assert list(result.pattern_probs) == list(alone[label].pattern_probs)
                assert [p.hex() for p in result.pattern_probs.values()] == [
                    p.hex() for p in alone[label].pattern_probs.values()
                ]


def row_sets(config: ExperimentConfig) -> tuple[int, int]:
    """Distinct (element, modes, rows) sets met when each Bell input of each
    branch is evolved alone, and the number of element applications."""
    network = build_fusion_network(config)
    seen, applications = set(), 0
    for label in BellLabel:
        for _, state in _prepared(label, config):
            for i, op in enumerate(network):
                seen.add((i, state.modes, state.occ.shape, state.occ.tobytes()))
                state = apply_op(state, op)
                applications += 1
    return len(seen), applications


def test_each_row_set_is_evolved_once(monkeypatch):
    """success_probability applies an element once per distinct row set of
    the four Bell inputs, not once per input: at V=0.95 that is 420
    applications where separate evolution makes 768.  The ideal table at
    V=1 adds its own row sets."""
    config = ExperimentConfig(overlap=0.95)
    calls = []

    def counting(state, op):
        calls.append(op)
        return apply_op(state, op)

    monkeypatch.setattr(experiment, "apply_op", counting)
    detection.success_probability(config)
    monkeypatch.undo()
    assert row_sets(config) == (420, 768)
    assert len(calls) == row_sets(replace(config, overlap=1.0))[0] + 420


class TestPairDensities:
    """_pair_densities over a branch's runs equals pair_density of each
    partition part, bit for bit."""

    CONFIG = ExperimentConfig(per_photon_overlap=(1.0, 0.9) + (1.0,) * 6)

    def test_runs_match_per_part_densities(self):
        network = build_fusion_network(self.CONFIG)
        groups = detection_groups(self.CONFIG)
        branches = flavor_branches(range(1, N_PHOTONS + 1), self.CONFIG)
        assert len(branches) == 2
        for _, flavors in branches:
            out = apply_network(full_preparation(flavors)[0], network)
            order, _, bounds = _parts(out, groups)
            rhos = _pair_densities(out, order, bounds, PORT_KEEP_A, PORT_KEEP_B)
            parts = partition(out, groups)
            assert len(rhos) == len(parts)
            for rho, part in zip(rhos, parts.values()):
                oracle = pair_density(part, PORT_KEEP_A, PORT_KEEP_B)
                assert rho.tobytes() == oracle.tobytes()

    def test_empty_state_has_zero_density(self):
        rho = pair_density(FockState({}), 1, 4)
        assert rho.tobytes() == np.zeros((4, 4), dtype=complex).tobytes()


def test_full_preparation_with_ancillas_below_unit_overlap_keeps_its_bits():
    """Pins the probabilities (float.hex) and heralded densities (raw
    bytes), in table order, of a 16-branch full preparation whose largest
    branch has 11,520 output rows."""
    config = ExperimentConfig(per_photon_overlap=(1.0, 0.9, 0.9, 1.0, 1.0, 0.9, 1.0, 0.9))
    assert len(flavor_branches(range(1, N_PHOTONS + 1), config)) == 16
    result = run_fusion(FULL_PREPARATION, config)
    probs = "".join(p.hex() for p in result.pattern_probs.values()).encode()
    rhos = b"".join(rho.tobytes() for rho in result.conditional_states.values())
    assert hashlib.sha256(probs).hexdigest() == (
        "3ed8589a96c2ce25ad21e61d665cf01564a5f69a8baf3d4bf686f708e81a0faf")
    assert hashlib.sha256(rhos).hexdigest() == (
        "af701fdc0215a294dafd97ffbab4c2bfac2d39f0d08d903dbcd697c147d696dc")


def branch_hom_visibility(config: ExperimentConfig) -> float:
    """1 - 2 P_cc of photons 1 and 2 on a 50:50 splitter, summed over the
    flavor branches of ``config``."""
    dip = 0.0
    for weight, flavors in flavor_branches((1, 2), config):
        photons = compose(
            single_photon(0, {H: 1.0}, flavors[1]),
            single_photon(1, {H: 1.0}, flavors[2]),
        )
        out = apply_op(photons, BeamSplitter(0, 1))
        dip += weight * pattern_distribution(out, [(0, None), (1, None)]).get((1, 1), 0.0)
    return 1.0 - 2.0 * dip


def shared_wave_packet(config: ExperimentConfig, i: int, j: int) -> float:
    """Probability that photons i and j are both in the common flavor."""
    return math.fsum(
        weight
        for weight, flavors in flavor_branches((i, j), config)
        if flavors[i] == flavors[j] == 0
    )


class TestFlavorAssignment:
    """Each flavor branch gives every photon exactly one wave packet."""

    def test_renamed_private_flavors_evolve_alike(self):
        """Elements treat flavors alike, so a Bell input whose private
        flavors are renamed in order evolves to the same bits, off the
        monomials that the first evolution cached."""
        network = build_fusion_network(ExperimentConfig())

        def bell_input(scale):
            f = {2: 2 * scale, 3: 0, 5: 5 * scale, 6: 0, 7: 7 * scale, 8: 8 * scale}
            return compose(
                bell_state(PORT_FUSE_A, PORT_FUSE_B, BellLabel.PHI_PLUS, f[2], f[3]),
                prepare_noon_pair(PORT_ANCILLA_A, 6, (f[5], f[6])),
                prepare_noon_pair(PORT_ANCILLA_B, 8, (f[7], f[8])),
            )

        first, renamed = bell_input(1), bell_input(10)
        first = apply_network(first, network)
        misses = fock._monomials.cache_info().misses
        renamed = apply_network(renamed, network)
        assert fock._monomials.cache_info().misses == misses
        assert renamed.modes == tuple(m._replace(flavor=10 * m.flavor) for m in first.modes)
        assert renamed.occ.tobytes() == first.occ.tobytes()
        assert renamed.amps.tobytes() == first.amps.tobytes()

    def test_perfect_overlap_single_component(self):
        branches = flavor_branches((1, 2, 3), ExperimentConfig(overlap=1.0))
        assert branches == [(1.0, {1: 0, 2: 0, 3: 0})]
        assert branches[0][0] == 1.0

    def test_zero_overlap_private_flavors(self):
        branches = flavor_branches((1, 2), ExperimentConfig(overlap=0.0))
        assert branches == [(1.0, {1: 1, 2: 2})]

    def test_photon_ids_start_at_one(self):
        with pytest.raises(ValueError, match="photon ids must be positive"):
            flavor_branches((1, 0), ExperimentConfig(overlap=0.5))

    def test_pairwise_squared_overlap_equals_setting(self):
        for overlap in (0.3, 0.5, 0.9076):
            config = ExperimentConfig(overlap=overlap)
            assert abs(shared_wave_packet(config, 1, 2) - overlap) < 1e-12
            assert abs(hom_visibility(overlap) - overlap) < 1e-12
            assert abs(branch_hom_visibility(config) - overlap) < 1e-12

    def test_per_photon_override(self):
        cfg = ExperimentConfig(per_photon_overlap=(1.0, 0.49) + (1.0,) * 6)
        assert abs(shared_wave_packet(cfg, 1, 2) - 0.7) < 1e-12
        assert abs(branch_hom_visibility(cfg) - 0.7) < 1e-12
        cfg = ExperimentConfig(per_photon_overlap=(0.81, 0.64) + (1.0,) * 6)
        assert abs(branch_hom_visibility(cfg) - 0.72) < 1e-12

    def test_half_overlap_dip(self):
        assert abs(hom_dip(0.5) - 0.25) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=N_PHOTONS, max_size=N_PHOTONS
        )
    )
    def test_weights_sum_to_one(self, overlaps):
        config = ExperimentConfig(per_photon_overlap=tuple(overlaps))
        branches = flavor_branches(range(1, N_PHOTONS + 1), config)
        # Each photon of overlap strictly between 0 and 1 doubles the
        # branches (fewer only where a product of weights underflows).
        assert len(branches) <= 2 ** sum(0.0 < v < 1.0 for v in overlaps)
        assert all(weight > 0.0 for weight, _ in branches)
        assert abs(math.fsum(weight for weight, _ in branches) - 1.0) < 1e-12
        assert len({tuple(flavors.values()) for _, flavors in branches}) == len(branches)

    def test_branch_weight_is_exactly_one_at_full_overlap(self):
        """V = 1 evolves one branch of weight 1.0, so every V = 1 number is
        the single coherent run's, bit for bit."""
        config = ExperimentConfig()
        assert flavor_branches(range(1, N_PHOTONS + 1), config) == [
            (1.0, {pid: 0 for pid in range(1, N_PHOTONS + 1)})
        ]
        state = compose(
            bell_state(PORT_FUSE_A, PORT_FUSE_B, BellLabel.PHI_MINUS),
            prepare_noon_pair(PORT_ANCILLA_A, 6),
            prepare_noon_pair(PORT_ANCILLA_B, 8),
        )
        direct = pattern_distribution(
            apply_network(state, build_fusion_network(config)), detection_groups(config)
        )
        assert run_fusion(BellLabel.PHI_MINUS, config).pattern_probs == direct


class TestHOM:
    def test_dip_endpoints(self):
        assert abs(hom_dip(1.0)) < 1e-12
        assert abs(hom_dip(0.0) - 0.5) < 1e-12

    def test_dip_matches_closed_form(self):
        for overlap in np.linspace(0.0, 1.0, 11):
            assert abs(hom_dip(float(overlap)) - (1 - overlap) / 2) < 1e-12

    def test_visibility_equals_overlap(self):
        assert abs(hom_visibility(0.9076) - 0.9076) < 1e-12


class TestFusionNetwork:
    def test_unboosted_network_is_one_splitter(self):
        net = build_fusion_network(ExperimentConfig(ancilla_enabled=False))
        assert len(net) == 1
        assert isinstance(net[0], BeamSplitter)

    def test_boosted_network_has_three_splitters(self):
        net = build_fusion_network(ExperimentConfig())
        splitters = [op for op in net if isinstance(op, BeamSplitter)]
        assert len(splitters) == 3

    def test_phase_gadget_included_when_phased(self):
        net = build_fusion_network(ExperimentConfig(phase=0.7, ancilla_enabled=False))
        assert len(net) == 4  # fold out, shift, fold back, splitter

    def test_network_preserves_norm_on_random_inputs(self):
        rng = np.random.default_rng(9)
        net = build_fusion_network(ExperimentConfig(phase=0.3))
        for _ in range(5):
            placements = {}
            for _ in range(6):
                port = int(rng.choice([2, 3, 5, 7]))
                pol = H if rng.random() < 0.5 else V
                mode = Mode(port, pol, int(rng.integers(0, 2)))
                placements[mode] = placements.get(mode, 0) + 1
            state = FockState({occupation(placements): 1.0})
            out = apply_network(state, net)
            assert abs(out.norm_squared() - 1.0) < 1e-11


def bunched_splitter_amplitudes(label: BellLabel) -> dict[tuple[int, ...], complex]:
    """Amplitudes over (2H, 2V, 5H, 5V) for the branch where both fused
    photons exit toward the first ancilla splitter."""
    state = compose(
        bell_state(PORT_FUSE_A, PORT_FUSE_B, label),
        prepare_noon_pair(PORT_ANCILLA_A, 6),
    )
    state = apply_op(state, BeamSplitter(PORT_FUSE_A, PORT_FUSE_B))
    state, _ = project_port_counts(state, {PORT_FUSE_A: 2, PORT_FUSE_B: 0})
    state = apply_op(state, BeamSplitter(PORT_FUSE_A, PORT_ANCILLA_A))
    slots = (
        Mode(PORT_FUSE_A, H), Mode(PORT_FUSE_A, V),
        Mode(PORT_ANCILLA_A, H), Mode(PORT_ANCILLA_A, V),
    )
    amps = {}
    for occ, amp in state.items():
        counts = dict(occ)
        pattern = tuple(counts.get(m, 0) for m in slots)
        assert sum(pattern) == 4
        amps[pattern] = amp
    return amps


def phases_match(sim: dict, target: dict) -> bool:
    """True when some per-mode phase redefinition (quarter-turn grid) plus a
    global phase maps the simulated amplitudes onto the target ones."""
    patterns = sorted(target)
    if set(sim) != set(target):
        return False
    quarter = (1, 1j, -1, -1j)
    for ph in itertools.product(quarter, repeat=4):
        rephased = {
            p: sim[p] * math.prod(ph[i] ** p[i] for i in range(4)) for p in patterns
        }
        ref = patterns[0]
        if abs(rephased[ref]) < 1e-12:
            continue
        global_phase = target[ref] / rephased[ref]
        if abs(abs(global_phase) - 1.0) > 1e-9:
            continue
        if all(
            abs(rephased[p] * global_phase - target[p]) < 1e-9 for p in patterns
        ):
            return True
    return False


class TestFusionRuns:
    def test_bunched_plus_distribution(self):
        result = run_fusion(BellLabel.PHI_PLUS, ExperimentConfig())
        side = result.side_distribution((PORT_FUSE_A, PORT_ANCILLA_A), 4)
        assert set(side) == set(BUNCHED_PLUS_PROBS)
        for pattern, prob in BUNCHED_PLUS_PROBS.items():
            assert abs(side[pattern] - prob) < 1e-9
        # No pattern puts seven photons on one side.
        assert result.side_distribution((PORT_FUSE_A, PORT_ANCILLA_A), 7) == {}

    def test_bunched_minus_distribution(self):
        result = run_fusion(BellLabel.PHI_MINUS, ExperimentConfig())
        side = result.side_distribution((PORT_FUSE_A, PORT_ANCILLA_A), 4)
        assert set(side) == set(BUNCHED_MINUS_PROBS)
        for pattern, prob in BUNCHED_MINUS_PROBS.items():
            assert abs(side[pattern] - prob) < 1e-9

    def test_sign_structure_up_to_mode_phases(self):
        """Amplitude signs agree with the reflected-phase-i convention after
        a per-mode phase redefinition (the magnitudes agree outright)."""
        assert phases_match(
            bunched_splitter_amplitudes(BellLabel.PHI_PLUS), REPHASED_PLUS_AMPS
        )
        assert phases_match(
            bunched_splitter_amplitudes(BellLabel.PHI_MINUS), REPHASED_MINUS_AMPS
        )

    def test_singlet_always_antibunches(self):
        result = run_fusion(BellLabel.PSI_MINUS, ExperimentConfig())
        split = sum(
            prob
            for pattern, prob in result.pattern_probs.items()
            if sum(pattern[:4]) == 3 and sum(pattern[4:]) == 3
        )
        assert abs(split - 1.0) < 1e-9

    def test_pattern_probabilities_sum_to_one(self):
        for label in BellLabel:
            for overlap in (1.0, 0.9):
                result = run_fusion(label, ExperimentConfig(overlap=overlap))
                assert abs(sum(result.pattern_probs.values()) - 1.0) < 1e-9

    def test_full_preparation_probability(self):
        _, prob = full_preparation({pid: 0 for pid in range(1, N_PHOTONS + 1)})
        assert abs(prob - 0.25) < 1e-12

    def test_full_preparation_matches_uniform_mixture(self):
        """At perfect overlap the fused halves reduce to the uniform Bell
        mixture, so the full preparation reproduces the averaged labels."""
        cfg = ExperimentConfig()
        full = run_fusion(FULL_PREPARATION, cfg)
        mix: dict = {}
        for label in BellLabel:
            for pattern, prob in run_fusion(label, cfg).pattern_probs.items():
                mix[pattern] = mix.get(pattern, 0.0) + 0.25 * prob
        assert set(full.pattern_probs) == set(mix)
        for pattern, prob in mix.items():
            assert abs(full.pattern_probs[pattern] - prob) < 1e-9

    def test_heralded_singlet_is_exact(self):
        result = run_fusion(FULL_PREPARATION, ExperimentConfig())
        for pattern, prob in result.pattern_probs.items():
            if sum(pattern[:4]) != 3:
                continue
            mixture = result.conditional_states[pattern]
            assert abs(singlet_fidelity(mixture) - 1.0) < 1e-9

    def test_conditional_weights_sum_to_pattern_probability(self):
        config = ExperimentConfig(overlap=0.94, ancilla_enabled=False)
        result = run_fusion(FULL_PREPARATION, config)
        for pattern, prob in result.pattern_probs.items():
            rho = result.conditional_states[pattern]
            assert rho.shape == (4, 4)
            assert abs(np.trace(rho) - prob) < 1e-9

    def test_conditional_branches_match_direct_post_selection(self):
        """The branch-weighted patterns and heralded densities must equal
        those of the coherent common-plus-private preparation, post-selected
        on every flavor-resolved detector occupation and summed as
        prob |psi><psi|, traced over the analyzer photons' flavors.  The
        unboosted bench keeps the state small enough for the quadratic
        direct path."""
        assert_matches_coherent_preparation(
            ExperimentConfig(overlap=0.95, ancilla_enabled=False)
        )

    def test_conditional_branches_match_coherent_per_photon_overlap(self):
        assert_matches_coherent_preparation(
            ExperimentConfig(
                per_photon_overlap=(0.99, 0.9, 0.95, 0.85) + (1.0,) * 4,
                ancilla_enabled=False,
            )
        )

    def test_run_fusion_is_deterministic(self):
        config = ExperimentConfig(overlap=0.93)
        one = run_fusion(BellLabel.PHI_PLUS, config)
        two = run_fusion(BellLabel.PHI_PLUS, config)
        assert one.pattern_probs == two.pattern_probs

    def test_unknown_input_rejected(self):
        with pytest.raises(ValueError, match="unknown fusion input"):
            run_fusion("everything", ExperimentConfig())


def coherent_unboosted_state(config: ExperimentConfig) -> FockState:
    """The unboosted bench with every photon in the coherent superposition
    sqrt(w) |common> + sqrt(1 - w) |private>, w = sqrt(v), built from the
    engine's primitives only: |+> photons 1-4, a PBS and plate per pair,
    a coincidence projection on both pairs, and the fusing splitter."""
    def photon(port: int, pid: int) -> FockState:
        w = math.sqrt(config.photon_overlap(pid))
        return superpose(
            (math.sqrt(share) / SQ2, create_photons([(Mode(port, pol, flavor), 1)]))
            for share, flavor in ((w, 0), (1.0 - w, pid))
            for pol in (H, V)
        )

    pairs = []
    for keep, fuse, pid_keep, pid_fuse in (
        (PORT_KEEP_A, PORT_FUSE_A, 1, 2),
        (PORT_KEEP_B, PORT_FUSE_B, 4, 3),
    ):
        state = compose(photon(keep, pid_keep), photon(fuse, pid_fuse))
        state = apply_op(state, PolarizingBeamSplitter(keep, fuse))
        state = apply_op(state, HalfWavePlate(fuse, 0.0))
        state, _ = project_port_counts(state, {keep: 1, fuse: 1})
        pairs.append(state)
    return apply_op(compose(*pairs), BeamSplitter(PORT_FUSE_A, PORT_FUSE_B))


def assert_matches_coherent_preparation(config: ExperimentConfig) -> None:
    evolved = coherent_unboosted_state(config)
    result = run_fusion(FULL_PREPARATION, config)
    groups = detection_groups(config)
    group_index = {g: i for i, g in enumerate(groups)}
    analyzer_ports = {PORT_KEEP_A, PORT_KEEP_B}
    pol_index = {H: 0, V: 1}

    detector_occs: dict[tuple[int, ...], set] = {}
    for occ, _ in evolved.items():
        detected = tuple(e for e in occ if e[0].port not in analyzer_ports)
        tally = [0] * len(groups)
        for mode, n in detected:
            tally[group_index[(mode.port, mode.pol)]] += n
        detector_occs.setdefault(tuple(tally), set()).add(detected)
    assert set(result.pattern_probs) == set(detector_occs)
    assert set(result.conditional_states) == set(detector_occs)

    for pattern, occs in detector_occs.items():
        oracle = np.zeros((4, 4), dtype=complex)
        for detected in occs:
            conditional, prob = post_select(evolved, dict(detected))
            vectors: dict[tuple[int, int], np.ndarray] = {}
            for occ, amp in conditional.terms.items():
                (mx, nx), (my, ny) = occ
                assert (mx.port, nx, my.port, ny) == (PORT_KEEP_A, 1, PORT_KEEP_B, 1)
                vec = vectors.setdefault(
                    (mx.flavor, my.flavor), np.zeros(4, dtype=complex)
                )
                vec[2 * pol_index[mx.pol] + pol_index[my.pol]] = amp
            for vec in vectors.values():
                oracle += prob * np.outer(vec, vec.conj())
        assert abs(result.pattern_probs[pattern] - np.trace(oracle).real) < 1e-12
        rho = result.conditional_states[pattern]
        assert np.max(np.abs(rho - oracle)) < 1e-12


class TestDistinguishableOracle:
    """At zero overlap photons route independently; an explicit classical
    enumeration over polarizations and splitter choices must reproduce the
    quantum engine exactly."""

    GROUP_INDEX = {g: i for i, g in enumerate(
        ((2, H), (2, V), (5, H), (5, V), (3, H), (3, V), (7, H), (7, V))
    )}

    def classical_distribution(self, pol_pairs_23):
        fusion_routes = [(2, 0.25), (5, 0.25), (3, 0.25), (7, 0.25)]
        rail_a = [(2, 0.5), (5, 0.5)]
        rail_b = [(3, 0.5), (7, 0.5)]
        dist: dict = {}
        for (p2, p3), w_pol in pol_pairs_23:
            for pol_a in itertools.product((H, V), repeat=2):
                for pol_b in itertools.product((H, V), repeat=2):
                    base = w_pol * 0.0625
                    for r2, w2 in fusion_routes:
                        for r3, w3 in fusion_routes:
                            for ra1, wa1 in rail_a:
                                for ra2, wa2 in rail_a:
                                    for rb1, wb1 in rail_b:
                                        for rb2, wb2 in rail_b:
                                            w = base * w2 * w3 * wa1 * wa2 * wb1 * wb2
                                            pat = [0] * 8
                                            gi = self.GROUP_INDEX
                                            pat[gi[(r2, p2)]] += 1
                                            pat[gi[(r3, p3)]] += 1
                                            pat[gi[(ra1, pol_a[0])]] += 1
                                            pat[gi[(ra2, pol_a[1])]] += 1
                                            pat[gi[(rb1, pol_b[0])]] += 1
                                            pat[gi[(rb2, pol_b[1])]] += 1
                                            key = tuple(pat)
                                            dist[key] = dist.get(key, 0.0) + w
        return dist

    @pytest.mark.parametrize(
        "label,pol_pairs",
        [
            (BellLabel.PHI_PLUS, (((H, H), 0.5), ((V, V), 0.5))),
            (BellLabel.PSI_MINUS, (((H, V), 0.5), ((V, H), 0.5))),
        ],
    )
    def test_engine_matches_classical_routing(self, label, pol_pairs):
        oracle = self.classical_distribution(pol_pairs)
        sim = run_fusion(label, ExperimentConfig(overlap=0.0)).pattern_probs
        assert set(oracle) == set(sim)
        for pattern, prob in oracle.items():
            assert abs(sim[pattern] - prob) < 1e-9


class TestAnalyzers:
    def test_singlet_correlations(self):
        state = superpose(
            [
                (1 / SQ2, create_photons([(Mode(1, H), 1), (Mode(4, V), 1)])),
                (-1 / SQ2, create_photons([(Mode(1, V), 1), (Mode(4, H), 1)])),
            ]
        )
        xx, yy, zz = pair_correlations(pair_density(state, 1, 4))
        assert abs(xx + 1) < 1e-12 and abs(yy + 1) < 1e-12 and abs(zz + 1) < 1e-12
        assert abs(singlet_fidelity(pair_density(state, 1, 4)) - 1.0) < 1e-12

    def test_product_state_correlations(self):
        state = create_photons([(Mode(1, H), 1), (Mode(4, V), 1)])
        xx, yy, zz = pair_correlations(pair_density(state, 1, 4))
        assert abs(xx) < 1e-12 and abs(yy) < 1e-12 and abs(zz + 1) < 1e-12
        assert abs(singlet_fidelity(pair_density(state, 1, 4)) - 0.5) < 1e-12

    def test_rejects_multiphoton_ports(self):
        state = create_photons([(Mode(1, H), 2)])
        with pytest.raises(ValueError):
            pair_correlations(pair_density(state, 1, 4))

    def test_flavor_is_traced_out(self):
        """A singlet whose two terms put photon 1 in different wave packets
        is an equal mixture of |HV> and |VH>, with singlet fidelity 1/2."""
        def singlet(flavor_hv: int, flavor_vh: int) -> FockState:
            hv = create_photons([(Mode(1, H, flavor_hv), 1), (Mode(4, V), 1)])
            vh = create_photons([(Mode(1, V, flavor_vh), 1), (Mode(4, H), 1)])
            return superpose([(1 / SQ2, hv), (-1 / SQ2, vh)])

        assert abs(singlet_fidelity(pair_density(singlet(0, 1), 1, 4)) - 0.5) < 1e-12
        assert abs(singlet_fidelity(pair_density(singlet(0, 0), 1, 4)) - 1.0) < 1e-12

    def test_rejects_missing_analyzer_photon(self):
        state = create_photons([(Mode(1, H), 1), (Mode(2, V), 1)])
        with pytest.raises(ValueError, match="port 4"):
            pair_density(state, 1, 4)

    def test_rejects_one_port_for_both_photons(self):
        state = create_photons([(Mode(1, H), 1), (Mode(4, V), 1)])
        with pytest.raises(ValueError, match="two distinct ports"):
            pair_density(state, 1, 1)

    def test_port_order_sets_tensor_order(self):
        # |H on port 1, V on port 4>: index 2 * pol_x + pol_y with H = 0.
        state = create_photons([(Mode(1, H), 1), (Mode(4, V), 1)])
        assert pair_density(state, 1, 4)[1, 1] == 1.0
        assert pair_density(state, 4, 1)[2, 2] == 1.0
        assert abs(np.trace(pair_density(state, 4, 1)) - 1.0) < 1e-15


class TestPhaseSweep:
    def test_perfect_overlap_full_visibility(self):
        points = phase_sweep(
            [0.0, math.pi / 2, math.pi], ExperimentConfig(ancilla_enabled=False)
        )
        values = [pt.coincidences["++"] for pt in points]
        assert abs(fringe_visibility(values) - 1.0) < 1e-9
        # (1 - cos(phase)) / 16 summed over both heralds
        assert abs(values[0]) < 1e-12
        assert abs(values[1] - 1 / 16) < 1e-12
        assert abs(values[2] - 1 / 8) < 1e-12

    def test_each_singlet_herald_carries_half_the_fringe(self):
        config = ExperimentConfig(ancilla_enabled=False, phase=1.3)
        table = detection.ideal_table(config)
        heralds = sorted(p for p, label in table.items() if label is BellLabel.PSI_MINUS)
        assert heralds == [(0, 1, 1, 0), (1, 0, 0, 1)]
        states = run_fusion(FULL_PREPARATION, config).conditional_states
        plus = np.kron([1, 1], [1, 1]) / 2
        for pattern in heralds:
            value = float((plus @ states[pattern] @ plus).real)
            assert abs(value - (1 - math.cos(1.3)) / 32) < 1e-15

    #: Reference coincidences ('++', '+-'), recorded when the sweep summed
    #: the projections of a hand-listed pair of singlet heralds; '--'
    #: equals '++' and '-+' equals '+-'.
    PER_PHOTON_FRINGE = {
        -7.0: ("0x1.70f0936fce69dp-6", "0x1.a3c3db240c65cp-4"),
        -5.25: ("0x1.2186bbe701ac7p-5", "0x1.6f3ca20c7f2a1p-4"),
        -3.5: ("0x1.cb6b8d11027a6p-4", "0x1.a4a39777ec2edp-7"),
        -1.75: ("0x1.26b81c2026ca2p-4", "0x1.b28fc7bfb26c5p-5"),
        0.0: ("0x1.3636e1403adc6p-7", "0x1.d93923d7f8a4bp-4"),
        1.3: ("0x1.8bc93d88f019cp-5", "0x1.3a1b613b87f36p-4"),
        1.75: ("0x1.26b81c2026ca3p-4", "0x1.b28fc7bfb26c4p-5"),
        3.5: ("0x1.cb6b8d11027a6p-4", "0x1.a4a39777ec2edp-7"),
        5.25: ("0x1.2186bbe701ac6p-5", "0x1.6f3ca20c7f2a2p-4"),
        7.0: ("0x1.70f0936fce69fp-6", "0x1.a3c3db240c65cp-4"),
    }

    def test_per_photon_overlaps_keep_their_bits(self):
        config = ExperimentConfig(
            per_photon_overlap=(1.0, 0.9, 0.8, 1.0, 0.7, 1.0, 1.0, 1.0),
            ancilla_enabled=False,
        )
        points = phase_sweep(list(self.PER_PHOTON_FRINGE), config)
        for pt in points:
            pp, pm = self.PER_PHOTON_FRINGE[pt.phase]
            assert {k: v.hex() for k, v in pt.coincidences.items()} == {
                "++": pp, "+-": pm, "-+": pm, "--": pp
            }

    def test_ancillas_are_switched_off(self):
        phases = [-3.5, 0.0, 1.3, 6.9]
        on = phase_sweep(phases, ExperimentConfig(overlap=0.9))
        off = phase_sweep(phases, ExperimentConfig(overlap=0.9, ancilla_enabled=False))
        assert [{k: v.hex() for k, v in pt.coincidences.items()} for pt in on] == [
            {k: v.hex() for k, v in pt.coincidences.items()} for pt in off
        ]

    def test_zero_overlap_flat_fringe(self):
        points = phase_sweep(
            [0.0, math.pi], ExperimentConfig(overlap=0.0, ancilla_enabled=False)
        )
        values = [pt.coincidences["++"] for pt in points]
        assert abs(fringe_visibility(values)) < 1e-9
        assert fringe_visibility([0.0, 0.0]) == 0.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            phase_sweep([], ExperimentConfig(ancilla_enabled=False))

    def test_bisection_finds_target_visibility(self):
        """Fringe contrast grows monotonically with overlap, so bisection
        pins the overlap that produces a 0.53 fringe."""
        def visibility(overlap: float) -> float:
            pts = phase_sweep(
                [0.0, math.pi],
                ExperimentConfig(overlap=overlap, ancilla_enabled=False),
            )
            return fringe_visibility([pt.coincidences["++"] for pt in pts])

        lo, hi = 0.0, 1.0
        for _ in range(30):
            mid = (lo + hi) / 2
            if visibility(mid) < 0.53:
                lo = mid
            else:
                hi = mid
        found = (lo + hi) / 2
        assert 0.0 < found < 1.0
        assert abs(visibility(found) - 0.53) < 1e-6
        # The fringe involves two pairwise exchanges, so contrast is V^2.
        assert abs(found - math.sqrt(0.53)) < 1e-6


class TestConfigValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            ExperimentConfig(overlap=1.2)
        with pytest.raises(ValueError):
            ExperimentConfig(phase=math.inf)
        with pytest.raises(ValueError):
            ExperimentConfig(per_photon_overlap=(0.5, 1.5))
        with pytest.raises(ValueError, match="per-photon overlaps must lie"):
            ExperimentConfig(per_photon_overlap=(0.5,) * 7 + (1.5,))

    @pytest.mark.parametrize("count", [0, 2, 7, 9])
    def test_per_photon_overlap_needs_one_weight_per_photon(self, count):
        with pytest.raises(ValueError, match="one weight per photon"):
            ExperimentConfig(per_photon_overlap=(0.9,) * count)

    def test_monotone_success_weight_decreases(self):
        # The bunched branch of an even-parity input loses weight as the
        # fused photons grow distinguishable.
        weights = []
        for overlap in (1.0, 0.95, 0.9):
            result = run_fusion(BellLabel.PHI_PLUS, ExperimentConfig(overlap=overlap))
            weights.append(
                sum(
                    prob
                    for pattern, prob in result.pattern_probs.items()
                    if sum(pattern[:4]) in (0, 4)
                )
            )
        assert weights[0] > weights[1] > weights[2]
