"""Core state representation and element algebra."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from fusionsim.fock import (
    H,
    V,
    MAX_PHOTONS,
    BeamSplitter,
    FockState,
    HalfWavePlate,
    Mode,
    PhaseShift,
    PolarizingBeamSplitter,
    apply_network,
    apply_op,
    compose,
    create_photons,
    occupation,
    partition,
    pattern_distribution,
    project_port_counts,
    superpose,
    vacuum,
    _group,
    _parts,
    _product,
)
from oracles import bosonic_product, post_select

SQ2 = math.sqrt(2)


def random_state(rng, ports=(0, 1, 2), total=4, flavors=(0, 1)):
    """Random normalized state with a fixed photon total."""
    modes = [Mode(p, pol, f) for p in ports for pol in (H, V) for f in flavors]
    terms = {}
    for _ in range(6):
        counts = {}
        for _ in range(total):
            m = modes[rng.integers(len(modes))]
            counts[m] = counts.get(m, 0) + 1
        amp = complex(rng.normal(), rng.normal())
        occ = occupation(counts)
        terms[occ] = terms.get(occ, 0j) + amp
    return FockState(terms).normalized()


ALL_OPS = [
    BeamSplitter(0, 1),
    BeamSplitter(1, 2, transmissivity=0.3),
    PhaseShift(0, 0.7),
    PhaseShift(2, -2.1),
    HalfWavePlate(1, math.pi / 4),
    HalfWavePlate(0, math.pi / 8),
    HalfWavePlate(2, 0.3),
    PolarizingBeamSplitter(0, 2),
    PolarizingBeamSplitter(1, 2),
]


class TestCreatePhotons:
    def test_vacuum(self):
        state = create_photons([])
        assert state.items() == [((), 1.0 + 0j)]
        assert state.n_photons() == 0

    def test_single_photon(self):
        state = create_photons([(Mode(0, H), 1)])
        assert abs(state.norm_squared() - 1.0) < 1e-15
        assert state.n_photons() == 1

    def test_four_photons_single_term(self):
        state = create_photons([(Mode(0, H), 2), (Mode(0, V), 2)])
        assert len(state) == 1
        assert state.n_photons() == 4
        assert abs(state.norm_squared() - 1.0) < 1e-15

    def test_duplicate_mode_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            create_photons([(Mode(0, H), 1), (Mode(0, H), 1)])

    def test_total_above_maximum_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            create_photons([(Mode(0, H), MAX_PHOTONS + 1)])

    def test_bad_polarization_rejected(self):
        with pytest.raises(ValueError, match="polarization"):
            create_photons([(Mode(0, "Q"), 1)])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="negative photon count -1"):
            create_photons([(Mode(0, H), -1)])
        with pytest.raises(ValueError, match="negative occupation -2"):
            occupation({Mode(0, H): 1, Mode(1, V): -2})

    def test_mixed_photon_numbers_rejected(self):
        state = FockState({occupation({Mode(0, H): 1}): 0.6,
                           occupation({Mode(0, H): 2}): 0.8})
        with pytest.raises(ValueError, match=r"mixes photon numbers \[1, 2\]"):
            state.n_photons()

    def test_empty_state(self):
        empty = FockState({})
        assert len(empty.normalized()) == 0
        assert len(superpose([])) == 0
        assert (empty == 3) is False


class TestElements:
    def test_hom_identity(self):
        """|1,1> on a 50:50 splitter bunches: (|2,0> - |0,2>)/sqrt(2)."""
        state = create_photons([(Mode(0, H), 1), (Mode(1, H), 1)])
        out = apply_op(state, BeamSplitter(0, 1))
        assert abs(out.amplitude(occupation({Mode(0, H): 2})) - 1 / SQ2) < 1e-12
        assert abs(out.amplitude(occupation({Mode(1, H): 2})) + 1 / SQ2) < 1e-12
        assert abs(out.amplitude(occupation({Mode(0, H): 1, Mode(1, H): 1}))) < 1e-12

    def test_single_photon_splits_evenly(self):
        state = create_photons([(Mode(0, H), 1)])
        out = apply_op(state, BeamSplitter(0, 1))
        dist = pattern_distribution(out, [(0, None), (1, None)])
        assert abs(dist[(1, 0)] - 0.5) < 1e-12
        assert abs(dist[(0, 1)] - 0.5) < 1e-12

    def test_hwp_at_45_flips_polarization(self):
        state = create_photons([(Mode(0, H), 1)])
        out = apply_op(state, HalfWavePlate(0, math.pi / 4))
        amp = out.amplitude(occupation({Mode(0, V): 1}))
        assert abs(abs(amp) - 1.0) < 1e-12

    def test_pbs_transmits_h_reflects_v(self):
        h_out = apply_op(create_photons([(Mode(0, H), 1)]), PolarizingBeamSplitter(0, 1))
        assert abs(h_out.amplitude(occupation({Mode(0, H): 1})) - 1.0) < 1e-12
        v_out = apply_op(create_photons([(Mode(0, V), 1)]), PolarizingBeamSplitter(0, 1))
        amp = v_out.amplitude(occupation({Mode(1, V): 1}))
        assert abs(amp - 1j) < 1e-12

    def test_unknown_port_untouched(self):
        state = create_photons([(Mode(7, H), 1)])
        assert apply_op(state, BeamSplitter(0, 1)) == state
        empty = FockState({})
        assert apply_op(empty, BeamSplitter(0, 1)) is empty

    def test_flavor_preserved(self):
        state = create_photons([(Mode(0, H, 3), 1)])
        out = apply_op(state, BeamSplitter(0, 1))
        for occ, _ in out.items():
            assert all(m.flavor == 3 for m, _ in occ)

    def test_phase_shift_rejects_non_finite_phase(self):
        # A NaN phase would give every row a NaN amplitude, which the prune
        # drops, leaving an empty state of norm 0.
        for phase in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                PhaseShift(0, phase)

    def test_half_wave_plate_rejects_non_finite_angle(self):
        for angle in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                HalfWavePlate(0, angle)

    def test_splitters_reject_bad_arguments(self):
        with pytest.raises(ValueError, match="transmissivity must lie"):
            BeamSplitter(0, 1, 1.5)
        with pytest.raises(ValueError, match="beam splitter needs two distinct ports"):
            BeamSplitter(1, 1)
        with pytest.raises(ValueError, match="polarizing beam splitter needs two"):
            PolarizingBeamSplitter(1, 1)

    def test_unknown_element_rejected(self):
        state = create_photons([(Mode(0, H), 1)])
        with pytest.raises(TypeError, match="unknown element"):
            apply_op(state, SimpleNamespace(port=0))


class TestBundles:
    """apply_op on a tuple of states on equal occ rows does the row work
    once: each member comes back as its lone evolution, bit for bit, and
    members that keep the same rows share one occ array."""

    def test_members_match_lone_evolution(self):
        rng = np.random.default_rng(11)
        pruned = 0
        for op in ALL_OPS:
            state = random_state(rng)
            tiny = state.amps * np.where(rng.random(len(state)) < 0.5, 1e-15, 1.0)
            members = tuple(FockState._of(state.modes, state.occ, amps)
                            for amps in (tiny, state.amps, -state.amps))
            out = apply_op(members, op)
            for member, evolved in zip(members, out):
                alone = apply_op(member, op)
                assert evolved.modes == alone.modes
                assert evolved.occ.shape == alone.occ.shape
                assert evolved.occ.tobytes() == alone.occ.tobytes()
                assert evolved.amps.tobytes() == alone.amps.tobytes()
                assert (evolved.amps != 0).all()
            for a, b in itertools.combinations(out, 2):
                same = a.occ.shape == b.occ.shape and a.occ.tobytes() == b.occ.tobytes()
                assert (a.occ is b.occ) == same
            pruned += len(out[0]) < len(out[1])
        assert pruned  # the tiny member dropped rows that its partners keep

    def test_lone_state_is_the_one_member_bundle(self):
        state = random_state(np.random.default_rng(3))
        lone = apply_op(state, BeamSplitter(0, 1))
        (member,) = apply_op((state,), BeamSplitter(0, 1))
        assert isinstance(lone, FockState)
        assert member.occ.tobytes() == lone.occ.tobytes()
        assert member.amps.tobytes() == lone.amps.tobytes()


class TestNetwork:
    def test_empty_network_is_identity(self):
        state = create_photons([(Mode(0, H), 2)])
        assert apply_network(state, ()) == state

    def test_phases_compose(self):
        state = create_photons([(Mode(0, H), 2)])
        two = apply_network(state, (PhaseShift(0, 0.4), PhaseShift(0, 1.1)))
        one = apply_op(state, PhaseShift(0, 1.5))
        for occ, amp in one.items():
            assert abs(two.amplitude(occ) - amp) < 1e-12

    def test_eight_photons_conserved_through_layered_splitters(self):
        rng = np.random.default_rng(11)
        network = (BeamSplitter(0, 1), BeamSplitter(0, 2), BeamSplitter(1, 2))
        for _ in range(5):
            state = random_state(rng, total=8)
            out = apply_network(state, network)
            assert out.n_photons() == 8
            assert abs(out.norm_squared() - 1.0) < 1e-11


class TestPostSelect:
    def test_full_support_of_single_term(self):
        state = create_photons([(Mode(0, H), 1), (Mode(1, V), 2)])
        rest, prob = post_select(state, {Mode(0, H): 1, Mode(1, V): 2})
        assert abs(prob - 1.0) < 1e-12
        assert rest.items() == [((), 1.0 + 0j)]

    def test_absent_pattern(self):
        state = create_photons([(Mode(0, H), 1)])
        rest, prob = post_select(state, {Mode(0, H): 2})
        assert prob == 0.0
        assert len(rest) == 0

    def test_pbs_coincidence_probability_is_half(self):
        """Oracle: expand (|H>+|V>)(|H>+|V>)/2 through the splitter by hand.

        With H transmitted and V reflected (phase i), the four product terms
        map to 0H1H, i*0H0V, i*1V1H, -1V0V; exactly the two one-per-port
        terms survive the coincidence, each with amplitude 1/2.
        """
        plus0 = superpose(
            [
                (1 / SQ2, create_photons([(Mode(0, H), 1)])),
                (1 / SQ2, create_photons([(Mode(0, V), 1)])),
            ]
        )
        plus1 = superpose(
            [
                (1 / SQ2, create_photons([(Mode(1, H), 1)])),
                (1 / SQ2, create_photons([(Mode(1, V), 1)])),
            ]
        )
        mixed = apply_op(compose(plus0, plus1), PolarizingBeamSplitter(0, 1))
        _, prob = project_port_counts(mixed, {0: 1, 1: 1})
        assert abs(prob - 0.5) < 1e-12
        # Oracle amplitudes for the surviving coincidence terms.
        assert abs(abs(mixed.amplitude(occupation({Mode(0, H): 1, Mode(1, H): 1}))) - 0.5) < 1e-12
        assert abs(abs(mixed.amplitude(occupation({Mode(0, V): 1, Mode(1, V): 1}))) - 0.5) < 1e-12

    def test_conditional_state_renormalized(self):
        state = superpose(
            [
                (0.6, create_photons([(Mode(0, H), 1), (Mode(1, H), 1)])),
                (0.8, create_photons([(Mode(0, V), 1), (Mode(1, H), 1)])),
            ]
        )
        rest, prob = post_select(state, {Mode(0, H): 1, Mode(0, V): 0})
        assert abs(prob - 0.36) < 1e-12
        assert abs(rest.norm_squared() - 1.0) < 1e-12


def fsum_of_squares(state):
    """Squared norm of ``state`` term by term in Python, the oracle of the
    vectorized squared norms."""
    return math.fsum(abs(a) ** 2 for a in state.amps.tolist())


class TestPatternDistribution:
    def test_single_term(self):
        state = create_photons([(Mode(0, H), 3)])
        dist = pattern_distribution(state, [(0, H), (0, V)])
        assert dist == {(3, 0): 1.0}

    def test_bunched_pair(self):
        state = superpose(
            [
                (1 / SQ2, create_photons([(Mode(0, H), 2)])),
                (-1 / SQ2, create_photons([(Mode(1, H), 2)])),
            ]
        )
        dist = pattern_distribution(state, [(0, None), (1, None)])
        assert abs(dist[(2, 0)] - 0.5) < 1e-12
        assert abs(dist[(0, 2)] - 0.5) < 1e-12

    def test_flavor_blind_grouping(self):
        state = create_photons([(Mode(0, H, 1), 1), (Mode(0, H, 2), 1)])
        dist = pattern_distribution(state, [(0, H)])
        assert dist == {(2,): 1.0}

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        state = random_state(rng)
        dist = pattern_distribution(state, [(0, None), (1, None), (2, None)])
        assert abs(sum(dist.values()) - 1.0) < 1e-9

    def test_overlapping_groups_rejected(self):
        state = create_photons([(Mode(0, H), 1)])
        with pytest.raises(ValueError, match="overlap"):
            pattern_distribution(state, [(0, H), (0, None)])

    @pytest.mark.parametrize(
        "flavors, groups",
        [
            ((0,), [(port, pol) for port in range(4) for pol in (H, V)]),
            ((0, 1), [(0, None), (1, H), (3, V)]),
        ],
    )
    def test_equals_partition_norms_bit_for_bit(self, flavors, groups):
        rng = np.random.default_rng(17)
        modes = [Mode(port, pol, f) for port in range(4) for pol in (H, V) for f in flavors]
        terms = {}
        for _ in range(6000):
            photons = rng.integers(len(modes), size=int(rng.integers(1, MAX_PHOTONS + 1)))
            counts = {modes[i]: photons.tolist().count(i) for i in set(photons.tolist())}
            terms[occupation(counts)] = complex(rng.normal(), rng.normal())
        state = FockState(terms)
        # Some amplitude's square rounds differently when vectorized, so a
        # distribution built from h * h instead of Python's abs(a) ** 2 fails
        # (with one flavor every row is its own part).
        h = np.hypot(state.amps.real, state.amps.imag)
        assert any(x * x != abs(a) ** 2 for x, a in zip(h.tolist(), state.amps.tolist()))
        dist = pattern_distribution(state, groups)
        parts = partition(state, groups)
        assert list(dist) == list(parts)
        assert [p.hex() for p in dist.values()] == [
            fsum_of_squares(part).hex() for part in parts.values()
        ]


    def test_repeated_magnitudes_bit_for_bit(self):
        """Thousands of rows share four magnitudes (signs, swaps and
        conjugates of four amplitudes), spread over many parts, and each
        part's squared norm must sum exactly its own rows' squares."""
        rng = np.random.default_rng(23)
        modes = [Mode(port, pol, f) for port in range(3) for pol in (H, V) for f in (0, 1)]
        bases = [complex(rng.normal(), rng.normal()) for _ in range(4)]
        terms = {}
        for _ in range(4000):
            photons = rng.integers(len(modes), size=int(rng.integers(1, MAX_PHOTONS + 1)))
            counts = {modes[i]: photons.tolist().count(i) for i in set(photons.tolist())}
            z = bases[rng.integers(4)]
            re, im = (z.imag, z.real) if rng.integers(2) else (z.real, z.imag)
            signs = rng.choice([-1, 1], size=2)
            terms[occupation(counts)] = complex(re * signs[0], im * signs[1])
        state = FockState(terms)
        assert len(np.unique(np.hypot(state.amps.real, state.amps.imag))) == 4
        groups = [(0, H), (1, None), (2, V)]
        dist = pattern_distribution(state, groups)
        parts = partition(state, groups)
        assert len(parts) > 50
        assert list(dist) == list(parts)
        assert [p.hex() for p in dist.values()] == [
            fsum_of_squares(part).hex() for part in parts.values()
        ]


class TestPatternCodes:
    """_parts keys rows by pattern rows: one uint8 count per detection
    group, the photons that group sees."""

    GROUPS = [(0, H), (1, None), (2, V), (3, H)]

    def assert_rows_exact(self, state, groups):
        order, rows, bounds = _parts(state, groups)
        assert rows.dtype == np.uint8 and rows.shape == (len(bounds) - 1, len(groups))
        patterns = list(map(tuple, rows.tolist()))
        terms = list(state.terms)
        assert bounds[0] == 0 and bounds[-1] == len(state) == len(order)
        assert sorted(order.tolist()) == list(range(len(state)))
        assert len(set(patterns)) == len(patterns) == len(bounds) - 1
        firsts = [int(order[lo]) for lo in bounds[:-1]]
        assert firsts == sorted(firsts)
        for pattern, lo, hi in zip(patterns, bounds, bounds[1:]):
            rows_in_part = order[lo:hi].tolist()
            assert rows_in_part == sorted(rows_in_part)
            for r in rows_in_part:
                assert pattern == TestPartition.recount(terms[r], groups)

    @staticmethod
    def random_state(rng, n=400, ports=5):
        """Rows of 0 to 8 photons over ``ports`` ports, flavors 0 and 1, some
        with all 8 photons on mode 3H; the last port, 2H and 3V are in no
        group of :attr:`GROUPS`."""
        modes = [Mode(port, pol, f) for port in range(ports) for pol in (H, V) for f in (0, 1)]
        terms = {(): 0.5, ((Mode(3, H, 0), 5), (Mode(3, H, 1), 3)): 0.25}
        for _ in range(n):
            if rng.integers(10) == 0:
                photons = [modes.index(Mode(3, H, int(rng.integers(2))))] * MAX_PHOTONS
            else:
                size = int(rng.integers(MAX_PHOTONS + 1))
                photons = rng.integers(len(modes), size=size).tolist()
            counts = {modes[i]: photons.count(i) for i in set(photons)}
            terms[occupation(counts)] = complex(rng.normal(), rng.normal())
        return FockState(terms)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_states(self, seed):
        rng = np.random.default_rng(seed)
        state = self.random_state(rng)
        assert (state.occ.sum(axis=1) == MAX_PHOTONS).any()
        self.assert_rows_exact(state, self.GROUPS)
        self.assert_rows_exact(state, [(port, None) for port in range(5)])
        self.assert_rows_exact(state, [(4, V)])
        self.assert_rows_exact(state, [])

    def test_eight_photons_in_the_top_digit(self):
        state = create_photons([(Mode(3, H, 0), 6), (Mode(3, H, 1), 2)])
        _, rows, _ = _parts(state, self.GROUPS)
        assert rows.tolist() == [[0, 0, 0, MAX_PHOTONS]]
        assert pattern_distribution(state, self.GROUPS) == {(0, 0, 0, 8): 1.0}

    def test_zero_row_state(self):
        state = FockState({})
        order, rows, bounds = _parts(state, self.GROUPS)
        assert (order.tolist(), rows.shape, bounds) == ([], (0, len(self.GROUPS)), [0])
        assert pattern_distribution(state, self.GROUPS) == {}
        assert partition(state, self.GROUPS) == {}

    @pytest.mark.parametrize("width", [19, 20, 40])
    def test_many_groups(self, width):
        """Any number of groups: a pattern row spans several of _group's
        64-bit words from 17 groups on."""
        groups = [(port, None) for port in range(width)]
        state = superpose([
            (1.0, create_photons([(Mode(width - 1, V), MAX_PHOTONS)])),
            (1.0, create_photons([(Mode(port, H), 1) for port in range(width - 8, width)])),
        ])
        self.assert_rows_exact(state, groups)
        assert list(pattern_distribution(state, groups)) == [
            (0,) * (width - 1) + (MAX_PHOTONS,), (0,) * (width - 8) + (1,) * 8
        ]
        many = self.random_state(np.random.default_rng(width), ports=width)
        self.assert_rows_exact(many, groups)
        self.assert_rows_exact(many, [(port, pol) for port in range(width) for pol in (H, V)])


class TestPartition:
    @staticmethod
    def recount(occ, groups):
        """Photons each group sees in ``occ``, counted mode by mode."""
        return tuple(
            sum(n for m, n in occ if m.port == port and pol in (None, m.pol))
            for port, pol in groups
        )

    @pytest.mark.parametrize(
        "groups",
        [
            [(0, H), (0, V), (1, H), (2, V)],
            [(0, None), (2, None)],
        ],
    )
    def test_random_states(self, groups):
        rng = np.random.default_rng(7)
        for _ in range(20):
            state = random_state(rng, total=int(rng.integers(1, 6)))
            parts = partition(state, groups)
            placed = [
                (occ, key) for key, part in parts.items() for occ in part.terms
            ]
            assert sorted(occ for occ, _ in placed) == sorted(state.terms)
            for occ, key in placed:
                assert key == self.recount(occ, groups)
                assert parts[key].amplitude(occ) == state.amplitude(occ)
            total = math.fsum(part.norm_squared() for part in parts.values())
            assert abs(total - state.norm_squared()) < 1e-12

    def test_overlapping_groups_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match="overlap"):
            partition(random_state(rng), [(1, V), (0, None), (1, None)])


class TestGroup:
    @staticmethod
    def oracle(rows):
        """First-appearance numbering of the rows as tuples."""
        ids, first = {}, []
        for i, row in enumerate(map(tuple, rows.tolist())):
            if row not in ids:
                ids[row] = len(ids)
                first.append(i)
        return [ids[row] for row in map(tuple, rows.tolist())], first

    def assert_matches_oracle(self, rows):
        group, first = _group(rows)
        assert (group.tolist(), first.tolist()) == self.oracle(rows)

    @staticmethod
    def random_rows(rng, width, photons, n=300, pool=40):
        """``n`` rows drawn from ``pool`` random rows of ``photons(rng)``
        photons each, so equal rows recur."""
        rows = np.zeros((pool, width), dtype=np.uint8)
        for row in rows:
            np.add.at(row, rng.integers(width, size=photons(rng)), 1)
        return rows[rng.integers(pool, size=n)]

    # Widths on both sides of the 16-count word boundaries, and past 254.
    @pytest.mark.parametrize("width", [1, 2, 3, 7, 15, 16, 17, 32, 33, 40, 254, 255, 600])
    def test_random_rows(self, width):
        rng = np.random.default_rng(width)
        for _ in range(10):
            rows = self.random_rows(rng, width, lambda r: int(r.integers(MAX_PHOTONS + 1)))
            self.assert_matches_oracle(rows)
            # Views, as experiment passes its count matrix's transpose.
            self.assert_matches_oracle(np.ascontiguousarray(rows.T).T)
            self.assert_matches_oracle(rows[:, ::-1])
            self.assert_matches_oracle(self.random_rows(rng, width, lambda r: MAX_PHOTONS))

    def test_every_small_row(self):
        rows = np.array(
            [row for row in itertools.product(range(MAX_PHOTONS + 1), repeat=3)
             if sum(row) <= MAX_PHOTONS],
            dtype=np.uint8,
        )
        rng = np.random.default_rng(9)
        self.assert_matches_oracle(rows[rng.integers(len(rows), size=2000)])

    def test_degenerate_shapes(self):
        self.assert_matches_oracle(np.zeros((5, 0), dtype=np.uint8))
        self.assert_matches_oracle(np.zeros((0, 6), dtype=np.uint8))
        self.assert_matches_oracle(np.zeros((0, 0), dtype=np.uint8))

    def test_integer_keys(self):
        group, first = _group(np.array([5, 3, 5, 9, 3, 3]))
        assert (group.tolist(), first.tolist()) == ([0, 1, 0, 2, 1, 1], [0, 1, 3])


def test_reprs():
    """A mode prints as port and polarization, with a flavor other than the
    common one after a dot; a state prints its first six terms in canonical
    order, then its term count."""
    assert repr(Mode(2, H)) == "2H"
    assert repr(Mode(5, V, 6)) == "5V.6"
    seven = FockState({((Mode(port, H), 1),): 0.5 for port in range(7)})
    assert repr(seven) == (
        " + ".join(f"(0.5+0j)|1@{port}H>" for port in range(6)) + " ... (7 terms)"
    )
    mixed = FockState({((Mode(0, H), 2), (Mode(1, V, 3), 1)): 0.25 - 0.5j})
    assert repr(mixed) == "(0.25-0.5j)|2@0H,1@1V.3>"
    assert repr(FockState({(): 1j})) == "(0+1j)|vac>"
    assert repr(FockState({})) == "FockState(0)"


def test_product_rounds_as_python():
    rng = np.random.default_rng(5)
    x, y = (rng.normal(size=20000) + 1j * rng.normal(size=20000) for _ in range(2))
    re, im = _product(x, y)
    python = [a * b for a, b in zip(x.tolist(), y.tolist())]
    assert re.tobytes() == np.array([z.real for z in python]).tobytes()
    assert im.tobytes() == np.array([z.imag for z in python]).tobytes()


class TestInvariants:
    def test_unitarity_on_random_states(self):
        rng = np.random.default_rng(42)
        for op in ALL_OPS:
            for _ in range(25):
                state = random_state(rng)
                out = apply_op(state, op)
                assert abs(out.norm_squared() - state.norm_squared()) < 1e-12

    def test_photon_number_conserved(self):
        rng = np.random.default_rng(43)
        for op in ALL_OPS:
            for total in (1, 3, 8):
                state = random_state(rng, total=total)
                assert apply_op(state, op).n_photons() == total

    def test_disjoint_ops_commute(self):
        rng = np.random.default_rng(44)
        pairs = [
            (BeamSplitter(0, 1), PhaseShift(2, 0.9)),
            (HalfWavePlate(0, 0.2), PolarizingBeamSplitter(1, 2)),
            (PhaseShift(0, 1.3), HalfWavePlate(2, 0.7)),
        ]
        for op_a, op_b in pairs:
            state = random_state(rng)
            ab = apply_op(apply_op(state, op_a), op_b)
            ba = apply_op(apply_op(state, op_b), op_a)
            for occ, amp in ab.items():
                assert abs(ba.amplitude(occ) - amp) < 1e-12

    def test_flavor_superselection_product_marginals(self):
        """Distinguishable photons give a product of single-photon marginals."""
        network = (BeamSplitter(0, 1), BeamSplitter(1, 2))
        groups = [(0, None), (1, None), (2, None)]
        joint_in = compose(
            create_photons([(Mode(0, H, 1), 1)]),
            create_photons([(Mode(1, H, 2), 1)]),
        )
        joint = pattern_distribution(apply_network(joint_in, network), groups)
        marg_a = pattern_distribution(
            apply_network(create_photons([(Mode(0, H, 1), 1)]), network), groups
        )
        marg_b = pattern_distribution(
            apply_network(create_photons([(Mode(1, H, 2), 1)]), network), groups
        )
        for pa, wa in marg_a.items():
            for pb, wb in marg_b.items():
                key = tuple(x + y for x, y in zip(pa, pb))
                expected = sum(
                    w1 * w2
                    for p1, w1 in marg_a.items()
                    for p2, w2 in marg_b.items()
                    if tuple(x + y for x, y in zip(p1, p2)) == key
                )
                assert abs(joint.get(key, 0.0) - expected) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(45)
        s1 = random_state(rng)
        s2 = random_state(rng)
        alpha, beta = 0.3 - 0.2j, 0.5 + 0.1j
        for op in (BeamSplitter(0, 1), PolarizingBeamSplitter(0, 2)):
            mixed = apply_op(superpose([(alpha, s1), (beta, s2)]), op)
            split = superpose([(alpha, apply_op(s1, op)), (beta, apply_op(s2, op))])
            for occ, amp in mixed.items():
                assert abs(split.amplitude(occ) - amp) < 1e-12

    def test_compose_stacks_identical_modes(self):
        one = create_photons([(Mode(0, H), 1)])
        two = compose(one, one)
        assert abs(two.amplitude(occupation({Mode(0, H): 2})) - SQ2) < 1e-12

    def test_compose_of_one_factor_is_that_factor(self):
        # A -0.0 imaginary part survives: no seed product touches the bits.
        state = FockState({occupation({Mode(0, H): 1}): complex(0.6, -0.0),
                           occupation({Mode(1, V): 1}): complex(-0.8, -0.0)})
        alone = compose(state)
        assert alone.modes == state.modes
        assert alone.occ.tobytes() == state.occ.tobytes()
        assert alone.amps.tobytes() == state.amps.tobytes()
        assert compose() == vacuum()

    def test_compose_matches_term_by_term_product(self):
        rng = np.random.default_rng(25)
        states = [random_state(rng, ports=(0, 1), total=2) for _ in range(3)]
        got = compose(*states)
        assert list(got.terms.items()) == list(bosonic_product(*states).items())
        assert any(n > 1 for row in got.occ.tolist() for n in row)

    def test_compose_respects_photon_cap(self):
        five = create_photons([(Mode(0, H), 5)])
        with pytest.raises(ValueError, match="exceeds"):
            compose(five, five)

    def test_projection_probability_matches_distribution_marginal(self):
        """Port-count projection and the flavor-blind distribution over
        whole ports must assign the same probability to a count pattern."""
        rng = np.random.default_rng(46)
        for _ in range(10):
            state = random_state(rng, total=4)
            dist = pattern_distribution(state, [(0, None), (1, None), (2, None)])
            counts = max(dist, key=dist.get)
            _, prob = project_port_counts(
                state, {0: counts[0], 1: counts[1], 2: counts[2]}
            )
            assert abs(prob - dist[counts]) < 1e-12


class TestPermanentOracle:
    """Every output amplitude of a network is a permanent of its
    single-photon transfer matrix U: <T|U|S> = Perm(U[T, S]) / sqrt(prod
    s! prod t!), with T and S the output and input photons listed by mode,
    repeated by occupation.  U is built here from the stated conventions
    (beam splitter a -> t a + r b, b -> r a - t b; PBS transmits H and
    reflects V with phase i; half-wave plate H -> cos 2x H + sin 2x V,
    V -> sin 2x H - cos 2x V; phase e^(i phi) on every mode of a port), and
    the permanent by summing over permutations."""

    PORTS = (0, 1, 2)
    MODES = [(p, pol, f) for p in PORTS for pol in (H, V) for f in (0, 1)]

    @staticmethod
    def image(element, port, pol):
        """(port, pol) -> list of ((port, pol), coefficient) under one element."""
        kind, *args = element
        if kind == "bs":
            a, b, trans = args
            t, r = math.sqrt(trans), math.sqrt(1 - trans)
            if port == a:
                return [((a, pol), t), ((b, pol), r)]
            if port == b:
                return [((a, pol), r), ((b, pol), -t)]
        elif kind == "ps" and port == args[0]:
            return [((port, pol), complex(math.cos(args[1]), math.sin(args[1])))]
        elif kind == "hwp" and port == args[0]:
            c, s = math.cos(2 * args[1]), math.sin(2 * args[1])
            if pol == H:
                return [((port, H), c), ((port, V), s)]
            return [((port, H), s), ((port, V), -c)]
        elif kind == "pbs" and port in args and pol == V:
            other = args[1] if port == args[0] else args[0]
            return [((other, V), 1j)]
        return [((port, pol), 1.0)]

    def transfer_matrix(self, elements):
        index = {m: i for i, m in enumerate(self.MODES)}
        total = np.eye(len(self.MODES), dtype=complex)
        for element in elements:
            u = np.zeros_like(total)
            for (port, pol, flavor), j in index.items():
                for (p2, pol2), c in self.image(element, port, pol):
                    u[index[(p2, pol2, flavor)], j] += c
            total = u @ total
        return total

    @staticmethod
    def as_op(element):
        kind, *args = element
        cls = {"bs": BeamSplitter, "ps": PhaseShift, "hwp": HalfWavePlate,
               "pbs": PolarizingBeamSplitter}[kind]
        return cls(*args)

    def random_element(self, rng):
        a, b = (int(x) for x in rng.choice(self.PORTS, size=2, replace=False))
        kind = rng.choice(["bs", "ps", "hwp", "pbs"])
        if kind == "bs":
            return ("bs", a, b, float(rng.choice([0.5, rng.random()])))
        if kind == "ps":
            return ("ps", a, float(rng.uniform(-math.pi, math.pi)))
        if kind == "hwp":
            return ("hwp", a, float(rng.choice([0.0, math.pi / 8, math.pi / 4, rng.random()])))
        return ("pbs", a, b)

    @staticmethod
    def permanent(m):
        n = len(m)
        return sum(
            math.prod(m[k][sigma[k]] for k in range(n))
            for sigma in itertools.permutations(range(n))
        )

    def test_amplitudes_are_permanents(self):
        rng = np.random.default_rng(2024)
        index = {m: i for i, m in enumerate(self.MODES)}
        for _ in range(60):
            elements = [self.random_element(rng) for _ in range(int(rng.integers(1, 6)))]
            u = self.transfer_matrix(elements)
            photons = [self.MODES[i] for i in rng.integers(len(self.MODES), size=int(rng.integers(1, 5)))]
            counts = {m: photons.count(m) for m in set(photons)}
            out = apply_network(
                create_photons([(Mode(*m), n) for m, n in counts.items()]),
                tuple(self.as_op(e) for e in elements),
            )
            cols = [index[m] for m in sorted(photons)]
            in_norm = math.prod(math.factorial(n) for n in counts.values())
            covered = 0.0
            for occ, amp in out.terms.items():
                rows = [index[tuple(m)] for m, n in occ for _ in range(n)]
                out_norm = math.prod(math.factorial(n) for _, n in occ)
                sub = [[u[r, c] for c in cols] for r in rows]
                expected = self.permanent(sub) / math.sqrt(in_norm * out_norm)
                assert abs(amp - expected) < 1e-12, (elements, counts, occ)
                covered += abs(expected) ** 2
            # U is unitary, so the oracle's own weight on the engine's terms
            # reaching 1 means no output term is missing.
            assert abs(covered - 1.0) < 1e-12
