"""State preparation and the boosted type-II fusion interferometer.

The layout mirrors the eight-photon bench: photons 1-4 build two
polarization Bell pairs by interfering |+>-polarized photons on a
polarizing beam splitter and post-selecting one photon per output port;
photons 5-6 and 7-8 become two-photon N00N ancillas through Hong-Ou-Mandel
bunching.  Ports 2 and 3 carry the fused photons into a 50:50 splitter
(the conventional Bell measurement stage); each of its outputs then meets
one ancilla rail on a second 50:50 splitter, which is what lifts the
Phi+/Phi- branches above the conventional 50% ceiling.  Ports 1 and 4 keep
the heralded pair for polarization analysis.

Partial distinguishability is a classical mixture of branches (see
``flavor_branches``): in each branch every photon carries one internal
wave packet, the common flavor 0 or its own private flavor, with weights
that reproduce any pairwise overlap prescribed per photon.  The elements
never mix flavors and detectors and analyzers are flavor-blind, so the
mixture has the statistics of a coherent common-plus-private superposition
per photon (Tichy, PRA 91, 022316 (2015); Shchesnovich, PRA 91, 013844
(2015)); :func:`run_fusion` evolves each branch and sums the weighted
results.  Loss is not simulated: patterns are post-selected on the full
photon number, so loss only scales coincidence rates
(:func:`fusionsim.detection.nfold_rate`).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from typing import Mapping, Sequence

import numpy as np

from .fock import (
    H,
    V,
    BeamSplitter,
    ElementaryOp,
    FockState,
    Group,
    HalfWavePlate,
    Mode,
    PhaseShift,
    PolarizingBeamSplitter,
    apply_network,
    apply_op,
    compose,
    pattern_distribution,
    project_port_counts,
    _column_sums,
    _group,
    _norms,
    _parts,
)

# Port map of the bench.
PORT_KEEP_A = 1      # analyzer arm of the first Bell pair
PORT_FUSE_A = 2      # fused photon of the first pair; input a of the BSM splitter
PORT_FUSE_B = 3      # fused photon of the second pair; input b
PORT_KEEP_B = 4      # analyzer arm of the second Bell pair
PORT_ANCILLA_A = 5   # N00N rail meeting BSM output a
PORT_ANCILLA_A_IN = 6
PORT_ANCILLA_B = 7   # N00N rail meeting BSM output b
PORT_ANCILLA_B_IN = 8
PORT_PHASE_AUX = 9   # empty rail used by the polarization-phase gadget

#: Photons of the bench, numbered 1 to N_PHOTONS.
N_PHOTONS = 8

#: Sentinel accepted by :func:`run_fusion` for the four-pair preparation.
FULL_PREPARATION = "full"


class BellLabel(Enum):
    """The four two-photon Bell states."""

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


_BELL_TERMS: dict[BellLabel, tuple[tuple[str, str, float], ...]] = {
    BellLabel.PHI_PLUS: ((H, H, 1.0), (V, V, 1.0)),
    BellLabel.PHI_MINUS: ((H, H, 1.0), (V, V, -1.0)),
    BellLabel.PSI_PLUS: ((H, V, 1.0), (V, H, 1.0)),
    BellLabel.PSI_MINUS: ((H, V, 1.0), (V, H, -1.0)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of one simulated run.

    overlap          pairwise indistinguishability of any two photons, or
                     one weight v_i per photon on the common wave packet,
                     so that photons i and j overlap by sqrt(v_i * v_j)
    ancilla_enabled  include the two N00N rails and their splitters
    phase            relative H/V phase on the port-2 arm, radians
    """

    overlap: float | tuple[float, ...] = 1.0
    ancilla_enabled: bool = True
    phase: float = 0.0

    def __post_init__(self):
        weights = self.overlap if isinstance(self.overlap, tuple) else (self.overlap,) * N_PHOTONS
        if len(weights) != N_PHOTONS or not all(isinstance(w, numbers.Real) for w in weights):
            raise ValueError(f"overlap must be a number, or a tuple of {N_PHOTONS} numbers "
                             "(one weight per photon)")
        if not all(0.0 <= w <= 1.0 for w in weights):
            raise ValueError("overlap must lie in [0, 1]")
        if not math.isfinite(self.phase):
            raise ValueError("phase must be finite")

    def photon_overlap(self, photon_id: int) -> float:
        if isinstance(self.overlap, tuple):
            return self.overlap[photon_id - 1]
        return self.overlap


#: Photons of the two N00N ancillas (5-6 feed port 5, 7-8 feed port 7).
ANCILLA_PHOTONS = (5, 6, 7, 8)


def flavor_branches(
    photon_ids: Sequence[int], config: ExperimentConfig
) -> list[tuple[float, dict[int, int]]]:
    """Mixture branches of the photons' wave packets: (weight, {photon:
    flavor}) pairs of nonzero weight, whose weights sum to 1.

    The overlap V is the *squared* inner product of two photons' wave
    packets (the quantity a Hong-Ou-Mandel dip measures).  Photon ``i`` is
    in the common flavor 0 with probability w_i = sqrt(v_i) and in its
    private flavor ``i`` otherwise, so photons i and j share a wave packet
    with probability sqrt(v_i * v_j), equal to the configured scalar when
    uniform, and the simulated HOM visibility of any pair equals V exactly.
    """
    if len(set(photon_ids)) < len(photon_ids):
        raise ValueError("photon ids must be distinct")
    branches: list[tuple[float, dict[int, int]]] = [(1.0, {})]
    for pid in photon_ids:
        if pid <= 0:
            raise ValueError("photon ids must be positive (flavor 0 is reserved)")
        w = math.sqrt(config.photon_overlap(pid))
        branches = [
            (weight * p, {**flavors, pid: flavor})
            for weight, flavors in branches
            for p, flavor in ((w, 0), (1.0 - w, pid))
            if weight * p > 0.0
        ]
    return branches


def single_photon(
    port: int, pol_amplitudes: Mapping[str, complex], flavor: int = 0
) -> FockState:
    """One photon on ``port`` in a polarization superposition."""
    return FockState({((Mode(port, pol, flavor), 1),): c for pol, c in pol_amplitudes.items()})


_PLUS = {H: 1 / math.sqrt(2), V: 1 / math.sqrt(2)}


@lru_cache(maxsize=256)
def bell_state(
    port_x: int,
    port_y: int,
    label: BellLabel,
    flavor_x: int = 0,
    flavor_y: int = 0,
) -> FockState:
    """Bell state of two photons on distinct ports.

    Each photon keeps its own wave packet regardless of polarization; the
    polarization-correlated wave packets of the physical preparation are
    produced by :func:`prepare_bell_pair` instead.  Memoized, which is
    safe since every state's arrays are read-only.
    """
    if port_x == port_y:
        raise ValueError("Bell state needs two distinct ports")
    return FockState({
        ((Mode(port_x, pol_x, flavor_x), 1), (Mode(port_y, pol_y, flavor_y), 1)):
            sign / math.sqrt(2)
        for pol_x, pol_y, sign in _BELL_TERMS[label]
    })


@lru_cache(maxsize=64)
def prepare_bell_pair(
    port_keep: int, port_fuse: int, flavors: tuple[int, int] = (0, 0)
) -> tuple[FockState, float]:
    """Bell pair from two |+> photons on a polarizing beam splitter.

    ``flavors`` are the wave packets of the photons entering on
    ``port_keep`` and ``port_fuse``.  Post-selects one photon per output
    port (probability 1/2).  The V arm of the fused port carries a
    half-wave plate at 0 degrees: it cancels the two reflection phases so
    the heralded state is exactly (|HH> + |VV>)/sqrt(2), matching the
    calibrated bench.  Note the wave-packet labels end up correlated with
    polarization: the H photon of each port keeps one input's wave packet
    and the V photon the other's.
    """
    photons = compose(
        single_photon(port_keep, _PLUS, flavors[0]),
        single_photon(port_fuse, _PLUS, flavors[1]),
    )
    mixed = apply_network(
        photons,
        (PolarizingBeamSplitter(port_keep, port_fuse), HalfWavePlate(port_fuse, 0.0)),
    )
    return project_port_counts(mixed, {port_keep: 1, port_fuse: 1})


@lru_cache(maxsize=64)
def prepare_noon_pair(
    port_out: int, port_in: int, flavors: tuple[int, int] = (0, 0)
) -> FockState:
    """Two-photon polarization N00N state on ``port_out``.

    Two H photons (wave packets ``flavors``, entering on ``port_out`` and
    ``port_in``) bunch on a 50:50 splitter, the second output is rotated
    H->V and folded back through a polarizing beam splitter, leaving
    (|2H 0V> + |0H 2V>)/sqrt(2) on a single rail.  No post-selection is
    involved: every amplitude ends on ``port_out`` even for distinguishable
    photons.
    """
    photons = compose(
        single_photon(port_out, {H: 1.0}, flavors[0]),
        single_photon(port_in, {H: 1.0}, flavors[1]),
    )
    network = (
        BeamSplitter(port_out, port_in),
        HalfWavePlate(port_in, math.pi / 4),
        PolarizingBeamSplitter(port_out, port_in),
    )
    return apply_network(photons, network)


def _phase_gadget(port: int, phase: float) -> tuple:
    # A spatial phase on a port with a fixed photon count is global, so the
    # swept phase must live between H and V.  Routing V through an empty
    # rail, phasing it, and folding it back synthesizes diag(1, e^{i phase})
    # from the declared element set (the two reflection phases contribute
    # the -pi offset compensated here).
    return (
        PolarizingBeamSplitter(port, PORT_PHASE_AUX),
        PhaseShift(PORT_PHASE_AUX, phase - math.pi),
        PolarizingBeamSplitter(port, PORT_PHASE_AUX),
    )


def build_fusion_network(config: ExperimentConfig) -> tuple[ElementaryOp, ...]:
    """The static fusion interferometer, as its elements in order."""
    ops: list[ElementaryOp] = []
    if config.phase != 0.0:
        ops.extend(_phase_gadget(PORT_FUSE_A, config.phase))
    ops.append(BeamSplitter(PORT_FUSE_A, PORT_FUSE_B))
    if config.ancilla_enabled:
        ops.append(BeamSplitter(PORT_FUSE_A, PORT_ANCILLA_A))
        ops.append(BeamSplitter(PORT_FUSE_B, PORT_ANCILLA_B))
    return tuple(ops)


def detection_groups(config: ExperimentConfig) -> tuple[Group, ...]:
    """Detector groups (port, polarization), one per output rail and pol."""
    if config.ancilla_enabled:
        ports = (PORT_FUSE_A, PORT_ANCILLA_A, PORT_FUSE_B, PORT_ANCILLA_B)
    else:
        ports = (PORT_FUSE_A, PORT_FUSE_B)
    return tuple((port, pol) for port in ports for pol in (H, V))


@dataclass(frozen=True)
class FusionResult:
    """Exact output statistics of one fusion run.

    pattern_probs maps flavor-blind photon-number patterns over ``groups``
    to probabilities (summing to 1).  For full-preparation runs,
    ``conditional_states`` holds, for every pattern and in the same order,
    the heralded polarization state of the analyzer photons as an
    unnormalized 4x4 density matrix (see :func:`pair_density`): flavors and
    the detector's unresolved occupations are traced out, and its trace is
    the pattern's probability.
    """

    groups: tuple[Group, ...]
    pattern_probs: dict[tuple[int, ...], float]
    conditional_states: dict[tuple[int, ...], np.ndarray] | None = None

    def side_distribution(
        self, side_ports: Sequence[int], total: int
    ) -> dict[tuple[int, ...], float]:
        """Pattern distribution over one splitter side, conditioned on it
        carrying ``total`` photons, renormalized."""
        indices = [i for i, (port, _) in enumerate(self.groups) if port in side_ports]
        branch: dict[tuple[int, ...], float] = {}
        weight = 0.0
        for pattern, prob in self.pattern_probs.items():
            side = tuple(pattern[i] for i in indices)
            if sum(side) != total:
                continue
            branch[side] = branch.get(side, 0.0) + prob
            weight += prob
        if weight == 0.0:
            return {}
        return {side: p / weight for side, p in branch.items()}


def _ancillas(flavors: Mapping[int, int]) -> list[FockState]:
    return [
        prepare_noon_pair(PORT_ANCILLA_A, PORT_ANCILLA_A_IN, (flavors[5], flavors[6])),
        prepare_noon_pair(PORT_ANCILLA_B, PORT_ANCILLA_B_IN, (flavors[7], flavors[8])),
    ]


def full_preparation(
    flavors: Mapping[int, int], ancilla_enabled: bool = True
) -> tuple[FockState, float]:
    """Two Bell pairs (photons 1-4) plus, optionally, two N00N ancillas
    (photons 5-8), with the photons in the wave packets ``flavors`` (one
    branch of :func:`flavor_branches`), and the combined post-selection
    probability of the two pair preparations."""
    pair_a, prob_a = prepare_bell_pair(
        PORT_KEEP_A, PORT_FUSE_A, (flavors[1], flavors[2])
    )
    pair_b, prob_b = prepare_bell_pair(
        PORT_KEEP_B, PORT_FUSE_B, (flavors[4], flavors[3])
    )
    states = [pair_a, pair_b] + (_ancillas(flavors) if ancilla_enabled else [])
    return compose(*states), prob_a * prob_b


def _bell_input(
    label: BellLabel, flavors: Mapping[int, int], ancilla_enabled: bool
) -> tuple[FockState, float]:
    """A Bell state on the fused ports (photons 2 and 3) plus the physical
    ancillas; nothing is post-selected, so the probability is 1."""
    pair = bell_state(PORT_FUSE_A, PORT_FUSE_B, label, flavors[2], flavors[3])
    return compose(pair, *(_ancillas(flavors) if ancilla_enabled else ())), 1.0


def _prepared(fusion_input: BellLabel | str, config: ExperimentConfig) -> list:
    """(weight, state) per branch of :func:`flavor_branches` for one input:
    the branch weight times its preparation's post-selection probability,
    normalized over branches."""
    if isinstance(fusion_input, BellLabel):
        photon_ids: tuple[int, ...] = (2, 3)
        prepare = partial(_bell_input, fusion_input)
    elif fusion_input == FULL_PREPARATION:
        photon_ids = (1, 2, 3, 4)
        prepare = full_preparation
    else:
        raise ValueError(f"unknown fusion input {fusion_input!r}")
    if config.ancilla_enabled:
        photon_ids += ANCILLA_PHOTONS
    prepared = []
    for weight, flavors in flavor_branches(photon_ids, config):
        state, prob = prepare(flavors, config.ancilla_enabled)
        prepared.append((weight * prob, state))
    total = math.fsum(weight for weight, _ in prepared)
    return [(weight / total, state) for weight, state in prepared]


def _bundles(members) -> list[tuple[list, list[FockState]]]:
    """The (tag, state) pairs ``members`` as bundles (tags, states) of
    states on equal modes and rows, in order of first member."""
    bundles: dict[tuple, tuple[list, list[FockState]]] = {}
    for tag, state in members:
        tags, states = bundles.setdefault((state.modes, state.occ.tobytes()), ([], []))
        tags.append(tag)
        states.append(state)
    return list(bundles.values())


class _Tally:
    """One input's weighted sums over ``groups``: a probability per pattern
    row, and for a full preparation a heralded density, in slots numbered
    by the rows' first appearance."""

    def __init__(self, full: bool, groups: tuple[Group, ...]):
        self.full, self.groups = full, groups
        self.rows = np.zeros((0, len(groups)), np.uint8)
        self.probs = np.zeros(0)
        self.rhos = np.zeros((0, 4, 4), dtype=complex)

    def add(self, weight: float, state: FockState, order, rows, bounds) -> None:
        """Add ``weight`` times the parts of ``state`` that fock._parts
        found (``order``, pattern ``rows``, ``bounds``; the rows are
        distinct)."""
        # The slot rows lead and are distinct, so _group numbers them by
        # slot and numbers new rows after them in order of appearance.
        seen = np.concatenate((self.rows, rows))
        group, first = _group(seen)
        slot = group[len(self.rows):]
        self.rows = seen[first]
        fresh = len(first) - len(self.probs)
        self.probs = np.concatenate((self.probs, np.zeros(fresh)))
        self.probs[slot] += weight * np.array(_norms(state, order, bounds))
        if self.full:
            # -0.0 adds exactly, so a first density keeps its signed zeros.
            self.rhos = np.concatenate((self.rhos, np.full((fresh, 4, 4), -0j)))
            self.rhos[slot] += weight * _pair_densities(state, order, bounds,
                                                        PORT_KEEP_A, PORT_KEEP_B)

    def result(self) -> FusionResult:
        patterns = list(map(tuple, self.rows.tolist()))
        return FusionResult(
            self.groups,
            dict(zip(patterns, self.probs.tolist())),
            dict(zip(patterns, self.rhos)) if self.full else None,
        )


def run_fusion(
    fusion_input: BellLabel | str | tuple[BellLabel | str, ...], config: ExperimentConfig
) -> FusionResult | tuple[FusionResult, ...]:
    """Evolve fusion inputs through the interferometer exactly.

    ``fusion_input`` is a :class:`BellLabel` (that Bell state is placed
    directly on the fused ports, ancillas prepared physically),
    ``FULL_PREPARATION`` (both Bell pairs are built from photons 1-4, and a
    heralded analyzer state per pattern is returned with the distribution),
    or a tuple of these, which gives a tuple of results in the same order.

    Each branch of :func:`flavor_branches` is evolved on its own; its
    probabilities and densities enter with the branch weight times its
    preparation's post-selection probability, normalized over branches.
    The inputs' states of one branch that hold the same rows (Phi+ and
    Phi-, Psi+ and Psi-) are evolved as one bundle (fock.apply_op), which
    gives each input the bits of its own evolution; after each element the
    members are bundled again by their rows.
    """
    inputs = fusion_input if isinstance(fusion_input, tuple) else (fusion_input,)
    prepared = [_prepared(item, config) for item in inputs]
    groups = detection_groups(config)
    tallies = [_Tally(item == FULL_PREPARATION, groups) for item in inputs]
    network = build_fusion_network(config)
    for branch in itertools.zip_longest(*prepared, fillvalue=(0.0, None)):
        bundles = _bundles(((tally, weight), state) for tally, (weight, state)
                           in zip(tallies, branch) if state is not None)
        for op in network:
            bundles = [new for tags, states in bundles
                       for new in _bundles(zip(tags, apply_op(tuple(states), op)))]
        for tags, states in bundles:
            order, rows, bounds = _parts(states[0], groups)
            for (tally, weight), state in zip(tags, states):
                tally.add(weight, state, order, rows, bounds)
    results = tuple(tally.result() for tally in tallies)
    return results if isinstance(fusion_input, tuple) else results[0]


# --------------------------------------------------------------------------
# Two-photon polarization analysis
#
# The analyzers only read the polarizations on two ports, so a heralded
# state reduces to one 4x4 density matrix over (pol_x, pol_y), indexed
# 2 * pol_x + pol_y with H = 0 and V = 1.  The analyzers take that matrix;
# :func:`pair_density` is the one way to it from a state.
# --------------------------------------------------------------------------


def _pair_densities(state: FockState, order: np.ndarray, bounds: list[int],
                    port_x: int, port_y: int) -> np.ndarray:
    """:func:`pair_density` of each run of ``state``'s rows in ``order``, run
    i being rows ``bounds[i]:bounds[i + 1]``.  If the runs split rows by
    counts off the two ports (as fock._parts does), no group spans two runs,
    and a run's groups are numbered as a call on that run alone would."""
    if port_x == port_y:
        raise ValueError("analyzer needs two distinct ports")
    ports = (port_x, port_y)
    # Probe row j sums the columns probe[j]: each key mode, then H and V per port.
    merged = [m._replace(pol=H) if m.port in ports else m for m in state.modes]
    probe = [[c for c, m in enumerate(merged) if m == key]
             for key in dict.fromkeys(merged)]
    probe += [[c for c, m in enumerate(state.modes) if m[:2] == (p, pol)]
              for p in ports for pol in (H, V)]
    counts = _column_sums(state.occ.take(order, axis=0), probe)
    for port, h, v in zip(ports, counts[-4::2], counts[-3::2]):
        if (h + v != 1).any():
            raise ValueError(f"state is not one photon on analyzer port {port}")
    group, first = _group(counts[:-4].T)
    a = np.zeros((len(first), 4), dtype=complex)
    a[group, 2 * counts[-3] + counts[-1]] = state.amps.take(order)
    # Groups are numbered by first row: run i's first rows lie in run i.
    runs = np.searchsorted(first, bounds).tolist()
    rhos = np.empty((len(bounds) - 1, 4, 4), dtype=complex)
    for i, (lo, hi) in enumerate(itertools.pairwise(runs)):
        rhos[i] = a[lo:hi].T @ a[lo:hi].conj()
    return rhos


def pair_density(state: FockState, port_x: int, port_y: int) -> np.ndarray:
    """Polarization density matrix of the photons on two analyzer ports.

    Each port must hold exactly one photon.  Rows are grouped by their
    occupations with each analyzer port's H and V merged per flavor (every
    other mode's count plus the two photons' flavors); each group is a
    4-vector over (pol_x, pol_y) and the groups are orthogonal, so rho =
    sum_k |a_k><a_k| traces out flavors and all other modes.  Its trace is
    the state's squared norm.
    """
    everything = np.arange(len(state))
    return _pair_densities(state, everything, [0, len(state)], port_x, port_y)[0]


def pair_projection_prob(
    rho: np.ndarray, target: Mapping[tuple[str, str], complex]
) -> float:
    """Probability of projecting a :func:`pair_density` matrix onto a
    two-photon polarization state t, blind to the photons' wave packets:
    t^dagger rho t / Tr rho."""
    t = np.array([target.get((px, py), 0j) for px in (H, V) for py in (H, V)])
    return float((t.conj() @ rho @ t).real) / float(np.trace(rho).real)


#: The singlet psi- as a :func:`pair_projection_prob` target.
SINGLET = {
    (px, py): sign / math.sqrt(2) + 0j
    for px, py, sign in _BELL_TERMS[BellLabel.PSI_MINUS]
}


def singlet_fidelity(rho: np.ndarray) -> float:
    """Overlap of a :func:`pair_density` matrix with the singlet."""
    return pair_projection_prob(rho, SINGLET)


#: Pauli X, Y, Z in the (H, V) basis.
_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def pair_correlations(rho: np.ndarray) -> tuple[float, float, float]:
    """(<XX>, <YY>, <ZZ>) of a :func:`pair_density` matrix, flavor-blind:
    Tr(rho sigma x sigma) / Tr rho."""
    trace = float(np.trace(rho).real)
    xx, yy, zz = (float(np.trace(rho @ np.kron(s, s)).real) / trace for s in _PAULIS)
    return xx, yy, zz


# --------------------------------------------------------------------------
# Diagnostics: Hong-Ou-Mandel dip and the phase fringe
# --------------------------------------------------------------------------


def hom_dip(overlap: float) -> float:
    """Cross-port coincidence probability of two photons on a 50:50
    splitter, simulated through the Fock engine over the flavor branches.

    Equals (1 - overlap)/2; the conventionally reported visibility is
    1 - 2 * P_cc = overlap.
    """
    prob = 0.0
    for weight, flavors in flavor_branches((1, 2), ExperimentConfig(overlap=overlap)):
        photons = compose(
            single_photon(0, {H: 1.0}, flavors[1]),
            single_photon(1, {H: 1.0}, flavors[2]),
        )
        out = apply_network(photons, (BeamSplitter(0, 1),))
        dist = pattern_distribution(out, [(0, None), (1, None)])
        prob += weight * dist.get((1, 1), 0.0)
    return prob


def hom_visibility(overlap: float) -> float:
    return 1.0 - 2.0 * hom_dip(overlap)


def fringe_visibility(values: Sequence[float]) -> float:
    """(max - min) / (max + min), the normalized fringe contrast."""
    hi, lo = max(values), min(values)
    if hi + lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)
