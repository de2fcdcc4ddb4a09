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
results.  Loss is a rate-only effect here (patterns are post-selected on
the full photon number), so per-port transmission only enters the
coincidence-rate estimators in :mod:`fusionsim.detection`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .fock import (
    H,
    V,
    BeamSplitter,
    FockState,
    Group,
    HalfWavePlate,
    Mode,
    Network,
    Occupation,
    PhaseShift,
    PolarizingBeamSplitter,
    apply_network,
    compose,
    create_photons,
    partition,
    pattern_distribution,
    project_port_counts,
    superpose,
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

    overlap            pairwise indistinguishability of any two photons
    transmission       per-photon end-to-end efficiency (rate model only)
    ancilla_enabled    include the two N00N rails and their splitters
    phase              relative H/V phase on the port-2 arm, radians
    seed               recorded for provenance; the evolution is exact and
                       consumes no randomness
    per_photon_overlap optional per-photon weights v_i on the common wave
                       packet; the overlap of photons i and j is then
                       sqrt(v_i * v_j), and ``overlap`` is ignored
    """

    overlap: float = 1.0
    transmission: float = 1.0
    ancilla_enabled: bool = True
    phase: float = 0.0
    seed: int = 0
    per_photon_overlap: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError("overlap must lie in [0, 1]")
        if not 0.0 <= self.transmission <= 1.0:
            raise ValueError("transmission must lie in [0, 1]")
        if not math.isfinite(self.phase):
            raise ValueError("phase must be finite")
        if self.per_photon_overlap is not None:
            if len(self.per_photon_overlap) != N_PHOTONS:
                raise ValueError(
                    f"per_photon_overlap needs one weight per photon ({N_PHOTONS})"
                )
            if any(not 0.0 <= v <= 1.0 for v in self.per_photon_overlap):
                raise ValueError("per-photon overlaps must lie in [0, 1]")

    def photon_overlap(self, photon_id: int) -> float:
        if self.per_photon_overlap is not None:
            return self.per_photon_overlap[photon_id - 1]
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
    return superpose(
        (c_pol, create_photons([(Mode(port, pol, flavor), 1)]))
        for pol, c_pol in pol_amplitudes.items()
    )


_PLUS = {H: 1 / math.sqrt(2), V: 1 / math.sqrt(2)}


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
    produced by :func:`prepare_bell_pair` instead.
    """
    if port_x == port_y:
        raise ValueError("Bell state needs two distinct ports")
    return superpose(
        (
            sign / math.sqrt(2),
            create_photons(
                [(Mode(port_x, pol_x, flavor_x), 1), (Mode(port_y, pol_y, flavor_y), 1)]
            ),
        )
        for pol_x, pol_y, sign in _BELL_TERMS[label]
    )


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
        Network(
            ops=(
                PolarizingBeamSplitter(port_keep, port_fuse),
                HalfWavePlate(port_fuse, 0.0),
            ),
            ports=(port_keep, port_fuse),
        ),
    )
    return project_port_counts(mixed, {port_keep: 1, port_fuse: 1})


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
    return apply_network(
        photons,
        Network(
            ops=(
                BeamSplitter(port_out, port_in),
                HalfWavePlate(port_in, math.pi / 4),
                PolarizingBeamSplitter(port_out, port_in),
            ),
            ports=(port_out, port_in),
        ),
    )


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


def build_fusion_network(config: ExperimentConfig) -> Network:
    """The static fusion interferometer for the given configuration."""
    ops: list = []
    ports = [PORT_FUSE_A, PORT_FUSE_B]
    if config.phase != 0.0:
        ops.extend(_phase_gadget(PORT_FUSE_A, config.phase))
        ports.append(PORT_PHASE_AUX)
    ops.append(BeamSplitter(PORT_FUSE_A, PORT_FUSE_B))
    if config.ancilla_enabled:
        ops.append(BeamSplitter(PORT_FUSE_A, PORT_ANCILLA_A))
        ops.append(BeamSplitter(PORT_FUSE_B, PORT_ANCILLA_B))
        ports.extend([PORT_ANCILLA_A, PORT_ANCILLA_B])
    return Network(ops=tuple(ops), ports=tuple(ports))


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
    ``conditional_states`` holds, per detected pattern, the heralded
    polarization state of the analyzer photons as an unnormalized 4x4
    density matrix (see :func:`pair_density`): flavors and the detector's
    unresolved occupations are traced out, and its trace is the pattern's
    probability.
    """

    input_label: str
    config: ExperimentConfig
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
    states = [pair] + (_ancillas(flavors) if ancilla_enabled else [])
    return compose(*states), 1.0


def run_fusion(
    fusion_input: BellLabel | str,
    config: ExperimentConfig,
    conditional_filter=None,
) -> FusionResult:
    """Evolve a fusion input through the interferometer exactly.

    ``fusion_input`` is either a :class:`BellLabel` (that Bell state is
    placed directly on the fused ports, ancillas prepared physically) or
    ``FULL_PREPARATION`` (both Bell pairs are built from photons 1-4, and
    heralded analyzer states are returned alongside the distribution).
    For full-preparation runs ``conditional_filter`` restricts which
    patterns get a heralded state (a predicate on the pattern tuple);
    None keeps them all.

    Each branch of :func:`flavor_branches` is evolved on its own; its
    probabilities and densities enter with the branch weight times its
    preparation's post-selection probability, normalized over branches.
    """
    if isinstance(fusion_input, BellLabel):
        label = fusion_input.value
        photon_ids: tuple[int, ...] = (2, 3)
        prepare = partial(_bell_input, fusion_input)
    elif fusion_input == FULL_PREPARATION:
        label = FULL_PREPARATION
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

    network = build_fusion_network(config)
    groups = detection_groups(config)
    track_conditionals = label == FULL_PREPARATION
    probs: dict[tuple[int, ...], float] = {}
    conditionals: dict[tuple[int, ...], np.ndarray] = {}
    for weight, state in prepared:
        weight /= total
        for pattern, part in partition(apply_network(state, network), groups).items():
            probs[pattern] = probs.get(pattern, 0.0) + weight * part.norm_squared()
            if track_conditionals and (
                conditional_filter is None or conditional_filter(pattern)
            ):
                rho = weight * pair_density(part, PORT_KEEP_A, PORT_KEEP_B)
                if pattern in conditionals:
                    rho += conditionals[pattern]
                conditionals[pattern] = rho
    return FusionResult(
        label, config, groups, probs, conditionals if track_conditionals else None
    )


# --------------------------------------------------------------------------
# Two-photon polarization analysis
#
# The analyzers only read the polarizations on two ports, so a heralded
# state reduces to one 4x4 density matrix over (pol_x, pol_y), indexed
# 2 * pol_x + pol_y with H = 0 and V = 1.
# --------------------------------------------------------------------------

_POL_INDEX = {H: 0, V: 1}


def _analyzer_entry(occ: Occupation, port: int) -> int:
    """Index in ``occ`` of the one photon on ``port``."""
    # Occupations are sorted by mode, and modes by port first, so a port's
    # entries are contiguous and ((port,),) sorts just before them.
    i = bisect_left(occ, ((port,),))
    if (
        i == len(occ)
        or occ[i][0].port != port
        or occ[i][1] != 1
        or (i + 1 < len(occ) and occ[i + 1][0].port == port)
    ):
        raise ValueError(f"state is not one photon on analyzer port {port}")
    return i


def pair_density(state: FockState, port_x: int, port_y: int) -> np.ndarray:
    """Polarization density matrix of the photons on two analyzer ports.

    Each port must hold exactly one photon.  Terms are grouped by the
    occupation of every other mode and the two photons' flavors; each group
    is a 4-vector over (pol_x, pol_y), and the groups are orthogonal, so
    rho = sum_k |a_k><a_k| traces out flavors and all other modes.  rho is
    not normalized: its trace is the state's squared norm.
    """
    if port_x == port_y:
        raise ValueError("analyzer needs two distinct ports")
    first, second = sorted((port_x, port_y))
    rows: dict[tuple, int] = {}
    amps: list[complex] = []
    for occ, amp in state.terms.items():
        i = _analyzer_entry(occ, first)
        j = _analyzer_entry(occ, second)
        mx, my = occ[i][0], occ[j][0]
        if port_x != first:
            mx, my = my, mx
        key = (occ[:i] + occ[i + 1 : j] + occ[j + 1 :], mx.flavor, my.flavor)
        row = rows.get(key)
        if row is None:
            row = rows[key] = len(rows)
            amps.extend((0j, 0j, 0j, 0j))
        amps[4 * row + 2 * _POL_INDEX[mx.pol] + _POL_INDEX[my.pol]] = amp
    a = np.array(amps, dtype=complex).reshape(-1, 4)
    return a.T @ a.conj()


def pair_projection_prob(
    state: FockState | np.ndarray,
    port_x: int,
    port_y: int,
    target: Mapping[tuple[str, str], complex],
) -> float:
    """Probability of projecting onto a two-photon polarization state t,
    blind to the photons' wave packets: t^dagger rho t / Tr rho, where rho
    is a :func:`pair_density` matrix or is built from a given state."""
    rho = pair_density(state, port_x, port_y) if isinstance(state, FockState) else state
    t = np.array([target.get((px, py), 0j) for px in (H, V) for py in (H, V)])
    return float((t.conj() @ rho @ t).real) / float(np.trace(rho).real)


SINGLET = {
    (H, V): 1 / math.sqrt(2) + 0j,
    (V, H): -1 / math.sqrt(2) + 0j,
}


def singlet_fidelity(state: FockState | np.ndarray, port_x: int, port_y: int) -> float:
    return pair_projection_prob(state, port_x, port_y, SINGLET)


#: Pauli X, Y, Z in the (H, V) basis.
_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def pair_correlations(
    state: FockState | np.ndarray, port_x: int, port_y: int
) -> tuple[float, float, float]:
    """(<XX>, <YY>, <ZZ>) of the two analyzer photons, flavor-blind:
    Tr(rho sigma x sigma) / Tr rho."""
    rho = pair_density(state, port_x, port_y) if isinstance(state, FockState) else state
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
        out = apply_network(
            photons, Network(ops=(BeamSplitter(0, 1),), ports=(0, 1))
        )
        dist = pattern_distribution(out, [(0, None), (1, None)])
        prob += weight * dist.get((1, 1), 0.0)
    return prob


def hom_visibility(overlap: float) -> float:
    return 1.0 - 2.0 * hom_dip(overlap)


#: Unboosted heralding patterns over ((2,H),(2,V),(3,H),(3,V)): one photon
#: per splitter output with opposite polarizations, the singlet signature.
_SINGLET_HERALDS = ((1, 0, 0, 1), (0, 1, 1, 0))

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
    ancillas, heralded on the singlet signature, and the kept photons are
    analyzed in the +/- basis.  With perfect overlap the '++' coincidence
    follows (1 - cos phase)/16 per herald pattern, a visibility-1 fringe.
    """
    if len(phases) == 0:
        raise ValueError("phase grid must be non-empty")
    if config.ancilla_enabled:
        config = replace(config, ancilla_enabled=False)
    targets = {
        sx + sy: np.kron(vx, vy) for sx, vx in _DIAGONAL for sy, vy in _DIAGONAL
    }
    points = []
    for phi in phases:
        result = run_fusion(
            FULL_PREPARATION,
            replace(config, phase=phi),
            conditional_filter=lambda p: p in _SINGLET_HERALDS,
        )
        joint = {name: 0.0 for name in targets}
        for pattern in _SINGLET_HERALDS:
            rho = result.conditional_states.get(pattern)
            if rho is None:
                continue
            for name, t in targets.items():
                joint[name] += float((t.conj() @ rho @ t).real)
        points.append(FringePoint(phase=phi, coincidences=joint))
    return points


def fringe_visibility(values: Sequence[float]) -> float:
    """(max - min) / (max + min), the normalized fringe contrast."""
    hi, lo = max(values), min(values)
    if hi + lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)
