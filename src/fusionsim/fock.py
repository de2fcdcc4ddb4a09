"""Sparse Fock-state representation and exact linear-optical evolution.

States are stored as sparse maps from occupation vectors to complex
amplitudes.  An optical mode is labelled by a spatial port, a polarization
(H or V), and an integer "flavor" indexing the photon's internal wave
packet: flavor 0 is the common, mutually interfering wave packet, while
distinct nonzero flavors are orthogonal to flavor 0 and to each other.
The elements below never mix flavors, and photons of distinct flavors
never interfere, so a partially distinguishable photon (common with some
probability, private otherwise) is simulated as a classical mixture of
states in which each photon has one flavor (experiment.flavor_branches).

Detectors are flavor-blind: :func:`partition` splits a state by the photon
counts its detection groups see, and every Fock-state measurement (pattern
distributions, port-count projections, the heralded parts whose analyzer
density matrices experiment.pair_density builds) is read off the parts.

Elements (beam splitters, phase shifters, wave plates, polarizing beam
splitters) act by substituting creation operators, which is exact for any
photon number.  The beam splitter uses the real symmetric convention

    a_in -> (a_out + b_out) / sqrt(2),   b_in -> (a_out - b_out) / sqrt(2)

at 50:50, and the polarizing beam splitter transmits H and reflects V with
the reflection phase ``PBS_REFLECTION_PHASE`` (kept in one place so the
convention can be flipped).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

H = "H"
V = "V"
POLARIZATIONS = (H, V)

#: Largest total photon number a state may hold.
MAX_PHOTONS = 8

#: Amplitudes below this magnitude are dropped after each element.
PRUNE_EPS = 1e-14

#: Phase picked up on reflection at a polarizing beam splitter.  Flipping
#: the convention also changes which compensation plates a modelled bench
#: needs (see experiment.prepare_bell_pair); probabilities are unaffected.
PBS_REFLECTION_PHASE = 1j


class Mode(NamedTuple):
    """One optical mode: (spatial port, polarization, internal flavor)."""

    port: int
    pol: str
    flavor: int = 0

    def __repr__(self) -> str:
        if self.flavor == 0:
            return f"{self.port}{self.pol}"
        return f"{self.port}{self.pol}.{self.flavor}"


#: Canonical occupation vector: mode -> count pairs, sorted, counts > 0.
Occupation = tuple[tuple[Mode, int], ...]


def occupation(counts: Mapping[Mode, int] | Iterable[tuple[Mode, int]]) -> Occupation:
    """Canonicalize a mode -> count association (sorted, zero counts dropped)."""
    items = counts.items() if isinstance(counts, Mapping) else counts
    merged: dict[Mode, int] = {}
    for mode, n in items:
        if n < 0:
            raise ValueError(f"negative occupation {n} for mode {mode}")
        if n:
            merged[mode] = merged.get(mode, 0) + n
    return tuple(sorted(merged.items()))


def occupation_total(occ: Occupation) -> int:
    return sum(n for _, n in occ)


class FockState:
    """Sparse superposition of occupation vectors with complex amplitudes.

    Instances are treated as immutable values; every operation returns a
    new state.  All occupation vectors in a physical state share one total
    photon number (linear optics conserves it), which :meth:`n_photons`
    reports.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Occupation, complex]):
        self._terms = {occ: complex(amp) for occ, amp in terms.items() if amp != 0}

    @classmethod
    def _raw(cls, terms: dict[Occupation, complex]) -> "FockState":
        # Internal constructor for already-canonical term dicts.
        state = cls.__new__(cls)
        state._terms = terms
        return state

    @property
    def terms(self) -> Mapping[Occupation, complex]:
        return self._terms

    def items(self) -> list[tuple[Occupation, complex]]:
        """Terms in canonical (lexicographic) order."""
        return sorted(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockState):
            return NotImplemented
        return self.items() == other.items()

    def __repr__(self) -> str:
        if not self._terms:
            return "FockState(0)"
        parts = []
        for occ, amp in self.items()[:6]:
            ket = ",".join(f"{n}@{m!r}" for m, n in occ) if occ else "vac"
            parts.append(f"({amp:.4g})|{ket}>")
        more = "" if len(self._terms) <= 6 else f" ... ({len(self._terms)} terms)"
        return " + ".join(parts) + more

    def amplitude(self, occ: Occupation) -> complex:
        return self._terms.get(occ, 0j)

    def norm_squared(self) -> float:
        return math.fsum(abs(a) ** 2 for a in self._terms.values())

    def normalized(self) -> "FockState":
        n2 = self.norm_squared()
        if n2 == 0.0:
            return FockState({})
        scale = 1.0 / math.sqrt(n2)
        return FockState({occ: amp * scale for occ, amp in self._terms.items()})

    def n_photons(self) -> int:
        """Total photon number, identical across terms by construction."""
        totals = {occupation_total(occ) for occ in self._terms}
        if not totals:
            return 0
        if len(totals) > 1:
            raise ValueError(f"state mixes photon numbers {sorted(totals)}")
        return totals.pop()

    def ports(self) -> set[int]:
        return {m.port for occ in self._terms for m, _ in occ}


def vacuum() -> FockState:
    return FockState({(): 1.0})


def create_photons(placements: Iterable[tuple[Mode, int]]) -> FockState:
    """Single-term normalized state with the given photons placed.

    Raises on duplicate modes and on totals above ``MAX_PHOTONS``.
    """
    seen: dict[Mode, int] = {}
    for mode, n in placements:
        if mode in seen:
            raise ValueError(f"duplicate mode {mode} in placements")
        if n < 0:
            raise ValueError(f"negative photon count {n}")
        if mode.pol not in POLARIZATIONS:
            raise ValueError(f"unknown polarization {mode.pol!r}")
        seen[mode] = n
    total = sum(seen.values())
    if total > MAX_PHOTONS:
        raise ValueError(f"{total} photons exceed the maximum of {MAX_PHOTONS}")
    return FockState({occupation(seen): 1.0})


# --------------------------------------------------------------------------
# Elements
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BeamSplitter:
    """Two-port splitter, polarization and flavor preserving."""

    port_a: int
    port_b: int
    transmissivity: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.transmissivity <= 1.0:
            raise ValueError("transmissivity must lie in [0, 1]")
        if self.port_a == self.port_b:
            raise ValueError("beam splitter needs two distinct ports")


@dataclass(frozen=True)
class PhaseShift:
    """Single-port phase, applied to every polarization and flavor alike."""

    port: int
    phase: float


@dataclass(frozen=True)
class HalfWavePlate:
    """Half-wave plate with optic axis at ``angle`` radians from H."""

    port: int
    angle: float


@dataclass(frozen=True)
class PolarizingBeamSplitter:
    """Transmits H, reflects V between two ports."""

    port_a: int
    port_b: int

    def __post_init__(self):
        if self.port_a == self.port_b:
            raise ValueError("polarizing beam splitter needs two distinct ports")


ElementaryOp = Union[BeamSplitter, PhaseShift, HalfWavePlate, PolarizingBeamSplitter]


def op_ports(op: ElementaryOp) -> tuple[int, ...]:
    if isinstance(op, (BeamSplitter, PolarizingBeamSplitter)):
        return (op.port_a, op.port_b)
    return (op.port,)


def _snap(x: float) -> float:
    # cos/sin of special angles miss exact 0 / +-1 by ~1e-16; snapping keeps
    # single-element matrices exactly sparse without affecting unitarity.
    for target in (0.0, 1.0, -1.0):
        if abs(x - target) < 1e-15:
            return target
    return x


def _mode_image(op: ElementaryOp, m: Mode):
    """Creation-operator substitution for ``m``, or None if untouched."""
    if isinstance(op, BeamSplitter):
        if m.port == op.port_a:
            t = math.sqrt(op.transmissivity)
            r = math.sqrt(1.0 - op.transmissivity)
            return (
                (m, complex(t)),
                (Mode(op.port_b, m.pol, m.flavor), complex(r)),
            )
        if m.port == op.port_b:
            t = math.sqrt(op.transmissivity)
            r = math.sqrt(1.0 - op.transmissivity)
            return (
                (Mode(op.port_a, m.pol, m.flavor), complex(r)),
                (m, complex(-t)),
            )
        return None
    if isinstance(op, PhaseShift):
        if m.port == op.port:
            return ((m, complex(math.cos(op.phase), math.sin(op.phase))),)
        return None
    if isinstance(op, HalfWavePlate):
        if m.port != op.port:
            return None
        c = _snap(math.cos(2.0 * op.angle))
        s = _snap(math.sin(2.0 * op.angle))
        if m.pol == H:
            image = ((m, complex(c)), (Mode(m.port, V, m.flavor), complex(s)))
        else:
            image = ((Mode(m.port, H, m.flavor), complex(s)), (m, complex(-c)))
        return tuple((mode, coeff) for mode, coeff in image if coeff != 0)
    if isinstance(op, PolarizingBeamSplitter):
        if m.port == op.port_a:
            if m.pol == H:
                return ((m, 1.0 + 0j),)
            return ((Mode(op.port_b, V, m.flavor), PBS_REFLECTION_PHASE),)
        if m.port == op.port_b:
            if m.pol == H:
                return ((m, 1.0 + 0j),)
            return ((Mode(op.port_a, V, m.flavor), PBS_REFLECTION_PHASE),)
        return None
    raise TypeError(f"unknown element {op!r}")


def _power_expansion(image, n: int) -> dict[Occupation, complex]:
    """Expand (sum_j c_j b_j)^n into monomials over the image modes."""
    if len(image) == 1:
        mode, c = image[0]
        return {((mode, n),): c**n}
    (m1, c1), (m2, c2) = image
    out: dict[Occupation, complex] = {}
    for k in range(n + 1):
        coeff = math.comb(n, k) * (c1**k) * (c2 ** (n - k))
        if coeff == 0:
            continue
        parts = []
        if k:
            parts.append((m1, k))
        if n - k:
            parts.append((m2, n - k))
        out[tuple(sorted(parts))] = coeff
    return out


def _poly_product(
    p1: dict[Occupation, complex], p2: dict[Occupation, complex]
) -> dict[Occupation, complex]:
    out: dict[Occupation, complex] = {}
    for mono1, c1 in p1.items():
        for mono2, c2 in p2.items():
            merged: dict[Mode, int] = dict(mono1)
            for mode, n in mono2:
                merged[mode] = merged.get(mode, 0) + n
            key = tuple(sorted(merged.items()))
            out[key] = out.get(key, 0j) + c1 * c2
    return out


def _count_factorial(occ: Occupation) -> int:
    f = 1
    for _, n in occ:
        f *= math.factorial(n)
    return f


def apply_op(state: FockState, op: ElementaryOp) -> FockState:
    """Evolve ``state`` through one element.

    Exact creation-operator substitution: each term is expanded
    multinomially over the element's single-photon transfer matrix, with
    the bosonic sqrt(n!) weights restored on the output monomials.  Photon
    number and norm are conserved up to floating-point rounding.
    """
    out: dict[Occupation, complex] = {}
    out_get = out.get
    image_cache: dict[Mode, object] = {}
    # Expansions depend only on the acted sub-occupation, which repeats
    # constantly across terms, so they are computed once per call.
    expansion_cache: dict[Occupation, list[tuple[Occupation, complex]]] = {}
    acted_ports = set(op_ports(op))
    for occ, amp in state.terms.items():
        acted: list[tuple[Mode, int]] = []
        spectators: list[tuple[Mode, int]] = []
        for entry in occ:
            if entry[0].port in acted_ports:
                acted.append(entry)
            else:
                spectators.append(entry)
        if not acted:
            out[occ] = out_get(occ, 0j) + amp
            continue
        acted_key = tuple(acted)
        expansion = expansion_cache.get(acted_key)
        if expansion is None:
            poly: dict[Occupation, complex] = {(): 1.0 + 0j}
            denom = 1.0
            for mode, n in acted:
                image = image_cache.get(mode)
                if image is None:
                    image = image_cache[mode] = _mode_image(op, mode)
                denom *= math.factorial(n)
                poly = _poly_product(poly, _power_expansion(image, n))
            root = math.sqrt(denom)
            expansion = [
                (mono, coeff * math.sqrt(_count_factorial(mono)) / root)
                for mono, coeff in poly.items()
            ]
            expansion_cache[acted_key] = expansion
        spect = tuple(spectators)
        for mono, weight in expansion:
            key = tuple(sorted(spect + mono))
            out[key] = out_get(key, 0j) + amp * weight
    # Pruned in place: a filtered copy would double the peak term storage.
    for occ in [occ for occ, a in out.items() if abs(a) <= PRUNE_EPS]:
        del out[occ]
    return FockState._raw(out)


@dataclass(frozen=True)
class Network:
    """Ordered sequence of elements over a declared set of ports."""

    ops: tuple[ElementaryOp, ...]
    ports: tuple[int, ...]

    def __post_init__(self):
        declared = set(self.ports)
        for op in self.ops:
            missing = set(op_ports(op)) - declared
            if missing:
                raise ValueError(f"element {op!r} references undeclared ports {missing}")


def apply_network(state: FockState, network: Network) -> FockState:
    for op in network.ops:
        state = apply_op(state, op)
    return state


# --------------------------------------------------------------------------
# Measurement-side helpers
#
# partition is the one place that counts photons per detection group; the
# pattern distribution, the port-count projection and the heralded parts of
# experiment.run_fusion are read off its parts.  post_select conditions on
# exact mode counts by its own loop, so tests can check the heralded
# density matrices against it.
# --------------------------------------------------------------------------


def post_select(
    state: FockState, pattern: Mapping[Mode, int]
) -> tuple[FockState, float]:
    """Condition on exact counts over a subset of modes.

    The pattern modes are consumed: the returned state lives on the
    remaining modes and is renormalized.  A pattern with no support
    returns probability 0 and an empty state.
    """
    pattern = dict(pattern)
    kept: dict[Occupation, complex] = {}
    prob = 0.0
    for occ, amp in state.terms.items():
        counts = dict(occ)
        if any(counts.get(m, 0) != n for m, n in pattern.items()):
            continue
        prob += abs(amp) ** 2
        rest = tuple((m, n) for m, n in occ if m not in pattern)
        kept[rest] = kept.get(rest, 0j) + amp
    if prob == 0.0:
        return FockState({}), 0.0
    scale = 1.0 / math.sqrt(prob)
    return FockState({occ: amp * scale for occ, amp in kept.items()}), prob


#: A detection group: spatial port plus polarization, or a whole port
#: when the polarization slot is None.  Detectors cannot resolve flavor.
Group = tuple[int, Union[str, None]]


def _group_index(groups: Sequence[Group]):
    table: dict[tuple[int, str], int] = {}
    for gi, (port, pol) in enumerate(groups):
        pols = POLARIZATIONS if pol is None else (pol,)
        for p in pols:
            key = (port, p)
            if key in table:
                raise ValueError(f"groups overlap on port {port} polarization {p}")
            table[key] = gi
    return table


def partition(
    state: FockState, groups: Sequence[Group]
) -> dict[tuple[int, ...], FockState]:
    """Split a state by its flavor-blind photon counts over detection groups.

    Occupations are summed over flavor (and over polarization for
    port-only groups); modes outside every group are not counted.  Each
    term lands, unchanged, in the part keyed by its counts, so the parts
    are orthogonal and their squared norms sum to the state's.
    """
    table = _group_index(groups)
    parts: dict[tuple[int, ...], dict[Occupation, complex]] = {}
    for occ, amp in state.terms.items():
        counts = [0] * len(groups)
        for mode, n in occ:
            gi = table.get((mode.port, mode.pol))
            if gi is not None:
                counts[gi] += n
        parts.setdefault(tuple(counts), {})[occ] = amp
    return {key: FockState._raw(terms) for key, terms in parts.items()}


def pattern_distribution(
    state: FockState, groups: Sequence[Group]
) -> dict[tuple[int, ...], float]:
    """Flavor-blind photon-number distribution over detection groups: the
    squared norm of each :func:`partition` part.  Modes outside every
    group are marginalized; for a normalized state the probabilities sum
    to 1."""
    return {key: part.norm_squared() for key, part in partition(state, groups).items()}


def project_port_counts(
    state: FockState, counts: Mapping[int, int]
) -> tuple[FockState, float]:
    """Project onto fixed total photon number per port (any pol, any flavor).

    Unlike :func:`post_select` the projected modes are kept, so the result
    can keep evolving; this models heralding on a coincidence without
    destroying the photons.
    """
    part = partition(state, [(port, None) for port in counts]).get(
        tuple(counts.values()), FockState({})
    )
    return part.normalized(), part.norm_squared()


def compose(*states: FockState) -> FockState:
    """Bosonic product of independently prepared states.

    Creation operators of coinciding modes stack with the proper
    sqrt(binomial) weights, so composing |1_m> with |1_m> yields |2_m>
    with the correct normalization.  The ``MAX_PHOTONS`` cap applies to
    the combined state.
    """
    result = vacuum()
    for state in states:
        out: dict[Occupation, complex] = {}
        for occ1, a1 in result.terms.items():
            for occ2, a2 in state.terms.items():
                merged = dict(occ1)
                weight = a1 * a2
                for mode, n in occ2:
                    prior = merged.get(mode, 0)
                    if prior:
                        weight *= math.sqrt(math.comb(prior + n, n))
                    merged[mode] = prior + n
                if sum(merged.values()) > MAX_PHOTONS:
                    raise ValueError(
                        f"composite state exceeds {MAX_PHOTONS} photons"
                    )
                key = tuple(sorted(merged.items()))
                out[key] = out.get(key, 0j) + weight
        result = FockState(out)
    return result


def superpose(parts: Iterable[tuple[complex, FockState]]) -> FockState:
    """Linear combination of states (not renormalized)."""
    out: dict[Occupation, complex] = {}
    for coeff, state in parts:
        for occ, amp in state.terms.items():
            out[occ] = out.get(occ, 0j) + coeff * amp
    return FockState(out)
