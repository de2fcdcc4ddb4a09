"""Fock states as integer occupation rows, and exact linear-optical evolution.

A state is a sorted tuple of modes, an integer occupation matrix with one
row per term and one column per mode, and one complex amplitude per row.
An optical mode is labelled by a spatial port, a polarization (H or V),
and an integer "flavor" indexing the photon's internal wave packet: flavor
0 is the common, mutually interfering wave packet, while distinct nonzero
flavors are orthogonal to flavor 0 and to each other.  The elements below
never mix flavors, and photons of distinct flavors never interfere, so a
partially distinguishable photon (common with some probability, private
otherwise) is simulated as a classical mixture of states in which each
photon has one flavor (experiment.flavor_branches).

Rows are grouped one way only, by :func:`_group`, which keys a row exactly
by its counts packed four bits each into 64-bit words and numbers equal
keys by sorting them.  Evolution, :func:`compose` and :func:`superpose` sum
equal rows in the order a term-by-term loop would, with complex products
rounded as Python rounds them, so results are reproducible to the bit.
:func:`compose` folds from its first factor: one factor is its own product.
Detectors are flavor-blind: a detector pattern is a row of counts, the
photons each detection group sees (a sum of occupation columns), and
:func:`_group` numbers pattern rows as it numbers occupation rows.  One
helper orders a state's rows by pattern; :func:`partition` slices that
order into states and :func:`pattern_distribution` into squared norms,
each square rounded as Python's ``** 2`` rounds it; experiment.run_fusion
reads its table and heralded densities off the same order.

Elements (beam splitters, phase shifters, wave plates, polarizing beam
splitters) act by substituting creation operators, which is exact for any
photon number.  A network is a plain sequence of elements, which
:func:`apply_network` applies in order.  The beam splitter uses the real
symmetric convention

    a_in -> (a_out + b_out) / sqrt(2),   b_in -> (a_out - b_out) / sqrt(2)

at 50:50, and the polarizing beam splitter transmits H and reflects V with
the reflection phase ``PBS_REFLECTION_PHASE`` (kept in one place so the
convention can be flipped).

:func:`apply_op` also evolves a *bundle*: a tuple of states on equal
occupation rows, one amplitude vector per member (such as Bell inputs that
differ only in amplitude signs).  The row bookkeeping is done once per
bundle, and each member comes back as its lone evolution, bit for bit;
members that keep the same rows share one occupation matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

H = "H"
V = "V"
POLARIZATIONS = (H, V)

#: Largest total photon number a state may hold.  _group keys a row by
#: four bits per count, so counts must stay below 16.
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


def _group(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number equal rows in order of first appearance: the group of each
    row, and the index of each group's first row.  ``rows`` holds integer
    keys, or rows of counts below 16, each keyed exactly by packing its
    counts into 64-bit words of sixteen four-bit fields.  A wider row's
    words are chained: the numbering of the words so far, times the number
    of distinct next words, plus the next word's numbering."""
    if rows.ndim == 2:
        width = rows.shape[1]
        padded = np.zeros((len(rows), 16 * max(1, -(-width // 16))), np.uint8)
        padded[:, :width] = rows
        # Read as uint16, each byte pair folds into its low byte: one count
        # per nibble, in either byte order.  Contiguous, unlike byte slices.
        pairs = padded.view(np.uint16)
        pairs |= pairs >> 4
        words = pairs.astype(np.uint8).view(np.uint64)
        rows = words[:, 0]
        for word in words.T[1:]:
            more, heads = _group(word)
            rows = _group(rows)[0] * len(heads) + more
    # Sorting puts equal keys in runs; a run's smallest row index is its
    # group's first row, whatever order the sort left ties in.
    order = rows.argsort()
    keys = rows[order]
    leads = np.empty(len(rows), dtype=bool)
    leads[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=leads[1:])
    starts = leads.nonzero()[0]
    heads = np.minimum.reduceat(order, starts) if len(starts) else starts
    # Rank the runs by first row, then scatter each run's rank to its rows.
    by_first = heads.argsort()
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(heads))
    group = np.empty_like(order)
    group[order] = rank[leads.cumsum() - 1]
    return group, heads[by_first]


def _product(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of x * y, rounded as Python rounds them."""
    return x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real


def _sum_by(group: np.ndarray, size: int, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Per-group sums of re + i im, each accumulated in input order (a weighted
    bincount adds one weight at a time; 1j * x adds only signed zeros)."""
    return np.bincount(group, re, size) + 1j * np.bincount(group, im, size)


class FockState:
    """Superposition of occupation rows with complex amplitudes.

    ``modes`` is a sorted tuple of modes, ``occ`` a matrix of photon
    counts (terms x modes) with distinct rows of at most ``MAX_PHOTONS``
    photons, and ``amps`` the row amplitudes.  Instances are immutable
    values; every operation returns a new state.
    """

    __slots__ = ("modes", "occ", "amps", "_terms")

    def __init__(self, terms: Mapping[Occupation, complex]):
        terms = {occ: complex(amp) for occ, amp in terms.items() if amp != 0}
        self.modes = tuple(sorted({mode for occ in terms for mode, _ in occ}))
        counts = [dict(key) for key in terms]
        occ = np.array([[c.get(m, 0) for m in self.modes] for c in counts], dtype=int)
        occ = occ.reshape(len(terms), len(self.modes))
        if (occ.sum(axis=1) > MAX_PHOTONS).any():
            raise ValueError(f"a term exceeds {MAX_PHOTONS} photons")
        self.occ, self.amps = occ.astype(np.uint8), np.array(list(terms.values()), complex)
        self._terms = None

    @classmethod
    def _of(cls, modes: tuple[Mode, ...], occ: np.ndarray, amps: np.ndarray) -> FockState:
        """Internal constructor for rows that are already distinct."""
        state = cls.__new__(cls)
        state.modes, state.occ, state.amps, state._terms = modes, occ, amps, None
        return state

    @property
    def terms(self) -> Mapping[Occupation, complex]:
        """Occupation -> amplitude, in row order."""
        if self._terms is None:
            self._terms = {
                tuple((self.modes[c], n) for c, n in enumerate(row) if n): amp
                for row, amp in zip(self.occ.tolist(), self.amps.tolist())
            }
        return self._terms

    def items(self) -> list[tuple[Occupation, complex]]:
        """Terms in canonical (lexicographic) order."""
        return sorted(self.terms.items())

    def __len__(self) -> int:
        return len(self.amps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockState):
            return NotImplemented
        return self.items() == other.items()

    def __repr__(self) -> str:
        kets = [f"({amp:.4g})|{','.join(f'{n}@{m!r}' for m, n in occ) or 'vac'}>"
                for occ, amp in self.items()[:6]]
        more = f" ... ({len(self)} terms)" if len(self) > 6 else ""
        return " + ".join(kets) + more if kets else "FockState(0)"

    def amplitude(self, occ: Occupation) -> complex:
        return self.terms.get(occ, 0j)

    def norm_squared(self) -> float:
        return _norms(self, np.arange(len(self)), [0, len(self)])[0]

    def normalized(self) -> FockState:
        n2 = self.norm_squared()
        if n2 == 0.0:
            return FockState({})
        # A complex times a real rounds each part once, fused or not.
        return FockState._of(self.modes, self.occ, self.amps * (1.0 / math.sqrt(n2)))

    def n_photons(self) -> int:
        """Total photon number, which linear optics keeps equal across terms."""
        totals = sorted(set(self.occ.sum(axis=1).tolist())) or [0]
        if len(totals) > 1:
            raise ValueError(f"state mixes photon numbers {totals}")
        return totals[0]

    def ports(self) -> set[int]:
        return {m.port for m, live in zip(self.modes, self.occ.any(axis=0)) if live}


def _widened(state: FockState, modes: tuple[Mode, ...]) -> np.ndarray:
    """``state``'s occupation matrix over ``modes``, a superset of its own."""
    occ = np.zeros((len(state), len(modes)), dtype=np.uint8)
    occ[:, [modes.index(m) for m in state.modes]] = state.occ
    return occ


def _merged(modes: tuple[Mode, ...], occ: np.ndarray, re, im) -> FockState:
    """Rows ``occ`` with amplitudes re + i im, equal rows summed, zeros dropped."""
    group, first = _group(occ)
    amps = _sum_by(group, len(first), re, im)
    return FockState._of(modes, occ.take(first[amps != 0], axis=0), amps[amps != 0])


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

    def __post_init__(self):
        if not math.isfinite(self.phase):
            raise ValueError("phase must be finite")


@dataclass(frozen=True)
class HalfWavePlate:
    """Half-wave plate with optic axis at ``angle`` radians from H."""

    port: int
    angle: float

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValueError("wave-plate angle must be finite")


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
    return next((t for t in (0.0, 1.0, -1.0) if abs(x - t) < 1e-15), x)


def _mode_image(op: ElementaryOp, m: Mode):
    """Creation-operator substitution for ``m``, a mode on ``op``'s ports."""
    if isinstance(op, BeamSplitter):
        t, r = math.sqrt(op.transmissivity), math.sqrt(1.0 - op.transmissivity)
        if m.port == op.port_a:
            return ((m, complex(t)), (Mode(op.port_b, m.pol, m.flavor), complex(r)))
        return ((Mode(op.port_a, m.pol, m.flavor), complex(r)), (m, complex(-t)))
    if isinstance(op, PhaseShift):
        return ((m, complex(math.cos(op.phase), math.sin(op.phase))),)
    if isinstance(op, HalfWavePlate):
        c, s = _snap(math.cos(2.0 * op.angle)), _snap(math.sin(2.0 * op.angle))
        h, v = Mode(m.port, H, m.flavor), Mode(m.port, V, m.flavor)
        image = ((h, c), (v, s)) if m.pol == H else ((h, s), (v, -c))
        return tuple((mode, complex(coeff)) for mode, coeff in image if coeff != 0)
    if isinstance(op, PolarizingBeamSplitter):
        if m.pol == H:
            return ((m, 1.0 + 0j),)
        other = op.port_b if m.port == op.port_a else op.port_a
        return ((Mode(other, V, m.flavor), PBS_REFLECTION_PHASE),)
    raise TypeError(f"unknown element {op!r}")


@functools.lru_cache(maxsize=4096)
def _expansion(op: ElementaryOp, acted: Occupation):
    """Image of the sub-occupation ``acted`` on ``op``'s ports: (modes,
    counts, weights), one read-only row of ``counts`` over ``modes`` per
    output monomial in order of first production.  Each acted mode's (sum_j
    c_j b_j)^n is expanded binomially, and sqrt(n!) weights are restored."""
    images = [_mode_image(op, mode) for mode, _ in acted]
    modes = sorted({mode for image in images for mode, _ in image})
    poly = {(0,) * len(modes): 1.0 + 0j}
    denom = 1.0
    for (_, n), image in zip(acted, images):
        denom *= math.factorial(n)
        (m1, c1), (m2, c2) = (image * 2)[:2]  # a one-mode image takes k = n only
        power = []
        for k in range(n + 1) if len(image) == 2 else (n,):
            coeff = math.comb(n, k) * c1**k * c2 ** (n - k)
            if coeff != 0:
                vec = [0] * len(modes)
                vec[modes.index(m1)] += k
                vec[modes.index(m2)] += n - k
                power.append((vec, coeff))
        product: dict[tuple[int, ...], complex] = {}
        for mono, c in poly.items():
            for vec, p in power:
                key = tuple(a + b for a, b in zip(mono, vec))
                product[key] = product.get(key, 0j) + c * p
        poly = product
    root = math.sqrt(denom)
    counts = np.array(list(poly), dtype=np.uint8).reshape(len(poly), len(modes))
    weights = np.array([c * math.sqrt(math.prod(map(math.factorial, mono))) / root
                        for mono, c in poly.items()])
    counts.flags.writeable = weights.flags.writeable = False
    return modes, counts, weights


@functools.lru_cache(maxsize=1024)
def _monomials(op: ElementaryOp, acted: tuple[Mode, ...], subs: tuple[tuple[int, ...], ...]
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Images of the distinct sub-rows ``subs`` over the ``acted`` modes on
    ``op``'s ports: every sub-row's monomials over ``acted`` stacked in
    sub-row order, their weights, how many each sub-row has, and each
    monomial's group number (read-only arrays)."""
    position = {m: i for i, m in enumerate(acted)}
    monos, weights = [], []
    for sub in subs:
        image, counts, weight = _expansion(op, tuple((m, n) for m, n in zip(acted, sub) if n))
        monos.append(np.zeros((len(counts), len(acted)), dtype=np.uint8))
        monos[-1][:, [position[m] for m in image]] = counts
        weights.append(weight)
    mono, weight = np.concatenate(monos), np.concatenate(weights)
    lengths = np.array([len(w) for w in weights])
    group = _group(mono)[0]
    for array in (mono, weight, lengths, group):
        array.flags.writeable = False
    return mono, weight, lengths, group


def apply_op(state: FockState | tuple[FockState, ...], op: ElementaryOp):
    """Evolve a state, or a bundle of states, through one element.

    A bundle is a tuple of states on the same modes and equal ``occ``
    rows, one amplitude vector per member.  Each distinct sub-row on the
    element's ports is expanded once by :func:`_expansion` (the whole set
    is memoized per element); an output row is an input row with that
    sub-row replaced by one monomial, and equal output rows are summed in
    input-row, then monomial, order.  All of that bookkeeping is done once
    per bundle; only the products, sums and prune run per member.  Each
    member comes back as its lone evolution, bit for bit: its rows,
    amplitudes and row order.  Members that keep the same rows share one
    ``occ`` array, built once.  A lone state is the one-member bundle and
    comes back alone.  Photon number and norm are conserved.
    """
    members = state if isinstance(state, tuple) else (state,)
    lead = members[0]
    if not len(lead):
        return state
    ports = op_ports(op)
    images = [_mode_image(op, mode) for mode in lead.modes if mode.port in ports]
    modes = tuple(sorted({m for image in images for m, _ in image}.union(lead.modes)))
    occ = _widened(lead, modes)
    acted = [c for c, mode in enumerate(modes) if mode.port in ports]
    rest = [c for c, mode in enumerate(modes) if mode.port not in ports]

    kind, first = _group(occ[:, acted])
    subs = tuple(map(tuple, occ[first][:, acted].tolist()))
    # Elements treat flavors alike: key by rank, a relabel that keeps every order.
    rank = {f: i for i, f in enumerate(sorted({modes[c].flavor for c in acted}))}
    keyed = tuple(Mode(modes[c].port, modes[c].pol, rank[modes[c].flavor]) for c in acted)
    mono, weight, lengths, monomial = _monomials(op, keyed, subs)

    # Output candidate j pairs input row[j] with monomial pick[j], in term-loop order.
    per_row = lengths[kind]
    row = np.repeat(np.arange(len(lead)), per_row)
    offset = (np.cumsum(lengths) - lengths)[kind] - (np.cumsum(per_row) - per_row)
    pick = np.arange(len(row)) + np.repeat(offset, per_row)
    spectator, _ = _group(occ[:, rest])
    out, head = _group(spectator[row] * len(mono) + monomial[pick])
    factor = weight[pick]
    sums = [_sum_by(out, len(head), *_product(m.amps[row], factor)) for m in members]

    # An output row is its input's rest columns plus its monomial's acted
    # ones; take copies whole rows, several times faster than [] here.
    rest_only = occ.copy()
    rest_only[:, acted] = 0
    placed = np.zeros((len(mono), len(modes)), dtype=np.uint8)
    placed[:, acted] = mono
    rows: dict[bytes, np.ndarray] = {}
    evolved = []
    for a in sums:
        keep = np.hypot(a.real, a.imag) > PRUNE_EPS  # Python's abs, bit for bit
        key = keep.tobytes()
        if key not in rows:
            rows[key] = rest_only.take(row[head[keep]], axis=0)
            rows[key] += placed.take(pick[head[keep]], axis=0)
        evolved.append(FockState._of(modes, rows[key], a[keep]))
    return tuple(evolved) if isinstance(state, tuple) else evolved[0]


def apply_network(state: FockState, ops: Iterable[ElementaryOp]) -> FockState:
    """Evolve ``state`` through the elements ``ops`` in order."""
    for op in ops:
        state = apply_op(state, op)
    return state


# --------------------------------------------------------------------------
# Measurement-side helpers
#
# _parts is the one place that counts photons per detection group: it sums
# each group's occupation columns into a pattern row (_column_sums), numbers
# the pattern rows with _group and orders rows stably by part.  partition
# slices states out of that order and pattern_distribution squared norms
# (_norms) out of the same runs, each keyed by its part's pattern row as a
# tuple; the port-count projection reads partition's states.
# experiment.run_fusion calls _parts once per branch, reads its table
# (_norms) and every part's heralded density (experiment._pair_densities,
# which counts with _column_sums too) off those runs, and keeps the pattern
# rows until its table is done.
# --------------------------------------------------------------------------


#: A detection group: spatial port plus polarization, or a whole port
#: when the polarization slot is None.  Detectors cannot resolve flavor.
Group = tuple[int, Union[str, None]]
#: Photon counts seen by each of a list of detection groups.
Pattern = tuple[int, ...]


def _column_sums(occ: np.ndarray, columns: Sequence[Sequence[int]]) -> np.ndarray:
    """Count rows (len(columns) x rows of ``occ``): row j sums the
    occupation columns ``columns[j]``, one contiguous add per column (numpy's
    integer matrix product is a plain triple loop)."""
    counts = np.zeros((len(columns), len(occ)), dtype=np.uint8)
    for j, cols in enumerate(columns):
        for c in cols:
            counts[j] += occ[:, c]
    return counts


def _parts(
    state: FockState, groups: Sequence[Group]
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Rows split by their photon counts over ``groups``: the stable row
    order that makes each :func:`partition` part a contiguous run, the
    parts' pattern rows (parts x groups, uint8) in order of their first
    rows, and the run bounds (part i is rows ``bounds[i]:bounds[i + 1]`` of
    that order)."""
    slots = [((port, p), j) for j, (port, pol) in enumerate(groups)
             for p in ((pol,) if pol else POLARIZATIONS)]
    column = dict(slots)
    if len(column) < len(slots):
        raise ValueError(f"detection groups overlap: {list(groups)}")
    # The groups are disjoint, so each mode's column adds to at most one
    # count; the last list takes the modes outside every group.
    columns = [[] for _ in range(len(groups) + 1)]
    for c, m in enumerate(state.modes):
        columns[column.get(m[:2], -1)].append(c)
    counts = _column_sums(state.occ, columns[:-1]).T
    part, first = _group(counts)
    bounds = [0] + np.cumsum(np.bincount(part)).tolist()
    return np.argsort(part, kind="stable"), counts[first], bounds


def _norms(state: FockState, order: np.ndarray, bounds: list[int]) -> list[float]:
    """Squared norms of the runs of ``state``'s rows in ``order``."""
    # Python's abs(a) ** 2: np.hypot is abs bit for bit, and float_power
    # calls the C pow that Python's ** calls, where np.square and
    # np.power(h, 2.0) round differently from it.
    magnitudes = np.hypot(state.amps.real, state.amps.imag)
    squares = np.float_power(magnitudes[order], 2.0).tolist()
    return [math.fsum(squares[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def partition(state: FockState, groups: Sequence[Group]) -> dict[Pattern, FockState]:
    """Split a state by its flavor-blind photon counts over detection groups.

    Occupations are summed over flavor (and over polarization for
    port-only groups); modes outside every group are not counted.  Each
    row lands, unchanged and in order, in the part keyed by its counts
    (parts in order of their first rows), so the parts are orthogonal.
    """
    order, patterns, bounds = _parts(state, groups)
    occ, amps = state.occ.take(order, axis=0), state.amps[order]
    return {key: FockState._of(state.modes, occ[lo:hi], amps[lo:hi])
            for key, lo, hi in zip(map(tuple, patterns.tolist()), bounds, bounds[1:])}


def pattern_distribution(
    state: FockState, groups: Sequence[Group]
) -> dict[Pattern, float]:
    """Flavor-blind photon-number distribution over detection groups: the
    squared norm of each :func:`partition` part, in the same order, without
    building the parts.  Modes outside every group are marginalized; for a
    normalized state the probabilities sum to 1."""
    order, patterns, bounds = _parts(state, groups)
    return dict(zip(map(tuple, patterns.tolist()), _norms(state, order, bounds)))


def project_port_counts(
    state: FockState, counts: Mapping[int, int]
) -> tuple[FockState, float]:
    """Project onto fixed total photon number per port (any pol, any flavor).

    The projected modes are kept, so the result can keep evolving; this
    models heralding on a coincidence without destroying the photons.
    """
    parts = partition(state, [(port, None) for port in counts])
    part = parts.get(tuple(counts.values()), FockState({}))
    return part.normalized(), part.norm_squared()


#: _SQRT_BINOM[p, n] = sqrt(C(p + n, n)): the weight of stacking n photons onto p.
_SQRT_BINOM = np.sqrt([[math.comb(p + n, n) for n in range(MAX_PHOTONS + 1)]
                       for p in range(MAX_PHOTONS + 1)])


def compose(*states: FockState) -> FockState:
    """Bosonic product of independently prepared states, folded from the
    first factor: a one-factor product is that factor, rows and amplitude
    bits unchanged, and no factor gives the vacuum.  Creation operators of
    coinciding modes stack with the proper sqrt(binomial) weights, so
    composing |1_m> with |1_m> yields |2_m> with the correct
    normalization.  The ``MAX_PHOTONS`` cap applies to the combined state.
    """
    result, *rest = states or (vacuum(),)
    for state in rest:
        modes = tuple(sorted(set(result.modes).union(state.modes)))
        a, b = _widened(result, modes), _widened(state, modes)
        occ = (a[:, None, :] + b[None, :, :]).reshape(-1, len(modes))
        if (occ.sum(axis=1) > MAX_PHOTONS).any():
            raise ValueError(f"composite state exceeds {MAX_PHOTONS} photons")
        re, im = _product(np.repeat(result.amps, len(b)), np.tile(state.amps, len(a)))
        # Stacking weights, one shared mode at a time.
        for c in np.flatnonzero(a.any(axis=0) & b.any(axis=0)):
            weight = _SQRT_BINOM[a[:, c][:, None], b[:, c][None, :]].ravel()
            re, im = re * weight, im * weight
        result = _merged(modes, occ, re, im)
    return result


def superpose(parts: Iterable[tuple[complex, FockState]]) -> FockState:
    """Linear combination of states (not renormalized)."""
    parts = [(complex(coeff), state) for coeff, state in parts if len(state)]
    if not parts:
        return FockState({})
    modes = tuple(sorted({m for _, state in parts for m in state.modes}))
    occ = np.concatenate([_widened(state, modes) for _, state in parts])
    coeffs = np.concatenate([np.full(len(state), c) for c, state in parts])
    amps = np.concatenate([state.amps for _, state in parts])
    return _merged(modes, occ, *_product(coeffs, amps))
