"""Kruskal sweep, binomial convolution, and threshold estimation."""

import concurrent.futures
import hashlib
import math
import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from fusionsim import percolation
from fusionsim.percolation import (
    BOND_THRESHOLD,
    SITE_BOND_EQUAL_THRESHOLD,
    Lattice,
    PercModel,
    SweepCurve,
    binomial_window,
    build_square_lattice,
    direct_monte_carlo,
    estimate_threshold,
    max_slope_location,
    n_elements,
    run_trial,
    size_sweeps,
    sweep_curves,
    trial_rng,
)


class TestLattice:
    def test_open_bond_count(self):
        lat = build_square_lattice(10, "open")
        assert lat.n_sites == 100
        assert lat.n_bonds == 180

    def test_periodic_bond_count(self):
        assert build_square_lattice(10, "periodic").n_bonds == 200

    def test_minimal_lattice(self):
        lat = build_square_lattice(2, "open")
        assert lat.n_sites == 4
        assert lat.n_bonds == 4

    def test_no_duplicate_bonds(self):
        for boundary in ("open", "periodic"):
            lat = build_square_lattice(5, boundary)
            seen = {tuple(sorted(b)) for b in lat.bonds.tolist()}
            assert len(seen) == lat.n_bonds

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            build_square_lattice(1)

    def test_side_over_the_cap_rejected_before_allocating(self, monkeypatch):
        """``MAX_SIDE`` is the largest side whose site-bond periodic sweep
        (3L^2 elements) numbers its steps in uint32; one more is refused
        before the site index is built."""
        cap = percolation.MAX_SIDE
        assert 3 * cap**2 < 2**32 <= 3 * (cap + 1) ** 2

        def no_arange(*args, **kwargs):
            pytest.fail("the lattice was allocated")

        monkeypatch.setattr(percolation.np, "arange", no_arange)
        with pytest.raises(ValueError, match=str(cap)):
            build_square_lattice(cap + 1)

    def test_bad_boundary_rejected(self):
        with pytest.raises(ValueError):
            build_square_lattice(4, "twisted")

    def test_model_validation(self):
        with pytest.raises(ValueError):
            PercModel(mode="tube")


def bfs_clusters(active_sites, live_bonds):
    """Exhaustive traversal reference: the clusters as sets of sites."""
    adjacency = {s: [] for s in active_sites}
    for u, v in live_bonds:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = set()
    clusters = []
    for start in active_sites:
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        cluster = set()
        while queue:
            node = queue.popleft()
            cluster.add(node)
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        clusters.append(cluster)
    return clusters


def traversal_records(lat, mode, seed, trial):
    """Both records of a trial, step by step, from a traversal of the
    elements added in the first m steps of the trial's random order."""
    n, m_total = lat.n_sites, n_elements(lat, PercModel(mode=mode))
    order = trial_rng(seed, trial).permutation(m_total).tolist()
    first, last = set(range(lat.length)), set(range(n - lat.length, n))
    bond_base = 0 if mode == "bond" else n
    active = set(range(n)) if mode == "bond" else set()
    added = []
    largest, spanning = [], []
    for m in range(m_total + 1):
        if m > 0:
            element = order[m - 1]
            if element < bond_base:
                active.add(element)
            else:
                added.append(tuple(lat.bonds[element - bond_base]))
        live = [(u, v) for u, v in added if u in active and v in active]
        clusters = bfs_clusters(sorted(active), live)
        largest.append(max(map(len, clusters), default=0))
        spanning.append(int(any(c & first and c & last for c in clusters)))
    return largest, spanning


def first_spanning(spanning, first_step=0, last_step=None):
    """The ``span`` that ``run_trial`` reports over ``first_step``..
    ``last_step``, read off a traversal's per-step 0/1 spanning list."""
    last_step = len(spanning) - 1 if last_step is None else last_step
    return next(
        (m for m in range(first_step, last_step + 1) if spanning[m]), last_step + 1
    )


def labels_span(lat, mode, seed, trial, m):
    """Whether the elements added in the first m steps of the trial's
    random order join the first and last rows, by ``_component_labels``."""
    n, m_total = lat.n_sites, n_elements(lat, PercModel(mode=mode))
    present = np.zeros(m_total, dtype=bool)
    present[trial_rng(seed, trial).permutation(m_total)[:m]] = True
    site_on = np.ones(n, dtype=bool) if mode == "bond" else present[:n]
    bond_on = present if mode == "bond" else present[n:]
    live = bond_on & site_on[lat.bonds[:, 0]] & site_on[lat.bonds[:, 1]]
    labels = percolation._component_labels(n, lat.bonds[live])
    L = lat.length
    tops = labels[:L][site_on[:L]]
    bottoms = labels[n - L :][site_on[n - L :]]
    return np.intersect1d(tops, bottoms).size > 0


class TestRunTrial:
    def test_bond_mode_boundaries(self):
        lat = build_square_lattice(6, "open")
        largest, span = run_trial(lat, PercModel(mode="bond"), seed=1)
        assert len(largest) == lat.n_bonds + 1
        assert largest[0] == 1  # isolated sites are clusters
        assert largest[-1] == lat.n_sites
        assert lat.length - 1 <= span <= lat.n_bonds  # a column of bonds at least

    def test_site_bond_boundaries(self):
        lat = build_square_lattice(6, "open")
        model = PercModel(mode="site-bond")
        largest, span = run_trial(lat, model, seed=1)
        assert len(largest) == n_elements(lat, model) + 1
        assert largest[0] == 0  # nothing active yet
        assert largest[-1] == lat.n_sites
        assert 2 * lat.length - 1 <= span <= n_elements(lat, model)

    def test_record_bounded_by_sites(self):
        lat = build_square_lattice(5, "periodic")
        for mode in ("bond", "site-bond"):
            largest, _ = run_trial(lat, PercModel(mode=mode), seed=9)
            assert largest.max() == lat.n_sites
            assert largest.min() >= 0

    def test_largest_monotone(self):
        lat = build_square_lattice(8, "open")
        for mode in ("bond", "site-bond"):
            largest, _ = run_trial(lat, PercModel(mode=mode), seed=5)
            assert all(b >= a for a, b in zip(largest, largest[1:]))

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("mode", ["bond", "site-bond"])
    def test_every_step_against_traversal(self, mode, boundary):
        """Entry m of the largest-cluster record matches a traversal of the
        elements added in the first m steps of the trial's random order,
        and ``span`` is the first step at which that traversal spans."""
        for side, trial in ((2, 0), (3, 1), (4, 2), (5, 3)):
            lat = build_square_lattice(side, boundary)
            model = PercModel(mode=mode)
            largest, span = run_trial(lat, model, seed=11, trial=trial)
            expected = traversal_records(lat, mode, seed=11, trial=trial)
            assert largest.tolist() == expected[0]
            assert span == first_spanning(expected[1])

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("mode", ["bond", "site-bond"])
    def test_first_step_against_traversal(self, mode, boundary):
        """A pass started at step k, with the bonds in effect by then merged
        at once, matches the traversal at every step from k."""
        for side, trial in ((2, 4), (3, 5), (4, 6), (5, 7)):
            lat = build_square_lattice(side, boundary)
            model = PercModel(mode=mode)
            m_total = n_elements(lat, model)
            expected = traversal_records(lat, mode, seed=12, trial=trial)
            for k in range(0, m_total + 1, max(1, m_total // 7)):
                largest, span = run_trial(
                    lat, model, seed=12, trial=trial, first_step=k
                )
                assert largest.tolist() == expected[0][k:]
                assert span == first_spanning(expected[1], k)

    @pytest.mark.parametrize("mode", ["bond", "site-bond"])
    def test_last_step_truncates_the_full_records(self, mode):
        lat = build_square_lattice(7, "periodic")
        model = PercModel(mode=mode)
        whole, whole_span = run_trial(lat, model, seed=8, trial=2)
        for k in (0, 1, 17, n_elements(lat, model) // 2, n_elements(lat, model)):
            largest, span = run_trial(lat, model, seed=8, trial=2, last_step=k)
            assert np.array_equal(largest, whole[: k + 1])
            assert span == min(whole_span, k + 1)

    @pytest.mark.parametrize("mode", ["bond", "site-bond"])
    def test_first_step_slices_the_full_records(self, mode):
        lat = build_square_lattice(7, "periodic")
        model = PercModel(mode=mode)
        m_total = n_elements(lat, model)
        whole, whole_span = run_trial(lat, model, seed=8, trial=3)
        order = trial_rng(8, 3).permutation(m_total)
        first_site = 0 if mode == "bond" else 1 + int(np.argmax(order < lat.n_sites))
        for k in (0, 1, first_site, m_total // 3, m_total // 2, m_total):
            for last in (k, (k + m_total) // 2, m_total):
                largest, span = run_trial(lat, model, 8, 3, last_step=last, first_step=k)
                assert np.array_equal(largest, whole[k : last + 1])
                assert span == min(max(whole_span, k), last + 1)

    @pytest.mark.parametrize(
        "first_step, last_step",
        [(0, -1), (0, 41), (0, 10**6), (-1, 10), (11, 10), (41, None)],
    )
    def test_steps_outside_the_sweep_rejected(self, first_step, last_step):
        lat = build_square_lattice(4, "open")
        model = PercModel(mode="site-bond")
        assert n_elements(lat, model) == 40
        with pytest.raises(ValueError, match="first_step <= last_step"):
            run_trial(lat, model, seed=1, last_step=last_step, first_step=first_step)

    def test_spanning_record_is_indicator(self):
        """``span`` lies in ``[first_step, last_step + 1]``, and a full sweep
        of an open lattice spans at or before its last step M."""
        lat = build_square_lattice(6, "open")
        model = PercModel()
        m_total = n_elements(lat, model)
        _, span = run_trial(lat, model, seed=3)
        assert type(span) is int and 0 < span <= m_total
        for first, last in ((0, 0), (0, span - 1), (0, span), (span, span),
                            (span + 1, m_total), (m_total // 3, 2 * m_total // 3)):
            _, cut = run_trial(lat, model, 3, last_step=last, first_step=first)
            assert first <= cut <= last + 1

    @pytest.mark.parametrize("mode", ["bond", "site-bond"])
    def test_span_against_component_labels(self, mode):
        """At sizes the traversal cannot reach, ``span`` from any
        ``first_step`` is the first spanning step, found by bisection over
        steps with the independent labeller ``_component_labels``."""
        for side in (6, 11, 20):
            lat = build_square_lattice(side, "open")
            model = PercModel(mode=mode)
            m_total = n_elements(lat, model)
            for trial in range(4):
                below, first = 0, m_total  # nothing spans at 0, all at M
                while first - below > 1:
                    mid = (below + first) // 2
                    if labels_span(lat, mode, 5, trial, mid):
                        first = mid
                    else:
                        below = mid
                for f in {0, m_total // 3, first, min(first + 1, m_total)}:
                    assert run_trial(lat, model, 5, trial, first_step=f)[1] == max(first, f)
                for f in {0, min(m_total // 3, first - 1)}:
                    _, span = run_trial(
                        lat, model, 5, trial, last_step=first - 1, first_step=f
                    )
                    assert span == first  # last_step + 1: no span by then

    @pytest.mark.parametrize(
        "side, dtype", [(15, np.uint8), (16, np.uint16), (256, np.uint32)]
    )
    def test_records_are_narrow(self, side, dtype):
        """``largest`` takes the narrowest type that holds the site count
        (225 fits uint8, 256 does not) and spanning is the one integer
        ``span``, so a step costs 1, 2 or 4 bytes instead of 16."""
        lat = build_square_lattice(side, "open")
        model = PercModel()
        mid = n_elements(lat, model) // 2
        largest, span = run_trial(lat, model, 4, first_step=mid, last_step=mid + 9)
        assert largest.dtype == dtype and type(span) is int
        assert largest.nbytes == 10 * np.dtype(dtype).itemsize


def effective_steps(lat, mode, seed, trial):
    """Each bond's effective step, element by element from the trial's
    random order: the latest of its own step and its endpoints' steps."""
    n, m_total = lat.n_sites, n_elements(lat, PercModel(mode=mode))
    step = [0] * m_total
    for m, element in enumerate(trial_rng(seed, trial).permutation(m_total).tolist()):
        step[element] = m + 1
    if mode == "bond":
        return step
    return [max(step[n + b], step[u], step[v]) for b, (u, v) in enumerate(lat.bonds.tolist())]


class TestMergeOrder:
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("mode", ["bond", "site-bond"])
    def test_split_at_first_step(self, mode, boundary):
        """The prefix holds exactly the bonds in effect by ``first_step``,
        the window the rest up to ``last_step`` in non-decreasing key
        order, and together they hold every bond in effect by then."""
        lat = build_square_lattice(6, boundary)
        model = PercModel(mode=mode)
        m_total = n_elements(lat, model)
        for trial in range(3):
            keys = effective_steps(lat, mode, seed=7, trial=trial)
            bonds = [tuple(b) for b in lat.bonds.tolist()]
            for first, last in ((0, m_total), (0, m_total // 2),
                                (m_total // 3, 2 * m_total // 3), (m_total, m_total)):
                prefix, (window_keys, window), _ = percolation._merge_order(
                    lat, model, 7, trial, first, last
                )
                expected_prefix = sorted(b for b, k in zip(bonds, keys) if k <= first)
                assert sorted(map(tuple, prefix.tolist())) == expected_prefix
                assert np.all(np.diff(window_keys) >= 0)
                assert np.all((window_keys > first) & (window_keys <= last))
                expected_window = sorted(
                    (k, b) for b, k in zip(bonds, keys) if first < k <= last
                )
                got_window = sorted(zip(window_keys.tolist(), map(tuple, window.tolist())))
                assert got_window == expected_window
                in_effect = sorted(b for b, k in zip(bonds, keys) if k <= last)
                together = sorted(map(tuple, [*prefix.tolist(), *window.tolist()]))
                assert together == in_effect

    def test_steps_beyond_uint32_rejected(self, monkeypatch):
        """Merge steps are uint32, so a sweep of 2**32 elements would wrap;
        it is refused before the trial's permutation of M is drawn."""
        lat = Lattice(2**16, "open", np.empty((0, 2), dtype=np.int64))
        assert n_elements(lat, PercModel()) == 2**32

        def no_draw(seed, trial):
            raise AssertionError("the permutation of 2**32 elements was drawn")

        monkeypatch.setattr(percolation, "trial_rng", no_draw)
        with pytest.raises(ValueError, match="uint32"):
            percolation._merge_order(lat, PercModel(), 0, 0, 0, 2**32)


class TestPrefixRoots:
    @staticmethod
    def expected_roots(n, edges):
        root = [0] * n
        for cluster in bfs_clusters(range(n), edges):
            for site in cluster:
                root[site] = min(cluster)
        return root

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_random_edge_subsets_match_traversal(self, boundary):
        rng = np.random.default_rng(4)
        for side in (2, 3, 6, 11):
            lat = build_square_lattice(side, boundary)
            for fraction in (0.0, 0.2, 0.5, 0.8, 1.0):
                edges = lat.bonds[rng.random(lat.n_bonds) < fraction]
                edges = edges[rng.permutation(len(edges))]
                roots = percolation._prefix_roots(lat.n_sites, edges)
                assert roots.tolist() == self.expected_roots(
                    lat.n_sites, edges.tolist()
                )

    def test_empty_edge_set(self):
        edges = np.empty((0, 2), dtype=np.int64)
        assert percolation._prefix_roots(5, edges).tolist() == list(range(5))

    def test_duplicated_bonds(self):
        """An L = 2 periodic lattice lists each bond twice."""
        lat = build_square_lattice(2, "periodic")
        assert len({tuple(sorted(b)) for b in lat.bonds.tolist()}) < lat.n_bonds
        for subset in ([0, 4], [1, 5], [0, 2, 4, 6], list(range(lat.n_bonds))):
            edges = lat.bonds[subset]
            roots = percolation._prefix_roots(lat.n_sites, edges)
            assert roots.tolist() == self.expected_roots(lat.n_sites, edges.tolist())


class TestBinomialWindow:
    @pytest.mark.parametrize("m_total", [10, 200])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.73])
    def test_matches_exact_binomial(self, m_total, p):
        start, weights = binomial_window(m_total, p)
        for offset, w in enumerate(weights):
            m = start + offset
            exact = math.comb(m_total, m) * p**m * (1 - p) ** (m_total - m)
            assert abs(w - exact) < 1e-12

    @pytest.mark.parametrize("m_total", [100, 32512, 2_000_000])
    def test_weights_sum_to_one(self, m_total):
        for p in (0.01, 0.3, 0.5, 0.672, 0.99):
            _, weights = binomial_window(m_total, p)
            assert abs(weights.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize(
        "m_total, p, start, digest",
        [
            (0, 1e-09, 0, "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
            (0, 0.3, 0, "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
            (0, 0.74, 0, "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
            (0, 0.999999, 0, "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
            (280, 1e-09, 0, "42e6e2bedcebbc01e8b560e7523c383b980bb8c00c59831a53250668a832f7c6"),
            (280, 0.3, 27, "d7c673be2b3aae39ab3ce1540a9623df4d0e33b8152f61dbd0c1bae427333469"),
            (280, 0.74, 143, "19445b4e087d2520bdbecbad40dcbc27ac6e1e2d3a7f9d2db0fe76b71d33d35f"),
            (280, 0.999999, 276, "724c6f6bfacaa62da1ab47dd06cbdd495b33a08c0efeaddf47e6f305ff084663"),
            (29800, 1e-09, 0, "536a1841a8e0948670e6ae148ecb8d9074e158fec9b2be711e0ffd25a413aa3c"),
            (29800, 0.3, 8316, "4bf7eeebf030abdb6ddb898094829298ba883065be7c4f597fc7f4b567119ea4"),
            (29800, 0.74, 21446, "8f8748eef16c9e3022d7d0d31ed7424366515fd13da07467564ce89745eb5aa6"),
            (29800, 0.999999, 29793, "768602f6177b5e71e1e83cd5e9fcbe4aa8d5e7d17aea47ad7c193dd16efdd44a"),
            (2998000, 1e-09, 0, "0b2ab1e391f98ae2025fb556dabab32dcd0f83c555eceae406d248730dee72d3"),
            (2998000, 0.3, 893336, "36fa7208a546dc24b536609f03901fd10c8334e665d5ce415b5552f9b15d823f"),
            (2998000, 0.74, 2212703, "4e0c50bde0854aafede254378c0e7a169a67e44398896ddc1562874b05a1f669"),
            (2998000, 0.999999, 2997974, "64bf44c0f32828e4eee533d5de812686fe472fbb44f70ff3908c9e5e9f0b32c5"),
        ],
    )
    def test_keeps_its_bits(self, m_total, p, start, digest):
        """Start and sha256 of the weights' bytes, recorded for the
        site-bond element counts of L = 10, 100 and 1000: a reordered
        product in the tail walk changes the digest."""
        got_start, weights = binomial_window(m_total, p)
        assert got_start == start
        assert hashlib.sha256(weights.tobytes()).hexdigest() == digest

    def test_degenerate_endpoints(self):
        assert binomial_window(50, 0.0) == (0, pytest.approx([1.0]))
        start, weights = binomial_window(50, 1.0)
        assert start == 50 and weights[0] == 1.0


class TestConvolution:
    def test_endpoint_values(self):
        lat = build_square_lattice(8, "open")
        model = PercModel(mode="site-bond")
        curve = sweep_curves(lat, model, [0.0, 1.0], trials=4, seed=2)["fraction"]
        assert abs(curve.mean[0]) < 1e-12
        assert abs(curve.mean[1] - 1.0) < 1e-12

    def test_bond_mode_at_zero_keeps_isolated_site(self):
        lat = build_square_lattice(8, "open")
        model = PercModel(mode="bond")
        curve = sweep_curves(lat, model, [0.0], trials=2, seed=2)["fraction"]
        assert abs(curve.mean[0] - 1 / lat.n_sites) < 1e-12

    def test_value_at(self):
        lat = build_square_lattice(8, "open")
        model = PercModel(mode="bond")
        curve = sweep_curves(lat, model, [0.25, 0.5], trials=2, seed=2)["fraction"]
        assert curve.value_at(0.5) == curve.mean[1]
        with pytest.raises(ValueError):
            curve.value_at(0.333)

    def test_empty_grid_rejected(self):
        lat = build_square_lattice(4, "open")
        with pytest.raises(ValueError, match="at least one grid point"):
            sweep_curves(lat, PercModel(), [], trials=2, seed=1)

    def test_one_sweep_yields_both_observables(self):
        lat = build_square_lattice(9, "open")
        model = PercModel(mode="site-bond")
        grid = [0.55, 0.7, 0.85]
        both = sweep_curves(lat, model, grid, trials=5, seed=3)
        assert set(both) == {"fraction", "spanning"}
        for observable, curve in both.items():
            assert curve.observable == observable
            assert np.array_equal(curve.p_grid, grid)

    def test_memory_does_not_grow_with_trials(self):
        """Trials are convolved as they finish: a sweep holds no record
        per trial, only O(trials x grid) values."""
        lat = build_square_lattice(100, "open")
        model = PercModel(mode="site-bond")
        record_bytes = (n_elements(lat, model) + 1) * 8
        grid = [0.6, 0.7, 0.8]

        def peak(trials):
            tracemalloc.start()
            try:
                sweep_curves(lat, model, grid, trials=trials, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(5), peak(50)
        assert many < 16 * record_bytes  # 50 trials' records would be 100
        assert many - few < record_bytes


class TestAgreementWithDirectSampling:
    @pytest.mark.parametrize("mode", ["bond", "site-bond"])
    @pytest.mark.parametrize("side", [16, 32])
    def test_three_sigma_agreement(self, mode, side):
        lat = build_square_lattice(side, "open")
        model = PercModel(mode=mode)
        grid = [0.3, 0.5, 0.7]
        curve = sweep_curves(lat, model, grid, trials=300, seed=21)["fraction"]
        for j, p in enumerate(grid):
            mc_mean, mc_err = direct_monte_carlo(lat, model, p, trials=300, seed=77)
            sigma = math.sqrt(curve.stderr[j] ** 2 + mc_err**2)
            assert abs(curve.mean[j] - mc_mean) <= 3.0 * max(sigma, 1e-6)

    @pytest.mark.parametrize("trials", [0, -2])
    def test_direct_sampling_needs_a_trial(self, trials):
        lat = build_square_lattice(4, "open")
        with pytest.raises(ValueError, match="at least one trial"):
            direct_monte_carlo(lat, PercModel(mode="bond"), 0.5, trials=trials, seed=1)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        lat = build_square_lattice(12, "open")
        model = PercModel(mode="site-bond")
        grid = np.linspace(0.4, 0.9, 11)
        one = sweep_curves(lat, model, grid, trials=8, seed=5)["fraction"]
        two = sweep_curves(lat, model, grid, trials=8, seed=5)["fraction"]
        assert np.array_equal(one.mean, two.mean)
        assert np.array_equal(one.stderr, two.stderr)

    def test_worker_count_does_not_change_results(self):
        lat = build_square_lattice(12, "open")
        model = PercModel(mode="site-bond")
        grid = np.linspace(0.4, 0.9, 11)
        serial = sweep_curves(lat, model, grid, trials=8, seed=5, workers=1)["fraction"]
        parallel = sweep_curves(lat, model, grid, trials=8, seed=5, workers=3)["fraction"]
        assert np.array_equal(serial.mean, parallel.mean)
        assert np.array_equal(serial.stderr, parallel.stderr)

    def test_workers_clamped_to_trials_and_cpus(self, monkeypatch):
        pool_sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                pool_sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        # sweep_curves imports the pool from concurrent.futures when it
        # needs one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(percolation.os, "cpu_count", lambda: 3)
        lat = build_square_lattice(6, "open")
        model = PercModel(mode="site-bond")
        for workers, trials, pool_size in ((64, 5, 3), (64, 2, 2), (2, 5, 2)):
            serial = sweep_curves(lat, model, [0.7], trials=trials, seed=4)["fraction"]
            clamped = sweep_curves(
                lat, model, [0.7], trials=trials, seed=4, workers=workers
            )["fraction"]
            assert pool_sizes.pop() == pool_size
            assert np.array_equal(serial.mean, clamped.mean)
            assert np.array_equal(serial.stderr, clamped.stderr)
        monkeypatch.setattr(percolation.os, "cpu_count", lambda: 1)
        sweep_curves(lat, model, [0.7], trials=5, seed=4, workers=64)
        assert pool_sizes == []  # one CPU runs the trials in process

    def test_distinct_seeds_differ(self):
        lat = build_square_lattice(12, "open")
        model = PercModel(mode="bond")
        grid = [0.5]
        a = sweep_curves(lat, model, grid, trials=4, seed=1)["fraction"]
        b = sweep_curves(lat, model, grid, trials=4, seed=2)["fraction"]
        assert a.mean[0] != b.mean[0]

    def test_trial_rng_streams_are_stable(self):
        draws = trial_rng(123, 4).random(3)
        again = trial_rng(123, 4).random(3)
        assert np.array_equal(draws, again)


def synthetic_curve(p_grid, values, length=32):
    p_grid = np.asarray(p_grid, dtype=float)
    values = np.asarray(values, dtype=float)
    return SweepCurve(
        length=length,
        boundary="open",
        mode="bond",
        observable="spanning",
        p_grid=p_grid,
        mean=values,
        stderr=np.zeros_like(values),
        trials=1,
        seed=0,
    )


class TestThresholdEstimation:
    def test_interpolated_crossing(self):
        small = synthetic_curve([0.4, 0.5, 0.6], [0.2, 0.4, 0.9], length=8)
        large = synthetic_curve([0.4, 0.5, 0.6], [0.1, 0.3, 0.7], length=16)
        est = estimate_threshold([small, large])
        assert est.sizes == (8, 16)
        assert abs(est.estimate - 0.55) < 1e-12
        assert abs(est.crossings[8] - 0.52) < 1e-12

    def test_plateau_reports_midpoint(self):
        curve = synthetic_curve([0.4, 0.5, 0.6, 0.7], [0.2, 0.5, 0.5, 0.9], 16)
        other = synthetic_curve([0.4, 0.5, 0.6, 0.7], [0.3, 0.4, 0.6, 0.95], 8)
        est = estimate_threshold([other, curve])
        assert abs(est.estimate - 0.55) < 1e-12

    def test_never_crossing_raises(self):
        low = synthetic_curve([0.1, 0.2], [0.0, 0.1], 8)
        high = synthetic_curve([0.1, 0.2], [0.0, 0.2], 16)
        with pytest.raises(ValueError, match="never crosses"):
            estimate_threshold([low, high])

    def test_needs_two_sizes(self):
        with pytest.raises(ValueError):
            estimate_threshold([synthetic_curve([0.1, 0.9], [0.0, 1.0])])

    def test_periodic_curves_rejected(self):
        """Wrap bonds make the first and last rows neighbours, so a
        periodic spanning curve has no threshold to report."""
        small = synthetic_curve([0.4, 0.5, 0.6], [0.2, 0.4, 0.9], length=8)
        large = replace(small, length=16, boundary="periodic")
        with pytest.raises(ValueError, match="periodic boundary"):
            estimate_threshold([small, large])

    def test_slope_peak(self):
        curve = synthetic_curve([0.0, 0.25, 0.5, 0.75], [0.0, 0.1, 0.8, 0.9], 16)
        assert abs(max_slope_location(curve) - 0.375) < 1e-12

    def test_bond_control_quick(self):
        grid = np.round(np.arange(0.40, 0.601, 0.005), 6)
        curves = [
            sweep_curves(
                build_square_lattice(side, "open"),
                PercModel(mode="bond"),
                grid,
                trials=80,
                seed=13 + side,
            )["spanning"]
            for side in (32, 64)
        ]
        est = estimate_threshold(curves)
        assert abs(est.estimate - BOND_THRESHOLD) < 0.02

    def test_site_bond_matches_literature_value(self):
        """The engine pins the equal site-bond threshold at its known
        location near 0.7404 (spanning-probability crossing)."""
        grid = np.round(np.arange(0.65, 0.831, 0.005), 6)
        curves = [
            sweep_curves(
                build_square_lattice(side, "open"),
                PercModel(mode="site-bond"),
                grid,
                trials=80,
                seed=29 + side,
            )["spanning"]
            for side in (32, 64)
        ]
        est = estimate_threshold(curves)
        assert abs(est.estimate - SITE_BOND_EQUAL_THRESHOLD) < 0.02


class TestCurveFamilies:
    def test_larger_lattices_sharpen_the_transition(self):
        grid = np.round(np.arange(0.60, 0.881, 0.01), 6)
        sweeps = size_sweeps((10, 40), 60, grid, seed=3)
        small, large = sweeps[10]["fraction"], sweeps[40]["fraction"]
        tol = 3.0 * (small.stderr.max() + 1e-9)
        diffs = np.diff(small.mean)
        assert (diffs > -tol).all()
        slope_small = np.max(np.diff(small.mean) / np.diff(small.p_grid))
        slope_large = np.max(np.diff(large.mean) / np.diff(large.p_grid))
        assert slope_large > slope_small

    def test_per_size_seeds_differ(self):
        grid = [0.7]
        sweeps = size_sweeps((8, 16), 4, grid, seed=3)
        assert sweeps[8]["fraction"].seed != sweeps[16]["fraction"].seed

    def test_curve_values_stay_in_unit_interval(self):
        grid = np.linspace(0.0, 1.0, 21)
        for curve in size_sweeps((8,), 10, grid, seed=6)[8].values():
            assert curve.mean.min() >= 0.0
            assert curve.mean.max() <= 1.0 + 1e-12
