import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import cKDTree

from dipolegauge.constants import BOHR_RADIUS, CONSTANTS, DOMAINS, QuadratureError
from dipolegauge.coupling import default_species_registry
from dipolegauge.cutoff_window import transverse_self_energy
from dipolegauge.ensemble import (
    CANDIDATE_BUDGET,
    AtomConfiguration,
    intimacy_violations,
    load_configuration,
    max_packing_density,
    min_pairwise_distance,
    overlap_envelope_bound,
    config_figure_of_merit,
    residual_overlap_energy,
)
from conftest import random_rotation
from overlap_quadrature import adaptive_gk21, quadrature_overlap_energy

MU = 0.5 / BOHR_RADIUS
D0 = CONSTANTS.e_charge * BOHR_RADIUS
SUBNORMAL = math.ulp(0.0)  # spacing of the floats that underflow
NORMAL = np.finfo(float).tiny  # the smallest normal float

# Directions and coordinates on a 0.01 grid (positions in units of 1/kM); the
# positions are lattice-like, and some pairs fall inside 2/kM.  Dipole
# magnitudes are log-uniform over 1e-100..1e-20 C*m, from the floor of their
# domain up.
grid = st.integers(min_value=-100, max_value=100).map(lambda k: k / 100.0)
grid_vectors = st.tuples(grid, grid, grid).map(np.array)
directions = grid_vectors.filter(lambda v: np.linalg.norm(v) > 0.1)
dipole_vectors = st.tuples(st.floats(min_value=-100.0 + 1e-9, max_value=-20.0), directions).map(
    lambda draw: 10.0 ** draw[0] * draw[1] / np.linalg.norm(draw[1])
)
coordinates = st.integers(min_value=-400, max_value=400).map(lambda k: k / 100.0)
atom_sites = st.lists(st.tuples(coordinates, coordinates, coordinates), max_size=8, unique=True)


def pair_config(separation, d_a, d_b, direction=(0.0, 0.0, 1.0)):
    axis = np.asarray(direction, dtype=float)
    axis /= np.linalg.norm(axis)
    return AtomConfiguration(
        positions=np.array([np.zeros(3), separation * axis]),
        dipoles=np.array([d_a, d_b]),
        volume=1e-27,
    )


def exact_overlap_energy(mpmath, config, k_m):
    """d_A.T(r).d_B/eps0 for atoms 0 and 1 in mpmath, from the same float positions, dipoles, kM and eps0.

    Returns (prefactor kM^3 e^(-x)/(8 pi x^3 eps0), energy) at the working precision.
    """
    a, b = ([mpmath.mpf(v) for v in row] for row in config.positions[:2].tolist())
    d_a, d_b = ([mpmath.mpf(v) for v in row] for row in config.dipoles[:2].tolist())
    rel = [q - p for p, q in zip(a, b)]
    r = mpmath.sqrt(mpmath.fsum(c * c for c in rel))
    n = [c / r for c in rel]
    mu = mpmath.mpf(k_m)
    x = mu * r
    prefactor = mu**3 * mpmath.exp(-x) / (8 * mpmath.pi * x**3 * mpmath.mpf(CONSTANTS.eps0))
    isotropic = (x**3 + x**2 + 2 * x + 2) * mpmath.fdot(d_a, d_b)
    axial = (x**3 + 3 * x**2 + 6 * x + 6) * mpmath.fdot(n, d_a) * mpmath.fdot(n, d_b)
    return prefactor, prefactor * (isotropic - axial)


def assert_matches_brute_force(positions, k_m=MU):
    """Spacing checks against the dense all-pairs distance matrix."""
    config = AtomConfiguration(
        positions=positions, dipoles=np.tile([0.0, 0.0, D0], (len(positions), 1)), volume=1e-27
    )
    distances = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=-1)
    i, j = np.triu_indices(len(positions), 1)  # every pair once, in sorted order
    close = distances[i, j] < 2.0 / k_m
    violations = intimacy_violations(config, k_m)
    assert violations == list(zip(i[close].tolist(), j[close].tolist()))
    assert min_pairwise_distance(config) == np.min(distances[i, j])
    return violations


def assert_matches_kd_tree(positions, k_m):
    """Spacing checks against scipy's k-d tree, re-tested on the distance as the library does."""
    config = AtomConfiguration(positions=positions, dipoles=np.zeros_like(positions), volume=1.0)
    tree = cKDTree(positions)
    assert min_pairwise_distance(config) == float(np.min(tree.query(positions, k=2)[0][:, 1]))
    pairs = tree.query_pairs(2.0 / k_m * (1.0 + 1e-9), output_type="ndarray")
    separations = np.linalg.norm(positions[pairs[:, 1]] - positions[pairs[:, 0]], axis=1)
    assert intimacy_violations(config, k_m) == sorted(map(tuple, pairs[separations < 2.0 / k_m].tolist()))


def spread_geometry(kind, count, seed):
    """Positions (m) of a geometry that loads the cell list unevenly; kM = MU."""
    rng = np.random.default_rng(seed)
    if kind == "collinear":
        direction = rng.normal(size=3)
        return np.outer(rng.uniform(0.0, count, size=count), direction / np.linalg.norm(direction)) / MU
    if kind == "shared x":
        positions = rng.uniform(0.0, 2.0 * count ** (1.0 / 2.0), size=(count, 3))
        positions[:, 0] = 1.5
        return positions / MU
    if kind == "planar lattice":
        side = math.isqrt(count) + 1
        steps = rng.uniform(0.5, 3.0, size=2)
        i, j = np.divmod(np.arange(count), side)
        return np.stack([steps[0] * i, steps[1] * j, np.full(count, 0.25)], axis=1) / MU
    if kind == "dense cube":  # three cells of 2/kM a side, with 4 to 15 atoms each
        return rng.uniform(0.0, 6.0, size=(100 + count, 3)) / MU
    if kind == "cluster beside outlier":
        return np.concatenate([rng.normal(size=(count - 1, 3)), [[1e6, -3e5, 2e6]]]) / MU
    if kind == "1e-25 m beside 1 m":
        tiny = rng.integers(0, 100, size=(count // 2, 3)) * 1e-25
        return np.concatenate([tiny, rng.uniform(0.0, 1.0, size=(count - count // 2, 3))])
    return rng.uniform(0.0, 4.0, size=(2 + count % 6, 3)) / MU  # "2-7 atoms": a single cell


geometries = st.tuples(
    st.sampled_from(
        ["collinear", "shared x", "planar lattice", "dense cube", "cluster beside outlier", "1e-25 m beside 1 m", "2-7 atoms"]
    ),
    st.integers(min_value=2, max_value=300),
    st.integers(min_value=0, max_value=2**32 - 1),
).map(lambda draw: spread_geometry(*draw))


class TestGeometry:
    def test_two_atom_distance(self):
        config = pair_config(3e-10, [0, 0, D0], [0, 0, D0])
        assert min_pairwise_distance(config) == pytest.approx(3e-10, rel=1e-14)

    def test_translation_invariance(self, rng):
        positions = rng.normal(scale=1e-9, size=(5, 3))
        dipoles = rng.normal(scale=D0, size=(5, 3))
        config = AtomConfiguration(positions=positions, dipoles=dipoles, volume=1e-26)
        shifted = AtomConfiguration(positions=positions + 7e-9, dipoles=dipoles, volume=1e-26)
        assert min_pairwise_distance(shifted) == pytest.approx(min_pairwise_distance(config), rel=1e-12)
        assert intimacy_violations(shifted, MU) == intimacy_violations(config, MU)

    def test_rotation_invariance(self, rng):
        positions = rng.normal(scale=1e-9, size=(5, 3))
        dipoles = rng.normal(scale=D0, size=(5, 3))
        rotation = random_rotation(rng)
        config = AtomConfiguration(positions=positions, dipoles=dipoles, volume=1e-26)
        rotated = AtomConfiguration(
            positions=positions @ rotation.T, dipoles=dipoles @ rotation.T, volume=1e-26
        )
        assert min_pairwise_distance(rotated) == pytest.approx(min_pairwise_distance(config), rel=1e-12)

    def test_cubic_lattice_min_distance(self):
        spacing = 4e-10
        points = np.array(list(itertools.product(range(3), repeat=3)), dtype=float) * spacing
        dipoles = np.tile([0.0, 0.0, D0], (len(points), 1))
        config = AtomConfiguration(positions=points, dipoles=dipoles, volume=(3 * spacing) ** 3)
        # brute force over all pairs
        brute = min(
            np.linalg.norm(a - b) for a, b in itertools.combinations(points, 2)
        )
        assert min_pairwise_distance(config) == pytest.approx(brute, rel=1e-14)
        assert brute == pytest.approx(spacing, rel=1e-14)

    def test_single_atom_rejected(self):
        config = AtomConfiguration(positions=np.zeros((1, 3)), dipoles=np.zeros((1, 3)), volume=1.0)
        with pytest.raises(ValueError):
            min_pairwise_distance(config)

    def test_validation(self):
        with pytest.raises(ValueError, match="^smallest pair distance must be from 1e-30 to 1e\\+10 m, got 0.0"):
            AtomConfiguration(
                positions=np.zeros((2, 3)), dipoles=np.zeros((2, 3)), volume=1.0
            )
        with pytest.raises(ValueError, match="volume"):
            AtomConfiguration(
                positions=np.array([[0.0, 0.0, 0.0]]), dipoles=np.zeros((1, 3)), volume=0.0
            )

    @pytest.mark.parametrize("volume", [math.nan, math.inf])
    def test_non_finite_volume_rejected(self, volume):
        with pytest.raises(ValueError, match="^volume must be from 1e-90 to 1e\\+30 m\\^3, got"):
            AtomConfiguration(positions=np.zeros((1, 3)), dipoles=np.zeros((1, 3)), volume=volume)


class TestIntimacyViolations:
    def test_far_pair_clean(self):
        config = pair_config(5.0 / MU, [0, 0, D0], [0, 0, D0])
        assert intimacy_violations(config, MU) == []

    def test_close_pair_flagged(self):
        config = pair_config(1.9 / MU, [0, 0, D0], [0, 0, D0])
        assert intimacy_violations(config, MU) == [(0, 1)]

    def test_rubidium_critical_lattice_is_clean(self):
        spacing = (1.0 / 7e27) ** (1.0 / 3.0)
        assert spacing == pytest.approx(5.2278e-10, rel=1e-4)
        points = np.array(list(itertools.product(range(3), repeat=3)), dtype=float) * spacing
        dipoles = np.tile([0.0, 0.0, D0], (len(points), 1))
        config = AtomConfiguration(positions=points, dipoles=dipoles, volume=27.0 / 7e27)
        assert spacing / (2.0 / MU) == pytest.approx(2.47, rel=0.01)
        assert intimacy_violations(config, MU) == []

    def test_empty_iff_min_distance_clears_threshold(self, rng):
        for _ in range(5):
            positions = rng.normal(scale=2.0 / MU, size=(4, 3))
            config = AtomConfiguration(
                positions=positions, dipoles=np.tile([0.0, 0.0, D0], (4, 1)), volume=1e-27
            )
            clean = intimacy_violations(config, MU) == []
            assert clean == (min_pairwise_distance(config) >= 2.0 / MU)

    @given(atom_sites)
    @settings(max_examples=60)
    def test_matches_brute_force(self, sites):
        # atoms 0 and 1 sit exactly 2/kM apart: touching zones are not a violation
        positions = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], *sites]) / MU
        assume(len(np.unique(positions, axis=0)) == len(positions))
        assert (0, 1) not in assert_matches_brute_force(positions)

    @given(geometries)
    @settings(max_examples=60, deadline=None)
    def test_matches_kd_tree_and_brute_force(self, positions):
        assume(len(np.unique(positions, axis=0)) == len(positions))
        assert_matches_kd_tree(positions, MU)
        assert_matches_brute_force(positions)

    @given(geometries, st.data())
    @settings(max_examples=30, deadline=None)
    def test_coincident_atoms_rejected(self, positions, data):
        copy = data.draw(st.integers(0, len(positions) - 1))
        positions = np.insert(positions, data.draw(st.integers(0, len(positions))), positions[copy], axis=0)
        with pytest.raises(ValueError, match="^smallest pair distance must be from 1e-30"):
            AtomConfiguration(positions=positions, dipoles=np.zeros_like(positions), volume=1.0)

    def test_closest_pair_beyond_neighbouring_cells_found(self):
        # A 3 x 3 x 3 lattice 1.5 apart puts one atom in each of 27 cells of
        # edge 1; P and Q sit 1.06 apart in cells two apart, while every
        # candidate pair of that grid is at least 1.177 apart.  The search must
        # widen its cells to find them.
        lattice = np.array(list(itertools.product((0.0, 1.5, 3.0), repeat=3)))
        positions = np.concatenate([lattice, [[0.99, 0.75, 0.75], [2.05, 0.75, 0.75]]]) * 1e-10
        assert_matches_brute_force(positions)
        assert min_pairwise_distance(AtomConfiguration(positions=positions, dipoles=np.zeros((29, 3)), volume=1.0)) == (
            pytest.approx(1.06e-10, rel=1e-12)
        )

    def test_clustered_configuration_keeps_to_the_candidate_budget(self):
        # 4999 atoms of a 17^3 lattice 1 nm apart and one atom 1 m away: the
        # cluster fills a single cell, so all 12.5 million pairs are candidates.
        # Expanded at once they would take over a gigabyte.
        grid = np.arange(17) * 1e-9
        positions = np.concatenate([np.stack(np.meshgrid(grid, grid, grid), axis=-1).reshape(-1, 3)[:4999], [[1.0, 1.0, 1.0]]])
        tracemalloc.start()
        try:
            config = AtomConfiguration(positions=positions, dipoles=np.zeros_like(positions), volume=1.0)
            violations = intimacy_violations(config, 2e10)  # 2/kM is 0.1 nm
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert min_pairwise_distance(config) == pytest.approx(1e-9, rel=1e-12)
        assert violations == []
        assert peak < 256 * CANDIDATE_BUDGET  # 16 MiB

    def test_off_axis_pairs_at_threshold_follow_the_distance(self, rng):
        # Pairs 2/kM apart along 3-4-5 and 18-24-40 diagonals.  Their squared
        # distances round to either side of (2/kM)^2, and for some kM (0.4/a0
        # among these) comparing squares would flag a pair the distance does not.
        steps = np.array([[1.2, 1.6, 0.0], [0.0, 1.2, 1.6], [0.72, 0.96, 1.6], [1.6, 0.0, 1.2]])
        anchors = rng.integers(-400, 400, size=(200, 3)) / 100.0 + 20.0 * np.arange(200)[:, None]
        units = np.concatenate([anchors, anchors + steps[np.arange(200) % 4]])
        for k_m in np.arange(1, 31) / 10.0 / BOHR_RADIUS:
            positions = units / k_m
            flagged = np.linalg.norm(positions[200:] - positions[:200], axis=1) < 2.0 / k_m
            assert 0 < np.count_nonzero(flagged) < 200
            violations = assert_matches_brute_force(positions, k_m)
            assert violations == [(i, i + 200) for i in np.flatnonzero(flagged).tolist()]


class TestMaxPackingDensity:
    def test_half_inverse_bohr(self):
        assert max_packing_density(MU) == pytest.approx(1.0 / (4.0 * BOHR_RADIUS) ** 3, rel=1e-12)
        assert max_packing_density(MU) == pytest.approx(1.0544273e29, rel=1e-6)

    def test_cubic_scaling(self):
        assert max_packing_density(2.0 * MU) == pytest.approx(8.0 * max_packing_density(MU), rel=1e-12)

    def test_defining_identity(self):
        assert max_packing_density(MU) * (2.0 / MU) ** 3 == pytest.approx(1.0, rel=1e-12)


class TestConfigFigureOfMerit:
    def test_rubidium_critical_density(self):
        rb = default_species_registry()["Rb"]
        volume = 100.0 / 7e27
        positions = np.zeros((100, 3))
        positions[:, 0] = np.arange(100) * 1e-9
        config = AtomConfiguration(
            positions=positions, dipoles=np.tile([0.0, 0.0, D0], (100, 1)), volume=volume
        )
        report = config_figure_of_merit(config, rb)
        assert report.value == pytest.approx(1.0, rel=0.01)

    def test_linear_in_count(self):
        rb = default_species_registry()["Rb"]
        volume = 1e-26
        full = AtomConfiguration(
            positions=np.array([[0, 0, 0], [0, 0, 2e-10], [0, 0, 4e-10], [0, 0, 6e-10]], dtype=float),
            dipoles=np.tile([0.0, 0.0, D0], (4, 1)),
            volume=volume,
        )
        half = AtomConfiguration(
            positions=np.array([[0, 0, 0], [0, 0, 2e-10]], dtype=float),
            dipoles=np.tile([0.0, 0.0, D0], (2, 1)),
            volume=volume,
        )
        assert config_figure_of_merit(full, rb).value == pytest.approx(
            2.0 * config_figure_of_merit(half, rb).value, rel=1e-12
        )


class TestOverlapEnergy:
    def test_matches_closed_form(self, rng):
        for x in (4.0, 8.0):
            separation = x / MU
            d_a = D0 * rng.normal(size=3)
            d_b = D0 * rng.normal(size=3)
            direction = rng.normal(size=3)
            config = pair_config(separation, d_a, d_b, direction)
            report = residual_overlap_energy(config, (0, 1), MU, tol=1e-5)
            oracle = quadrature_overlap_energy(config, (0, 1), MU, tol=1e-5)
            assert abs(report.overlap_energy - oracle.overlap_energy) <= oracle.error_estimate + 1e-8 * oracle.bound

    def test_respects_envelope_bound(self):
        config = pair_config(6.0 / MU, [0, 0, D0], [0, 0, D0])
        report = residual_overlap_energy(config, (0, 1), MU, tol=1e-4)
        assert abs(report.overlap_energy) <= report.bound + report.error_estimate

    def test_symmetric_under_pair_swap(self):
        config = pair_config(5.0 / MU, [0.4 * D0, 0, 0.9 * D0], [0, -0.7 * D0, 0.2 * D0])
        forward = residual_overlap_energy(config, (0, 1), MU, tol=1e-4)
        backward = residual_overlap_energy(config, (1, 0), MU, tol=1e-4)
        assert backward.overlap_energy == pytest.approx(
            forward.overlap_energy, abs=forward.error_estimate + backward.error_estimate
        )

    def test_small_relative_to_single_atom_energy(self):
        separation = 10.0 / MU
        config = pair_config(separation, [0, 0, D0], [0, 0, D0])
        report = residual_overlap_energy(config, (0, 1), MU, tol=1e-4)
        assert abs(report.overlap_energy) < 1e-2 * transverse_self_energy(D0, MU)

    def test_exponential_decay_between_separations(self):
        # head-to-tail dipoles give a robustly nonzero overlap
        d = [0.0, 0.0, D0]
        near = residual_overlap_energy(pair_config(4.0 / MU, d, d), (0, 1), MU, tol=1e-5)
        far = residual_overlap_energy(pair_config(6.0 / MU, d, d), (0, 1), MU, tol=1e-5)
        assert abs(far.overlap_energy) <= 2.0 * math.exp(-2.0) * abs(near.overlap_energy)

    def test_pair_validation(self):
        config = pair_config(5.0 / MU, [0, 0, D0], [0, 0, D0])
        with pytest.raises(ValueError):
            residual_overlap_energy(config, (0, 0), MU)
        with pytest.raises(ValueError):
            residual_overlap_energy(config, (0, 5), MU)

    def test_separation_is_the_checked_distance(self):
        # a 1-D np.linalg.norm (a dot product) differed in the last bit on about 10 % of these
        rng = np.random.default_rng(2000)
        for _ in range(2000):
            config = AtomConfiguration(
                positions=rng.normal(size=(2, 3)) * (4.0 / MU) + rng.normal(size=3) * (100.0 / MU),
                dipoles=D0 * rng.normal(size=(2, 3)),
                volume=1e-27,
            )
            for pair in ((0, 1), (1, 0)):
                report = residual_overlap_energy(config, pair, MU)
                assert report.separation == min_pairwise_distance(config)

    def test_nan_tolerance_rejected(self):
        config = pair_config(5.0 / MU, [0, 0, D0], [0, 0, D0])
        with pytest.raises(ValueError, match="^tol must be from 1e-12 to 1, got nan"):
            residual_overlap_energy(config, (0, 1), MU, tol=math.nan)

    def test_tolerance_below_rounding_raises(self):
        # the rounding bound (16 + x) eps is below the tolerance floor up to x = 745, past which the bound is 0
        config = pair_config(5.0 / MU, [0, 0, D0], [0, 0, D0])
        with pytest.raises(ValueError, match="^tol must be from 1e-12 to 1, got 1e-18"):
            residual_overlap_energy(config, (0, 1), MU, tol=1e-18)
        floor = DOMAINS["tolerance"][0]
        report = residual_overlap_energy(pair_config(600.0 / MU, [0, 0, D0], [0, 0, D0]), (0, 1), MU, tol=floor)
        assert 0.0 < report.error_estimate <= floor * report.bound

    def test_envelope_bound_shape(self):
        # polynomial-times-exponential envelope in the scaled separation
        x = 6.0
        bound = overlap_envelope_bound(D0, D0, MU, x / MU)
        expected_poly = (2 * x**3 + 4 * x**2 + 8 * x + 8) / x**3
        expected = D0 * D0 * MU**3 / (8 * math.pi * CONSTANTS.eps0) * math.exp(-x) * expected_poly
        assert bound == pytest.approx(expected, rel=1e-12)

    @given(dipole_vectors, dipole_vectors, directions, st.floats(min_value=2.0, max_value=20.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_swap_and_rotation_properties(self, d_a, d_b, direction, x, seed):
        config = pair_config(x / MU, d_a, d_b, direction)
        report = residual_overlap_energy(config, (0, 1), MU)
        assert abs(report.overlap_energy) <= report.bound + report.error_estimate
        # A result that underflows is rounded to a multiple of the smallest
        # subnormal, so near-equal values may differ by one of those.
        swapped = residual_overlap_energy(config, (1, 0), MU)
        assert swapped.overlap_energy == pytest.approx(
            report.overlap_energy, abs=report.error_estimate + swapped.error_estimate + SUBNORMAL
        )
        # Rotating the inputs rounds them by a few ulps; at kM r <= 20 that
        # moves the energy by far less than 1e-12 of the bound.
        rotation = random_rotation(np.random.default_rng(seed))
        rotated = residual_overlap_energy(
            pair_config(x / MU, rotation @ d_a, rotation @ d_b, rotation @ direction), (0, 1), MU
        )
        assert rotated.bound == pytest.approx(report.bound, rel=1e-12, abs=SUBNORMAL)
        assert rotated.overlap_energy == pytest.approx(report.overlap_energy, abs=1e-12 * report.bound + SUBNORMAL)

    @given(
        dipole_vectors,
        dipole_vectors,
        directions,
        st.tuples(coordinates, coordinates, coordinates),
        st.floats(min_value=-6.0, max_value=math.log10(700.0)),
        st.floats(min_value=-30.0, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_rounding_within_error_estimate(self, d_a, d_b, direction, offset, log_x, log_separation):
        """|energy - exact| <= error_estimate, in the absence of underflow, which the bound assumes."""
        mpmath = pytest.importorskip("mpmath")
        separation = 10.0**log_separation
        k_m = 10.0**log_x / separation  # from 1e-16 to 1e33 /m, inside the wavenumber domain
        start = np.asarray(offset) * separation
        end = start + separation * np.asarray(direction) / np.linalg.norm(direction)
        config = AtomConfiguration(positions=np.array([start, end]), dipoles=np.array([d_a, d_b]), volume=1.0)
        report = residual_overlap_energy(config, (0, 1), k_m)
        with mpmath.workdps(50):
            prefactor, exact = exact_overlap_energy(mpmath, config, k_m)
            assume(prefactor >= NORMAL and abs(exact) >= NORMAL)
            assert abs(mpmath.mpf(report.overlap_energy) - exact) <= report.error_estimate

    @pytest.mark.parametrize("separation", [1e-120, 1e-112])
    def test_scaled_separation_below_limit_rejected(self, separation):
        # at kM = 1e10, kM r would be 1e-110 (where (kM r)^3 is 0) or 1e-102: below the length floor
        with pytest.raises(ValueError, match="^smallest pair distance must be from 1e-30 to 1e\\+10 m"):
            pair_config(separation, [0, 0, D0], [0, 0, D0])
        with pytest.raises(ValueError, match="^separation must be from 1e-30 to 1e\\+10 m"):
            overlap_envelope_bound(D0, D0, 1e10, separation)

    @pytest.mark.parametrize("separation, dipole", [(1e-105, D0), (2e-100, D0), (3e-10, 1e300)])
    def test_overflowing_pair_rejected(self, separation, dipole):
        # r^-3 or the dipole product would overflow: the configuration and the bound refuse the input
        with pytest.raises(ValueError, match="^(smallest pair distance|dipole magnitude) must be"):
            pair_config(separation, [0, 0, dipole], [0, 0, dipole])
        with pytest.raises(ValueError, match="^(separation|d_a) must be"):
            overlap_envelope_bound(dipole, dipole, 1e10, separation)

    def test_pair_separation_above_length_limit_rejected(self):
        # the configuration bounds only its smallest distance; a far pair is refused by the overlap
        positions = [[0.0, 0.0, 0.0], [0.0, 0.0, 1e-9], [0.0, 0.0, 1e12]]
        config = AtomConfiguration(positions=positions, dipoles=np.zeros((3, 3)), volume=1.0)
        with pytest.raises(ValueError, match="^separation must be from 1e-30 to 1e\\+10 m, got 1000000000000.0"):
            residual_overlap_energy(config, (0, 2), MU)

    @pytest.mark.filterwarnings("error")
    def test_pair_past_the_float_range_rejected_without_warning(self):
        # the pair's difference overflows to inf; the length domain refuses it and numpy must not warn first
        positions = [[-1.7e308, 0.0, 0.0], [1.7e308, 0.0, 0.0], [1.7e308, 1.0, 0.0]]
        config = AtomConfiguration(positions=positions, dipoles=np.zeros((3, 3)), volume=1.0)
        with pytest.raises(ValueError, match="^separation must be from 1e-30 to 1e\\+10 m, got inf"):
            residual_overlap_energy(config, (0, 1), MU)

    def test_cutoff_above_limit_rejected(self):
        # kM^3 overflows above about 5.6e102 /m; up to the limit every cube stays finite
        config = pair_config(3e-10, [0, 0, D0], [0, 0, D0])
        for call in (
            lambda k_m: residual_overlap_energy(config, (0, 1), k_m),
            lambda k_m: overlap_envelope_bound(D0, D0, k_m, 3e-10),
            max_packing_density,
        ):
            with pytest.raises(ValueError, match="^cutoff wavenumber must be from 1e-20 to 1e\\+90 /m"):
                call(1e200)
            call(DOMAINS["wavenumber"][1])
        assert math.isfinite(max_packing_density(DOMAINS["wavenumber"][1]))

    def test_tiny_dipole_keeps_its_bound(self):
        # At the floor of the dipole domain energy and bound scale with the
        # dipole; below it the configuration refuses the dipole.
        d = D0 * np.array([1.0, 0.0, 0.0])
        scale = 1.000001 * DOMAINS["dipole moment"][0] / D0
        tiny = residual_overlap_energy(pair_config(2.0 / MU, d, scale * d), (0, 1), MU)
        unit = residual_overlap_energy(pair_config(2.0 / MU, d, d), (0, 1), MU)
        assert 0.0 < abs(tiny.overlap_energy) <= tiny.bound
        assert tiny.overlap_energy == pytest.approx(scale * unit.overlap_energy, rel=1e-14)
        assert tiny.bound == pytest.approx(scale * unit.bound, rel=1e-14)
        with pytest.raises(ValueError, match="^dipole magnitude must be 0 or from 1e-100 to 1 C\\*m, got"):
            pair_config(2.0 / MU, d, 3.4e-233 * d)


class TestOverlapOracleRule:
    def test_gauss_kronrod_panels_meet_their_tolerance(self):
        # int_0^20 e^(-x) sin(3x) dx in closed form, and a polynomial both embedded rules integrate exactly
        exact = 0.3 * (1.0 - math.exp(-20.0) * (math.cos(60.0) + math.sin(60.0) / 3.0))
        value, error = adaptive_gk21(lambda x: np.exp(-x) * np.sin(3.0 * x), 0.0, 20.0, 1e-13, 1e-13, 50)
        assert abs(value - exact) <= max(error, 1e-15) <= 1e-13
        value, _ = adaptive_gk21(lambda x: x**19, -1.0, 2.0, 0.0, 1e-13, 1)
        assert value == pytest.approx((2.0**20 - 1.0) / 20.0, rel=1e-14)

    def test_limit_without_convergence_raises(self):
        with pytest.raises(QuadratureError, match="3 subintervals"):
            adaptive_gk21(lambda x: np.sign(x - 0.3), 0.0, 1.0, 1e-12, 0.0, 3)


class TestConfigurationFile:
    def test_round_trip(self, tmp_path):
        payload = {
            "positions_m": [[0.0, 0.0, 0.0], [0.0, 0.0, 3e-10]],
            "dipoles_Cm": [[0.0, 0.0, 8.5e-30], [0.0, 0.0, 8.5e-30]],
            "volume_m3": 1e-27,
        }
        path = tmp_path / "atoms.json"
        path.write_text(json.dumps(payload))
        config = load_configuration(path)
        assert len(config) == 2
        assert min_pairwise_distance(config) == pytest.approx(3e-10, rel=1e-14)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"positions_m": [[0, 0, 0]]}))
        with pytest.raises(ValueError, match="missing configuration key"):
            load_configuration(path)
