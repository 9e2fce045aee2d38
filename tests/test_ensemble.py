import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dipolegauge.constants import BOHR_RADIUS, CONSTANTS
from dipolegauge.coupling import default_species_registry
from dipolegauge.cutoff_window import transverse_self_energy
from dipolegauge.ensemble import (
    AtomConfiguration,
    intimacy_violations,
    load_configuration,
    max_packing_density,
    min_pairwise_distance,
    overlap_envelope_bound,
    config_figure_of_merit,
    residual_overlap_energy,
)
from dipolegauge.polarization import QuadratureError
from conftest import random_rotation
from overlap_quadrature import quadrature_overlap_energy

MU = 0.5 / BOHR_RADIUS
D0 = CONSTANTS.e_charge * BOHR_RADIUS

# Components and coordinates on a 0.01 grid (dipoles in units of D0, positions
# in units of 1/kM), so products stay far from underflow; the positions are
# lattice-like, and some pairs fall inside 2/kM.
grid = st.integers(min_value=-100, max_value=100).map(lambda k: k / 100.0)
grid_vectors = st.tuples(grid, grid, grid).map(np.array)
directions = grid_vectors.filter(lambda v: np.linalg.norm(v) > 0.1)
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
    assert min_pairwise_distance(config) == pytest.approx(np.min(distances[i, j]), rel=4 * np.finfo(float).eps)
    return violations


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
        with pytest.raises(ValueError, match="distinct"):
            AtomConfiguration(
                positions=np.zeros((2, 3)), dipoles=np.zeros((2, 3)), volume=1.0
            )
        with pytest.raises(ValueError, match="volume"):
            AtomConfiguration(
                positions=np.array([[0.0, 0.0, 0.0]]), dipoles=np.zeros((1, 3)), volume=0.0
            )


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

    def test_tolerance_below_rounding_raises(self):
        config = pair_config(5.0 / MU, [0, 0, D0], [0, 0, D0])
        with pytest.raises(QuadratureError):
            residual_overlap_energy(config, (0, 1), MU, tol=1e-18)

    def test_envelope_bound_shape(self):
        # polynomial-times-exponential envelope in the scaled separation
        x = 6.0
        bound = overlap_envelope_bound(D0, D0, MU, x / MU)
        expected_poly = (2 * x**3 + 4 * x**2 + 8 * x + 8) / x**3
        expected = D0 * D0 * MU**3 / (8 * math.pi * CONSTANTS.eps0) * math.exp(-x) * expected_poly
        assert bound == pytest.approx(expected, rel=1e-12)

    @given(grid_vectors, grid_vectors, directions, st.floats(min_value=2.0, max_value=20.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_swap_and_rotation_properties(self, d_a, d_b, direction, x, seed):
        config = pair_config(x / MU, D0 * d_a, D0 * d_b, direction)
        report = residual_overlap_energy(config, (0, 1), MU)
        assert abs(report.overlap_energy) <= report.bound + report.error_estimate
        swapped = residual_overlap_energy(config, (1, 0), MU)
        assert swapped.overlap_energy == pytest.approx(
            report.overlap_energy, abs=report.error_estimate + swapped.error_estimate
        )
        # Rotating the inputs rounds them by a few ulps; at kM r <= 20 that
        # moves the energy by far less than 1e-12 of the bound.
        rotation = random_rotation(np.random.default_rng(seed))
        rotated = residual_overlap_energy(
            pair_config(x / MU, rotation @ (D0 * d_a), rotation @ (D0 * d_b), rotation @ direction), (0, 1), MU
        )
        assert rotated.bound == pytest.approx(report.bound, rel=1e-12)
        assert rotated.overlap_energy == pytest.approx(report.overlap_energy, abs=1e-12 * report.bound)


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
