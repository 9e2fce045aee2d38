"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (visible with -s or in the
captured output); a failed criterion fails its test.  Heavy scans are
shared through module fixtures and timed against the stated budgets.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import integrate

from dipolegauge.constants import BOHR_RADIUS, CONSTANTS
from dipolegauge.coupling import (
    ModeSpec,
    coupling_g,
    crystalline_comparison,
    default_species_registry,
    dipole_from_linewidth,
    figure_of_merit,
    fom_density_q,
    fom_hydrogenlike,
    species_critical_density,
)
from dipolegauge.cutoff_window import (
    hydrogen_first_order_shift,
    hydrogen_shift_numeric,
    rydberg_shift_ratio,
    transverse_self_energy,
)
from dipolegauge.dicke import (
    DickeParams,
    _parity_solve,
    build_hamiltonian,
    crossing_estimate,
    ground_state,
    parity_diagonal,
    scan_coupling,
    sector_hamiltonians,
)
from dipolegauge.ensemble import AtomConfiguration, residual_overlap_energy
from dipolegauge.polarization import (
    longitudinal_dipole_polarization,
    total_residual_polarization,
    transverse_delta_real_exact,
    transverse_delta_real_far,
)
from kernel_quadrature import numeric_inverse_transform
from kron_hamiltonian import excitation_diagonal, mode_displacement

MU = 0.5 / BOHR_RADIUS
D0 = CONSTANTS.e_charge * BOHR_RADIUS


def announce(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


@pytest.fixture(scope="module")
def dicke_scans():
    start = time.perf_counter()
    grid = [round(0.1 * i, 10) for i in range(26)]  # 0.0 .. 2.5
    scans = {}
    for n_atoms in (8, 16, 24, 32):
        template = DickeParams(n_atoms=n_atoms, omega=1.0, omega_a=1.0, g_collective=0.0)
        scans[n_atoms] = scan_coupling(template, grid)
    return scans, time.perf_counter() - start


def test_criterion_01_perturbation_identity():
    start = time.perf_counter()
    for x in (0.1, 0.5, 1.0, 2.0):
        k_m = x / BOHR_RADIUS
        closed = hydrogen_first_order_shift(k_m)
        numeric = hydrogen_shift_numeric(k_m, tol=1e-9)
        assert abs(numeric - closed) <= 1e-6 * closed
    assert rydberg_shift_ratio(0.5 / BOHR_RADIUS) == 0.125
    assert time.perf_counter() - start < 1.0
    announce(1, "perturbation identity")


def test_criterion_02_self_energy_oracle():
    start = time.perf_counter()
    radial, err = integrate.quad(lambda u: u * u / (1.0 + u * u) ** 2, 0.0, math.inf, epsrel=1e-12)
    assert err < 1e-8 * radial
    for d, k_m in ((D0, MU), (2.5e-30, 1e10)):
        oracle = d * d / (2.0 * CONSTANTS.eps0) * (2.0 * math.pi) ** -3 * (8.0 * math.pi / 3.0) * k_m**3 * radial
        closed = transverse_self_energy(d, k_m)
        assert abs(closed - oracle) <= 1e-6 * closed
    assert time.perf_counter() - start < 1.0
    announce(2, "filtered self-energy oracle")


def test_criterion_03_kernel_transform_consistency():
    start = time.perf_counter()
    direction = np.array([1.0, -2.0, 2.0]) / 3.0
    for s in (0.1, 1.0, 10.0):
        x = direction * (s / MU)
        exact = transverse_delta_real_exact(MU, x)
        numeric = numeric_inverse_transform(MU, x, tol=1e-6)
        assert np.linalg.norm(exact - numeric) <= 1e-3 * np.linalg.norm(exact)
        yukawa_trace = 2.0 * MU**2 * math.exp(-s) / (4.0 * math.pi * (s / MU))
        assert abs(np.trace(exact) - yukawa_trace) <= 1e-6 * yukawa_trace
    x_far = direction * (10.0 / MU)
    exact = transverse_delta_real_exact(MU, x_far)
    far = transverse_delta_real_far(MU, x_far)
    assert np.linalg.norm(exact - far) <= 1e-2 * np.linalg.norm(exact)
    assert time.perf_counter() - start < 30.0
    announce(3, "kernel transform consistency")


def test_criterion_04_residual_cancellation():
    start = time.perf_counter()
    rng = np.random.default_rng(113)
    d = D0 * np.array([0.3, -0.6, 0.9])
    r = 10.0 / MU
    for _ in range(20):
        direction = rng.normal(size=3)
        x = direction / np.linalg.norm(direction) * r
        residual = total_residual_polarization(d, np.zeros(3), MU, x)
        longitudinal = longitudinal_dipole_polarization(d, np.zeros(3), x)
        assert np.linalg.norm(residual) / np.linalg.norm(longitudinal) < 0.01
    assert time.perf_counter() - start < 5.0
    announce(4, "residual cancellation")


def test_criterion_05_rubidium_criticality_numbers():
    start = time.perf_counter()
    rubidium = default_species_registry()["Rb"]
    density = species_critical_density(rubidium)
    assert abs(density / 7.0e27 - 1.0) <= 0.10
    ratio = crystalline_comparison(rubidium)
    assert abs(ratio / 0.64 - 1.0) <= 0.10
    assert 1.2e8 <= rubidium.quality <= 1.5e8
    assert time.perf_counter() - start < 1.0
    announce(5, "rubidium criticality numbers")


def test_criterion_06_form_equivalence():
    start = time.perf_counter()
    volume = 1e-15
    n_atoms = 500
    for species in default_species_registry().values():
        omega_a = species.omega_a
        d = dipole_from_linewidth(omega_a, species.gamma_hwhm)
        g = coupling_g(ModeSpec(omega=omega_a, volume=volume), d)
        from_coupling = figure_of_merit(n_atoms, g, omega_a, omega_a).value
        from_density = fom_density_q(n_atoms / volume, species.lambda_a, species.quality).value
        assert abs(from_coupling - from_density) <= 1e-6 * from_density, species.name
    assert fom_hydrogenlike(1.0 / (16.0 * math.pi * BOHR_RADIUS**3)).value == 1.0
    assert time.perf_counter() - start < 1.0
    announce(6, "figure-of-merit form equivalence")


def test_criterion_07_dicke_finite_size_criticality(dicke_scans):
    scans, elapsed = dicke_scans
    rows_24 = scans[24]
    by_fom = {row.fom: row for row in rows_24}
    assert by_fom[0.5].photon_fraction < 0.02
    assert abs(by_fom[2.0].photon_fraction / 0.375 - 1.0) <= 0.15
    fractions = [row.photon_fraction for row in rows_24]
    assert all(b >= a - 1e-6 for a, b in zip(fractions, fractions[1:]))
    assert elapsed < 300.0
    announce(7, "finite-size criticality (fractions, monotonicity)")


def test_criterion_07_crossing_monotone_in_system_size(dicke_scans):
    """Crossing estimates (first coupling with photon fraction > 0.05) must
    strictly decrease over N in {8, 16, 24, 32}.

    Known to fail on physical grounds: at N = 8 the critical fluctuations
    (photon number ~ N^(1/3) near the transition) lift the fraction enough
    that its crossing lands below the N = 16 one; the sequence only
    decreases monotonically from N = 16 on.  Verified against independent
    dense diagonalization; see notes on the convergence study.
    """
    scans, _ = dicke_scans
    crossings = [crossing_estimate(scans[n], threshold=0.05) for n in (8, 16, 24, 32)]
    assert all(value is not None for value in crossings)
    assert all(
        b < a for a, b in zip(crossings, crossings[1:])
    ), f"crossing estimates not strictly decreasing: {crossings}"
    announce(7, "crossing estimate monotone in system size")


def test_criterion_08_number_conserving_sector_exactness():
    start = time.perf_counter()
    for fom in (0.2, 0.5, 0.9):
        p = DickeParams.from_figure_of_merit(n_atoms=16, fom=fom, omega=1.0, omega_a=1.0, rwa=True, n_max=24)
        energy, _ = ground_state(build_hamiltonian(p), tol=1e-12)
        expected = -0.5 * p.n_atoms * p.omega_a
        assert abs(energy - expected) <= 1e-10 * abs(expected)
    # dense commutation with the conserved excitation number, dimension 500
    p = DickeParams.from_figure_of_merit(n_atoms=19, fom=0.8, omega=1.0, omega_a=1.0, rwa=True, n_max=24)
    assert p.dimension == 500
    h = build_hamiltonian(p).toarray()
    c = np.diag(excitation_diagonal(p))
    assert np.max(np.abs(h @ c - c @ h)) == 0.0
    assert time.perf_counter() - start < 30.0
    announce(8, "number-conserving sector exactness")


def test_criterion_09_symmetry_suite():
    for rwa in (False, True):
        p = DickeParams.from_figure_of_merit(n_atoms=12, fom=1.3, omega=1.0, omega_a=1.0, rwa=rwa, n_max=30)
        h = build_hamiltonian(p)
        assert (h - h.T).nnz == 0
    p_small = DickeParams.from_figure_of_merit(n_atoms=19, fom=1.1, omega=1.0, omega_a=1.0, n_max=24)
    assert p_small.dimension == 500
    h = build_hamiltonian(p_small).toarray()
    pi = np.diag(parity_diagonal(p_small))
    assert np.max(np.abs(h @ pi - pi @ h)) == 0.0
    for n_atoms, fom in ((8, 0.5), (12, 1.5), (16, 2.2)):
        p = DickeParams.from_figure_of_merit(n_atoms=n_atoms, fom=fom, omega=1.0, omega_a=1.0, n_max=48)
        ground = min(_parity_solve(sector_hamiltonians(p)), key=lambda record: record.energy)  # ties to even
        vec = np.zeros(p.dimension)
        vec[ground.support] = ground.vec
        assert abs(mode_displacement(vec, p)) <= 1e-10
    announce(9, "symmetry suite")


def test_criterion_10_overlap_envelope():
    start = time.perf_counter()
    d_a = D0 * np.array([0.2, 0.5, 0.8])
    d_b = D0 * np.array([-0.6, 0.1, 0.7])
    for x in (4.0, 6.0, 8.0, 10.0):
        separation = x / MU
        config = AtomConfiguration(
            positions=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, separation]]),
            dipoles=np.array([d_a, d_b]),
            volume=1e-27,
        )
        report = residual_overlap_energy(config, (0, 1), MU, tol=1e-5)
        assert abs(report.overlap_energy) <= report.bound + report.error_estimate
    assert time.perf_counter() - start < 120.0
    announce(10, "overlap exponential envelope")


def test_criterion_11_cli_determinism(tmp_path):
    atoms = tmp_path / "atoms.json"
    atoms.write_text(
        json.dumps(
            {
                "positions_m": [[0.0, 0.0, 0.0], [0.0, 0.0, 3.0e-10]],
                "dipoles_Cm": [[0.0, 0.0, 8.5e-30], [0.0, 0.0, 8.5e-30]],
                "volume_m3": 1e-27,
            }
        )
    )
    commands = [
        ["critical-density", "--compare-crystalline", "--format", "csv"],
        ["cutoff-window", "--kM-inv-bohr", "0.5", "--species", "H"],
        ["dicke-scan", "--N", "6", "--F", "0:1:0.5", "--resonant", "--format", "csv"],
        ["ensemble-check", "--config", str(atoms), "--kM-inv-bohr", "0.5"],
    ]
    for command in commands:
        argv = [sys.executable, "-m", "dipolegauge.cli", *command]
        first = subprocess.run(argv, capture_output=True, check=True).stdout
        second = subprocess.run(argv, capture_output=True, check=True).stdout
        assert first == second and first
    announce(11, "deterministic command-line output")
