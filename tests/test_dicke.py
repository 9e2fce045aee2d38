import concurrent.futures
import contextlib
import faulthandler
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st
from kron_hamiltonian import _spin_x as kron_spin_x, excitation_diagonal, kron_hamiltonian, mode_displacement

from dipolegauge import cli, dicke
from dipolegauge.constants import DOMAINS
from dipolegauge.dicke import (
    DickeParams,
    DimensionError,
    FockTruncationError,
    build_hamiltonian,
    crossing_estimate,
    ground_state,
    meanfield_order_parameter,
    observables,
    parity_diagonal,
    scan_coupling,
    sector_hamiltonians,
    ScanRow,
    SolverConvergenceError,
)

# Figures of merit from 0 to 3, positive ones from the floor of their domain up.
foms = st.just(0.0) | st.floats(min_value=DOMAINS["figure of merit"][0], max_value=3.0)


def params(n_atoms=6, fom=1.0, omega=1.0, rwa=False, n_max=16):
    return DickeParams.from_figure_of_merit(
        n_atoms=n_atoms, fom=fom, omega=omega, omega_a=omega, rwa=rwa, n_max=n_max
    )


class TestBuild:
    def test_dimension(self):
        p = DickeParams(n_atoms=5, omega=1.0, omega_a=1.0, g_collective=0.5, n_max=12)
        h = build_hamiltonian(p)
        assert h.shape == (13 * 6, 13 * 6)

    def test_decoupled_limit_is_diagonal(self):
        p = DickeParams(n_atoms=4, omega=1.0, omega_a=1.0, g_collective=0.0, n_max=8)
        h = build_hamiltonian(p).tocoo()
        assert np.all(h.row == h.col)
        energy, _ = ground_state(h.tocsr())
        assert energy == pytest.approx(-2.0, abs=1e-12)

    @pytest.mark.parametrize("rwa", [False, True])
    @pytest.mark.parametrize("fom", [0.0, 0.7, 2.3])
    @pytest.mark.parametrize("n_max", [1, 8, 33])
    @pytest.mark.parametrize("n_atoms", [1, 2, 7, 12])
    def test_matches_kron_assembly_exactly(self, n_atoms, n_max, fom, rwa):
        p = params(n_atoms=n_atoms, fom=fom, rwa=rwa, n_max=n_max)
        expected = kron_hamiltonian(p)

        def assert_same(found, reference):
            assert found.shape == reference.shape
            assert found.data.dtype == reference.data.dtype
            assert found.indices.dtype == reference.indices.dtype
            assert found.indptr.dtype == reference.indptr.dtype
            assert np.array_equal(found.data, reference.data)
            assert np.array_equal(found.indices, reference.indices)
            assert np.array_equal(found.indptr, reference.indptr)

        assert_same(build_hamiltonian(p), expected)
        for (idx, block), sign in zip(sector_hamiltonians(p), (1.0, -1.0)):
            assert np.array_equal(idx, np.flatnonzero(parity_diagonal(p) == sign))
            assert_same(block, expected[idx][:, idx])

    def test_hermitian_exactly(self):
        for rwa in (False, True):
            p = params(n_atoms=7, fom=1.7, rwa=rwa, n_max=20)
            h = build_hamiltonian(p)
            assert (h - h.T).nnz == 0

    def test_single_atom_rwa_doublet(self):
        # one-excitation block eigenvalues split by +/- g around omega/2
        g = 0.3
        p = DickeParams(n_atoms=1, omega=1.0, omega_a=1.0, g_collective=g, rwa=True, n_max=6)
        values = np.linalg.eigvalsh(build_hamiltonian(p).toarray())
        expected = np.array([0.5 - g, 0.5 + g])
        found = values[np.argsort(np.abs(values[:, None] - expected[None, :]).min(axis=1))][:2]
        assert np.sort(found) == pytest.approx(expected, abs=1e-12)

    def test_dimension_cap(self):
        p = DickeParams(n_atoms=1000, omega=1.0, omega_a=1.0, g_collective=0.0, n_max=512)
        assert p.dimension == 513_513 > dicke.DEFAULT_DIMENSION_CAP
        with pytest.raises(DimensionError, match="exceeds cap"):
            build_hamiltonian(p)
        with pytest.raises(DimensionError, match="exceeds cap"):
            sector_hamiltonians(p)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DickeParams(n_atoms=0, omega=1.0, omega_a=1.0, g_collective=0.0)
        with pytest.raises(ValueError):
            DickeParams(n_atoms=2, omega=-1.0, omega_a=1.0, g_collective=0.0)
        with pytest.raises(ValueError):
            DickeParams.from_figure_of_merit(n_atoms=2, fom=-0.5, omega=1.0, omega_a=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["omega", "omega_a", "g_collective"])
    def test_non_finite_parameter_named(self, name, value):
        fields = dict(n_atoms=2, omega=1.0, omega_a=1.0, g_collective=0.5)
        with pytest.raises(ValueError, match=f"^{name} must be (0 or )?from "):
            DickeParams(**{**fields, name: value})

    @pytest.mark.parametrize("value", [2.5, 2.0, math.nan, "2"])
    @pytest.mark.parametrize("name, label", [("n_atoms", "atom count"), ("n_max", "Fock truncation")])
    def test_non_integer_count_refused(self, name, label, value):
        fields = dict(n_atoms=2, omega=1.0, omega_a=1.0, g_collective=0.5)
        with pytest.raises(ValueError, match=f"^{label} must be an integer, got"):
            DickeParams(**{**fields, name: value})

    def test_numpy_integer_counts_accepted(self):
        p = DickeParams(n_atoms=np.int64(3), omega=1.0, omega_a=1.0, g_collective=0.5, n_max=np.int32(4))
        assert p.dimension == 20

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_figure_of_merit_named(self, value):
        with pytest.raises(ValueError, match="^fom must be 0 or from 1e-40 to 1e\\+40, got"):
            DickeParams.from_figure_of_merit(n_atoms=2, fom=value, omega=1.0, omega_a=1.0)


def crossing_of(fraction):
    """F in (1.1, 1.25) at which fraction(F) first exceeds criterion 07's threshold 0.05, bisected to 1e-4."""
    low, high = 1.1, 1.25
    while high - low > 1e-4:
        middle = 0.5 * (low + high)
        if fraction(middle) > 0.05:
            high = middle
        else:
            low = middle
    assert 1.1 < low and high < 1.25  # a crossing inside the bracket, not at its ends
    return 0.5 * (low + high)


class TestGroundState:
    @pytest.mark.parametrize("rwa", [False, True])
    @pytest.mark.parametrize("fom", [0.4, 1.5])
    def test_against_dense_diagonalization(self, fom, rwa):
        p = params(n_atoms=9, fom=fom, rwa=rwa, n_max=15)  # dimension 160
        h = build_hamiltonian(p)
        energy, vec = ground_state(h, tol=1e-10)
        dense = np.linalg.eigvalsh(h.toarray())
        assert energy == pytest.approx(dense[0], abs=1e-10 * max(1.0, abs(dense[0])))
        residual = np.linalg.norm(h @ vec - energy * vec)
        assert residual <= 1e-10 * np.max(np.abs(h).sum(axis=1))

    @pytest.mark.parametrize("n_atoms", [8, 16])
    @pytest.mark.parametrize("fom", [1.1, 1.15, 1.2])
    def test_crossing_rows_against_dense_diagonalization(self, n_atoms, fom):
        # where the photon fraction crosses criterion 07's threshold 0.05, the
        # accepted truncation's energy and fraction are those of dense eigh
        report = dicke._converged_ground(params(n_atoms=n_atoms, fom=fom))
        p = params(n_atoms=n_atoms, fom=fom, n_max=report.converged_n_max)
        energies, vectors = np.linalg.eigh(build_hamiltonian(p).toarray())
        psi = vectors[:, 0].reshape(p.n_max + 1, n_atoms + 1)
        fraction = float(np.arange(p.n_max + 1) @ (psi**2).sum(axis=1)) / n_atoms
        assert report.energy == pytest.approx(energies[0], rel=0.0, abs=1e-12)
        assert report.photon_fraction == pytest.approx(fraction, rel=0.0, abs=1e-12)

    def test_fine_crossing_peaks_at_sixteen_atoms(self):
        # criterion 07's standing failure is the model's: the F at which the resonant
        # photon fraction first exceeds 0.05, bisected to 1e-4 rather than interpolated
        # on the 0.1 grid, rises from N = 8 to N = 16 and falls after it, from above
        # the mean-field crossing F (1 - 1/F^2)/4 = 0.05, F = 0.1 + sqrt(1.01)
        meanfield = crossing_of(lambda fom: meanfield_order_parameter(fom, 1.0, 1.0))
        assert meanfield == pytest.approx(0.1 + math.sqrt(1.01), abs=1e-4)
        crossings = [
            crossing_of(lambda fom: dicke._converged_ground(params(n_atoms=n_atoms, fom=fom)).photon_fraction)
            for n_atoms in (8, 16, 24, 32, 48, 64)
        ]
        assert crossings == pytest.approx([1.16498, 1.18483, 1.17633, 1.16600, 1.1494, 1.1380], abs=1e-4)
        assert max(crossings) == crossings[1]
        assert crossings[1] > crossings[2] > crossings[3] > crossings[4] > crossings[5] > meanfield

    def test_resonant_photon_number_exponent_falls_towards_a_third(self):
        # <a'a> at F = 1 grows as N^x, the local exponent x = log2 of its ratio at 2N and N
        # falling from 0.448 (N = 8 to 16) to 0.385 (128 to 256), inside (1/3, 1/2): towards
        # the N^(1/3) of Vidal & Dusuel, EPL 74, 817 (2006)
        sizes = (8, 16, 32, 64, 128, 256)
        photons = [n * dicke._converged_ground(params(n_atoms=n, fom=1.0)).photon_fraction for n in sizes]
        exponents = [math.log2(large / small) for small, large in zip(photons, photons[1:])]
        assert exponents == pytest.approx([0.448, 0.428, 0.412, 0.397, 0.385], abs=1e-3)
        assert all(1 / 3 < x < 1 / 2 for x in exponents)
        assert all(a > b for a, b in zip(exponents, exponents[1:]))

    def test_deterministic(self):
        p = params(n_atoms=8, fom=1.3, n_max=24)
        h = build_hamiltonian(p)
        e1, v1 = ground_state(h)
        e2, v2 = ground_state(h)
        assert e1 == e2
        assert np.array_equal(v1, v2)

    def test_energy_monotone_in_coupling(self):
        energies = []
        for fom in np.linspace(0.0, 2.0, 9):
            p = params(n_atoms=6, fom=fom, n_max=32)
            energies.append(ground_state(build_hamiltonian(p))[0])
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-10)

    def test_unit_norm(self):
        p = params(n_atoms=6, fom=1.2, n_max=16)
        _, vec = ground_state(build_hamiltonian(p))
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12

    @pytest.mark.parametrize("rwa", [False, True])
    @pytest.mark.parametrize("fom", [0.0, 0.7, 2.3])
    @pytest.mark.parametrize("n_atoms", [1, 6, 13])
    def test_row_sum_norm_matches_absolute_matrix(self, n_atoms, fom, rwa):
        blocks = [block for _, block in sector_hamiltonians(params(n_atoms=n_atoms, fom=fom, rwa=rwa, n_max=20))]
        if fom == 0.0 and n_atoms % 2 == 0:
            # uncoupled on resonance, the states with n = -m have a zero diagonal: empty rows
            assert any(np.any(np.diff(block.indptr) == 0) for block in blocks)
        for block in blocks + [sparse.csr_matrix((4, 4))]:
            assert dicke._row_sum_norm(block) == (float(np.max(np.abs(block).sum(axis=1))) or 1.0)


class TestSymmetries:
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=30),  # dimension at most 13 * 31 = 403
        foms,
        st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_parity_commutes_exactly(self, n_atoms, n_max, fom, rwa):
        p = params(n_atoms=n_atoms, fom=fom, rwa=rwa, n_max=n_max)
        h = build_hamiltonian(p).toarray()
        pi = np.diag(parity_diagonal(p))
        assert np.max(np.abs(h @ pi - pi @ h)) == 0.0

    def test_excitation_number_conserved_under_rwa(self):
        p = params(n_atoms=10, fom=0.8, rwa=True, n_max=20)  # dimension 231 <= 500
        h = build_hamiltonian(p).toarray()
        c = np.diag(excitation_diagonal(p))
        assert np.max(np.abs(h @ c - c @ h)) == 0.0
        p_full = params(n_atoms=10, fom=0.8, rwa=False, n_max=20)
        h_full = build_hamiltonian(p_full).toarray()
        assert np.max(np.abs(h_full @ c - c @ h_full)) > 0.0

    @pytest.mark.parametrize("fom", [0.2, 0.5, 0.9])
    def test_rwa_ground_energy_below_threshold(self, fom):
        p = params(n_atoms=12, fom=fom, rwa=True, n_max=24)
        energy, _ = ground_state(build_hamiltonian(p), tol=1e-12)
        expected = -0.5 * p.n_atoms * p.omega_a
        assert energy == pytest.approx(expected, rel=1e-10)

    def test_sectored_state_has_zero_displacement(self):
        p = params(n_atoms=8, fom=2.0, n_max=48)
        ground = sectored_ground(p)
        assert mode_displacement(laid_out(ground, p), p) == 0.0
        report = ground.report(p)
        assert abs(abs(report.parity_expectation) - 1.0) <= 1e-10

    def test_sectored_matches_full_solve(self):
        p = params(n_atoms=7, fom=0.9, n_max=20)
        e_sector = sectored_ground(p).energy
        e_full = np.linalg.eigvalsh(build_hamiltonian(p).toarray())[0]
        assert e_sector == pytest.approx(e_full, abs=1e-11)

    def test_near_degeneracy_flag(self):
        # the parity doublet collapses deep in the strong-coupling phase
        weak = params(n_atoms=16, fom=0.5, n_max=16)
        near_weak = sectored_ground(weak).near_degenerate
        assert not near_weak
        strong = params(n_atoms=16, fom=2.5, n_max=96)
        near_strong = sectored_ground(strong).near_degenerate
        assert near_strong


def sectored_ground(p):
    """The production parity solve at p: the record of the lower sector, ties going to even parity."""
    return min(dicke._parity_solve(sector_hamiltonians(p)), key=lambda ground: ground.energy)


def laid_out(ground, p):
    """A solve's record as a state on p's basis."""
    state = np.zeros(p.dimension)
    state[ground.support] = ground.vec
    return state


def parity_ground(p):
    """The parity-sector solve for either coupling: sector_hamiltonians and ground_state (ARPACK)."""
    results = [(*ground_state(block), idx) for idx, block in sector_hamiltonians(p)]
    energy, vec, idx = min(results, key=lambda item: item[0])
    full = np.zeros(p.dimension)
    full[idx] = vec
    return energy, full, False


def parity_walk(p):
    """The Fock walk over parity_ground, ARPACK at every truncation: the oracle for scan rows.

    Doubles n_max from FOCK_SCHEDULE_START and accepts a truncation whose
    top-layer weight is below TOP_POPULATION_TOL and whose photon fraction
    moves by less than FRACTION_TOL at twice the truncation, solved like
    every other.  Fails with the library's message.
    """
    previous = None
    n_max = dicke.FOCK_SCHEDULE_START
    while n_max <= dicke.FOCK_SCHEDULE_CAP:
        candidate = replace(p, n_max=n_max)
        energy, vec, _ = parity_ground(candidate)
        report = observables(vec, candidate, energy)
        if (
            previous is not None
            and previous.top_fock_population < dicke.TOP_POPULATION_TOL
            and abs(report.photon_fraction - previous.photon_fraction) < dicke.FRACTION_TOL
        ):
            return previous
        previous = report
        n_max *= 2
    raise FockTruncationError(
        f"no Fock truncation up to {dicke.FOCK_SCHEDULE_CAP} met the convergence criteria "
        f"(fom {p.figure_of_merit:.3g}, N {p.n_atoms})"
    )


def excitation_indices(p):
    """Basis indices of each excitation block k = n + j, k ascending."""
    excitation = excitation_diagonal(p)
    return [np.flatnonzero(excitation == k) for k in range(p.n_max + p.n_atoms + 1)]


def block_lowest(p):
    """Dense lowest energy of each unpadded excitation block, sliced from the full matrix, k ascending."""
    h = build_hamiltonian(p)
    return np.array([np.linalg.eigvalsh(h[idx][:, idx].toarray())[0] for idx in excitation_indices(p)])


def all_blocks_ground(p):
    """The rwa ground state with every block k = 0 ... n_max + N solved, then the tie rule.

    One eigvalsh over the whole padded stack, ties within the window going
    to the largest k, and eigh of the chosen block alone.
    """
    entries = dicke._excitation_entries(p)
    _, window = dicke._excitation_bounds(entries)
    lowest = np.linalg.eigvalsh(dicke._excitation_batch(entries, np.arange(p.n_max + p.n_atoms + 1)))[:, 0]
    tied = np.flatnonzero(lowest - lowest.min() < window)
    k = int(tied[-1])
    (block,) = dicke._excitation_batch(entries, np.array([k]))
    values, vectors = np.linalg.eigh(block)
    return dicke._Ground(float(values[0]), excitation_indices(p)[k], dicke._fix_sign(vectors[:, 0]), tied.size > 1)


def excitation_ground(p):
    """The rwa solve over every excitation block k = 0 ... n_max + N."""
    return dicke._excitation_ground(p, p.n_max + p.n_atoms + 1, math.inf)


def assert_same_ground(found, expected):
    assert found.energy == expected.energy
    assert np.array_equal(found.support, expected.support) and np.array_equal(found.vec, expected.vec)
    assert found.near_degenerate == expected.near_degenerate


class TestExcitationBlocks:
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=30),
        foms,
        st.floats(min_value=0.3, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_blocks_equal_slices_of_the_full_matrix(self, n_atoms, n_max, fom, omega_a):
        p = DickeParams.from_figure_of_merit(
            n_atoms=n_atoms, fom=fom, omega=1.0, omega_a=omega_a, rwa=True, n_max=n_max
        )
        h = build_hamiltonian(p)
        blocks = excitation_indices(p)
        entries = dicke._excitation_entries(p)
        batch = dicke._excitation_batch(entries, np.arange(len(blocks)))
        assert batch.shape == (len(blocks), min(n_atoms, n_max) + 1, min(n_atoms, n_max) + 1)
        pad = batch[-1, -1, -1]  # the last block has one state: (n_max, N)
        for padded, idx in zip(batch, blocks):
            size = idx.size
            block = h[idx][:, idx].toarray()
            assert np.array_equal(padded[:size, :size], block)
            assert np.array_equal(padded[size:, size:], pad * np.eye(padded.shape[0] - size))
            assert not padded[size:, :size].any() and not padded[:size, size:].any()
            assert np.linalg.eigvalsh(block)[-1] <= pad + 1e-14 * abs(pad)
        _, window = dicke._excitation_bounds(entries)
        assert window == pytest.approx(dicke.NEAR_DEGENERACY_FACTOR * dicke._row_sum_norm(h), rel=1e-15)

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=30),  # dimension at most 13 * 31 = 403
        foms,
        st.floats(min_value=0.3, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_lowest_energy_matches_dense_solve(self, n_atoms, n_max, fom, omega_a):
        p = DickeParams.from_figure_of_merit(
            n_atoms=n_atoms, fom=fom, omega=1.0, omega_a=omega_a, rwa=True, n_max=n_max
        )
        h = build_hamiltonian(p)
        ground = excitation_ground(p)
        energy, vec = ground.energy, laid_out(ground, p)
        dense = np.linalg.eigvalsh(h.toarray())[0]
        assert energy == pytest.approx(dense, rel=1e-12)
        assert np.linalg.norm(h @ vec - energy * vec) <= 1e-12 * dicke._row_sum_norm(h)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
        # the state lies in one excitation block
        assert np.unique(excitation_diagonal(p)[vec != 0.0]).size == 1

    @pytest.mark.parametrize("n_atoms, n_max, fom", [(6, 9, 0.4), (13, 5, 2.9), (20, 24, 1.7)])
    def test_batch_size_changes_nothing(self, monkeypatch, n_atoms, n_max, fom):
        p = params(n_atoms=n_atoms, fom=fom, rwa=True, n_max=n_max)
        whole = excitation_ground(p)
        whole_vec = laid_out(whole, p)
        (k_whole,) = np.unique(excitation_diagonal(p)[whole_vec != 0.0])
        build, batches = dicke._excitation_batch, []

        def recording_build(entries, ks):
            batch = build(entries, ks)
            batches.append((ks.tolist(), batch.size))
            return batch

        monkeypatch.setattr(dicke, "_excitation_batch", recording_build)
        for floats in (1, 40, 200):  # one block per batch, then a few
            monkeypatch.setattr(dicke, "_BATCH_FLOATS", floats)
            batches.clear()
            ground = excitation_ground(p)
            assert ground.energy == pytest.approx(whole.energy, rel=1e-14)
            assert np.array_equal(laid_out(ground, p) != 0.0, whole_vec != 0.0)
            assert ground.near_degenerate == whole.near_degenerate
            *solved, (chosen, _) = batches
            assert sum((ks for ks, _ in solved), []) == list(range(n_max + n_atoms + 1))  # each once, k ascending
            assert all(size <= max(floats, (min(n_atoms, n_max) + 1) ** 2) for _, size in solved)
            assert chosen == [k_whole]  # the chosen block last, on its own

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=30),
        foms,
        st.floats(min_value=0.3, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_for_bit_with_every_block_solved(self, n_atoms, n_max, fom, omega_a):
        p = DickeParams.from_figure_of_merit(
            n_atoms=n_atoms, fom=fom, omega=1.0, omega_a=omega_a, rwa=True, n_max=n_max
        )
        assert_same_ground(excitation_ground(p), all_blocks_ground(p))

    @pytest.mark.parametrize("n_max", [8, 16])
    # F = 1 on resonance: the exact tie of k = 0 and 1; 1e-9 below it, k = 1 lies
    # above the vacuum by less than the tie window and meets its own bound
    @pytest.mark.parametrize("fom", [0.0, 1.0, 1.0 - 1e-9])
    @pytest.mark.parametrize("n_atoms", [8, 16, 32])
    def test_bit_for_bit_with_every_block_solved_at_fixed_points(self, monkeypatch, n_atoms, fom, n_max):
        p = params(n_atoms=n_atoms, fom=fom, rwa=True, n_max=n_max)
        expected = all_blocks_ground(p)
        assert expected.near_degenerate == (fom != 0.0)
        reach, threshold = dicke._excitation_reach(p)
        assert reach <= n_max  # the blocks k <= K are untruncated
        for floats in (dicke._BATCH_FLOATS, 1):  # then one block a stack
            monkeypatch.setattr(dicke, "_BATCH_FLOATS", floats)
            assert_same_ground(excitation_ground(p), expected)
            assert_same_ground(dicke._excitation_ground(p, reach + 1, threshold), expected)

    # F = 1 on resonance: k = 1 ties with the vacuum exactly
    @given(st.integers(min_value=1, max_value=12), st.just(1.0) | foms, st.just(1.0) | st.floats(0.3, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_threshold_leaves_out_no_block_that_can_win_or_tie(self, n_atoms, fom, omega_a):
        p = DickeParams.from_figure_of_merit(n_atoms=n_atoms, fom=fom, omega=1.0, omega_a=omega_a, rwa=True)
        reach, threshold = dicke._excitation_reach(p)
        q = replace(p, n_max=max(reach, dicke.FOCK_SCHEDULE_START))  # the solve's lattice, as in a scan row
        ground = dicke._excitation_ground(q, reach + 1, threshold)
        bounds, window = dicke._excitation_bounds(dicke._excitation_entries(q))
        assert bounds[sum(divmod(int(ground.support[0]), n_atoms + 1))] <= threshold  # the chosen block's
        lowest = block_lowest(q)[: reach + 1]
        assert np.all(lowest[bounds[: reach + 1] > threshold] >= ground.energy + window)
        assert_same_ground(ground, all_blocks_ground(q))

    # N = 2, F = 1.3: with one block a stack, a skip test against each new lowest energy
    # would leave out a block that the threshold keeps
    @pytest.mark.parametrize("n_atoms, fom, omega_a", [(2, 1.3, 1.0), (8, 10.0, 3.0), (32, 3.0, 1.0)])
    @pytest.mark.parametrize("floats", [1, dicke._BATCH_FLOATS])
    def test_blocks_within_the_threshold_solved_once(self, monkeypatch, n_atoms, fom, omega_a, floats):
        p = DickeParams.from_figure_of_merit(n_atoms=n_atoms, fom=fom, omega=1.0, omega_a=omega_a, rwa=True)
        reach, threshold = dicke._excitation_reach(p)
        p = replace(p, n_max=max(reach, dicke.FOCK_SCHEDULE_START))
        bounds, _ = dicke._excitation_bounds(dicke._excitation_entries(p))
        within = np.flatnonzero(bounds[: reach + 1] <= threshold).tolist()
        build, eigvalsh, events = dicke._excitation_batch, np.linalg.eigvalsh, []

        def recording_build(entries, ks):
            events.append(ks.tolist())
            return build(entries, ks)

        def recording_eigvalsh(batch):
            events.append("eigvalsh")
            return eigvalsh(batch)

        monkeypatch.setattr(dicke, "_excitation_batch", recording_build)
        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        monkeypatch.setattr(dicke, "_BATCH_FLOATS", floats)
        vec = laid_out(dicke._excitation_ground(p, reach + 1, threshold), p)
        *solved, chosen = events
        stacks = solved[::2]
        assert solved[1::2] == ["eigvalsh"] * len(stacks)  # no eigvalsh before the first stack, one a stack
        assert sum(stacks, []) == within  # each once, k ascending
        per_batch = max(1, floats // (min(p.n_atoms, p.n_max) + 1) ** 2)
        assert all(len(stack) <= per_batch for stack in stacks)
        assert chosen == [sum(divmod(int(np.argmax(np.abs(vec))), n_atoms + 1))]

    def test_scan_rows_match_parity_solve(self, monkeypatch):
        grid = [round(0.037 + 0.2 * i, 10) for i in range(13)]  # 0.037 .. 2.437, no exact crossing
        for n_atoms in (8, 16):
            template = DickeParams(n_atoms=n_atoms, omega=1.0, omega_a=1.0, g_collective=0.0, rwa=True)
            rows = scan_coupling(template, grid)
            with monkeypatch.context() as patch:
                patch.setattr(dicke, "_converged_ground", parity_walk)
                oracle = scan_coupling(template, grid)
            for row, expected in zip(rows, oracle):
                assert row.error is None and expected.error is None
                assert row.n_max == expected.n_max
                assert row.parity == pytest.approx(expected.parity, abs=1e-12)  # +/-1 up to rounding
                assert row.energy == pytest.approx(expected.energy, rel=1e-12)
                for name in ("photon_fraction", "inversion", "sx2_fraction"):
                    assert getattr(row, name) == pytest.approx(getattr(expected, name), abs=1e-10)

    @pytest.mark.parametrize("n_atoms", [8, 16, 32])
    def test_resonant_crossing_goes_to_one_excitation(self, n_atoms):
        # at F = 1 the vacuum and the lowest one-excitation state, (1 - N/2) - g, share the energy -N/2
        p = DickeParams.from_figure_of_merit(n_atoms=n_atoms, fom=1.0, omega=1.0, omega_a=1.0, rwa=True)
        report = dicke._converged_ground(p)
        assert report.near_degenerate
        assert report.parity_expectation == pytest.approx(-1.0, abs=1e-12)
        assert report.photon_fraction == pytest.approx(1.0 / (2 * n_atoms), rel=1e-12)
        assert report.energy == pytest.approx(-n_atoms / 2, rel=1e-14)
        assert report.converged_n_max == dicke.FOCK_SCHEDULE_START
        below = dicke._converged_ground(replace(p, g_collective=0.99))
        assert not below.near_degenerate and below.parity_expectation == 1.0

    def test_cap_corner_solve_within_batch_budget(self):
        p = params(n_atoms=499, fom=1.3, rwa=True, n_max=499)
        assert p.dimension == dicke.DEFAULT_DIMENSION_CAP
        reach, threshold = dicke._excitation_reach(p)
        tracemalloc.start()
        try:
            ground = dicke._excitation_ground(p, reach + 1, threshold)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one padded batch and a few arrays of one entry per state; the 999 blocks in one batch would take 2 GB
        assert peak <= 8 * (dicke._BATCH_FLOATS + p.dimension)
        energy, vec = ground.energy, laid_out(ground, p)
        h = build_hamiltonian(p)
        assert np.linalg.norm(h @ vec - energy * vec) <= 1e-12 * dicke._row_sum_norm(h)

    def test_one_solve_per_row(self, monkeypatch):
        # the bounds, every stack and the chosen block slice one gather of _row_entries,
        # and each row makes one solve: no Fock walk
        names = ("_parity_solve", "_excitation_ground", "_row_entries", "_matrix_elements", "observables")
        counts = dict.fromkeys(names, 0)
        for name in counts:

            def counting(*args, _name=name, _original=getattr(dicke, name), **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(dicke, name, counting)
        template = DickeParams(n_atoms=8, omega=1.0, omega_a=1.0, g_collective=0.0, rwa=True)
        rows = scan_coupling(template, [0.0, 0.5, 1.0, 1.5, 2.5, 6.0])
        assert all(row.error is None for row in rows)
        assert rows[-1].n_max > dicke.FOCK_SCHEDULE_START  # past the schedule's first truncation
        assert counts["_parity_solve"] == 0
        assert counts["_excitation_ground"] == counts["_row_entries"] == counts["observables"] == len(rows)
        # one call inside each _row_entries and one in each observables, none elsewhere
        assert counts["_matrix_elements"] == 2 * len(rows)

    # F = 1 on resonance: k = 1 ties with the vacuum exactly
    @given(st.integers(min_value=1, max_value=12), st.just(1.0) | foms, st.just(1.0) | st.floats(0.3, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_reach_keeps_every_block_that_can_win_or_tie(self, n_atoms, fom, omega_a):
        p = DickeParams.from_figure_of_merit(n_atoms=n_atoms, fom=fom, omega=1.0, omega_a=omega_a, rwa=True)
        reach, _ = dicke._excitation_reach(p)
        q = replace(p, n_max=reach + n_atoms + 8)  # blocks up to n_max are untruncated
        lowest = block_lowest(q)[: q.n_max + 1]
        _, window = dicke._excitation_bounds(dicke._excitation_entries(q))
        assert np.all(lowest[reach + 1 :] >= lowest.min() + window)
        report = dicke._converged_ground(p)
        assert report.energy == pytest.approx(lowest.min(), rel=1e-12, abs=1e-12)

    def test_reported_truncation_past_the_cap_is_a_label(self, monkeypatch):
        # N = 499, F = 2 on resonance: the chosen block k* = 312 is exact in the solve at
        # n_max = K = 343; the walk's rule labels the row 512, a lattice no solve builds
        solved, solve = [], dicke._excitation_ground
        stacks, build = [], dicke._excitation_batch

        def recording(p, blocks, threshold):
            solved.append(p)
            return solve(p, blocks, threshold)

        def recording_build(entries, ks):
            stacks.append(ks.size)
            return build(entries, ks)

        monkeypatch.setattr(dicke, "_excitation_ground", recording)
        monkeypatch.setattr(dicke, "_excitation_batch", recording_build)
        template = DickeParams(n_atoms=499, omega=1.0, omega_a=1.0, g_collective=0.0, rwa=True)
        (row,) = scan_coupling(template, [2.0])
        assert row.error is None and row.n_max == 512
        assert replace(template, n_max=row.n_max).dimension > dicke.DEFAULT_DIMENSION_CAP
        (p,) = solved
        assert p.n_max == 343 and p.dimension <= dicke.DEFAULT_DIMENSION_CAP
        # the 82 blocks within the threshold in stacks of 35, 35 and 12, then the chosen block
        assert stacks == [35, 35, 12, 1]
        printed = (row.energy, row.photon_fraction, row.inversion, row.sx2_fraction, row.parity)
        assert [repr(value) for value in printed] == [
            "-312.05228703421784", "0.37497809805144133", "-0.24972759704943734",
            "0.09417691290188004", "0.9999999999999999",
        ]

    def test_tie_window_taken_at_the_solve_truncation(self):
        # N = 2 on resonance: blocks 4 and 5 cross near F = 7.96862; here block 5 lies above
        # block 4 by more than the tie window at the reported n_max 8 and by less than the
        # one at the solve's n_max K = 24, so the row is block 5's, marked near-degenerate
        p = DickeParams.from_figure_of_merit(n_atoms=2, fom=7.9686216213, omega=1.0, omega_a=1.0, rwa=True)
        solve = replace(p, n_max=dicke._excitation_reach(p)[0])
        assert solve.n_max == 24
        lowest = block_lowest(solve)[: solve.n_max + 1]  # the untruncated blocks
        assert sorted(np.argsort(lowest)[:2]) == [4, 5]
        gap = lowest[5] - lowest[4]
        window = lambda q: dicke._excitation_bounds(dicke._excitation_entries(q))[1]  # noqa: E731
        assert window(replace(p, n_max=8)) < gap < window(solve)
        report = dicke._converged_ground(p)
        assert report.converged_n_max == 8 and report.near_degenerate
        assert report.energy == pytest.approx(lowest[5], rel=1e-14)

    @pytest.mark.parametrize("fom", [0.0, 0.5, 0.99])
    def test_large_ensemble_below_threshold_solves_the_vacuum_alone(self, fom):
        # below F = 1 the bound rules out every block but k = 0; Gershgorin's
        # closed form would leave half the blocks, past the dimension cap at N = 1000
        p = DickeParams.from_figure_of_merit(n_atoms=1000, fom=fom, omega=1.0, omega_a=1.0, rwa=True)
        assert dicke._excitation_reach(p)[0] == 0
        (row,) = scan_coupling(replace(p, g_collective=0.0), [fom])
        assert row.error is None and row.n_max == dicke.FOCK_SCHEDULE_START
        assert (row.energy, row.photon_fraction, row.parity) == (-500.0, 0.0, 1.0)

    def test_dimension_refused_before_allocating(self):
        p = params(n_atoms=500, fom=1.3, rwa=True, n_max=499)
        assert p.dimension > dicke.DEFAULT_DIMENSION_CAP
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError, match="exceeds cap"):
                excitation_ground(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestObservables:
    def test_decoupled_values(self):
        p = DickeParams(n_atoms=6, omega=1.0, omega_a=1.0, g_collective=0.0, n_max=8)
        ground = sectored_ground(p)
        report = observables(laid_out(ground, p), p, energy=ground.energy, near_degenerate=ground.near_degenerate)
        assert report.photon_fraction == pytest.approx(0.0, abs=1e-12)
        assert report.inversion == pytest.approx(-0.5, abs=1e-12)
        assert report.parity_expectation == pytest.approx(1.0, abs=1e-12)
        assert report.top_fock_population <= 1e-12
        assert report.converged_n_max == 8
        # stretched spin state: <Sx^2> = S/2, so the fraction is 1/(4N)
        assert report.sx2_fraction == pytest.approx(1.0 / (4.0 * p.n_atoms), rel=1e-10)

    @pytest.mark.parametrize("rwa", [False, True])
    def test_sx2_bit_for_bit_with_the_kronecker_oracle(self, rwa, rng):
        # S_x comes from the Hamiltonian's own matrix elements; the oracle builds it on its own
        for n_atoms in (1, 5, 24):
            p = params(n_atoms=n_atoms, fom=1.3, rwa=rwa, n_max=6)
            psi = rng.normal(size=(p.n_max + 1, n_atoms + 1))
            psi /= np.linalg.norm(psi)
            sx = kron_spin_x(n_atoms)
            expected = float(np.einsum("nj,jk,nk->", psi, sx @ sx, psi)) / n_atoms**2
            assert observables(psi.ravel(), p, energy=0.0).sx2_fraction == expected

    def test_spin_matrices_refused_past_the_batch_budget(self):
        # three dense (N + 1)^2 spin matrices: at N = 27776 (within the dimension cap
        # at n_max = 8) 5.7 GiB each, which killed the process after the solve
        p = DickeParams(n_atoms=2048, omega=1.0, omega_a=1.0, g_collective=0.0, rwa=True)
        assert (p.n_atoms + 1) ** 2 > dicke._BATCH_FLOATS == p.n_atoms**2
        dicke._require_spin_matrices(replace(p, n_atoms=2047))
        state = np.zeros(p.dimension)
        state[0] = 1.0
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError, match="exceeds cap"):
                observables(state, p, energy=0.0)
            with pytest.raises(DimensionError, match="exceeds cap"):
                dicke._converged_ground(p)  # before its first solve
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_unnormalized_state_rejected(self):
        p = params(n_atoms=4, fom=0.5, n_max=8)
        with pytest.raises(ValueError, match="normalized"):
            observables(np.ones(p.dimension), p, energy=0.0)


class TestMeanField:
    def test_boundary_and_normal_phase(self):
        assert meanfield_order_parameter(1.0, 1.0, 1.0) == 0.0
        assert meanfield_order_parameter(0.5, 1.0, 1.0) == 0.0

    def test_resonant_value_above_threshold(self):
        assert meanfield_order_parameter(2.0, 1.0, 1.0) == pytest.approx(0.375, rel=1e-14)

    def test_detuned_scaling(self):
        assert meanfield_order_parameter(2.0, 2.0, 1.0) == pytest.approx(0.1875, rel=1e-14)

    @pytest.mark.parametrize(
        "args, name",
        [((math.nan, 1.0, 1.0), "fom"), ((2.0, math.inf, 1.0), "omega"), ((2.0, 1.0, math.nan), "omega_a")],
    )
    def test_non_finite_arguments_named(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be (0 or )?from "):
            meanfield_order_parameter(*args)

    def test_variational_oracle(self):
        # direct minimization of omega x^2 + (omega_a/2) cos t + g x sin t
        from scipy.optimize import minimize_scalar

        fom, omega, omega_a = 1.8, 1.0, 1.3
        g = math.sqrt(fom * omega * omega_a)

        def energy_per_atom(theta):
            x = -g * math.sin(theta) / (2.0 * omega)
            return omega * x * x + 0.5 * omega_a * math.cos(theta) + g * x * math.sin(theta)

        result = minimize_scalar(energy_per_atom, bounds=(0.0, math.pi), method="bounded",
                                 options={"xatol": 1e-12})
        best_x = -g * math.sin(result.x) / (2.0 * omega)
        assert best_x**2 == pytest.approx(meanfield_order_parameter(fom, omega, omega_a), rel=1e-9)


class TestFockConvergence:
    def test_decoupled_uses_first_schedule_entry(self):
        p = DickeParams(n_atoms=6, omega=1.0, omega_a=1.0, g_collective=0.0)
        assert dicke._converged_ground(p).converged_n_max == 8

    def test_schedule_cap(self, monkeypatch):
        # one schedule entry leaves nothing to compare the first truncation with
        monkeypatch.setattr(dicke, "FOCK_SCHEDULE_CAP", dicke.FOCK_SCHEDULE_START)
        p = params(n_atoms=4, fom=2.0)
        with pytest.raises(FockTruncationError, match=f"up to {dicke.FOCK_SCHEDULE_START} "):
            dicke._converged_ground(p)

    def test_regression_at_strong_coupling(self):
        p = params(n_atoms=24, fom=2.0)
        assert dicke._converged_ground(p).converged_n_max == 32


def tried_truncations(n_max):
    """The walk's truncations from the first schedule entry to twice the accepted one."""
    tried = [dicke.FOCK_SCHEDULE_START]
    while tried[-1] < 2 * n_max:
        tried.append(2 * tried[-1])
    return tried


# Figures of merit from 0 to 8, positive ones from the floor of their domain up.
strong_foms = st.just(0.0) | st.floats(min_value=DOMAINS["figure of merit"][0], max_value=8.0)


class TestRefinement:
    @pytest.mark.parametrize("below, certified", [(0.75, True), (1.25, False)])
    def test_certificate_margin_is_the_residual_bound(self, below, certified):
        # B = diag(0, -below eps, 1), eps = RESIDUAL_TOL: the start e_0 meets the residual
        # bound at once with theta = 0, and the lowest eigenvalue lies below eps * below
        block = sparse.csr_matrix(np.diag([0.0, -below * dicke.RESIDUAL_TOL, 1.0]))
        found = dicke._refine(block, np.array([1.0, 0.0, 0.0]), 0.0)
        assert (found is not None) == certified
        if certified:
            assert found[0] == 0.0 and found[2] == dicke.RESIDUAL_TOL

    @pytest.mark.parametrize("extra, refined", [(0, True), (1, False)])
    def test_band_past_the_cost_limit_not_refined(self, extra, refined):
        # half-bandwidth w = _REFINE_MAX_BAND refines, one more goes to ARPACK; the start e_0
        # is exact to 1e-30, and B + eps I is positive definite
        w = dicke._REFINE_MAX_BAND + extra
        block = sparse.diags([[0.0] + [1.0] * w, [1e-30], [1e-30]], [0, w, -w], format="csr")
        found = dicke._refine(block, np.eye(w + 1)[0], 0.0)
        assert (found is not None) == refined

    # N = 128 at n_max 128: w = 65 passes the band limit, but the refinement's
    # (8w + 3) D floats for D = 8,321 exceed _BATCH_FLOATS; N = 944 at n_max 16
    # (w = 473, D = 8,033) fails the band limit
    @pytest.mark.parametrize("n_atoms, n_max", [(128, 128), (944, 16)])
    def test_large_block_refused_before_allocating(self, n_atoms, n_max):
        for _, block in sector_hamiltonians(params(n_atoms=n_atoms, fom=1.3, n_max=n_max)):
            start = np.full(block.shape[0], block.shape[0] ** -0.5)
            tracemalloc.start()
            try:
                found = dicke._refine(block, start, 0.0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert found is None
            assert peak <= 16 * (block.nnz + block.shape[0])  # the band offsets, never the band

    @pytest.mark.parametrize("spare, refined", [(0, True), (-1, False)])
    def test_refinement_within_memory_budget(self, monkeypatch, spare, refined):
        # N = 32, F = 2.5: the candidate at n_max 64 refined at 128, where it needs solves;
        # _BATCH_FLOATS set to the (8w + 3) D floats the larger sector needs, or one less
        p = params(n_atoms=32, fom=2.5, n_max=128)
        candidate = replace(p, n_max=64)
        grounds = dicke._parity_solve(sector_hamiltonians(candidate))
        sectors = sector_hamiltonians(p)
        w = p.n_atoms // 2 + 1  # ceil(N/2) + 1 in a parity sector
        monkeypatch.setattr(dicke, "_BATCH_FLOATS", (8 * w + 3) * max(idx.size for idx, _ in sectors) + spare)
        found = []
        for (idx, block), ground in zip(sectors, grounds):
            start = np.zeros(idx.size)
            start[: ground.vec.size] = ground.vec
            assert np.linalg.norm(block @ start - ground.energy * start) > dicke.RESIDUAL_TOL * dicke._row_sum_norm(block)
            tracemalloc.start()
            try:
                found.append(dicke._refine(block, start, ground.energy))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # the band and solve_banded's arrays, plus the band offsets and a few vectors
            assert peak <= 8 * (dicke._BATCH_FLOATS + 2 * block.nnz + 8 * idx.size)
        assert (found[0] is not None) == refined and found[1] is not None  # the even sector is the larger

    @pytest.mark.parametrize("n_atoms, fom", [(1, 2.0), (6, 1.5), (8, 0.7)])
    def test_excited_start_refused(self, n_atoms, fom):
        p = params(n_atoms=n_atoms, fom=fom, n_max=32)
        for _, block in sector_hamiltonians(p):
            values, vectors = np.linalg.eigh(block.toarray())
            eps = dicke.RESIDUAL_TOL * dicke._row_sum_norm(block)
            theta, _, bound = dicke._refine(block, vectors[:, 0], values[0])
            assert bound == eps and abs(theta - values[0]) <= eps
            # the first excited pair meets the residual bound; only the certificate refuses it
            assert np.linalg.norm(block @ vectors[:, 1] - values[1] * vectors[:, 1]) <= eps
            assert dicke._refine(block, vectors[:, 1], values[1]) is None

    def test_walk_forced_through_a_refusal_returns_the_exact_row(self, monkeypatch):
        p = params(n_atoms=6, fom=1.5)
        expected = dicke._converged_ground(p)
        refine, solve, refused, solved = dicke._refine, dicke.ground_state, [], []

        def excited_start(block, start, shift):
            values, vectors = np.linalg.eigh(block.toarray())
            found = refine(block, vectors[:, 1], values[1])
            refused.append(found is None)
            return found

        def counting_solve(h, *args, **kwargs):
            solved.append(h.shape[0])
            return solve(h, *args, **kwargs)

        monkeypatch.setattr(dicke, "_refine", excited_start)
        monkeypatch.setattr(dicke, "ground_state", counting_solve)
        assert dicke._converged_ground(p) == expected
        assert refused and all(refused)
        # ARPACK solved the even sector, ceil(D/2) of its D states, of every truncation from the
        # start, p.n_max = 16, the last included; 8 was shown unsettled from the start's record, and
        # each odd sector was shown to lie above the even one and skipped
        tried = tried_truncations(expected.converged_n_max)
        assert p.n_max == tried[1]
        assert solved == [((n + 1) * (p.n_atoms + 1) + 1) // 2 for n in tried[1:]]

    # omega_A/omega from 1e-2 to 1e2, where the walk also fails (N = 12 at F = 8, ratio 10, and F = 2, ratio 100):
    # both walks must fail alike
    @given(st.integers(min_value=1, max_value=12), strong_foms, st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_rows_equal_the_walk_that_solves_every_truncation(self, n_atoms, fom, log_ratio):
        template = DickeParams(n_atoms=n_atoms, omega=1.0, omega_a=10.0**log_ratio, g_collective=0.0)
        rows = scan_coupling(template, [fom])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dicke, "_converged_ground", parity_walk)
            expected = scan_coupling(template, [fom])
        assert repr(rows) == repr(expected)

    # larger ensembles up to the band limit (N = 128) and past it (N = 129), verified
    # truncations up to 256 and frequency ratios off resonance; N = 128, F = 1.3 passes the
    # band limit and fails the memory bound
    @pytest.mark.parametrize(
        "n_atoms, fom, omega_a, refined",
        [
            (64, 1.3, 1.0, True),
            (64, 2.5, 1.0, True),
            (128, 0.5, 1.0, True),
            (128, 1.3, 1.0, False),
            (127, 1.0, 1.0, True),
            (129, 0.5, 1.0, False),
            (32, 1.3, 0.1, True),
            (32, 1.3, 10.0, True),
        ],
    )
    def test_large_ensemble_rows_equal_the_walk_that_solves_every_truncation(
        self, monkeypatch, n_atoms, fom, omega_a, refined
    ):
        template = DickeParams(n_atoms=n_atoms, omega=1.0, omega_a=omega_a, g_collective=0.0)
        refine, found = dicke._refine, []

        def recording(block, start, shift):
            found.append(refine(block, start, shift))
            return found[-1]

        monkeypatch.setattr(dicke, "_refine", recording)
        rows = scan_coupling(template, [fom])
        assert found and all(pair is not None for pair in found) == refined
        monkeypatch.setattr(dicke, "_converged_ground", parity_walk)
        assert repr(rows) == repr(scan_coupling(template, [fom]))

    @pytest.mark.parametrize("n_atoms", [8, 16])
    def test_offset_grid_rows_equal_the_walk_that_solves_every_truncation(self, monkeypatch, n_atoms):
        grid = [round(0.05 + 0.1 * i, 10) for i in range(26)]  # the acceptance grid moved off its points
        template = DickeParams(n_atoms=n_atoms, omega=1.0, omega_a=1.0, g_collective=0.0)
        rows = scan_coupling(template, grid)
        monkeypatch.setattr(dicke, "_converged_ground", parity_walk)
        assert repr(rows) == repr(scan_coupling(template, grid))


def both_sector_solve(sectors):
    """The parity solve with ARPACK on both sectors: records flagged when their energies lie within the window."""
    solved = [dicke.ground_state(block) for _, block in sectors]
    window = dicke.NEAR_DEGENERACY_FACTOR * max(dicke._row_sum_norm(block) for _, block in sectors)
    (even_energy, _), (odd_energy, _) = solved
    near_degenerate = abs(even_energy - odd_energy) < window
    return [dicke._Ground(energy, idx, vec, near_degenerate) for (idx, _), (energy, vec) in zip(sectors, solved)]


class TestOddSectorCertificate:
    # omega_A/omega from 1e-2 to 1e2 and truncations to 64, the odd sector's lowest level from dense eigvalsh
    @given(
        st.integers(min_value=1, max_value=12),
        strong_foms,
        st.floats(min_value=-2.0, max_value=2.0),
        st.sampled_from([8, 16, 32, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_odd_sector_skipped_only_above_the_window(self, n_atoms, fom, log_ratio, n_max):
        p = DickeParams.from_figure_of_merit(n_atoms, fom, 1.0, 10.0**log_ratio, n_max=n_max)
        sectors = sector_hamiltonians(p)
        found, expected = dicke._parity_solve(sectors), both_sector_solve(sectors)
        if len(found) == 1:
            window = dicke.NEAR_DEGENERACY_FACTOR * max(dicke._row_sum_norm(block) for _, block in sectors)
            assert np.linalg.eigvalsh(sectors[1][1].toarray())[0] > found[0].energy + window
            assert not expected[0].near_degenerate and expected[0].energy < expected[1].energy
            expected = expected[:1]
        assert len(found) == len(expected)
        for record, oracle in zip(found, expected):
            assert_same_ground(record, oracle)

    # even sector diag(0, 1), odd diag(level, 1), both of norm 1, so window = NEAR_DEGENERACY_FACTOR
    # and eps = RESIDUAL_TOL; the odd solve returns its level 0.9 eps low, as ground_state's residual
    # bound allows.  A level within the window, or above it by less than the allowance, must be solved:
    # the records are then flagged, and skipping the odd solve would drop the flag.
    @pytest.mark.parametrize(
        "level",
        [0.5 * dicke.NEAR_DEGENERACY_FACTOR, dicke.NEAR_DEGENERACY_FACTOR + 0.5 * dicke.RESIDUAL_TOL],
        ids=["window", "allowance"],
    )
    def test_odd_level_within_window_and_allowance_solved(self, monkeypatch, level):
        odd = sparse.csr_matrix(np.diag([level, 1.0]))
        sectors = [(np.array([0, 2]), sparse.csr_matrix(np.diag([0.0, 1.0]))), (np.array([1, 3]), odd)]
        solve = dicke.ground_state

        def low_ritz_value(h, *args, **kwargs):
            energy, vec = solve(h, *args, **kwargs)
            return (energy - 0.9 * dicke.RESIDUAL_TOL if h is odd else energy), vec

        monkeypatch.setattr(dicke, "ground_state", low_ritz_value)
        found, expected = dicke._parity_solve(sectors), both_sector_solve(sectors)
        assert len(found) == 2 and all(record.near_degenerate for record in found)
        for record, oracle in zip(found, expected):
            assert_same_ground(record, oracle)

    def test_doublet_solves_both_sectors(self):
        # the superradiant doublet, its levels 6.5e-8 apart, far within the window (about 1.5e-6)
        p = params(n_atoms=16, fom=2.5, n_max=96)
        sectors = sector_hamiltonians(p)
        found = dicke._parity_solve(sectors)
        assert len(found) == 2 and found[0].near_degenerate
        for record, oracle in zip(found, both_sector_solve(sectors)):
            assert_same_ground(record, oracle)

    def test_refinement_without_the_odd_record_certifies_the_odd_sector(self):
        # N = 16, F = 2.5: the candidate at n_max 64 verified at 128, where the doublet's levels lie
        # within 2 (eps_even + eps_odd) of each other; with both records the verification accepts,
        # with the even one alone the odd sector cannot be shown above it, so it refuses
        p = params(n_atoms=16, fom=2.5, n_max=128)
        candidate = replace(p, n_max=64)
        grounds = dicke._parity_solve(sector_hamiltonians(candidate))
        fraction = min(grounds, key=lambda ground: ground.energy).report(candidate).photon_fraction
        sectors = sector_hamiltonians(p)
        even, odd = (np.linalg.eigvalsh(block.toarray())[0] for _, block in sectors)
        eps = [dicke.RESIDUAL_TOL * dicke._row_sum_norm(block) for _, block in sectors]
        assert len(grounds) == 2 and abs(odd - even) < 2.0 * sum(eps)
        assert dicke._refinement_accepts(p, sectors, grounds, fraction)
        assert not dicke._refinement_accepts(p, sectors, grounds[:1], fraction)


def walk_outcome(walk, p):
    """repr of a walk's report at p with the flag parity_walk never sets cleared, and the flag; or its error."""
    try:
        report = walk(p)
    except (SolverConvergenceError, FockTruncationError, DimensionError) as exc:
        return f"{type(exc).__name__}: {exc}", None
    return repr(replace(report, near_degenerate=False)), report.near_degenerate


SCHEDULE = [dicke.FOCK_SCHEDULE_START * 2**i for i in range(7)]  # 8 ... 512, FOCK_SCHEDULE_CAP


def two_state_sector(delta):
    """B = [[-1, c], [c, 0]], its top layer the second state, with lambda_1(B') - lambda_1(B) = delta.

    B' = [-1], and lambda_1 = -1/2 - sqrt(1/4 + c^2) = -1 - delta for c^2 = delta (1 + delta).
    The ground vector's top weight is delta/(1 + 2 delta).
    """
    c = math.sqrt(delta * (1.0 + delta))
    return sparse.csr_matrix(np.array([[-1.0, c], [c, 0.0]]))


def unsettled_bound_from_ground(block):
    """_unsettled_bound of a sector, iterated from its own ground vector with a shift below it."""
    values, vectors = np.linalg.eigh(block.toarray())
    return dicke._unsettled_bound(block, block.shape[0] - 1, vectors[:, 0], values[0] - 1e-3)


class TestStart:
    # omega_A/omega from 1e-2 to 1e2; every start of the schedule, the first being the walk without
    # one, and a drawn start, rounded down to the schedule and capped
    @given(
        st.integers(min_value=1, max_value=12),
        strong_foms,
        st.floats(min_value=-2.0, max_value=2.0),
        st.integers(min_value=1, max_value=1100),
    )
    @settings(max_examples=20, deadline=None)
    def test_rows_equal_the_walk_that_solves_every_truncation_at_every_start(self, n_atoms, fom, log_ratio, drawn):
        p = DickeParams.from_figure_of_merit(n_atoms, fom, 1.0, 10.0**log_ratio)
        (found,) = {walk_outcome(dicke._converged_ground, replace(p, n_max=start)) for start in [*SCHEDULE, drawn]}
        assert found[0] == walk_outcome(parity_walk, p)[0]

    def test_sector_below_the_threshold_not_shown_unsettled(self):
        # the ground vector's top weight just below TOP_POPULATION_TOL, and just above it; without
        # the tau (|d_max| + ||B||) term of Delta the first would be shown unsettled
        below = two_state_sector(dicke.TOP_POPULATION_TOL * (1.0 - 1e-3))
        above = two_state_sector(dicke.TOP_POPULATION_TOL * 1.05)
        assert np.linalg.eigh(below.toarray())[1][1, 0] ** 2 < dicke.TOP_POPULATION_TOL
        assert unsettled_bound_from_ground(below) is None
        assert unsettled_bound_from_ground(above) is not None

    @pytest.mark.parametrize("side, shown", [(-0.5, False), (0.5, True)])
    def test_floor_is_the_stated_one(self, side, shown):
        # lambda_1(B') half an eps below and above the floor rho + eps + Delta, rho = lambda_1(B) to
        # rounding (about 1e-15 here): dropping the eps from Delta, or the one added to rho, shows the first
        tau = dicke.TOP_POPULATION_TOL * (1.0 + 2.0**-20)
        delta = dicke.TOP_POPULATION_TOL
        for _ in range(4):  # the norm depends on delta through c
            norm = dicke._row_sum_norm(two_state_sector(delta))
            eps = dicke.RESIDUAL_TOL * norm
            delta = eps + (tau * (norm + eps) + eps) / (1.0 - tau) + side * eps  # |d_max| = 0
        block = two_state_sector(delta)
        bound = unsettled_bound_from_ground(block)
        assert (bound is not None) == shown
        if shown:
            lowest = np.linalg.eigvalsh(block.toarray())[0]
            assert 0.0 <= bound - (lowest + eps) <= 1e-14

    def test_odd_sector_within_the_window_not_shown_unsettled(self):
        # N = 16, F = 2.5: at n_max 16 both sectors are shown unsettled from the doublet's records at
        # 64; from the even record alone they are not, as the odd level lies 8.2e-8 above the even
        # one, within the window (4.3e-7) though above eps_even (4.3e-9), so either may be reported
        p = params(n_atoms=16, fom=2.5, n_max=16)
        larger = sector_hamiltonians(replace(p, n_max=64))
        grounds = dicke._parity_solve(larger)
        shifts = [
            ground.energy - 2.0 * dicke.RESIDUAL_TOL * dicke._row_sum_norm(block) for ground, (_, block) in zip(grounds, larger)
        ]
        sectors = sector_hamiltonians(p)
        even, odd = (np.linalg.eigvalsh(block.toarray())[0] for _, block in sectors)
        window = dicke.NEAR_DEGENERACY_FACTOR * max(dicke._row_sum_norm(block) for _, block in sectors)
        assert len(grounds) == 2 and dicke.RESIDUAL_TOL * dicke._row_sum_norm(sectors[0][1]) < odd - even < window
        assert dicke._shown_unsettled(p, sectors, grounds, shifts)
        assert not dicke._shown_unsettled(p, sectors, grounds[:1], shifts[:1])

    @pytest.mark.parametrize("failing", ["start solve", "second solve", "start build"])
    def test_failed_start_leaves_the_walk_without_one(self, monkeypatch, failing):
        # a failure the start brings is dropped with the start: the row is that of the walk from 8
        p = params(n_atoms=8, fom=1.5, n_max=8)
        expected = dicke._converged_ground(p)
        start = replace(p, n_max=256)
        solve, solved = dicke.ground_state, []

        def failing_solve(h, *args, **kwargs):
            solved.append(h.shape[0])
            if failing != "start build" and len(solved) == (1 if failing == "start solve" else 2):
                raise SolverConvergenceError("forced failure", 1.0)
            return solve(h, *args, **kwargs)

        monkeypatch.setattr(dicke, "ground_state", failing_solve)
        if failing == "second solve":  # so the downward pass solves 128 after 256
            monkeypatch.setattr(dicke, "_shown_unsettled", lambda *args: False)
        if failing == "start build":
            monkeypatch.setattr(dicke, "DEFAULT_DIMENSION_CAP", start.dimension - 1)
        assert dicke._converged_ground(start) == expected
        even = {n: ((n + 1) * (p.n_atoms + 1) + 1) // 2 for n in (8, 128, 256)}  # even sector sizes
        # the truncations solved up to the walk's first, 8; 128 only when nothing is shown unsettled
        tried = {"start solve": [256, 8], "second solve": [256, 128, 8], "start build": [8]}[failing]
        assert solved[: solved.index(even[8]) + 1] == [even[n] for n in tried]

    def test_levels_shown_unsettled_are_unsettled(self, monkeypatch):
        # every truncation the scan shows unsettled reports a top-layer weight past the threshold
        shown, check = [], dicke._shown_unsettled

        def recording(p, *args):
            found = check(p, *args)
            if found:
                shown.append(p)
            return found

        monkeypatch.setattr(dicke, "_shown_unsettled", recording)
        template = DickeParams(n_atoms=16, omega=1.0, omega_a=1.0, g_collective=0.0)
        scan_coupling(template, [round(0.1 * i, 10) for i in range(26)])
        assert len(shown) > 20
        for p in shown:
            report = sectored_ground(p).report(p)
            assert report.top_fock_population >= dicke.TOP_POPULATION_TOL


@pytest.fixture(scope="module")
def rows():
    template = DickeParams(n_atoms=12, omega=1.0, omega_a=1.0, g_collective=0.0)
    grid = [round(0.25 * i, 10) for i in range(9)]  # 0 .. 2.0
    return scan_coupling(template, grid)


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="scans run serially without fork"
)


@contextlib.contextmanager
def deadline(seconds):
    """End the test process with every thread's traceback if the block outlasts seconds."""
    faulthandler.dump_traceback_later(seconds, exit=True, file=sys.__stderr__)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


def fake_row(template, fom):
    return ScanRow(fom=fom, n_atoms=template.n_atoms, n_max=8, energy=0.0, photon_fraction=0.0,
                   inversion=0.0, sx2_fraction=0.0, parity=1.0)


# Run by test_blas_budget_covers_libraries_loaded_by_the_solve in a fresh
# interpreter; argv[1] is the solve log.  Prints, per scan, whether every
# library mapped before it got its thread count back.
BLAS_BUDGET_CHILD = """
import ctypes, json, os, sys
from dipolegauge import dicke

assert not [name for name in sys.modules if name.split(".")[0] == "scipy"]


def openblas():
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line.lower()})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for suffix in ("", "64_"):
            get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
            set_ = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found[path] = (get, set_)
    return found


phase = None
solve = dicke.ground_state


def logged_solve(h, *args, **kwargs):
    result = solve(h, *args, **kwargs)  # first, so that what the solve maps is seen too
    counts = {path: get() for path, (get, _) in openblas().items()}
    with open(sys.argv[1], "a") as log:
        log.write(json.dumps({"phase": phase, "pid": os.getpid(), "counts": counts}) + "\\n")
    return result


dicke.ground_state = logged_solve
dicke.os.cpu_count = lambda: 2
restored = {}
for phase, rwa, workers in [("rwa", True, 1), ("serial", False, 1), ("jobs2", False, 2)]:
    for _, set_ in openblas().values():
        set_(2)
    before = {path: get() for path, (get, _) in openblas().items()}
    template = dicke.DickeParams(n_atoms=4, omega=1.0, omega_a=1.0, g_collective=0.0, rwa=rwa)
    rows = dicke.scan_coupling(template, [0.5, 1.5], max_workers=workers)
    assert all(row.error is None for row in rows), rows
    restored[phase] = all(get() == before[path] for path, (get, _) in openblas().items() if path in before)
print(json.dumps(restored))
"""


@pytest.fixture
def recording_pool(monkeypatch):
    """Worker counts of the process pools scans start; each runs its map in-process."""
    started = []

    class RecordingExecutor:
        def __init__(self, max_workers, mp_context):
            assert mp_context.get_start_method() == "fork"
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(dicke, "_scan_one", fake_row)
    monkeypatch.setattr(dicke.os, "cpu_count", lambda: 4)
    return started


class TestScan:
    def test_rows_ordered_and_complete(self, rows):
        assert [row.fom for row in rows] == sorted(row.fom for row in rows)
        assert all(row.error is None for row in rows)

    def test_zero_row_matches_decoupled_values(self, rows):
        first = rows[0]
        assert first.fom == 0.0
        assert first.photon_fraction == pytest.approx(0.0, abs=1e-12)
        assert first.energy == pytest.approx(-6.0, abs=1e-10)
        assert first.n_max == 8

    def test_photon_fraction_monotone(self, rows):
        fractions = [row.photon_fraction for row in rows]
        assert all(b >= a - 1e-6 for a, b in zip(fractions, fractions[1:]))

    def test_chosen_truncation_nondecreasing(self, rows):
        sizes = [row.n_max for row in rows]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_strong_coupling_near_mean_field(self):
        template = DickeParams(n_atoms=24, omega=1.0, omega_a=1.0, g_collective=0.0)
        (row,) = scan_coupling(template, [2.0])
        assert abs(row.photon_fraction / 0.375 - 1.0) <= 0.15

    def test_parallel_matches_serial(self, rows):
        grid = [row.fom for row in rows]
        for rwa in (False, True):
            template = DickeParams(n_atoms=12, omega=1.0, omega_a=1.0, g_collective=0.0, rwa=rwa)
            serial = scan_coupling(template, grid) if rwa else rows
            assert scan_coupling(template, grid, max_workers=4) == serial

    @needs_fork
    def test_carried_starts_cross_pool_chunks(self, monkeypatch):
        # N = 24 on the acceptance grid: n_max steps 8 -> 16 -> 32 -> 64, so a pair's second row
        # starts where its first stopped, and the next pair starts at 8 again
        monkeypatch.setattr(dicke.os, "cpu_count", lambda: 2)
        template = DickeParams(n_atoms=24, omega=1.0, omega_a=1.0, g_collective=0.0)
        grid = [round(0.1 * i, 10) for i in range(26)]
        serial = scan_coupling(template, grid)
        assert sorted({row.n_max for row in serial}) == [8, 16, 32, 64]
        assert repr(scan_coupling(template, grid, max_workers=2)) == repr(serial)
        assert repr([row for fom in grid for row in scan_coupling(template, [fom])]) == repr(serial)

    @pytest.mark.parametrize(
        "max_workers, grid_size, threads",
        [(1, 5, None), (2, 5, 2), (3, 5, 3), (10**6, 5, 4), (10**6, 3, 3), (4, 1, None), (10**6, 0, None)],
    )
    def test_thread_count_bounded(self, recording_pool, max_workers, grid_size, threads):
        template = DickeParams(n_atoms=4, omega=1.0, omega_a=1.0, g_collective=0.0)
        grid = [0.1 * i for i in range(grid_size)]
        found = scan_coupling(template, grid, max_workers=max_workers)
        assert [row.fom for row in found] == sorted(grid)
        assert recording_pool == ([] if threads is None else [threads])

    def test_serial_where_fork_is_unavailable(self, recording_pool, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        template = DickeParams(n_atoms=4, omega=1.0, omega_a=1.0, g_collective=0.0)
        found = scan_coupling(template, [0.2, 0.0, 0.1], max_workers=2)
        assert [row.fom for row in found] == [0.0, 0.1, 0.2]
        assert recording_pool == []

    def test_blas_thread_counts_restored(self, monkeypatch):
        controls = dicke._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS library is loaded")
        counts = lambda: [get() for get, _ in controls]  # noqa: E731
        saved = counts()
        seen = []

        def recording_row(template, fom):
            seen.append(counts())
            return fake_row(template, fom)

        def failing_row(template, fom):
            raise RuntimeError("solve failed")

        template = DickeParams(n_atoms=4, omega=1.0, omega_a=1.0, g_collective=0.0)
        try:
            for _, set_ in controls:
                set_(2)
            before = counts()  # 2, or fewer where OpenBLAS allows fewer
            monkeypatch.setattr(dicke, "_scan_one", recording_row)
            scan_coupling(template, [0.0, 0.5])
            assert seen == [[1] * len(controls)] * 2
            assert counts() == before
            monkeypatch.setattr(dicke, "_scan_one", failing_row)
            with pytest.raises(RuntimeError, match="solve failed"):
                scan_coupling(template, [0.0, 0.5])
            assert counts() == before
        finally:
            for (_, set_), count in zip(controls, saved):
                set_(count)

    @needs_fork
    def test_blas_budget_covers_libraries_loaded_by_the_solve(self, tmp_path):
        """Every OpenBLAS is on one thread in every Dicke solve, also when scipy loads late.

        A fresh interpreter imports dicke (which loads no scipy), runs an RWA
        scan (numpy only), then Dicke scans serially and with two workers.
        The libraries are found from /proc/self/maps here, not through dicke;
        a wrapper on dicke.ground_state logs their counts at the end of every
        solve, workers included, and each scan must restore the counts it found.
        """
        if not os.path.exists("/proc/self/maps"):
            pytest.skip("no procfs to find the mapped libraries")
        log = tmp_path / "solves.jsonl"
        src = str(Path(dicke.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.run(
            [sys.executable, "-c", BLAS_BUDGET_CHILD, str(log)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert child.returncode == 0, child.stderr[-2000:]
        restored = json.loads(child.stdout)
        assert restored == {"rwa": True, "serial": True, "jobs2": True}
        solves = [json.loads(line) for line in log.read_text().splitlines()]
        assert {solve["phase"] for solve in solves} == {"serial", "jobs2"}
        assert any(solve["pid"] != solves[0]["pid"] for solve in solves if solve["phase"] == "jobs2")
        for solve in solves:
            assert len(solve["counts"]) >= 2, solve  # numpy's OpenBLAS and scipy's
            assert set(solve["counts"].values()) == {1}, solve

    @needs_fork
    def test_pool_rows_equal_serial_rows_rwa(self, monkeypatch):
        monkeypatch.setattr(dicke.os, "cpu_count", lambda: 2)
        template = DickeParams(n_atoms=8, omega=1.0, omega_a=1.0, g_collective=0.0, rwa=True)
        grid = [0.0, 0.5, 1.0, 1.5, 2.0]
        assert scan_coupling(template, grid, max_workers=2) == scan_coupling(template, grid)

    @needs_fork
    def test_solver_failure_in_worker_is_failed_row(self, monkeypatch):
        solve = dicke._converged_ground

        def failing_at_one(p):
            if abs(p.figure_of_merit - 1.0) < 1e-9:
                raise SolverConvergenceError("forced failure", 1.0)
            return solve(p)

        monkeypatch.setattr(dicke, "_converged_ground", failing_at_one)  # workers inherit it through fork
        monkeypatch.setattr(dicke.os, "cpu_count", lambda: 2)
        template = DickeParams(n_atoms=4, omega=1.0, omega_a=1.0, g_collective=0.0)
        grid = [0.0, 0.5, 1.0, 1.5]
        pooled = scan_coupling(template, grid, max_workers=2)
        assert [row.fom for row in pooled] == grid
        assert [row.error is not None for row in pooled] == [False, False, True, False]
        assert "forced failure" in pooled[2].error and pooled[2].energy is None
        assert pooled == scan_coupling(template, grid)

    @needs_fork
    def test_dead_worker_raises_instead_of_hanging(self, monkeypatch, capsys):
        monkeypatch.setattr(dicke, "_converged_ground", lambda p: os._exit(3))
        monkeypatch.setattr(dicke.os, "cpu_count", lambda: 2)
        template = DickeParams(n_atoms=4, omega=1.0, omega_a=1.0, g_collective=0.0)
        start = time.monotonic()
        with deadline(60):
            with pytest.raises(BrokenProcessPool):
                scan_coupling(template, [0.0, 0.5, 1.0], max_workers=2)
            code = cli.main(["dicke-scan", "--N", "4", "--F", "0:1:0.5", "--resonant", "--jobs", "2"])
        assert time.monotonic() - start < 30.0
        assert code == 1
        assert "computation failed" in capsys.readouterr().err

    def test_scan_goes_through_public_build_and_solve(self, monkeypatch):
        # a private build or solve path beside these two would leave the counts short
        built, solved = [], []
        build, solve = dicke.build_hamiltonian, dicke.ground_state

        def counting_build(p):
            built.append(p.n_max)
            return build(p)

        def counting_solve(h, *args, **kwargs):
            solved.append(h.shape[0])
            return solve(h, *args, **kwargs)

        monkeypatch.setattr(dicke, "build_hamiltonian", counting_build)
        monkeypatch.setattr(dicke, "ground_state", counting_solve)
        template = DickeParams(n_atoms=8, omega=1.0, omega_a=1.0, g_collective=0.0)
        (row,) = scan_coupling(template, [1.5])
        # the walk doubles from the first schedule entry to one past the accepted truncation
        tried = tried_truncations(row.n_max)
        assert len(tried) > 2
        assert built == tried
        # ARPACK solves the even sector, ceil(D/2) of its D states, of each truncation but the last,
        # which is refined from the accepted one; each odd sector was shown to lie above it and skipped
        assert solved == [((n + 1) * (template.n_atoms + 1) + 1) // 2 for n in tried[:-1]]

    @pytest.mark.parametrize("workers", [math.nan, 2.0, 1.5])
    def test_non_integer_worker_count_refused(self, workers):
        template = DickeParams(n_atoms=4, omega=1.0, omega_a=1.0, g_collective=0.0)
        with pytest.raises(ValueError, match="^worker count must be an integer, got"):
            scan_coupling(template, [0.5], max_workers=workers)

    def test_negative_grid_rejected(self):
        template = DickeParams(n_atoms=4, omega=1.0, omega_a=1.0, g_collective=0.0)
        with pytest.raises(ValueError):
            scan_coupling(template, [-0.1])

    @pytest.mark.parametrize("rwa", [False, True])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_grid_rejected(self, capfd, value, rwa):
        template = DickeParams(n_atoms=4, omega=1.0, omega_a=1.0, g_collective=0.0, rwa=rwa)
        with pytest.raises(ValueError, match="^fom grid value must be 0 or from 1e-40 to 1e\\+40, got"):
            scan_coupling(template, [0.5, value])
        assert capfd.readouterr() == ("", "")  # no LAPACK complaint either


class TestCrossingEstimate:
    def test_interpolation(self):
        rows = [
            ScanRow(fom=f, n_atoms=4, n_max=8, energy=0.0, photon_fraction=y,
                    inversion=0.0, sx2_fraction=0.0, parity=1.0)
            for f, y in [(0.0, 0.0), (1.0, 0.04), (1.1, 0.06)]
        ]
        assert crossing_estimate(rows, threshold=0.05) == pytest.approx(1.05, rel=1e-12)

    def test_no_crossing(self):
        rows = [
            ScanRow(fom=0.0, n_atoms=4, n_max=8, energy=0.0, photon_fraction=0.01,
                    inversion=0.0, sx2_fraction=0.0, parity=1.0)
        ]
        assert crossing_estimate(rows) is None


class TestSerialization:
    @staticmethod
    def scan_output(monkeypatch, capsys, rows, *options):
        monkeypatch.setattr(dicke, "scan_coupling", lambda template, grid, max_workers=1: rows)
        code = cli.main(["dicke-scan", "--N", "4", "--F", "0.5", "--resonant", *options])
        return code, capsys.readouterr().out

    def test_csv_columns_and_values(self, monkeypatch, capsys):
        rows = [
            ScanRow(fom=0.5, n_atoms=4, n_max=8, energy=-2.0, photon_fraction=0.1,
                    inversion=-0.4, sx2_fraction=0.08, parity=1.0)
        ]
        code, out = self.scan_output(monkeypatch, capsys, rows, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "F,N,n_max,energy,photon_fraction,inversion,sx2_fraction,parity"
        assert lines[1] == "0.5,4,8,-2.0,0.1,-0.4,0.08,1.0"

    def test_failed_row_has_empty_cells_and_json_error(self, monkeypatch, capsys):
        rows = [ScanRow(fom=0.5, n_atoms=4, error="boom")]  # the numeric fields default to None
        code, out = self.scan_output(monkeypatch, capsys, rows, "--format", "csv")
        assert code == 1
        assert out.splitlines()[1] == "0.5,4,,,,,,"
        code, out = self.scan_output(monkeypatch, capsys, rows)
        assert code == 1
        assert json.loads(out)["rows"][0]["error"] == "boom"
