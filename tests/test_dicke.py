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
    ground_state_sectored,
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
        energy, vec, near = ground_state_sectored(p)
        assert mode_displacement(vec, p) == 0.0
        report = observables(vec, p, energy=energy, near_degenerate=near)
        assert abs(abs(report.parity_expectation) - 1.0) <= 1e-10

    def test_sectored_matches_full_solve(self):
        p = params(n_atoms=7, fom=0.9, n_max=20)
        e_sector, _, _ = ground_state_sectored(p)
        e_full = np.linalg.eigvalsh(build_hamiltonian(p).toarray())[0]
        assert e_sector == pytest.approx(e_full, abs=1e-11)

    def test_near_degeneracy_flag(self):
        # the parity doublet collapses deep in the strong-coupling phase
        weak = params(n_atoms=16, fom=0.5, n_max=16)
        _, _, near_weak = ground_state_sectored(weak)
        assert not near_weak
        strong = params(n_atoms=16, fom=2.5, n_max=96)
        _, _, near_strong = ground_state_sectored(strong)
        assert near_strong


def parity_ground(p):
    """The parity-sector solve for either coupling: sector_hamiltonians and ground_state (ARPACK)."""
    results = [(*ground_state(block), idx) for idx, block in sector_hamiltonians(p)]
    energy, vec, idx = min(results, key=lambda item: item[0])
    full = np.zeros(p.dimension)
    full[idx] = vec
    return energy, full, False


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
    batch, norm = dicke._excitation_batch(p, np.arange(p.n_max + p.n_atoms + 1))
    lowest = np.linalg.eigvalsh(batch)[:, 0]
    tied = np.flatnonzero(lowest - lowest.min() < dicke.NEAR_DEGENERACY_FACTOR * norm)
    k = int(tied[-1])
    (block,), _ = dicke._excitation_batch(p, np.array([k]))
    values, vectors = np.linalg.eigh(block)
    full = np.zeros(p.dimension)
    full[excitation_indices(p)[k]] = dicke._fix_sign(vectors[:, 0])
    return float(values[0]), full, tied.size > 1


def assert_same_ground(found, expected):
    assert found[0] == expected[0]
    assert np.array_equal(found[1], expected[1])
    assert found[2] == expected[2]


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
        batch, norm = dicke._excitation_batch(p, np.arange(len(blocks)))
        assert batch.shape == (len(blocks), min(n_atoms, n_max) + 1, min(n_atoms, n_max) + 1)
        pad = batch[-1, -1, -1]  # the last block has one state: (n_max, N)
        for padded, idx in zip(batch, blocks):
            size = idx.size
            block = h[idx][:, idx].toarray()
            assert np.array_equal(padded[:size, :size], block)
            assert np.array_equal(padded[size:, size:], pad * np.eye(padded.shape[0] - size))
            assert not padded[size:, :size].any() and not padded[:size, size:].any()
            assert np.linalg.eigvalsh(block)[-1] <= pad + 1e-14 * abs(pad)
        assert norm == pytest.approx(dicke._row_sum_norm(h), rel=1e-15)

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
        energy, vec, _ = ground_state_sectored(p)
        dense = np.linalg.eigvalsh(h.toarray())[0]
        assert energy == pytest.approx(dense, rel=1e-12)
        assert np.linalg.norm(h @ vec - energy * vec) <= 1e-12 * dicke._row_sum_norm(h)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
        # the state lies in one excitation block
        assert np.unique(excitation_diagonal(p)[vec != 0.0]).size == 1

    @pytest.mark.parametrize("n_atoms, n_max, fom", [(6, 9, 0.4), (13, 5, 2.9), (20, 24, 1.7)])
    def test_batch_size_changes_nothing(self, monkeypatch, n_atoms, n_max, fom):
        p = params(n_atoms=n_atoms, fom=fom, rwa=True, n_max=n_max)
        whole = ground_state_sectored(p)
        (k_whole,) = np.unique(excitation_diagonal(p)[whole[1] != 0.0])
        bounds, window, allowance = dicke._excitation_bounds(p)
        needed = set(np.flatnonzero(bounds <= min(block_lowest(p)) + window + allowance).tolist())
        build, batches = dicke._excitation_batch, []

        def recording_build(p, ks):
            batch, norm = build(p, ks)
            batches.append((ks.tolist(), batch.size))
            return batch, norm

        monkeypatch.setattr(dicke, "_excitation_batch", recording_build)
        for floats in (1, 40, 200):  # one block per batch, then a few
            monkeypatch.setattr(dicke, "_BATCH_FLOATS", floats)
            batches.clear()
            energy, vec, near = ground_state_sectored(p)
            assert energy == pytest.approx(whole[0], rel=1e-14)
            assert np.array_equal(vec != 0.0, whole[1] != 0.0)
            assert near == whole[2]
            *solved, (chosen, _) = batches
            ks = sum((ks for ks, _ in solved), [])
            assert len(ks) == len(set(ks))  # no block twice
            assert needed <= set(ks)  # none that could hold the minimum or tie with it skipped
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
        assert_same_ground(ground_state_sectored(p), all_blocks_ground(p))

    @pytest.mark.parametrize("n_max", [8, 16])
    # F = 1 on resonance: the exact tie of k = 0 and 1; 1e-9 below it, k = 1 lies
    # above the vacuum by less than the tie window and meets its own bound
    @pytest.mark.parametrize("fom", [0.0, 1.0, 1.0 - 1e-9])
    @pytest.mark.parametrize("n_atoms", [8, 16, 32])
    def test_bit_for_bit_with_every_block_solved_at_fixed_points(self, monkeypatch, n_atoms, fom, n_max):
        p = params(n_atoms=n_atoms, fom=fom, rwa=True, n_max=n_max)
        expected = all_blocks_ground(p)
        assert expected[2] == (fom != 0.0)
        assert_same_ground(ground_state_sectored(p), expected)
        monkeypatch.setattr(dicke, "_BATCH_FLOATS", 1)  # one block a stack: every skip test sees a new best
        assert_same_ground(ground_state_sectored(p), expected)

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=30),
        foms,
        # on resonance every block has one diagonal value, and two-state blocks meet their bound exactly
        st.just(1.0) | st.floats(min_value=0.3, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_below_every_block_and_skips_past_the_window(self, n_atoms, n_max, fom, omega_a):
        p = DickeParams.from_figure_of_merit(
            n_atoms=n_atoms, fom=fom, omega=1.0, omega_a=omega_a, rwa=True, n_max=n_max
        )
        lowest = block_lowest(p)
        bounds, window, allowance = dicke._excitation_bounds(p)
        assert np.all(bounds - allowance <= lowest)  # the bound as the skip test takes it
        build, solved = dicke._excitation_batch, set()

        def recording_build(p, ks):
            solved.update(ks.tolist())
            return build(p, ks)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dicke, "_excitation_batch", recording_build)
            energy, _, _ = ground_state_sectored(p)
        for k in set(range(len(lowest))) - solved:
            assert lowest[k] >= energy + window

    def test_scan_rows_match_parity_solve(self, monkeypatch):
        grid = [round(0.037 + 0.2 * i, 10) for i in range(13)]  # 0.037 .. 2.437, no exact crossing
        for n_atoms in (8, 16):
            template = DickeParams(n_atoms=n_atoms, omega=1.0, omega_a=1.0, g_collective=0.0, rwa=True)
            rows = scan_coupling(template, grid)
            with monkeypatch.context() as patch:
                patch.setattr(dicke, "ground_state_sectored", parity_ground)
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
        tracemalloc.start()
        try:
            energy, vec, _ = ground_state_sectored(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one padded batch and the returned vector; the 999 blocks in one batch would take 2 GB
        assert peak <= 8 * (dicke._BATCH_FLOATS + p.dimension)
        h = build_hamiltonian(p)
        assert np.linalg.norm(h @ vec - energy * vec) <= 1e-12 * dicke._row_sum_norm(h)

    def test_dimension_refused_before_allocating(self):
        p = params(n_atoms=500, fom=1.3, rwa=True, n_max=499)
        assert p.dimension > dicke.DEFAULT_DIMENSION_CAP
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError, match="exceeds cap"):
                ground_state_sectored(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestObservables:
    def test_decoupled_values(self):
        p = DickeParams(n_atoms=6, omega=1.0, omega_a=1.0, g_collective=0.0, n_max=8)
        energy, vec, near = ground_state_sectored(p)
        report = observables(vec, p, energy=energy, near_degenerate=near)
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
        template = DickeParams(n_atoms=12, omega=1.0, omega_a=1.0, g_collective=0.0)
        grid = [row.fom for row in rows]
        parallel = scan_coupling(template, grid, max_workers=4)
        assert parallel == rows

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
        tried = [dicke.FOCK_SCHEDULE_START]
        while tried[-1] < 2 * row.n_max:
            tried.append(2 * tried[-1])
        assert len(tried) > 2
        assert built == tried
        assert len(solved) == 2 * len(built)
        assert [a + b for a, b in zip(solved[::2], solved[1::2])] == [(n + 1) * (template.n_atoms + 1) for n in tried]

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
