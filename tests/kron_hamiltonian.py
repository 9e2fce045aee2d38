"""Dicke-model oracles: the Kronecker-product Hamiltonian and two symmetry operators.

dipolegauge.dicke generates the matrix entries of each parity block from
index arithmetic; this module assembles the whole matrix from the photon
and spin operators with sparse Kronecker products and sparse sums, so the
two share nothing but the model.  The sums drop every entry that adds up to
zero (on resonance omega n + omega_A m vanishes at n = -m; at g = 0 every
coupling does), which the direct build must reproduce.

excitation_diagonal and mode_displacement check the number conservation
of the rotating-wave coupling and the vanishing <a + a'> of parity-definite
ground states.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sparse

from dipolegauge.dicke import DickeParams


def _spin_x(n_atoms: int) -> np.ndarray:
    """Dense collective S_x on the spin-N/2 ladder, m ascending."""
    s = n_atoms / 2.0
    m = np.arange(n_atoms + 1) - s
    raising = 0.5 * np.sqrt(s * (s + 1.0) - m[:-1] * (m[:-1] + 1.0))
    sx = np.zeros((n_atoms + 1, n_atoms + 1))
    idx = np.arange(n_atoms)
    sx[idx + 1, idx] = raising
    sx[idx, idx + 1] = raising
    return sx


def kron_hamiltonian(p: DickeParams) -> sparse.csr_matrix:
    """H = omega a'a + omega_A S_z + (g/sqrt(N)) coupling on |n> (x) |N/2, m>, photon index major."""
    n_ph = p.n_max + 1
    n_sp = p.n_atoms + 1
    s = p.n_atoms / 2.0
    m = np.arange(n_sp) - s

    photon_number = sparse.diags(np.arange(n_ph, dtype=float))
    spin_z = sparse.diags(m)
    identity_ph = sparse.identity(n_ph)
    identity_sp = sparse.identity(n_sp)

    h = p.omega * sparse.kron(photon_number, identity_sp) + p.omega_a * sparse.kron(identity_ph, spin_z)

    scale = p.g_collective / math.sqrt(p.n_atoms)
    if p.rwa:
        # a (x) S+ plus its transpose (= a' (x) S-)
        annihilate = sparse.diags(np.sqrt(np.arange(1, n_ph, dtype=float)), offsets=1)
        raising = sparse.diags(
            np.sqrt(s * (s + 1.0) - m[:-1] * (m[:-1] + 1.0)), offsets=-1, shape=(n_sp, n_sp)
        )
        half = sparse.kron(annihilate, raising)
        h = h + scale * (half + half.T)
    else:
        ladder = np.sqrt(np.arange(1, n_ph, dtype=float))
        x_op = sparse.diags([ladder, ladder], offsets=[1, -1])
        h = h + scale * sparse.kron(x_op, sparse.csr_matrix(_spin_x(p.n_atoms)))
    h = sparse.csr_matrix(h)
    # kron returns BSR when its second factor is at least half full (the
    # 2 x 2 spin operators of N = 1); the dense blocks store zeros, which
    # the sums keep.  A stored zero adds nothing to any product.
    h.eliminate_zeros()
    return h


def excitation_diagonal(p: DickeParams) -> np.ndarray:
    """Diagonal of a'a + S_z + N/2 (integers; conserved under rwa)."""
    ph = np.arange(p.n_max + 1, dtype=float)
    sp = np.arange(p.n_atoms + 1, dtype=float)
    return (ph[:, None] + sp[None, :]).ravel()


def mode_displacement(state: np.ndarray, p: DickeParams) -> float:
    """<a + a'> of a state (vanishes for parity-definite states)."""
    psi = np.asarray(state, dtype=float).reshape(p.n_max + 1, p.n_atoms + 1)
    ladder = np.sqrt(np.arange(1, p.n_max + 1, dtype=float))
    shifted = psi[1:] * ladder[:, None]
    return 2.0 * float(np.sum(psi[:-1] * shifted))
