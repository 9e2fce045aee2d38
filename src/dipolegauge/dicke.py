"""Collective two-level ensemble coupled to one mode: build, solve, scan.

The Hamiltonian lives on the product of a truncated Fock space (photon
index major) and the maximal collective-spin sector of N two-level atoms,

    H = omega a'a + omega_A S_z + (g/sqrt(N)) (a + a') S_x

with hbar = 1 (energies in rad/s), or the number-conserving variant
(g/sqrt(N)) (a S+ + a' S-) when rwa is set.  g is the collective coupling:
the figure of merit g^2/(omega omega_A) equals 1 at the critical point.

Ground states are computed per block of a conserved quantity, each
diagonal in this basis, so the returned state is supported on one block.

- Dicke coupling: the parity (-1)^(a'a + S_z + N/2).  Each parity block is
  a row slice of build_hamiltonian's matrix with its column indices halved,
  solved by ground_state (ARPACK).  That keeps <a + a'> exactly zero and
  resolves the near-degenerate doublet deep in the high-coupling phase
  deterministically.  These blocks stay on ARPACK: a dense solve would
  change the last bits of every row.
- rwa: the excitation number k = a'a + S_z + N/2, which refines parity
  ((-1)^k).  Block k holds at most min(N, n_max) + 1 states and is
  tridiagonal, built from index arithmetic with the same float operations
  as build_hamiltonian.  One pass over the basis states gives each block's
  Gershgorin lower bound, the least diagonal entry minus the |couplings|
  of its row.  Blocks are solved in ascending order of bound, padded to a
  common size and stacked, at most _BATCH_FLOATS entries to a stack, one
  np.linalg.eigvalsh a stack; once a bound exceeds the lowest energy
  found by more than the tie window plus a stated rounding allowance, the
  remaining blocks are skipped, since none of them can be the lowest or
  tie with it.  The eigenvector comes from np.linalg.eigh of the one
  block chosen.  Blocks whose lowest energy lies within
  NEAR_DEGENERACY_FACTOR times the max-row-sum norm of the lowest are
  tied; the tie goes to the largest k, the state a scan enters as the
  coupling grows, and marks the solve near-degenerate.  A block's
  energies do not depend on its stack, so skipping changes no reported
  bit against solving every block.

scipy is imported only inside build_hamiltonian, sector_hamiltonians and
ground_state, so importing this module and rwa scans load numpy alone.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .constants import _require

if TYPE_CHECKING:
    import scipy.sparse as sparse

DEFAULT_DIMENSION_CAP = 250_000
FOCK_SCHEDULE_START = 8
FOCK_SCHEDULE_CAP = 512
FRACTION_TOL = 1e-4
TOP_POPULATION_TOL = 1e-8
NEAR_DEGENERACY_FACTOR = 1e-8
RESIDUAL_TOL = 1e-10  # eigensolver residual relative to the max-row-sum norm
# Entries of one padded batch of excitation blocks (32 MiB of float64): at
# the dimension cap, N = n_max = 499, all 999 blocks padded to 500 states
# would take 2 GB.
_BATCH_FLOATS = 1 << 22


class SolverConvergenceError(RuntimeError):
    """Eigensolver failed to reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class FockTruncationError(RuntimeError):
    """No truncation in the schedule met the convergence criteria."""


class DimensionError(ValueError):
    """Requested matrix exceeds DEFAULT_DIMENSION_CAP."""


def _require_count(name: str, value) -> int:
    """value as an int of at least 1; Python and numpy integers pass, floats do not."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {count}")
    return count


def _require_dimension(p: "DickeParams") -> None:
    if p.dimension > DEFAULT_DIMENSION_CAP:
        raise DimensionError(f"dimension {p.dimension} exceeds cap {DEFAULT_DIMENSION_CAP}")


@dataclass(frozen=True)
class DickeParams:
    """Model parameters; g_collective enters as g/sqrt(N) with collective spins."""

    n_atoms: int
    omega: float  # mode frequency (rad/s)
    omega_a: float  # atomic frequency (rad/s)
    g_collective: float  # collective coupling (rad/s)
    rwa: bool = False  # number-conserving coupling when True
    n_max: int = FOCK_SCHEDULE_START  # Fock truncation (highest photon number kept)

    def __post_init__(self):
        _require_count("atom count", self.n_atoms)
        _require("omega", self.omega, "frequency")
        _require("omega_a", self.omega_a, "frequency")
        _require("g_collective", self.g_collective, "coupling")
        _require_count("Fock truncation", self.n_max)

    @classmethod
    def from_figure_of_merit(
        cls,
        n_atoms: int,
        fom: float,
        omega: float,
        omega_a: float,
        rwa: bool = False,
        n_max: int = FOCK_SCHEDULE_START,
    ) -> "DickeParams":
        """Parametrize by the figure of merit: g = sqrt(F omega omega_A)."""
        fom = _require("fom", fom, "figure of merit")
        omega = _require("omega", omega, "frequency")
        omega_a = _require("omega_a", omega_a, "frequency")
        return cls(
            n_atoms=n_atoms,
            omega=omega,
            omega_a=omega_a,
            g_collective=math.sqrt(fom * omega * omega_a),
            rwa=rwa,
            n_max=n_max,
        )

    @property
    def figure_of_merit(self) -> float:
        return self.g_collective**2 / (self.omega * self.omega_a)

    @property
    def dimension(self) -> int:
        return (self.n_max + 1) * (self.n_atoms + 1)


@dataclass(frozen=True)
class GroundStateReport:
    """Ground-state observables used as criticality evidence."""

    energy: float  # rad/s
    photon_fraction: float  # <a'a>/N
    inversion: float  # <S_z>/N
    sx2_fraction: float  # <S_x^2>/N^2
    parity_expectation: float
    top_fock_population: float  # weight in the highest kept Fock layer
    converged_n_max: int
    near_degenerate: bool = False


@dataclass(frozen=True)
class ScanRow:
    """One row of a coupling scan; numeric fields are None on solver failure."""

    fom: float
    n_atoms: int
    n_max: int | None = None
    energy: float | None = None
    photon_fraction: float | None = None
    inversion: float | None = None
    sx2_fraction: float | None = None
    parity: float | None = None
    error: str | None = None


# Basis states (n + dn, j + dj) that H couples |n, j> to, in ascending
# column order; (0, 0) is the diagonal.  S_x moves the spin either way, the
# number-conserving coupling only against the photon step.
_STEPS = ((-1, -1), (-1, 1), (0, 0), (1, -1), (1, 1))
_STEPS_RWA = ((-1, 1), (0, 0), (1, -1))


def _matrix_elements(p: DickeParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """m, ladder, spin and scale, the factors of every matrix element.

    m[j] is the S_z eigenvalue of spin index j, ladder[n] = <n| a |n+1>,
    spin[j] the S_x element <j+1| S_x |j> (half the S+ one) or, under rwa,
    the S+ element, and scale = g/sqrt(N).
    """
    s = p.n_atoms / 2.0
    m = np.arange(p.n_atoms + 1) - s
    raising = np.sqrt(s * (s + 1.0) - m[:-1] * (m[:-1] + 1.0))  # <m+1| S+ |m>
    spin = raising if p.rwa else 0.5 * raising
    ladder = np.sqrt(np.arange(1, p.n_max + 1, dtype=float))  # <n-1| a |n>
    return m, ladder, spin, p.g_collective / math.sqrt(p.n_atoms)


def _row_entries(p: DickeParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns, values and presence of every stored entry, each (dimension, steps).

    Row n (N+1) + j lists its entries in ascending column order, so dropping
    the absent ones (off the lattice, or exactly zero) leaves sorted CSR rows.
    Values repeat the Kronecker assembly's float operations: omega n + omega_A m
    on the diagonal, (g/sqrt(N)) (sqrt(n) e) off it, with e the S_x element
    (half the S+ one) or, under rwa, the S+ element.  Symmetric pairs take
    the same float values, so H equals its transpose exactly.
    """
    _require_dimension(p)
    n_ph = p.n_max + 1
    n_sp = p.n_atoms + 1
    m, ladder, spin, scale = _matrix_elements(p)
    n = np.arange(n_ph)[:, None]
    j = np.arange(n_sp)[None, :]

    steps = _STEPS_RWA if p.rwa else _STEPS
    columns = np.empty((n_ph, n_sp, len(steps)), dtype=np.intp)
    values = np.empty(columns.shape)
    present = np.empty(columns.shape, dtype=bool)
    for k, (dn, dj) in enumerate(steps):
        columns[..., k] = (n + dn) * n_sp + (j + dj)
        if dn == 0:
            values[..., k] = p.omega * n + p.omega_a * m
            present[..., k] = True
        else:
            # the lower index of each pair picks its element: ladder[n_low], spin[j_low]
            photon, spin_pair = n + min(dn, 0), j + min(dj, 0)
            present[..., k] = (photon >= 0) & (photon < n_ph - 1) & (spin_pair >= 0) & (spin_pair < n_sp - 1)
            values[..., k] = scale * (
                ladder[np.clip(photon, 0, n_ph - 2)] * spin[np.clip(spin_pair, 0, n_sp - 2)]
            )
    present &= values != 0.0
    dim = p.dimension
    return columns.reshape(dim, -1), values.reshape(dim, -1), present.reshape(dim, -1)


def build_hamiltonian(p: DickeParams) -> sparse.csr_matrix:
    """Sparse symmetric Hamiltonian on |n> (x) |N/2, m>, photon index major."""
    import scipy.sparse as sparse

    columns, values, present = _row_entries(p)
    indptr = np.concatenate(([0], np.cumsum(present.sum(axis=1))))
    return sparse.csr_matrix((values[present], columns[present], indptr), shape=(p.dimension, p.dimension))


def sector_hamiltonians(p: DickeParams) -> list[tuple[np.ndarray, sparse.csr_matrix]]:
    """Parity blocks of the Hamiltonian, even parity first.

    Each item is (idx, block) with idx the ascending basis indices of the
    sector and block equal to build_hamiltonian(p)[idx][:, idx].  The block
    is the row slice h[idx] with every column index g replaced by g // 2:
    the coupling changes n + j by 0 or +/-2, so each row's entries stay in
    its own sector, and each index pair (2k, 2k+1) of the photon-major basis
    holds one state of each parity whatever the parity of N + 1, so a
    state's place in its sector is g // 2.
    """
    import scipy.sparse as sparse

    h = build_hamiltonian(p)
    parity = parity_diagonal(p)
    blocks = []
    for sign in (1.0, -1.0):
        idx = np.flatnonzero(parity == sign)
        starts, counts = h.indptr[idx], np.diff(h.indptr)[idx]
        indptr = np.concatenate(([0], np.cumsum(counts)))
        # storage position of each kept entry: its row's start plus its place in the row
        taken = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        block = sparse.csr_matrix((h.data[taken], h.indices[taken] // 2, indptr), shape=(idx.size, idx.size))
        blocks.append((idx, block))
    return blocks


def _parity_signs(p: DickeParams) -> tuple[np.ndarray, np.ndarray]:
    """(-1)^n over photon numbers n and (-1)^j over spin indices j = S_z + N/2."""
    ph = 1.0 - 2.0 * (np.arange(p.n_max + 1) % 2)
    sp = 1.0 - 2.0 * (np.arange(p.n_atoms + 1) % 2)
    return ph, sp


def parity_diagonal(p: DickeParams) -> np.ndarray:
    """Diagonal of (-1)^(a'a + S_z + N/2): +/-1 per basis state."""
    return np.kron(*_parity_signs(p))


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    pivot = int(np.argmax(np.abs(vec)))
    return -vec if vec[pivot] < 0.0 else vec


def _row_sum_norm(h: sparse.csr_matrix) -> float:
    """Max-row-sum norm, or 1 for the zero matrix.

    Adds each nonempty row's |entries| in storage order, as
    np.abs(h).sum(axis=1) does, without building the absolute-value matrix.
    """
    starts = h.indptr[:-1][np.diff(h.indptr) > 0]
    if starts.size == 0:
        return 1.0
    return float(np.add.reduceat(np.abs(h.data), starts).max()) or 1.0


def ground_state(h, tol: float = RESIDUAL_TOL) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a real symmetric matrix.

    Iterative Lanczos (ARPACK) with a fixed seeded pseudorandom start
    vector, so repeated runs return the same vector and no sign structure
    of the ground state can leave the start vector orthogonal to it;
    blocks smaller than 8 are diagonalized densely.  The residual
    ||Hv - Ev|| is checked against tol times the max-row-sum norm of H.
    """
    import scipy.sparse as sparse
    import scipy.sparse.linalg as splinalg

    tol = _require("tol", tol, "tolerance")
    if not isinstance(h, sparse.csr_matrix):
        h = sparse.csr_matrix(h)
    dim = h.shape[0]
    if dim < 8:
        values, vectors = np.linalg.eigh(h.toarray())
        return float(values[0]), _fix_sign(vectors[:, 0])
    v0 = np.random.default_rng(902).standard_normal(dim)
    v0 /= np.linalg.norm(v0)
    # ARPACK calls the matvec about a hundred times per solve; the CSR
    # product itself skips the matmat dispatch chain eigsh wraps a matrix in
    operator = splinalg.LinearOperator(h.shape, matvec=h.dot, dtype=h.dtype)
    values, vectors = splinalg.eigsh(operator, k=1, which="SA", v0=v0, tol=0)
    energy = float(values[0])
    vec = vectors[:, 0]
    residual = float(np.linalg.norm(h @ vec - energy * vec))
    if residual > tol * _row_sum_norm(h):
        raise SolverConvergenceError("ground-state solve did not converge", residual)
    return energy, _fix_sign(vec / np.linalg.norm(vec))


def _block_entries(p: DickeParams, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sizes of excitation blocks ks, and the diagonal, coupling and radius of their states.

    Block k holds the states n = max(0, k - N) ... min(k, n_max), j = k - n,
    in ascending basis order; the per-state arrays list the blocks one after
    another.  coupling[i] joins state i to i + 1, (n + 1, j - 1), through
    ladder[n] spin[j - 1], and is 0 at the last state of a block, so the
    Gershgorin radius |coupling[i - 1]| + |coupling[i]| stays in the block.
    Values repeat build_hamiltonian's float operations.
    """
    m, ladder, spin, scale = _matrix_elements(p)
    first = np.maximum(ks - p.n_atoms, 0)
    last = np.minimum(ks, p.n_max)
    sizes = last - first + 1
    n = np.arange(sizes.sum()) + np.repeat(first - np.cumsum(sizes) + sizes, sizes)
    j = np.repeat(ks, sizes) - n
    diagonal = p.omega * n + p.omega_a * m[j]
    pair = n < np.repeat(last, sizes)
    coupling = np.zeros(n.size)
    coupling[pair] = scale * (ladder[n[pair]] * spin[j[pair] - 1])
    radius = np.abs(coupling)
    radius[1:] += np.abs(coupling[:-1])
    return sizes, diagonal, coupling, radius


def _excitation_batch(p: DickeParams, ks: np.ndarray) -> tuple[np.ndarray, float]:
    """Excitation blocks ks of the number-conserving Hamiltonian, padded and stacked.

    batch[c] holds block ks[c] (see _block_entries) in its top-left corner,
    equal to build_hamiltonian(p)[idx][:, idx] for the block's basis indices
    idx, and on the rest of its diagonal the largest Gershgorin upper bound
    of the batch, which no eigenvalue of any of its blocks exceeds.  Also
    returns the largest row sum of |entries| over the blocks.
    """
    sizes, diagonal, coupling, radius = _block_entries(p, ks)
    block = np.repeat(np.arange(ks.size), sizes)
    t = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # place in its block
    size = int(sizes.max())
    batch = np.zeros((ks.size, size, size))
    batch[:, np.arange(size), np.arange(size)] = (diagonal + radius).max()
    batch[block, t, t] = diagonal
    pair = t < size - 1  # the last state of a block has no coupling, so none is lost
    block, t = block[pair], t[pair]
    batch[block, t, t + 1] = batch[block, t + 1, t] = coupling[pair]
    return batch, float((np.abs(diagonal) + radius).max())


def _excitation_bounds(p: DickeParams) -> tuple[np.ndarray, float, float]:
    """Gershgorin lower bound of each excitation block, the tie window and the skip allowance.

    bounds[k] is the least, over the states of block k, of the diagonal
    entry minus the |couplings| of its row; no eigenvalue of the block lies
    below it (Golub & Van Loan, Matrix Computations, section 7.2).  The
    window is NEAR_DEGENERACY_FACTOR times norm, the max-row-sum norm of the
    whole matrix, which is the largest row sum over the blocks.

    The allowance, (L + 2) eps norm for blocks of at most L states (eps =
    2u = 2^-52), bounds to first order in u the roundings that separate a
    computed bound from the computed lowest energy of its block, and those
    of the skip test best + window + allowance:
    - the bound d - (|c| + |c'|) rounds twice, by at most 2u times its row
      sum: eps norm;
    - np.linalg.eigvalsh (LAPACK dsyevd: its Householder stage applies no
      reflection to a tridiagonal block, then dsterf's QL/QR) returns the
      eigenvalues of the block T plus some E, ||E||_2 <= p(L) u ||T||_2,
      with p a modestly growing function of the order (LAPACK Users'
      Guide, 3rd ed., section 4.7, whose own estimates take p = 1); with
      p(L) = 2L and ||T||_2 <= norm this is L eps norm;
    - the skip test rounds twice, by at most 2u (|best| + window +
      allowance), and no energy exceeds norm in size: eps norm.
    So a block whose bound exceeds the computed threshold has a computed
    lowest energy of at least best + window.

    The bound pass holds a few arrays of one entry per basis state, freed
    on return.
    """
    sizes, diagonal, _, radius = _block_entries(p, np.arange(p.n_max + p.n_atoms + 1))
    bounds = np.minimum.reduceat(diagonal - radius, np.cumsum(sizes) - sizes)
    norm = float((np.abs(diagonal) + radius).max())
    allowance = (int(sizes.max()) + 2) * np.finfo(float).eps * norm
    return bounds, NEAR_DEGENERACY_FACTOR * norm, allowance


def _excitation_ground(p: DickeParams) -> tuple[float, np.ndarray, bool]:
    """ground_state_sectored under rwa: lowest energy over the excitation blocks.

    Solves the blocks in ascending order of their Gershgorin bounds (see
    _excitation_bounds): the lowest alone, so that an energy is known, then
    the rest in stacks of at most _BATCH_FLOATS padded entries, one
    np.linalg.eigvalsh a stack.  A block whose bound exceeds the lowest
    energy found so far by more than the tie window plus the allowance is
    skipped, and with it every later one: its lowest energy lies at least
    a window above the final minimum, so it can neither be the minimum nor
    tie with it.  eigvalsh splits a padded stack at its zero couplings, so
    a block's energies do not depend on the stack it is solved in.  The
    minimum, the tie set and so the chosen k and the flag are those of
    solving every block, and the reported state comes from
    np.linalg.eigh of the chosen block alone, bit for bit the same.
    """
    _require_dimension(p)
    bounds, window, allowance = _excitation_bounds(p)
    order = np.argsort(bounds, kind="stable")
    per_batch = max(1, _BATCH_FLOATS // (min(p.n_atoms, p.n_max) + 1) ** 2)
    solved, lowest = [], []
    best, done, take = math.inf, 0, 1
    while done < order.size:
        ks = order[done : done + take]
        ks = ks[bounds[ks] <= best + window + allowance]  # a prefix: the bounds ascend
        if ks.size == 0:
            break
        batch, _ = _excitation_batch(p, ks)
        solved.append(ks)
        lowest.append(np.linalg.eigvalsh(batch)[:, 0])
        del batch  # else it lives on while the next one is built
        best = min(best, float(lowest[-1].min()))
        done += ks.size
        take = per_batch
    solved, lowest = np.concatenate(solved), np.concatenate(lowest)
    tied = solved[lowest - lowest.min() < window]
    k = int(tied.max())
    (block,), _ = _excitation_batch(p, np.array([k]))
    values, vectors = np.linalg.eigh(block)
    first = max(0, k - p.n_atoms)
    full = np.zeros(p.dimension)
    # (n, k - n) sits at n (N + 1) + k - n
    full[np.arange(first, first + block.shape[0]) * p.n_atoms + k] = _fix_sign(vectors[:, 0])
    return float(values[0]), full, tied.size > 1


def ground_state_sectored(p: DickeParams) -> tuple[float, np.ndarray, bool]:
    """Ground state resolved per block of a conserved quantity.

    Dicke coupling: solves each parity sector separately and returns the
    lower one (ties go to even parity), together with a flag marking a
    near-degenerate doublet (sector gap below 1e-8 of the matrix norm
    scale).  rwa: returns the lowest excitation block k, ties within the
    same scale going to the largest k and setting the flag.  Blocks are
    solved in ascending order of their Gershgorin lower bounds, and those
    whose bound exceeds the lowest energy found by more than that scale
    plus a rounding allowance are skipped: they can be neither the lowest
    nor tied with it, so every returned bit equals solving all blocks.
    The returned vector is supported on a single block, so parity is
    exact.
    """
    if p.rwa:
        return _excitation_ground(p)
    sectors = sector_hamiltonians(p)
    # every row of H lies in one sector, so this is the norm of the whole matrix
    scale = max(_row_sum_norm(block) for _, block in sectors)
    results = [(*ground_state(block), idx) for idx, block in sectors]
    (even_energy, *_), (odd_energy, *_) = results
    near_degenerate = abs(even_energy - odd_energy) < NEAR_DEGENERACY_FACTOR * scale
    energy, vec, idx = min(results, key=lambda item: item[0])
    full = np.zeros(p.dimension)
    full[idx] = vec
    return energy, full, near_degenerate


def observables(state: np.ndarray, p: DickeParams, energy: float, near_degenerate: bool = False) -> GroundStateReport:
    """Expectation values of a normalized state in the product basis.

    energy is the eigenvalue that came with the state and is reported as
    given; it must be finite.
    """
    energy = _require("energy", energy, "energy")
    vec = np.asarray(state, dtype=float)
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state is not normalized: |v| = {norm}")
    psi = vec.reshape(p.n_max + 1, p.n_atoms + 1)
    photon_weights = (psi**2).sum(axis=1)
    spin_weights = (psi**2).sum(axis=0)
    n_values = np.arange(p.n_max + 1, dtype=float)
    m_values, _, spin, _ = _matrix_elements(p)
    upper = np.diag(0.5 * spin if p.rwa else spin, 1)  # under rwa spin holds the S+ elements
    sx = upper + upper.T
    sx2 = sx @ sx
    ph, sp = _parity_signs(p)
    parity = float((ph @ (psi**2)) @ sp)
    # rounding can push a sector-supported state's parity past +/-1 by ~1 ulp
    parity = float(np.clip(parity, -1.0, 1.0))
    return GroundStateReport(
        energy=energy,
        photon_fraction=float(n_values @ photon_weights) / p.n_atoms,
        inversion=float(m_values @ spin_weights) / p.n_atoms,
        sx2_fraction=float(np.einsum("nj,jk,nk->", psi, sx2, psi)) / p.n_atoms**2,
        parity_expectation=parity,
        top_fock_population=float(photon_weights[-1]),
        converged_n_max=p.n_max,
        near_degenerate=near_degenerate,
    )


def meanfield_order_parameter(fom: float, omega: float, omega_a: float) -> float:
    """Photon fraction of the variational product ansatz in the large-N limit.

    Minimizing omega x^2 + (omega_A/2) cos(t) + g x sin(t) over the mode
    amplitude x (per sqrt(N)) and spin angle t gives 0 up to the critical
    point and (F omega_A / 4 omega)(1 - 1/F^2) beyond it.
    """
    fom = _require("fom", fom, "figure of merit")
    omega = _require("omega", omega, "frequency")
    omega_a = _require("omega_a", omega_a, "frequency")
    if fom <= 1.0:
        return 0.0
    return fom * omega_a / (4.0 * omega) * (1.0 - 1.0 / fom**2)


def _converged_ground(p: DickeParams) -> GroundStateReport:
    """Walk a doubling Fock schedule until the photon fraction settles.

    Starting at FOCK_SCHEDULE_START, accepts the smallest truncation whose
    top-layer weight is below TOP_POPULATION_TOL and whose photon fraction
    moves by less than FRACTION_TOL when the truncation is doubled; gives
    up past FOCK_SCHEDULE_CAP.
    """
    previous: GroundStateReport | None = None
    n_max = FOCK_SCHEDULE_START
    while n_max <= FOCK_SCHEDULE_CAP:
        candidate = replace(p, n_max=n_max)
        energy, vec, near = ground_state_sectored(candidate)
        report = observables(vec, candidate, energy, near_degenerate=near)
        if (
            previous is not None
            and previous.top_fock_population < TOP_POPULATION_TOL
            and abs(report.photon_fraction - previous.photon_fraction) < FRACTION_TOL
        ):
            return previous
        previous = report
        n_max *= 2
    raise FockTruncationError(
        f"no Fock truncation up to {FOCK_SCHEDULE_CAP} met the convergence criteria "
        f"(fom {p.figure_of_merit:.3g}, N {p.n_atoms})"
    )


def _scan_one(template: DickeParams, fom: float) -> ScanRow:
    try:
        p = DickeParams.from_figure_of_merit(
            n_atoms=template.n_atoms,
            fom=fom,
            omega=template.omega,
            omega_a=template.omega_a,
            rwa=template.rwa,
        )
        report = _converged_ground(p)
    except (SolverConvergenceError, FockTruncationError, DimensionError) as exc:
        return ScanRow(fom=fom, n_atoms=template.n_atoms, error=str(exc))
    return ScanRow(
        fom=fom,
        n_atoms=template.n_atoms,
        n_max=report.converged_n_max,
        energy=report.energy,
        photon_fraction=report.photon_fraction,
        inversion=report.inversion,
        sx2_fraction=report.sx2_fraction,
        parity=report.parity_expectation,
    )


def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS mapped into this process.

    numpy's and scipy's wheels bundle OpenBLAS under hashed file names, so
    the libraries are found among the mapped files; scipy's exports
    scipy_openblas_{get,set}_num_threads, numpy's the same with a 64_ suffix.
    Not cached: scipy's library maps only when the Dicke solve first imports
    scipy, after an RWA scan may already have looked (under 1 ms a lookup).
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            # a line naming a file ends in its path, the sixth field
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line.lower()})
    except OSError:  # no procfs: leave the thread counts alone
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # already mapped, so this only returns its handle
        except OSError:
            continue
        for suffix in ("", "64_"):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread, then restore the counts.

    A scan's matrices are far too small for threaded BLAS: its threads only
    spin beside each solve, and forked workers would each start their own.
    """
    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(1)
        yield
    finally:
        for (_, set_), count in zip(controls, saved):
            set_(count)


def scan_coupling(template: DickeParams, fom_grid, max_workers: int = 1) -> list[ScanRow]:
    """Converged ground-state observables over a figure-of-merit grid.

    Rows are ordered by the figure of merit; each grid point converges its
    own Fock truncation, so rows are independent and may run in parallel
    (assembly order is fixed by the grid, not by completion).  At most
    min(max_workers, grid points, CPUs) worker processes start, forked so
    that they inherit the loaded modules; where fork is unavailable the
    grid runs serially.  Every scan runs with loaded OpenBLAS libraries
    set to one thread, restored afterwards, and the workers inherit that
    setting.  A worker that dies raises BrokenProcessPool.
    """
    max_workers = _require_count("worker count", max_workers)
    grid = sorted(_require("fom grid value", f, "figure of merit") for f in fom_grid)
    workers = min(max_workers, len(grid), os.cpu_count() or 1)
    if not template.rwa:
        # ARPACK's solver maps scipy's OpenBLAS; load it before the budget looks for libraries
        import scipy.sparse.linalg  # noqa: F401
    with _one_blas_thread():
        if workers > 1:
            import multiprocessing

            if "fork" in multiprocessing.get_all_start_methods():
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork")) as pool:
                    # neighbouring points in pairs: half the round trips, and
                    # the costly high-F end of the grid still splits between workers
                    return list(pool.map(functools.partial(_scan_one, template), grid, chunksize=2))
        return [_scan_one(template, f) for f in grid]


def crossing_estimate(rows: list[ScanRow], threshold: float = 0.05) -> float | None:
    """Figure of merit at which the photon fraction first exceeds threshold.

    Linear interpolation between the bracketing grid points; None when the
    scan never crosses.
    """
    threshold = _require("threshold", threshold, "threshold")
    previous = None
    for row in rows:
        if row.photon_fraction is None:
            continue
        if row.photon_fraction > threshold:
            if previous is None:
                return row.fom
            f0, y0 = previous
            return f0 + (row.fom - f0) * (threshold - y0) / (row.photon_fraction - y0)
        previous = (row.fom, row.photon_fraction)
    return None
