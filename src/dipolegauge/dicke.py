"""Collective two-level ensemble coupled to one mode: build, solve, scan.

The Hamiltonian lives on the product of a truncated Fock space (photon
index major) and the maximal collective-spin sector of N two-level atoms,

    H = omega a'a + omega_A S_z + (g/sqrt(N)) (a + a') S_x

with hbar = 1 (energies in rad/s), or the number-conserving variant
(g/sqrt(N)) (a S+ + a' S-) when rwa is set.  g is the collective coupling:
the figure of merit g^2/(omega omega_A) equals 1 at the critical point.

Ground states are computed per block of a conserved quantity, each
diagonal in this basis; every solve returns one record, _Ground, of the
state on its block's basis indices, which report lays out for observables.

- Dicke coupling: the parity (-1)^(a'a + S_z + N/2).  Each parity block is
  a row slice of build_hamiltonian's matrix with its column indices halved,
  solved by ground_state (ARPACK).  That keeps <a + a'> exactly zero and
  resolves the near-degenerate doublet deep in the high-coupling phase
  deterministically.  Every truncation whose bits a row may report stays
  on ARPACK: a dense solve would change the last bits of every row.  The
  even sector is always solved; the odd one only when a banded Cholesky
  certificate (_certifies) cannot show its lowest level above the even
  energy by the near-degeneracy window plus ARPACK's residual allowance,
  which would fix the solve's outcome without it (_parity_solve).  The
  doubled truncation that only tests the walk's candidate is refined
  instead, by banded inverse iteration from the candidate's sectors and
  the same certificate (_refine, _refinement_accepts), and goes to ARPACK
  when that does not show the candidate accepted.  The walk starts at
  p.n_max, in a scan the truncation the row before reported: it solves
  that one first and shows each smaller one unsettled, its top photon
  layer holding at least TOP_POPULATION_TOL of the weight, without ARPACK
  (_unsettled_bound, _shown_unsettled): below the start, ARPACK solves
  only the truncations not shown.  Past _band's limits (N above 128, or
  a band too large for _BATCH_FLOATS) nothing is certified or refined,
  and both sectors of every truncation go to ARPACK.
- rwa: the excitation number k = a'a + S_z + N/2, which refines parity
  ((-1)^k).  Block k holds at most min(N, n_max) + 1 states and is
  tridiagonal: its rows of _row_entries, gathered once per solve into
  per-state diagonal, coupling and Gershgorin radius arrays that every
  stack and the chosen block slice.  A scan row makes one solve, at an
  n_max of K or more, where the blocks k <= K are untruncated; only the
  Dicke coupling walks a schedule of truncations.  One rule, decided
  before any solve, fixes the blocks it solves: an operator inequality
  and the mean-field energy give K and a threshold T (_excitation_reach),
  and of the blocks k <= K every one whose Gershgorin lower bound is at
  most T is solved, in ascending k, padded to a common size and stacked,
  at most _BATCH_FLOATS entries to a stack, one np.linalg.eigvalsh a
  stack; the rest cannot hold the minimum or tie with it.  The
  eigenvector comes from np.linalg.eigh of the one block chosen.  Blocks
  whose lowest energy lies within NEAR_DEGENERACY_FACTOR times the
  max-row-sum norm of the lowest are tied; the tie goes to the largest k,
  the state a scan enters as the coupling grows, and marks the solve
  near-degenerate.  The tie window is taken at the solve's n_max, not at
  the n_max the row reports, which is the walk's label for the chosen
  block: the dimension cap bounds the lattice that is built and solved,
  never the label.

scipy is imported only inside build_hamiltonian, sector_hamiltonians,
ground_state, _certifies, _refine, _unsettled_bound and, for the Dicke coupling,
scan_coupling, so importing this module and rwa scans load numpy alone.
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
_REFINE_MAX_BAND = 65  # widest half-bandwidth refined or certified (N <= 128): past it the banded LU outgrows ARPACK
# Inverse-iteration steps before a truncation is shown unsettled: on the acceptance
# grid 1 and 2 steps leave 13 and 5 of its 134 unsettled truncations unshown, 3 none.
_UNSETTLED_STEPS = 3
# No dense array allocated for a solve or a report exceeds this many floats
# (32 MiB): a stack of padded excitation blocks (all 999 at N = n_max = 499
# would take 2 GB), _refine's band and LU arrays together, a spin matrix.
_BATCH_FLOATS = 1 << 22


class SolverConvergenceError(RuntimeError):
    """Eigensolver failed to reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class FockTruncationError(RuntimeError):
    """No truncation in the schedule met the convergence criteria."""


class DimensionError(ValueError):
    """A basis past DEFAULT_DIMENSION_CAP states, or an unsplittable dense array past _BATCH_FLOATS floats."""


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


def _require_spin_matrices(p: "DickeParams") -> None:
    """observables builds three dense (N+1) x (N+1) spin matrices: at most _BATCH_FLOATS entries each."""
    if (p.n_atoms + 1) ** 2 > _BATCH_FLOATS:
        raise DimensionError(f"spin matrix size {(p.n_atoms + 1) ** 2} exceeds cap {_BATCH_FLOATS}")


@dataclass(frozen=True)
class DickeParams:
    """Model parameters; g_collective enters as g/sqrt(N) with collective spins."""

    n_atoms: int
    omega: float  # mode frequency (rad/s)
    omega_a: float  # atomic frequency (rad/s)
    g_collective: float  # collective coupling (rad/s)
    rwa: bool = False  # number-conserving coupling when True
    # Fock truncation (highest photon number kept).  The Dicke coupling's walk
    # solves this one first (rounded down to its schedule); its rows do not depend on it.
    n_max: int = FOCK_SCHEDULE_START

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


@dataclass(frozen=True, eq=False)
class _Ground:
    """A solve's ground state: energy, support, unit amplitudes on it, near-degenerate flag.

    support: the ascending photon-major indices n (N+1) + j of one parity
    sector or excitation block, the same on any basis that holds them.
    """

    energy: float
    support: np.ndarray
    vec: np.ndarray
    near_degenerate: bool

    def report(self, p: DickeParams) -> GroundStateReport:
        """observables of the state laid out on p's basis."""
        state = np.zeros(p.dimension)
        state[self.support] = self.vec
        return observables(state, p, self.energy, near_degenerate=self.near_degenerate)


# Basis states (n + dn, j + dj) that H couples |n, j> to, in ascending
# column order; (0, 0) is the diagonal.  S_x moves the spin either way, the
# number-conserving coupling only against the photon step.
_STEPS = ((-1, -1), (-1, 1), (0, 0), (1, -1), (1, 1))
_STEPS_RWA = ((-1, 1), (0, 0), (1, -1))


def _matrix_elements(p: DickeParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """m, ladder, spin and scale, the factors of every matrix element.

    m[j] is the S_z eigenvalue of spin index j, ladder[n] = <n| a |n+1>,
    spin[j] the S+ element <j+1| S+ |j>, and scale = g/sqrt(N), halved for
    the Dicke coupling, whose S_x = (S+ + S-)/2.  The half is a power of
    two, so each product rounds as with the S_x elements.
    """
    s = p.n_atoms / 2.0
    m = np.arange(p.n_atoms + 1) - s
    spin = np.sqrt(s * (s + 1.0) - m[:-1] * (m[:-1] + 1.0))
    ladder = np.sqrt(np.arange(1, p.n_max + 1, dtype=float))  # <n-1| a |n>
    scale = p.g_collective / math.sqrt(p.n_atoms)
    return m, ladder, spin, scale if p.rwa else 0.5 * scale


def _row_entries(p: DickeParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns, values and presence of every stored entry, each (dimension, steps).

    Row n (N+1) + j lists its entries in ascending column order, so dropping
    the absent ones (off the lattice, or exactly zero) leaves sorted CSR rows.
    Values equal the Kronecker assembly's: omega n + omega_A m on the
    diagonal, scale (sqrt(n) e) off it, with e the S+ element and scale
    from _matrix_elements.  Symmetric pairs take the same float values, so
    H equals its transpose exactly.
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


def _band(block: sparse.csr_matrix) -> np.ndarray | None:
    """A symmetric block in solve_banded's layout, band[w + i - j, j] = B[i, j]; None past the limits.

    A block is banded only if its half-bandwidth w <= _REFINE_MAX_BAND,
    w = ceil(N/2) + 1 for a parity sector: each banded solve costs O(w^2)
    per state, ARPACK's matvecs O(1), and past N = 128 the refinement was
    measured slower than ARPACK at small F (1.7 times at N = 256, F = 0.5;
    at N = 499 and 944, F = 0.5, whole rows took 3.8 and 3.2 times as
    long).  The band, solve_banded's (3w + 1)-row LU array and LAPACK's
    Fortran-order copy of it take (8w + 3) D floats for D states, at most
    _BATCH_FLOATS, or None is returned before anything is allocated.
    """
    dim = block.shape[0]
    offset = np.repeat(np.arange(dim), np.diff(block.indptr)) - block.indices  # row - column
    w = int(np.abs(offset).max(initial=0))
    if w > _REFINE_MAX_BAND or (8 * w + 3) * dim > _BATCH_FLOATS:
        return None
    band = np.zeros((2 * w + 1, dim))
    band[w + offset, block.indices] = block.data
    return band


def _certifies(band: np.ndarray | None, floor: float, norm: float) -> bool:
    """Whether one banded Cholesky shows that no eigenvalue of B lies below floor; False for no band.

    band is B in _band's layout, norm its max-row-sum norm; the upper half
    of band is overwritten.  scipy.linalg.cholesky_banded factors
    B - (floor + c) I for half-bandwidth w, with c = 2 (w + 1)(2w + 1) u norm
    and u = 2^-52, twice the unit roundoff.  A factorization that runs to
    completion is exact, R'R, for a matrix within c of the one factored
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.5, with
    inner products of w + 1 terms and each entry of |R'||R| below the
    largest diagonal entry, 2 norm); R'R is positive semidefinite, so
    B - floor I is too, and no eigenvalue of B lies below floor (Golub &
    Van Loan, Matrix Computations, section 4.3).  c is under 4e-12 norm for
    every band within _band's limits.
    """
    from scipy.linalg import LinAlgError, cholesky_banded

    if band is None:
        return False
    w = band.shape[0] // 2
    upper = band[: w + 1]  # the rows i <= j: cholesky_banded's upper form
    upper[w] -= floor + 2.0 * (w + 1) * (2 * w + 1) * np.finfo(float).eps * norm
    try:
        cholesky_banded(upper, overwrite_ab=True, check_finite=False)
    except LinAlgError:
        return False
    return True


def _refine(block: sparse.csr_matrix, start: np.ndarray, shift: float) -> tuple[float, np.ndarray, float] | None:
    """Certified lowest eigenpair of a symmetric banded block, refined from a known one; None if not shown.

    Inverse iteration with the fixed shift (Parlett, The Symmetric
    Eigenvalue Problem, ch. 4), one scipy.linalg.solve_banded step at
    most: x is the unit vector start, or that step's result, whichever
    first has a Rayleigh quotient theta meeting ground_state's bound
    ||Bx - theta x|| <= eps = RESIDUAL_TOL ||B|| (max-row-sum norm); of
    1,094 refinements surveyed (N = 1-128, omega_A/omega = 0.01-100,
    F <= 10), 738 took the step and none needed a second.  The pair
    counts only if _certifies shows no eigenvalue below theta - eps, so
    theta lies within eps above the lowest eigenvalue, and an excited pair
    passes only if the two lowest eigenvalues lie within 2 eps.  A true
    lowest pair passes: its theta lies at most eps^2/(gap - eps) above the
    lowest eigenvalue (Kato-Temple), and the certificate's rounding
    allowance is far below eps.  The block is refined only within _band's
    limits.

    Returns (theta, x, eps); None when the block is not refined, the step
    falls short, the shifted matrix is exactly singular, or the
    certificate fails.
    """
    from scipy.linalg import LinAlgError, solve_banded

    band = _band(block)
    if band is None:
        return None
    norm = _row_sum_norm(block)
    bound = RESIDUAL_TOL * norm
    w = band.shape[0] // 2

    def rayleigh(x):
        bx = block @ x
        theta = float(x @ bx)
        return theta, float(np.linalg.norm(bx - theta * x))

    x = start
    theta, residual = rayleigh(x)
    if not residual <= bound:  # NaN included
        diagonal = band[w].copy()
        band[w] -= shift
        try:
            y = solve_banded((w, w), band, x, check_finite=False)
        except LinAlgError:
            return None
        band[w] = diagonal
        x = y / np.linalg.norm(y)
        theta, residual = rayleigh(x)
        if not residual <= bound:
            return None
    return (theta, x, bound) if _certifies(band, theta - bound, norm) else None


def _unsettled_bound(block: sparse.csr_matrix, top: int, start: np.ndarray, shift: float) -> float | None:
    """An upper bound on ground_state's energy for a sector, if shown that its vector is unsettled; None if not shown.

    Unsettled: the vector's top photon layer holds at least TOP_POPULATION_TOL
    of the weight, as observables rounds it.  B is the sector, its first top
    states those below the top layer (photon-major order); B' is that
    leading block and D the top layer's block, diagonal because the
    coupling moves n by +/-1, with largest entry d_max.  Let y = (u, v) be
    any unit vector with ||By - theta y|| <= eps = RESIDUAL_TOL ||B|| (max-row-
    sum norm) and theta <= lambda_1(B) + eps, ground_state's contract, and t
    = ||v||^2.  The two block rows of the residual, taken against u and v
    and subtracted, with Cauchy-Schwarz on the residual terms, give

        (lambda_1(B') - theta)(1 - t) <= t (d_max - theta) + eps,

    and |theta| <= ||B|| + eps.  So if t < tau, then lambda_1(B') - theta <
    Delta = (tau (|d_max| + ||B|| + eps) + eps)/(1 - tau), and a certificate
    (_certifies) that no eigenvalue of B' lies below rho + eps + Delta, with
    rho >= lambda_1(B) and so theta <= rho + eps, proves t >= tau.  tau is
    TOP_POPULATION_TOL (1 + 2^-20): ground_state's vector is unit to
    rounding and observables sums at most 2048 of its squared amplitudes,
    so the top weight it reports is t to a relative 2^-30 and still at
    least TOP_POPULATION_TOL.

    rho is the Rayleigh quotient of x plus its rounding bound (D + 5) 2^-52
    ||B|| for D states (five entries a row), after _UNSETTLED_STEPS steps of
    inverse iteration from start, a larger truncation's vector cut to this
    sector, with one scipy.linalg.cholesky_banded factor of B - shift I.  A
    factor that exists shows shift below lambda_1(B), so the iteration
    converges to the lowest level, never to an excited one; a shift below a
    larger truncation's energy less its eps lies below its lowest eigenvalue
    and, B being a leading block of that sector, below lambda_1(B)
    (interlacing).  Returns rho + eps, at least ground_state's energy;
    None past _band's limits, for no factor, or when the certificate fails.
    """
    from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded

    band = _band(block)
    if band is None:
        return None
    w = band.shape[0] // 2
    upper = band[: w + 1].copy()
    upper[w] -= shift
    try:
        factor = cholesky_banded(upper, overwrite_ab=True, check_finite=False)
    except LinAlgError:
        return None
    x = start
    for _ in range(_UNSETTLED_STEPS):
        x = cho_solve_banded((factor, False), x, check_finite=False)
        x /= np.linalg.norm(x)
    norm = _row_sum_norm(block)
    eps = RESIDUAL_TOL * norm
    rho = float(x @ (block @ x)) + (x.size + 5) * np.finfo(float).eps * norm
    tau = TOP_POPULATION_TOL * (1.0 + 2.0**-20)
    delta = (tau * (abs(float(band[w, top:].max())) + norm + eps) + eps) / (1.0 - tau)
    return rho + eps if _certifies(band[:, :top], rho + eps + delta, norm) else None


def _shown_unsettled(p: DickeParams, sectors: list, grounds: list, shifts: list) -> bool:
    """Whether the parity solve at p is shown to report an unsettled truncation, without solving it.

    sectors are p's sector_hamiltonians, grounds a larger truncation's
    records (_parity_solve) and shifts their energies less twice their eps.
    With both records, both sectors must be shown unsettled
    (_unsettled_bound), so either may be reported.  With the even record
    alone the even sector must be, and the odd sector must have no
    eigenvalue below rho_even + eps_even + window + 2 eps_odd: _parity_solve's
    own skip test at an upper bound of its even energy, which puts its odd
    energy, solved or not, above the even one by more than the window, so
    the even record is reported.
    """
    top = p.n_max * (p.n_atoms + 1)  # the first basis index of the top layer
    bounds = [
        _unsettled_bound(block, int(np.searchsorted(idx, top)), ground.vec[: idx.size], shift)
        for (idx, block), ground, shift in zip(sectors, grounds, shifts)  # the even sector alone for one record
    ]
    if None in bounds:
        return False
    if len(grounds) == 2:
        return True
    (_, even), (_, odd) = sectors
    odd_norm = _row_sum_norm(odd)
    window = NEAR_DEGENERACY_FACTOR * max(_row_sum_norm(even), odd_norm)
    return _certifies(_band(odd), bounds[0] + window + 2.0 * RESIDUAL_TOL * odd_norm, odd_norm)


def _excitation_entries(p: DickeParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Block offsets, and the basis row, diagonal, coupling and radius of every state, block by block.

    Excitation block k = 0 ... n_max + N holds the states n = max(0, k - N)
    ... min(k, n_max), j = k - n, in ascending basis order: the rows
    n (N+1) + k - n of _row_entries, gathered once, states offsets[k] to
    offsets[k + 1] of the per-state arrays.  The diagonal is the step (0, 0)
    entry and coupling[i], which joins state i to i + 1, (n + 1, j - 1), the
    step (1, -1) one, absent entries 0; so the coupling is 0 at the last
    state of a block, and the Gershgorin radius |coupling[i - 1]| +
    |coupling[i]| stays in the block.
    """
    _, values, present = _row_entries(p)
    ks = np.arange(p.n_max + p.n_atoms + 1)
    first = np.maximum(ks - p.n_atoms, 0)
    sizes = np.minimum(ks, p.n_max) - first + 1
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    n = np.arange(offsets[-1]) + np.repeat(first - offsets[:-1], sizes)
    rows = n * p.n_atoms + np.repeat(ks, sizes)  # n (N + 1) + k - n
    # steps (0, 0) and (1, -1) of _STEPS_RWA, a column at a time: one 2-D gather took 8 times as long
    diagonal, coupling = (np.where(present[:, step], values[:, step], 0.0)[rows] for step in (1, 2))
    radius = np.abs(coupling)
    radius[1:] += np.abs(coupling[:-1])
    return offsets, rows, diagonal, coupling, radius


def _excitation_batch(entries: tuple, ks: np.ndarray) -> np.ndarray:
    """Excitation blocks ks of the number-conserving Hamiltonian, padded and stacked.

    batch[c] holds block ks[c] of entries (see _excitation_entries) in its
    top-left corner, equal to build_hamiltonian(p)[idx][:, idx] for the
    block's basis indices idx, and on the rest of its diagonal the largest
    Gershgorin upper bound of the batch, which no eigenvalue of any of its
    blocks exceeds.
    """
    offsets, _, diagonal, coupling, radius = entries
    sizes = offsets[ks + 1] - offsets[ks]
    block = np.repeat(np.arange(ks.size), sizes)
    t = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # place in its block
    state = np.repeat(offsets[ks], sizes) + t
    diagonal, coupling = diagonal[state], coupling[state]
    size = int(sizes.max())
    batch = np.zeros((ks.size, size, size))
    batch[:, np.arange(size), np.arange(size)] = (diagonal + radius[state]).max()
    batch[block, t, t] = diagonal
    pair = t < size - 1  # the last state of a block has no coupling, so none is lost
    block, t = block[pair], t[pair]
    batch[block, t, t + 1] = batch[block, t + 1, t] = coupling[pair]
    return batch


def _excitation_bounds(entries: tuple) -> tuple[np.ndarray, float]:
    """Gershgorin lower bound of each excitation block, and the tie window.

    bounds[k] is the least, over the states of block k, of the diagonal
    entry minus the |couplings| of its row; no eigenvalue of the block lies
    below it (Golub & Van Loan, Matrix Computations, section 7.2).  The
    window is NEAR_DEGENERACY_FACTOR times norm, the max-row-sum norm of the
    whole matrix, which is the largest row sum over the blocks.
    """
    offsets, _, diagonal, _, radius = entries
    bounds = np.minimum.reduceat(diagonal - radius, offsets[:-1])
    return bounds, NEAR_DEGENERACY_FACTOR * float((np.abs(diagonal) + radius).max())


def _excitation_ground(p: DickeParams, blocks: int, threshold: float) -> _Ground:
    """Ground state under rwa over the excitation blocks k < blocks of bound at most threshold.

    The solved set, every such block (bounds of _excitation_bounds), is
    fixed before any solve.  Its blocks go to np.linalg.eigvalsh in
    ascending k, in stacks of at most _BATCH_FLOATS padded entries;
    eigvalsh splits a stack at its zero couplings, so a block's energies
    do not depend on its stack.  Blocks whose lowest energy lies within
    NEAR_DEGENERACY_FACTOR times the max-row-sum norm of the lowest are
    tied, the tie going to the largest k and setting the flag, and the
    chosen block's vector comes from np.linalg.eigh of that block alone.
    _excitation_report passes the reach and threshold of _excitation_reach,
    which leave out no block that could hold the minimum or tie with it;
    blocks = p.n_max + p.n_atoms + 1 and threshold = inf solve every block.
    """
    entries = _excitation_entries(p)
    bounds, window = _excitation_bounds(entries)
    solved = np.flatnonzero(bounds[:blocks] <= threshold)
    per_batch = max(1, _BATCH_FLOATS // (min(p.n_atoms, p.n_max) + 1) ** 2)
    stacks = np.split(solved, range(per_batch, solved.size, per_batch))
    # each stack is freed before the next is built
    lowest = np.concatenate([np.linalg.eigvalsh(_excitation_batch(entries, ks))[:, 0] for ks in stacks])
    tied = solved[lowest - lowest.min() < window]
    k = int(tied[-1])
    (block,) = _excitation_batch(entries, np.array([k]))
    values, vectors = np.linalg.eigh(block)
    offsets, rows = entries[:2]
    return _Ground(float(values[0]), rows[offsets[k] : offsets[k + 1]], _fix_sign(vectors[:, 0]), tied.size > 1)


def _parity_solve(sectors: list) -> list[_Ground]:
    """ground_state of the even sector of sector_hamiltonians, and of the odd one unless shown above it.

    With window = NEAR_DEGENERACY_FACTOR times the matrix norm and
    eps_odd = RESIDUAL_TOL ||B_odd|| (max-row-sum norms), _certifies tries
    to show, without solving, that no eigenvalue of the odd block B_odd
    lies below mu = E_even + window + 2 eps_odd.  If it does, ARPACK's odd
    energy would have been at least mu - eps_odd > E_even + window: a Ritz
    value whose unit vector has residual at most eps_odd, the bound
    ground_state checks, lies within eps_odd of an eigenvalue (Bauer-Fike
    for a symmetric matrix), so at most eps_odd below the lowest; the
    other eps_odd covers ARPACK's vector being unit only to rounding, and
    the rounding of mu.  The solve's outcome is then fixed without the odd
    solve, which is skipped: one record, the even sector's, not
    near-degenerate.  Otherwise, and always past _band's limits (N above
    128), both sectors are solved, and both records carry the doublet's
    flag, set when their energies lie within the window; the ground state
    is the lower one, ties going to even parity, as min takes the first.
    Away from the doublet the odd sector lies about a level spacing above
    the even one (Emary & Brandes, PRE 67, 066203 (2003)): on the
    acceptance grid (N = 8-32, 26 F) 196 of 248 parity solves skip it.
    A skipped odd solve cannot raise SolverConvergenceError.
    """
    (even_idx, even), (odd_idx, odd) = sectors
    # every row of H lies in one sector, so the larger norm is that of the whole matrix
    even_norm, odd_norm = _row_sum_norm(even), _row_sum_norm(odd)
    window = NEAR_DEGENERACY_FACTOR * max(even_norm, odd_norm)
    even_energy, even_vec = ground_state(even)
    if _certifies(_band(odd), even_energy + window + 2.0 * RESIDUAL_TOL * odd_norm, odd_norm):
        return [_Ground(even_energy, even_idx, even_vec, False)]
    odd_energy, odd_vec = ground_state(odd)
    near_degenerate = abs(even_energy - odd_energy) < window
    return [
        _Ground(even_energy, even_idx, even_vec, near_degenerate),
        _Ground(odd_energy, odd_idx, odd_vec, near_degenerate),
    ]


def observables(state: np.ndarray, p: DickeParams, energy: float, near_degenerate: bool = False) -> GroundStateReport:
    """Expectation values of a normalized state in the product basis.

    energy is the eigenvalue that came with the state and is reported as
    given; it must be finite.
    """
    energy = _require("energy", energy, "energy")
    _require_spin_matrices(p)
    vec = np.asarray(state, dtype=float)
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state is not normalized: |v| = {norm}")
    psi = vec.reshape(p.n_max + 1, p.n_atoms + 1)
    photon_weights = (psi**2).sum(axis=1)
    spin_weights = (psi**2).sum(axis=0)
    n_values = np.arange(p.n_max + 1, dtype=float)
    m_values, _, spin, _ = _matrix_elements(p)
    upper = np.diag(0.5 * spin, 1)
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


def _excitation_reach(p: DickeParams) -> tuple[int, float]:
    """Largest excitation number K whose block may hold the rwa ground state or tie with it, and the threshold T.

    For every lam > 0, B'B >= 0 with B = sqrt(lam) a + S- / sqrt(lam) gives
    a S+ + a' S- >= -(lam a'a + S+ S- / lam) on every excitation block,
    truncated or not, and S+ S- = j (N - j + 1) at spin index j.  With
    s = g/sqrt(N) and lam = theta omega / s, 0 < theta < 1, H is therefore
    at least the diagonal

        D(n, j) = omega (1 - theta) n + omega_A (j - N/2) - F omega_A j (N - j + 1) / (N theta),

    so no energy of block k lies below b_k = omega (1 - theta) k plus the
    least D(0, j) - omega (1 - theta) j over j <= min(k, N): past k = N, b_k
    grows linearly.  The ground energy is at most U, that of the mean-field
    product state: -omega_A N/2 up to F = 1, -omega_A N (F + 1/F)/4 beyond.
    Block k is ruled out when b_k > T = U + 2 NEAR_DEGENERACY_FACTOR (M + |U|)
    for one of theta = 1 - 2^-i, i = 1 ... 52, where M = omega L +
    omega_A N/2 + s sqrt(L) (N + 1) bounds the max-row-sum norm of every
    lattice within the dimension cap, whose n_max is at most L.  Of the
    blocks k <= K, the solve takes those whose Gershgorin bound is at most
    T (_excitation_ground).

    A block left out by either bound has its lowest energy above T, so its
    computed one is at least T less the roundings; the computed minimum is
    at most U plus them, as the ground state's block, k <= K, is
    untruncated at the solve's n_max.  The roundings, with eps = 2^-52, are
    eigvalsh's backward error on each side, at most 2048 eps M for blocks
    of at most 2048 states (observables refuses N > 2047; LAPACK Users'
    Guide, 3rd ed., section 4.7, with p(L) = 2L), and those of U, T, the
    bounds and the tie test, a few eps times terms below 20 (M + |U|).  Less
    the tie window, at most NEAR_DEGENERACY_FACTOR M, the margin T - U still
    exceeds their sum by about four orders of magnitude, so no block left
    out holds the minimum or ties with it.
    """
    n_atoms, omega, omega_a, fom = p.n_atoms, p.omega, p.omega_a, p.figure_of_merit
    upper = -0.5 * n_atoms * omega_a if fom <= 1.0 else -0.25 * n_atoms * omega_a * (fom + 1.0 / fom)
    largest = DEFAULT_DIMENSION_CAP // (n_atoms + 1) - 1
    norm = omega * largest + 0.5 * n_atoms * omega_a + p.g_collective * math.sqrt(largest / n_atoms) * (n_atoms + 1)
    threshold = upper + 2.0 * NEAR_DEGENERACY_FACTOR * (norm - upper)
    theta = 1.0 - 0.5 ** np.arange(1, 53)[:, None]
    slope = omega * (1.0 - theta)
    k = j = np.arange(n_atoms + 1)
    diagonal = omega_a * (j - 0.5 * n_atoms) - fom * omega_a * j * (n_atoms + 1 - j) / (n_atoms * theta)  # D(0, j)
    bounds = slope * k + np.minimum.accumulate(diagonal - slope * j, axis=1)  # b_k, k = 0 ... N, a row per theta
    tail = float(np.min((threshold - bounds[:, -1:]) / slope))
    if tail >= 0.0:  # block N stands, and the blocks up to N + tail with it
        return n_atoms + math.floor(tail), threshold
    return int(np.flatnonzero((bounds <= threshold).all(axis=0))[-1]), threshold


def _excitation_report(p: DickeParams) -> GroundStateReport:
    """_converged_ground under rwa: one solve over the blocks k <= K within the threshold of _excitation_reach.

    The solve, and its tie window, run at n_max = max(K, FOCK_SCHEDULE_START),
    where those blocks are untruncated.  The record's support is block k:
    k = n + j of its first state, and its last is n = k, j = 0.  The report
    takes the truncation the Dicke coupling's walk accepts for that state:
    the smallest FOCK_SCHEDULE_START 2^i >= k, doubled when k equals it and
    the last amplitude squared (the top-layer weight) is at least
    TOP_POPULATION_TOL, and lays the record out there, as the walk would.
    That n_max is a label: DEFAULT_DIMENSION_CAP bounds the lattice that is
    built and solved, and no matrix is built at the label, so a row may
    report a truncation past the cap (N = 499, F = 2 on resonance: solved
    at n_max 343, 172,000 states, reported 512).  The tie window is the
    solve's too, taken at its n_max, not at the label.
    """
    reach, threshold = _excitation_reach(p)
    ground = _excitation_ground(replace(p, n_max=max(reach, FOCK_SCHEDULE_START)), reach + 1, threshold)
    k = sum(divmod(int(ground.support[0]), p.n_atoms + 1))  # n + j of the block's first state
    n_max = max(FOCK_SCHEDULE_START, 1 << (k - 1).bit_length())  # the least FOCK_SCHEDULE_START 2^i >= k
    if k == n_max and ground.vec[-1] ** 2 >= TOP_POPULATION_TOL:  # the block's last state, n = k, j = 0
        n_max *= 2
    return ground.report(replace(p, n_max=n_max))


def _refinement_accepts(p: DickeParams, sectors: list, grounds: list, fraction: float) -> bool:
    """Whether the parity solve at p would accept a candidate of this photon fraction, shown without it.

    p is twice the walk's candidate truncation, sectors its
    sector_hamiltonians, grounds the candidate's records (_parity_solve):
    both sectors', or the even one's alone when the odd sector was shown to
    lie above it.  Each sector with a record, block B, is refined (_refine)
    from the candidate's vector of that sector padded with zeros, the
    photon-major order putting the candidate's states first, shifted to
    its energy; the refined pairs are records too.  An odd sector without
    a record is not refined: _certifies must instead show that it has no
    eigenvalue below theta_even + 2 (eps_even + eps_odd), or the verdict
    is False.  True means the exact solve's fraction lies within
    FRACTION_TOL of fraction too; False leaves the decision to the exact
    solve.  What this cannot foresee is that solve failing its own
    residual check: where ground_state at p would raise
    SolverConvergenceError, an acceptance here returns the candidate's
    row instead of that error row.

    With eps = RESIDUAL_TOL ||B||, M = p.n_max, N = p.n_atoms, lambda_1 <
    lambda_2 the two lowest eigenvalues of B and u its unit ground vector,
    the verdict holds under the gap condition

        lambda_2 - lambda_1 = gap >= eps (1 + 8 M / (N FRACTION_TOL))

    for each sector whose fraction is tested.  The condition is assumed,
    not checked at run time; it asks for at least 10^4 eps (M >= 16 and
    N <= 128, _band's limit), far past the 2 eps within which
    _refine could certify an excited pair.  Each refined energy lies
    within eps above lambda_1, and ground_state's within eps of it (its
    residual bound, and its contract that the pair is the lowest).  So
    when the refined energies differ by more than 2 (eps_even + eps_odd),
    the exact ones are ordered alike and only the lower sector's fraction
    is tested; otherwise both are, and either choice passes.  An odd
    sector certified as above has its exact energy at least
    theta_even + 2 eps_even + eps_odd, above the exact even one, so the
    even sector alone is tested.  Each of the two unit vectors y, refined
    and exact, has residual at most eps and Rayleigh quotient
    rho <= lambda_1 + eps (Kato-Temple for the refined one), so with
    y = cos(phi) u + sin(phi) v, v orthogonal to u, ||By - rho y|| >=
    sin(phi) (lambda_2 - rho) gives sin(phi) <= eps/(gap - eps) (Davis &
    Kahan, SIAM J. Numer. Anal. 7, 1 (1970)).  y'(a'a)y/N moves from u's by
    at most sin(phi) M/N, as a'a - M/2 has norm M/2 and yy' - uu' trace
    norm 2 sin(phi).  The two fractions thus differ by at most
    2 M eps/(N (gap - eps)) <= FRACTION_TOL/4 plus observables' roundings,
    below 1e-8, so a refined fraction within FRACTION_TOL/2 of fraction
    puts the exact one within FRACTION_TOL.
    """
    refined, bounds = [], []
    for (idx, block), ground in zip(sectors, grounds):  # the even sector alone when grounds holds one record
        start = np.zeros(idx.size)
        start[: ground.vec.size] = ground.vec
        pair = _refine(block, start, ground.energy)
        if pair is None:
            return False
        theta, x, bound = pair
        refined.append(_Ground(theta, idx, x, False))  # the flag is not read: only fractions are
        bounds.append(bound)
    if len(refined) == 1:
        odd = sectors[1][1]
        odd_norm = _row_sum_norm(odd)
        if not _certifies(_band(odd), refined[0].energy + 2.0 * (bounds[0] + RESIDUAL_TOL * odd_norm), odd_norm):
            return False
        tested = refined
    elif abs(refined[0].energy - refined[1].energy) <= 2.0 * sum(bounds):  # order not shown
        tested = refined
    else:
        tested = [min(refined, key=operator.attrgetter("energy"))]
    return all(abs(ground.report(p).photon_fraction - fraction) < 0.5 * FRACTION_TOL for ground in tested)


def _start_records(p: DickeParams, start: int) -> tuple[dict, set]:
    """The records of the truncation start and of each smaller one not shown unsettled, and the ones shown.

    start is solved (_parity_solve); each smaller schedule entry, largest
    first, is shown unsettled from the smallest solved truncation above it
    (_shown_unsettled), or solved when that fails.  Raises what those
    solves raise.
    """
    solved: dict = {}
    unsettled: set = set()
    source = None
    n_max = start
    while n_max >= FOCK_SCHEDULE_START:
        candidate = replace(p, n_max=n_max)
        sectors = sector_hamiltonians(candidate)
        if source is not None and _shown_unsettled(candidate, sectors, *source):
            unsettled.add(n_max)
        else:
            solved[n_max] = grounds = _parity_solve(sectors)
            shifts = [ground.energy - 2.0 * RESIDUAL_TOL * _row_sum_norm(block) for ground, (_, block) in zip(grounds, sectors)]
            source = (grounds, shifts)
        n_max //= 2
        del sectors  # freed before the next truncation's blocks are built
    return solved, unsettled


def _converged_ground(p: DickeParams) -> GroundStateReport:
    """Ground state at a converged Fock truncation.

    rwa: one solve, _excitation_report.  Dicke coupling: walks a doubling
    Fock schedule until the photon fraction settles.  Starting at
    FOCK_SCHEDULE_START, accepts the smallest truncation whose top-layer
    weight is below TOP_POPULATION_TOL and whose photon fraction moves by
    less than FRACTION_TOL when the truncation is doubled; gives up past
    FOCK_SCHEDULE_CAP.  Every truncation it may report is solved exactly
    (_parity_solve: ARPACK, on the odd sector only when it is not shown
    above the even one) and reported from its lower record; the doubled
    one that tests a candidate is first refined from the candidate's own
    records (_refinement_accepts), and solved exactly only when that does
    not show acceptance.

    Before the walk, the start, p.n_max rounded down to the schedule and
    capped at FOCK_SCHEDULE_CAP, is solved, and each smaller truncation is
    shown unsettled from the records of the smallest solved one above it,
    or solved when that fails (_start_records).  The walk then skips the
    truncations shown unsettled, whose solves would have been rejected
    for their top-layer weight and used for nothing else, and takes the
    solved ones' records; where a candidate's doubled truncation was
    solved, that solve decides instead of a refinement.  The certificate
    assumes only ground_state's contract: a unit vector with residual at
    most RESIDUAL_TOL ||B|| and an energy at most that much above the
    lowest level (_unsettled_bound).  Should the start or a solve below it
    raise SolverConvergenceError or DimensionError, the start is dropped
    and the walk runs from FOCK_SCHEDULE_START alone.  So the rows are
    those of exact solves throughout, whatever the start, under the gap
    condition _refinement_accepts assumes and but for a
    SolverConvergenceError that the exact solve of a refined truncation,
    or of one shown unsettled, would have raised.
    """
    _require_spin_matrices(p)  # before any solve, not after the first
    if p.rwa:
        return _excitation_report(p)
    start = FOCK_SCHEDULE_START
    while 2 * start <= min(p.n_max, FOCK_SCHEDULE_CAP):
        start *= 2
    try:
        solved, unsettled = _start_records(p, start)
    except (SolverConvergenceError, DimensionError):  # the plain walk decides whether the row fails
        solved, unsettled = {}, set()
    previous: GroundStateReport | None = None
    grounds: list = []
    n_max = FOCK_SCHEDULE_START
    while n_max <= FOCK_SCHEDULE_CAP:
        if n_max in unsettled:
            previous = None  # so the next truncation verifies nothing
            n_max *= 2
            continue
        candidate = replace(p, n_max=n_max)
        settled = previous is not None and previous.top_fock_population < TOP_POPULATION_TOL
        if n_max in solved:
            grounds = solved[n_max]
        else:
            sectors = sector_hamiltonians(candidate)
            if settled and _refinement_accepts(candidate, sectors, grounds, previous.photon_fraction):
                return previous
            grounds = _parity_solve(sectors)
            del sectors  # freed before the next truncation's blocks are built
        report = min(grounds, key=operator.attrgetter("energy")).report(candidate)
        if settled and abs(report.photon_fraction - previous.photon_fraction) < FRACTION_TOL:
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
            n_max=template.n_max,
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


def _scan_rows(template: DickeParams, foms) -> list[ScanRow]:
    """_scan_one of consecutive grid points, each walk starting at the truncation the row before reported."""
    rows = []
    for fom in foms:
        rows.append(_scan_one(template, fom))
        if rows[-1].n_max is not None:
            template = replace(template, n_max=rows[-1].n_max)
    return rows


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
    own Fock truncation, and its walk starts at the truncation the row
    before it reported (_scan_rows), the first at FOCK_SCHEDULE_START, the
    template's n_max not being read.  Rows do not depend on their starts,
    so they may run in parallel (assembly order is fixed by the grid, not
    by completion), in pairs of neighbouring points.  At most
    min(max_workers, grid points, CPUs) worker processes start, forked so
    that they inherit the loaded modules; where fork is unavailable the
    grid runs serially.  Every scan runs with loaded OpenBLAS libraries
    set to one thread, restored afterwards, and the workers inherit that
    setting.  A worker that dies raises BrokenProcessPool.
    """
    max_workers = _require_count("worker count", max_workers)
    grid = sorted(_require("fom grid value", f, "figure of merit") for f in fom_grid)
    workers = min(max_workers, len(grid), os.cpu_count() or 1)
    template = replace(template, n_max=FOCK_SCHEDULE_START)
    if not template.rwa:
        # ARPACK's solver maps scipy's OpenBLAS; load it before the budget looks for libraries
        import scipy.sparse.linalg  # noqa: F401
    with _one_blas_thread():
        if workers > 1:
            import multiprocessing

            if "fork" in multiprocessing.get_all_start_methods():
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork")) as pool:
                    # neighbouring points in pairs: half the round trips, the second
                    # point starts where the first stopped, and the costly high-F end
                    # of the grid still splits between workers
                    pairs = pool.map(functools.partial(_scan_rows, template), [grid[i : i + 2] for i in range(0, len(grid), 2)])
                    return [row for pair in pairs for row in pair]
        return _scan_rows(template, grid)


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
