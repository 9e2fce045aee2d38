"""Collective two-level ensemble coupled to one mode: build, solve, scan.

The Hamiltonian lives on the product of a truncated Fock space (photon
index major) and the maximal collective-spin sector of N two-level atoms,

    H = omega a'a + omega_A S_z + (g/sqrt(N)) (a + a') S_x

with hbar = 1 (energies in rad/s), or the number-conserving variant
(g/sqrt(N)) (a S+ + a' S-) when rwa is set.  g is the collective coupling:
the figure of merit g^2/(omega omega_A) equals 1 at the critical point.

The parity operator (-1)^(a'a + S_z + N/2) is diagonal in this basis and
commutes with both variants, so ground states are computed per parity
sector, each block built directly from index arithmetic; that keeps
<a + a'> exactly zero and resolves the near-degenerate doublet deep in the
high-coupling phase deterministically.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg

DEFAULT_DIMENSION_CAP = 250_000
FOCK_SCHEDULE_START = 8
FOCK_SCHEDULE_CAP = 512
FRACTION_TOL = 1e-4
TOP_POPULATION_TOL = 1e-8
NEAR_DEGENERACY_FACTOR = 1e-8
RESIDUAL_TOL = 1e-10  # eigensolver residual relative to the max-row-sum norm


class SolverConvergenceError(RuntimeError):
    """Eigensolver failed to reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class FockTruncationError(RuntimeError):
    """No truncation in the schedule met the convergence criteria."""


class DimensionError(ValueError):
    """Requested matrix exceeds DEFAULT_DIMENSION_CAP."""


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
        if self.n_atoms < 1:
            raise ValueError(f"atom count must be at least 1, got {self.n_atoms}")
        if self.omega <= 0.0 or self.omega_a <= 0.0:
            raise ValueError("frequencies must be positive")
        if self.g_collective < 0.0:
            raise ValueError(f"coupling must be nonnegative, got {self.g_collective}")
        if self.n_max < 1:
            raise ValueError(f"Fock truncation must be at least 1, got {self.n_max}")

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
        if fom < 0.0:
            raise ValueError(f"figure of merit must be nonnegative, got {fom}")
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
    n_max: int | None
    energy: float | None
    photon_fraction: float | None
    inversion: float | None
    sx2_fraction: float | None
    parity: float | None
    error: str | None = None


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


# Basis states (n + dn, j + dj) that H couples |n, j> to, in ascending
# column order; (0, 0) is the diagonal.  S_x moves the spin either way, the
# number-conserving coupling only against the photon step.
_STEPS = ((-1, -1), (-1, 1), (0, 0), (1, -1), (1, 1))
_STEPS_RWA = ((-1, 1), (0, 0), (1, -1))


def _row_entries(p: DickeParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns, values and presence of every stored entry, each (dimension, steps).

    Row n (N+1) + j lists its entries in ascending column order, so dropping
    the absent ones (off the lattice, or exactly zero) leaves sorted CSR rows.
    Values repeat the Kronecker assembly's float operations: omega n + omega_A m
    on the diagonal, (g/sqrt(N)) (sqrt(n) e) off it, with e the S_x element
    (half the S+ one) or, under rwa, the S+ element.  Symmetric pairs take
    the same float values, so H equals its transpose exactly.
    """
    if p.dimension > DEFAULT_DIMENSION_CAP:
        raise DimensionError(f"dimension {p.dimension} exceeds cap {DEFAULT_DIMENSION_CAP}")
    n_ph = p.n_max + 1
    n_sp = p.n_atoms + 1
    s = p.n_atoms / 2.0
    m = np.arange(n_sp) - s
    raising = np.sqrt(s * (s + 1.0) - m[:-1] * (m[:-1] + 1.0))  # <m+1| S+ |m>
    spin = raising if p.rwa else 0.5 * raising
    ladder = np.sqrt(np.arange(1, n_ph, dtype=float))  # <n-1| a |n>
    scale = p.g_collective / math.sqrt(p.n_atoms)
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


def _csr(indices: np.ndarray, data: np.ndarray, present: np.ndarray) -> sparse.csr_matrix:
    """Square CSR matrix from the kept entries of row-ordered (rows, steps) arrays."""
    indptr = np.concatenate(([0], np.cumsum(present.sum(axis=1))))
    dim = present.shape[0]
    return sparse.csr_matrix((data, indices, indptr), shape=(dim, dim))


def build_hamiltonian(p: DickeParams) -> sparse.csr_matrix:
    """Sparse symmetric Hamiltonian on |n> (x) |N/2, m>, photon index major."""
    columns, values, present = _row_entries(p)
    return _csr(columns[present], values[present], present)


def sector_hamiltonians(p: DickeParams) -> list[tuple[np.ndarray, sparse.csr_matrix]]:
    """Parity blocks of the Hamiltonian, even parity first.

    Each item is (idx, block) with idx the ascending basis indices of the
    sector and block equal to build_hamiltonian(p)[idx][:, idx], built
    without the full matrix: the coupling changes n + j by 0 or +/-2, so
    every row's entries lie in its own sector.
    """
    columns, values, present = _row_entries(p)
    parity = parity_diagonal(p)
    sectors = [np.flatnonzero(parity == sign) for sign in (1.0, -1.0)]
    local = np.empty(p.dimension, dtype=np.intp)
    for idx in sectors:
        local[idx] = np.arange(idx.size)
    blocks = []
    for idx in sectors:
        kept = present[idx]
        blocks.append((idx, _csr(local[columns[idx][kept]], values[idx][kept], kept)))
    return blocks


def parity_diagonal(p: DickeParams) -> np.ndarray:
    """Diagonal of (-1)^(a'a + S_z + N/2): +/-1 per basis state."""
    ph = 1.0 - 2.0 * (np.arange(p.n_max + 1) % 2)
    sp = 1.0 - 2.0 * (np.arange(p.n_atoms + 1) % 2)
    return np.kron(ph, sp)


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
    h = sparse.csr_matrix(h)
    return _lowest_eigenpair(h, _row_sum_norm(h), tol)


def _lowest_eigenpair(h: sparse.csr_matrix, scale: float, tol: float) -> tuple[float, np.ndarray]:
    """ground_state for a CSR matrix whose max-row-sum norm is already known."""
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
    if residual > tol * scale:
        raise SolverConvergenceError("ground-state solve did not converge", residual)
    return energy, _fix_sign(vec / np.linalg.norm(vec))


def ground_state_sectored(p: DickeParams) -> tuple[float, np.ndarray, bool]:
    """Ground state resolved per parity sector.

    Solves each sector separately and returns the lower one (ties go to
    even parity), together with a flag marking a near-degenerate doublet
    (sector gap below 1e-8 of the matrix norm scale).  The returned vector
    is supported on a single sector, so parity is exact.
    """
    sectors = sector_hamiltonians(p)
    norms = [_row_sum_norm(block) for _, block in sectors]
    # every row of H lies in one sector, so this is the norm of the whole matrix
    scale = max(norms)
    results = []
    for (idx, block), norm in zip(sectors, norms):
        energy, vec = _lowest_eigenpair(block, norm, RESIDUAL_TOL)
        full = np.zeros(p.dimension)
        full[idx] = vec
        results.append((energy, full))
    (even_energy, _), (odd_energy, _) = results
    near_degenerate = abs(even_energy - odd_energy) < NEAR_DEGENERACY_FACTOR * scale
    energy, vec = min(results, key=lambda item: item[0])
    return energy, vec, near_degenerate


def observables(state: np.ndarray, p: DickeParams, energy: float, near_degenerate: bool = False) -> GroundStateReport:
    """Expectation values of a normalized state in the product basis.

    energy is the eigenvalue that came with the state and is reported as given.
    """
    vec = np.asarray(state, dtype=float)
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state is not normalized: |v| = {norm}")
    psi = vec.reshape(p.n_max + 1, p.n_atoms + 1)
    photon_weights = (psi**2).sum(axis=1)
    spin_weights = (psi**2).sum(axis=0)
    n_values = np.arange(p.n_max + 1, dtype=float)
    m_values = np.arange(p.n_atoms + 1, dtype=float) - p.n_atoms / 2.0
    sx = _spin_x(p.n_atoms)
    sx2 = sx @ sx
    parity = float(
        ((1.0 - 2.0 * (np.arange(p.n_max + 1) % 2)) @ (psi**2)) @ (1.0 - 2.0 * (np.arange(p.n_atoms + 1) % 2))
    )
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
    if fom < 0.0:
        raise ValueError(f"figure of merit must be nonnegative, got {fom}")
    if omega <= 0.0 or omega_a <= 0.0:
        raise ValueError("frequencies must be positive")
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
        return ScanRow(
            fom=fom,
            n_atoms=template.n_atoms,
            n_max=None,
            energy=None,
            photon_fraction=None,
            inversion=None,
            sx2_fraction=None,
            parity=None,
            error=str(exc),
        )
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


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS mapped into this process.

    numpy's and scipy's wheels bundle OpenBLAS under hashed file names, so
    the libraries are found among the mapped files; scipy's exports
    scipy_openblas_{get,set}_num_threads, numpy's the same with a 64_ suffix.
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
    if max_workers < 1:
        raise ValueError(f"worker count must be at least 1, got {max_workers}")
    grid = sorted(float(f) for f in fom_grid)
    if any(f < 0.0 for f in grid):
        raise ValueError("figure-of-merit grid values must be nonnegative")
    workers = min(max_workers, len(grid), os.cpu_count() or 1)
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
