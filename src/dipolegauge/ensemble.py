"""Atom configurations: spacing checks, residual pair overlaps, densities.

The residual polarization of each atom decays exponentially outside a
radius ~1/kM, so two atoms further apart than twice that radius no longer
see each other through the quadratic polarization energy; what little
remains is the pair overlap integral (1/eps0) int P_A . P_B dV, evaluated
here from its exact closed form together with an analytic exponential
envelope bound.  Spacing checks find their pairs with a cell list in
numpy (Allen & Tildesley, Computer Simulation of Liquids, 1987), so they
hold no N x N array and load no scipy module.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constants import CONSTANTS, _require
from .coupling import AtomSpecies, FigureOfMeritReport, fom_density_q

# Cell offsets (dx, dy, dz) >= (0, 0, 0) in lexicographic order: an atom's own
# cell and the 13 half-shell neighbours, so each pair of cells is visited once.
_HALF_SHELL = np.array([d for d in itertools.product((-1, 0, 1), repeat=3) if d >= (0, 0, 0)])
# Candidate pairs expanded at a time (plus at most one atom's partners).
CANDIDATE_BUDGET = 2**16


def _pair_distances(xyz: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """|r_j - r_i| for columns of the (3, n) xyz, as sqrt(dx*dx + dy*dy + dz*dz) left to right (m)."""
    with np.errstate(over="ignore"):  # distances past the float range are inf
        d = np.take(xyz, j, axis=1) - np.take(xyz, i, axis=1)
        d *= d
        return np.sqrt(d[0] + d[1] + d[2])


def _candidate_pairs(positions: np.ndarray, radius: float):
    """Cell-list neighbour search: (reach, order, chunks), reach >= radius.

    chunks yields arrays (a, b, distance), a < b indexing positions[order],
    that hold every pair at most reach apart once, among others.  Cells are
    cubes of edge reach, at most floor(n^(1/3)) along an axis, and each atom
    meets the later atoms of its cell and those of the 13 half-shell
    neighbours; below 8 atoms every pair is a candidate.  Atoms crowded into
    few cells cost O(n^2) time, but memory stays O(n + CANDIDATE_BUDGET).
    """
    n = len(positions)
    k = int(n ** (1.0 / 3.0))
    if k <= 1:
        atoms = np.arange(n)
        i, j = np.nonzero(np.less.outer(atoms, atoms))  # np.triu_indices(n, 1), five times faster
        return math.inf, atoms, iter([(i, j, _pair_distances(positions.T, i, j))])
    half = 0.5 * positions  # the span of halved finite positions is finite
    span = half - half.min(axis=0)
    edge = max(0.5 * radius, float(span.max()) / k, np.finfo(float).tiny)
    # cells a little wider than the edge absorb the rounding of the cell coordinates
    strides = np.array([(k + 2) ** 2, k + 2, 1])
    keys = ((span / (edge * (1.0 + 1e-6))).astype(np.int64) + 1) @ strides
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=(k + 2) ** 3)
    first = np.cumsum(counts) - counts
    # row (atom, cell): partners start .. start + length - 1; in its own cell, those after the atom
    cells = keys[order][:, None] + _HALF_SHELL @ strides
    start, length = first[cells], counts[cells]
    start[:, 0] = np.arange(1, n + 1)
    length[:, 0] -= start[:, 0] - first[cells[:, 0]]
    atom = np.repeat(np.arange(n), len(_HALF_SHELL))
    return 2.0 * edge, order, _expand_rows(np.take(positions.T, order, axis=1), atom, start.ravel(), length.ravel())


def _expand_rows(xyz, atom, start, length):
    """Yield (a, b, distance) over the rows' pairs, about CANDIDATE_BUDGET at a time."""
    ends = np.cumsum(length)
    row = 0
    while row < len(ends):
        base = ends[row - 1] if row else 0
        stop = max(int(np.searchsorted(ends, base + CANDIDATE_BUDGET, side="right")), row + 1)
        lengths = length[row:stop]
        a = np.repeat(atom[row:stop], lengths)
        b = np.arange(ends[stop - 1] - base) + np.repeat(start[row:stop] - (ends[row:stop] - lengths - base), lengths)
        yield a, b, _pair_distances(xyz, a, b)
        row = stop


def _closest_pair_distance(positions: np.ndarray) -> float:
    """Smallest pair distance; the search radius grows until it holds the best candidate."""
    radius = 0.0
    while True:
        reach, _, chunks = _candidate_pairs(positions, radius)
        best = min(float(np.min(distance, initial=math.inf)) for _, _, distance in chunks)
        radius = best * (1.0 + 1e-9)  # then every pair whose distance rounds to at most best is a candidate
        if radius <= reach:
            return best


@dataclass(frozen=True)
class AtomConfiguration:
    """Positions (m), dipole vectors (C*m) and the bounding volume (m^3); the smallest pair distance is kept.

    Each dipole magnitude must lie in the "dipole moment" row of
    constants.DOMAINS (0 allowed), and the smallest pair distance in the
    "length" row.
    """

    positions: np.ndarray
    dipoles: np.ndarray
    volume: float
    _min_distance: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=float)
        dipoles = np.asarray(self.dipoles, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"positions must be (n, 3), got {positions.shape}")
        if dipoles.shape != positions.shape:
            raise ValueError(
                f"dipoles shape {dipoles.shape} does not match positions shape {positions.shape}"
            )
        if not (np.all(np.isfinite(positions)) and np.all(np.isfinite(dipoles))):
            raise ValueError("positions and dipoles must be finite")
        volume = _require("volume", self.volume, "volume")
        nonzero = [m for m in map(math.hypot, *dipoles.T.tolist()) if m]
        for magnitude in (min(nonzero, default=0.0), max(nonzero, default=0.0)):
            _require("dipole magnitude", magnitude, "dipole moment")
        min_distance = math.nan
        if len(positions) >= 2:
            min_distance = _require("smallest pair distance", _closest_pair_distance(positions), "length")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "dipoles", dipoles)
        object.__setattr__(self, "volume", volume)
        object.__setattr__(self, "_min_distance", min_distance)

    def __len__(self) -> int:
        return len(self.positions)


def load_configuration(path) -> AtomConfiguration:
    """Read a configuration from JSON (positions_m, dipoles_Cm, volume_m3)."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: a configuration is a JSON object, got {type(payload).__name__}")
    try:
        return AtomConfiguration(
            positions=np.asarray(payload["positions_m"], dtype=float),
            dipoles=np.asarray(payload["dipoles_Cm"], dtype=float),
            volume=payload["volume_m3"],
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing configuration key {exc}") from None


def min_pairwise_distance(config: AtomConfiguration) -> float:
    """Smallest distance between any two atoms (m)."""
    if len(config) < 2:
        raise ValueError("need at least two atoms")
    return config._min_distance


def intimacy_violations(config: AtomConfiguration, k_m) -> list[tuple[int, int]]:
    """Pairs (i < j, sorted) closer than 2/kM, i.e. with overlapping zones.

    Convention: each atom owns a radius-1/kM region; the pair threshold is
    the sum of the two radii.
    """
    mu = _require("cutoff wavenumber", k_m, "wavenumber")
    threshold = 2.0 / mu
    # Candidates within a slightly wider radius are re-tested on the distance
    # itself, so a pair exactly 2/kM apart (touching zones) is never flagged.
    _, order, chunks = _candidate_pairs(config.positions, threshold * (1.0 + 1e-9))
    close = []
    for a, b, distance in chunks:
        hit = distance < threshold
        close.append((order[a.compress(hit)], order[b.compress(hit)]))
    a, b = (np.concatenate(side) for side in zip(*close))
    n = len(config)
    i, j = np.divmod(np.sort(np.minimum(a, b) * n + np.maximum(a, b)), n)
    return list(zip(i.tolist(), j.tolist()))


def max_packing_density(k_m) -> float:
    """Density (kM/2)^3 of a simple-cubic lattice with spacing 2/kM (1/m^3)."""
    mu = _require("cutoff wavenumber", k_m, "wavenumber")
    return (mu / 2.0) ** 3


def config_figure_of_merit(config: AtomConfiguration, species: AtomSpecies) -> FigureOfMeritReport:
    """Density-quality figure of merit at the configuration's number density."""
    return fom_density_q(len(config) / config.volume, species.lambda_a, species.quality)


@dataclass(frozen=True)
class OverlapReport:
    """Residual pair overlap energy with its analytic envelope bound."""

    pair: tuple[int, int]
    separation: float  # m
    overlap_energy: float  # J
    bound: float  # J, analytic exponential envelope
    error_estimate: float  # J, floating-point rounding bound of the closed form


def overlap_envelope_bound(d_a: float, d_b: float, k_m, separation: float) -> float:
    """Analytic envelope for |pair overlap energy| at given dipole magnitudes.

    |dA| |dB| kM^3/(8 pi eps0) * exp(-x) * (2x^3 + 4x^2 + 8x + 8)/x^3 with
    x = kM * separation; a triangle-inequality bound over all dipole
    orientations on the exact cross integral.
    """
    mu = _require("cutoff wavenumber", k_m, "wavenumber")
    x = mu * _require("separation", separation, "length")
    poly = (2.0 * x**3 + 4.0 * x**2 + 8.0 * x + 8.0) / x**3
    d_a, d_b = _require("d_a", d_a, "dipole moment"), _require("d_b", d_b, "dipole moment")
    return d_a * d_b * mu**3 / (8.0 * math.pi * CONSTANTS.eps0) * math.exp(-x) * poly


def residual_overlap_energy(
    config: AtomConfiguration,
    pair: tuple[int, int],
    k_m,
    tol: float = 1e-6,
) -> OverlapReport:
    """Pair overlap energy (1/eps0) int P_A . P_B dV in closed form (J).

    The reported energy is the full cross term of the quadratic
    polarization energy, including the two point contributions
    (1/3 eps0) d_X . P_Y(x_X) from the delta-supported longitudinal cores
    sampling the other atom's field.  From the k-space form of the
    residual kernel it equals d_A . T(r) . d_B / eps0 with

        T = kM^3 e^(-x)/(8 pi x^3) [(x^3 + x^2 + 2x + 2) id - (x^3 + 3x^2 + 6x + 6) n n],

    x = kM r and n the unit pair axis.  The two polynomials sum to the
    envelope polynomial 2x^3 + 4x^2 + 8x + 8, so every term is at most
    the envelope bound and the rounding error is a small multiple of
    machine epsilon times it: error_estimate = (16 + x) eps * bound, the x
    carrying the rounding of x itself through exp(-x).  Like any such
    bound it assumes no underflow: exp(-x) (x up to about 708), the
    prefactor kM^3 e^(-x)/(8 pi x^3 eps0) and the energy are normal floats.

    tol is the accuracy required relative to the envelope bound, which
    keeps the target meaningful when orientations make the overlap itself
    nearly zero.  Every report meets it: the tolerance domain starts above
    the largest rounding bound, (16 + 745) eps, since past x = 745 exp(-x)
    and with it the bound are 0.
    """
    mu = _require("cutoff wavenumber", k_m, "wavenumber")
    _require("tol", tol, "tolerance")
    i, j = pair
    if i == j:
        raise ValueError("pair indices must be distinct")
    if not (0 <= i < len(config) and 0 <= j < len(config)):
        raise ValueError(f"pair {pair} out of range for {len(config)} atoms")
    d_a, d_b = config.dipoles[i], config.dipoles[j]
    xa, ya, za = config.positions[i].tolist()
    xb, yb, zb = config.positions[j].tolist()
    # _pair_distances' sqrt(dx*dx + dy*dy + dz*dz), the distance the spacing checks
    # measured, bit for bit; in Python floats, as calling it doubled this function's
    # time, and a difference past the float range is inf without a numpy warning
    dx, dy, dz = xb - xa, yb - ya, zb - za
    separation = _require("separation", math.sqrt(dx * dx + dy * dy + dz * dz), "length")
    x = mu * separation
    n = np.array((dx, dy, dz)) / separation

    prefactor = mu**3 * math.exp(-x) / (8.0 * math.pi * x**3 * CONSTANTS.eps0)
    isotropic = (x**3 + x**2 + 2.0 * x + 2.0) * float(d_a @ d_b)
    axial = (x**3 + 3.0 * x**2 + 6.0 * x + 6.0) * float(n @ d_a) * float(n @ d_b)
    bound = overlap_envelope_bound(math.hypot(*d_a), math.hypot(*d_b), mu, separation)
    return OverlapReport(
        pair=(i, j),
        separation=separation,
        overlap_energy=prefactor * (isotropic - axial),
        bound=bound,
        error_estimate=(16.0 + x) * np.finfo(float).eps * bound,
    )
