"""Atom configurations: spacing checks, residual pair overlaps, densities.

The residual polarization of each atom decays exponentially outside a
radius ~1/kM, so two atoms further apart than twice that radius no longer
see each other through the quadratic polarization energy; what little
remains is the pair overlap integral (1/eps0) int P_A . P_B dV, evaluated
here from its exact closed form together with an analytic exponential
envelope bound.  Pair distances come from a k-d tree, so spacing checks
never hold an N x N array.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .constants import CONSTANTS
from .coupling import AtomSpecies, FigureOfMeritReport, fom_density_q
from .polarization import QuadratureError, _cutoff_value


def _nearest_neighbour_distances(positions: np.ndarray) -> np.ndarray:
    """Distance from each of at least two atoms to its nearest other atom (m)."""
    distances, _ = cKDTree(positions).query(positions, k=2)
    return distances[:, 1]


@dataclass(frozen=True)
class AtomConfiguration:
    """Positions (m), dipole vectors (C*m) and the bounding volume (m^3)."""

    positions: np.ndarray
    dipoles: np.ndarray
    volume: float

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
        if self.volume <= 0.0:
            raise ValueError(f"volume must be positive, got {self.volume}")
        if len(positions) >= 2 and np.min(_nearest_neighbour_distances(positions)) == 0.0:
            raise ValueError("positions must be pairwise distinct")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "dipoles", dipoles)

    def __len__(self) -> int:
        return len(self.positions)


def load_configuration(path) -> AtomConfiguration:
    """Read a configuration from JSON (positions_m, dipoles_Cm, volume_m3)."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        return AtomConfiguration(
            positions=np.asarray(payload["positions_m"], dtype=float),
            dipoles=np.asarray(payload["dipoles_Cm"], dtype=float),
            volume=float(payload["volume_m3"]),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing configuration key {exc}") from None


def min_pairwise_distance(config: AtomConfiguration) -> float:
    """Smallest distance between any two atoms (m)."""
    if len(config) < 2:
        raise ValueError("need at least two atoms")
    return float(np.min(_nearest_neighbour_distances(config.positions)))


def intimacy_violations(config: AtomConfiguration, k_m) -> list[tuple[int, int]]:
    """Pairs (i < j, sorted) closer than 2/kM, i.e. with overlapping zones.

    Convention: each atom owns a radius-1/kM region; the pair threshold is
    the sum of the two radii.
    """
    mu = _cutoff_value(k_m)
    threshold = 2.0 / mu
    # query_pairs compares squared distances, which for pairs at 2/kM off the
    # axes can round to the other side of the threshold than the distance
    # does; its candidates from a slightly wider radius are re-tested on the
    # distance itself, so a pair exactly 2/kM apart (touching zones) is never
    # flagged.
    pairs = cKDTree(config.positions).query_pairs(threshold * (1.0 + 1e-9), output_type="ndarray")
    separations = np.linalg.norm(config.positions[pairs[:, 1]] - config.positions[pairs[:, 0]], axis=1)
    return sorted(map(tuple, pairs[separations < threshold].tolist()))


def max_packing_density(k_m) -> float:
    """Density (kM/2)^3 of a simple-cubic lattice with spacing 2/kM (1/m^3)."""
    mu = _cutoff_value(k_m)
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
    mu = _cutoff_value(k_m)
    if separation <= 0.0:
        raise ValueError(f"separation must be positive, got {separation}")
    x = mu * separation
    poly = (2.0 * x**3 + 4.0 * x**2 + 8.0 * x + 8.0) / x**3
    return abs(d_a) * abs(d_b) * mu**3 / (8.0 * math.pi * CONSTANTS.eps0) * math.exp(-x) * poly


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
    carrying the rounding of x itself through exp(-x).

    tol is the accuracy required relative to the envelope bound, which
    keeps the target meaningful when orientations make the overlap itself
    nearly zero; QuadratureError is raised when the rounding bound
    exceeds it.
    """
    mu = _cutoff_value(k_m)
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    i, j = pair
    if i == j:
        raise ValueError("pair indices must be distinct")
    if not (0 <= i < len(config) and 0 <= j < len(config)):
        raise ValueError(f"pair {pair} out of range for {len(config)} atoms")
    d_a = config.dipoles[i]
    d_b = config.dipoles[j]
    axis = config.positions[j] - config.positions[i]
    separation = float(np.linalg.norm(axis))
    n = axis / separation
    x = mu * separation

    prefactor = mu**3 * math.exp(-x) / (8.0 * math.pi * x**3 * CONSTANTS.eps0)
    isotropic = (x**3 + x**2 + 2.0 * x + 2.0) * float(d_a @ d_b)
    axial = (x**3 + 3.0 * x**2 + 6.0 * x + 6.0) * float(n @ d_a) * float(n @ d_b)
    energy = prefactor * (isotropic - axial)
    bound = overlap_envelope_bound(float(np.linalg.norm(d_a)), float(np.linalg.norm(d_b)), mu, separation)
    error_estimate = (16.0 + x) * np.finfo(float).eps * bound
    if error_estimate > tol * bound:
        raise QuadratureError("overlap closed form cannot reach the requested tolerance", error_estimate)
    return OverlapReport(
        pair=(i, j),
        separation=separation,
        overlap_energy=energy,
        bound=bound,
        error_estimate=error_estimate,
    )
