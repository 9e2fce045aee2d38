"""Real-space quadrature of the residual pair overlap: the oracle for the closed form.

dipolegauge.ensemble.residual_overlap_energy evaluates the overlap from
its closed-form k-space tensor; this module integrates the product of the
two residual polarization fields directly, so the two share nothing but
the field definition.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.special import gammaincc

from dipolegauge.constants import CONSTANTS
from dipolegauge.ensemble import AtomConfiguration, OverlapReport, overlap_envelope_bound
from dipolegauge.polarization import QuadratureError, _cutoff_value, total_residual_polarization_many

# Per-atom field truncation radius for the overlap quadrature, in units of
# 1/kM beyond half the separation; the discarded region then carries a
# factor exp(-2 * TRUNCATION_MARGIN) relative to the kept one.
TRUNCATION_MARGIN = 20.0

_PHI = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
_COS_PHI = np.cos(_PHI)
_SIN_PHI = np.sin(_PHI)


def _dipole_envelope_field(d: np.ndarray, x_atom: np.ndarray, mu: float, points: np.ndarray) -> np.ndarray:
    """Dipole-shaped part of the residual field: -(1-envelope)(3 (n.d) n - d)/(4 pi r^3).

    Its integral over all space vanishes at every radius by angular
    symmetry, which makes it the natural subtraction for taming the 1/r^3
    behaviour of the residual field at its own atom.
    """
    rel = np.asarray(points, dtype=float) - x_atom
    r = np.linalg.norm(rel, axis=1)
    n = rel / r[:, None]
    nd = n @ d
    complement = gammaincc(3.0, mu * r)
    return -(complement / (4.0 * math.pi * r**3))[:, None] * (3.0 * nd[:, None] * n - d)


def quadrature_overlap_energy(config: AtomConfiguration, pair: tuple[int, int], k_m, tol: float) -> OverlapReport:
    """Pair overlap energy (1/eps0) int P_A . P_B dV by quadrature (J).

    The reported energy includes the two point contributions
    (1/3 eps0) d_X . P_Y(x_X) from the delta-supported longitudinal cores
    sampling the other atom's field.

    The smooth part is integrated in cylindrical coordinates around the
    pair axis after subtracting, for each atom, its dipole-envelope field
    times the other field frozen at the atom position; the subtracted
    terms integrate to zero exactly and remove the near-atom 1/r^3
    cancellation that plain adaptive quadrature resolves poorly.  The
    angular integral is a 16-point periodic trapezoid (exact for the
    degree-4 trigonometric integrand); (z, rho) is adaptive, with each
    field truncated at separation/2 + TRUNCATION_MARGIN/kM.

    tol is relative to the envelope bound; error_estimate adds the
    quadrature estimates and the truncation.
    """
    mu = _cutoff_value(k_m)
    i, j = pair
    x_a = config.positions[i]
    x_b = config.positions[j]
    d_a = config.dipoles[i]
    d_b = config.dipoles[j]
    axis = x_b - x_a
    separation = float(np.linalg.norm(axis))
    axis = axis / separation

    # Orthonormal frame with the pair axis as local z.
    seed = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(axis, seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)

    bound = overlap_envelope_bound(
        float(np.linalg.norm(d_a)), float(np.linalg.norm(d_b)), mu, separation
    )
    target = tol * bound

    p_b_at_a = total_residual_polarization_many(d_b, x_b, mu, x_a[None, :])[0]
    p_a_at_b = total_residual_polarization_many(d_a, x_a, mu, x_b[None, :])[0]

    r_trunc = separation / 2.0 + TRUNCATION_MARGIN / mu
    z_lo = separation - r_trunc
    z_hi = r_trunc

    def phi_ring(z: float, rho: float) -> float:
        points = (
            x_a
            + z * axis[None, :]
            + rho * (_COS_PHI[:, None] * e1[None, :] + _SIN_PHI[:, None] * e2[None, :])
        )
        p_a = total_residual_polarization_many(d_a, x_a, mu, points)
        p_b = total_residual_polarization_many(d_b, x_b, mu, points)
        values = np.sum(p_a * p_b, axis=1)
        values -= _dipole_envelope_field(d_a, x_a, mu, points) @ p_b_at_a
        values -= _dipole_envelope_field(d_b, x_b, mu, points) @ p_a_at_b
        return float(np.mean(values))

    inner_tol = 0.2 * target * CONSTANTS.eps0 / (z_hi - z_lo)

    def shell(z: float) -> float:
        reach = r_trunc**2 - max(z * z, (z - separation) ** 2)
        if reach <= 0.0:
            return 0.0
        rho_max = math.sqrt(reach)
        value, _ = integrate.quad(
            lambda rho: 2.0 * math.pi * rho * phi_ring(z, rho),
            0.0,
            rho_max,
            epsabs=inner_tol,
            epsrel=3e-8,
            limit=150,
        )
        return value

    raw, raw_err = integrate.quad(
        shell,
        z_lo,
        z_hi,
        points=[0.0, separation],
        epsabs=0.3 * target * CONSTANTS.eps0,
        epsrel=3e-8,
        limit=200,
    )
    cores = (float(d_a @ p_b_at_a) + float(d_b @ p_a_at_b)) / 3.0
    energy = (raw + cores) / CONSTANTS.eps0
    truncation = bound * math.exp(-2.0 * TRUNCATION_MARGIN)
    error_estimate = raw_err / CONSTANTS.eps0 + (z_hi - z_lo) * inner_tol / CONSTANTS.eps0 + truncation
    if error_estimate > max(target, tol * abs(energy)):
        raise QuadratureError("overlap quadrature did not converge", error_estimate)
    return OverlapReport(
        pair=(i, j),
        separation=separation,
        overlap_energy=energy,
        bound=bound,
        error_estimate=error_estimate,
    )
