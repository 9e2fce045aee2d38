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

from dipolegauge.constants import CONSTANTS, QuadratureError, _require
from dipolegauge.ensemble import AtomConfiguration, OverlapReport, overlap_envelope_bound
from dipolegauge.polarization import total_residual_polarization_many

# Per-atom field truncation radius for the overlap quadrature, in units of
# 1/kM beyond half the separation; the discarded region then carries a
# factor exp(-2 * TRUNCATION_MARGIN) relative to the kept one.
TRUNCATION_MARGIN = 20.0

_PHI = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
_COS_PHI = np.cos(_PHI)
_SIN_PHI = np.sin(_PHI)

# 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK qk21): the Kronrod nodes
# from +1 down to 0 with their weights, and the weights of the embedded
# 10-point Gauss rule, whose nodes are every other Kronrod node.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208292487877, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG_HALF = np.zeros(11)
_WG_HALF[1::2] = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_GK_NODES = np.concatenate((-_XGK, _XGK[-2::-1]))
_GK_WEIGHTS = np.concatenate((_WGK, _WGK[-2::-1]))
_GAUSS_WEIGHTS = np.concatenate((_WG_HALF, _WG_HALF[-2::-1]))


def _gk21(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """21-point estimate and QUADPACK error estimate on each interval [lo, hi].

    f maps a (K, 21) array of nodes to values, so K intervals cost one call.
    """
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    values = f(center[:, None] + half[:, None] * _GK_NODES)
    kronrod = values @ _GK_WEIGHTS
    gauss = values @ _GAUSS_WEIGHTS
    resabs = np.abs(values) @ _GK_WEIGHTS * half
    resasc = np.abs(values - 0.5 * kronrod[:, None]) @ _GK_WEIGHTS * half
    error = np.abs(kronrod - gauss) * half
    scaled = resasc * np.minimum(1.0, (200.0 * error / np.where(resasc > 0.0, resasc, 1.0)) ** 1.5)
    error = np.where((resasc > 0.0) & (error > 0.0), scaled, error)
    return kronrod * half, np.maximum(error, 50.0 * np.finfo(float).eps * resabs)


def adaptive_gk21(f, a: float, b: float, epsabs: float, epsrel: float, limit: int) -> tuple[float, float]:
    """Integral of f over [a, b] and its error estimate, by QUADPACK's QAG strategy.

    Bisects the interval with the largest error estimate until the summed
    estimate is at most max(epsabs, epsrel * |integral|): the error control
    of scipy.integrate.quad without its extrapolation.  Raises
    QuadratureError where quad would only warn, when limit intervals do not
    reach that.  f takes an array of nodes, so each bisection evaluates
    both halves in one call.
    """
    lo, hi = np.array([a]), np.array([b])
    values, errors = _gk21(f, lo, hi)
    while errors.sum() > max(epsabs, epsrel * abs(values.sum())):
        if lo.size >= limit:
            raise QuadratureError(f"no convergence with {limit} subintervals", float(errors.sum()))
        k = int(np.argmax(errors))
        mid = 0.5 * (lo[k] + hi[k])
        halves_lo, halves_hi = np.array([lo[k], mid]), np.array([mid, hi[k]])
        new_values, new_errors = _gk21(f, halves_lo, halves_hi)
        keep = np.arange(lo.size) != k
        lo = np.concatenate((lo[keep], halves_lo))
        hi = np.concatenate((hi[keep], halves_hi))
        values = np.concatenate((values[keep], new_values))
        errors = np.concatenate((errors[keep], new_errors))
    return float(values.sum()), float(errors.sum())


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
    field truncated at separation/2 + TRUNCATION_MARGIN/kM.  The rho
    integral evaluates all rings of a Gauss-Kronrod panel in one batch.

    tol is relative to the envelope bound; error_estimate adds the
    quadrature estimates and the truncation.
    """
    mu = _require("cutoff wavenumber", k_m, "wavenumber")
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

    ring = _COS_PHI[:, None] * e1[None, :] + _SIN_PHI[:, None] * e2[None, :]

    def ring_integrand(z: float, rho: np.ndarray) -> np.ndarray:
        """2 pi rho times the ring average of the subtracted integrand, per radius."""
        points = (x_a + z * axis + rho.reshape(-1, 1, 1) * ring).reshape(-1, 3)
        p_a = total_residual_polarization_many(d_a, x_a, mu, points)
        p_b = total_residual_polarization_many(d_b, x_b, mu, points)
        values = np.sum(p_a * p_b, axis=1)
        values -= _dipole_envelope_field(d_a, x_a, mu, points) @ p_b_at_a
        values -= _dipole_envelope_field(d_b, x_b, mu, points) @ p_a_at_b
        return 2.0 * math.pi * rho * values.reshape(*rho.shape, ring.shape[0]).mean(axis=-1)

    inner_tol = 0.2 * target * CONSTANTS.eps0 / (z_hi - z_lo)

    def shell(z: float) -> float:
        reach = r_trunc**2 - max(z * z, (z - separation) ** 2)
        if reach <= 0.0:
            return 0.0
        rho_max = math.sqrt(reach)
        value, _ = adaptive_gk21(
            lambda rho: ring_integrand(z, rho), 0.0, rho_max, epsabs=inner_tol, epsrel=3e-8, limit=150
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
