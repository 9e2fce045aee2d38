"""Low-pass-filtered transverse delta kernel and the dipole polarization fields.

The kernel is the transverse projector multiplied by a Lorentzian filter
kM^2/(k^2 + kM^2) in k-space, with the symmetric (2*pi)^(-3/2) Fourier
convention.  Its exact real-space form follows from the partial fractions
kM^2/(k^2 (k^2 + kM^2)) = 1/k^2 - 1/(k^2 + kM^2) (a Coulomb and a Yukawa
piece) and a double gradient:

    K(x) = envelope(r) (3 n n - id) / (4 pi r^3)
           + kM^2 exp(-kM r) (id + n n) / (8 pi r)

with envelope(r) = 1 - (1 + kM r + (kM r)^2/2) exp(-kM r), n = x/r.  The
first term is the static dipole-field shape switched on over distances
~1/kM; the second carries the 1/r trace singularity and decays
exponentially.  Contracted with a dipole moment these give the transverse,
longitudinal and residual polarization fields of a point dipole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gammainc, gammaincc

FT_PREFACTOR = (2.0 * math.pi) ** -1.5  # symmetric Fourier convention

_IDENTITY3 = np.eye(3)


class QuadratureError(RuntimeError):
    """Raised when a quadrature cannot reach the requested accuracy."""

    def __init__(self, message: str, achieved_error: float):
        super().__init__(f"{message} (achieved error estimate {achieved_error:.3e})")
        self.achieved_error = achieved_error


@dataclass(frozen=True)
class CutoffParameter:
    """Cutoff wavenumber of the Lorentzian k-space filter (1/m)."""

    k_m: float

    def __post_init__(self):
        if not (self.k_m > 0.0 and math.isfinite(self.k_m)):
            raise ValueError(f"cutoff wavenumber must be positive and finite, got {self.k_m}")

    @classmethod
    def from_inverse_bohr(cls, value: float) -> "CutoffParameter":
        from .constants import BOHR_RADIUS

        return cls(value / BOHR_RADIUS)


def _cutoff_value(k_m) -> float:
    """Accept either a CutoffParameter or a bare wavenumber in 1/m."""
    k = float(getattr(k_m, "k_m", k_m))
    if not (k > 0.0 and math.isfinite(k)):
        raise ValueError(f"cutoff wavenumber must be positive and finite, got {k}")
    return k


def _vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    return v


def suppression_factor(k_m, k: float) -> float:
    """Lorentzian filter value kM^2/(k^2 + kM^2) for a mode wavenumber k.

    Equals 1 at k = 0 and 1/2 at k = kM; the long-wavelength condition is
    met when 1 - suppression_factor(k_radiation) stays small.
    """
    mu = _cutoff_value(k_m)
    if k < 0.0:
        raise ValueError(f"wavenumber must be nonnegative, got {k}")
    return mu * mu / (k * k + mu * mu)


def radial_envelope(k_m, r: float) -> float:
    """Radial switch-on factor of the far-zone kernel, in [0, 1).

    Closed form 1 - (1 + kM r + (kM r)^2/2) exp(-kM r); evaluated as the
    regularized lower incomplete gamma P(3, kM r), which is stable for
    small arguments where the closed form cancels catastrophically.
    Grows like (kM r)^3/6 for kM r << 1 and tends to 1 from below.
    """
    mu = _cutoff_value(k_m)
    if r < 0.0:
        raise ValueError(f"distance must be nonnegative, got {r}")
    return float(gammainc(3.0, mu * r))


def transverse_delta_k(k_m, k_vec) -> np.ndarray:
    """Filtered transverse projector in k-space (3x3, symmetric).

    (2*pi)^(-3/2) (id - k k / k^2) kM^2/(k^2 + kM^2).  The projector is
    direction-dependent at k = 0, so a zero wavevector is rejected rather
    than assigned a limit value.
    """
    mu = _cutoff_value(k_m)
    k = _vector(k_vec)
    k2 = float(k @ k)
    if k2 == 0.0:
        raise ValueError("transverse projector is undefined at k = 0")
    projector = _IDENTITY3 - np.outer(k, k) / k2
    return FT_PREFACTOR * mu * mu / (k2 + mu * mu) * projector


def transverse_delta_real_exact(k_m, x) -> np.ndarray:
    """Exact real-space filtered transverse delta at x != 0 (3x3, 1/m^3).

    Sum of the envelope-weighted dipole-field tensor and the exponentially
    decaying correction carrying the 1/r singularity; the trace reduces to
    the Yukawa form 2 kM^2 exp(-kM r)/(4 pi r).
    """
    mu = _cutoff_value(k_m)
    v = _vector(x)
    r = float(np.linalg.norm(v))
    if r == 0.0:
        raise ValueError("kernel is singular at r = 0")
    n = v / r
    nn = np.outer(n, n)
    s = mu * r
    eta = float(gammainc(3.0, s))
    far = eta * (3.0 * nn - _IDENTITY3) / (4.0 * math.pi * r**3)
    near = mu * mu * math.exp(-s) / (8.0 * math.pi * r) * (_IDENTITY3 + nn)
    return far + near


def transverse_delta_real_far(k_m, x) -> np.ndarray:
    """Far-zone form of the kernel: envelope(r) (3 n n - id)/(4 pi r^3).

    Valid for kM r >> 1, where it differs from the exact kernel only by
    terms suppressed by exp(-kM r).
    """
    mu = _cutoff_value(k_m)
    v = _vector(x)
    r = float(np.linalg.norm(v))
    if r == 0.0:
        raise ValueError("kernel is singular at r = 0")
    n = v / r
    eta = float(gammainc(3.0, mu * r))
    return eta * (3.0 * np.outer(n, n) - _IDENTITY3) / (4.0 * math.pi * r**3)


# ---------------------------------------------------------------------------
# Numeric inverse Fourier transform (independent of the closed form above)
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _bessel_combos(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f_a = j0 - j1/t and f_b = j0 - 3 j1/t, stable at t = 0."""
    t = np.asarray(t, dtype=float)
    j0 = np.sinc(t / math.pi)
    small = t < 1e-3
    ts = np.where(small, 1.0, t)
    j1_over_t = np.where(
        small,
        1.0 / 3.0 - t * t / 30.0,
        (np.sin(ts) - ts * np.cos(ts)) / ts**3,
    )
    return j0 - j1_over_t, j0 - 3.0 * j1_over_t


def _alternating_sum(terms: np.ndarray) -> tuple[float, float]:
    """Sum an alternating tail by repeated averaging of partial sums."""
    partial = np.cumsum(terms)
    estimate = partial[-1]
    change = abs(terms[-1])
    while partial.size > 1:
        partial = 0.5 * (partial[:-1] + partial[1:])
        change = abs(partial[-1] - estimate)
        estimate = partial[-1]
    return float(estimate), float(change)


def _lorentz_bessel_tails(s: float, n_panels: int) -> tuple[float, float, float]:
    """Integrals of s^2/(t^2+s^2) * f_{a,b}(t) over [pi, (n_panels+1) pi].

    Panels run between consecutive zeros of sin(t); each is integrated by
    16-point Gauss-Legendre (ample for one half-oscillation) and the
    alternating panel sums are accelerated by repeated averaging.
    Returns (tail_a, tail_b, error_estimate).
    """
    edges = math.pi * np.arange(1, n_panels + 2)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    w = s * s / (t * t + s * s)
    f_a, f_b = _bessel_combos(t)
    panel_a = half * ((w * f_a) @ _GL_WEIGHTS)
    panel_b = half * ((w * f_b) @ _GL_WEIGHTS)
    sum_a, err_a = _alternating_sum(panel_a)
    sum_b, err_b = _alternating_sum(panel_b)
    return sum_a, sum_b, err_a + err_b


def numeric_inverse_transform(k_m, x, tol: float = 1e-6) -> np.ndarray:
    """Real-space kernel by direct numerical inversion of the k-space form.

    The angular integrals are done analytically (spherical Bessel
    reduction); the radial integral keeps only the absolutely convergent
    Lorentzian-weighted part, after the non-decaying part is resummed with
    the identities int j0 = pi/2 and int j1/t = pi/4.  The oscillatory
    tail is split at the zeros of sin(kr) and accelerated.

    tol is a relative (Frobenius) accuracy target; QuadratureError is
    raised with the achieved estimate when it cannot be met.
    """
    mu = _cutoff_value(k_m)
    v = _vector(x)
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    r = float(np.linalg.norm(v))
    if r == 0.0:
        raise ValueError("kernel is singular at r = 0")
    n = v / r
    nn = np.outer(n, n)
    s = mu * r

    # Head region [0, pi]: smooth, with a Lorentzian knee at t = s.
    breaks = [s] if 0.0 < s < math.pi else None

    def head_a(t):
        fa, _ = _bessel_combos(np.asarray([t]))
        return s * s / (t * t + s * s) * float(fa[0])

    def head_b(t):
        _, fb = _bessel_combos(np.asarray([t]))
        return s * s / (t * t + s * s) * float(fb[0])

    ha, ha_err = integrate.quad(head_a, 0.0, math.pi, points=breaks, epsabs=1e-12, epsrel=1e-10, limit=200)
    hb, hb_err = integrate.quad(head_b, 0.0, math.pi, points=breaks, epsabs=1e-12, epsrel=1e-10, limit=200)

    # Oscillatory tail, refined until two panel counts agree.
    n_panels = 48
    tail_a, tail_b, accel_err = _lorentz_bessel_tails(s, n_panels)
    while True:
        tail_a2, tail_b2, accel_err2 = _lorentz_bessel_tails(s, 2 * n_panels)
        drift = abs(tail_a2 - tail_a) + abs(tail_b2 - tail_b)
        tail_a, tail_b, accel_err = tail_a2, tail_b2, accel_err2
        n_panels *= 2
        if drift + accel_err < 1e-13 or n_panels >= 768:
            break

    integral_a = ha + tail_a
    integral_b = hb + tail_b
    scalar_err = ha_err + hb_err + accel_err + drift

    prefactor = mu * mu / (2.0 * math.pi**2 * r)
    kernel = (
        mu * mu / (8.0 * math.pi * r) * (_IDENTITY3 + nn)
        - prefactor * (integral_a * _IDENTITY3 - integral_b * nn)
    )
    scale = float(np.linalg.norm(kernel))
    error_estimate = prefactor * scalar_err * 2.0  # both tensor channels
    if scale > 0.0 and error_estimate > tol * scale:
        raise QuadratureError("inverse transform did not reach the requested accuracy", error_estimate / scale)
    return kernel


# ---------------------------------------------------------------------------
# Polarization fields of a point dipole
# ---------------------------------------------------------------------------


def transverse_polarization(d, x_a, k_m, x) -> np.ndarray:
    """Transverse polarization (C/m^2) at x of a dipole d (C*m) at x_a."""
    dv = _vector(d)
    kernel = transverse_delta_real_exact(k_m, _vector(x) - _vector(x_a))
    return kernel @ dv


def longitudinal_dipole_polarization(d, x_a, x) -> np.ndarray:
    """Longitudinal polarization of a point dipole, away from its core (C/m^2).

    -(3 (n.d) n - d)/(4 pi r^3): minus the static dipole field times eps0.
    The delta-supported core at the dipole position is not part of the
    returned field value; integrals that sample the source point must add
    it back separately (the pair-overlap routine does).
    """
    dv = _vector(d)
    rel = _vector(x) - _vector(x_a)
    r = float(np.linalg.norm(rel))
    if r == 0.0:
        raise ValueError("field point coincides with the dipole position")
    n = rel / r
    return -(3.0 * (n @ dv) * n - dv) / (4.0 * math.pi * r**3)


def total_residual_polarization(d, x_a, k_m, x) -> np.ndarray:
    """Sum of transverse and longitudinal polarization (C/m^2) at one point x."""
    return total_residual_polarization_many(d, x_a, k_m, _vector(x)[None, :])[0]


def total_residual_polarization_many(d, x_a, k_m, points: np.ndarray) -> np.ndarray:
    """Sum of transverse and longitudinal polarization (C/m^2) at (M, 3) points.

    The dipole-field parts cancel up to the envelope complement, so the
    result is computed in the explicitly exponentially small form
    -(1-envelope)(3 (n.d) n - d)/(4 pi r^3)
    + kM^2 exp(-kM r) (d + (n.d) n)/(8 pi r),
    which avoids subtractive cancellation at kM r >> 1.
    """
    mu = _cutoff_value(k_m)
    dv = _vector(d)
    rel = np.asarray(points, dtype=float) - _vector(x_a)
    r = np.linalg.norm(rel, axis=1)
    if np.any(r == 0.0):
        raise ValueError("field point coincides with the dipole position")
    n = rel / r[:, None]
    nd = n @ dv
    s = mu * r
    complement = gammaincc(3.0, s)
    dipole_part = -(complement / (4.0 * math.pi * r**3))[:, None] * (3.0 * nd[:, None] * n - dv)
    near_part = (mu * mu * np.exp(-s) / (8.0 * math.pi * r))[:, None] * (dv + nd[:, None] * n)
    return dipole_part + near_part
