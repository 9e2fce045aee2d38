"""Numeric inverse Fourier transform of the filtered kernel: the oracle for its closed form.

dipolegauge.polarization evaluates the real-space kernel from its exact
closed form; this module inverts the k-space form numerically, so the two
share nothing but the definition of the filter.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from dipolegauge.constants import QuadratureError, _cutoff_value
from dipolegauge.polarization import _vector

_IDENTITY3 = np.eye(3)
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
