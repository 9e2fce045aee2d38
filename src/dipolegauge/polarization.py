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

import numpy as np
from scipy.special import gammainc, gammaincc

from .constants import CutoffParameter, QuadratureError, _cutoff_value  # the two classes re-exported

FT_PREFACTOR = (2.0 * math.pi) ** -1.5  # symmetric Fourier convention

_IDENTITY3 = np.eye(3)


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


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.b for each row of an (M, 3) array a, with b (M, 3) or (3,), summed left to right.

    n @ d goes through BLAS, whose rounding for a row depends on how many
    rows share the call; this keeps a point's value independent of its
    batch.  np.sqrt(_dot3(a, a)) equals np.linalg.norm(a, axis=1) bit for
    bit at a quarter of its cost.
    """
    return a[:, 0] * b[..., 0] + a[:, 1] * b[..., 1] + a[:, 2] * b[..., 2]


# Smallest separation the kernel and the fields accept (m).  They divide by
# r^3, which underflows below about 1e-108 m and leaves the residual field
# non-finite from about 1e-104 m; at the limit every field stays finite for
# all accepted cutoffs.
MIN_SEPARATION = 1e-100


def _geometry(rel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Norm r and unit vector n of each (M, 3) separation; rejects r below MIN_SEPARATION."""
    r = np.sqrt(_dot3(rel, rel))
    short = ~(r >= MIN_SEPARATION)  # NaN included
    if short.any():
        raise ValueError(
            f"kernel and dipole fields need separations of at least {MIN_SEPARATION:g} m, got {float(r[short][0])!r} m"
        )
    return r, rel / r[:, None]


def _kernel_pieces(mu: float, rel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two terms of the exact kernel at (M, 3) separations, each (M, 3, 3).

    Returns (far, near) with far = P(3, kM r) (3 n n - id)/(4 pi r^3) and
    near = kM^2 exp(-kM r) (id + n n)/(8 pi r).  The envelope multiplies
    before the division, the rounding order the CLI golden output records.
    """
    r, n = _geometry(rel)
    s = mu * r
    nn = n[:, :, None] * n[:, None, :]
    far = gammainc(3.0, s)[:, None, None] * (3.0 * nn - _IDENTITY3) / (4.0 * math.pi * r**3)[:, None, None]
    near = (mu * mu * np.exp(-s) / (8.0 * math.pi * r))[:, None, None] * (_IDENTITY3 + nn)
    return far, near


def transverse_delta_real_exact(k_m, x) -> np.ndarray:
    """Exact real-space filtered transverse delta at x != 0 (3x3, 1/m^3).

    Sum of the envelope-weighted dipole-field tensor and the exponentially
    decaying correction carrying the 1/r singularity; the trace reduces to
    the Yukawa form 2 kM^2 exp(-kM r)/(4 pi r).
    """
    far, near = _kernel_pieces(_cutoff_value(k_m), _vector(x)[None, :])
    return (far + near)[0]


def transverse_delta_real_far(k_m, x) -> np.ndarray:
    """Far-zone form of the kernel: envelope(r) (3 n n - id)/(4 pi r^3).

    Valid for kM r >> 1, where it differs from the exact kernel only by
    terms suppressed by exp(-kM r).
    """
    far, _ = _kernel_pieces(_cutoff_value(k_m), _vector(x)[None, :])
    return far[0]


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
    r, n = _geometry((_vector(x) - _vector(x_a))[None, :])
    nd = _dot3(n, dv)
    return (-(3.0 * nd[:, None] * n - dv) / (4.0 * math.pi * r**3)[:, None])[0]


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
    r, n = _geometry(np.asarray(points, dtype=float) - _vector(x_a))
    nd = _dot3(n, dv)
    s = mu * r
    complement = gammaincc(3.0, s)
    dipole_part = -(complement / (4.0 * math.pi * r**3))[:, None] * (3.0 * nd[:, None] * n - dv)
    near_part = (mu * mu * np.exp(-s) / (8.0 * math.pi * r))[:, None] * (dv + nd[:, None] * n)
    return dipole_part + near_part
