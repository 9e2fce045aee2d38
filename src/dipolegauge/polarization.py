"""Low-pass-filtered transverse delta kernel and the dipole polarization fields.

The kernel is the transverse projector multiplied by a Lorentzian filter
kM^2/(k^2 + kM^2) in k-space, with the symmetric (2*pi)^(-3/2) Fourier
convention.  Its exact real-space form follows from the partial fractions
kM^2/(k^2 (k^2 + kM^2)) = 1/k^2 - 1/(k^2 + kM^2) (a Coulomb and a Yukawa
piece) and a double gradient:

    K(x) = envelope(r) (3 n n - id) / (4 pi r^3)
           + kM^2 exp(-kM r) (id + n n) / (8 pi r)

with envelope(r) = 1 - (1 + kM r + (kM r)^2/2) exp(-kM r) = P(3, kM r) and
n = x/r (_igamma: Cephes' series up to kM r = 3, where this form cancels,
this form above).  The first term is the static dipole-field shape switched
on over distances ~1/kM; the second carries the 1/r trace singularity and
decays exponentially.  Contracted with a dipole moment these give the
transverse, longitudinal and residual polarization fields of a point dipole.

The real-space kernel at one point is the standard-library closed form
_kernel_terms; numpy is imported only inside the functions that build
arrays, so importing this module, the envelope and the filter value load
no numpy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._igamma import gammainc3
from .constants import DOMAINS, _require

if TYPE_CHECKING:
    import numpy as np

FT_PREFACTOR = (2.0 * math.pi) ** -1.5  # symmetric Fourier convention


def _vector(x) -> np.ndarray:
    import numpy as np

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
    mu = _require("cutoff wavenumber", k_m, "wavenumber")
    k = _require("k", k, "mode wavenumber")
    return mu * mu / (k * k + mu * mu)


def radial_envelope(k_m, r: float) -> float:
    """Radial switch-on factor of the far-zone kernel, in [0, 1).

    The regularized lower incomplete gamma P(3, kM r) from _igamma: the
    Cephes series bit for bit up to kM r = 3, where the closed form
    1 - (1 + kM r + (kM r)^2/2) exp(-kM r) cancels, and that exact closed
    form above, within 2 eps.  Grows like (kM r)^3/6 for kM r << 1 and
    tends to 1 from below.
    """
    mu = _require("cutoff wavenumber", k_m, "wavenumber")
    r = _require("r", r, "radius")
    return gammainc3(mu * r)


def transverse_delta_k(k_m, k_vec) -> np.ndarray:
    """Filtered transverse projector in k-space (3x3, symmetric).

    (2*pi)^(-3/2) (id - k k / k^2) kM^2/(k^2 + kM^2).  The projector is
    direction-dependent at k = 0, so |k| must lie in the wavenumber domain,
    which also keeps k^2 a normal float.
    """
    import numpy as np

    mu = _require("cutoff wavenumber", k_m, "wavenumber")
    k = _vector(k_vec)
    _require("|k_vec|", math.hypot(*k), "wavenumber")
    k2 = float(k @ k)
    return FT_PREFACTOR * mu * mu / (k2 + mu * mu) * (np.eye(3) - np.outer(k, k) / k2)


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.b for each row of an (M, 3) array a, with b (M, 3) or (3,), summed left to right.

    n @ d goes through BLAS, whose rounding for a row depends on how many
    rows share the call; this keeps a point's value independent of its
    batch.  np.sqrt(_dot3(a, a)) equals np.linalg.norm(a, axis=1) bit for
    bit at a quarter of its cost.
    """
    return a[:, 0] * b[..., 0] + a[:, 1] * b[..., 1] + a[:, 2] * b[..., 2]


def _geometry(points, x_a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Separations rel = points - x_a of (M, 3) points, their norms r and unit vectors n.

    Every r must lie in the length domain.  Points and x_a may be any
    finite floats, so a difference or its square can pass the float range:
    it is then inf, without a numpy warning, and the length domain refuses it.
    """
    import numpy as np

    low, high, _, _ = DOMAINS["length"]
    with np.errstate(over="ignore"):
        rel = np.asarray(points, dtype=float) - _vector(x_a)
        r = np.sqrt(_dot3(rel, rel))
    _require("separation", r.min(initial=low), "length")  # NaN propagates through both
    _require("separation", r.max(initial=high), "length")
    return rel, r, rel / r[:, None]


def _kernel_terms(mu: float, x) -> tuple[list[float], list[float]]:
    """The two terms of the exact kernel at one separation x, each as 9 floats in row-major order.

    Returns (far, near) with far = P(3, kM r) (3 n n - id)/(4 pi r^3) and
    near = kM^2 exp(-kM r) (id + n n)/(8 pi r), in standard-library floats:
    r = sqrt(x.x) summed left to right, r^3 and exp from libm, the envelope
    from _igamma.  The envelope multiplies before the division, the
    rounding order the CLI golden output records.  Refuses non-finite
    components and an r outside the length domain.
    """
    x0, x1, x2 = (float(v) for v in x)
    if not (math.isfinite(x0) and math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("vector components must be finite")
    r = _require("separation", math.sqrt(x0 * x0 + x1 * x1 + x2 * x2), "length")  # inf once x.x overflows
    n = (x0 / r, x1 / r, x2 / r)
    s = mu * r
    envelope = gammainc3(s)
    far_denominator = 4.0 * math.pi * r**3
    near_scale = mu * mu * math.exp(-s) / (8.0 * math.pi * r)
    far, near = [], []
    for a in range(3):
        for b in range(3):
            delta = 1.0 if a == b else 0.0
            nn = n[a] * n[b]
            far.append(envelope * (3.0 * nn - delta) / far_denominator)
            near.append(near_scale * (delta + nn))
    return far, near


def transverse_delta_real_exact(k_m, x) -> np.ndarray:
    """Exact real-space filtered transverse delta at x != 0 (3x3, 1/m^3).

    Sum of the envelope-weighted dipole-field tensor and the exponentially
    decaying correction carrying the 1/r singularity; the trace reduces to
    the Yukawa form 2 kM^2 exp(-kM r)/(4 pi r).

    Rounding bound: every entry is within 10 eps of the largest entry of
    the exact kernel at the float x and kM, for kM from 1e-20 to 1e90 /m
    and kM r up to 745.  r carries about 1.5 ulp, and the terms scale with
    up to r^-3.
    """
    import numpy as np

    far, near = _kernel_terms(_require("cutoff wavenumber", k_m, "wavenumber"), _vector(x).tolist())
    return np.reshape([f + g for f, g in zip(far, near)], (3, 3))


def transverse_delta_real_far(k_m, x) -> np.ndarray:
    """Far-zone form of the kernel: envelope(r) (3 n n - id)/(4 pi r^3).

    Valid for kM r >> 1, where it differs from the exact kernel only by
    terms suppressed by exp(-kM r).

    Rounding bound: every entry is within (10 + 6 |ln(kM r)|) eps of the
    largest entry of the exact far form at the float x and kM, for kM from
    1e-20 to 1e90 /m and kM r from 1e-100 to 745.  The log term is the
    envelope's: below kM r = 1.8 it is exp(3 ln(kM r) - kM r - ln 2),
    which carries the rounding of that argument.
    """
    import numpy as np

    far, _ = _kernel_terms(_require("cutoff wavenumber", k_m, "wavenumber"), _vector(x).tolist())
    return np.reshape(far, (3, 3))


# ---------------------------------------------------------------------------
# Polarization fields of a point dipole
# ---------------------------------------------------------------------------


def transverse_polarization(d, x_a, k_m, x) -> np.ndarray:
    """Transverse polarization (C/m^2) at x of a dipole d (C*m) at x_a."""
    dv = _vector(d)
    _require("|d|", math.hypot(*dv), "dipole moment")
    rel, _, _ = _geometry(_vector(x)[None, :], x_a)
    kernel = transverse_delta_real_exact(k_m, rel[0])
    return kernel @ dv


def longitudinal_dipole_polarization(d, x_a, x) -> np.ndarray:
    """Longitudinal polarization of a point dipole, away from its core (C/m^2).

    -(3 (n.d) n - d)/(4 pi r^3): minus the static dipole field times eps0.
    The delta-supported core at the dipole position is not part of the
    returned field value; integrals that sample the source point must add
    it back separately (the pair-overlap routine does).
    """
    dv = _vector(d)
    _require("|d|", math.hypot(*dv), "dipole moment")
    _, r, n = _geometry(_vector(x)[None, :], x_a)
    nd = _dot3(n, dv)
    return (-(3.0 * nd[:, None] * n - dv) / (4.0 * math.pi * r**3)[:, None])[0]


def _envelope_complement(s: np.ndarray) -> np.ndarray:
    """1 - envelope = Q(3, s) = exp(-s) (1 + s + s^2/2) at each s = kM r: _igamma.gammaincc3 in numpy.

    Its terms are all positive, so for a float s it is within
    4 eps Q + (1 + s + s^2/2) 2^-1074 of the exact Q(3, s): the relative
    term while exp(-s) is a normal float, the absolute one once it is
    subnormal or 0 (s above about 708).
    """
    import numpy as np

    return np.exp(-s) * (1.0 + s + s * s / 2.0)


def total_residual_polarization(d, x_a, k_m, x) -> np.ndarray:
    """Sum of transverse and longitudinal polarization (C/m^2) at one point x."""
    return total_residual_polarization_many(d, x_a, k_m, _vector(x)[None, :])[0]


def total_residual_polarization_many(d, x_a, k_m, points: np.ndarray) -> np.ndarray:
    """Sum of transverse and longitudinal polarization (C/m^2) at (M, 3) points.

    The dipole-field parts cancel up to the envelope complement, so the
    result is computed in the explicitly exponentially small form
    -(1-envelope)(3 (n.d) n - d)/(4 pi r^3)
    + kM^2 exp(-kM r) (d + (n.d) n)/(8 pi r),
    which avoids subtractive cancellation at kM r >> 1; the complement
    comes from _envelope_complement.
    """
    import numpy as np

    mu = _require("cutoff wavenumber", k_m, "wavenumber")
    dv = _vector(d)
    _require("|d|", math.hypot(*dv), "dipole moment")
    _, r, n = _geometry(points, x_a)
    nd = _dot3(n, dv)
    s = mu * r
    complement = _envelope_complement(s)
    dipole_part = -(complement / (4.0 * math.pi * r**3))[:, None] * (3.0 * nd[:, None] * n - dv)
    near_part = (mu * mu * np.exp(-s) / (8.0 * math.pi * r))[:, None] * (dv + nd[:, None] * n)
    return dipole_part + near_part
