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

The real-space kernel and the three fields at one point are
standard-library closed forms; numpy is imported only inside the functions
that build arrays, so importing this module, the envelope and the filter
value load no numpy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._igamma import gammainc3
from .constants import _require

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

    Rounding bound: every entry is within 4 eps of the exact filter value
    (2*pi)^(-3/2) kM^2/(k^2 + kM^2) at the float k and kM, for kM and |k|
    over the wavenumber domain; the projector's entries are at most 1.
    """
    import numpy as np

    mu = _require("cutoff wavenumber", k_m, "wavenumber")
    k = _vector(k_vec)
    _require("|k_vec|", math.hypot(*k), "wavenumber")
    k2 = float(k @ k)
    return FT_PREFACTOR * mu * mu / (k2 + mu * mu) * (np.eye(3) - np.outer(k, k) / k2)


def _separation(x, x_a) -> tuple[float, list[float]]:
    """r = |x - x_a| and n = (x - x_a)/r for 3-sequences of finite floats, in standard-library floats.

    r = sqrt of the squares summed left to right.  A difference or a square
    past the float range is inf, without a warning, and the length domain
    refuses it like any other r outside it.
    """
    rel = [p - q for p, q in zip(x, x_a)]
    r = _require("separation", math.sqrt(rel[0] * rel[0] + rel[1] * rel[1] + rel[2] * rel[2]), "length")
    return r, [v / r for v in rel]


def _kernel_terms(mu: float, x, x_a=(0.0, 0.0, 0.0)) -> tuple[list[float], list[float]]:
    """The two terms of the exact kernel at one separation x - x_a, each as 9 floats in row-major order.

    Returns (far, near) with far = P(3, kM r) (3 n n - id)/(4 pi r^3) and
    near = kM^2 exp(-kM r) (id + n n)/(8 pi r), in standard-library floats:
    r and n from _separation, r^3 and exp from libm, the envelope
    from _igamma.  The envelope multiplies before the division, the
    rounding order the CLI golden output records.  Refuses non-finite
    components of x and an r outside the length domain.
    """
    x0, x1, x2 = (float(v) for v in x)
    if not (math.isfinite(x0) and math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("vector components must be finite")
    r, n = _separation((x0, x1, x2), x_a)
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


def _dipole(d) -> list[float]:
    """d as three floats, refused unless its components are finite and |d| lies in the dipole domain."""
    dv = _vector(d)
    _require("|d|", math.hypot(*dv), "dipole moment")
    return dv.tolist()


def transverse_polarization(d, x_a, k_m, x) -> np.ndarray:
    """Transverse polarization (C/m^2) at x of a dipole d (C*m) at x_a.

    The exact kernel at x - x_a contracted with d, K d, in standard-library floats.

    Rounding bound: every component is within 16 eps of |d| times the
    largest entry of the exact kernel at the float inputs, for kM from
    1e-20 to 1e90 /m and kM r up to 745: the kernel's 10 eps, the rounding
    of x - x_a, which the kernel scales by up to r^-3, and the contraction's.
    """
    import numpy as np

    d0, d1, d2 = _dipole(d)
    mu = _require("cutoff wavenumber", k_m, "wavenumber")
    far, near = _kernel_terms(mu, _vector(x).tolist(), _vector(x_a).tolist())
    k = [f + g for f, g in zip(far, near)]
    return np.array([k[a] * d0 + k[a + 1] * d1 + k[a + 2] * d2 for a in (0, 3, 6)])


def longitudinal_dipole_polarization(d, x_a, x) -> np.ndarray:
    """Longitudinal polarization of a point dipole, away from its core (C/m^2).

    -(3 (n.d) n - d)/(4 pi r^3): minus the static dipole field times eps0.
    The delta-supported core at the dipole position is not part of the
    returned field value; integrals that sample the source point must add
    it back separately (the pair-overlap routine does).

    Rounding bound: every component is within 24 eps |d|/(4 pi r^3) of the
    exact field at the float inputs: 1.5 times the largest error seen in
    adversarial draws; the roundings of r, n and n.d, each at its worst, give 35.
    """
    import numpy as np

    d = _dipole(d)
    r, n = _separation(_vector(x).tolist(), _vector(x_a).tolist())
    nd = n[0] * d[0] + n[1] * d[1] + n[2] * d[2]
    denominator = 4.0 * math.pi * r**3
    return np.array([-(3.0 * nd * nv - dv) / denominator for nv, dv in zip(n, d)])


def total_residual_polarization(d, x_a, k_m, x) -> np.ndarray:
    """Sum of transverse and longitudinal polarization (C/m^2) at x of a dipole d (C*m) at x_a.

    The dipole-field parts cancel up to Q(3, s) = exp(-s) (1 + s + s^2/2),
    s = kM r, and the s^2/2 parts of the two remaining terms fold into the
    component of d perpendicular to n, so the field is evaluated as

        exp(-s)/(4 pi r^3) [s^2 (d - (n.d) n) - (1 + s)(3 (n.d) n - d)],

    with one exp and no cancellation between exponentially small terms.

    Rounding bound: every component is within (24 + 2.25 s) eps E + U of
    the exact field at the float inputs, E = |d| exp(-s)(1 + s + s^2)/(4 pi r^3),
    for kM from 1e-20 to 1e90 /m and s up to 745.  2.25 s: exp(-s) carries s
    times the rounding of s, at most 2.25 eps from x - x_a, r and kM r.  24:
    r, n and n.d, as in the longitudinal field (41 at the worst of each).
    U = 2^-1073 (1 + |d| (1 + s + s^2)(1 + 1/(4 pi r^3))) covers exp(-s),
    exp(-s)/(4 pi r^3) and the result rounding below the normal floats.
    """
    import numpy as np

    d = _dipole(d)
    mu = _require("cutoff wavenumber", k_m, "wavenumber")
    r, n = _separation(_vector(x).tolist(), _vector(x_a).tolist())
    nd = n[0] * d[0] + n[1] * d[1] + n[2] * d[2]
    s = mu * r
    scale = math.exp(-s) / (4.0 * math.pi * r**3)
    return np.array([scale * (s * s * (dv - nd * nv) - (1.0 + s) * (3.0 * nd * nv - dv)) for nv, dv in zip(n, d)])
