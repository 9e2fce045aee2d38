"""Regularized incomplete gamma functions P(3, x) and Q(3, x), standard library only.

Q(3, x) is the finite sum exp(-x) (1 + x + x^2/2) (DLMF 8.4), and P(3, x)
is 1 - Q above x = 3.  On [0, 3], where 1 - Q cancels, P is Cephes ``igam``
as scipy.special ships it (Moshier; the DLMF 8.11.4 series) with its a = 3
constants folded, for the single order the kernel envelope needs.  x > 3 is
Cephes' own split, and its a > 20 asymptotic branch is never taken.
Constants and operation order follow the C source, so on [0, 3] P equals
scipy.special.gammainc(3, x) bit for bit.
"""

from __future__ import annotations

import math

_A = 3.0
_MAXITER = 2000
_MACHEP = 1.11022302462515654042e-16
_MAXLOG = 7.09782712893383996843e2
_EXP_ZERO = 1075.0 * math.log(2.0)  # exp(-x) rounds to 0 from here on: e^-x <= 2^-1075
_LGAM_A = math.log(2.0)  # Cephes lgam(3): the recurrence ends on u == 2 and returns log(z)
# Cephes' bits of fac = 3 + g - 1/2 (Boost's Lanczos g = 6.024680040776729583740234375) and of its
# a-only factor sqrt(fac / e) / lanczos_sum_expg_scaled(3), which is close to fac^3 e^-3 / Gamma(3)
_FAC = 8.52468004077673
_LANCZOS_PREFACTOR = 15.421294148189666


def igam_fac(x: float) -> float:
    """x^3 e^(-x) / Gamma(3), 0 where the logarithm falls below -MAXLOG."""
    if abs(_A - x) > 0.4 * abs(_A):
        ax = _A * math.log(x) - x - _LGAM_A
        if ax < -_MAXLOG:
            return 0.0
        return math.exp(ax)
    # here x <= 3, so the direct form of the Lanczos prefactor applies
    return _LANCZOS_PREFACTOR * (math.exp(_A - x) * math.pow(x / _FAC, _A))


def igam_series(x: float) -> float:
    """P(3, x) from the power series DLMF 8.11.4."""
    ax = igam_fac(x)
    if ax == 0.0:
        return 0.0
    r, c, ans = _A, 1.0, 1.0
    for _ in range(_MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= _MACHEP * ans:
            break
    return ans * ax / _A


def gammainc3(x: float) -> float:
    """Regularized lower incomplete gamma P(3, x) for x >= 0, inf included.

    The Cephes series on [0, 3]; above, 1 - gammaincc3(x), which is within
    2 eps of the exact P(3, x).  Callers refuse NaN first: on NaN the
    series would run all _MAXITER terms.
    """
    if x == 0.0:
        return 0.0
    if x > _A:
        return 1.0 - gammaincc3(x)
    return igam_series(x)


def gammaincc3(x: float) -> float:
    """Regularized upper incomplete gamma Q(3, x) = exp(-x) (1 + x + x^2/2) for x >= 0, inf included.

    Its terms are all positive, so for a float x it is within
    4 eps Q + (1 + x + x^2/2) 2^-1074 of the exact Q(3, x): the relative
    term while exp(-x) is a normal float, the absolute one once it is
    subnormal or 0.  Past _EXP_ZERO the result is 0 without evaluating
    x^2, which overflows above about 1.3e154 (and 0 * inf is NaN).
    """
    if x > _EXP_ZERO:
        return 0.0
    return math.exp(-x) * (1.0 + x + x * x / 2.0)
