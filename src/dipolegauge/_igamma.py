"""Regularized incomplete gamma functions P(3, x) and Q(3, x), standard library only.

Q(3, x) is the finite sum exp(-x) (1 + x + x^2/2) (DLMF 8.4), and P(3, x)
is 1 - Q above x = 3.  On [0, 3], where 1 - Q cancels, P transcribes Cephes
``igam`` (Moshier; the DLMF 8.11.4 series with the Lanczos prefactor of
Boost, as scipy.special ships it) for the single order a = 3 that the kernel
envelope needs; x > 3 is Cephes' own split, and its a > 20 asymptotic branch
is never taken.  Constants and operation order follow the C source, so on
[0, 3] P equals scipy.special.gammainc(3, x) bit for bit.
"""

from __future__ import annotations

import math

_A = 3.0
_MAXITER = 2000
_MACHEP = 1.11022302462515654042e-16
_MAXLOG = 7.09782712893383996843e2
_EXP_ZERO = 1075.0 * math.log(2.0)  # exp(-x) rounds to 0 from here on: e^-x <= 2^-1075
_LGAM_A = math.log(2.0)  # Cephes lgam(3): the recurrence ends on u == 2 and returns log(z)
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222,
    0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208,
    449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526,
    75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507,
    3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571,
    43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342,
    103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859,
)
_LANCZOS_DENOM = (1.0, 66.0, 1925.0, 32670.0, 357423.0, 2637558.0, 13339535.0, 45995730.0, 105258076.0,
                  150917976.0, 120543840.0, 39916800.0, 0.0)


def _ratevl(x: float, num: tuple, denom: tuple) -> float:
    """Cephes ratevl for |x| > 1 and equal degrees (its pow(x, 0) factor is 1): polynomials in 1/x."""
    y = 1.0 / x
    num_ans = num[-1]
    for coefficient in reversed(num[:-1]):
        num_ans = num_ans * y + coefficient
    denom_ans = denom[-1]
    for coefficient in reversed(denom[:-1]):
        denom_ans = denom_ans * y + coefficient
    return num_ans / denom_ans


_FAC = _A + _LANCZOS_G - 0.5
# sqrt(fac / e) with Cephes' exp(1), not exp(fac): the constant is part of the bits
_LANCZOS_PREFACTOR = math.sqrt(_FAC / math.exp(1.0)) / _ratevl(_A, _LANCZOS_NUM, _LANCZOS_DENOM)


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
