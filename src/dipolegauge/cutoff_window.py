"""Admissible interval for the cutoff wavenumber.

The lower limit asks the Lorentzian filter to pass the populated radiation
modes essentially unchanged (1 - filter value small at k_radiation); the
upper limit asks the energy stored in the filtered transverse polarization
to stay a small perturbation of the atomic binding energy.  The hydrogen
ground state gives the upper-limit arithmetic in closed form, backed here
by an independent radial quadrature: a standard-library transcription of
the path QUADPACK's QAGI takes on that integrand (``_quadpack``), which the
tests hold bit for bit to ``scipy.integrate.quad`` over the tolerance
domain, so this module loads neither numpy nor scipy.  Rounding bounds are
relative to the exact value for the float inputs and constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._quadpack import qagi
from .constants import CONSTANTS, QuadratureError, _require

DEFAULT_LOWER_THRESHOLD = 0.01  # on 1 - suppression_factor(k_radiation)
DEFAULT_UPPER_THRESHOLD = 0.15  # on the shift-to-Rydberg ratio


@dataclass(frozen=True)
class CutoffWindow:
    """Both window metrics for one (k_radiation, k_M) pair."""

    k_radiation: float  # 1/m
    k_m: float  # 1/m
    lower_violation: float  # 1 - filter value at k_radiation, in [0, 1)
    upper_ratio: float  # (k_M * a0)^3
    lower_threshold: float
    upper_threshold: float
    admissible: bool


@dataclass(frozen=True)
class PerturbationReport:
    """Hydrogen 1s energy shift: closed form and quadrature cross-check."""

    delta_u: float  # transverse self-energy at dipole e*a0 (J)
    first_order_shift: float  # J
    ratio_to_rydberg: float
    numeric_shift: float  # J
    numeric_error_estimate: float  # J


def transverse_self_energy(d: float, k_m) -> float:
    """Energy stored in the filtered transverse polarization of a dipole d.

    kM^3 d^2 / (24 pi eps0); equals the k-space integral
    (1/2 eps0) int d^3k |P_transverse|^2 (angular factor 8 pi/3, radial
    int k^2 L^2 dk = pi kM^3/4).  Within 4 eps: five roundings and pi's
    at eps/2 each, kM^3 at one ulp.
    """
    mu = _require("cutoff wavenumber", k_m, "wavenumber")
    d = _require("d", d, "dipole moment")
    return mu**3 * d * d / (24.0 * math.pi * CONSTANTS.eps0)


def hydrogen_first_order_shift(k_m) -> float:
    """First-order 1s energy shift e^2 kM^3 a0^2 / (8 pi eps0) in J.

    The perturbing potential is (e^2 kM^3 / (24 pi eps0)) r^2, whose 1s
    expectation uses <r^2> = 3 a0^2.  Within 6 eps: five roundings and
    pi's at eps/2 each, three powers at one ulp each.
    """
    mu = _require("cutoff wavenumber", k_m, "wavenumber")
    c = CONSTANTS
    return c.e_charge**2 * mu**3 * c.a0**2 / (8.0 * math.pi * c.eps0)


def _hydrogen_shift_quad(k_m, tol: float) -> tuple[float, float]:
    mu = _require("cutoff wavenumber", k_m, "wavenumber")
    tol = _require("tol", tol, "tolerance")
    c = CONSTANTS
    a0 = c.a0
    # radial integral in units of a0: int r^4 exp(-2 r/a0) dr = a0^5 int u^4 exp(-2u) du
    prefactor = c.e_charge**2 * mu**3 / (24.0 * math.pi**2 * c.eps0 * a0**3) * 4.0 * math.pi * a0**5

    def integrand(u: float) -> float:
        return u**4 * math.exp(-2.0 * u)

    # ier = 0: qagi met epsrel <= tol on its running sum; a retest on the re-summed value can miss by a rounding
    value, abserr, _, ier = qagi(integrand, min(tol, 1e-10))
    if ier != 0:
        raise QuadratureError("hydrogen shift quadrature did not converge", abserr / abs(value))
    return prefactor * value, prefactor * abserr


def hydrogen_shift_numeric(k_m, tol: float = 1e-9) -> float:
    """The same 1s shift by adaptive radial quadrature (J).

    Integrates (e^2 kM^3 / (24 pi^2 eps0 a0^3)) * 4 pi * r^4 exp(-2 r/a0)
    without using the closed-form moment, to relative tolerance
    min(tol, 1e-10).  Raises QuadratureError when the quadrature reports
    that it did not meet it (a nonzero exit code).
    """
    value, _ = _hydrogen_shift_quad(k_m, tol)
    return value


def rydberg_shift_ratio(k_m) -> float:
    """Shift-to-binding-energy ratio (kM * a0)^3, within 3 eps: the cube triples eps/2 and adds an ulp."""
    mu = _require("cutoff wavenumber", k_m, "wavenumber")
    return (mu * CONSTANTS.a0) ** 3


def intimacy_radius(k_m) -> float:
    """Radius 1/kM of the region where the independent-dipole picture fails, within eps/2."""
    return 1.0 / _require("cutoff wavenumber", k_m, "wavenumber")


def cutoff_window(
    k_radiation: float,
    k_m,
    lower_threshold: float = DEFAULT_LOWER_THRESHOLD,
    upper_threshold: float = DEFAULT_UPPER_THRESHOLD,
) -> CutoffWindow:
    """Both window metrics and the combined admissibility verdict; lower_violation is within 3 eps."""
    mu = _require("cutoff wavenumber", k_m, "wavenumber")
    k_radiation = _require("radiation wavenumber", k_radiation, "wavenumber")
    lower_threshold = _require("lower_threshold", lower_threshold, "threshold")
    upper_threshold = _require("upper_threshold", upper_threshold, "threshold")
    # the filter's complement, exact for k << kM: k^2 at an ulp, kM*kM, the sum and the quotient at eps/2
    lower_violation = k_radiation**2 / (k_radiation**2 + mu * mu)
    upper_ratio = rydberg_shift_ratio(mu)
    return CutoffWindow(
        k_radiation=k_radiation,
        k_m=mu,
        lower_violation=lower_violation,
        upper_ratio=upper_ratio,
        lower_threshold=lower_threshold,
        upper_threshold=upper_threshold,
        admissible=(lower_violation <= lower_threshold and upper_ratio <= upper_threshold),
    )


def perturbation_report(k_m, tol: float = 1e-9) -> PerturbationReport:
    """Bundle the closed-form shift, its quadrature check, and the ratio.

    delta_u is quoted at the reference dipole e*a0, i.e. one third of the
    1s expectation value of the perturbing potential.
    """
    c = CONSTANTS
    numeric, numeric_err = _hydrogen_shift_quad(k_m, tol)
    return PerturbationReport(
        delta_u=transverse_self_energy(c.e_charge * c.a0, k_m),
        first_order_shift=hydrogen_first_order_shift(k_m),
        ratio_to_rydberg=rydberg_shift_ratio(k_m),
        numeric_shift=numeric,
        numeric_error_estimate=numeric_err,
    )
