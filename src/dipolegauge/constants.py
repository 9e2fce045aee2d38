"""Physical constants (CODATA 2018, SI), conversions and input domains.

Everything downstream works in SI; atomic-unit scales are derived
fields of the constant set.  Values are hardcoded rather than pulled from
scipy.constants so results do not shift with the CODATA revision shipped
by the installed scipy.  The table of input domains, the check every
public numeric parameter goes through (_require) and QuadratureError live
here too: they need only the standard library, and every module imports
this one.

DOMAINS holds one row per quantity.  Inside the rows no intermediate of
any formula overflows or leaves the normal floats, apart from a factor
exp(-kM r) that carries the result itself below them.  With x = kM r,
each row's limits keep these normal:

    wavenumber           1e-20 .. 1e90 /m        kM^3 (up to 1e270), kM^3 d^2/eps0; the
                                                 kernel's rounding bounds hold from 1e-20
    mode wavenumber      the same, or 0          k^2 + kM^2
    length               1e-30 .. 1e10 m         r^3, lambda^3; x from 1e-50 to 1e100, so
                                                 8 pi x^3 eps0 and x^3 d_A d_B
    radius               the same, or 0          P(3, kM r)
    volume               1e-90 .. 1e30 m^3       2 hbar eps0 V
    frequency            1e-30 .. 1e50 rad/s     omega_A^3, omega omega_A; holds 2 pi c/lambda
    coupling             1e-55 .. 1e75 rad/s,    N g^2/(omega omega_A) up to 1e290; holds
                         or 0                    sqrt(F omega omega_A)
    dipole moment        1e-100 .. 1 C*m, or 0   d_A d_B kM^3 from 1e-260, omega d^2,
                                                 x^3 d_A d_B up to 1e300
    density              1e-30 .. 1e60 /m^3,     n lambda^3/Q
                         or 0
    crystalline density  the same                the critical density divided by it
    mass                 1e-40 .. 1e10 kg        (no formula uses it)
    quality              1e-60 .. 1e80           8 pi^2 Q/(3 lambda^3); holds omega_A/gamma
    tolerance            1e-12 .. 1              above the overlap's relative rounding
                                                 bound (16 + 745) eps and QUADPACK's 50 eps
    threshold            1e-30 .. 1e30           (only compared)
    figure of merit      1e-40 .. 1e40, or 0     F^2, F omega omega_A
    atom number          1 .. 1e80               N g^2
    energy               any finite value        (reported as given)
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

# CODATA 2018 base values
SPEED_OF_LIGHT = 299792458.0  # m/s, exact
PLANCK = 6.62607015e-34  # J*s, exact
HBAR = PLANCK / (2.0 * math.pi)  # J*s
ELEMENTARY_CHARGE = 1.602176634e-19  # C, exact
ELECTRON_MASS = 9.1093837015e-31  # kg
FINE_STRUCTURE = 7.2973525693e-3  # dimensionless
VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m
ATOMIC_MASS_UNIT = 1.66053906660e-27  # kg


@dataclass(frozen=True)
class PhysicalConstants:
    """Base constants plus the derived atomic-scale quantities.

    Derived fields are computed from the base values, not quoted, so the
    identities a0 = hbar/(m_e c alpha), hartree = e^2/(4 pi eps0 a0) and
    rydberg = hartree/2 hold by construction.
    """

    c: float  # speed of light (m/s)
    hbar: float  # reduced Planck constant (J*s)
    eps0: float  # vacuum permittivity (F/m)
    e_charge: float  # elementary charge (C)
    m_e: float  # electron mass (kg)
    alpha: float  # fine-structure constant
    a0: float  # Bohr radius (m)
    hartree: float  # Hartree energy (J)
    rydberg: float  # Rydberg energy (J)


def derived_constants() -> PhysicalConstants:
    """Assemble the shared constant set with derived fields computed."""
    a0 = HBAR / (ELECTRON_MASS * SPEED_OF_LIGHT * FINE_STRUCTURE)
    hartree = ELEMENTARY_CHARGE**2 / (4.0 * math.pi * VACUUM_PERMITTIVITY * a0)
    return PhysicalConstants(
        c=SPEED_OF_LIGHT,
        hbar=HBAR,
        eps0=VACUUM_PERMITTIVITY,
        e_charge=ELEMENTARY_CHARGE,
        m_e=ELECTRON_MASS,
        alpha=FINE_STRUCTURE,
        a0=a0,
        hartree=hartree,
        rydberg=hartree / 2.0,
    )


CONSTANTS = derived_constants()

BOHR_RADIUS = CONSTANTS.a0  # m
HARTREE = CONSTANTS.hartree  # J
RYDBERG = CONSTANTS.rydberg  # J


def hydrogen_wavenumber() -> float:
    """Characteristic wavenumber of the strongest hydrogen transition (1/m).

    The transition energy (3/8) m_e c^2 alpha^2 divided by hbar*c reduces
    to 3*alpha/(8*a0); the matching wavelength is the 121.5 nm line.
    """
    return 3.0 * FINE_STRUCTURE / (8.0 * BOHR_RADIUS)


def wavelength_to_omega(lam: float) -> float:
    """Vacuum wavelength (m) -> angular frequency (rad/s).

    Within 1.5 eps of 2 pi c/lam: math.pi lies 0.35 u from pi (u = eps/2),
    and the product with c and the quotient round by at most u each.
    """
    return 2.0 * math.pi * SPEED_OF_LIGHT / _require("lam", lam, "length")


# ---------------------------------------------------------------------------
# Input domains and quadrature failure, shared by every module
# ---------------------------------------------------------------------------


class QuadratureError(RuntimeError):
    """Raised when a quadrature cannot reach the requested accuracy."""

    def __init__(self, message: str, achieved_error: float):
        super().__init__(f"{message} (achieved error estimate {achieved_error:.3e})")
        self.achieved_error = achieved_error


# quantity: (smallest nonzero value, largest value, unit, whether 0 is allowed);
# a row whose lower limit is negative takes either sign.  The module docstring
# names what each row's limits keep normal.
DOMAINS = {
    "wavenumber": (1e-20, 1e90, " /m", False),
    "mode wavenumber": (1e-20, 1e90, " /m", True),
    "length": (1e-30, 1e10, " m", False),
    "radius": (1e-30, 1e10, " m", True),
    "volume": (1e-90, 1e30, " m^3", False),
    "frequency": (1e-30, 1e50, " rad/s", False),
    "coupling": (1e-55, 1e75, " rad/s", True),
    "dipole moment": (1e-100, 1.0, " C*m", True),
    "density": (1e-30, 1e60, " /m^3", True),
    "crystalline density": (1e-30, 1e60, " /m^3", False),
    "mass": (1e-40, 1e10, " kg", False),
    "quality": (1e-60, 1e80, "", False),
    "tolerance": (1e-12, 1.0, "", False),
    "threshold": (1e-30, 1e30, "", False),
    "figure of merit": (1e-40, 1e40, "", True),
    "atom number": (1.0, 1e80, "", False),
    "energy": (-sys.float_info.max, sys.float_info.max, " rad/s", True),
}


def _require(name: str, value, quantity: str) -> float:
    """float(value), or ValueError naming name unless it lies in the domain DOMAINS[quantity].

    Every comparison is False for NaN, so NaN is refused with the
    infinities, and so is a value float() cannot convert, such as None.
    """
    low, high, unit, zero = DOMAINS[quantity]
    try:
        x = float(value)
    except OverflowError:  # an int beyond the floats
        x = math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if low <= x <= high or (zero and x == 0.0):
        return x
    raise ValueError(f"{name} must be {'0 or ' if zero else ''}from {low:g} to {high:g}{unit}, got {x}")
