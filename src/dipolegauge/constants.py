"""Physical constants (CODATA 2018, SI), conversions and input range checks.

Everything downstream works in SI; atomic-unit scales are derived
fields of the constant set.  Values are hardcoded rather than pulled from
scipy.constants so results do not shift with the CODATA revision shipped
by the installed scipy.  The range check every public numeric parameter
goes through (_require), the cutoff wavenumber limit and QuadratureError
live here too: they need only the standard library, and every module
imports this one.
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
    """Vacuum wavelength (m) -> angular frequency (rad/s)."""
    return 2.0 * math.pi * SPEED_OF_LIGHT / _require("lam", lam, "positive")


# ---------------------------------------------------------------------------
# Range checks and quadrature failure, shared by every module
# ---------------------------------------------------------------------------


class QuadratureError(RuntimeError):
    """Raised when a quadrature cannot reach the requested accuracy."""

    def __init__(self, message: str, achieved_error: float):
        super().__init__(f"{message} (achieved error estimate {achieved_error:.3e})")
        self.achieved_error = achieved_error


# Largest cutoff wavenumber accepted (1/m).  Energies and densities carry
# kM^3, which leaves the floats above about 5.6e102 /m, and kM^3/eps0, above
# about 3e99 /m; the limit keeps a wide margin for the factors beside them.
MAX_CUTOFF_WAVENUMBER = 1e90


def _require(name: str, value, kind: str, high: float = math.inf, unit: str = "") -> float:
    """float(value), or ValueError naming name unless it is finite, of kind and at most high.

    kind is "positive" (above zero), "nonnegative" (at least zero) or
    "finite" (either sign); unit follows high in the message.  Every
    comparison is False for NaN, so NaN is refused with the rest, and so is
    a value float() cannot convert, such as None.
    """
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    above_low = x > 0.0 if kind == "positive" else x >= 0.0 if kind == "nonnegative" else x > -math.inf
    if above_low and x <= high and x < math.inf:
        return x
    if high < math.inf:
        rule = f"{kind} and at most {high:g}{unit}"
    else:
        rule = "finite" if kind == "finite" else f"finite and {kind}"
    raise ValueError(f"{name} must be {rule}, got {x}")


def _power(name: str, x: float, n: int) -> float:
    """x**n for a checked x >= 0, or ValueError naming name when a nonzero x**n is not a normal float.

    Past the largest float Python's ** raises OverflowError, and below the
    smallest normal one the power rounds to a subnormal or 0, which as a
    divisor or factor gives ZeroDivisionError, inf or a result without its
    precision.  Formulas that multiply by x twice call it only as a check,
    so that their rounding order stays as it was.
    """
    try:
        p = x**n
    except OverflowError:
        p = math.inf
    if x == 0.0 or sys.float_info.min <= p < math.inf:
        return p
    raise ValueError(f"{name}**{n} must be a normal float, got {name} = {x}")


def _finite_result(what: str, value: float, **inputs: float) -> float:
    """value, or ValueError naming the inputs when the formula overflowed to inf."""
    if value < math.inf:
        return value
    given = ", ".join(f"{name} = {x}" for name, x in inputs.items())
    raise ValueError(f"{what} overflows the float range at {given}")


def _cutoff_value(k_m) -> float:
    """The cutoff wavenumber in 1/m, refused outside (0, MAX_CUTOFF_WAVENUMBER]."""
    return _require("cutoff wavenumber", k_m, "positive", MAX_CUTOFF_WAVENUMBER, " /m")
