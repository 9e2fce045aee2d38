"""Coupling constants, ultrastrong-coupling figures of merit, critical densities.

All three figure-of-merit routes are kept side by side so they can be
cross-checked: from an explicit mode and dipole moment, from a number
density with the transition quality factor, and from a number density with
hydrogen-like transition parameters.  A small registry of two-level
transition data (D lines for the alkalis, the 121.6 nm line for hydrogen)
feeds the species-based calls.

Registry file convention: linewidths are stored as full width at half
maximum in MHz of ordinary frequency, the form tabulated in atomic-data
references, and converted exactly once at ingestion to the angular
half-width gamma used internally (gamma = pi * fwhm_MHz * 1e6).
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .constants import ATOMIC_MASS_UNIT, CONSTANTS, wavelength_to_omega

# Tags identifying which formula produced a figure of merit
METHOD_COUPLING = "coupling"
METHOD_DENSITY_QUALITY = "density-quality"
METHOD_DENSITY_HYDROGENLIKE = "density-hydrogenlike"


@dataclass(frozen=True)
class AtomSpecies:
    """Single effective two-level transition of one atomic species."""

    name: str
    lambda_a: float  # transition wavelength (m)
    gamma_hwhm: float  # natural linewidth, half width at half maximum, angular (rad/s)
    mass: float  # atomic mass (kg)
    crystalline_density: float | None = None  # number density of the solid (1/m^3)
    dipole: float | None = None  # transition dipole moment (C*m); derived from gamma if absent

    def __post_init__(self):
        if self.lambda_a <= 0.0:
            raise ValueError(f"{self.name}: wavelength must be positive, got {self.lambda_a}")
        if self.gamma_hwhm <= 0.0:
            raise ValueError(f"{self.name}: linewidth must be positive, got {self.gamma_hwhm}")
        if self.mass <= 0.0:
            raise ValueError(f"{self.name}: mass must be positive, got {self.mass}")
        if self.crystalline_density is not None and self.crystalline_density <= 0.0:
            raise ValueError(f"{self.name}: crystalline density must be positive")

    @property
    def omega_a(self) -> float:
        """Transition angular frequency (rad/s)."""
        return wavelength_to_omega(self.lambda_a)

    @property
    def quality(self) -> float:
        return quality_factor(self.omega_a, self.gamma_hwhm)

    def dipole_moment(self) -> float:
        """Stored dipole moment, or the one implied by the linewidth (C*m)."""
        if self.dipole is not None:
            return self.dipole
        return dipole_from_linewidth(self.omega_a, self.gamma_hwhm)


@dataclass(frozen=True)
class ModeSpec:
    """One radiation mode: angular frequency (rad/s) and mode volume (m^3)."""

    omega: float
    volume: float

    def __post_init__(self):
        if self.omega <= 0.0 or self.volume <= 0.0:
            raise ValueError("mode frequency and volume must be positive")


@dataclass(frozen=True)
class FigureOfMeritReport:
    """Figure of merit N g^2/(omega omega_A) with the inputs that produced it.

    The value 1 marks the collective critical coupling; method records
    which of the three equivalent formulas was used.
    """

    value: float
    method: str
    n_atoms: float | None = None
    g: float | None = None
    omega: float | None = None
    omega_a: float | None = None
    density: float | None = None
    lambda_a: float | None = None
    quality: float | None = None


def coupling_g(mode: ModeSpec, d: float) -> float:
    """Single-dipole coupling constant sqrt(omega d^2/(2 hbar eps0 V)) in rad/s."""
    if d < 0.0:
        raise ValueError(f"dipole moment must be nonnegative, got {d}")
    c = CONSTANTS
    return math.sqrt(mode.omega * d * d / (2.0 * c.hbar * c.eps0 * mode.volume))


def figure_of_merit(n_atoms: float, g: float, omega: float, omega_a: float) -> FigureOfMeritReport:
    """N g^2/(omega omega_A) from an explicit coupling constant."""
    if n_atoms < 1:
        raise ValueError(f"atom count must be at least 1, got {n_atoms}")
    if g < 0.0 or omega <= 0.0 or omega_a <= 0.0:
        raise ValueError("coupling must be nonnegative and frequencies positive")
    return FigureOfMeritReport(
        value=n_atoms * g * g / (omega * omega_a),
        method=METHOD_COUPLING,
        n_atoms=n_atoms,
        g=g,
        omega=omega,
        omega_a=omega_a,
    )


def fom_density_q(density: float, lambda_a: float, quality: float) -> FigureOfMeritReport:
    """Figure of merit (N/V) lambda_A^3 (3/8 pi^2) / Q from a number density."""
    if density < 0.0:
        raise ValueError(f"density must be nonnegative, got {density}")
    if lambda_a <= 0.0 or quality <= 0.0:
        raise ValueError("wavelength and quality factor must be positive")
    return FigureOfMeritReport(
        value=density * lambda_a**3 * 3.0 / (8.0 * math.pi**2) / quality,
        method=METHOD_DENSITY_QUALITY,
        density=density,
        lambda_a=lambda_a,
        quality=quality,
    )


def fom_hydrogenlike(density: float) -> FigureOfMeritReport:
    """Figure of merit (N/V) 16 pi a0^3 for hydrogen-like transition parameters.

    The 16 pi coefficient assumes the transition frequency
    (3/8) m_e c^2 alpha^2 / hbar together with the squared dipole moment
    3 e^2 a0^2 (the ground-state expectation of d^2); with those inputs
    the density-quality form reduces to this one exactly.
    """
    if density < 0.0:
        raise ValueError(f"density must be nonnegative, got {density}")
    return FigureOfMeritReport(
        value=density * 16.0 * math.pi * CONSTANTS.a0**3,
        method=METHOD_DENSITY_HYDROGENLIKE,
        density=density,
    )


def critical_density(lambda_a: float, quality: float) -> float:
    """Density 8 pi^2 Q/(3 lambda_A^3) at which the figure of merit reaches 1."""
    if lambda_a <= 0.0 or quality <= 0.0:
        raise ValueError("wavelength and quality factor must be positive")
    return 8.0 * math.pi**2 * quality / (3.0 * lambda_a**3)


def dipole_from_linewidth(omega_a: float, gamma_hwhm: float) -> float:
    """Transition dipole moment implied by the spontaneous decay rate (C*m).

    Inverts gamma = omega_A^3 d^2/(6 pi eps0 hbar c^3) with gamma the
    angular half width at half maximum (half the decay rate).
    """
    if omega_a <= 0.0 or gamma_hwhm <= 0.0:
        raise ValueError("frequency and linewidth must be positive")
    c = CONSTANTS
    return math.sqrt(6.0 * math.pi * c.eps0 * c.hbar * c.c**3 * gamma_hwhm / omega_a**3)


def linewidth_from_dipole(omega_a: float, d: float) -> float:
    """Angular half width at half maximum for a given dipole moment (rad/s)."""
    if omega_a <= 0.0 or d < 0.0:
        raise ValueError("frequency must be positive and dipole nonnegative")
    c = CONSTANTS
    return omega_a**3 * d * d / (6.0 * math.pi * c.eps0 * c.hbar * c.c**3)


def quality_factor(omega_a: float, gamma_hwhm: float) -> float:
    """Resonance quality factor omega_A / gamma_hwhm."""
    if omega_a <= 0.0 or gamma_hwhm <= 0.0:
        raise ValueError("frequency and linewidth must be positive")
    return omega_a / gamma_hwhm


def species_critical_density(species: AtomSpecies) -> float:
    return critical_density(species.lambda_a, species.quality)


def crystalline_comparison(species: AtomSpecies) -> float:
    """Ratio of the critical density to the solid-state number density."""
    if species.crystalline_density is None:
        raise ValueError(f"{species.name}: no crystalline density on record")
    return species_critical_density(species) / species.crystalline_density


# ---------------------------------------------------------------------------
# Species registry ingestion
# ---------------------------------------------------------------------------

_CSV_FIELDS = ("name", "mass_amu", "lambda_nm", "gamma_fwhm_MHz", "crystalline_density_per_m3")


class RegistryError(ValueError):
    """Malformed species registry content."""


def _species_from_row(row: dict, where: str) -> AtomSpecies:
    def number(field: str) -> float | None:
        """The field as a positive finite float, or None when it is empty."""
        raw = row.get(field)
        if isinstance(raw, str):
            raw = raw.strip()
        if raw in (None, ""):
            return None
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise RegistryError(f"{where}: field {field!r} is not a number: {raw!r}") from None
        if not (value > 0.0 and math.isfinite(value)):
            raise RegistryError(f"{where}: field {field!r} must be positive and finite, got {value}")
        return value

    def required(field: str) -> float:
        value = number(field)
        if value is None:
            raise RegistryError(f"{where}: missing field {field!r}")
        return value

    name = (row.get("name") or "").strip()
    if not name:
        raise RegistryError(f"{where}: missing species name")
    return AtomSpecies(
        name=name,
        lambda_a=required("lambda_nm") * 1e-9,
        gamma_hwhm=math.pi * required("gamma_fwhm_MHz") * 1e6,
        mass=required("mass_amu") * ATOMIC_MASS_UNIT,
        crystalline_density=number("crystalline_density_per_m3"),
    )


def _parse_registry_csv(text: str, source: str) -> dict[str, AtomSpecies]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        warnings.warn(f"{source}: empty species registry", stacklevel=3)
        return {}
    missing = set(_CSV_FIELDS) - set(reader.fieldnames)
    if missing:
        raise RegistryError(f"{source}: missing columns {sorted(missing)}")
    registry: dict[str, AtomSpecies] = {}
    for line_no, row in enumerate(reader, start=2):
        species = _species_from_row(row, f"{source}:{line_no}")
        if species.name in registry:
            raise RegistryError(f"{source}:{line_no}: duplicate species {species.name!r}")
        registry[species.name] = species
    if not registry:
        warnings.warn(f"{source}: empty species registry", stacklevel=3)
    return registry


def _parse_registry_json(text: str, source: str) -> dict[str, AtomSpecies]:
    if not text.strip():
        warnings.warn(f"{source}: empty species registry", stacklevel=3)
        return {}
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RegistryError(f"{source}: invalid JSON: {exc}") from None
    rows = payload.get("species") if isinstance(payload, dict) else payload
    if not isinstance(rows, list):
        raise RegistryError(f"{source}: expected a list of species records")
    registry: dict[str, AtomSpecies] = {}
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            raise RegistryError(f"{source}: record {index} is not an object")
        species = _species_from_row(row, f"{source}: record {index}")
        if species.name in registry:
            raise RegistryError(f"{source}: duplicate species {species.name!r}")
        registry[species.name] = species
    if not registry:
        warnings.warn(f"{source}: empty species registry", stacklevel=3)
    return registry


def load_species_registry(path) -> dict[str, AtomSpecies]:
    """Load a registry file (CSV, or JSON when the suffix is .json)."""
    p = Path(path)
    text = p.read_text(encoding="utf-8")
    if p.suffix.lower() == ".json":
        return _parse_registry_json(text, str(p))
    return _parse_registry_csv(text, str(p))


def default_species_registry() -> dict[str, AtomSpecies]:
    """Registry shipped with the package (alkali D2 lines plus hydrogen)."""
    text = resources.files("dipolegauge.data").joinpath("species.csv").read_text(encoding="utf-8")
    return _parse_registry_csv(text, "builtin species.csv")
