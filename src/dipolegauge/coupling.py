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

from .constants import ATOMIC_MASS_UNIT, CONSTANTS, _finite_result, _power, _require, wavelength_to_omega

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

    def __post_init__(self):
        for field in ("lambda_a", "gamma_hwhm", "mass", "crystalline_density"):
            value = getattr(self, field)
            if value is not None:
                _require(f"{self.name}: {field}", value, "positive")

    @property
    def omega_a(self) -> float:
        """Transition angular frequency (rad/s)."""
        return wavelength_to_omega(self.lambda_a)

    @property
    def quality(self) -> float:
        return quality_factor(self.omega_a, self.gamma_hwhm)


@dataclass(frozen=True)
class ModeSpec:
    """One radiation mode: angular frequency (rad/s) and mode volume (m^3)."""

    omega: float
    volume: float

    def __post_init__(self):
        _require("omega", self.omega, "positive")
        _require("volume", self.volume, "positive")


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
    d = _require("d", d, "nonnegative")
    c = CONSTANTS
    _power("d", d, 2)
    g = math.sqrt(mode.omega * d * d / (2.0 * c.hbar * c.eps0 * mode.volume))
    return _finite_result("coupling constant", g, omega=mode.omega, volume=mode.volume, d=d)


def figure_of_merit(n_atoms: float, g: float, omega: float, omega_a: float) -> FigureOfMeritReport:
    """N g^2/(omega omega_A) from an explicit coupling constant."""
    if not 1.0 <= n_atoms < math.inf:  # NaN included
        raise ValueError(f"n_atoms must be finite and at least 1, got {n_atoms}")
    g = _require("g", g, "nonnegative")
    omega = _require("omega", omega, "positive")
    omega_a = _require("omega_a", omega_a, "positive")
    _power("g", g, 2)
    value = n_atoms * g * g / (omega * omega_a)
    return FigureOfMeritReport(
        value=_finite_result("figure of merit", value, n_atoms=n_atoms, g=g, omega=omega, omega_a=omega_a),
        method=METHOD_COUPLING,
        n_atoms=n_atoms,
        g=g,
        omega=omega,
        omega_a=omega_a,
    )


def fom_density_q(density: float, lambda_a: float, quality: float) -> FigureOfMeritReport:
    """Figure of merit (N/V) lambda_A^3 (3/8 pi^2) / Q from a number density."""
    density = _require("density", density, "nonnegative")
    lambda_a = _require("lambda_a", lambda_a, "positive")
    quality = _require("quality", quality, "positive")
    value = density * _power("lambda_a", lambda_a, 3) * 3.0 / (8.0 * math.pi**2) / quality
    return FigureOfMeritReport(
        value=_finite_result("figure of merit", value, density=density, lambda_a=lambda_a, quality=quality),
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
    density = _require("density", density, "nonnegative")
    return FigureOfMeritReport(
        value=density * 16.0 * math.pi * CONSTANTS.a0**3,
        method=METHOD_DENSITY_HYDROGENLIKE,
        density=density,
    )


def critical_density(lambda_a: float, quality: float) -> float:
    """Density 8 pi^2 Q/(3 lambda_A^3) at which the figure of merit reaches 1."""
    lambda_a = _require("lambda_a", lambda_a, "positive")
    quality = _require("quality", quality, "positive")
    density = 8.0 * math.pi**2 * quality / (3.0 * _power("lambda_a", lambda_a, 3))
    return _finite_result("critical density", density, lambda_a=lambda_a, quality=quality)


def dipole_from_linewidth(omega_a: float, gamma_hwhm: float) -> float:
    """Transition dipole moment implied by the spontaneous decay rate (C*m).

    Inverts gamma = omega_A^3 d^2/(6 pi eps0 hbar c^3) with gamma the
    angular half width at half maximum (half the decay rate).
    """
    omega_a = _require("omega_a", omega_a, "positive")
    gamma_hwhm = _require("gamma_hwhm", gamma_hwhm, "positive")
    c = CONSTANTS
    d = math.sqrt(6.0 * math.pi * c.eps0 * c.hbar * c.c**3 * gamma_hwhm / _power("omega_a", omega_a, 3))
    return _finite_result("dipole moment", d, omega_a=omega_a, gamma_hwhm=gamma_hwhm)


def quality_factor(omega_a: float, gamma_hwhm: float) -> float:
    """Resonance quality factor omega_A / gamma_hwhm."""
    return _require("omega_a", omega_a, "positive") / _require("gamma_hwhm", gamma_hwhm, "positive")


def species_critical_density(species: AtomSpecies) -> float:
    try:
        return critical_density(species.lambda_a, species.quality)
    except ValueError as exc:
        raise ValueError(f"{species.name}: {exc}") from None


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


def _csv_records(text: str, source: str):
    """(where, row) for each data line of a CSV registry; nothing for an empty file."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is not None:
        missing = set(_CSV_FIELDS) - set(reader.fieldnames)
        if missing:
            raise RegistryError(f"{source}: missing columns {sorted(missing)}")
    for line_no, row in enumerate(reader, start=2):
        yield f"{source}:{line_no}", row


def _json_records(text: str, source: str):
    """(where, row) for each record of a JSON registry; nothing for a blank file."""
    if not text.strip():
        return
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RegistryError(f"{source}: invalid JSON: {exc}") from None
    rows = payload.get("species") if isinstance(payload, dict) else payload
    if not isinstance(rows, list):
        raise RegistryError(f"{source}: expected a list of species records")
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            raise RegistryError(f"{source}: record {index} is not an object")
        yield f"{source}: record {index}", row


def _ingest(records, source: str) -> dict[str, AtomSpecies]:
    """Registry from (where, row) records: one species per row, names unique."""
    registry: dict[str, AtomSpecies] = {}
    for where, row in records:
        species = _species_from_row(row, where)
        if species.name in registry:
            raise RegistryError(f"{where}: duplicate species {species.name!r}")
        registry[species.name] = species
    if not registry:
        warnings.warn(f"{source}: empty species registry", stacklevel=3)
    return registry


def load_species_registry(path) -> dict[str, AtomSpecies]:
    """Load a registry file (CSV, or JSON when the suffix is .json)."""
    p = Path(path)
    text = p.read_text(encoding="utf-8")
    records = _json_records if p.suffix.lower() == ".json" else _csv_records
    return _ingest(records(text, str(p)), str(p))


def default_species_registry() -> dict[str, AtomSpecies]:
    """Registry shipped with the package (alkali D2 lines plus hydrogen)."""
    text = resources.files("dipolegauge.data").joinpath("species.csv").read_text(encoding="utf-8")
    return _ingest(_csv_records(text, "builtin species.csv"), "builtin species.csv")
