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

Rounding bounds are relative to the exact value for the float inputs and
constants, counted to first order: each product, quotient and sum at
eps/2, math.pi at eps/2 (it lies 0.35 eps/2 from pi), a power at one ulp,
and a square root at half its argument's error plus eps/2.
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

from .constants import ATOMIC_MASS_UNIT, CONSTANTS, _require, wavelength_to_omega

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
        for field, quantity in (
            ("lambda_a", "length"),
            ("gamma_hwhm", "frequency"),
            ("mass", "mass"),
            ("crystalline_density", "crystalline density"),
        ):
            value = getattr(self, field)
            if value is not None:
                _require(f"{self.name}: {field}", value, quantity)

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
        _require("omega", self.omega, "frequency")
        _require("volume", self.volume, "volume")


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
    """Single-dipole coupling constant sqrt(omega d^2/(2 hbar eps0 V)) in rad/s.

    Within 1.75 eps: five roundings under the root (2 hbar is exact), halved,
    and the root's own.
    """
    d = _require("d", d, "dipole moment")
    c = CONSTANTS
    return math.sqrt(mode.omega * d * d / (2.0 * c.hbar * c.eps0 * mode.volume))


def figure_of_merit(n_atoms: float, g: float, omega: float, omega_a: float) -> FigureOfMeritReport:
    """N g^2/(omega omega_A) from an explicit coupling constant, within 2 eps: four roundings."""
    n_atoms = _require("n_atoms", n_atoms, "atom number")
    g = _require("g", g, "coupling")
    omega = _require("omega", omega, "frequency")
    omega_a = _require("omega_a", omega_a, "frequency")
    return FigureOfMeritReport(
        value=n_atoms * g * g / (omega * omega_a),
        method=METHOD_COUPLING,
        n_atoms=n_atoms,
        g=g,
        omega=omega,
        omega_a=omega_a,
    )


def fom_density_q(density: float, lambda_a: float, quality: float) -> FigureOfMeritReport:
    """Figure of merit (N/V) lambda_A^3 (3/8 pi^2) / Q from a number density.

    Within 5 eps: four roundings, the two powers at one ulp each, and
    math.pi's error doubled by the square (8 pi^2 is exact past that).
    """
    density = _require("density", density, "density")
    lambda_a = _require("lambda_a", lambda_a, "length")
    quality = _require("quality", quality, "quality")
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
    the density-quality form reduces to this one exactly.  Within 2.5 eps:
    two roundings (times 16 is exact), math.pi's, and a0^3 at one ulp.
    """
    density = _require("density", density, "density")
    return FigureOfMeritReport(
        value=density * 16.0 * math.pi * CONSTANTS.a0**3,
        method=METHOD_DENSITY_HYDROGENLIKE,
        density=density,
    )


def critical_density(lambda_a: float, quality: float) -> float:
    """Density 8 pi^2 Q/(3 lambda_A^3) at which the figure of merit reaches 1.

    Within 4.5 eps: three roundings, the two powers at one ulp each, and
    math.pi's error doubled by the square.
    """
    lambda_a = _require("lambda_a", lambda_a, "length")
    quality = _require("quality", quality, "quality")
    return 8.0 * math.pi**2 * quality / (3.0 * lambda_a**3)


def dipole_from_linewidth(omega_a: float, gamma_hwhm: float) -> float:
    """Transition dipole moment implied by the spontaneous decay rate (C*m).

    Inverts gamma = omega_A^3 d^2/(6 pi eps0 hbar c^3) with gamma the
    angular half width at half maximum (half the decay rate).  Within
    3.25 eps: under the root six roundings, math.pi's, and c^3 and omega_A^3
    at one ulp each (11 eps/2), halved, and the root's own.
    """
    omega_a = _require("omega_a", omega_a, "frequency")
    gamma_hwhm = _require("gamma_hwhm", gamma_hwhm, "frequency")
    c = CONSTANTS
    return math.sqrt(6.0 * math.pi * c.eps0 * c.hbar * c.c**3 * gamma_hwhm / omega_a**3)


def quality_factor(omega_a: float, gamma_hwhm: float) -> float:
    """Resonance quality factor omega_A / gamma_hwhm, within eps/2: one quotient."""
    return _require("omega_a", omega_a, "frequency") / _require("gamma_hwhm", gamma_hwhm, "frequency")


def species_critical_density(species: AtomSpecies) -> float:
    """critical_density of the species' transition; AtomSpecies keeps lambda_A and Q inside their domains.

    Within 6.5 eps of 16 pi^3 c/(3 lambda_A^4 gamma): critical_density's
    4.5 eps, omega_A's 1.5 eps (wavelength_to_omega) and Q's quotient.
    """
    return critical_density(species.lambda_a, species.quality)


def crystalline_comparison(species: AtomSpecies) -> float:
    """Ratio of the critical density to the solid-state number density, within 7 eps.

    species_critical_density's 6.5 eps and the quotient's eps/2.
    """
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
    fields = dict(
        lambda_a=required("lambda_nm") * 1e-9,
        gamma_hwhm=math.pi * required("gamma_fwhm_MHz") * 1e6,
        mass=required("mass_amu") * ATOMIC_MASS_UNIT,
        crystalline_density=number("crystalline_density_per_m3"),
    )
    try:
        return AtomSpecies(name=name, **fields)
    except ValueError as exc:  # a value outside its domain
        raise RegistryError(f"{where}: {exc}") from None


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
