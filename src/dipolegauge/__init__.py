"""Cutoff-filtered polarization kernels, coupling limits, Dicke criticality.

Subpackages by task:

- constants: CODATA 2018 values, derived atomic scales, conversions
- polarization: filtered transverse delta kernel and dipole fields
- cutoff_window: admissible interval for the cutoff wavenumber
- coupling: figures of merit, critical densities, species registry
- dicke: collective-model Hamiltonians, ground states, coupling scans
- ensemble: atom-configuration checks and residual pair overlaps
- cli: command-line interface over all of the above

The public names below are imported from their submodule on first access
(PEP 562), so `import dipolegauge` loads neither numpy nor scipy.
"""

import importlib

# The function cutoff_window shares its name with its submodule, and the first
# import of a submodule binds the module under that name here.  Binding the
# function now (its module needs only the standard library) keeps
# dipolegauge.cutoff_window the function whatever is imported later.
from .cutoff_window import cutoff_window

__version__ = "0.1.0"

_EXPORTS = {
    "constants": (
        "CONSTANTS", "PhysicalConstants", "derived_constants", "hydrogen_wavenumber", "QuadratureError",
    ),
    "coupling": (
        "AtomSpecies", "FigureOfMeritReport", "ModeSpec", "coupling_g", "critical_density",
        "crystalline_comparison", "default_species_registry", "dipole_from_linewidth", "figure_of_merit",
        "fom_density_q", "fom_hydrogenlike", "load_species_registry", "quality_factor",
    ),
    "cutoff_window": (
        "CutoffWindow", "PerturbationReport", "cutoff_window", "hydrogen_first_order_shift",
        "hydrogen_shift_numeric", "intimacy_radius", "perturbation_report", "rydberg_shift_ratio",
        "transverse_self_energy",
    ),
    "dicke": (
        "DickeParams", "GroundStateReport", "ScanRow", "build_hamiltonian", "crossing_estimate",
        "ground_state", "meanfield_order_parameter", "observables", "scan_coupling",
    ),
    "ensemble": (
        "AtomConfiguration", "OverlapReport", "config_figure_of_merit", "intimacy_violations",
        "load_configuration", "max_packing_density", "min_pairwise_distance", "residual_overlap_energy",
    ),
    "polarization": (
        "longitudinal_dipole_polarization", "radial_envelope", "suppression_factor",
        "total_residual_polarization", "transverse_delta_k", "transverse_delta_real_exact",
        "transverse_delta_real_far", "transverse_polarization",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _EXPORTS:  # a submodule, so dipolegauge.dicke works after a bare import
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
