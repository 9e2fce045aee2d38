"""Cutoff-filtered polarization kernels, coupling limits, Dicke criticality.

Subpackages by task:

- constants: CODATA 2018 values, derived atomic scales, conversions
- polarization: filtered transverse delta kernel and dipole fields
- cutoff_window: admissible interval for the cutoff wavenumber
- coupling: figures of merit, critical densities, species registry
- dicke: collective-model Hamiltonians, ground states, coupling scans
- ensemble: atom-configuration checks and residual pair overlaps
- cli: command-line interface over all of the above
"""

__version__ = "0.1.0"

from .constants import CONSTANTS, PhysicalConstants, derived_constants, hydrogen_wavenumber
from .coupling import (
    AtomSpecies,
    FigureOfMeritReport,
    ModeSpec,
    coupling_g,
    critical_density,
    crystalline_comparison,
    default_species_registry,
    dipole_from_linewidth,
    figure_of_merit,
    fom_density_q,
    fom_hydrogenlike,
    load_species_registry,
    quality_factor,
)
from .cutoff_window import (
    CutoffWindow,
    PerturbationReport,
    cutoff_window,
    hydrogen_first_order_shift,
    hydrogen_shift_numeric,
    intimacy_radius,
    perturbation_report,
    rydberg_shift_ratio,
    transverse_self_energy,
)
from .dicke import (
    DickeParams,
    GroundStateReport,
    ScanRow,
    build_hamiltonian,
    crossing_estimate,
    fock_convergence,
    ground_state,
    meanfield_order_parameter,
    observables,
    scan_coupling,
)
from .ensemble import (
    AtomConfiguration,
    OverlapReport,
    config_figure_of_merit,
    intimacy_violations,
    load_configuration,
    max_packing_density,
    min_pairwise_distance,
    residual_overlap_energy,
)
from .polarization import (
    CutoffParameter,
    QuadratureError,
    longitudinal_dipole_polarization,
    radial_envelope,
    suppression_factor,
    total_residual_polarization,
    transverse_delta_k,
    transverse_delta_real_exact,
    transverse_delta_real_far,
    transverse_polarization,
)
