"""Every public scalar float parameter refuses NaN, infinities and out-of-range values.

The cases are generated from one table of valid base arguments: each float
parameter in turn takes NaN, +inf, -inf and the out-of-range values of its
rule, and the call must raise a ValueError whose message names the
parameter.  Finite arguments whose powers or results leave the float
range are refused by name the same way.  A second test keeps the table complete: every public callable
with a float parameter (everything in dipolegauge.__all__ plus
constants.wavelength_to_omega and ensemble.overlap_envelope_bound) must be
listed, result records aside.
"""

import inspect
import math
import re

import numpy as np
import pytest

import dipolegauge
from dipolegauge import constants, ensemble
from dipolegauge.constants import MAX_CUTOFF_WAVENUMBER
from dipolegauge.coupling import AtomSpecies, ModeSpec
from dipolegauge.dicke import DickeParams, ScanRow
from dipolegauge.ensemble import AtomConfiguration

MU = 1e10  # 1/m
D0 = 8.5e-30  # C*m

# Out-of-range values by rule, beside NaN and +/-inf.
OUT_OF_RANGE = {
    "positive": [0.0, -1.0],
    "nonnegative": [-1.0],
    "finite": [],
    "wavenumber": [0.0, -1.0, math.nextafter(MAX_CUTOFF_WAVENUMBER, math.inf)],
    "at least 1": [0.5, 0.0],
}
# Message labels of parameters whose name does not appear in it.
LABELS = {"k_m": "cutoff wavenumber", "k_radiation": "radiation wavenumber"}

# Records the library returns (and the quadrature exception): their fields are outputs, not inputs.
RECORDS = {
    "CutoffWindow", "FigureOfMeritReport", "GroundStateReport", "OverlapReport", "PerturbationReport",
    "PhysicalConstants", "QuadratureError", "ScanRow",
}


def _pair_config():
    return AtomConfiguration(
        positions=[[0.0, 0.0, 0.0], [0.0, 0.0, 1e-9]], dipoles=[[0.0, 0.0, D0], [0.0, 0.0, D0]], volume=1e-27
    )


# name -> (callable, valid keyword arguments, {float parameter: rule})
CASES = {
    "wavelength_to_omega": (constants.wavelength_to_omega, {"lam": 780e-9}, {"lam": "positive"}),
    "AtomSpecies": (
        AtomSpecies,
        {"name": "x", "lambda_a": 780e-9, "gamma_hwhm": 1.9e7, "mass": 1.4e-25, "crystalline_density": 1e28},
        {"lambda_a": "positive", "gamma_hwhm": "positive", "mass": "positive", "crystalline_density": "positive"},
    ),
    "ModeSpec": (ModeSpec, {"omega": 1e15, "volume": 1e-18}, {"omega": "positive", "volume": "positive"}),
    "coupling_g": (dipolegauge.coupling_g, {"mode": ModeSpec(1e15, 1e-18), "d": 1e-29}, {"d": "nonnegative"}),
    "figure_of_merit": (
        dipolegauge.figure_of_merit,
        {"n_atoms": 10.0, "g": 1e9, "omega": 1e15, "omega_a": 1e15},
        {"n_atoms": "at least 1", "g": "nonnegative", "omega": "positive", "omega_a": "positive"},
    ),
    "fom_density_q": (
        dipolegauge.fom_density_q,
        {"density": 1e20, "lambda_a": 780e-9, "quality": 1e7},
        {"density": "nonnegative", "lambda_a": "positive", "quality": "positive"},
    ),
    "fom_hydrogenlike": (dipolegauge.fom_hydrogenlike, {"density": 1e20}, {"density": "nonnegative"}),
    "critical_density": (
        dipolegauge.critical_density,
        {"lambda_a": 780e-9, "quality": 1e7},
        {"lambda_a": "positive", "quality": "positive"},
    ),
    "dipole_from_linewidth": (
        dipolegauge.dipole_from_linewidth,
        {"omega_a": 2.4e15, "gamma_hwhm": 1.9e7},
        {"omega_a": "positive", "gamma_hwhm": "positive"},
    ),
    "quality_factor": (
        dipolegauge.quality_factor,
        {"omega_a": 2.4e15, "gamma_hwhm": 1.9e7},
        {"omega_a": "positive", "gamma_hwhm": "positive"},
    ),
    "transverse_self_energy": (
        dipolegauge.transverse_self_energy,
        {"d": D0, "k_m": MU},
        {"d": "nonnegative", "k_m": "wavenumber"},
    ),
    "hydrogen_first_order_shift": (dipolegauge.hydrogen_first_order_shift, {"k_m": MU}, {"k_m": "wavenumber"}),
    "hydrogen_shift_numeric": (
        dipolegauge.hydrogen_shift_numeric,
        {"k_m": MU, "tol": 1e-9},
        {"k_m": "wavenumber", "tol": "positive"},
    ),
    "rydberg_shift_ratio": (dipolegauge.rydberg_shift_ratio, {"k_m": MU}, {"k_m": "wavenumber"}),
    "intimacy_radius": (dipolegauge.intimacy_radius, {"k_m": MU}, {"k_m": "wavenumber"}),
    "cutoff_window": (
        dipolegauge.cutoff_window,
        {"k_radiation": 1e7, "k_m": MU, "lower_threshold": 0.01, "upper_threshold": 0.15},
        {"k_radiation": "wavenumber", "k_m": "wavenumber", "lower_threshold": "positive", "upper_threshold": "positive"},
    ),
    "perturbation_report": (
        dipolegauge.perturbation_report,
        {"k_m": MU, "tol": 1e-9},
        {"k_m": "wavenumber", "tol": "positive"},
    ),
    "DickeParams": (
        DickeParams,
        {"n_atoms": 4, "omega": 1.0, "omega_a": 1.0, "g_collective": 0.5},
        {"omega": "positive", "omega_a": "positive", "g_collective": "nonnegative"},
    ),
    "DickeParams.from_figure_of_merit": (
        DickeParams.from_figure_of_merit,
        {"n_atoms": 4, "fom": 0.5, "omega": 1.0, "omega_a": 1.0},
        {"fom": "nonnegative", "omega": "positive", "omega_a": "positive"},
    ),
    "ground_state": (dipolegauge.ground_state, {"h": np.diag([1.0, 2.0]), "tol": 1e-10}, {"tol": "positive"}),
    "observables": (
        dipolegauge.observables,
        {"state": np.eye(4)[0], "p": DickeParams(1, 1.0, 1.0, 0.0, n_max=1), "energy": -0.5},
        {"energy": "finite"},
    ),
    "meanfield_order_parameter": (
        dipolegauge.meanfield_order_parameter,
        {"fom": 2.0, "omega": 1.0, "omega_a": 1.0},
        {"fom": "nonnegative", "omega": "positive", "omega_a": "positive"},
    ),
    "crossing_estimate": (
        dipolegauge.crossing_estimate,
        {"rows": [ScanRow(fom=0.0, n_atoms=4, photon_fraction=0.0), ScanRow(fom=1.0, n_atoms=4, photon_fraction=0.1)],
         "threshold": 0.05},
        {"threshold": "nonnegative"},
    ),
    "AtomConfiguration": (
        AtomConfiguration,
        {"positions": [[0.0, 0.0, 0.0], [0.0, 0.0, 1e-9]], "dipoles": np.zeros((2, 3)), "volume": 1e-27},
        {"volume": "positive"},
    ),
    "intimacy_violations": (
        dipolegauge.intimacy_violations,
        {"config": _pair_config(), "k_m": MU},
        {"k_m": "wavenumber"},
    ),
    "max_packing_density": (dipolegauge.max_packing_density, {"k_m": MU}, {"k_m": "wavenumber"}),
    "residual_overlap_energy": (
        dipolegauge.residual_overlap_energy,
        {"config": _pair_config(), "pair": (0, 1), "k_m": MU, "tol": 1e-6},
        {"k_m": "wavenumber", "tol": "positive"},
    ),
    "overlap_envelope_bound": (
        ensemble.overlap_envelope_bound,
        {"d_a": D0, "d_b": D0, "k_m": MU, "separation": 1e-9},
        {"d_a": "nonnegative", "d_b": "nonnegative", "k_m": "wavenumber", "separation": "positive"},
    ),
    "suppression_factor": (
        dipolegauge.suppression_factor,
        {"k_m": MU, "k": 1e7},
        {"k_m": "wavenumber", "k": "nonnegative"},
    ),
    "radial_envelope": (
        dipolegauge.radial_envelope,
        {"k_m": MU, "r": 1e-10},
        {"k_m": "wavenumber", "r": "nonnegative"},
    ),
    "transverse_delta_k": (dipolegauge.transverse_delta_k, {"k_m": MU, "k_vec": [1e7, 0.0, 0.0]}, {"k_m": "wavenumber"}),
    "transverse_delta_real_exact": (
        dipolegauge.transverse_delta_real_exact,
        {"k_m": MU, "x": [1e-10, 0.0, 0.0]},
        {"k_m": "wavenumber"},
    ),
    "transverse_delta_real_far": (
        dipolegauge.transverse_delta_real_far,
        {"k_m": MU, "x": [1e-10, 0.0, 0.0]},
        {"k_m": "wavenumber"},
    ),
    "transverse_polarization": (
        dipolegauge.transverse_polarization,
        {"d": [0.0, 0.0, D0], "x_a": [0.0, 0.0, 0.0], "k_m": MU, "x": [1e-10, 0.0, 0.0]},
        {"k_m": "wavenumber"},
    ),
    "total_residual_polarization": (
        dipolegauge.total_residual_polarization,
        {"d": [0.0, 0.0, D0], "x_a": [0.0, 0.0, 0.0], "k_m": MU, "x": [1e-10, 0.0, 0.0]},
        {"k_m": "wavenumber"},
    ),
}


def _float_parameters(fn) -> set[str]:
    """Parameters annotated float (or float | None), and every cutoff k_m."""
    return {
        name
        for name, parameter in inspect.signature(fn).parameters.items()
        if name == "k_m" or "float" in str(parameter.annotation)
    }


def _bad_cases():
    for case, (_, _, rules) in CASES.items():
        for parameter, rule in rules.items():
            for bad in [math.nan, math.inf, -math.inf, *OUT_OF_RANGE[rule]]:
                yield pytest.param(case, parameter, bad, id=f"{case}-{parameter}-{bad!r}")


@pytest.mark.parametrize("case, parameter, bad", _bad_cases())
def test_out_of_range_float_refused_by_name(case, parameter, bad):
    fn, base, _ = CASES[case]
    with pytest.raises(ValueError, match=re.escape(LABELS.get(parameter, parameter))):
        fn(**{**base, parameter: bad})


# Finite arguments whose powers, or whose results, leave the float range:
# (case, arguments replaced in its base, parameter the message must name).
FLOAT_RANGE = [
    ("critical_density", {"lambda_a": 1e-120}, "lambda_a"),
    ("critical_density", {"lambda_a": 1e200}, "lambda_a"),
    ("critical_density", {"lambda_a": 1e-100, "quality": 1e10}, "quality"),
    ("fom_density_q", {"lambda_a": 1e-120}, "lambda_a"),
    ("fom_density_q", {"lambda_a": 1e200}, "lambda_a"),
    ("dipole_from_linewidth", {"omega_a": 1e-200}, "omega_a"),
    ("dipole_from_linewidth", {"omega_a": 1e200}, "omega_a"),
    ("dipole_from_linewidth", {"omega_a": 1e-100, "gamma_hwhm": 1e300}, "gamma_hwhm"),
    ("transverse_self_energy", {"d": 1e200}, "d"),
    ("transverse_self_energy", {"d": 1e-200}, "d"),
    ("transverse_self_energy", {"d": 1e150}, "d"),
    ("coupling_g", {"d": 1e200}, "d"),
    ("coupling_g", {"d": 1e-200}, "d"),
    ("coupling_g", {"mode": ModeSpec(1e300, 1e-250)}, "volume"),
    ("figure_of_merit", {"g": 1e200}, "g"),
    ("meanfield_order_parameter", {"fom": 1e200}, "fom"),
]


@pytest.mark.parametrize(
    "case, overrides, parameter",
    [pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in FLOAT_RANGE],
)
def test_out_of_float_range_refused_by_name(case, overrides, parameter):
    fn, base, _ = CASES[case]
    with pytest.raises(ValueError, match=rf"\b{parameter}\b"):
        fn(**{**base, **overrides})


@pytest.mark.parametrize("case", CASES)
def test_base_arguments_accepted(case):
    fn, base, _ = CASES[case]
    fn(**base)


def test_table_covers_every_public_float_parameter():
    public = {name: getattr(dipolegauge, name) for name in dipolegauge.__all__}
    public["wavelength_to_omega"] = constants.wavelength_to_omega
    public["overlap_envelope_bound"] = ensemble.overlap_envelope_bound
    for name, fn in public.items():
        if name in RECORDS or not callable(fn):
            continue
        listed = set(CASES[name][2]) if name in CASES else set()
        assert listed == _float_parameters(fn), name
