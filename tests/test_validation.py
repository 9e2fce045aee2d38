"""Every public scalar float parameter refuses values outside its domain, and every call is total.

The cases are generated from one table of valid base arguments: each float
parameter names the row of constants.DOMAINS that holds its domain, and in
turn takes NaN, +inf, -inf and the values just outside that row's limits;
the call must raise a ValueError whose message names the parameter.  A
seeded property draws every float parameter of every case over the whole
float range, and each call must return finite values or raise such a
ValueError.  A further test keeps the table complete: every public
callable with a float parameter (everything in dipolegauge.__all__ plus
constants.wavelength_to_omega and ensemble.overlap_envelope_bound) must be
listed, result records aside, and every rule must name a row.
"""

import dataclasses
import inspect
import itertools
import math
import re

import numpy as np
import pytest

import dipolegauge
from dipolegauge import constants, ensemble
from dipolegauge.constants import DOMAINS
from dipolegauge.coupling import AtomSpecies, ModeSpec
from dipolegauge.dicke import DickeParams, ScanRow
from dipolegauge.ensemble import AtomConfiguration

MU = 1e10  # 1/m
D0 = 8.5e-30  # C*m


def _out_of_range(quantity: str) -> list[float]:
    """Finite values just outside the row's limits, far below its floor, and 0 or -1 where refused."""
    low, high, _, zero = DOMAINS[quantity]
    values = [math.nextafter(low, -math.inf), math.nextafter(high, math.inf)]
    if low > 0.0:
        values += [low / 2.0, -1.0] + ([] if zero else [0.0])
    return [v for v in values if math.isfinite(v)]


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


# name -> (callable, valid keyword arguments, {float parameter: its row of DOMAINS})
CASES = {
    "wavelength_to_omega": (constants.wavelength_to_omega, {"lam": 780e-9}, {"lam": "length"}),
    "AtomSpecies": (
        AtomSpecies,
        {"name": "x", "lambda_a": 780e-9, "gamma_hwhm": 1.9e7, "mass": 1.4e-25, "crystalline_density": 1e28},
        {"lambda_a": "length", "gamma_hwhm": "frequency", "mass": "mass", "crystalline_density": "crystalline density"},
    ),
    "ModeSpec": (ModeSpec, {"omega": 1e15, "volume": 1e-18}, {"omega": "frequency", "volume": "volume"}),
    "coupling_g": (dipolegauge.coupling_g, {"mode": ModeSpec(1e15, 1e-18), "d": 1e-29}, {"d": "dipole moment"}),
    "figure_of_merit": (
        dipolegauge.figure_of_merit,
        {"n_atoms": 10.0, "g": 1e9, "omega": 1e15, "omega_a": 1e15},
        {"n_atoms": "atom number", "g": "coupling", "omega": "frequency", "omega_a": "frequency"},
    ),
    "fom_density_q": (
        dipolegauge.fom_density_q,
        {"density": 1e20, "lambda_a": 780e-9, "quality": 1e7},
        {"density": "density", "lambda_a": "length", "quality": "quality"},
    ),
    "fom_hydrogenlike": (dipolegauge.fom_hydrogenlike, {"density": 1e20}, {"density": "density"}),
    "critical_density": (
        dipolegauge.critical_density,
        {"lambda_a": 780e-9, "quality": 1e7},
        {"lambda_a": "length", "quality": "quality"},
    ),
    "dipole_from_linewidth": (
        dipolegauge.dipole_from_linewidth,
        {"omega_a": 2.4e15, "gamma_hwhm": 1.9e7},
        {"omega_a": "frequency", "gamma_hwhm": "frequency"},
    ),
    "quality_factor": (
        dipolegauge.quality_factor,
        {"omega_a": 2.4e15, "gamma_hwhm": 1.9e7},
        {"omega_a": "frequency", "gamma_hwhm": "frequency"},
    ),
    "transverse_self_energy": (
        dipolegauge.transverse_self_energy,
        {"d": D0, "k_m": MU},
        {"d": "dipole moment", "k_m": "wavenumber"},
    ),
    "hydrogen_first_order_shift": (dipolegauge.hydrogen_first_order_shift, {"k_m": MU}, {"k_m": "wavenumber"}),
    "hydrogen_shift_numeric": (
        dipolegauge.hydrogen_shift_numeric,
        {"k_m": MU, "tol": 1e-9},
        {"k_m": "wavenumber", "tol": "tolerance"},
    ),
    "rydberg_shift_ratio": (dipolegauge.rydberg_shift_ratio, {"k_m": MU}, {"k_m": "wavenumber"}),
    "intimacy_radius": (dipolegauge.intimacy_radius, {"k_m": MU}, {"k_m": "wavenumber"}),
    "cutoff_window": (
        dipolegauge.cutoff_window,
        {"k_radiation": 1e7, "k_m": MU, "lower_threshold": 0.01, "upper_threshold": 0.15},
        {"k_radiation": "wavenumber", "k_m": "wavenumber", "lower_threshold": "threshold", "upper_threshold": "threshold"},
    ),
    "perturbation_report": (
        dipolegauge.perturbation_report,
        {"k_m": MU, "tol": 1e-9},
        {"k_m": "wavenumber", "tol": "tolerance"},
    ),
    "DickeParams": (
        DickeParams,
        {"n_atoms": 4, "omega": 1.0, "omega_a": 1.0, "g_collective": 0.5},
        {"omega": "frequency", "omega_a": "frequency", "g_collective": "coupling"},
    ),
    "DickeParams.from_figure_of_merit": (
        DickeParams.from_figure_of_merit,
        {"n_atoms": 4, "fom": 0.5, "omega": 1.0, "omega_a": 1.0},
        {"fom": "figure of merit", "omega": "frequency", "omega_a": "frequency"},
    ),
    "ground_state": (dipolegauge.ground_state, {"h": np.diag([1.0, 2.0]), "tol": 1e-10}, {"tol": "tolerance"}),
    "observables": (
        dipolegauge.observables,
        {"state": np.eye(4)[0], "p": DickeParams(1, 1.0, 1.0, 0.0, n_max=1), "energy": -0.5},
        {"energy": "energy"},
    ),
    "meanfield_order_parameter": (
        dipolegauge.meanfield_order_parameter,
        {"fom": 2.0, "omega": 1.0, "omega_a": 1.0},
        {"fom": "figure of merit", "omega": "frequency", "omega_a": "frequency"},
    ),
    "crossing_estimate": (
        dipolegauge.crossing_estimate,
        {"rows": [ScanRow(fom=0.0, n_atoms=4, photon_fraction=0.0), ScanRow(fom=1.0, n_atoms=4, photon_fraction=0.1)],
         "threshold": 0.05},
        {"threshold": "threshold"},
    ),
    "AtomConfiguration": (
        AtomConfiguration,
        {"positions": [[0.0, 0.0, 0.0], [0.0, 0.0, 1e-9]], "dipoles": np.zeros((2, 3)), "volume": 1e-27},
        {"volume": "volume"},
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
        {"k_m": "wavenumber", "tol": "tolerance"},
    ),
    "overlap_envelope_bound": (
        ensemble.overlap_envelope_bound,
        {"d_a": D0, "d_b": D0, "k_m": MU, "separation": 1e-9},
        {"d_a": "dipole moment", "d_b": "dipole moment", "k_m": "wavenumber", "separation": "length"},
    ),
    "suppression_factor": (
        dipolegauge.suppression_factor,
        {"k_m": MU, "k": 1e7},
        {"k_m": "wavenumber", "k": "mode wavenumber"},
    ),
    "radial_envelope": (
        dipolegauge.radial_envelope,
        {"k_m": MU, "r": 1e-10},
        {"k_m": "wavenumber", "r": "radius"},
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
            for bad in [math.nan, math.inf, -math.inf, *_out_of_range(rule)]:
                yield pytest.param(case, parameter, bad, id=f"{case}-{parameter}-{bad!r}")


@pytest.mark.parametrize("case, parameter, bad", _bad_cases())
def test_out_of_range_float_refused_by_name(case, parameter, bad):
    fn, base, _ = CASES[case]
    with pytest.raises(ValueError, match=re.escape(LABELS.get(parameter, parameter))):
        fn(**{**base, parameter: bad})


# Finite arguments whose powers or results would leave the float range:
# (case, arguments replaced in its base, parameter the message must name).
FLOAT_RANGE = [
    ("critical_density", {"lambda_a": 1e-120}, "lambda_a"),
    ("critical_density", {"lambda_a": 1e200}, "lambda_a"),
    ("critical_density", {"lambda_a": 1e-100, "quality": 1e10}, "lambda_a"),
    ("fom_density_q", {"lambda_a": 1e-120}, "lambda_a"),
    ("fom_density_q", {"lambda_a": 1e200}, "lambda_a"),
    ("dipole_from_linewidth", {"omega_a": 1e-200}, "omega_a"),
    ("dipole_from_linewidth", {"omega_a": 1e200}, "omega_a"),
    ("dipole_from_linewidth", {"omega_a": 1e-100, "gamma_hwhm": 1e300}, "omega_a"),
    ("transverse_self_energy", {"d": 1e200}, "d"),
    ("transverse_self_energy", {"d": 1e-200}, "d"),
    ("transverse_self_energy", {"d": 1e150}, "d"),
    ("coupling_g", {"d": 1e200}, "d"),
    ("coupling_g", {"d": 1e-200}, "d"),
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


# Calls whose in-range products or quotients once left the floats: each raised
# ZeroDivisionError or OverflowError or returned inf, and is now refused by name.
LEAKS = {
    "figure_of_merit(1, 1, 1e-200, 1e-200)": (lambda: dipolegauge.figure_of_merit(1, 1, 1e-200, 1e-200), "omega"),
    "coupling_g(ModeSpec(1e300, 1e-300), 1.0)": (lambda: dipolegauge.coupling_g(ModeSpec(1e300, 1e-300), 1.0), "omega"),
    "coupling_g(ModeSpec(1e300, 1e-250), 1e-29)": (lambda: dipolegauge.coupling_g(ModeSpec(1e300, 1e-250), 1e-29), "omega"),
    "DickeParams(4, 1.0, 1.0, 1e200)": (lambda: DickeParams(4, 1.0, 1.0, 1e200), "g_collective"),
    "quality_factor(1e300, 1e-300)": (lambda: dipolegauge.quality_factor(1e300, 1e-300), "omega_a"),
    "wavelength_to_omega(1e-320)": (lambda: constants.wavelength_to_omega(1e-320), "lam"),
}


@pytest.mark.parametrize("call", LEAKS)
def test_leaking_products_refused_by_name(call):
    fn, parameter = LEAKS[call]
    with pytest.raises(ValueError, match=rf"^{parameter} must be"):
        fn()


def test_integer_beyond_the_floats_refused_by_name():
    with pytest.raises(ValueError, match="^n_atoms must be from 1 to 1e\\+80, got inf"):
        dipolegauge.figure_of_merit(10**400, 1.0, 1.0, 1.0)


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
        listed = CASES[name][2] if name in CASES else {}
        assert set(listed) == _float_parameters(fn), name
        assert set(listed.values()) <= set(DOMAINS), name


# ---------------------------------------------------------------------------
# Totality: finite results or a refusal by name, over the whole float range
# ---------------------------------------------------------------------------

DRAWS = 3000


def _whole_range(rng, size: int) -> np.ndarray:
    """Positive floats log-uniform over the whole float range, subnormals included."""
    return np.ldexp(rng.uniform(1.0, 2.0, size), rng.integers(-1074, 1024, size))


def _figure_of_merit_property(**kwargs):
    return DickeParams(n_atoms=4, **kwargs).figure_of_merit


TOTAL = {
    **CASES,
    "DickeParams.figure_of_merit": (
        _figure_of_merit_property,
        {"omega": 1.0, "omega_a": 1.0, "g_collective": 0.5},
        CASES["DickeParams"][2],
    ),
}


def _finite(value) -> bool:
    """Every float the value holds, in records, tuples and arrays included, is finite."""
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(np.all(np.isfinite(value)))
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    return True


@pytest.mark.parametrize("case", TOTAL)
def test_total_over_the_float_range(case):
    fn, base, rules = TOTAL[case]
    rng = np.random.default_rng(sorted(TOTAL).index(case))
    names = [re.compile(rf"\b{re.escape(LABELS.get(parameter, parameter))}\b") for parameter in rules]
    draws = {}
    for parameter, quantity in rules.items():
        values = _whole_range(rng, DRAWS)
        if DOMAINS[quantity][0] < 0.0:  # a row of either sign
            values *= rng.choice([-1.0, 1.0], DRAWS)
        draws[parameter] = values.tolist()
    for row in range(DRAWS):
        arguments = {parameter: values[row] for parameter, values in draws.items()}
        try:
            result = fn(**{**base, **arguments})
        except ValueError as exc:
            assert any(name.search(str(exc)) for name in names), (case, arguments, exc)
        else:
            assert _finite(result), (case, arguments, result)


@pytest.mark.parametrize("case", TOTAL)
def test_finite_at_the_corners_of_the_domains(case):
    # every combination of each parameter's limits, and 0 where its row allows it
    fn, base, rules = TOTAL[case]
    corners = [[low, high] + ([0.0] if zero and low > 0.0 else []) for low, high, _, zero in map(DOMAINS.get, rules.values())]
    for values in itertools.product(*corners):
        arguments = dict(zip(rules, values))
        assert _finite(fn(**{**base, **arguments})), (case, arguments)
