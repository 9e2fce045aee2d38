"""Command-line front end: every subsystem as a subcommand with JSON/CSV output.

Output is deterministic: fixed key and column order, shortest round-trip
float formatting (Python repr), no timestamps.  Diagnostics go to stderr.
Exit codes: 0 success, 1 computation failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .constants import BOHR_RADIUS, CONSTANTS, _require, wavelength_to_omega
from .coupling import (
    AtomSpecies,
    crystalline_comparison,
    default_species_registry,
    load_species_registry,
    species_critical_density,
)
from .cutoff_window import cutoff_window, perturbation_report

# numpy, scipy and the modules built on them (dicke, ensemble) are imported
# inside the subcommands that use them, so critical-density, cutoff-window
# and polarization start without them and the others load only what they need.

SCHEMA_VERSION = 1
# Largest figure-of-merit grid dicke-scan accepts; each point is a full ground-state solve.
MAX_GRID_POINTS = 10_000


class CliError(Exception):
    """Input validation failure (exit code 2)."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def _emit(args, payload: dict, csv_columns: list[str], csv_rows: list[list]) -> None:
    """Write the report as JSON, or as CSV with one header line and one line per row."""
    if args.format == "json":
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        lines = [",".join(csv_columns)]
        for row in csv_rows:
            lines.append(",".join(_fmt(cell) for cell in row))
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# dicke-scan output fields in order: (JSON key, CSV column, ScanRow attribute)
SCAN_FIELDS = (
    ("F", "F", "fom"),
    ("N", "N", "n_atoms"),
    ("n_max", "n_max", "n_max"),
    ("energy_rad_per_s", "energy", "energy"),
    ("photon_fraction", "photon_fraction", "photon_fraction"),
    ("inversion", "inversion", "inversion"),
    ("sx2_fraction", "sx2_fraction", "sx2_fraction"),
    ("parity", "parity", "parity"),
)


def _registry(args) -> dict[str, AtomSpecies]:
    if getattr(args, "registry", None):
        return load_species_registry(args.registry)
    return default_species_registry()


def _species(args, registry) -> AtomSpecies:
    name = args.species
    if name not in registry:
        raise CliError(f"unknown species {name!r}; registry has {sorted(registry)}")
    return registry[name]


def _cutoff_from_args(args) -> float:
    if args.kM is not None and args.kM_inv_bohr is not None:
        raise CliError("give either --kM or --kM-inv-bohr, not both")
    if args.kM is not None:
        value = args.kM
    elif args.kM_inv_bohr is not None:
        value = args.kM_inv_bohr / BOHR_RADIUS
    else:
        raise CliError("a cutoff wavenumber is required (--kM or --kM-inv-bohr)")
    return _require("cutoff wavenumber", value, "wavenumber")


def _finite_float(text: str) -> float:
    """argparse type of every float option: a number that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_grid(text: str) -> list[float]:
    try:
        numbers = [_finite_float(part) for part in text.split(":")]
    except argparse.ArgumentTypeError:
        numbers = []
    if len(numbers) == 1:
        return numbers
    if len(numbers) != 3:
        raise CliError(f"invalid grid {text!r}; expected VALUE or START:STOP:STEP")
    start, stop, step = numbers
    if step <= 0.0 or stop < start:
        raise CliError(f"invalid grid {text!r}; need step > 0 and stop >= start")
    steps = (stop - start) / step
    if not steps <= MAX_GRID_POINTS - 1:  # before the list is built; inf when the span overflows
        raise CliError(f"invalid grid {text!r}; more than {MAX_GRID_POINTS} points")
    count = int(round(steps))
    # rounding keeps grid values like 0.1*3 from printing as 0.30000000000000004
    values = [round(start + i * step, 12) for i in range(count + 1)]
    if values[-1] > stop + 1e-9 * step:
        values.pop()
    if len(set(values)) < len(values):
        raise CliError(f"invalid grid {text!r}; values repeat after rounding to 12 decimals")
    return values


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_cutoff_window(args) -> int:
    k_m = _cutoff_from_args(args)
    if args.species is not None:
        species = _species(args, _registry(args))
        k_radiation = wavelength_to_omega(species.lambda_a) / CONSTANTS.c
    elif args.k_radiation is not None:
        k_radiation = args.k_radiation
    else:
        raise CliError("a radiation wavenumber is required (--species or --k-radiation)")
    window = cutoff_window(k_radiation, k_m, args.lower_threshold, args.upper_threshold)
    perturbation = perturbation_report(k_m, tol=args.tol)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "k_M_per_m": window.k_m,
        "k_radiation_per_m": window.k_radiation,
        "lower_violation": window.lower_violation,
        "upper_ratio": window.upper_ratio,
        "lower_threshold": window.lower_threshold,
        "upper_threshold": window.upper_threshold,
        "admissible": window.admissible,
        "delta_U_J": perturbation.delta_u,
        "first_order_shift_J": perturbation.first_order_shift,
        "ratio_to_rydberg": perturbation.ratio_to_rydberg,
        "numeric_shift_J": perturbation.numeric_shift,
        "numeric_error_estimate_J": perturbation.numeric_error_estimate,
    }
    columns = [key for key in payload if key != "schema_version"]
    _emit(args, payload, csv_columns=columns, csv_rows=[[payload[c] for c in columns]])
    return 0


def cmd_critical_density(args) -> int:
    registry = _registry(args)
    if args.species is not None:
        species_list = [_species(args, registry)]
    else:
        species_list = list(registry.values())
    rows = []
    for species in species_list:
        entry = {
            "name": species.name,
            "lambda_A_m": species.lambda_a,
            "quality_factor": species.quality,
            "critical_density_per_m3": species_critical_density(species),
        }
        if args.compare_crystalline:
            entry["crystalline_density_per_m3"] = species.crystalline_density
            entry["critical_to_crystalline"] = (
                crystalline_comparison(species) if species.crystalline_density is not None else None
            )
        rows.append(entry)
    payload = {"schema_version": SCHEMA_VERSION, "species": rows}
    columns = list(rows[0]) if rows else ["name"]
    _emit(args, payload, csv_columns=columns, csv_rows=[[row[c] for c in columns] for row in rows])
    return 0


def cmd_dicke_scan(args) -> int:
    from .dicke import DickeParams, scan_coupling

    grid = _parse_grid(args.F)
    if args.resonant:
        omega = omega_a = args.omega if args.omega is not None else 1.0
    else:
        if args.omega is None or args.omega_A is None:
            raise CliError("give --resonant, or both --omega and --omega-A")
        omega, omega_a = args.omega, args.omega_A
    template = DickeParams(n_atoms=args.N, omega=omega, omega_a=omega_a, g_collective=0.0, rwa=args.rwa)
    rows = scan_coupling(template, grid, max_workers=args.jobs)
    for row in rows:
        if row.error is not None:
            print(f"dicke-scan: F={row.fom}: {row.error}", file=sys.stderr)
    cells = [[getattr(row, attr) for _, _, attr in SCAN_FIELDS] for row in rows]
    entries = [dict(zip((key for key, _, _ in SCAN_FIELDS), values)) for values in cells]
    for row, entry in zip(rows, entries):
        if row.error is not None:
            entry["error"] = row.error
    payload = {"schema_version": SCHEMA_VERSION, "rows": entries}
    _emit(args, payload, csv_columns=[column for _, column, _ in SCAN_FIELDS], csv_rows=cells)
    return 1 if any(row.error is not None for row in rows) else 0


def cmd_polarization(args) -> int:
    from .polarization import _kernel_terms, radial_envelope, suppression_factor

    k_m = _cutoff_from_args(args)
    payload: dict = {"schema_version": SCHEMA_VERSION, "k_M_per_m": k_m}
    columns: list[str] = ["k_M_per_m"]
    if args.envelope:
        if args.r is None:
            raise CliError("--envelope needs --r")
        payload["r_m"] = args.r
        payload["envelope"] = radial_envelope(k_m, args.r)
        columns += ["r_m", "envelope"]
    if args.suppression is not None:
        payload["k_per_m"] = args.suppression
        payload["suppression_factor"] = suppression_factor(k_m, args.suppression)
        columns += ["k_per_m", "suppression_factor"]
    if args.kernel is not None:
        try:
            x = [float(part) for part in args.kernel.split(",")]
        except ValueError:
            x = []
        if len(x) != 3:
            raise CliError(f"invalid kernel point {args.kernel!r}; expected X,Y,Z")
        far, near = _kernel_terms(k_m, x)
        payload["x_m"] = x
        keys = [f"kernel_{a}{b}_per_m3" for a in "xyz" for b in "xyz"]  # row-major, as the terms
        payload.update(zip(keys, (f + g for f, g in zip(far, near))))
        columns += keys
    if len(columns) == 1:
        raise CliError("nothing to compute; give --envelope, --suppression or --kernel")
    _emit(args, payload, csv_columns=columns, csv_rows=[[payload[c] for c in columns]])
    return 0


def cmd_ensemble_check(args) -> int:
    import numpy as np

    from .ensemble import _pair_distances, intimacy_violations, load_configuration, min_pairwise_distance, residual_overlap_energy

    k_m = _cutoff_from_args(args)
    config = load_configuration(args.config)
    if args.overlap is not None:
        i, j = args.overlap
        report = residual_overlap_energy(config, (i, j), k_m, tol=args.tol)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "k_M_per_m": k_m,
            "pair": list(report.pair),
            "separation_m": report.separation,
            "overlap_energy_J": report.overlap_energy,
            "bound_J": report.bound,
            "error_estimate_J": report.error_estimate,
        }
        columns = ["k_M_per_m", "pair_i", "pair_j", "separation_m", "overlap_energy_J", "bound_J", "error_estimate_J"]
        row = [k_m, report.pair[0], report.pair[1], report.separation, report.overlap_energy, report.bound, report.error_estimate]
        _emit(args, payload, csv_columns=columns, csv_rows=[row])
        return 0
    violations = intimacy_violations(config, k_m)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "k_M_per_m": k_m,
        "atom_count": len(config),
        "min_pairwise_distance_m": min_pairwise_distance(config) if len(config) >= 2 else None,
        "pair_threshold_m": 2.0 / k_m,
        "violations": [list(pair) for pair in violations],
    }
    rows = []
    if args.format == "csv" and violations:
        # the check's own distances, so that every separation printed is below the threshold
        i, j = np.array(violations).T
        rows = [[*pair, separation] for pair, separation in zip(violations, _pair_distances(config.positions.T, i, j).tolist())]
    _emit(args, payload, csv_columns=["pair_i", "pair_j", "separation_m"], csv_rows=rows)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    parser.add_argument("--output", help="write the report to this path instead of stdout")


def _add_cutoff(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kM", type=_finite_float, help="cutoff wavenumber (1/m)")
    parser.add_argument("--kM-inv-bohr", dest="kM_inv_bohr", type=_finite_float, help="cutoff wavenumber in units of 1/a0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dipolegauge", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cutoff-window", help="admissibility window for the cutoff wavenumber")
    _add_cutoff(p)
    p.add_argument("--species", help="species name fixing the radiation wavenumber")
    p.add_argument("--k-radiation", dest="k_radiation", type=_finite_float, help="radiation wavenumber (1/m)")
    p.add_argument("--registry", help="species registry file (CSV or JSON)")
    p.add_argument("--lower-threshold", type=_finite_float, default=0.01)
    p.add_argument("--upper-threshold", type=_finite_float, default=0.15)
    p.add_argument("--tol", type=_finite_float, default=1e-9, help="quadrature tolerance for the shift check")
    _add_common(p)
    p.set_defaults(func=cmd_cutoff_window)

    p = sub.add_parser("critical-density", help="critical and crystalline densities per species")
    p.add_argument("--species", help="single species (default: all registry species)")
    p.add_argument("--registry", help="species registry file (CSV or JSON)")
    p.add_argument("--compare-crystalline", action="store_true", help="add the crystalline-density ratio")
    _add_common(p)
    p.set_defaults(func=cmd_critical_density)

    p = sub.add_parser("dicke-scan", help="ground-state scan over the figure of merit")
    p.add_argument("--N", type=int, required=True, help="atom count")
    p.add_argument("--F", required=True, help="figure-of-merit grid VALUE or START:STOP:STEP")
    p.add_argument("--resonant", action="store_true", help="mode frequency equal to the atomic one")
    p.add_argument("--omega", type=_finite_float, help="mode frequency (rad/s)")
    p.add_argument("--omega-A", dest="omega_A", type=_finite_float, help="atomic frequency (rad/s)")
    p.add_argument("--rwa", action="store_true", help="number-conserving coupling")
    p.add_argument("--jobs", type=int, default=1, help="worker processes for grid points (at least 1)")
    _add_common(p)
    p.set_defaults(func=cmd_dicke_scan)

    p = sub.add_parser("polarization", help="kernel and envelope values")
    _add_cutoff(p)
    p.add_argument("--r", type=_finite_float, help="distance (m)")
    p.add_argument("--envelope", action="store_true", help="radial envelope at --r")
    p.add_argument("--suppression", type=_finite_float, metavar="K", help="filter value at wavenumber K (1/m)")
    p.add_argument("--kernel", metavar="X,Y,Z", help="kernel at a comma-separated point (m)")
    _add_common(p)
    p.set_defaults(func=cmd_polarization)

    p = sub.add_parser("ensemble-check", help="spacing violations and pair overlaps")
    _add_cutoff(p)
    p.add_argument("--config", required=True, help="configuration JSON")
    p.add_argument("--overlap", type=int, nargs=2, metavar=("I", "J"), help="overlap report for one pair")
    p.add_argument("--tol", type=_finite_float, default=1e-5, help="overlap accuracy required relative to the bound")
    _add_common(p)
    p.set_defaults(func=cmd_ensemble_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"dipolegauge: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"dipolegauge: invalid input: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # QuadratureError, solver and truncation failures
        print(f"dipolegauge: computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
