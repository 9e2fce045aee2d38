import argparse
import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, seed, settings, strategies as st

from dipolegauge import cli, polarization
from dipolegauge.cli import build_parser, main
from dipolegauge.coupling import default_species_registry
from dipolegauge.polarization import radial_envelope
from conftest import ACCEPTED_ON_A_ROUNDING

# criterion 11 runs the benchmark's own command list against its golden stdout
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from workloads import SMALL_CONFIG, cli_commands  # noqa: E402

CONFIG_NAME = "atoms.json"

# (dicke-scan flags, golden stdout under tests/data) of the byte-pinned scans
# dicke-scan <flags> --F 0:2.5:0.1 --resonant --format csv
GOLDEN_SCANS = [
    (["--N", "8", "--rwa"], "dicke-scan-rwa.stdout"),
    (["--N", "16", "--rwa"], "dicke-scan-rwa-n16.stdout"),
    (["--N", "32", "--rwa"], "dicke-scan-rwa-n32.stdout"),
    (["--N", "32"], "dicke-scan-n32.stdout"),
]


@pytest.fixture
def atoms_file(tmp_path):
    path = tmp_path / CONFIG_NAME
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


def two_atom_file(tmp_path, separation):
    """Configuration file of two parallel 8.5e-30 C*m dipoles separation apart along z."""
    path = tmp_path / "pair.json"
    path.write_text(
        json.dumps(
            {
                "positions_m": [[0.0, 0.0, 0.0], [0.0, 0.0, separation]],
                "dipoles_Cm": [[0.0, 0.0, 8.5e-30], [0.0, 0.0, 8.5e-30]],
                "volume_m3": 1e-27,
            }
        )
    )
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCutoffWindow:
    def test_ratio_for_half_inverse_bohr(self, capsys):
        code, out, _ = run_cli(capsys, ["cutoff-window", "--kM-inv-bohr", "0.5", "--species", "H"])
        assert code == 0
        payload = json.loads(out)
        assert payload["upper_ratio"] == 0.125
        assert payload["ratio_to_rydberg"] == 0.125
        assert payload["admissible"] is True
        assert payload["schema_version"] == 1

    def test_unknown_species_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["cutoff-window", "--kM-inv-bohr", "0.5", "--species", "Xx"])
        assert code == 2
        assert out == ""
        assert "unknown species" in err

    def test_csv_has_header_and_one_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["cutoff-window", "--kM-inv-bohr", "0.5", "--species", "H", "--format", "csv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("k_M_per_m,")

    def test_missing_cutoff_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["cutoff-window", "--species", "H"])
        assert code == 2
        assert "cutoff" in err

    def test_infinite_radiation_wavenumber_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["cutoff-window", "--kM", "1e10", "--k-radiation", "inf"])
        assert (code, out) == (2, "")
        assert err == "dipolegauge: invalid input: --k-radiation must be a finite number, got 'inf'\n"

    def test_radiation_wavenumber_above_limit_exits_2(self, capsys):
        # k_radiation^2 would overflow: refused with one line instead of an OverflowError traceback
        code, out, err = run_cli(capsys, ["cutoff-window", "--kM", "1e10", "--k-radiation", "1e200"])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "dipolegauge: invalid input: radiation wavenumber must be from 1e-20 to 1e+90 /m, got 1e+200"
        ]

    def test_tolerance_below_quadrature_floor_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["cutoff-window", "--kM-inv-bohr", "0.5", "--species", "H", "--tol", "1e-15"])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "dipolegauge: invalid input: tol must be from 1e-12 to 1, got 1e-15"
        ]

    @pytest.mark.parametrize("tol", ACCEPTED_ON_A_ROUNDING)
    def test_accepted_quadrature_exits_0(self, capsys, tol):
        code, out, err = run_cli(capsys, ["cutoff-window", "--kM-inv-bohr", "0.5", "--species", "H", "--tol", repr(tol)])
        assert (code, err) == (0, "")
        assert json.loads(out)["numeric_shift_J"] > 0.0


class TestCriticalDensity:
    def test_rubidium(self, capsys):
        code, out, _ = run_cli(capsys, ["critical-density", "--species", "Rb"])
        assert code == 0
        payload = json.loads(out)
        (row,) = payload["species"]
        assert row["critical_density_per_m3"] == pytest.approx(7.0e27, rel=0.10)

    def test_all_species_one_row_each(self, capsys):
        code, out, _ = run_cli(capsys, ["critical-density", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name,lambda_A_m,quality_factor,critical_density_per_m3"
        assert len(lines) == 6  # header + H, Na, K, Rb, Cs

    def test_crystalline_ratio_column(self, capsys):
        code, out, _ = run_cli(capsys, ["critical-density", "--species", "Rb", "--compare-crystalline"])
        assert code == 0
        (row,) = json.loads(out)["species"]
        assert row["critical_to_crystalline"] == pytest.approx(0.64, rel=0.10)

    def test_wavelength_cubed_below_float_range_exits_2(self, capsys, tmp_path):
        # (1e-115 nm)^3 underflows to 0, the divisor of the critical density: refused when the file is read
        registry = tmp_path / "species.csv"
        registry.write_text("name,mass_amu,lambda_nm,gamma_fwhm_MHz,crystalline_density_per_m3\nX,1.0,1e-115,1.0,\n")
        code, out, err = run_cli(capsys, ["critical-density", "--registry", str(registry)])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"dipolegauge: invalid input: {registry}:2: X: lambda_a must be from 1e-30 to 1e+10 m, got 1.0000000000000001e-124"
        ]


class TestDickeScan:
    def test_scan_monotone_fraction(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["dicke-scan", "--N", "6", "--F", "0:1.5:0.5", "--resonant", "--format", "csv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "F,N,n_max,energy,photon_fraction,inversion,sx2_fraction,parity"
        fractions = [float(line.split(",")[4]) for line in lines[1:]]
        assert len(fractions) == 4
        assert all(b >= a - 1e-6 for a, b in zip(fractions, fractions[1:]))

    def test_rwa_energy_constant_below_threshold(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["dicke-scan", "--N", "6", "--F", "0.2:0.8:0.3", "--resonant", "--rwa", "--format", "csv"],
        )
        assert code == 0
        energies = [float(line.split(",")[3]) for line in out.splitlines()[1:]]
        assert energies == pytest.approx([-3.0, -3.0, -3.0], rel=1e-10)

    def test_invalid_grid_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["dicke-scan", "--N", "6", "--F", "2:1:0.5", "--resonant"])
        assert code == 2
        assert "grid" in err

    def test_oversized_grid_exits_2_before_building_it(self, capsys):
        code, out, err = run_cli(capsys, ["dicke-scan", "--N", "6", "--F", "0:1:1e-300", "--resonant"])
        assert code == 2
        assert out == ""
        assert "points" in err

    @pytest.mark.parametrize("grid", ["0:1e-13:1e-14", "0:1e-12:1e-13"])
    def test_grid_collapsed_by_rounding_exits_2(self, capsys, grid):
        code, out, err = run_cli(capsys, ["dicke-scan", "--N", "2", "--F", grid, "--resonant", "--format", "csv"])
        assert code == 2
        assert out == ""
        assert "repeat" in err

    def test_failed_row_printed_and_exits_1(self, capsys):
        # N = 30000 exceeds the Hamiltonian dimension cap at the first truncation
        code, out, err = run_cli(capsys, ["dicke-scan", "--N", "30000", "--F", "0.5", "--resonant"])
        assert code == 1
        (row,) = json.loads(out)["rows"]
        assert "exceeds cap" in row["error"]
        assert "exceeds cap" in err

    def test_spin_matrices_past_the_budget_fail_the_row(self, capsys):
        # 249,993 states fit the dimension cap, but observables' three dense spin
        # matrices would take 5.7 GiB each; the row fails before any solve
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, ["dicke-scan", "--N", "27776", "--F", "0", "--resonant", "--rwa"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        (row,) = json.loads(out)["rows"]
        assert row["energy_rad_per_s"] is None and "spin matrix size" in row["error"]
        assert "exceeds cap" in err
        assert peak < 1 << 20

    def test_rwa_row_past_the_fock_schedule(self, capsys):
        # the ground block lies past the walk's last truncation, 512; one solve reaches it
        code, out, _ = run_cli(capsys, ["dicke-scan", "--N", "32", "--F", "40", "--resonant", "--rwa"])
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["n_max"] == 512 and row["photon_fraction"] > 9.0 and row["parity"] == -1.0

    def test_rwa_blocks_past_the_cap_fail_the_row_before_allocating(self, capsys):
        # the blocks the bound leaves at N = 1, F = 7.6e32 need a truncation past 1e33
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, ["dicke-scan", "--N", "1", "--F", "7.6e32", "--resonant", "--rwa"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        (row,) = json.loads(out)["rows"]
        assert row["energy_rad_per_s"] is None and row["error"].startswith("dimension ")
        assert "exceeds cap" in row["error"] and "exceeds cap" in err
        assert peak < 1 << 20

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_2(self, capsys, jobs):
        code, out, err = run_cli(capsys, ["dicke-scan", "--N", "6", "--F", "0.5", "--resonant", "--jobs", jobs])
        assert code == 2
        assert out == ""
        assert "worker count" in err

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["dicke-scan", "--N", "4", "--F", "0.5", "--resonant"])
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["F"] == 0.5
        assert payload["rows"][0]["N"] == 4


class TestPolarization:
    def test_envelope_value(self, capsys):
        code, out, _ = run_cli(capsys, ["polarization", "--kM", "1e10", "--r", "1e-9", "--envelope"])
        assert code == 0
        payload = json.loads(out)
        assert payload["envelope"] == radial_envelope(1e10, 1e-9)

    def test_kernel_symmetric_output(self, capsys):
        code, out, _ = run_cli(
            capsys, ["polarization", "--kM", "1e10", "--kernel", "1e-10,2e-10,-1e-10"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kernel_xy_per_m3"] == payload["kernel_yx_per_m3"]

    def test_kernel_bad_point_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["polarization", "--kM", "1e10", "--kernel", "1e-10,2e-10"])
        assert code == 2
        assert "kernel point" in err

    def test_nothing_requested_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["polarization", "--kM", "1e10"])
        assert code == 2
        assert "nothing to compute" in err

    def test_nan_distance_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["polarization", "--kM", "1e10", "--r", "nan", "--envelope"])
        assert (code, out) == (2, "")
        assert err == "dipolegauge: invalid input: --r must be a finite number, got 'nan'\n"

    def test_non_finite_result_is_not_emitted(self, capsys, monkeypatch):
        # no accepted input gives a non-finite kernel any more, so one is planted: it is not valid JSON
        monkeypatch.setattr(polarization, "_kernel_terms", lambda k_m, x: ([math.nan] * 9, [0.0] * 9))
        code, out, err = run_cli(capsys, ["polarization", "--kM", "1e10", "--kernel", "1e-10,0,0"])
        assert code == 2
        assert out == ""
        assert "JSON" in err

    def test_separation_below_limit_exits_2(self, capsys):
        # r^3 underflows below about 1e-108 m; refused before any field is computed, so numpy warns nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, ["polarization", "--kM", "1e10", "--kernel", "1e-150,0,0"])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "dipolegauge: invalid input: separation must be from 1e-30 to 1e+10 m, got 1e-150"
        ]


class TestEnsembleCheck:
    def test_no_violations(self, capsys, atoms_file):
        code, out, _ = run_cli(capsys, ["ensemble-check", "--config", atoms_file, "--kM-inv-bohr", "0.5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == []
        assert payload["min_pairwise_distance_m"] == 3.0e-10

    def test_violation_listed(self, capsys, atoms_file, tmp_path):
        path = tmp_path / "close.json"
        path.write_text(
            json.dumps(
                {
                    "positions_m": [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0e-10]],
                    "dipoles_Cm": [[0.0, 0.0, 8.5e-30], [0.0, 0.0, 8.5e-30]],
                    "volume_m3": 1e-27,
                }
            )
        )
        code, out, _ = run_cli(capsys, ["ensemble-check", "--config", str(path), "--kM-inv-bohr", "0.5"])
        assert code == 0
        assert json.loads(out)["violations"] == [[0, 1]]

    def test_csv_separations_are_the_flagged_distances(self, capsys, tmp_path):
        # 400 pairs within a few ulp of 2/kM along random directions, 2^-26 m
        # apart along x.  The x offsets sit on the 2^-69 m grid of those
        # positions, so each pair's difference is exact.  A separation
        # recomputed another way (a dot product) can round to 2/kM itself.
        k_m, count = 1e10, 400
        rng = np.random.default_rng(20)
        radius = 2.0 / k_m * (1.0 - rng.integers(-3, 6, size=count) * 2.0**-53)
        dx = np.round(rng.uniform(-0.9, 0.9, size=count) * radius * 2.0**69) * 2.0**-69
        dy = rng.uniform(-0.3, 0.3, size=count) * radius
        dz = np.sqrt(radius * radius - dx * dx - dy * dy)
        anchors = np.zeros((count, 3))
        anchors[:, 0] = np.arange(1, count + 1) * 2.0**-26
        positions = np.concatenate([anchors, anchors + np.stack([dx, dy, dz], axis=1)])
        path = tmp_path / "threshold.json"
        path.write_text(json.dumps({"positions_m": positions.tolist(), "dipoles_Cm": np.zeros((2 * count, 3)).tolist(), "volume_m3": 1e-20}))
        argv = ["ensemble-check", "--config", str(path), "--kM", str(k_m)]
        _, out, _ = run_cli(capsys, argv)
        payload = json.loads(out)
        _, out, _ = run_cli(capsys, [*argv, "--format", "csv"])
        header, *lines = out.splitlines()
        rows = [line.split(",") for line in lines]
        assert header == "pair_i,pair_j,separation_m"
        assert [[int(i), int(j)] for i, j, _ in rows] == payload["violations"]
        assert 100 < len(rows) < count
        assert all(float(separation) < payload["pair_threshold_m"] for _, _, separation in rows)

    def test_overlap_report(self, capsys, atoms_file):
        code, out, _ = run_cli(
            capsys,
            ["ensemble-check", "--config", atoms_file, "--kM-inv-bohr", "0.5",
             "--overlap", "0", "1", "--tol", "1e-4"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pair"] == [0, 1]
        assert abs(payload["overlap_energy_J"]) <= payload["bound_J"]
        assert payload["error_estimate_J"] > 0.0

    def test_overlap_below_scaled_separation_limit_exits_2(self, capsys, tmp_path):
        path = two_atom_file(tmp_path, 1.0e-120)
        code, out, err = run_cli(capsys, ["ensemble-check", "--config", path, "--kM", "1e10", "--overlap", "0", "1"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("dipolegauge: invalid input: smallest pair distance must be")

    @pytest.mark.parametrize(
        "separation, k_m, message",
        [
            (3.0e-10, "1e200", "cutoff wavenumber must be from 1e-20 to 1e+90 /m"),  # kM^3 overflows
            (1.0e-105, "1e10", "smallest pair distance must be from 1e-30 to 1e+10 m"),  # r^-3 overflows
        ],
    )
    def test_overlap_outside_float_range_exits_2(self, capsys, tmp_path, separation, k_m, message):
        path = two_atom_file(tmp_path, separation)
        code, out, err = run_cli(capsys, ["ensemble-check", "--config", path, "--kM", k_m, "--overlap", "0", "1"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"dipolegauge: invalid input: {message}")

    def test_overlap_tolerance_below_rounding_floor_exits_2(self, capsys, atoms_file):
        code, out, err = run_cli(
            capsys, ["ensemble-check", "--config", atoms_file, "--kM", "1e10", "--overlap", "0", "1", "--tol", "1e-18"]
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["dipolegauge: invalid input: tol must be from 1e-12 to 1, got 1e-18"]

    def test_config_not_an_object_exits_2(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, out, err = run_cli(capsys, ["ensemble-check", "--config", str(path), "--kM", "1e10"])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"dipolegauge: invalid input: {path}: a configuration is a JSON object, got list"]

    def test_config_volume_not_a_number_exits_2(self, capsys, tmp_path):
        path = tmp_path / "null.json"
        path.write_text(json.dumps({**SMALL_CONFIG, "volume_m3": None}))
        code, out, err = run_cli(capsys, ["ensemble-check", "--config", str(path), "--kM", "1e10"])
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["dipolegauge: invalid input: volume must be a number, got None"]

    @pytest.mark.parametrize("cutoff, shown", [(["--kM", "-1"], "-1.0"), (["--kM-inv-bohr", "0"], "0.0")])
    def test_cutoff_out_of_range_exits_2_before_reading_config(self, capsys, cutoff, shown):
        code, out, err = run_cli(capsys, ["ensemble-check", "--config", "/nonexistent.json", *cutoff])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"dipolegauge: invalid input: cutoff wavenumber must be from 1e-20 to 1e+90 /m, got {shown}"
        ]

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["ensemble-check", "--config", "/nonexistent.json", "--kM", "1e10"])
        assert code == 2
        assert "invalid input" in err


# every usage refusal a subcommand raises, with the message after "invalid input: "
USAGE_REFUSALS = [
    (["cutoff-window", "--kM-inv-bohr", "0.5", "--species", "Xx"], "unknown species 'Xx'; registry has "),
    (["cutoff-window", "--kM", "1e10", "--kM-inv-bohr", "0.5", "--species", "H"], "give either --kM or --kM-inv-bohr, not both"),
    (["cutoff-window", "--species", "H"], "a cutoff wavenumber is required (--kM or --kM-inv-bohr)"),
    (["cutoff-window", "--kM", "1e10"], "a radiation wavenumber is required (--species or --k-radiation)"),
    (["dicke-scan", "--N", "4", "--F", "1:2", "--resonant"], "invalid grid '1:2'; expected VALUE or START:STOP:STEP"),
    (["dicke-scan", "--N", "4", "--F", "2:1:0.1", "--resonant"], "invalid grid '2:1:0.1'; need step > 0 and stop >= start"),
    (["dicke-scan", "--N", "4", "--F", "0:1e6:1", "--resonant"], "invalid grid '0:1e6:1'; more than 10000 points"),
    (
        ["dicke-scan", "--N", "4", "--F", "0:1e-12:1e-13", "--resonant"],
        "invalid grid '0:1e-12:1e-13'; values repeat after rounding to 12 decimals",
    ),
    (["dicke-scan", "--N", "4", "--F", "1", "--omega", "1"], "give --resonant, or both --omega and --omega-A"),
    (["polarization", "--kM", "1e10", "--envelope"], "--envelope needs --r"),
    (["polarization", "--kM", "1e10", "--kernel", "1,2"], "invalid kernel point '1,2'; expected X,Y,Z"),
    (["polarization", "--kM", "1e10"], "nothing to compute; give --envelope, --suppression or --kernel"),
]


@pytest.mark.parametrize("argv, message", USAGE_REFUSALS)
def test_usage_refusal_is_one_invalid_input_line(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"dipolegauge: invalid input: {message}")


# negative values in exponent or list form, and -inf, -infinity and -nan in any case, which argparse
# alone reads as options; the refusal's one stderr line, from the library or from the float
# options' finite check, or None for a valid call
NEGATIVE_OMEGA = ["dicke-scan", "--N", "4", "--F", "1", "--omega-A", "1"]
NEGATIVE_VALUES = [
    (["polarization", "--kM", "1e10"], "--kernel", "-0.5,0,0", None),
    (NEGATIVE_OMEGA, "--omega", "-1e-05", "dipolegauge: invalid input: omega must be from 1e-30 to 1e+50 rad/s, got -1e-05"),
    (["dicke-scan", "--N", "4", "--resonant"], "--F", "-0.5:1:0.5", "dipolegauge: invalid input: fom grid value must be 0 or from 1e-40 to 1e+40, got -0.5"),
    *[
        (NEGATIVE_OMEGA, "--omega", value, f"dipolegauge: invalid input: --omega must be a finite number, got {value!r}")
        for value in ("-inf", "-NaN", "-Infinity", "-INF")
    ],
]


@pytest.mark.parametrize("two_tokens", [True, False], ids=["flag-value", "flag=value"])
@pytest.mark.parametrize(
    "argv, flag, value, message", NEGATIVE_VALUES, ids=["kernel", "omega", "grid", "-inf", "-NaN", "-Infinity", "-INF"]
)
def test_negative_value_reaches_the_library(capsys, argv, flag, value, message, two_tokens):
    argv = [*argv, *([flag, value] if two_tokens else [f"{flag}={value}"])]
    code, out, err = run_cli(capsys, argv)
    if message is None:
        assert (code, err) == (0, "")
        assert json.loads(out)["x_m"] == [-0.5, 0.0, 0.0]
    else:
        assert (code, out) == (2, "")
        assert err.splitlines() == [message]


def float_options():
    """(subcommand, flag) of every float option of the parser."""
    (subcommands,) = [action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    return [
        (name, action.option_strings[0])
        for name, parser in subcommands.choices.items()
        for action in parser._actions
        if isinstance(action, cli._FiniteFloat)
    ]


def test_float_options_found():
    assert len(float_options()) == 15 and ("dicke-scan", "--omega-A") in float_options()


# the refusal comes while the option is read, before the parser checks for required options
@pytest.mark.parametrize("two_tokens", [True, False], ids=["flag-value", "flag=value"])
@pytest.mark.parametrize("value", ["-inf", "inf", "nan", "1e999", "abc", "1,5", ""])
@pytest.mark.parametrize("command, flag", float_options())
def test_non_finite_float_option_is_one_invalid_input_line(capsys, command, flag, value, two_tokens):
    argv = [command, *([flag, value] if two_tokens else [f"{flag}={value}"])]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"dipolegauge: invalid input: {flag} must be a finite number, got {value!r}\n"


class TestDeterminism:
    @pytest.mark.parametrize("name", [name for name, _ in cli_commands(CONFIG_NAME)])
    def test_criterion_11_matches_golden_bytes(self, capsys, atoms_file, name):
        argv = dict(cli_commands(atoms_file))[name]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert out.encode("utf-8") == (PERFBENCH / "data" / "cli" / f"{name}.stdout").read_bytes()

    # no criterion-11 command takes the rwa path, and its Dicke-coupling scan stops at N = 6;
    # these goldens hold the bits of both couplings, N = 16 and 32 at the benchmark's sizes
    @pytest.mark.parametrize(
        "flags, golden",
        GOLDEN_SCANS,
        ids=[f"{flags[1]}-{golden}" for flags, golden in GOLDEN_SCANS],  # N and the file
    )
    def test_rwa_scan_matches_golden_bytes(self, capsys, flags, golden):
        argv = ["dicke-scan", *flags, "--F", "0:2.5:0.1", "--resonant", "--format", "csv"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert out.encode("utf-8") == (Path(__file__).parent / "data" / golden).read_bytes()

    def test_repeated_runs_byte_identical_in_process(self, capsys, atoms_file):
        argv = ["ensemble-check", "--config", atoms_file, "--kM-inv-bohr", "0.5"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_repeated_runs_byte_identical_subprocess(self, tmp_path):
        argv = [sys.executable, "-m", "dipolegauge.cli", "critical-density", "--compare-crystalline"]
        first = subprocess.run(argv, capture_output=True, check=True).stdout
        second = subprocess.run(argv, capture_output=True, check=True).stdout
        assert first == second
        assert first  # nonempty

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            ["polarization", "--kM", "1e10", "--r", "1e-9", "--envelope", "--output", str(out_path)],
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["envelope"] == radial_envelope(1e10, 1e-9)


# --- Seeded fuzz of the five subcommands, run in-process -------------------
#
# Every float option takes a finite float of either sign, log-uniform: a
# binary exponent uniform over the whole float range, or within 2^+-128, or
# (positive, three times as often) within 2^+-100, about 1e-30 .. 1e30, where
# most physical values lie, so that valid calls reach the computations too.
# dicke-scan keeps N <= 4, and its grid to one value or to START:STOP:STEP
# with STOP = START + c STEP, c <= 2, its figures of merit also drawn from
# 0 .. 4; --jobs, --output, --registry and other configurations are left to
# their targeted tests.


def _log_uniform(exponents):
    return st.builds(
        lambda sign, mantissa, exponent: sign * math.ldexp(mantissa, exponent),
        st.sampled_from((-1.0, 1.0)),
        st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
        exponents,
    )


_PHYSICAL = _log_uniform(st.integers(-100, 100)).map(abs)
FUZZ_FLOATS = st.one_of(
    _log_uniform(st.integers(-1074, 1023)), _log_uniform(st.integers(-128, 128)), *[_PHYSICAL] * 3, st.just(0.0)
)
FUZZ_NUMBERS = FUZZ_FLOATS.map(repr)
FUZZ_SPECIES = st.sampled_from(sorted(default_species_registry()) + ["Xx"])
FUZZ_FORMAT = st.sampled_from([[], ["--format=json"], ["--format=csv"]])


def _optional(strategy):
    return st.just([]) | strategy


def _flag(name, values=FUZZ_NUMBERS):
    # either spelling, --flag=value or --flag value, which must parse alike
    return st.tuples(values, st.booleans()).map(lambda draw: [f"{name}={draw[0]}"] if draw[1] else [name, draw[0]])


@st.composite
def _grid(draw):
    figures = FUZZ_FLOATS | st.floats(0.0, 4.0)  # across the critical point too, where rows converge
    start = draw(figures)
    if draw(st.booleans()):
        return repr(start)
    step = draw(figures)
    stop = start + draw(st.integers(0, 2)) * step  # may overflow to inf, which the parser refuses
    return f"{start!r}:{stop!r}:{step!r}"


_CUTOFF = st.sampled_from(["--kM", "--kM-inv-bohr"]).flatmap(_flag)
_FUZZ_COMMANDS = {
    "cutoff-window": [
        _CUTOFF,
        _flag("--species", FUZZ_SPECIES) | _flag("--k-radiation"),
        _optional(_flag("--lower-threshold")),
        _optional(_flag("--upper-threshold")),
        _optional(_flag("--tol")),
    ],
    "critical-density": [_optional(_flag("--species", FUZZ_SPECIES)), _optional(st.just(["--compare-crystalline"]))],
    "dicke-scan": [
        _flag("--N", st.sampled_from(["1", "2", "3", "4", "0", "-1"])),
        _flag("--F", _grid()),
        st.just(["--resonant"]) | st.tuples(_flag("--omega"), _flag("--omega-A")).map(lambda pair: pair[0] + pair[1]),
        _optional(st.just(["--rwa"])),
    ],
    "polarization": [
        _CUTOFF,
        _optional(_flag("--r").map(lambda flag: ["--envelope", *flag])),
        _optional(_flag("--suppression")),
        _optional(_flag("--kernel", st.lists(FUZZ_NUMBERS, min_size=3, max_size=3).map(",".join))),
    ],
    "ensemble-check": [
        _CUTOFF,
        _optional(st.lists(st.integers(-1, 2).map(str), min_size=2, max_size=2).map(lambda pair: ["--overlap", *pair])),
        _optional(_flag("--tol")),
    ],
}
FUZZ_ARGV = st.sampled_from(sorted(_FUZZ_COMMANDS)).flatmap(
    lambda name: st.tuples(*_FUZZ_COMMANDS[name], FUZZ_FORMAT).map(lambda parts: [name, *sum(parts, [])])
)


@pytest.fixture(scope="module")
def fuzz_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / CONFIG_NAME
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


def parsed_report(argv, out):
    """The report on stdout, parsed as JSON or as CSV rows under their header."""
    if "--format=csv" in argv:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows and all(rows[0]) and all(len(row) == len(rows[0]) for row in rows)
        return rows
    return json.loads(out)


@seed(20240817)
@settings(max_examples=300, deadline=None, database=None)
@given(argv=FUZZ_ARGV)
def test_fuzzed_calls_exit_cleanly(fuzz_config, argv):
    if argv[0] == "ensemble-check":
        argv = [*argv, f"--config={fuzz_config}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # any exception, a RuntimeWarning included, fails the property
    out, err = out.getvalue(), err.getvalue()
    lines = err.splitlines()
    event(f"{argv[0]} exit {code}")  # the spread shows under --hypothesis-show-statistics
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        parsed_report(argv, out)
    elif code == 2:
        assert out == "" and len(lines) == 1 and lines[0].startswith("dipolegauge: invalid input: ")
    elif argv[0] == "dicke-scan":
        # the failed rows, on stderr by F and in the report with empty values
        report = parsed_report(argv, out)
        failed = [row for row in report[1:] if row[3] == ""] if "--format=csv" in argv else [
            row for row in report["rows"] if "error" in row
        ]
        assert failed and len(lines) == len(failed)
        assert all(line.startswith("dicke-scan: F=") for line in lines)
    else:
        assert out == "" and len(lines) == 1 and lines[0].startswith("dipolegauge: computation failed: ")
