import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dipolegauge import polarization
from dipolegauge.cli import main
from dipolegauge.polarization import radial_envelope
from conftest import ACCEPTED_ON_A_ROUNDING

# criterion 11 runs the benchmark's own command list against its golden stdout
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from workloads import SMALL_CONFIG, cli_commands  # noqa: E402

CONFIG_NAME = "atoms.json"


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


def rejected_by_parser(capsys, argv):
    """Exit code and stderr of an argument the parser refuses."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return exc.value.code, captured.err


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
        code, err = rejected_by_parser(capsys, ["cutoff-window", "--kM", "1e10", "--k-radiation", "inf"])
        assert code == 2
        assert "finite" in err

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
        code, err = rejected_by_parser(capsys, ["polarization", "--kM", "1e10", "--r", "nan", "--envelope"])
        assert code == 2
        assert "finite" in err

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


class TestDeterminism:
    @pytest.mark.parametrize("name", [name for name, _ in cli_commands(CONFIG_NAME)])
    def test_criterion_11_matches_golden_bytes(self, capsys, atoms_file, name):
        argv = dict(cli_commands(atoms_file))[name]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert out.encode("utf-8") == (PERFBENCH / "data" / "cli" / f"{name}.stdout").read_bytes()

    def test_rwa_scan_matches_golden_bytes(self, capsys):
        # no criterion-11 command takes the rwa path; this golden holds its bits
        argv = ["dicke-scan", "--N", "8", "--F", "0:2.5:0.1", "--resonant", "--rwa", "--format", "csv"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert out.encode("utf-8") == (Path(__file__).parent / "data" / "dicke-scan-rwa.stdout").read_bytes()

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
