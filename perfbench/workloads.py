"""The four benchmark workloads: seeded inputs, one timed pass, output oracles.

Every workload is a closed loop with one client: each library call starts
when the previous one has returned (the `max_workers=2` scan leg is the one
place the library itself runs two threads).  A workload builds its inputs
from the seed alone and hands the library only those inputs.  A pass
returns the time of each timed call, which CLOCK scales to a reference host
speed (hostclock.py); the output of every operation is checked against an
oracle that shares no code with the path being timed, and each failed
check counts against `failed`.

Why these workloads, and which per-layer metric should move which leg, is
written down in README.md beside this file.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from statistics import median

import numpy as np

import dipolegauge  # run.py checks which copy was imported
from dipolegauge import cli, dicke, ensemble
from dipolegauge.constants import BOHR_RADIUS, CONSTANTS
from hostclock import HostClock

HERE = Path(__file__).resolve().parent
CLOCK = HostClock()
DATA = HERE / "data"

MU = 0.5 / BOHR_RADIUS  # cutoff wavenumber kM of criterion 10 (1/m)
D0 = CONSTANTS.e_charge * BOHR_RADIUS  # atomic-unit dipole (C m)
PAIR_RADIUS = 2.0 / MU  # intimacy radius 2/kM (m)


class Checks:
    """Operations attempted and failed; a failure keeps its message."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.append(f"{what}: {'; '.join(problems)}")


class Workload:
    """A seeded input set, one timed pass over it, and what a traced pass adds."""

    name: str
    legs: tuple[str, str, str]  # reported as leg1_s, leg2_s, leg3_s
    peak_rss_kb: int | None = None  # set by workloads whose work runs in child processes
    min_passes = 1  # an untraced run makes at least this many passes, however long they take

    def run_pass(self, tracer, checks: "Checks") -> dict[str, list[float]]:
        """The time of each timed call, keyed by the call's id."""
        raise NotImplementedError

    def in_leg(self, leg: str, call: str) -> bool:
        raise NotImplementedError

    def summarize(self, samples: dict[str, list[float]]) -> dict[str, float]:
        """Each leg sums, over its calls, each call's median over the run's passes.

        A burst of load on the shared machine then costs one sample of one
        call, not a whole leg.
        """
        per_call = {call: median(values) for call, values in samples.items()}
        return {leg: sum(value for call, value in per_call.items() if self.in_leg(leg, call)) for leg in self.legs}

    def trace_targets(self, tracer) -> list:
        """Module attributes a traced pass rebinds (see Tracer.patched)."""
        return []

    def run_layer_probes(self, tracer, checks: "Checks") -> None:
        """Extra per-layer measurements taken after the traced pass."""

    def run_alloc_pass(self) -> float | None:
        """Peak traced allocation (MB) in a tracemalloc pass of its own, if measured."""
        return None

    def layer_metrics(self, table, untraced: dict[str, float]) -> dict[str, float]:
        raise NotImplementedError


def _call(fn, *args, **kwargs):
    """(result, None) or (None, message): a raising operation is a failed one."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # the pass must go on and count the failure
        return None, f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# dicke_scan
# ---------------------------------------------------------------------------

DICKE_SIZES = (8, 16, 24, 32)
RWA_SIZES = (16, 32)
# One pass: the legs take turns, so that a burst of load on the shared
# machine lands on all three rather than on whichever leg is running.  Each
# N runs serially, then on two threads.
PASS_ORDER = (8, 16, "rwa", 24, 32)
GRID_STEP = 0.1
GRID_POINTS = 26  # F = 0 .. 2.5
MONOTONE_SLACK = 1e-6  # criterion 07's allowance for a flat photon fraction
# A sector-supported state has parity exactly +/-1; the reported expectation
# is a sum of squared amplitudes and carries a few ulp of rounding.
PARITY_ROUNDING = 1e-12
# Seed-0 rows must match the reference within the solver's own tolerances:
# the Fock walk accepts a truncation once the photon fraction moves by less
# than 1e-4, and a truncation change moves the energy far less than 1e-6.
REFERENCE_FRACTION_TOL = 1e-4
REFERENCE_ENERGY_RTOL = 1e-6


def meanfield_fraction(fom: float) -> float:
    """Large-N photon fraction at resonance: F/4 (1 - 1/F^2) above F = 1."""
    return 0.0 if fom <= 1.0 else fom / 4.0 * (1.0 - 1.0 / fom**2)


def row_values(row) -> list:
    return [row.fom, row.n_atoms, row.n_max, row.energy, row.photon_fraction, row.inversion, row.sx2_fraction, row.parity]


class DickeScan(Workload):
    """Acceptance scans: serial grid, the same grid on two threads, an RWA leg."""

    name = "dicke_scan"
    legs = ("scan_s", "scan_jobs2_s", "scan_rwa_s")
    min_passes = 2  # every call is timed at least twice (a pass: about 9 s at the reference speed)

    def __init__(self, seed: int, out_dir: Path):
        offset = 0.0 if seed == 0 else float(np.random.default_rng(seed).uniform(0.0, GRID_STEP))
        self.grid = [round(offset + GRID_STEP * i, 10) for i in range(GRID_POINTS)]
        self.reference = None
        if seed == 0:
            self.reference = json.loads((DATA / "dicke_seed0.json").read_text(encoding="utf-8"))
        self.last_serial: dict = {}

    def _scan(self, tracer, leg: str, n_atoms: int, rwa: bool, workers: int):
        """Time and rows (or the error message) of one whole-grid call."""
        tracer.leg = leg
        template = dicke.DickeParams(n_atoms=n_atoms, omega=1.0, omega_a=1.0, g_collective=0.0, rwa=rwa)
        with CLOCK.timing(probe_during=workers == 1) as reading, tracer.op(f"{leg}/N{n_atoms}"):
            rows, error = _call(dicke.scan_coupling, template, self.grid, max_workers=workers)
        tracer.leg = None
        return reading.seconds, rows if error is None else error

    def run_pass(self, tracer, checks: Checks) -> dict[str, list[float]]:
        serial, jobs2, rwa_runs = {}, {}, []
        samples: dict[str, list[float]] = {}
        for step in PASS_ORDER:
            if step == "rwa":
                rwa_runs.append({})
                for n_atoms in RWA_SIZES:
                    elapsed, rwa_runs[-1][n_atoms] = self._scan(tracer, "rwa", n_atoms, rwa=True, workers=1)
                    samples.setdefault(f"rwa/N{n_atoms}", []).append(elapsed)
                continue
            elapsed, serial[step] = self._scan(tracer, "serial", step, rwa=False, workers=1)
            samples[f"serial/N{step}"] = [elapsed]
            elapsed, jobs2[step] = self._scan(tracer, "jobs2", step, rwa=False, workers=2)
            samples[f"jobs2/N{step}"] = [elapsed]
        self.last_serial = serial
        self._check(serial, jobs2, rwa_runs, checks)
        return samples

    def in_leg(self, leg: str, call: str) -> bool:
        return call.startswith({"scan_s": "serial/", "scan_jobs2_s": "jobs2/", "scan_rwa_s": "rwa/"}[leg])

    def _check(self, serial, jobs2, rwa_runs, checks: Checks) -> None:
        for leg, by_size in [("serial", serial)] + [("rwa", rwa) for rwa in rwa_runs]:
            for n_atoms, rows in by_size.items():
                if isinstance(rows, str):
                    for fom in self.grid:
                        checks.record([rows], f"dicke {leg} N={n_atoms} F={fom}")
                    continue
                problems = self._row_problems(leg, n_atoms, rows)
                for row, row_problems in zip(rows, problems):
                    checks.record(row_problems, f"dicke {leg} N={n_atoms} F={row.fom}")
        for n_atoms, rows in jobs2.items():
            expected = serial[n_atoms]
            for i, fom in enumerate(self.grid):
                if isinstance(rows, str):
                    problems = [rows]
                elif isinstance(expected, str) or rows[i] != expected[i]:
                    problems = ["row differs from the serial scan"]
                else:
                    problems = []
                checks.record(problems, f"dicke jobs2 N={n_atoms} F={fom}")

    def _row_problems(self, leg: str, n_atoms: int, rows) -> list[list[str]]:
        problems: list[list[str]] = [[] for _ in rows]
        if [row.fom for row in rows] != self.grid:
            problems[0].append("rows do not follow the grid")
        for row, found in zip(rows, problems):
            if row.error is not None:
                found.append(f"row error: {row.error}")
            elif abs(abs(row.parity) - 1.0) > PARITY_ROUNDING:
                found.append(f"parity {row.parity!r} is not +/-1")
        fractions = [row.photon_fraction for row in rows]
        for i in range(1, len(rows)):
            if None not in (fractions[i - 1], fractions[i]) and fractions[i] < fractions[i - 1] - MONOTONE_SLACK:
                problems[i].append("photon fraction decreases in F")
        if leg == "serial" and n_atoms == 24:
            # criterion 07's passing checks, at the grid points nearest F = 0.5 and 2.0
            low = min(range(len(rows)), key=lambda i: abs(rows[i].fom - 0.5))
            high = min(range(len(rows)), key=lambda i: abs(rows[i].fom - 2.0))
            if fractions[low] is None or not fractions[low] < 0.02:
                problems[low].append(f"photon fraction {fractions[low]} not below 0.02")
            expected = meanfield_fraction(rows[high].fom)
            if fractions[high] is None or abs(fractions[high] / expected - 1.0) > 0.15:
                problems[high].append(f"photon fraction {fractions[high]} not within 15% of {expected}")
        if self.reference is not None:
            reference = self.reference[leg][str(n_atoms)]
            for row, ref, found in zip(rows, reference, problems):
                found.extend(_reference_problems(row_values(row), ref))
        return problems

    def layer_metrics(self, table, untraced: dict[str, float]) -> dict[str, float]:
        serial = lambda op: op.startswith("serial/")  # noqa: E731
        builds = table.calls("dicke.build_hamiltonian", serial)
        rows = [row for by_size in self.last_serial.values() if not isinstance(by_size, str) for row in by_size]
        converged = [row.n_max for row in rows if row.n_max is not None]
        points = sorted(table.op_walls(lambda op: op.startswith("serial/") and "/g" in op).values())
        return {
            "dicke.build_hamiltonian.calls": builds,
            "dicke.build_hamiltonian.self_s": table.self_sum("dicke.build_hamiltonian", serial),
            "dicke.ground_state.calls": table.calls("dicke.ground_state", serial),
            "dicke.ground_state.self_s": table.self_sum("dicke.ground_state", serial),
            "dicke.sector_dim_sum": table.size_sum("dicke.ground_state", serial),
            "dicke.ground_state_sectored.self_s": table.self_sum("dicke.ground_state_sectored", serial),
            "dicke.observables.self_s": table.self_sum("dicke.observables", serial),
            "dicke.fock_accept_ratio": len(rows) / builds if builds else 0.0,
            "dicke.n_max_mean": float(np.mean(converged)) if converged else 0.0,
            "dicke.point_p50_s": percentile(points, 50),
            "dicke.point_p90_s": percentile(points, 90),
            "dicke.jobs2_efficiency": untraced["scan_s"] / (2.0 * untraced["scan_jobs2_s"]),
        }

    def trace_targets(self, tracer):
        point = lambda p, *args, **kwargs: f"{tracer.leg}/N{p.n_atoms}/g{p.g_collective!r}"  # noqa: E731
        dim = lambda h, *args, **kwargs: int(h.shape[0])  # noqa: E731
        return [
            (dicke, "scan_coupling", lambda fn: tracer.wrap("dicke.scan_coupling", fn)),
            (dicke, "build_hamiltonian", lambda fn: tracer.wrap("dicke.build_hamiltonian", fn, op_of=point)),
            (dicke, "ground_state_sectored", lambda fn: tracer.wrap("dicke.ground_state_sectored", fn)),
            (dicke, "ground_state", lambda fn: tracer.wrap("dicke.ground_state", fn, size=dim)),
            (dicke, "observables", lambda fn: tracer.wrap("dicke.observables", fn)),
        ]


def _reference_problems(values: list, ref: list) -> list[str]:
    """Seed-0 row against the row captured at the seed commit."""
    fom, n_atoms, _, energy, *fractions, parity = values
    ref_fom, ref_n, _, ref_energy, *ref_fractions, ref_parity = ref
    if (fom, n_atoms) != (ref_fom, ref_n):
        return [f"grid point ({fom}, {n_atoms}) is not the reference ({ref_fom}, {ref_n})"]
    if energy is None or parity is None or None in fractions:
        return []  # already reported as a row error
    found = []
    if abs(energy - ref_energy) > REFERENCE_ENERGY_RTOL * max(1.0, abs(ref_energy)):
        found.append(f"energy {energy!r} differs from reference {ref_energy!r}")
    for label, value, expected in zip(("photon_fraction", "inversion", "sx2_fraction"), fractions, ref_fractions):
        if abs(value - expected) > REFERENCE_FRACTION_TOL:
            found.append(f"{label} {value!r} differs from reference {expected!r}")
    if round(parity) != round(ref_parity):
        found.append(f"parity {parity!r} differs from reference {ref_parity!r}")
    return found


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


# ---------------------------------------------------------------------------
# overlap_pairs
# ---------------------------------------------------------------------------

OVERLAP_X = (4.0, 8.0, 6.0, 10.0)  # kM * separation; near and far pairs take turns
NEAR_X = 6.0  # pairs up to this kM * separation form leg2, the rest leg3
OVERLAP_TOL = 1e-5
CRITERION_10_DIPOLES = ((0.2, 0.5, 0.8), (-0.6, 0.1, 0.7))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly distributed proper rotation (QR of a Gaussian matrix)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def closed_form_overlap(d_a: np.ndarray, d_b: np.ndarray, r_vec: np.ndarray) -> float:
    """d_A . T(r) . d_B / eps0 with the k-space closed-form tensor (J)."""
    separation = float(np.linalg.norm(r_vec))
    n = r_vec / separation
    x = MU * separation
    prefactor = MU**3 * math.exp(-x) / (8.0 * math.pi * x**3)
    tensor = prefactor * ((x**3 + x**2 + 2 * x + 2) * np.eye(3) - (x**3 + 3 * x**2 + 6 * x + 6) * np.outer(n, n))
    return float(d_a @ tensor @ d_b) / CONSTANTS.eps0


def envelope_bound(d_a: np.ndarray, d_b: np.ndarray, separation: float) -> float:
    """|dA||dB| kM^3/(8 pi eps0) e^-x (2x^3 + 4x^2 + 8x + 8)/x^3, x = kM r (J)."""
    x = MU * separation
    poly = (2.0 * x**3 + 4.0 * x**2 + 8.0 * x + 8.0) / x**3
    return float(np.linalg.norm(d_a) * np.linalg.norm(d_b)) * MU**3 / (8.0 * math.pi * CONSTANTS.eps0) * math.exp(-x) * poly


class OverlapPairs(Workload):
    """Residual pair overlaps of criterion 10, rigidly rotated by the seed."""

    name = "overlap_pairs"
    legs = ("overlap_s", "overlap_near_s", "overlap_far_s")

    def __init__(self, seed: int, out_dir: Path):
        # One rotation for the whole geometry keeps the relative orientations,
        # and so the quadrature's work, the same for every seed; independent
        # random dipoles change the work per pair by up to 2.5x.
        rotation = np.eye(3) if seed == 0 else random_rotation(np.random.default_rng(seed))
        d_a, d_b = (rotation @ (D0 * np.asarray(d)) for d in CRITERION_10_DIPOLES)
        self.pairs = []
        for x in OVERLAP_X:
            positions = np.array([[0.0, 0.0, 0.0], rotation @ np.array([0.0, 0.0, x / MU])])
            self.pairs.append((x, positions, np.array([d_a, d_b])))
        self.worst = {"err_over_target": 0.0, "dev_over_bound": 0.0}

    def run_pass(self, tracer, checks: Checks) -> dict[str, list[float]]:
        samples = {}
        for x, positions, dipoles in self.pairs:
            with CLOCK.timing(probe_during=True) as reading, tracer.op(f"pair/x{x:g}"):
                report, error = _call(self._overlap, positions, dipoles)
            samples[f"pair/x{x:g}"] = [reading.seconds]
            checks.record([error] if error else self._problems(report, positions, dipoles), f"overlap kM*r={x:g}")
        return samples

    def in_leg(self, leg: str, call: str) -> bool:
        near = float(call.split("/x")[1]) <= NEAR_X
        return {"overlap_s": True, "overlap_near_s": near, "overlap_far_s": not near}[leg]

    @staticmethod
    def _overlap(positions, dipoles):
        config = ensemble.AtomConfiguration(positions=positions, dipoles=dipoles, volume=1e-27)
        return ensemble.residual_overlap_energy(config, (0, 1), MU, tol=OVERLAP_TOL)

    def _problems(self, report, positions, dipoles) -> list[str]:
        r_vec = positions[1] - positions[0]
        bound = envelope_bound(dipoles[0], dipoles[1], float(np.linalg.norm(r_vec)))
        deviation = abs(report.overlap_energy - closed_form_overlap(dipoles[0], dipoles[1], r_vec))
        self.worst["dev_over_bound"] = max(self.worst["dev_over_bound"], deviation / bound)
        self.worst["err_over_target"] = max(self.worst["err_over_target"], report.error_estimate / (OVERLAP_TOL * bound))
        if deviation > OVERLAP_TOL * bound:
            return [f"|E - closed form| = {deviation:.3e} J exceeds tol * bound = {OVERLAP_TOL * bound:.3e} J"]
        return []

    def layer_metrics(self, table, untraced: dict[str, float]) -> dict[str, float]:
        return {
            "ensemble.quad_calls": table.counts.get("ensemble.quad", 0),
            "polarization.field_calls": table.calls("polarization.total_residual_polarization_many"),
            "polarization.field_points": table.size_sum("polarization.total_residual_polarization_many"),
            "polarization.field_self_s": table.self_sum("polarization.total_residual_polarization_many"),
            "ensemble.residual_overlap_energy.self_s": table.self_sum("ensemble.residual_overlap_energy"),
            "ensemble.overlap_err_over_target": self.worst["err_over_target"],
            "ensemble.overlap_dev_over_bound": self.worst["dev_over_bound"],
        }

    def trace_targets(self, tracer):
        points = lambda d, x_a, k_m, pts, *args, **kwargs: len(pts)  # noqa: E731
        return [
            (ensemble, "residual_overlap_energy", lambda fn: tracer.wrap("ensemble.residual_overlap_energy", fn)),
            (
                ensemble,
                "total_residual_polarization_many",
                lambda fn: tracer.wrap("polarization.total_residual_polarization_many", fn, size=points),
            ),
            (ensemble, "integrate", lambda module: _CountingQuad(module, tracer)),
        ]


class _CountingQuad:
    """Stand-in for the scipy.integrate module seen by ensemble: counts quad calls."""

    def __init__(self, module, tracer):
        self._module = module
        self.quad = tracer.counted("ensemble.quad", module.quad)

    def __getattr__(self, name):
        return getattr(self._module, name)


# ---------------------------------------------------------------------------
# ensemble_geometry
# ---------------------------------------------------------------------------

GEOMETRY_SIZES = (250, 500, 1000)
SMALL_ATOMS = 500
# Dense: every size in one cube of side 5 * (2/kM), so a few percent of all
# pairs (2.7% at seed 0) sit inside the intimacy radius.  Sparse:
# 100 (2/kM)^3 per atom, with atoms redrawn until no pair is that close.
DENSE_SIDE = 5.0
SPARSE_VOLUME_PER_ATOM = 100.0


def _atoms(config_id: str) -> int:
    """Atom count of a configuration id such as "dense/N500"."""
    return int(config_id.split("/N")[1])


def _close_atoms(positions: np.ndarray, radius: float) -> np.ndarray:
    """Indices j of pairs i < j closer than radius (row blocks keep memory small)."""
    found = []
    for start in range(0, len(positions), 256):
        block = positions[start : start + 256]
        d2 = ((block[:, None, :] - positions[None, :, :]) ** 2).sum(axis=-1)
        i, j = np.nonzero(d2 < radius * radius)
        found.append(j[j > i + start])
    return np.unique(np.concatenate(found))


class EnsembleGeometry(Workload):
    """Configuration checks over a ladder of atom counts at two densities."""

    name = "ensemble_geometry"
    legs = ("geometry_s", "geometry_small_s", "geometry_large_s")
    min_passes = 3  # a pass times each configuration once (about 3 s at the reference speed)

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        configs = []
        for n_atoms in GEOMETRY_SIZES:
            side = DENSE_SIDE * PAIR_RADIUS
            positions = rng.uniform(0.0, side, size=(n_atoms, 3))
            configs.append((f"dense/N{n_atoms}", positions, D0 * rng.standard_normal((n_atoms, 3)), side**3))
            side = PAIR_RADIUS * (SPARSE_VOLUME_PER_ATOM * n_atoms) ** (1.0 / 3.0)
            positions = rng.uniform(0.0, side, size=(n_atoms, 3))
            while (close := _close_atoms(positions, 1.001 * PAIR_RADIUS)).size:
                positions[close] = rng.uniform(0.0, side, size=(close.size, 3))
            configs.append((f"sparse/N{n_atoms}", positions, D0 * rng.standard_normal((n_atoms, 3)), side**3))
        # Small and large configurations take turns within a pass.
        small = [config for config in configs if len(config[1]) <= SMALL_ATOMS]
        large = [config for config in configs if len(config[1]) > SMALL_ATOMS]
        self.configs = []
        for index in range(max(len(small), len(large))):
            self.configs.extend(small[index : index + 1] + large[index : index + 1])
        self.expected: dict[str, tuple] = {}
        self.violations: dict[str, int] = {}

    def _check_one(self, positions, dipoles, volume):
        config = ensemble.AtomConfiguration(positions=positions, dipoles=dipoles, volume=volume)
        return ensemble.min_pairwise_distance(config), ensemble.intimacy_violations(config, MU)

    def run_pass(self, tracer, checks: Checks) -> dict[str, list[float]]:
        samples, results = {}, []
        for cid, positions, dipoles, volume in self.configs:
            with CLOCK.timing(probe_during=True) as reading, tracer.op(cid):
                result, error = _call(self._check_one, positions, dipoles, volume)
            samples[cid] = [reading.seconds]
            results.append((cid, positions, result, error))
        for cid, positions, result, error in results:
            checks.record([error] if error else self._problems(cid, positions, *result), f"geometry {cid}")
        return samples

    def in_leg(self, leg: str, call: str) -> bool:
        small = _atoms(call) <= SMALL_ATOMS
        return {"geometry_s": True, "geometry_small_s": small, "geometry_large_s": not small}[leg]

    def _problems(self, cid, positions, min_distance, violations) -> list[str]:
        if cid not in self.expected:
            from scipy.spatial import cKDTree  # oracle only, imported after the first timed pass

            tree = cKDTree(positions)
            pairs = {(int(i), int(j)) for i, j in tree.query_pairs(PAIR_RADIUS)}
            self.expected[cid] = (float(tree.query(positions, k=2)[0][:, 1].min()), pairs)
        expected_min, expected_pairs = self.expected[cid]
        found = []
        got = {(int(i), int(j)) for i, j in violations}
        self.violations[cid] = len(got)
        if got != expected_pairs or len(got) != len(violations):
            found.append(f"{len(violations)} violations, k-d tree finds {len(expected_pairs)}")
        if abs(min_distance - expected_min) > 1e-12 * expected_min:
            found.append(f"minimum distance {min_distance!r} differs from k-d tree {expected_min!r}")
        return found

    def run_alloc_pass(self) -> float:
        """Peak traced allocation (MB) of the largest dense configuration.

        The largest configuration sets the peak, and the dense one holds the
        most close pairs.  tracemalloc slows the pair loop about fivefold, so
        this runs once, after the traced pass, on that configuration alone.
        """
        largest = f"dense/N{GEOMETRY_SIZES[-1]}"
        _, positions, dipoles, volume = next(config for config in self.configs if config[0] == largest)
        tracemalloc.start()
        try:
            self._check_one(positions, dipoles, volume)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def layer_metrics(self, table, untraced: dict[str, float]) -> dict[str, float]:
        """Self times for one run of the ladder, whole and its small part."""
        small = lambda op: _atoms(op) <= SMALL_ATOMS  # noqa: E731
        metrics = {"ensemble.violation_pairs": sum(self.violations.values())}
        for name in ("AtomConfiguration", "min_pairwise_distance", "intimacy_violations"):
            metrics[f"ensemble.{name}.self_s"] = table.self_sum(f"ensemble.{name}")
            metrics[f"ensemble.{name}.small_self_s"] = table.self_sum(f"ensemble.{name}", small)
        return metrics

    def trace_targets(self, tracer):
        return [
            (ensemble, name, lambda fn, name=name: tracer.wrap(f"ensemble.{name}", fn))
            for name in ("AtomConfiguration", "min_pairwise_distance", "intimacy_violations")
        ]


# ---------------------------------------------------------------------------
# cli_calls
# ---------------------------------------------------------------------------

SMALL_CONFIG = {
    "positions_m": [[0.0, 0.0, 0.0], [0.0, 0.0, 3.0e-10]],
    "dipoles_Cm": [[0.0, 0.0, 8.5e-30], [0.0, 0.0, 8.5e-30]],
    "volume_m3": 1e-27,
}
CONFIG_NAME = "atoms.json"


def cli_commands(config_path: str) -> list[tuple[str, list[str]]]:
    """The five subcommands, each with the arguments its golden output was captured for."""
    return [
        ("cutoff-window", ["cutoff-window", "--kM-inv-bohr", "0.5", "--species", "H"]),
        ("critical-density", ["critical-density", "--compare-crystalline", "--format", "csv"]),
        ("polarization", ["polarization", "--kM", "1e10", "--kernel", "1e-10,2e-10,-1e-10"]),
        ("dicke-scan", ["dicke-scan", "--N", "6", "--F", "0:1:0.5", "--resonant", "--format", "csv"]),
        ("ensemble-check", ["ensemble-check", "--config", config_path, "--kM-inv-bohr", "0.5"]),
    ]


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's src first on the path."""
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def parse_importtime(stderr: str) -> list[tuple[int, str, float]]:
    """(indent, module, cumulative s) per line of `python -X importtime`, in output order."""
    entries = []
    for line in stderr.splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(fields[1]) * 1e-6))
    return entries


def import_seconds(entries, package: str) -> float:
    """Cumulative import time of package and its submodules, outermost entries only.

    The output lists a module after everything it imported, deeper-indented.
    A package reached through scipy's lazy module __getattr__ has no line of
    its own (scipy.integrate here); its submodules then stand directly under
    the importer, so they are summed instead.
    """
    total = 0.0
    inside = None  # indent of the counted entry whose descendants are being skipped
    for indent, name, seconds in reversed(entries):
        if inside is not None and indent > inside:
            continue
        inside = None
        if name == package or name.startswith(package + "."):
            total += seconds
            inside = indent
    return total


class CliCalls(Workload):
    """One `python -m dipolegauge.cli` child at a time over the five subcommands."""

    name = "cli_calls"
    legs = ("cli_call_p50_s", "import_p50_s", "sequence_s")

    def __init__(self, seed: int, out_dir: Path):
        self.root = HERE.parent
        config = out_dir / CONFIG_NAME
        config.write_text(json.dumps(SMALL_CONFIG), encoding="utf-8")
        self.config_path = os.path.relpath(config, self.root)
        self.stderr_path = out_dir / "cli-stderr.txt"
        commands = cli_commands(self.config_path)
        if seed != 0:
            order = np.random.default_rng(seed).permutation(len(commands))
            commands = [commands[i] for i in order]
        self.commands = commands
        self.golden = {name: (DATA / "cli" / f"{name}.stdout").read_bytes() for name, _ in commands}
        self.env = child_env()
        self.peak_rss_kb = 0
        self.extra: dict[str, float] = {}

    def _spawn(self, argv: list[str]) -> tuple[int, bytes]:
        """Exit code and stdout of one child, run from spawn to exit."""
        with open(self.stderr_path, "wb") as stderr:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr, env=self.env, cwd=self.root)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 above; Popen must not wait again
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out

    def run_pass(self, tracer, checks: Checks) -> dict[str, list[float]]:
        """Call times, bare-import times, and each subcommand's time under its own key."""
        samples: dict[str, list[float]] = {"cli_call_p50_s": [], "import_p50_s": []}
        for name, args in self.commands:
            with CLOCK.timing(probe_during=False) as reading:  # a bare import before every call
                code, _ = self._spawn([sys.executable, "-c", "import dipolegauge"])
            samples["import_p50_s"].append(reading.seconds)
            checks.record([] if code == 0 else [f"exit code {code}"], "cli import")
            with CLOCK.timing(probe_during=False) as reading, tracer.op(f"call/{name}"), tracer.span(f"cli.{name}"):
                code, out = self._spawn([sys.executable, "-m", "dipolegauge.cli", *args])
            samples["cli_call_p50_s"].append(reading.seconds)
            samples[f"call/{name}"] = [reading.seconds]
            problems = [] if code == 0 else [f"exit code {code}: {self.stderr_path.read_text(errors='replace')[-500:]}"]
            if out != self.golden[name]:
                problems.append("stdout differs from the golden output")
            checks.record(problems, f"cli {name}")
        return samples

    def summarize(self, samples: dict[str, list[float]]) -> dict[str, float]:
        """Medians over all calls and all imports; the sequence sums each subcommand's median."""
        return {
            "cli_call_p50_s": median(samples["cli_call_p50_s"]),
            "import_p50_s": median(samples["import_p50_s"]),
            "sequence_s": sum(median(values) for key, values in samples.items() if key.startswith("call/")),
        }

    def run_layer_probes(self, tracer, checks: Checks) -> None:
        """Import breakdown in a fresh child, then main(argv) in this process."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import dipolegauge"],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=self.root,
            timeout=120,
        )
        checks.record([] if proc.returncode == 0 else [f"exit code {proc.returncode}"], "cli importtime")
        entries = parse_importtime(proc.stderr)
        self.extra = {
            "cli.import_s": import_seconds(entries, "dipolegauge"),
            "cli.import.scipy_integrate_s": import_seconds(entries, "scipy.integrate"),
            "cli.import.scipy_special_s": import_seconds(entries, "scipy.special"),
            "constants.import_s": import_seconds(entries, "dipolegauge.constants"),
        }
        targets = [
            (cli, "perturbation_report", lambda fn: tracer.wrap("cutoff_window.perturbation_report", fn)),
            (cli, "default_species_registry", lambda fn: tracer.wrap("coupling.default_species_registry", fn)),
        ]
        with tracer.patched(targets):
            for name, args in self.commands:
                buffer = io.StringIO()
                with tracer.op(f"main/{name}"), tracer.span("cli.main"), redirect_stdout(buffer):
                    code, error = _call(cli.main, args)
                problems = [error] if error else ([] if code == 0 else [f"main returned {code}"])
                if buffer.getvalue().encode("utf-8") != self.golden[name]:
                    problems.append("in-process stdout differs from the golden output")
                checks.record(problems, f"cli main {name}")

    def layer_metrics(self, table, untraced: dict[str, float]) -> dict[str, float]:
        metrics = dict(self.extra)
        for name, _ in self.commands:
            metrics[f"cli.{name}.wall_s"] = sum(end - start for _, _, start, end, *_ in table.select(f"cli.{name}"))
        metrics["cli.main_s"] = sum(end - start for _, _, start, end, *_ in table.select("cli.main"))
        metrics["cutoff_window.perturbation_report.self_s"] = table.self_sum("cutoff_window.perturbation_report")
        metrics["coupling.default_species_registry.self_s"] = table.self_sum("coupling.default_species_registry")
        return metrics


WORKLOADS = {cls.name: cls for cls in (DickeScan, OverlapPairs, EnsembleGeometry, CliCalls)}

