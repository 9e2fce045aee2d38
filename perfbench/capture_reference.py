"""Capture the oracle references in perfbench/data from the current source tree.

    PYTHONPATH=src python3 perfbench/capture_reference.py

Writes the seed-0 Dicke rows (serial and RWA legs) to data/dicke_seed0.json
and the stdout of each CLI subcommand to data/cli/<subcommand>.stdout.  The
committed files were captured at the commit that added the benchmark; run
this again only when an output is meant to change, and say so.
"""

import json
import subprocess
import sys

import workloads
from dipolegauge import dicke


def dump_rows(reference: dict) -> str:
    """The reference as JSON with one scan row per line."""
    legs = []
    for leg, by_size in reference.items():
        sizes = []
        for n_atoms, rows in by_size.items():
            body = ",\n".join(f"   {json.dumps(row)}" for row in rows)
            sizes.append(f'  "{n_atoms}": [\n{body}\n  ]')
        legs.append(f' "{leg}": {{\n' + ",\n".join(sizes) + "\n }")
    return "{\n" + ",\n".join(legs) + "\n}\n"


def main() -> None:
    out = workloads.HERE.parent / ".perfbench_out"
    out.mkdir(exist_ok=True)
    grid = [round(workloads.GRID_STEP * i, 10) for i in range(workloads.GRID_POINTS)]
    reference = {}
    for leg, sizes, rwa in (("serial", workloads.DICKE_SIZES, False), ("rwa", workloads.RWA_SIZES, True)):
        reference[leg] = {}
        for n_atoms in sizes:
            template = dicke.DickeParams(n_atoms=n_atoms, omega=1.0, omega_a=1.0, g_collective=0.0, rwa=rwa)
            rows = dicke.scan_coupling(template, grid)
            reference[leg][str(n_atoms)] = [workloads.row_values(row) for row in rows]
    (workloads.DATA / "dicke_seed0.json").write_text(dump_rows(reference), encoding="utf-8")

    config = out / workloads.CONFIG_NAME
    config.write_text(json.dumps(workloads.SMALL_CONFIG), encoding="utf-8")
    golden = workloads.DATA / "cli"
    golden.mkdir(parents=True, exist_ok=True)
    for name, args in workloads.cli_commands(str(config)):
        proc = subprocess.run(
            [sys.executable, "-m", "dipolegauge.cli", *args],
            capture_output=True,
            check=True,
            env=workloads.child_env(),
            timeout=120,
        )
        (golden / f"{name}.stdout").write_bytes(proc.stdout)


if __name__ == "__main__":
    main()
