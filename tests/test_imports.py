"""Start-up structure: the package namespace and the modules each entry point loads.

The module checks run in fresh child interpreters, so nothing this process
has imported already can hide a load.  They assert which modules are
loaded, not how long loading takes.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import dipolegauge

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from workloads import SMALL_CONFIG, child_env, cli_commands  # noqa: E402

HEAVY = ("numpy", "scipy", "scipy.special", "scipy.integrate", "scipy.sparse", "scipy.spatial")
# what a dicke-scan process pool needs; a serial scan must not pay for it
POOL = ("multiprocessing", "concurrent.futures.process")

SCIPY = HEAVY[1:]

# Modules each entry point must leave out of sys.modules.  Only the Dicke
# coupling's ARPACK solve needs scipy: cutoff-window's quadrature cross-check
# is a standard-library QUADPACK port, ensemble-check's spacing checks run on
# a numpy cell list and --rwa scans on numpy's dense solver.  polarization
# needs no numpy either: the kernel at one point is a standard-library closed
# form, its envelope the standard-library incomplete gamma of _igamma.
NOT_LOADED = {
    "import dipolegauge": HEAVY,
    "import dipolegauge.dicke": SCIPY,
    "import dipolegauge.polarization": HEAVY,
    "critical-density": HEAVY,
    "polarization": HEAVY,
    "dicke-scan": ("scipy.integrate", "scipy.special", "scipy.spatial", *POOL),
    "dicke-scan --rwa": (*SCIPY, *POOL),
    "ensemble-check": SCIPY,
    "cutoff-window": HEAVY,
}
LOADED = {
    "import dipolegauge.dicke": ("numpy",),
    "dicke-scan": ("numpy", "scipy.sparse"),
    "dicke-scan --rwa": ("numpy",),
    "ensemble-check": ("numpy",),
}

# Runs `python -m dipolegauge.cli ARGV` in-process through runpy (or only
# imports the module when ARGV is a module name), then prints the loaded modules.
CHILD = """
import contextlib, importlib, io, json, runpy, sys
argv, watched = json.loads(sys.argv[1]), json.loads(sys.argv[2])
if isinstance(argv, str):
    importlib.import_module(argv)
else:
    sys.argv = ["dipolegauge", *argv]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("dipolegauge.cli", run_name="__main__")
        except SystemExit as exc:
            if exc.code != 0:
                raise
print(json.dumps([name for name in watched if name in sys.modules]))
"""

PUBLIC_NAMES = sorted(
    """
    AtomConfiguration AtomSpecies CONSTANTS CutoffWindow DickeParams
    FigureOfMeritReport GroundStateReport ModeSpec OverlapReport PerturbationReport
    PhysicalConstants QuadratureError ScanRow build_hamiltonian config_figure_of_merit
    coupling_g critical_density crossing_estimate crystalline_comparison cutoff_window
    default_species_registry derived_constants dipole_from_linewidth figure_of_merit
    fom_density_q fom_hydrogenlike ground_state hydrogen_first_order_shift
    hydrogen_shift_numeric hydrogen_wavenumber intimacy_radius intimacy_violations
    load_configuration load_species_registry longitudinal_dipole_polarization
    max_packing_density meanfield_order_parameter min_pairwise_distance observables
    perturbation_report quality_factor radial_envelope residual_overlap_energy
    rydberg_shift_ratio scan_coupling suppression_factor total_residual_polarization
    transverse_delta_k transverse_delta_real_exact transverse_delta_real_far
    transverse_polarization transverse_self_energy
    """.split()
)
SUBMODULES = ("constants", "coupling", "cutoff_window", "dicke", "ensemble", "polarization")


@pytest.fixture(scope="module")
def loaded_by(tmp_path_factory) -> dict[str, set[str]]:
    """Entry point -> watched modules it loaded; the children run side by side."""
    config = tmp_path_factory.mktemp("imports") / "atoms.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    commands = dict(cli_commands(str(config)))
    commands["dicke-scan --rwa"] = [*commands["dicke-scan"], "--rwa"]
    commands.update({name: name.split()[1] for name in NOT_LOADED if name.startswith("import ")})
    children = {
        name: subprocess.Popen(
            [sys.executable, "-c", CHILD, json.dumps(commands[name]), json.dumps(HEAVY + POOL)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=PERFBENCH.parent,
        )
        for name in NOT_LOADED
    }
    loaded = {}
    for name, child in children.items():
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, f"{name}: {err[-2000:]}"
        loaded[name] = set(json.loads(out))
    return loaded


@pytest.mark.parametrize("name", list(NOT_LOADED))
def test_entry_point_loads_only_what_it_uses(loaded_by, name):
    assert not loaded_by[name] & set(NOT_LOADED[name])
    assert loaded_by[name] >= set(LOADED.get(name, ()))


def test_public_names_resolve_to_their_definitions():
    assert sorted(dipolegauge.__all__) == PUBLIC_NAMES
    listed = dir(dipolegauge)
    modules = [importlib.import_module(f"dipolegauge.{name}") for name in SUBMODULES]
    for name in PUBLIC_NAMES:
        value = getattr(dipolegauge, name)
        assert name in listed
        # the same object under every submodule that has the name (the
        # cutoff_window module holds the cutoff_window function)
        holders = [module for module in modules if hasattr(module, name)]
        assert holders, name
        assert all(getattr(module, name) is value for module in holders), name
    for name in SUBMODULES:
        if name != "cutoff_window":  # the function of that name shadows its module
            assert getattr(dipolegauge, name) is sys.modules[f"dipolegauge.{name}"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        dipolegauge.not_a_name
