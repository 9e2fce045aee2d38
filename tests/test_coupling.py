import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from dipolegauge.constants import BOHR_RADIUS, CONSTANTS, DOMAINS, wavelength_to_omega
from dipolegauge.coupling import (
    AtomSpecies,
    METHOD_COUPLING,
    METHOD_DENSITY_HYDROGENLIKE,
    METHOD_DENSITY_QUALITY,
    ModeSpec,
    RegistryError,
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
    species_critical_density,
)

EA0 = CONSTANTS.e_charge * BOHR_RADIUS
OMEGA_780 = wavelength_to_omega(780.24e-9)


@pytest.fixture(scope="module")
def registry():
    return default_species_registry()


class TestCouplingConstant:
    def test_reference_value(self):
        g = coupling_g(ModeSpec(omega=OMEGA_780, volume=1e-18), EA0)
        assert g == pytest.approx(9.6398497e9, rel=1e-7)

    def test_zero_dipole(self):
        assert coupling_g(ModeSpec(omega=OMEGA_780, volume=1e-18), 0.0) == 0.0

    def test_volume_scaling(self):
        small = coupling_g(ModeSpec(omega=OMEGA_780, volume=1e-18), EA0)
        large = coupling_g(ModeSpec(omega=OMEGA_780, volume=4e-18), EA0)
        assert small == pytest.approx(2.0 * large, rel=1e-12)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ModeSpec(omega=0.0, volume=1e-18)


class TestFigureOfMerit:
    def test_critical_construction(self):
        g = math.sqrt(OMEGA_780 * OMEGA_780 / 24.0)
        report = figure_of_merit(24, g, OMEGA_780, OMEGA_780)
        assert report.value == pytest.approx(1.0, rel=1e-12)
        assert report.method == METHOD_COUPLING

    def test_linear_in_atom_number(self):
        one = figure_of_merit(7, 1e9, OMEGA_780, OMEGA_780)
        two = figure_of_merit(14, 1e9, OMEGA_780, OMEGA_780)
        assert two.value == pytest.approx(2.0 * one.value, rel=1e-12)

    def test_single_atom_reference(self):
        report = figure_of_merit(1, 9.6398497e9, OMEGA_780, OMEGA_780)
        assert report.value == pytest.approx(1.594394e-11, rel=1e-6)

    def test_atom_count_validation(self):
        with pytest.raises(ValueError):
            figure_of_merit(0, 1e9, OMEGA_780, OMEGA_780)


class TestDensityForms:
    def test_rubidium_near_critical(self, registry):
        rb = registry["Rb"]
        report = fom_density_q(7e27, rb.lambda_a, rb.quality)
        assert report.method == METHOD_DENSITY_QUALITY
        assert report.value == pytest.approx(1.0, rel=0.01)

    def test_zero_density(self):
        assert fom_density_q(0.0, 780e-9, 1.3e8).value == 0.0
        assert fom_hydrogenlike(0.0).value == 0.0

    @given(st.floats(min_value=1e25, max_value=1e29), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=20)
    def test_linear_in_density(self, density, scale):
        base = fom_density_q(density, 780e-9, 1.3e8).value
        scaled = fom_density_q(scale * density, 780e-9, 1.3e8).value
        assert scaled == pytest.approx(scale * base, rel=1e-12)
        assert fom_hydrogenlike(scale * density).value == pytest.approx(
            scale * fom_hydrogenlike(density).value, rel=1e-12
        )

    def test_hydrogenlike_unit_cell(self):
        density = 1.0 / (16.0 * math.pi * BOHR_RADIUS**3)
        report = fom_hydrogenlike(density)
        assert report.value == 1.0
        assert report.method == METHOD_DENSITY_HYDROGENLIKE
        assert density == pytest.approx(1.3425385e29, rel=1e-6)

    def test_hydrogenlike_at_rubidium_critical_density(self):
        assert fom_hydrogenlike(7e27).value == pytest.approx(0.0521400, rel=1e-5)


class TestCriticalDensity:
    def test_rubidium(self, registry):
        rb = registry["Rb"]
        value = species_critical_density(rb)
        assert value == pytest.approx(7.0e27, rel=0.10)
        assert value == pytest.approx(7.018733363e27, rel=1e-9)

    def test_quality_scaling(self):
        assert critical_density(780e-9, 2.6e8) == pytest.approx(
            2.0 * critical_density(780e-9, 1.3e8), rel=1e-12
        )

    def test_cesium_regression(self, registry):
        cs = registry["Cs"]
        assert cs.quality == pytest.approx(1.344003945e8, rel=1e-9)
        assert species_critical_density(cs) == pytest.approx(5.712414466e27, rel=1e-9)

    def test_inversion_identity(self):
        lam, quality = 852.347e-9, 1.35e8
        value = critical_density(lam, quality)
        assert value * lam**3 * 3.0 / (8.0 * math.pi**2) / quality == pytest.approx(1.0, rel=1e-12)


class TestDipoleLinewidth:
    def test_rubidium_dipole_scale(self, registry):
        rb = registry["Rb"]
        d = dipole_from_linewidth(rb.omega_a, rb.gamma_hwhm)
        assert abs(d / (2.5 * EA0) - 1.0) <= 0.20
        assert d == pytest.approx(2.5344514e-29, rel=1e-6)

    def test_small_linewidth_limit(self):
        d = dipole_from_linewidth(OMEGA_780, 1e-3)
        assert d < 1e-33

    def test_round_trip(self):
        gamma = 1.9054e7
        d = dipole_from_linewidth(OMEGA_780, gamma)
        # the decay-rate formula it inverts: gamma = omega^3 d^2/(6 pi eps0 hbar c^3)
        c = CONSTANTS
        linewidth = OMEGA_780**3 * d * d / (6.0 * math.pi * c.eps0 * c.hbar * c.c**3)
        assert linewidth == pytest.approx(gamma, rel=1e-12)


class TestQualityFactor:
    def test_rubidium(self, registry):
        rb = registry["Rb"]
        assert rb.quality == pytest.approx(1.266708165e8, rel=1e-9)
        assert 1.2e8 <= rb.quality <= 1.5e8

    def test_unit_case(self):
        assert quality_factor(1e15, 1e15) == 1.0

    def test_sodium_sits_below_the_common_alkali_range(self, registry):
        na = registry["Na"]
        assert na.quality == pytest.approx(1.039528086e8, rel=1e-9)
        assert na.quality < 1.2e8


class TestCrystallineComparison:
    def test_rubidium(self, registry):
        ratio = crystalline_comparison(registry["Rb"])
        assert ratio == pytest.approx(7.0 / 11.0, rel=0.10)
        assert ratio == pytest.approx(0.650183730, rel=1e-9)

    def test_equal_densities(self, registry):
        rb = registry["Rb"]
        synthetic = AtomSpecies(
            name="X",
            lambda_a=rb.lambda_a,
            gamma_hwhm=rb.gamma_hwhm,
            mass=rb.mass,
            crystalline_density=species_critical_density(rb),
        )
        assert crystalline_comparison(synthetic) == pytest.approx(1.0, rel=1e-12)

    def test_cesium_regression(self, registry):
        assert crystalline_comparison(registry["Cs"]) == pytest.approx(0.673094036, rel=1e-9)

    def test_missing_data(self, registry):
        with pytest.raises(ValueError, match="crystalline"):
            crystalline_comparison(registry["H"])

    @pytest.mark.parametrize(
        "lambda_a, gamma_hwhm, crystalline_density",
        itertools.product(*(DOMAINS[row][:2] for row in ("length", "frequency", "crystalline density"))),
    )
    def test_domain_corners_stay_finite(self, lambda_a, gamma_hwhm, crystalline_density):
        # both results are monotone in each input, so the corners of the rows bound them:
        # finite and positive, the density from 4.96e-80 to 4.96e160 /m^3
        species = AtomSpecies("X", lambda_a, gamma_hwhm, 1e-25, crystalline_density)
        density, ratio = species_critical_density(species), crystalline_comparison(species)
        assert 4.9e-80 < density < 5e160 and 4.9e-140 < ratio < 5e190


def log_uniform(quantity):
    """Floats spread log-uniformly over the DOMAINS row of quantity, both ends included."""
    low, high = DOMAINS[quantity][:2]
    return st.floats(math.log10(low), math.log10(high)).map(lambda x: min(max(10.0**x, low), high))


@settings(max_examples=300, deadline=None)
@given(
    omega=log_uniform("frequency"),
    omega_a=log_uniform("frequency"),
    gamma_hwhm=log_uniform("frequency"),
    volume=log_uniform("volume"),
    d=log_uniform("dipole moment"),
    n_atoms=log_uniform("atom number"),
    g=log_uniform("coupling"),
    density=log_uniform("density"),
    lambda_a=log_uniform("length"),
    quality=log_uniform("quality"),
    crystalline_density=log_uniform("crystalline density"),
)
def test_scalar_formulas_within_stated_bounds(
    omega, omega_a, gamma_hwhm, volume, d, n_atoms, g, density, lambda_a, quality, crystalline_density
):
    """Each docstring's relative bound against mpmath at 50 digits, log-uniform over the whole domains."""
    mpmath = pytest.importorskip("mpmath")
    eps = 2.0**-52
    species = AtomSpecies("X", lambda_a, gamma_hwhm, 1e-25, crystalline_density)
    with mpmath.workdps(50):
        m, pi = mpmath.mpf, mpmath.pi
        hbar, eps0, a0, c = (m(v) for v in (CONSTANTS.hbar, CONSTANTS.eps0, CONSTANTS.a0, CONSTANTS.c))
        critical = 16 * pi**3 * c / (3 * m(lambda_a) ** 4 * m(gamma_hwhm))  # with omega_A = 2 pi c/lambda_A
        cases = [
            (coupling_g(ModeSpec(omega, volume), d), mpmath.sqrt(m(omega) * m(d) ** 2 / (2 * hbar * eps0 * m(volume))), 1.75),
            (figure_of_merit(n_atoms, g, omega, omega_a).value, m(n_atoms) * m(g) ** 2 / (m(omega) * m(omega_a)), 2.0),
            (fom_density_q(density, lambda_a, quality).value, m(density) * m(lambda_a) ** 3 * 3 / (8 * pi**2 * m(quality)), 5.0),
            (fom_hydrogenlike(density).value, m(density) * 16 * pi * a0**3, 2.5),
            (critical_density(lambda_a, quality), 8 * pi**2 * m(quality) / (3 * m(lambda_a) ** 3), 4.5),
            (
                dipole_from_linewidth(omega_a, gamma_hwhm),
                mpmath.sqrt(6 * pi * eps0 * hbar * c**3 * m(gamma_hwhm) / m(omega_a) ** 3),
                3.25,
            ),
            (quality_factor(omega_a, gamma_hwhm), m(omega_a) / m(gamma_hwhm), 0.5),
            (species_critical_density(species), critical, 6.5),
            (crystalline_comparison(species), critical / m(crystalline_density), 7.0),
        ]
        for value, exact, bound in cases:
            assert abs(m(value) - exact) <= bound * eps * exact, (value, bound)


class TestFormEquivalence:
    def test_all_registry_species(self, registry):
        volume = 1e-15
        n_atoms = 1000
        for species in registry.values():
            omega_a = species.omega_a
            d = dipole_from_linewidth(omega_a, species.gamma_hwhm)
            g = coupling_g(ModeSpec(omega=omega_a, volume=volume), d)
            from_coupling = figure_of_merit(n_atoms, g, omega_a, omega_a).value
            from_density = fom_density_q(n_atoms / volume, species.lambda_a, species.quality).value
            assert from_coupling == pytest.approx(from_density, rel=1e-6), species.name


class TestRegistry:
    def test_shipped_species(self, registry):
        assert {"H", "Na", "K", "Rb", "Cs"} <= set(registry)
        for species in registry.values():
            assert species.quality > 1e6

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.warns(UserWarning, match="empty"):
            assert load_species_registry(path) == {}

    def test_header_only(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("name,mass_amu,lambda_nm,gamma_fwhm_MHz,crystalline_density_per_m3\n")
        with pytest.warns(UserWarning, match="empty"):
            assert load_species_registry(path) == {}

    def test_zero_wavelength_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "name,mass_amu,lambda_nm,gamma_fwhm_MHz,crystalline_density_per_m3\n"
            "X,1.0,0,5.0,\n"
        )
        with pytest.raises(RegistryError, match="lambda_nm"):
            load_species_registry(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_wavelength_rejected(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(
            "name,mass_amu,lambda_nm,gamma_fwhm_MHz,crystalline_density_per_m3\n"
            f"X,1.0,{value},5.0,\n"
        )
        with pytest.raises(RegistryError, match="lambda_nm"):
            load_species_registry(path)

    def test_wavelength_outside_domain_names_file_and_line(self, tmp_path):
        # (1e-115 nm)^3 underflows to 0; the species refuses the wavelength when the file is read
        path = tmp_path / "bad.csv"
        path.write_text(
            "name,mass_amu,lambda_nm,gamma_fwhm_MHz,crystalline_density_per_m3\n"
            "X,1.0,500,5.0,\nY,1.0,1e-115,5.0,\n"
        )
        with pytest.raises(RegistryError, match=r"^.*bad\.csv:3: Y: lambda_a must be from 1e-30 to 1e\+10 m, got"):
            load_species_registry(path)

    def test_non_numeric_crystalline_density_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "name,mass_amu,lambda_nm,gamma_fwhm_MHz,crystalline_density_per_m3\n"
            "X,1.0,500,5.0,1e28\nY,1.0,500,5.0,dense\n"
        )
        with pytest.raises(RegistryError, match=r"bad\.csv:3: field 'crystalline_density_per_m3' is not a number"):
            load_species_registry(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("name,mass_amu\nX,1.0\n")
        with pytest.raises(RegistryError, match="missing columns"):
            load_species_registry(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "name,mass_amu,lambda_nm,gamma_fwhm_MHz,crystalline_density_per_m3\n"
            "X,1.0,500,5.0,\nX,1.0,600,5.0,\n"
        )
        with pytest.raises(RegistryError, match="duplicate"):
            load_species_registry(path)

    def test_json_round_trip(self, tmp_path, registry):
        path = tmp_path / "species.json"
        payload = {
            "species": [
                {"name": "Rb", "mass_amu": 85.4678, "lambda_nm": 780.241, "gamma_fwhm_MHz": 6.0666,
                 "crystalline_density_per_m3": 1.0795e28}
            ]
        }
        path.write_text(json.dumps(payload))
        loaded = load_species_registry(path)
        assert loaded["Rb"].lambda_a == pytest.approx(registry["Rb"].lambda_a, rel=1e-12)
        assert loaded["Rb"].gamma_hwhm == pytest.approx(registry["Rb"].gamma_hwhm, rel=1e-12)

    def test_linewidth_conversion_is_hwhm_angular(self, registry):
        # file stores FWHM in MHz of ordinary frequency
        assert registry["Rb"].gamma_hwhm == pytest.approx(math.pi * 6.0666e6, rel=1e-12)
