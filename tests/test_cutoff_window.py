import importlib
import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from dipolegauge.constants import BOHR_RADIUS, CONSTANTS, DOMAINS, ELEMENTARY_CHARGE, HARTREE, RYDBERG, QuadratureError
from dipolegauge.cutoff_window import (
    cutoff_window,
    hydrogen_first_order_shift,
    hydrogen_shift_numeric,
    intimacy_radius,
    perturbation_report,
    rydberg_shift_ratio,
    transverse_self_energy,
)
from conftest import ACCEPTED_ON_A_ROUNDING


def kspace_self_energy_oracle(d: float, mu: float) -> float:
    """(1/2 eps0) int d^3k |filtered transverse dipole density|^2 by quadrature.

    Angular integral of the projector contraction gives 8 pi/3; the radial
    factor k^2 L(k)^2 is integrated numerically in units of mu.
    """
    radial, err = integrate.quad(lambda u: u * u / (1.0 + u * u) ** 2, 0.0, math.inf, epsrel=1e-12)
    assert err < 1e-8 * radial
    prefactor = (2.0 * math.pi) ** -3 * 8.0 * math.pi / 3.0 * mu**3
    return d * d / (2.0 * CONSTANTS.eps0) * prefactor * radial


class TestSelfEnergy:
    def test_reference_dipole_at_inverse_bohr(self):
        d = CONSTANTS.e_charge * BOHR_RADIUS
        energy = transverse_self_energy(d, 1.0 / BOHR_RADIUS)
        assert energy == pytest.approx(HARTREE / 6.0, rel=1e-12)
        assert energy / ELEMENTARY_CHARGE == pytest.approx(4.53523104, rel=1e-7)  # eV

    def test_zero_dipole(self):
        assert transverse_self_energy(0.0, 1e10) == 0.0

    def test_against_kspace_quadrature(self):
        d = 2.5e-30
        for mu in (5e9, 1.0 / BOHR_RADIUS):
            oracle = kspace_self_energy_oracle(d, mu)
            assert transverse_self_energy(d, mu) == pytest.approx(oracle, rel=1e-6)

    def test_negative_dipole_rejected(self):
        with pytest.raises(ValueError):
            transverse_self_energy(-1e-30, 1e10)

    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
    def test_non_finite_dipole_rejected(self, d):
        with pytest.raises(ValueError, match=r"^d must be 0 or from 1e-100 to 1 C\*m, got"):
            transverse_self_energy(d, 1e10)


class TestHydrogenShift:
    def test_half_inverse_bohr(self):
        shift = hydrogen_first_order_shift(0.5 / BOHR_RADIUS)
        assert shift == pytest.approx(0.125 * RYDBERG, rel=1e-12)
        assert shift / ELEMENTARY_CHARGE == pytest.approx(1.70071164, rel=1e-7)  # eV

    def test_inverse_bohr_is_one_rydberg(self):
        assert hydrogen_first_order_shift(1.0 / BOHR_RADIUS) == pytest.approx(RYDBERG, rel=1e-12)

    def test_vanishes_with_cutoff(self):
        assert hydrogen_first_order_shift(1.0) / RYDBERG < 1e-30

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0])
    def test_numeric_agrees_with_closed_form(self, x):
        mu = x / BOHR_RADIUS
        closed = hydrogen_first_order_shift(mu)
        numeric = hydrogen_shift_numeric(mu, tol=1e-9)
        assert numeric == pytest.approx(closed, rel=1e-6)

    def test_cubic_scaling(self):
        mu = 0.3 / BOHR_RADIUS
        assert hydrogen_shift_numeric(2 * mu) == pytest.approx(8.0 * hydrogen_shift_numeric(mu), rel=1e-9)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            hydrogen_shift_numeric(1e10, tol=0.0)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValueError, match="^tol must be from 1e-12 to 1, got nan"):
            hydrogen_shift_numeric(1e10, tol=math.nan)

    @pytest.mark.parametrize("tol", ACCEPTED_ON_A_ROUNDING)
    def test_accepted_quadrature_is_not_refused(self, tol):
        report = perturbation_report(0.5 / BOHR_RADIUS, tol=tol)
        assert report.numeric_shift == pytest.approx(report.first_order_shift, rel=1e-10)

    def test_quadrature_failure_raises(self, monkeypatch):
        def roundoff(f, epsrel):
            return 0.75, 1e-3, 135, 2

        # the package's own cutoff_window attribute is the function of that name
        monkeypatch.setattr(importlib.import_module("dipolegauge.cutoff_window"), "qagi", roundoff)
        with pytest.raises(QuadratureError, match="did not converge"):
            hydrogen_shift_numeric(0.5 / BOHR_RADIUS, tol=1e-9)


class TestShiftRatio:
    def test_exact_examples(self):
        assert rydberg_shift_ratio(0.5 / BOHR_RADIUS) == 0.125
        assert rydberg_shift_ratio(1.0 / BOHR_RADIUS) == pytest.approx(1.0, rel=1e-14)

    def test_matches_shift_over_rydberg(self):
        for x in (0.2, 0.7, 1.3):
            mu = x / BOHR_RADIUS
            assert rydberg_shift_ratio(mu) == pytest.approx(
                hydrogen_first_order_shift(mu) / RYDBERG, rel=1e-12
            )


class TestWindow:
    def test_hydrogen_worked_example(self):
        k_a = 3.0 * CONSTANTS.alpha / (8.0 * BOHR_RADIUS)
        window = cutoff_window(k_a, 0.5 / BOHR_RADIUS, lower_threshold=0.01, upper_threshold=0.15)
        assert window.lower_violation == pytest.approx(2.99529897e-5, rel=1e-6)
        assert window.upper_ratio == 0.125
        assert window.admissible
        # deep in the passband the violation reduces to (k_rad/k_M)^2
        assert window.lower_violation == pytest.approx((k_a / window.k_m) ** 2, rel=1e-4)

    def test_maximally_violated_below(self):
        window = cutoff_window(1e7, 1e7)
        assert window.lower_violation == pytest.approx(0.5, rel=1e-14)

    def test_violation_complements_filter_value(self):
        from dipolegauge.polarization import suppression_factor

        for k_rad, mu in ((3e7, 1e10), (5e9, 8e9)):
            window = cutoff_window(k_rad, mu)
            assert window.lower_violation + suppression_factor(mu, k_rad) == pytest.approx(1.0, rel=1e-14)

    def test_monotone_in_cutoff(self):
        k_rad = 5e7
        previous = cutoff_window(k_rad, 1e9)
        for mu in (3e9, 1e10, 5e10):
            current = cutoff_window(k_rad, mu)
            assert current.lower_violation < previous.lower_violation
            assert current.upper_ratio > previous.upper_ratio
            previous = current

    def test_inadmissible_cases(self):
        assert not cutoff_window(1e7, 2e7).admissible  # filter passband too narrow
        assert not cutoff_window(1e7, 2.0 / BOHR_RADIUS).admissible  # shift too large

    def test_validation(self):
        with pytest.raises(ValueError):
            cutoff_window(-1.0, 1e10)
        with pytest.raises(ValueError):
            cutoff_window(1e7, 1e10, lower_threshold=0.0)

    @pytest.mark.parametrize("threshold", ["lower_threshold", "upper_threshold"])
    def test_nan_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match=f"^{threshold} must be from 1e-30 to 1e\\+30, got nan"):
            cutoff_window(1e7, 1e10, **{threshold: math.nan})

    def test_radiation_wavenumber_limit(self):
        # k_radiation^2 overflows the floats above about 1.3e154 /m
        low, high = DOMAINS["wavenumber"][:2]
        for k_radiation in (math.nextafter(high, math.inf), 1e200, math.inf, math.nan, math.nextafter(low, 0.0)):
            with pytest.raises(ValueError, match="^radiation wavenumber must be from 1e-20 to 1e\\+90 /m"):
                cutoff_window(k_radiation, 1e10)
        window = cutoff_window(high, 1e10)
        assert window.lower_violation == 1.0 and not window.admissible


class TestIntimacyRadius:
    def test_values(self):
        assert intimacy_radius(0.5 / BOHR_RADIUS) == pytest.approx(2.0 * BOHR_RADIUS, rel=1e-14)
        assert intimacy_radius(0.5 / BOHR_RADIUS) == pytest.approx(1.05835442e-10, rel=1e-8)
        assert intimacy_radius(1.0 / BOHR_RADIUS) == pytest.approx(BOHR_RADIUS, rel=1e-14)

    def test_halving_doubles(self):
        assert intimacy_radius(0.5e10) == pytest.approx(2.0 * intimacy_radius(1e10), rel=1e-14)


class TestPerturbationReport:
    def test_invariants(self):
        report = perturbation_report(0.5 / BOHR_RADIUS, tol=1e-9)
        assert report.ratio_to_rydberg == pytest.approx(report.first_order_shift / RYDBERG, rel=1e-12)
        assert abs(report.first_order_shift - report.numeric_shift) <= max(
            report.numeric_error_estimate, 1e-6 * report.first_order_shift
        )
        # reference dipole e*a0 carries a third of the 1s expectation value
        assert report.delta_u == pytest.approx(report.first_order_shift / 3.0, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=-20.0, max_value=90.0),
    st.floats(min_value=-20.0, max_value=90.0),
    st.floats(min_value=-100.0, max_value=0.0),
)
def test_scalar_formulas_within_stated_bounds(log_k_m, log_k_radiation, log_d):
    """Each docstring's relative bound against mpmath at 50 digits, log-uniform over the whole domains."""
    mpmath = pytest.importorskip("mpmath")
    k_m, k, d = 10.0**log_k_m, 10.0**log_k_radiation, 10.0**log_d
    eps = 2.0**-52
    with mpmath.workdps(50):
        mu, kr, dm = mpmath.mpf(k_m), mpmath.mpf(k), mpmath.mpf(d)
        e, a0, eps0 = (mpmath.mpf(v) for v in (CONSTANTS.e_charge, CONSTANTS.a0, CONSTANTS.eps0))
        cases = [
            (transverse_self_energy(d, k_m), mu**3 * dm**2 / (24 * mpmath.pi * eps0), 4.0),
            (hydrogen_first_order_shift(k_m), e**2 * mu**3 * a0**2 / (8 * mpmath.pi * eps0), 6.0),
            (rydberg_shift_ratio(k_m), (mu * a0) ** 3, 3.0),
            (intimacy_radius(k_m), 1 / mu, 0.5),
            (cutoff_window(k, k_m).lower_violation, kr**2 / (kr**2 + mu**2), 3.0),
        ]
        for value, exact, bound in cases:
            assert abs(mpmath.mpf(value) - exact) <= bound * eps * exact, (value, bound)
