import math

import pytest
from hypothesis import given, strategies as st

from dipolegauge.constants import (
    CONSTANTS,
    ELEMENTARY_CHARGE,
    MAX_CUTOFF_WAVENUMBER,
    PLANCK,
    RYDBERG,
    SPEED_OF_LIGHT,
    _cutoff_value,
    derived_constants,
    hydrogen_wavenumber,
    wavelength_to_omega,
)


def test_bohr_radius_identity():
    c = CONSTANTS
    assert c.a0 == pytest.approx(c.hbar / (c.m_e * c.c * c.alpha), rel=1e-9)
    # CODATA 2018 tabulated value
    assert c.a0 == pytest.approx(5.29177210903e-11, rel=1e-9)


def test_hartree_and_rydberg_identities():
    c = CONSTANTS
    assert c.hartree == pytest.approx(c.e_charge**2 / (4 * math.pi * c.eps0 * c.a0), rel=1e-9)
    assert c.rydberg == c.hartree / 2.0
    assert RYDBERG / ELEMENTARY_CHARGE == pytest.approx(13.6056931229, rel=1e-9)  # eV


def test_defining_identity_is_exact():
    c = CONSTANTS
    assert c.a0 * c.m_e * c.c * c.alpha / c.hbar == pytest.approx(1.0, rel=1e-14)


def test_derived_constants_is_reproducible():
    assert derived_constants() == CONSTANTS


def test_hydrogen_wavenumber_value():
    # direct evaluation of 3*alpha/(8*a0)
    c = CONSTANTS
    assert hydrogen_wavenumber() == pytest.approx(3 * c.alpha / (8 * c.a0), rel=1e-14)
    assert hydrogen_wavenumber() == pytest.approx(5.17125e7, rel=1e-5)


def test_hydrogen_wavenumber_matches_line_wavelength():
    # independent oracle: the 1 -> 2 line wavelength (4/3) h c / Ry
    lyman_alpha = 4.0 / 3.0 * PLANCK * CONSTANTS.c / RYDBERG
    assert 2 * math.pi / hydrogen_wavenumber() == pytest.approx(lyman_alpha, rel=1e-9)
    assert lyman_alpha == pytest.approx(121.502e-9, rel=1e-5)


def test_wavenumber_linear_in_alpha():
    c = CONSTANTS
    assert hydrogen_wavenumber() * c.a0 == pytest.approx(3 * c.alpha / 8, rel=1e-14)


def test_wavelength_to_omega_values():
    assert wavelength_to_omega(780.24e-9) == pytest.approx(2.4141950776e15, rel=1e-10)
    assert wavelength_to_omega(121.5e-9) == pytest.approx(1.5503305081e16, rel=1e-10)


@given(st.floats(min_value=1e-9, max_value=1e-3))
def test_wavelength_round_trip(lam):
    assert 2.0 * math.pi * SPEED_OF_LIGHT / wavelength_to_omega(lam) == pytest.approx(lam, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1e-9])
def test_nonpositive_wavelength_rejected(bad):
    with pytest.raises(ValueError):
        wavelength_to_omega(bad)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nextafter(MAX_CUTOFF_WAVENUMBER, math.inf), 1e200, math.inf, math.nan])
def test_cutoff_outside_range_rejected(bad):
    with pytest.raises(ValueError, match="positive and at most 1e\\+90 /m"):
        _cutoff_value(bad)
    assert _cutoff_value(MAX_CUTOFF_WAVENUMBER) == MAX_CUTOFF_WAVENUMBER


@pytest.mark.parametrize("bad", [None, "abc", [1.0, 2.0]])
def test_non_number_rejected_by_name(bad):
    with pytest.raises(ValueError, match="^cutoff wavenumber must be a number, got"):
        _cutoff_value(bad)
