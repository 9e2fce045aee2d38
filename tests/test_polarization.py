import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dipolegauge.constants import DOMAINS
from dipolegauge.polarization import (
    FT_PREFACTOR,
    longitudinal_dipole_polarization,
    radial_envelope,
    suppression_factor,
    total_residual_polarization,
    transverse_delta_k,
    transverse_delta_real_exact,
    transverse_delta_real_far,
    transverse_polarization,
)
from conftest import random_rotation
from kernel_quadrature import numeric_inverse_transform

MU = 1.2e10  # representative cutoff wavenumber (1/m)
LOWEST_CUTOFF, HIGHEST_CUTOFF = DOMAINS["wavenumber"][:2]
SHORTEST, LONGEST = DOMAINS["length"][:2]

unit_floats = st.floats(min_value=-1.0, max_value=1.0)
vectors = st.tuples(unit_floats, unit_floats, unit_floats).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 1e-3
)
radii = st.just(0.0) | st.floats(min_value=SHORTEST, max_value=30.0)  # inside the radius domain
rotations = st.integers(min_value=0, max_value=2**32 - 1).map(lambda seed: random_rotation(np.random.default_rng(seed)))


def at_distance(direction, s):
    """Separation of length s/MU along direction."""
    return direction / np.linalg.norm(direction) * (s / MU)


class TestRadialEnvelope:
    def test_zero_at_origin(self):
        assert radial_envelope(MU, 0.0) == 0.0

    def test_closed_form_values(self):
        # 40-digit evaluation of 1 - (1 + x + x^2/2) exp(-x)
        assert radial_envelope(1.0, 1.0) == pytest.approx(0.0803013970713942, abs=1e-15)
        assert radial_envelope(1.0, 10.0) == pytest.approx(0.9972306042844884, abs=1e-15)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            radial_envelope(MU, -1e-12)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_distance_rejected(self, r):
        with pytest.raises(ValueError, match=r"^r must be 0 or from 1e-30 to 1e\+10 m, got"):
            radial_envelope(MU, r)

    def test_overflowing_argument_is_one(self):
        assert radial_envelope(HIGHEST_CUTOFF, LONGEST) == 1.0

    @given(radii, radii)
    def test_monotone_and_bounded(self, x1, x2):
        # beyond x ~ 35 the complement drops below double resolution
        lo, hi = sorted((x1, x2))
        e_lo = radial_envelope(1.0, lo)
        e_hi = radial_envelope(1.0, hi)
        assert 0.0 <= e_lo <= e_hi < 1.0

    def test_cubic_small_distance_law(self):
        # leading term x^3/6; its relative error grows like 3x/4
        for x in (0.01, 0.05, 0.1):
            eta = radial_envelope(1.0, x)
            rel = abs(x**3 / 6.0 - eta) / eta
            assert rel < 0.8 * x
        assert radial_envelope(1.0, 0.1) == pytest.approx(1.5465307026e-4, rel=1e-9)


class TestSuppressionFactor:
    def test_reference_points(self):
        assert suppression_factor(MU, 0.0) == 1.0
        assert suppression_factor(MU, MU) == 0.5
        assert suppression_factor(MU, MU / 1000.0) == pytest.approx(1.0 / (1.0 + 1e-6), rel=1e-14)
        assert 1.0 - suppression_factor(MU, MU / 1000.0) == pytest.approx(1e-6, rel=1e-5)

    def test_negative_wavenumber_rejected(self):
        with pytest.raises(ValueError):
            suppression_factor(MU, -1.0)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_non_finite_wavenumber_rejected(self, k):
        with pytest.raises(ValueError, match=r"^k must be 0 or from 1e-20 to 1e\+90 /m, got"):
            suppression_factor(MU, k)

    def test_cutoff_validated(self):
        assert suppression_factor(MU, MU) == 0.5
        with pytest.raises(ValueError, match="^cutoff wavenumber must be from 1e-20 to 1e\\+90 /m"):
            suppression_factor(-1.0, MU)


class TestKSpaceKernel:
    def test_transverse_eigenvalue_at_cutoff(self):
        k = np.array([MU, 0.0, 0.0])
        kernel = transverse_delta_k(MU, k)
        probe = np.array([0.0, 1.0, 0.0])
        value = probe @ kernel @ probe
        assert value == pytest.approx(0.031746817967120484, rel=1e-14)

    def test_transverse_eigenvalue_far_above_cutoff(self):
        kernel = transverse_delta_k(MU, np.array([0.0, 0.0, 10.0 * MU]))
        probe = np.array([1.0, 0.0, 0.0])
        assert probe @ kernel @ probe == pytest.approx(6.286498607350591e-4, rel=1e-12)

    def test_zero_wavevector_rejected(self):
        with pytest.raises(ValueError):
            transverse_delta_k(MU, np.zeros(3))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("length", [5e-324, 1e-200, 1e160, 1e300])
    def test_finite_outside_the_range_of_k_squared(self, length):
        # k @ k underflows below about 1e-162 /m and overflows above about 1.3e154 /m: such a
        # wavevector lies outside the wavenumber domain and is refused; at its limits the kernel is finite
        with pytest.raises(ValueError, match="^\\|k_vec\\| must be from 1e-20 to 1e\\+90 /m"):
            transverse_delta_k(MU, length * np.array([3.0, 0.0, -4.0]))
        projector = np.eye(3) - np.outer([0.6, 0.0, -0.8], [0.6, 0.0, -0.8])
        for limit, filter_value in ((LOWEST_CUTOFF, 1.0), (HIGHEST_CUTOFF, 0.0)):
            kernel = transverse_delta_k(MU, limit * np.array([0.6, 0.0, -0.8]))
            assert kernel == pytest.approx(FT_PREFACTOR * filter_value * projector, rel=1e-14, abs=1e-140)

    def test_equals_unscaled_formula_in_normal_range(self, rng):
        for _ in range(2000):
            k = rng.normal(size=3)
            k *= 10.0 ** rng.uniform(-19.9, 89.9) / np.linalg.norm(k)
            mu = 10.0 ** rng.uniform(-20.0, 90.0)
            k2 = float(k @ k)
            unscaled = FT_PREFACTOR * mu * mu / (k2 + mu * mu) * (np.eye(3) - np.outer(k, k) / k2)
            assert np.array_equal(transverse_delta_k(mu, k), unscaled)

    @given(vectors)
    @settings(max_examples=30)
    def test_annihilates_wavevector(self, direction):
        k = direction * MU
        kernel = transverse_delta_k(MU, k)
        assert np.linalg.norm(kernel @ k) <= 1e-14 * MU * np.linalg.norm(kernel)
        assert np.array_equal(kernel, kernel.T)


class TestRealSpaceKernel:
    def test_trace_is_yukawa(self):
        for s in (0.1, 1.0, 3.0, 10.0):
            r = s / MU
            kernel = transverse_delta_real_exact(MU, np.array([0.0, r, 0.0]))
            yukawa = 2.0 * MU**2 * math.exp(-s) / (4.0 * math.pi * r)
            assert np.trace(kernel) == pytest.approx(yukawa, rel=1e-12)

    def test_far_field_limit(self):
        x = np.array([0.4, -0.3, 0.6])
        x *= (10.0 / MU) / np.linalg.norm(x)
        exact = transverse_delta_real_exact(MU, x)
        far = transverse_delta_real_far(MU, x)
        deviation = np.linalg.norm(exact - far) / np.linalg.norm(exact)
        assert deviation < 1e-2

    @given(vectors)
    @settings(max_examples=25)
    def test_symmetric(self, direction):
        x = direction / MU
        kernel = transverse_delta_real_exact(MU, x)
        assert np.array_equal(kernel, kernel.T)

    @given(vectors, st.floats(min_value=0.1, max_value=10.0), rotations)
    @settings(max_examples=40)
    def test_rotation_covariance(self, direction, s, rotation):
        x = at_distance(direction, s)
        base = transverse_delta_real_exact(MU, x)
        rotated = transverse_delta_real_exact(MU, rotation @ x)
        assert np.linalg.norm(rotated - rotation @ base @ rotation.T) <= 1e-13 * np.linalg.norm(base)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            transverse_delta_real_exact(MU, np.zeros(3))


class TestKernelRoundingBound:
    """The kernels within the rounding bounds their docstrings state, against mpmath at 50 digits.

    Each real-space bound is relative to the largest entry of the exact
    tensor at the float inputs: 10 eps for the exact kernel,
    (10 + 6 |ln(kM r)|) eps for the far form, whose envelope carries the
    rounding of 3 ln(kM r) below kM r = 1.8.  The k-space kernel's is 4 eps
    of the exact filter value.
    """

    @pytest.fixture(scope="class")
    def mpmath(self):
        return pytest.importorskip("mpmath")

    @staticmethod
    def exact_terms(mpmath, mu, x):
        """The far and near terms at the float mu and x, as 3x3 lists of mpf."""
        xs = [mpmath.mpf(v) for v in x]
        r = mpmath.sqrt(sum(v * v for v in xs))
        n = [v / r for v in xs]
        s = mpmath.mpf(mu) * r
        envelope = mpmath.gammainc(3, 0, s, regularized=True)
        far_scale = envelope / (4 * mpmath.pi * r**3)
        near_scale = mpmath.mpf(mu) ** 2 * mpmath.exp(-s) / (8 * mpmath.pi * r)
        far = [[far_scale * (3 * n[a] * n[b] - (a == b)) for b in range(3)] for a in range(3)]
        near = [[near_scale * ((a == b) + n[a] * n[b]) for b in range(3)] for a in range(3)]
        return far, near

    @staticmethod
    def error_over_scale(mpmath, got, exact):
        scale = max(abs(value) for row in exact for value in row)
        error = max(abs(mpmath.mpf(float(got[a, b])) - exact[a][b]) for a in range(3) for b in range(3))
        return error / scale

    # kM from 1e-20 to 1e90 /m and kM r from 1e-100 to 745, the ranges the docstrings state
    @given(vectors, st.floats(min_value=-20.0, max_value=90.0), st.floats(min_value=-100.0, max_value=math.log10(745.0)))
    @settings(max_examples=200, deadline=None)
    def test_exact_and_far_within_stated_bounds(self, mpmath, direction, log_mu, log_s):
        mu, s = 10.0**log_mu, 10.0**log_s
        x = direction / np.linalg.norm(direction) * (s / mu)
        assume(SHORTEST <= np.linalg.norm(x) <= LONGEST)
        eps = np.finfo(float).eps
        with mpmath.workdps(50):
            far, near = self.exact_terms(mpmath, mu, x)
            exact = [[f + g for f, g in zip(far_row, near_row)] for far_row, near_row in zip(far, near)]
            assert self.error_over_scale(mpmath, transverse_delta_real_exact(mu, x), exact) <= 10.0 * eps
            far_bound = (10.0 + 6.0 * abs(math.log(s))) * eps
            assert self.error_over_scale(mpmath, transverse_delta_real_far(mu, x), far) <= far_bound

    # kM and |k| over the wavenumber domain, k in any direction or within 10^-20 to 0.1 of an axis
    @given(
        vectors,
        st.none() | st.tuples(st.integers(min_value=0, max_value=2), st.floats(min_value=-20.0, max_value=-1.0)),
        st.floats(min_value=-20.0, max_value=90.0),
        st.floats(min_value=-20.0, max_value=90.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_k_space_within_stated_bound(self, mpmath, direction, near_axis, log_mu, log_k):
        if near_axis is not None:
            axis, log_tilt = near_axis
            direction = np.eye(3)[axis] + 10.0**log_tilt * direction
        k = direction / np.linalg.norm(direction) * 10.0**log_k
        assume(LOWEST_CUTOFF <= math.hypot(*k) <= HIGHEST_CUTOFF)
        self.assert_k_space_within_bound(mpmath, 10.0**log_mu, k)

    @staticmethod
    def assert_k_space_within_bound(mpmath, mu, k):
        """Every entry within 4 eps of the exact filter value, as transverse_delta_k states."""
        got = transverse_delta_k(mu, k)
        with mpmath.workdps(50):
            ks = [mpmath.mpf(float(v)) for v in k]
            k2 = sum(v * v for v in ks)
            filter_value = (2 * mpmath.pi) ** mpmath.mpf(-1.5) * mpmath.mpf(mu) ** 2 / (k2 + mpmath.mpf(mu) ** 2)
            error = max(
                abs(mpmath.mpf(float(got[a, b])) - filter_value * ((a == b) - ks[a] * ks[b] / k2))
                for a in range(3)
                for b in range(3)
            )
            assert error <= 4.0 * np.finfo(float).eps * filter_value

    def test_k_space_hard_case(self, mpmath):
        # found by a search for the largest error, 2.4 eps: a bound of half the stated one fails here
        k = np.array([7.657286290949758e75, -6.325050706217501e72, 2.361739221066961e72])
        self.assert_k_space_within_bound(mpmath, 4.759611512013324e74, k)


@st.composite
def dipole_field_inputs(draw):
    """(d, x_a, kM, x) over the domains, with kM r from 1e-50 to 745.

    d points anywhere, or within 1e-12 to 0.1 of parallel or perpendicular
    to x - x_a; x_a is the origin or up to 10 r from it.
    """
    n = draw(vectors)
    n = n / np.linalg.norm(n)
    other = draw(vectors)
    other = other / np.linalg.norm(other)
    tilt = 10.0 ** draw(st.floats(min_value=-12.0, max_value=-1.0))
    orientation = draw(st.sampled_from(["any", "parallel", "perpendicular"]))
    if orientation == "any":
        d_dir = other
    elif orientation == "parallel":
        d_dir = n + tilt * other
    else:
        perpendicular = other - (other @ n) * n
        assume(np.linalg.norm(perpendicular) > 1e-3)
        d_dir = perpendicular / np.linalg.norm(perpendicular) + tilt * n
    d = d_dir / np.linalg.norm(d_dir) * 10.0 ** draw(st.floats(min_value=-99.99, max_value=-0.01))
    tiny_s = st.floats(min_value=-50.0, max_value=0.0).map(lambda u: 10.0**u)
    s = draw(tiny_s | st.floats(min_value=1.0, max_value=745.0))
    r = 10.0 ** draw(st.floats(min_value=-29.99, max_value=9.99))  # x - x_a rounds, so clear of the domain's ends
    mu = s / r
    assume(LOWEST_CUTOFF <= mu <= HIGHEST_CUTOFF)
    offset = draw(st.none() | st.floats(min_value=-3.0, max_value=1.0))
    x_a = np.zeros(3) if offset is None else np.roll(other, 1) * r * 10.0**offset
    return d, x_a, mu, x_a + n * r


class TestFieldRoundingBound:
    """The three polarization fields within the rounding bounds their docstrings state, against mpmath at 50 digits.

    Each bound is per component, at the float inputs: 16 eps of |d| times
    the largest kernel entry for the transverse field, 24 eps |d|/(4 pi r^3)
    for the longitudinal one, and (24 + 2.25 s) eps E + U for the residual
    field, E = |d| exp(-s)(1 + s + s^2)/(4 pi r^3), with the absolute
    underflow term U = 2^-1073 (1 + |d| (1 + s + s^2)(1 + 1/(4 pi r^3))).
    """

    @pytest.fixture(scope="class")
    def mpmath(self):
        return pytest.importorskip("mpmath")

    @staticmethod
    def assert_within_bounds(mpmath, d, x_a, mu, x):
        eps = np.finfo(float).eps
        transverse = transverse_polarization(d, x_a, mu, x)
        longitudinal = longitudinal_dipole_polarization(d, x_a, x)
        residual = total_residual_polarization(d, x_a, mu, x)
        with mpmath.workdps(50):
            separation = [mpmath.mpf(float(p)) - mpmath.mpf(float(q)) for p, q in zip(x, x_a)]
            far, near = TestKernelRoundingBound.exact_terms(mpmath, mu, separation)
            kernel = [[f + g for f, g in zip(far_row, near_row)] for far_row, near_row in zip(far, near)]
            r = mpmath.sqrt(sum(v * v for v in separation))
            n = [v / r for v in separation]
            ds = [mpmath.mpf(float(v)) for v in d]
            size = mpmath.sqrt(sum(v * v for v in ds))
            nd = sum(a * b for a, b in zip(n, ds))
            s = mpmath.mpf(mu) * r
            denominator = 4 * mpmath.pi * r**3
            complement = mpmath.gammainc(3, s, mpmath.inf, regularized=True)
            near_scale = mpmath.mpf(mu) ** 2 * mpmath.exp(-s) / (8 * mpmath.pi * r)

            def error(got, exact):
                return max(abs(mpmath.mpf(float(g)) - e) for g, e in zip(got, exact))

            # the residual field in its defining form, apart from the one evaluated
            exact_residual = [
                -complement * (3 * nd * n[a] - ds[a]) / denominator + near_scale * (ds[a] + nd * n[a]) for a in range(3)
            ]
            largest_entry = max(abs(v) for row in kernel for v in row)
            assert error(transverse, [sum(kernel[a][b] * ds[b] for b in range(3)) for a in range(3)]) <= (
                16.0 * eps * size * largest_entry
            )
            assert error(longitudinal, [-(3 * nd * n[a] - ds[a]) / denominator for a in range(3)]) <= (
                24.0 * eps * size / denominator
            )
            envelope = size * mpmath.exp(-s) * (1 + s + s * s) / denominator
            underflow = mpmath.mpf(2.0) ** -1073 * (1 + size * (1 + s + s * s) * (1 + 1 / denominator))
            assert error(residual, exact_residual) <= (24 + mpmath.mpf(2.25) * s) * eps * envelope + underflow

    @given(dipole_field_inputs())
    @settings(max_examples=200, deadline=None)
    def test_fields_within_stated_bounds(self, mpmath, inputs):
        self.assert_within_bounds(mpmath, *inputs)

    # (d, x_a, kM, x) found by searches for the largest errors.  Each error is about 0.68 of a
    # bound, so halving the constant that bound names fails here; at s = 679 the s^2 term does too.
    HARD_CASES = {
        "longitudinal and residual at s = 0.0022, d nearly parallel": (
            [-1.8813163922457563e-28, -1.6167925218651316e-29, 2.2108001130057522e-29],
            [-1.6314811276567403e-05, -1.0689493763564231e-05, 0.0001061325188434322],
            0.06736013307494988,
            [-0.03234151623825577, -0.002788614516553899, 0.003904916165606551],
        ),
        "residual at s = 679, s rounded by 1.56 eps, d perpendicular": (
            [1e-3, 0.0, 0.0],
            [3.024061439148249e-07, -2.234463224556766e-07, -2.457972249864742e-07],
            2595497857.2260566,
            [3.024061439148249e-07, -4.82133636172768e-07, -2.8564825518997217e-07],
        ),
        "transverse at s = 15.7": (
            [5.940726241708481e-31, 5.528895370272635e-31, -1.0957774203054009e-30],
            [-131.95925438164974, -194.2235718833483, -54.963448716568266],
            0.060090658843212304,
            [-18.43562657015478, -88.53542699770904, -264.4056017493662],
        ),
    }

    @pytest.mark.parametrize("case", HARD_CASES)
    def test_hard_cases_within_stated_bounds(self, mpmath, case):
        d, x_a, mu, x = self.HARD_CASES[case]
        self.assert_within_bounds(mpmath, np.array(d), np.array(x_a), mu, np.array(x))


class TestNumericInverseTransform:
    @pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
    def test_matches_exact_kernel(self, s):
        x = np.array([1.0, 2.0, -2.0])
        x *= (s / MU) / np.linalg.norm(x)
        exact = transverse_delta_real_exact(MU, x)
        numeric = numeric_inverse_transform(MU, x, tol=1e-6)
        rel = np.linalg.norm(exact - numeric) / np.linalg.norm(exact)
        assert rel < max(1e-6, 1e-3)

    @given(st.floats(min_value=0.1, max_value=10.0), vectors)
    @settings(max_examples=15, deadline=None)
    def test_matches_exact_kernel_over_interval(self, s, direction):
        x = direction / np.linalg.norm(direction) * (s / MU)
        exact = transverse_delta_real_exact(MU, x)
        numeric = numeric_inverse_transform(MU, x, tol=1e-6)
        assert np.linalg.norm(exact - numeric) <= 1e-3 * np.linalg.norm(exact)

    def test_symmetric_result(self):
        x = np.array([0.3, -0.1, 0.5]) / MU
        numeric = numeric_inverse_transform(MU, x, tol=1e-6)
        assert np.max(np.abs(numeric - numeric.T)) <= 1e-6 * np.linalg.norm(numeric)

    def test_rotation_covariance(self, rng):
        x = np.array([0.8, 0.2, -0.4]) / MU
        rotation = random_rotation(rng)
        base = numeric_inverse_transform(MU, x, tol=1e-8)
        rotated = numeric_inverse_transform(MU, rotation @ x, tol=1e-8)
        assert np.linalg.norm(rotated - rotation @ base @ rotation.T) <= 1e-6 * np.linalg.norm(base)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            numeric_inverse_transform(MU, np.zeros(3))
        with pytest.raises(ValueError):
            numeric_inverse_transform(MU, np.ones(3), tol=-1.0)


class TestPolarizationFields:
    def test_axial_far_zone_value(self):
        d = np.array([0.0, 0.0, 3.2e-30])
        r = 15.0 / MU
        x = np.array([0.0, 0.0, r])
        value = transverse_polarization(d, np.zeros(3), MU, x)
        axial = 2.0 * d / (4.0 * math.pi * r**3)
        assert value[2] == pytest.approx(axial[2], rel=1e-3)
        assert abs(value[0]) == 0.0 and abs(value[1]) == 0.0

    @given(st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=20)
    def test_linear_in_dipole(self, scale):
        d = np.array([1.0e-30, -2.0e-30, 0.5e-30])
        x = np.array([0.7, 0.1, 0.4]) / MU
        one = transverse_polarization(d, np.zeros(3), MU, x)
        scaled = transverse_polarization(scale * d, np.zeros(3), MU, x)
        assert np.allclose(scaled, scale * one, rtol=1e-12, atol=0.0)

    def test_far_zone_angular_average_vanishes(self):
        # Gauss-Legendre x periodic trapezoid quadrature over the sphere
        d = np.array([0.0, 0.0, 1.0e-30])
        d_hat = np.array([0.0, 0.0, 1.0])
        r = 10.0 / MU
        nodes, weights = np.polynomial.legendre.leggauss(24)
        phis = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
        total = 0.0
        peak = 0.0
        for ct, w in zip(nodes, weights):
            stheta = math.sqrt(1.0 - ct * ct)
            for phi in phis:
                x = r * np.array([stheta * math.cos(phi), stheta * math.sin(phi), ct])
                value = float(transverse_polarization(d, np.zeros(3), MU, x) @ d_hat)
                total += w * value
                peak = max(peak, abs(value))
        average = total / 2.0 / len(phis)
        assert abs(average) <= 2e-3 * peak

    def test_longitudinal_equatorial_value(self):
        d = np.array([0.0, 0.0, 2.0e-30])
        r = 4.0e-10
        value = longitudinal_dipole_polarization(d, np.zeros(3), np.array([r, 0.0, 0.0]))
        assert value[2] == pytest.approx(d[2] / (4.0 * math.pi * r**3), rel=1e-14)

    def test_longitudinal_matches_minus_far_kernel_over_envelope(self):
        d = np.array([1.1e-30, -0.4e-30, 0.8e-30])
        x = np.array([0.9, -0.2, 0.5]) / MU
        eta = radial_envelope(MU, float(np.linalg.norm(x)))
        far = transverse_delta_real_far(MU, x) @ d
        longitudinal = longitudinal_dipole_polarization(d, np.zeros(3), x)
        assert np.allclose(longitudinal, -far / eta, rtol=1e-12, atol=0.0)

    def test_longitudinal_divergence_free_off_source(self):
        # central-difference divergence at a generic point
        d = np.array([1.0e-30, 2.0e-30, -1.5e-30])
        x0 = np.array([3.0e-10, -2.0e-10, 4.0e-10])
        h = 1e-5 * np.linalg.norm(x0)
        div = 0.0
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = h
            plus = longitudinal_dipole_polarization(d, np.zeros(3), x0 + step)[axis]
            minus = longitudinal_dipole_polarization(d, np.zeros(3), x0 - step)[axis]
            div += (plus - minus) / (2.0 * h)
        scale = np.linalg.norm(longitudinal_dipole_polarization(d, np.zeros(3), x0)) / np.linalg.norm(x0)
        assert abs(div) <= 1e-6 * scale

    def test_coincident_points_rejected(self):
        d = np.array([0.0, 0.0, 1e-30])
        with pytest.raises(ValueError):
            longitudinal_dipole_polarization(d, np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            total_residual_polarization(d, np.zeros(3), MU, np.zeros(3))

    @staticmethod
    def public_fields(k_m, x, d=np.array([0.3e-29, -0.2e-29, 1e-29])):
        origin = np.zeros(3)
        return {
            "exact kernel": lambda: transverse_delta_real_exact(k_m, x),
            "far kernel": lambda: transverse_delta_real_far(k_m, x),
            "transverse": lambda: transverse_polarization(d, origin, k_m, x),
            "longitudinal": lambda: longitudinal_dipole_polarization(d, origin, x),
            "residual": lambda: total_residual_polarization(d, origin, k_m, x),
        }

    @pytest.mark.parametrize("r", [1e-104, 1e-108, 1e-150, math.nextafter(SHORTEST, 0.0)])
    def test_separation_below_limit_rejected(self, r):
        # below about 1e-104 m r^3 leaves the normal floats and the fields stop being finite
        for field in self.public_fields(MU, np.array([0.0, 0.0, r])).values():
            with pytest.raises(ValueError, match="^separation must be from 1e-30 to 1e\\+10 m"):
                field()

    @pytest.mark.parametrize("d", [[1e308, 1e308, 0.0], [0.0, 2.0, 0.0], [1e-120, 0.0, 0.0]])
    def test_dipole_outside_domain_rejected(self, d):
        # a dipole past 1 C*m overflowed 3 (n.d) n - d, and an exp(-kM r) of 0 times it gave NaN
        x = np.array([1e-5, 0.0, 0.0])
        for call in (
            lambda: transverse_polarization(d, np.zeros(3), MU, x),
            lambda: longitudinal_dipole_polarization(d, np.zeros(3), x),
            lambda: total_residual_polarization(d, np.zeros(3), MU, x),
        ):
            with pytest.raises(ValueError, match="^\\|d\\| must be 0 or from 1e-100 to 1 C\\*m"):
                call()

    @pytest.mark.filterwarnings("error")
    def test_offsets_past_the_float_range_rejected_without_warning(self):
        # x - x_a, or its square, overflows to inf; the length domain refuses it and numpy must not warn first
        d = np.array([0.0, 0.0, 1e-30])
        low, high = np.array([-1.7e308, 0.0, 0.0]), np.array([1.7e308, 0.0, 0.0])
        for call in (
            lambda: transverse_polarization(d, low, MU, high),
            lambda: longitudinal_dipole_polarization(d, low, high),
            lambda: total_residual_polarization(d, low, MU, high),
        ):
            with pytest.raises(ValueError, match="^separation must be from 1e-30 to 1e\\+10 m, got inf"):
                call()

    def test_fields_finite_at_limit(self):
        for k_m in np.logspace(math.log10(LOWEST_CUTOFF), math.log10(HIGHEST_CUTOFF), 40):
            for r in (SHORTEST, LONGEST):
                for x in (np.array([r, 0.0, 0.0]), np.array([0.0, 0.0, -r])):
                    for d in (np.array([0.0, 0.6, 0.8]), np.array([0.0, 0.0, DOMAINS["dipole moment"][0]])):
                        for name, field in self.public_fields(k_m, x, d).items():
                            assert np.all(np.isfinite(field())), (name, k_m)


class TestResidualCancellation:
    def test_parallel_orientation_at_five(self):
        d = np.array([0.0, 0.0, 1.0e-30])
        r = 5.0 / MU
        x = np.array([0.0, 0.0, r])
        residual = total_residual_polarization(d, np.zeros(3), MU, x)
        longitudinal = longitudinal_dipole_polarization(d, np.zeros(3), x)
        assert np.linalg.norm(residual) / np.linalg.norm(longitudinal) <= 0.2

    def test_all_orientations_at_ten(self, rng):
        d = 1.0e-30 * np.array([0.2, -0.9, 0.4])
        r = 10.0 / MU
        for _ in range(20):
            direction = rng.normal(size=3)
            x = direction / np.linalg.norm(direction) * r
            residual = total_residual_polarization(d, np.zeros(3), MU, x)
            longitudinal = longitudinal_dipole_polarization(d, np.zeros(3), x)
            assert np.linalg.norm(residual) / np.linalg.norm(longitudinal) < 0.01

    def test_large_cutoff_limit(self):
        d = np.array([0.0, 1.0e-30, 0.0])
        x = np.array([2.0e-10, 1.0e-10, -1.0e-10])
        residual = total_residual_polarization(d, np.zeros(3), 80.0 / np.linalg.norm(x), x)
        longitudinal = longitudinal_dipole_polarization(d, np.zeros(3), x)
        assert np.linalg.norm(residual) <= 1e-20 * np.linalg.norm(longitudinal)

    @given(vectors, vectors, st.floats(min_value=3.0, max_value=25.0))
    @settings(max_examples=40)
    def test_exponential_envelope(self, d_dir, x_dir, s):
        d = d_dir * 1e-30
        x = x_dir / np.linalg.norm(x_dir) * (s / MU)
        residual = total_residual_polarization(d, np.zeros(3), MU, x)
        longitudinal = longitudinal_dipole_polarization(d, np.zeros(3), x)
        envelope = 2.0 * (1.0 + s + s * s / 2.0) * math.exp(-s)
        assert np.linalg.norm(residual) <= envelope * np.linalg.norm(longitudinal) * (1.0 + 1e-9)

    @given(vectors, vectors, st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=40)
    def test_sum_equals_parts(self, d_dir, x_dir, s):
        d = d_dir * 1e-30
        x_a = np.array([1.0e-10, 2.0e-10, -0.5e-10])
        x = x_a + at_distance(x_dir, s)
        residual = total_residual_polarization(d, x_a, MU, x)
        transverse = transverse_polarization(d, x_a, MU, x)
        longitudinal = longitudinal_dipole_polarization(d, x_a, x)
        # the parts cancel to about a fifth at kM r = 5, so compare against their size
        scale = np.linalg.norm(transverse) + np.linalg.norm(longitudinal)
        assert np.linalg.norm(residual - (transverse + longitudinal)) <= 1e-12 * scale
