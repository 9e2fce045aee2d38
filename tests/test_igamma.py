"""P(3, x) and Q(3, x) against their oracles: scipy.special on [0, 3], mpmath above.

On [0, 3] P(3, x) transcribes Cephes igam as scipy ships it, so it must
equal gammainc(3, x) bit for bit: over a dense log grid, at the branch
edges and their neighbouring floats, at 0 and subnormals, and over
hypothesis draws.  Above 3, P is 1 - Q and Q(3, x) is the exact closed form
exp(-x)(1 + x + x^2/2); both are held to their stated bounds against mpmath
at 50 digits, over a grid through the exp underflow edge and over
hypothesis draws up to the largest float; Q also below 3, beside the
residual field's numpy complement, which states the same bound.  P is
finite and in [0, 1] everywhere and does not decrease where the two
branches meet at 3.  The port's two folded a = 3 constants are checked
against what they stand for, in mpmath.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dipolegauge._igamma import _FAC, _LANCZOS_PREFACTOR, gammainc3, gammaincc3
from dipolegauge.polarization import _envelope_complement, radial_envelope

EPS = np.finfo(float).eps
TINY = math.ldexp(1.0, -1074)
FLOAT_MAX = np.finfo(float).max
# |3 - x| > 1.2 (x < 1.8) picks the logarithmic prefactor; x > 3 picks 1 - Q;
# 1.0 and 1.1 are edges of Cephes' own P/Q dispatch; sqrt(6) is a golden point
EDGES = (1.0, 1.1, 1.8, 3.0, math.sqrt(6.0))


def with_neighbours(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    return np.concatenate([xs, np.nextafter(xs, 0.0), np.nextafter(xs, np.inf)])


def assert_series_bitwise(xs):
    """P(3, x) equals scipy.special.gammainc(3, x) bit for bit at every x <= 3 of xs."""
    special = pytest.importorskip("scipy.special")
    xs = np.asarray(xs, dtype=float)
    xs = xs[xs <= 3.0]
    port = np.array([gammainc3(x) for x in xs.tolist()])
    differ = port.view(np.int64) != special.gammainc(3.0, xs).view(np.int64)
    assert not differ.any(), f"P(3, x) differs at x = {xs[differ][:5].tolist()}"


def assert_within_bounds(xs):
    """|P - exact| <= 2 eps and |Q - exact| <= 4 eps Q + (1 + x + x^2/2) 2^-1074 at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for x in xs:
            q = mpmath.gammainc(3, x, mpmath.inf, regularized=True)
            assert abs(mpmath.mpf(gammainc3(x)) - (1 - q)) <= 2.0 * EPS, x
            bound = 4.0 * EPS * q + (1 + mpmath.mpf(x) + mpmath.mpf(x) ** 2 / 2) * TINY
            assert abs(mpmath.mpf(gammaincc3(x)) - q) <= bound, x


def test_folded_constants_provenance():
    """fac = 3 + g - 1/2 for Boost's Lanczos g, and the prefactor approximates fac^3 e^-3 / Gamma(3)."""
    mpmath = pytest.importorskip("mpmath")
    assert _FAC == 3.0 + 6.024680040776729583740234375 - 0.5
    with mpmath.workdps(50):
        fac = mpmath.mpf(_FAC)
        exact = fac**3 * mpmath.exp(-3) / mpmath.gamma(3)
        assert abs(mpmath.mpf(_LANCZOS_PREFACTOR) - exact) <= 2.0 * EPS * exact


def test_log_grid_matches_scipy_bitwise():
    assert_series_bitwise(np.geomspace(1e-8, 800.0, 40_001))


def test_branch_edges_match_scipy_bitwise():
    assert_series_bitwise(with_neighbours(EDGES + tuple(np.linspace(0.5, 5.0, 901))))


def test_zero_and_subnormals_match_scipy_bitwise():
    assert_series_bitwise([0.0, TINY, 2.0 * TINY, 1e-310, np.finfo(float).tiny, 1e-300, 1e-100])
    assert gammainc3(0.0) == 0.0


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=3.0, allow_nan=False, allow_subnormal=True))
def test_hypothesis_draws_match_scipy_bitwise(x):
    assert_series_bitwise([x])


def test_grid_above_three_within_bounds():
    rng = np.random.default_rng(318)
    xs = np.concatenate(
        [
            np.geomspace(3.0, 800.0, 2001)[1:],
            rng.uniform(3.0, 4.2, 200),
            with_neighbours([3.0, 4.2, 708.0, 745.0, 745.1332191019412]),
            rng.uniform(690.0, 760.0, 200),
        ]
    )
    assert_within_bounds(xs[xs > 3.0].tolist())


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=3.0, max_value=FLOAT_MAX, exclude_min=True))
def test_hypothesis_draws_above_three_within_bounds(x):
    assert_within_bounds([x])


def test_underflow_edge_and_beyond():
    """Past the point where exp(-x) rounds to 0, Q is 0 and P is 1, up to inf; x^2 is never formed."""
    assert gammaincc3(745.0) > 0.0 and gammaincc3(746.0) == 0.0
    for x in (746.0, 1e154, 1e200, FLOAT_MAX, math.inf):
        assert (gammainc3(x), gammaincc3(x)) == (1.0, 0.0)
    assert gammaincc3(0.0) == 1.0


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, allow_nan=False, allow_subnormal=True))
def test_lower_is_a_probability(x):
    """Finite and in [0, 1] for every x in [0, float max] and at inf."""
    p = gammainc3(x)
    assert math.isfinite(p) and 0.0 <= p <= 1.0


def test_lower_non_decreasing_across_the_branch_point():
    floats = [math.nextafter(3.0, 0.0), 3.0]
    for _ in range(2000):
        floats.append(math.nextafter(floats[-1], math.inf))
    for xs in (floats, np.linspace(3.0, 40.0, 200_001).tolist()):
        assert np.all(np.diff([gammainc3(x) for x in xs]) >= 0.0)


def test_envelope_is_the_port():
    assert radial_envelope(1.0, math.sqrt(6.0)) == gammainc3(math.sqrt(6.0))
    s = 1e10 * 1e-9
    assert s > 3.0
    assert radial_envelope(1e10, 1e-9) == 1.0 - math.exp(-s) * (1.0 + s + s * s / 2.0)


def test_closed_form_complement_within_stated_bound():
    """|Q - exact| <= 4 eps Q + (1 + s + s^2/2) 2^-1074, the bound gammaincc3 and _envelope_complement state."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(703)
    s = np.concatenate(
        [
            np.exp(rng.uniform(math.log(1e-8), math.log(800.0), 600)),
            rng.uniform(690.0, 760.0, 200),
            [0.0, 1e-300, 1.0, 3.0, 708.0, 708.4, 745.0, 745.2],
        ]
    )
    with mpmath.workdps(50):
        for si, numpy_q in zip(s.tolist(), _envelope_complement(s).tolist()):
            exact = mpmath.gammainc(3, si, mpmath.inf, regularized=True)
            bound = 4.0 * EPS * exact + mpmath.mpf(1.0 + si + si * si / 2.0) * TINY
            for q in (numpy_q, gammaincc3(si)):
                assert abs(mpmath.mpf(q) - exact) <= bound, si
