"""The a = 3 incomplete gamma port against scipy.special, its oracle.

The port transcribes Cephes igam/igamc as scipy ships them, so P(3, x) and
Q(3, x) must equal gammainc(3, x) and gammaincc(3, x) bit for bit: over a
dense log grid, at the branch edges and their neighbouring floats, at 0,
subnormals, the MAXLOG underflow edge and +inf, and over hypothesis draws.
The residual field's closed-form complement exp(-s)(1 + s + s^2/2) is
held to its stated bound against mpmath at 50 digits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dipolegauge._igamma import gammainc3, gammaincc3
from dipolegauge.polarization import _envelope_complement, radial_envelope

special = pytest.importorskip("scipy.special")

EPS = np.finfo(float).eps
TINY = math.ldexp(1.0, -1074)
# x > 1 and x > 3 picks the P/Q dispatch, x > 1.1 the Q one; |3 - x| > 1.2
# (x < 1.8 or x > 4.2) picks the logarithmic prefactor; sqrt(6) is a golden point
EDGES = (1.0, 1.1, 1.8, 3.0, 4.2, math.sqrt(6.0))


def with_neighbours(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    return np.concatenate([xs, np.nextafter(xs, 0.0), np.nextafter(xs, np.inf)])


def assert_bitwise(xs):
    xs = np.asarray(xs, dtype=float)
    lower = np.array([gammainc3(x) for x in xs.tolist()])
    upper = np.array([gammaincc3(x) for x in xs.tolist()])
    for name, port, oracle in (("P", lower, special.gammainc(3.0, xs)), ("Q", upper, special.gammaincc(3.0, xs))):
        differ = port.view(np.int64) != oracle.view(np.int64)
        assert not differ.any(), f"{name}(3, x) differs at x = {xs[differ][:5].tolist()}"


def test_log_grid_matches_scipy_bitwise():
    assert_bitwise(np.geomspace(1e-8, 800.0, 40_001))


def test_branch_edges_match_scipy_bitwise():
    assert_bitwise(with_neighbours(EDGES + tuple(np.linspace(0.5, 5.0, 901))))


def test_underflow_edge_matches_scipy_bitwise():
    """Past 3 log x - x - log 2 < -MAXLOG (x about 729) the prefactor is 0, and so is Q."""
    xs = with_neighbours(np.linspace(700.0, 750.0, 2001))
    assert_bitwise(xs)
    assert gammaincc3(730.0) == 0.0 and gammainc3(730.0) == 1.0 and gammaincc3(728.0) > 0.0


def test_zero_subnormal_huge_and_inf_match_scipy_bitwise():
    xs = [0.0, TINY, 2.0 * TINY, 1e-310, np.finfo(float).tiny, 1e-300, 1e-100, 1e300, np.finfo(float).max, math.inf]
    assert_bitwise(xs)
    assert (gammainc3(0.0), gammaincc3(0.0)) == (0.0, 1.0)
    assert (gammainc3(math.inf), gammaincc3(math.inf)) == (1.0, 0.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False, allow_subnormal=True))
def test_hypothesis_draws_match_scipy_bitwise(x):
    assert_bitwise([x])


def test_envelope_is_the_port():
    assert radial_envelope(1.0, math.sqrt(6.0)) == gammainc3(math.sqrt(6.0))
    assert radial_envelope(1e10, 1e-9) == float(special.gammainc(3.0, 1e10 * 1e-9))


def test_closed_form_complement_within_stated_bound():
    """|Q - exact| <= 4 eps Q + (1 + s + s^2/2) 2^-1074, the bound _envelope_complement states."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(703)
    s = np.concatenate(
        [
            np.exp(rng.uniform(math.log(1e-8), math.log(800.0), 600)),
            rng.uniform(690.0, 760.0, 200),
            [0.0, 1e-300, 1.0, 3.0, 708.0, 708.4, 745.0, 745.2],
        ]
    )
    q = _envelope_complement(s)
    with mpmath.workdps(50):
        for si, qi in zip(s.tolist(), q.tolist()):
            exact = mpmath.gammainc(3, si, mpmath.inf, regularized=True)
            bound = 4.0 * EPS * exact + mpmath.mpf(1.0 + si + si * si / 2.0) * TINY
            assert abs(mpmath.mpf(qi) - exact) <= bound, si
