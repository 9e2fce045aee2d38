"""The pure-Python QAGI port against scipy.integrate.quad, its oracle.

Both transcribe QUADPACK dqagie on [0, inf) with epsabs = 0 and limit = 50,
so every output must agree bit for bit: the value, the error estimate, the
number of evaluations and the exit code.  The table spans smooth, slowly
decaying, oscillatory, endpoint-singular, identically zero and divergent
integrands over relative tolerances from 1e-2 to the smallest accepted.
"""

import math
import sys

import pytest
from scipy import integrate

from dipolegauge._quadpack import MIN_EPSREL, _divide, qagi

INTEGRANDS = {
    "hydrogen_1s": lambda u: u**4 * math.exp(-2.0 * u),
    "gaussian": lambda x: math.exp(-x * x),
    "lorentzian": lambda x: 1.0 / (1.0 + x * x),
    "power_1.5": lambda x: (1.0 + x) ** -1.5,
    "power_1.01": lambda x: (1.0 + x) ** -1.01,
    "damped_sine": lambda x: math.sin(x) * math.exp(-0.1 * x),
    "sinc_squared": lambda x: (math.sin(x) / x) ** 2,
    "log_endpoint": lambda x: math.log(x) * math.exp(-x),
    "inverse_sqrt_endpoint": lambda x: math.exp(-x) / math.sqrt(x),
    # zero integral: the first rule's error is pure roundoff
    "cancelling": lambda x: (1.0 / (1.0 + x) - 0.5) / (1.0 + x) ** 2,
    "zero": lambda x: 0.0,
    "sinc": lambda x: math.sin(x) / x,
    "divergent_log": lambda x: 1.0 / (1.0 + x),
    "divergent_endpoint": lambda x: x**-1.5,
}
EPSRELS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-13, 3e-14, 1.2e-14, 50.0 * sys.float_info.epsilon)

# opening words of quad's message for each nonzero exit code
EXIT_MESSAGES = {
    1: "The maximum number of subdivisions",
    2: "The occurrence of roundoff error",
    3: "Extremely bad integrand behavior",
    4: "The algorithm does not converge",
    5: "The integral is probably divergent",
}


def quad_reference(f, epsrel):
    value, abserr, info, *message = integrate.quad(f, 0.0, math.inf, epsabs=0.0, epsrel=epsrel, full_output=1)
    ier = 0
    if message:
        ier = next(code for code, opening in EXIT_MESSAGES.items() if message[0].startswith(opening))
    return value, abserr, info["neval"], ier


@pytest.mark.parametrize("epsrel", EPSRELS)
@pytest.mark.parametrize("name", list(INTEGRANDS))
def test_matches_quad_bit_for_bit(name, epsrel):
    f = INTEGRANDS[name]
    assert qagi(f, epsrel) == quad_reference(f, epsrel)


@pytest.mark.parametrize(
    "name, epsrel, ier",
    [
        ("sinc_squared", 1e-6, 1),  # subdivision limit
        ("cancelling", 1e-2, 2),  # roundoff in the first rule
        ("hydrogen_1s", 50.0 * sys.float_info.epsilon, 2),  # roundoff while bisecting
        ("inverse_sqrt_endpoint", 1e-13, 4),  # roundoff in the extrapolation table
        ("sinc", 1e-8, 5),  # divergence
    ],
)
def test_table_reaches_each_exit(name, epsrel, ier):
    assert epsrel in EPSRELS
    assert qagi(INTEGRANDS[name], epsrel)[3] == ier


def test_production_call():
    assert qagi(INTEGRANDS["hydrogen_1s"], 1e-10) == (0.75, 2.414492861164386e-11, 225, 0)


@pytest.mark.parametrize("epsrel", [1e-14, 0.0, -1e-3, math.nan, math.nextafter(MIN_EPSREL, 0.0)])
def test_tolerance_below_floor_rejected(epsrel):
    f = INTEGRANDS["gaussian"]
    with pytest.raises(ValueError, match="relative tolerance must be at least"):
        qagi(f, epsrel)
    if not math.isnan(epsrel):  # quad runs with a NaN tolerance
        with pytest.raises(ValueError, match="epsrel"):
            integrate.quad(f, 0.0, math.inf, epsabs=0.0, epsrel=epsrel)


def test_divide_follows_ieee_at_zero():
    assert _divide(3.0, 2.0) == 1.5
    assert _divide(1.0, 0.0) == math.inf
    assert _divide(1.0, -0.0) == -math.inf
    assert _divide(-2.0, 0.0) == -math.inf
    assert math.isnan(_divide(0.0, 0.0))
    assert math.isnan(_divide(math.nan, 0.0))
