"""The pure-Python QAGI path against scipy.integrate.quad, its oracle.

Both run QUADPACK dqagie on [0, inf) with epsabs = 0 and limit = 50.  The
port keeps only the path the 1s-shift cross-check takes, so the contract
is that call: u^4 e^(-2u) at the relative tolerances min(tol, 1e-10) of
the tolerance domain, 1e-12 to 1e-10.  There the value, the error
estimate, the number of evaluations and the exit code must agree bit for
bit.  The same holds on a table of other integrands (smooth, slowly
decaying, identically zero, and one whose integral is zero) at relative
tolerances from 1e-2 to the smallest accepted: on them too quad never
accepts the extrapolation, and the port also reaches its exit codes 1 and 2.
"""

import math
import sys

import numpy as np
import pytest
from scipy import integrate

from dipolegauge._quadpack import MIN_EPSREL, qagi

# epsrel = min(tol, 1e-10) over the tolerance domain 1e-12 <= tol <= 1
EPSREL_LOW, EPSREL_HIGH = 1e-12, 1e-10
# the last float of one outcome and the first of the next
OUTCOME_BOUNDARIES = (
    3.415436729017266e-12,
    3.4154367290172664e-12,
    3.2193238148858456e-11,
    3.219323814885846e-11,
)


def hydrogen_1s(u):
    return u**4 * math.exp(-2.0 * u)


INTEGRANDS = {
    "hydrogen_1s": hydrogen_1s,
    "gaussian": lambda x: math.exp(-x * x),
    "lorentzian": lambda x: 1.0 / (1.0 + x * x),
    # zero integral: the first rule's error is pure roundoff
    "cancelling": lambda x: (1.0 / (1.0 + x) - 0.5) / (1.0 + x) ** 2,
    "zero": lambda x: 0.0,
}
# sinc^2 runs into the subdivision limit; quad extrapolates it, so only the
# exit code is compared
EXIT_INTEGRANDS = {**INTEGRANDS, "sinc_squared": lambda x: (math.sin(x) / x) ** 2}
EPSRELS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-13, 3e-14, 1.2e-14, 50.0 * sys.float_info.epsilon)

# opening words of quad's message for each nonzero exit code the port keeps
EXIT_MESSAGES = {
    1: "The maximum number of subdivisions",
    2: "The occurrence of roundoff error",
    3: "Extremely bad integrand behavior",
}


def quad_reference(f, epsrel):
    value, abserr, info, *message = integrate.quad(f, 0.0, math.inf, epsabs=0.0, epsrel=epsrel, full_output=1)
    ier = 0
    if message:
        ier = next(code for code, opening in EXIT_MESSAGES.items() if message[0].startswith(opening))
    return value, abserr, info["neval"], ier


def test_matches_quad_over_the_tolerance_domain():
    epsrels = [float(e) for e in np.geomspace(EPSREL_LOW, EPSREL_HIGH, 2000)]
    assert epsrels[0] == EPSREL_LOW and epsrels[-1] == EPSREL_HIGH
    outcomes = set()
    for epsrel in sorted(epsrels + list(OUTCOME_BOUNDARIES)):
        result = qagi(hydrogen_1s, epsrel)
        assert result == quad_reference(hydrogen_1s, epsrel), epsrel
        outcomes.add(result)
    assert len(outcomes) == 3
    assert {ier for _, _, _, ier in outcomes} == {0}


def test_outcome_changes_between_boundary_floats():
    for below, above in zip(OUTCOME_BOUNDARIES[::2], OUTCOME_BOUNDARIES[1::2]):
        assert math.nextafter(below, math.inf) == above
        assert qagi(hydrogen_1s, below) != qagi(hydrogen_1s, above)


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
    ],
)
def test_table_reaches_each_exit(name, epsrel, ier):
    assert epsrel in EPSRELS
    f = EXIT_INTEGRANDS[name]
    assert qagi(f, epsrel)[3] == ier == quad_reference(f, epsrel)[3]


def test_production_call():
    assert qagi(hydrogen_1s, 1e-10) == (0.75, 2.414492861164386e-11, 225, 0)


@pytest.mark.parametrize("epsrel", [1e-14, 0.0, -1e-3, math.nan, math.nextafter(MIN_EPSREL, 0.0)])
def test_tolerance_below_floor_rejected(epsrel):
    with pytest.raises(ValueError, match="relative tolerance must be at least"):
        qagi(hydrogen_1s, epsrel)
    if not math.isnan(epsrel):  # quad runs with a NaN tolerance
        with pytest.raises(ValueError, match="epsrel"):
            integrate.quad(hydrogen_1s, 0.0, math.inf, epsabs=0.0, epsrel=epsrel)
