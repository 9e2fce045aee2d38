import numpy as np
import pytest

# cutoff-window tolerances at which, at kM = 0.5/a0, the quadrature accepts
# (ier = 0) while its summed error exceeds tol times the returned, re-summed
# value by a rounding: five consecutive floats and three more
ACCEPTED_ON_A_ROUNDING = (
    3.4154367290172664e-12, 3.415436729017267e-12, 3.4154367290172672e-12, 3.4154367290172676e-12,
    3.415436729017268e-12, 3.219323814885846e-11, 3.219323814885847e-11, 3.2193238148858475e-11,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_rotation(rng) -> np.ndarray:
    """Haar-ish random rotation from a QR decomposition."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q
