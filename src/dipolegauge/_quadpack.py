"""QUADPACK QAGI on [0, inf) in pure Python: the dqagie path of the 1s-shift cross-check.

A transcription of R. Piessens, E. de Doncker-Kapenga, C. W. Ueberhuber and
D. K. Kahaner, QUADPACK (Springer, 1983), kept to the one call the hydrogen
1s-shift cross-check makes: u^4 e^(-2u) on lower bound 0, upper bound
+inf, with epsabs = 0, limit = 50 and relative tolerances from 1e-12 to
1e-10.  dqagie's bisection (dqk15i, dqpsrt and its schedule) is kept in
the Fortran operation order and constants.  Wynn's epsilon extrapolation
(dqelg) and the choice between its estimate and the sum of the
subintervals are left out: on that integrand and tolerance range quad
computes the extrapolation but never accepts it.  So the result, the
error estimate, the evaluation count and the exit code equal those of
``scipy.integrate.quad(f, 0, inf, epsabs=0, epsrel=epsrel)`` bit for bit
for that call, which the tests check; for other integrands they can
differ.  Lists are indexed from 1, as in Fortran, and their index 0 is
unused.
"""

from __future__ import annotations

import sys
from collections.abc import Callable

EPMACH = sys.float_info.epsilon  # d1mach(4)
UFLOW = sys.float_info.min  # d1mach(1)
LIMIT = 50  # most subintervals, quad's default
# dqagie refuses smaller relative tolerances when epsabs <= 0 (its ier = 6)
MIN_EPSREL = max(50.0 * EPMACH, 5e-29)

# 7-point Gauss weights (zero at the Kronrod-only nodes), 15-point Kronrod
# nodes and weights; the last entry belongs to the centre.
WG = (
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
    0.417959183673469387755102040816327,
)
XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)


def _dqk15i(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, float, float]:
    """15-point Kronrod rule on [a, b] of (0, 1] after the map x = (1 - t) / t.

    Returns (result, abserr, resabs, resasc) as dqk15i does with boun = 0
    and inf = 1, where boun + dinf * (1 - t) / t is (1 - t) / t exactly.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fval1 = f((1.0 - centr) / centr)
    fc = (fval1 / centr) / centr
    resg = WG[7] * fc
    resk = WGK[7] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 7
    fv2 = [0.0] * 7
    for j in range(7):
        absc = hlgth * XGK[j]
        absc1 = centr - absc
        absc2 = centr + absc
        fval1 = f((1.0 - absc1) / absc1)
        fval2 = f((1.0 - absc2) / absc2)
        fval1 = (fval1 / absc1) / absc1
        fval2 = (fval2 / absc2) / absc2
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resg = resg + WG[j] * fsum
        resk = resk + WGK[j] * fsum
        resabs = resabs + WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = WGK[7] * abs(fc - reskh)
    for j in range(7):
        resasc = resasc + WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resasc = resasc * hlgth
    resabs = resabs * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, r**1.5) as min(1, r)**1.5: the same value, and no
        # OverflowError from ** when r is huge
        abserr = resasc * min(1.0, 200.0 * abserr / resasc) ** 1.5
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _dqpsrt(last: int, maxerr: int, elist: list[float], iord: list[int], nrmax: int) -> tuple[int, float, int]:
    """Keep iord descending in elist; returns the next (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        # after a subdivision that raised the error, move errmax up past nrmax
        errmax = elist[maxerr]
        if nrmax != 1:
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax = nrmax - 1
        # only as many entries as subdivisions remain are kept in order
        jupbn = last
        if last > LIMIT // 2 + 2:
            jupbn = LIMIT + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmax top-down, then errmin bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k = k - 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def qagi(f: Callable[[float], float], epsrel: float) -> tuple[float, float, int, int]:
    """Integrate f over [0, inf) to relative tolerance epsrel.

    Returns (result, abserr, neval, ier): the in-order sum of the
    subinterval results, the summed error estimates, and quad's exit codes
    0 normal, 1 subdivision limit, 2 roundoff, 3 bad integrand behaviour.
    Raises ValueError for epsrel below MIN_EPSREL (NaN included), where
    quad raises it too.
    """
    if not epsrel >= MIN_EPSREL:
        raise ValueError(f"relative tolerance must be at least {MIN_EPSREL!r}, got {epsrel!r}")
    alist = [0.0] * (LIMIT + 1)
    blist = [0.0] * (LIMIT + 1)
    rlist = [0.0] * (LIMIT + 1)
    elist = [0.0] * (LIMIT + 1)
    iord = [0] * (LIMIT + 1)
    blist[1] = 1.0

    # first approximation; errbnd is max(epsabs, epsrel * |result|) with epsabs = 0
    ier = 0
    result, abserr, defabs, resabs = _dqk15i(f, 0.0, 1.0)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    errbnd = max(0.0, epsrel * abs(result))
    if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
        ier = 2
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 30 * last - 15, ier

    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    nrmax = 1
    extrap = False
    ierro = 0
    iroff1 = 0
    iroff2 = 0
    iroff3 = 0
    small = erlarg = ertest = 0.0  # each is set before its first use

    for last in range(2, LIMIT + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _dqk15i(f, a1, b1)
        area2, error2, resabs, defab2 = _dqk15i(f, a2, b2)

        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 = iroff2 + 1
                else:
                    iroff1 = iroff1 + 1
            if last > 10 and erro12 > errmax:
                iroff3 = iroff3 + 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(0.0, epsrel * abs(area))

        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == LIMIT:
            ier = 1
        # bad integrand behaviour at some point of the range
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4

        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2

        maxerr, errmax, nrmax = _dqpsrt(last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd or ier != 0:
            break
        # dqagie's schedule for the extrapolation stays: it fixes the order in
        # which intervals are bisected, and the error estimate depends on that order
        if last == 2:
            small = 0.375
            erlarg = errsum
            ertest = errbnd
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before
            # bisecting, work down the errors over the larger intervals
            jupbnd = last
            if last > 2 + LIMIT // 2:
                jupbnd = LIMIT + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax = nrmax + 1
            if larger:
                continue

        # here dqagie extrapolates; then it prepares bisection of the smallest interval
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # in order, as dqagie sums; the built-in sum() compensates from Python 3.12
    result = 0.0
    for k in range(1, last + 1):
        result = result + rlist[k]
    return result, errsum, 30 * last - 15, ier - 1 if ier > 2 else ier  # dqagie's 4 is quad's 3
