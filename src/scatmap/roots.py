"""Root search, maximum search and sample grids, giving SciPy's and NumPy's
floats without importing either.

brentq is the loop of SciPy's C brentq (Brent's method with inverse
quadratic extrapolation), operation for operation, at SciPy's defaults
rtol = 4*eps and maxiter = 100; golden_max is the golden-section loop of
scipy.optimize.minimize_scalar(method="golden") on a three-point bracket.
Both return the same float SciPy does, bit for bit (tests/test_roots.py
checks them against SciPy), and raise its exception types and messages, so
every root in the library is the one SciPy would give.  Importing
scipy.optimize takes longer than most CLI calls spend on everything else.

linspace and arange give np.linspace's and np.arange's floats as lists,
so the commands that only sample a range start without NumPy, whose import
takes most of such a call; check_samples bounds every sample count first.
The lockstep Brent over arrays is scattering.brentq_many.
"""
from __future__ import annotations

import math

_RTOL = 4 * 2.220446049250313e-16   # 4 * machine epsilon, SciPy's floor
_MAXITER = 100
_GOLDEN_R = 0.61803399              # SciPy's golden ratio conjugate
_GOLDEN_C = 1.0 - _GOLDEN_R
_GOLDEN_MAXITER = 5000
# most samples one range may hold: a million floats take some 30 MB as a
# list, and a command tens of seconds to evaluate; a count above it is a
# configuration error
MAX_SAMPLES = 10**6


def _nan_error(x: float) -> ValueError:
    return ValueError(f"The function value at x={x} is NaN; solver cannot continue.")


def brentq(f, a: float, b: float, args: tuple = (), xtol: float = 2e-12) -> float:
    """A root of f(x, *args) in [a, b], where f(a) and f(b) differ in sign.

    Converges to |error| <= xtol + 4*eps*|root| within 100 iterations, else
    raises RuntimeError.  Raises ValueError when f(a) and f(b) have the same
    sign or f returns NaN.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    xpre, xcur = float(a), float(b)
    fpre = float(f(xpre, *args))
    if fpre != fpre:
        raise _nan_error(xpre)
    fcur = float(f(xcur, *args))
    if fcur != fcur:
        raise _nan_error(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate; a denominator underflowed to 0 bisects, as C's inf step does
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            step = 2 * abs(stry)
            if step < abs(spre) and step < 3 * abs(sbis) - delta:
                spre, scur = scur, stry   # good short step
            else:
                spre = scur = sbis        # bisect
        else:
            spre = scur = sbis            # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur, *args))
        if fcur != fcur:
            raise _nan_error(xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")


def golden_max(f, xa: float, xb: float, xc: float, xtol: float) -> float:
    """Argmax of f by golden-section search inside the bracket (xa, xb, xc).

    Requires xa < xb < xc (or the reverse) and f(xb) above f(xa) and f(xc);
    stops once the bracket is narrower than xtol relative to the argument.
    """
    if xa > xc:
        xa, xc = xc, xa
    if not (xa < xb < xc):
        raise ValueError("bracketing values (xa, xb, xc) do not satisfy xa < xb < xc")
    fa, fb, fc = f(xa), f(xb), f(xc)
    if not (fb > fa and fb > fc):
        raise ValueError("bracketing values (xa, xb, xc) do not satisfy "
                         "f(xb) > f(xa) and f(xb) > f(xc)")
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + _GOLDEN_C * (xc - xb)
    else:
        x1, x2 = xb - _GOLDEN_C * (xb - xa), xb
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_MAXITER):
        if abs(x3 - x0) <= xtol * (abs(x1) + abs(x2)):
            break
        if f2 > f1:
            x0, x1 = x1, x2
            x2 = _GOLDEN_R * x1 + _GOLDEN_C * x3
            f1, f2 = f2, f(x2)
        else:
            x3, x2 = x2, x1
            x1 = _GOLDEN_R * x2 + _GOLDEN_C * x0
            f2, f1 = f1, f(x1)
    return x1 if f1 > f2 else x2


def check_samples(n: float) -> None:
    """Raise ValueError unless the sample count n is at most MAX_SAMPLES
    (so NaN and inf are refused too)."""
    if not n <= MAX_SAMPLES:
        raise ValueError(f"sample count {n!r}: must be finite and at most {MAX_SAMPLES}")


def linspace(start: float, stop: float, num: int, endpoint: bool = True) -> list[float]:
    """np.linspace(start, stop, num, endpoint=endpoint), float for float, for
    num >= 2: i*step + start with step = (stop - start)/div, div = num - 1
    (num without endpoint); where step underflows to 0, NumPy's subnormal
    branch (i/div)*(stop - start) + start; and stop last with endpoint."""
    if num < 2:
        raise ValueError(f"sample count {num!r}: must be at least 2")
    check_samples(num)
    div = num - 1 if endpoint else num
    delta = stop - start
    step = delta / div
    y = ([i / div * delta + start for i in range(num)] if step == 0.0
         else [i * step + start for i in range(num)])
    if endpoint:
        y[-1] = stop
    return y


def arange(start: float, stop: float, step: float) -> list[float]:
    """np.arange(start, stop, step) for floats, float for float: its
    ceil((stop - start)/step) values are start, start + step, and then
    start + i*d with d = (start + step) - start."""
    count = (stop - start) / step
    check_samples(count)
    n, d = math.ceil(count), (start + step) - start
    return [start, start + step, *(start + i * d for i in range(2, n))][:max(0, n)]
