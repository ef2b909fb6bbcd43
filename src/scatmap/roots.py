"""Root and maximum search, giving SciPy's floats without importing it.

brentq is the loop of SciPy's C brentq (Brent's method with inverse
quadratic extrapolation), operation for operation, at SciPy's defaults
rtol = 4*eps and maxiter = 100; golden_max is the golden-section loop of
scipy.optimize.minimize_scalar(method="golden") on a three-point bracket.
Both return the same float SciPy does, bit for bit (tests/test_roots.py
checks them against SciPy), and raise its exception types and messages, so
every root in the library is the one SciPy would give.  Importing
scipy.optimize takes longer than most CLI calls spend on everything else.

brentq_many runs brentq over arrays of brackets in lockstep: Brent's method
(Algorithms for Minimization without Derivatives, 1973, ch. 4) is a fixed
sequence of IEEE operations, so each lane gives brentq's float.
"""
from __future__ import annotations

import numpy as np

_RTOL = 4 * 2.220446049250313e-16   # 4 * machine epsilon, SciPy's floor
_MAXITER = 100
_GOLDEN_R = 0.61803399              # SciPy's golden ratio conjugate
_GOLDEN_C = 1.0 - _GOLDEN_R
_GOLDEN_MAXITER = 5000


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
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
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


def brentq_many(f, a, b, args: tuple = (), xtol: float = 2e-12) -> np.ndarray:
    """brentq on each bracket [a[k], b[k]] at once; f(x, *args) works on arrays.

    Each lane does brentq's float operations in brentq's order: np.where
    picks the lane's branch.  Every lane runs to the end, and its root is
    recorded when it finishes; a finished lane's later values are never read.
    So root k is brentq's float for lane k wherever the array form of f
    gives the scalar form's floats.  Raises as brentq does when a lane would.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    xpre, xcur = np.array(a, dtype=float), np.array(b, dtype=float)
    fpre, fcur = _no_nan(f(xpre, *args), xpre), _no_nan(f(xcur, *args), xcur)
    root = np.where(fpre == 0.0, xpre, xcur)
    live = (fpre != 0.0) & (fcur != 0.0)
    if (live & ((fpre < 0.0) == (fcur < 0.0))).any():
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = np.zeros(live.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAXITER):
            new = (fpre != 0.0) & (fcur != 0.0) & ((fpre < 0.0) != (fcur < 0.0))
            width = xcur - xpre
            xblk, fblk, spre, scur = [np.where(new, x, y) for x, y in zip(
                (xpre, fpre, width, width), (xblk, fblk, spre, scur))]
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk, fpre, fcur, fblk = [np.where(swap, x, y) for x, y in zip(
                (xcur, xblk, xcur, fcur, fblk, fcur), (xpre, xcur, xblk, fpre, fcur, fblk))]

            delta = (xtol + _RTOL * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = live & ((fcur == 0.0) | (np.abs(sbis) < delta))
            root[done] = xcur[done]
            live &= ~done
            if not live.any():
                return root

            # brentq's trial step; lanes that do not try it drop its 0/0
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(
                xpre == xblk,   # interpolate, else extrapolate
                -fcur * (xcur - xpre) / (fcur - fpre),
                -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
            step = 2 * np.abs(stry)
            abs_spre = np.abs(spre)
            good = ((abs_spre > delta) & (np.abs(fcur) < np.abs(fpre))
                    & (step < abs_spre) & (step < 3 * np.abs(sbis) - delta))
            spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)

            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur,
                                   np.where(sbis > 0, delta, -delta))
            fcur = _no_nan(f(xcur, *args), xcur, live)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")


def _no_nan(fx: np.ndarray, x: np.ndarray, live=True) -> np.ndarray:
    """fx, unless a live lane is NaN: then brentq's error for the first such x."""
    nan = np.isnan(fx) & live
    if nan.any():
        raise _nan_error(float(x[np.argmax(nan)]))
    return fx


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
