"""Crossing times, reduced Poincare functions and the truncated scattering map.

A torus segment through (I, theta) is parameterized by the time-angle
sigma in (-pi/2, 3*pi/2]; it crosses the maximum crest where

    c(sigma) = mu*alpha_signed(I)*sin(theta + I*sigma) + sin(sigma) = 0

with cos(sigma) >= 0 (the minimum crest takes cos(sigma) <= 0).  The crossing
with smallest |tau| (tau = -sigma for the theta-anchored segment) defines the
primary map; inside a tangency band three crossings coexist and are told
apart by which psi-interval (branch A/B/C) they fall in.

One function, _primary, finds the primary crossing of many points at once,
on one crossing kernel (_crossings), and every caller reads it.  The crest's
closed-form geometry (crests.tangency_points) tells which segments cross it
exactly once (_one_crossing); the kernel bisects those over its sigma
samples and scans the rest, tangency-band labels and vertical crests, and
either way gives the same float roots.  tau_star_full is a batch of one,
and the bulk callers (the portrait grid, the error-bound constants, the
admissible-window scan, the mu-flip symmetry check) pass arrays.
_gradient takes the gradient there the same way: grad_reduced_poincare
(hence the scattering map) is a batch of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .crests import (
    SINGULAR_TOL,
    CrestBranch,
    Orientation,
    TangencyInfo,
    crest_orientation,
    tangency_points,
    theta_of_psi,
    xi,
)
from .errors import (
    BranchUnavailable,
    DomainError,
    NoCrossing,
    ScatmapError,
    SingularCrest,
    TangencyPoint,
)
from .highways import in_intervals
from .model import (
    TWO_PI,
    ModelParams,
    amp_A10,
    amp_A10_deriv,
    crest_coefficient,
    envelope_gradient,
    melnikov_potential,
    wrap_angle,
)
from .roots import _MAXITER, _RTOL, _nan_error, brentq

# sigma sampling step for the crossing scan (half-window pi is split in 200)
_SCAN_STEP = math.pi / 200.0
# points the crossing kernel scans at once; bounds its scan arrays (410 kB
# of floats, 3 x 52 kB of flags) and sine tables (3.2 kB per action)
_CHUNK = 256
# points whose brackets the kernel refines in one call: a 400 x 400 grid's
# refinement takes 0.30 s in 1,024-point calls, 0.67 s in 256-point ones
_BLOCK = 4 * _CHUNK
# brackets from which brentq_many beats a roots.brentq loop: at 1-64 it
# costs 270-740 us against 6-530 us for the loop (2-core x86-64 VM, NumPy 2.4)
_LOCKSTEP_MIN = 64
# points per action from which _fill uses sine tables: at 16 as fast as sines,
# at 64 0.2-0.4 and at 1-2 1.3-4.5 times their time (2-core x86-64, NumPy 2.4)
_TABLE_MIN = 16
# margin of the one-crossing test: |a| and |I*a| this far below 1, or the
# label this far outside the tangency band (_one_crossing)
_ONE_MARGIN = 1e-9
# reject gradients closer to a tangency than this in |d theta / d psi|
_TANGENCY_GUARD = 1e-6
# reason codes: a primary crossing, or why there is none (_primary); at a
# crossing, why there is no gradient (_gradient): too close to the tangency
# locus, or on the crest window's edge, where d theta/d psi is undefined
_OK, _SINGULAR, _MISSES, _OFF_BRANCH, _TANGENT, _EDGE = range(6)


class Branch(Enum):
    SINGLE = "single"
    A = "A"
    B = "B"
    C = "C"


@dataclass(frozen=True)
class ReducedPoint:
    """(I, theta) point of the reduced scattering phase space."""

    I: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(self.theta))


@dataclass(frozen=True)
class TauStar:
    """A crest crossing: tau is the segment time, psi the crest angle."""

    tau: float
    psi: float
    sigma: float
    crest: CrestBranch
    branch: Branch


@dataclass(frozen=True)
class BranchSet:
    available: tuple[Branch, ...]
    domains: dict[Branch, tuple[tuple[float, float], ...]]
    tangency: TangencyInfo | None


def _sigma_window(crest: CrestBranch) -> tuple[float, float]:
    if crest is CrestBranch.MAXIMUM:
        return (-math.pi / 2.0, math.pi / 2.0)
    return (math.pi / 2.0, 3.0 * math.pi / 2.0)


def _crest_fn(sig: float, a: float, phi: float, I: float, s: float) -> float:
    """c(sigma) of one segment; roots.brentq refines a few brackets with it."""
    return a * math.sin(phi + I * (sig - s)) + math.sin(sig)


def _crest_many(sig, a, phi, I, s):
    """_crest_fn on arrays, with its operations (np.sin gives math.sin's floats)."""
    return a * np.sin(phi + I * (sig - s)) + np.sin(sig)


def _points(I, phi, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalars or 1-D arrays broadcast to three 1-D float arrays (views)."""
    return tuple(np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                       for v in (I, phi, s))))


def _wrap_angles(x):
    """model.wrap_angle on arrays, with its operations."""
    y = np.fmod(x, TWO_PI)
    y = np.where(y < 0.0, y + TWO_PI, y)
    return np.where(y >= TWO_PI, 0.0, y) + 0.0


def _window_s(s):
    """Time angles reduced into the window (-pi/2, 3*pi/2]."""
    s = _wrap_angles(np.asarray(s, dtype=float))
    return np.where(s > 1.5 * math.pi, s - TWO_PI, s)


def _per_action(params: ModelParams, I, *forms) -> list[np.ndarray]:
    """Each scalar closed form form(params, I) at the actions I (an array of
    any shape), computed once per distinct action (a grid block holds few)."""
    I = np.asarray(I, dtype=float)
    actions = I.ravel().tolist()
    index = {v: k for k, v in enumerate(dict.fromkeys(actions))}
    where = np.array([index[v] for v in actions], dtype=np.intp)
    out = []
    for form in forms:
        values = np.array([form(params, v) for v in index])[where]   # a tuple form adds an axis
        out.append(values.reshape(I.shape + values.shape[1:]))
    return out


@lru_cache(maxsize=2)
def _scan_samples(crest: CrestBranch) -> np.ndarray:
    """The coarse scan's samples of the crest window."""
    lo, hi = _sigma_window(crest)
    return np.linspace(lo, hi, max(8, int(math.ceil((hi - lo) / _SCAN_STEP))) + 1)


def _fill(v, xs, a, I, phi, s) -> tuple[np.ndarray, float]:
    """Fill v with c at the samples xs of each point; return the point of each
    row and delta >= |v - c|, c being _crest_many's float.  With _TABLE_MIN
    points per distinct action the rows, sorted by action, are (a sin(beta),
    a cos(beta)) @ (cos(I xs), sin(I xs)) + sin(xs), beta = phi - I*s: one
    sine table per action, within 1e-12*(1 + |a|*(1 + |phi| + |I|*(|s| + 5)))
    per point (docs/DECISIONS.md).  Else c itself, and delta = 0."""
    if len(I) >= _TABLE_MIN:
        row = np.argsort(I, kind="stable")
        action = I[row]
        first = np.flatnonzero(np.r_[True, action[1:] != action[:-1]])
        if len(I) >= _TABLE_MIN * len(first):
            delta = 1e-12 * np.fmax.reduce(1 + abs(a) * (1 + abs(phi) + abs(I) * (abs(s) + 5)))
            a, beta = a[row], phi[row] - action * s[row]
            weights = np.stack([a * np.sin(beta), a * np.cos(beta)], axis=1)
            bounds = [*first.tolist(), len(I)]
            for x, lo, hi in zip(np.multiply.outer(action[first], xs), bounds, bounds[1:]):
                np.einsum("kj,jl->kl", weights[lo:hi], [np.cos(x), np.sin(x)], out=v[lo:hi])
            v += np.sin(xs)
            return row, float(delta)
    v[:] = _crest_many(xs, a[:, None], phi[:, None], I[:, None], s[:, None])
    return np.arange(len(I)), 0.0


def brentq_many(f, a, b, args: tuple = (), xtol: float = 2e-12) -> np.ndarray:
    """roots.brentq on each bracket [a[k], b[k]] at once; f(x, *args) works
    on arrays.

    Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 4) is a fixed sequence of IEEE operations: each lane does brentq's
    in brentq's order, and np.where picks the lane's branch.  Every lane runs to the end, and its root is
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


def _lone_labels(params: ModelParams, I: float) -> tuple[float, float, float]:
    """(low, above, below): a segment at action I crosses the maximum crest
    exactly once if its label lies in (above, below) counted from low
    modulo 2*pi.  With a = mu*alpha_signed(I) that takes |a| < 1 and either
    |I*a| < 1, where theta(psi) increases (every label), or a label outside
    the tangency band [theta2, theta1], each by _ONE_MARGIN."""
    m = _ONE_MARGIN
    a = crest_coefficient(params, I)
    if not abs(a) < 1.0 - m:   # a vertical or singular crest, or nearly: no label
        return 0.0, TWO_PI, 0.0
    if abs(I * a) < 1.0 - m:
        return 0.0, -1.0, 2.0 * TWO_PI
    info = tangency_points(params, I)
    if info is None:   # |I*a| within m of 1: no label
        return 0.0, TWO_PI, 0.0
    return info.theta2, info.theta1 - info.theta2 + m, TWO_PI - m


def _one_crossing(params: ModelParams, I, phi, s, crest: CrestBranch) -> np.ndarray:
    """Whether each segment through (I[k], phi[k], s[k]) crosses the crest
    exactly once: its label phi - I*s passes _lone_labels, computed once per
    distinct action (docs/DECISIONS.md).

    The minimum crest is the maximum crest of -a at s - pi, c_min(sigma +
    pi) = -c_max(sigma; -a, phi, s - pi): its band is the one at -mu.
    """
    if crest is CrestBranch.MINIMUM:
        params, s = replace(params, a01=-params.a01), s - math.pi
    low, above, below = _per_action(params, I, _lone_labels)[0].reshape(-1, 3).T
    past = np.mod(phi - I * s - low, TWO_PI)
    return (above < past) & (past < below)


def _bisect(xs, rising: float, a, I, phi, s) -> tuple[np.ndarray, np.ndarray]:
    """The sample cell [xs[j], xs[j + 1]] where c changes sign, for segments
    whose c changes sign once over the samples xs: from below zero to at
    least zero where rising is 1, from above to at most zero where it is -1.

    Bisection on the sample index, ceil(log2(cells)) values of c per
    segment: _crest_many on arrays from _LOCKSTEP_MIN segments, below that a
    _crest_fn loop (the same floats).
    """
    if len(a) < _LOCKSTEP_MIN:
        cells = []
        for args in zip(a.tolist(), phi.tolist(), I.tolist(), s.tolist()):
            j, k = 0, len(xs) - 1
            while k - j > 1:
                mid = (j + k) // 2
                if rising * _crest_fn(xs.item(mid), *args) < 0.0:
                    j = mid
                else:
                    k = mid
            cells.append(j)
        j = np.array(cells, dtype=int)
    else:
        j, k = np.zeros(len(a), dtype=int), np.full(len(a), len(xs) - 1)
        for _ in range((len(xs) - 2).bit_length()):
            mid = (j + k) // 2
            before = rising * _crest_many(xs[mid], a, phi, I, s) < 0.0
            j, k = np.where(before, mid, j), np.where(before, k, mid)
    return xs[j], xs[j + 1]


def _crossings(a, I, phi, s, crest: CrestBranch, one) -> tuple[np.ndarray, np.ndarray]:
    """(point, sigma) of every crossing of the segments through (I[k], phi[k],
    s[k]) with the crest, a[k] being the crest coefficient: the sigmas in the
    crest window with c(sigma) = 0 (to 1e-12), sorted by point, then sigma.
    one[k] marks the segments that cross exactly once (_one_crossing).

    On the maximum window c(-pi/2) = a sin(.) - 1 < 0 < c(pi/2) while
    |a| < 1, and the signs are reversed on the minimum window; so the
    samples of a segment that crosses once change sign once, and _bisect
    finds that cell: the bracket the scan would refine, so the same root
    (docs/DECISIONS.md).  Every other segment is scanned, _CHUNK at a time in
    reused working arrays: _fill writes c at the window's samples, from sine
    tables to within delta.  Samples with |c| < 2e-3 + delta, a sign change
    or the next one that small are candidates; there c and both neighbours
    are recomputed exactly, and only those floats find the exact scan's
    zeros, brackets and grazing pairs (local |c| minimum below 2e-3 without
    sign change, rescanned finely to keep near-tangency double roots).  A
    _BLOCK's brackets, bisected and scanned, are refined at once, by
    brentq_many, or by a roots.brentq loop below _LOCKSTEP_MIN brackets (same
    floats); brentq returns a bracket end where c is zero, as the scan's
    zero rule would.  Roots with |c| > 1e-12 are dropped, and a root within
    1e-10 of its point's last kept root is merged into it.

    While the crest is horizontal its component through (0, 0) is exactly
    the graph covered by the maximum sigma-window.  Once it turns vertical
    (|mu*alpha| > 1) that window also picks up points of the other
    component, in the cos(psi) < 0 half; those are filtered out, and the
    points left without any admissible root are the holes.
    """
    want_positive = crest is CrestBranch.MAXIMUM
    xs = _scan_samples(crest)
    last = len(xs) - 1
    values = np.empty((min(len(I), _CHUNK), len(xs)))
    flags = np.empty((3, *values.shape), dtype=bool)
    points, sigmas = [], []
    for block in range(0, len(I), _BLOCK):
        ks = np.arange(block, min(block + _BLOCK, len(I)))
        lone = one[ks]
        single, scanned = ks[lone], ks[~lone]
        lo, hi = _bisect(xs, 1.0 if want_positive else -1.0,
                         *(v[single] for v in (a, I, phi, s)))
        # per part: scan zeros, brackets, fine zeros (point, sigma)
        found = [(ks[:0], xs[:0], single, lo, hi, ks[:0], xs[:0])]
        for start in range(0, len(scanned), _CHUNK):
            chunk = scanned[start:start + _CHUNK]
            ca, cI, cphi, cs = (v[chunk] for v in (a, I, phi, s))
            v = values[:len(cs)]
            row, delta = _fill(v, xs, ca, cI, cphi, cs)
            # candidates: a superset of the samples with |c| < 2e-3 or c * c_next < 0
            flag, neg, above = flags[:, :len(cs)]
            np.less(v, 2e-3 + delta, out=flag)
            flag &= np.greater(v, -2e-3 - delta, out=above)
            np.less(v, 0.0, out=neg)
            np.not_equal(neg[:, :-1], neg[:, 1:], out=above[:, :-1])
            above[:, :-1] |= flag[:, 1:]
            flag[:, :-1] |= above[:, :-1]
            r, i = np.divmod(np.flatnonzero(flag), len(xs))
            k = row[r]
            if delta > 0.0:   # table values: c exactly at each candidate and its neighbours
                near = np.stack([np.maximum(i - 1, 0), i, np.minimum(i + 1, last)])
                v[r, near] = _crest_many(xs[near], ca[k], cphi[k], cI[k], cs[k])
            c, c_next = v[r, i], v[r, np.minimum(i + 1, last)]   # last sample: no bracket
            zero = c == 0.0
            cross = c * c_next < 0.0
            point, lo, hi = k[cross], xs[i[cross]], xs[i[cross] + 1]
            fine_point, fine_zero = k[:0], xs[:0]
            # grazing pairs: interior local minima of |c| below a coarse threshold
            small = np.abs(c) < 2e-3
            if small.any():
                c_prev = v[r, np.maximum(i - 1, 0)]
                graze = (small & (i > 0) & (i < last)
                         & (np.abs(c) <= np.abs(c_prev)) & (np.abs(c) <= np.abs(c_next))
                         & (c_prev * c > 0.0) & (c * c_next > 0.0))
                if graze.any():
                    gk, gi = k[graze], i[graze]
                    sub = np.linspace(xs[gi - 1], xs[gi + 1], 257, axis=1)
                    sv = _crest_many(sub, ca[gk, None], cphi[gk, None], cI[gk, None],
                                     cs[gk, None])
                    sr, sj = np.divmod(np.flatnonzero(sv[:, :-1] * sv[:, 1:] < 0.0), 256)
                    point, lo = np.append(point, gk[sr]), np.append(lo, sub[sr, sj])
                    hi = np.append(hi, sub[sr, sj + 1])
                    zr, zj = np.divmod(np.flatnonzero(sv[:, :-1] == 0.0), 256)
                    fine_point, fine_zero = gk[zr], sub[zr, zj]
            found.append((chunk[k[zero]], xs[i[zero]], chunk[point], lo, hi,
                          chunk[fine_point], fine_zero))

        zero_point, zero_sigma, point, lo, hi, fine_point, fine_zero = (
            np.concatenate(parts) for parts in zip(*found))
        args = (a[point], phi[point], I[point], s[point])
        if len(point) >= _LOCKSTEP_MIN:
            roots = brentq_many(_crest_many, lo, hi, args=args, xtol=1e-15)
        else:
            lanes = zip(*(v.tolist() for v in (lo, hi) + args))
            roots = np.array([brentq(_crest_fn, x0, x1, args=tuple(rest), xtol=1e-15)
                              for x0, x1, *rest in lanes])
        ok = np.abs(_crest_many(roots, *args)) <= 1e-12
        if not len(scanned):   # one root per point, in order: none to merge or filter
            points.append(point[ok])
            sigmas.append(roots[ok])
            continue

        # each point's roots in the order found: scan zeros, refined, fine zeros
        point = np.concatenate([zero_point, point[ok], fine_point])
        sigma = np.concatenate([zero_sigma, roots[ok], fine_zero])
        order = np.lexsort((sigma, point))   # stable: equal roots keep that order
        point, sigma = point[order], sigma[order]
        keep = np.ones(len(point), dtype=bool)
        keep[1:] = (point[1:] != point[:-1]) | (sigma[1:] - sigma[:-1] > 1e-10)
        for j in np.flatnonzero(~keep).tolist():   # runs of close roots
            kept = j - 1
            while not keep[kept]:
                kept -= 1
            keep[j] = sigma[j] - sigma[kept] > 1e-10
        point, sigma = point[keep], sigma[keep]
        if (np.abs(a[block:block + _BLOCK]) > 1.0).any():
            cos_psi = np.cos(phi[point] + I[point] * (sigma - s[point]))
            keep = (np.abs(a[point]) <= 1.0) | ((cos_psi > 0.0) == want_positive)
            point, sigma = point[keep], sigma[keep]
        points.append(point)
        sigmas.append(sigma)
    return np.concatenate(points), np.concatenate(sigmas)


def _branch_psi_domains(params: ModelParams, I: float) -> dict[Branch, tuple[tuple[float, float], ...]] | None:
    """psi-interval domains in [0, 2*pi] of the three bijective branches, or
    None if no tangency."""
    info = tangency_points(params, I)
    if info is None:
        return None
    th = lambda psi: theta_of_psi(params, I, psi)
    # theta decreases on [psi1, psi2] and increases on the rest of the period
    # [start, end] that holds it, [0, 2*pi] for mu > 0 and [-pi, pi] for
    # mu < 0; invert the band edges on the increasing pieces
    start = 0.0 if params.mu > 0.0 else -math.pi
    end = start + TWO_PI
    psi_t1 = brentq(lambda p: th(p) - info.theta1, info.psi2, end, xtol=1e-14)
    psi_t2 = brentq(lambda p: th(p) - info.theta2, start, info.psi1, xtol=1e-14)
    domains = {
        Branch.A: ((start, psi_t2), (info.psi2, end)),
        Branch.B: ((start, info.psi1), (psi_t1, end)),
        Branch.C: ((start, psi_t2), (info.psi1, info.psi2), (psi_t1, end)),
    }
    return {branch: _periodic(pieces) for branch, pieces in domains.items()}


def _periodic(pieces: tuple[tuple[float, float], ...]) -> tuple[tuple[float, float], ...]:
    """Intervals of [-pi, 2*pi] as intervals of [0, 2*pi]: negative parts
    move up a period."""
    out = []
    for lo, hi in pieces:
        if lo < 0.0:
            out.append((lo + TWO_PI, min(hi, 0.0) + TWO_PI))
        if hi > 0.0:
            out.append((max(lo, 0.0), hi))
    return tuple(out)


def _primary(params: ModelParams, I, phi, s,
             crest: CrestBranch = CrestBranch.MAXIMUM,
             branch: Branch = Branch.SINGLE):
    """The primary crossing of each segment through (I[k], phi[k], s[k]), the
    anchor's s first reduced into the window (-pi/2, 3*pi/2].

    It is the crossing of minimal |tau| (tau = s - sigma), ties toward the
    smaller tau; off the SINGLE branch, where the action has a tangency band,
    only crossings with psi in that branch's (maximum-crest) psi-domain count,
    so the minimum crest takes SINGLE only, else ValueError.  Returns the
    arrays tau, psi, sigma (NaN where there is no primary crossing) and why:
    _OK, or the reason there is none (_SINGULAR, _MISSES, _OFF_BRANCH).
    _gradient marks an _OK crossing _TANGENT or _EDGE where it has no
    gradient.
    """
    if crest is CrestBranch.MINIMUM and branch is not Branch.SINGLE:
        raise ValueError(f"branch {branch.value} is defined on the maximum crest only")
    I, phi, s = _points(I, phi, _window_s(s))
    a, = _per_action(params, I, crest_coefficient)
    one = _one_crossing(params, I, phi, s, crest)
    point, sigma = _crossings(a, I, phi, s, crest, one)
    tau = s[point] - sigma
    psi = _wrap_angles(phi[point] - I[point] * tau)
    singular = np.abs(np.abs(a) - 1.0) <= SINGULAR_TOL   # crest_orientation's test
    keep = ~singular[point]   # a singular crest's roots are not used
    if branch is not Branch.SINGLE:
        # a lone crossing lies in every branch's psi-domain (docs/DECISIONS.md),
        # and with no tangency (domains None) it serves every label
        kept = np.flatnonzero(keep & ~one[point]).tolist()
        actions = I[point[kept]].tolist()
        domains = {v: _branch_psi_domains(params, v) for v in dict.fromkeys(actions)}   # once each
        for j, v in zip(kept, actions):
            keep[j] = domains[v] is None or in_intervals(psi[j], domains[v][branch], tol=1e-9)
    why = np.full(len(I), _MISSES)
    why[point] = _OFF_BRANCH
    point, tau, psi, sigma = point[keep], tau[keep], psi[keep], sigma[keep]
    order = np.lexsort((tau, np.abs(tau), point))
    ordered = point[order]
    first = np.ones(len(order), dtype=bool)   # each point's first in that order
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    first = order[first]
    k = point[first]
    why[k] = _OK
    why[singular] = _SINGULAR
    out = np.full((3, len(I)), np.nan)
    out[:, k] = tau[first], psi[first], sigma[first]
    return out[0], out[1], out[2], why


def _miss(why: int, I: float, phi: float, s: float, crest: CrestBranch,
          branch: Branch) -> ScatmapError:
    """The error tau_star_full (why from _primary) or grad_reduced_poincare
    (why from _gradient) raises for reason code why at (I, phi, s)."""
    if why == _TANGENT:
        return TangencyPoint(
            f"gradient undefined near tangency: |d theta/d psi| < {_TANGENCY_GUARD}"
        )
    if why == _EDGE:
        return DomainError("slope of horizontal parameterization undefined")
    if why == _SINGULAR:
        return SingularCrest(f"crest is singular at I = {I!r}")
    if why == _MISSES:
        return NoCrossing(
            f"segment through (I={I!r}, phi={phi!r}, s={float(_window_s(s))!r}) "
            f"misses the {crest.value} crest"
        )
    return BranchUnavailable(
        f"no crossing with psi in branch-{branch.value} domain at I={I!r}"
    )


def tau_star_full(params: ModelParams, I: float, phi: float, s: float,
                  crest: CrestBranch = CrestBranch.MAXIMUM,
                  branch: Branch = Branch.SINGLE) -> TauStar:
    """Crossing of the segment through (I, phi, s) with a crest, in segment time.

    The returned tau satisfies the critical-point condition
    I*A10(I)*sin(phi - I*tau) + A01*sin(s - tau) = 0 with residual <= 1e-12,
    and s - tau lies in the window (-pi/2, 3*pi/2].  The anchor's s is first
    reduced into that window, so a point already on a crest reports tau = 0
    regardless of how its time angle was stored.
    """
    tau, psi, sigma, why = _primary(params, I, phi, s, crest, branch)
    if why[0] != _OK:
        raise _miss(int(why[0]), float(I), float(phi), float(s), crest, branch)
    return TauStar(tau=float(tau[0]), psi=float(psi[0]), sigma=float(sigma[0]),
                   crest=crest, branch=branch)


def tau_star(params: ModelParams, I: float, theta: float,
             crest: CrestBranch = CrestBranch.MAXIMUM,
             branch: Branch = Branch.SINGLE) -> TauStar:
    """theta-anchored crossing time: the segment starts at (phi, s) = (theta, 0)."""
    return tau_star_full(params, I, theta, 0.0, crest, branch)


def reduced_poincare(params: ModelParams, I: float, theta: float,
                     crest: CrestBranch = CrestBranch.MAXIMUM,
                     branch: Branch = Branch.SINGLE) -> float:
    """Splitting potential evaluated at the crest crossing of the (I, theta) segment."""
    ts = tau_star(params, I, theta, crest, branch)
    return melnikov_potential(params, I, ts.psi, ts.sigma)


def reduced_poincare_psi(params: ModelParams, I: float, psi: float) -> float:
    """Maximum-crest form A00 + A10(I) cos(psi) + A01 cos(xi(I, psi)); no root-finding."""
    return melnikov_potential(params, I, psi, xi(params, CrestBranch.MAXIMUM, I, psi))


def _grad_at_crossing(params: ModelParams, I, tau, psi):
    """(d/dI, d/dtheta) of the reduced function, model.envelope_gradient, at
    crossings with segment time tau and crest angle psi (scalars or arrays).
    The identity is exact; tests and `scatmap verify` check it against
    finite_diff_grad in every regime.
    """
    a10, a10_deriv = _per_action(params, I, amp_A10, amp_A10_deriv)
    return envelope_gradient(a10, a10_deriv, tau, np.sin(psi), np.cos(psi))


def finite_diff_grad(params: ModelParams, I: float, theta: float,
                     crest: CrestBranch = CrestBranch.MAXIMUM,
                     branch: Branch = Branch.SINGLE) -> tuple[float, float]:
    """Central finite differences (step h = 1e-5) of reduced_poincare; the oracle."""
    h = 1e-5
    f = lambda ii, tt: reduced_poincare(params, ii, tt, crest, branch)
    d_i = (f(I + h, theta) - f(I - h, theta)) / (2.0 * h)
    d_theta = (f(I, theta + h) - f(I, theta - h)) / (2.0 * h)
    return d_i, d_theta


def dtheta_dpsi_at(params: ModelParams, I, psi,
                   crest: CrestBranch = CrestBranch.MAXIMUM):
    """d theta / d psi = 1 - I * d xi/d psi at each (I, psi), scalars or
    arrays; vanishes on the tangency locus.

    d xi_max/d psi = -c cos(psi) / sqrt(1 - (c sin(psi))^2), c = mu*alpha(I),
    and the minimum-crest slope is its negative.  NaN where
    |c sin(psi)| >= 1, the edge of the horizontal parameterization.
    """
    c, = _per_action(params, I, crest_coefficient)
    u = c * np.sin(psi)
    room = 1.0 - u * u
    slope = -c * np.cos(psi) / np.sqrt(np.where(room > 0.0, room, np.nan))
    if crest is CrestBranch.MINIMUM:
        slope = -slope
    return 1.0 - I * slope


def _gradient(params: ModelParams, I, phi, s,
              crest: CrestBranch = CrestBranch.MAXIMUM,
              branch: Branch = Branch.SINGLE):
    """The reduced function's gradient (d/dI, d/dphi) at the primary crossing
    of each segment through (I[k], phi[k], s[k]), and why: _primary's code,
    or at a crossing _TANGENT (|d theta/d psi| < _TANGENCY_GUARD) or _EDGE
    (d theta/d psi undefined).  The gradient is NaN only where there is no
    primary crossing; each caller decides which codes it keeps.
    """
    I, phi, s = _points(I, phi, s)
    tau, psi, _, why = _primary(params, I, phi, s, crest, branch)
    slope = np.abs(dtheta_dpsi_at(params, I, psi, crest))
    crossing = why == _OK
    why[crossing & np.isnan(slope)] = _EDGE
    why[crossing & (slope < _TANGENCY_GUARD)] = _TANGENT
    return *_grad_at_crossing(params, I, tau, psi), why


def grad_reduced_poincare(params: ModelParams, I: float, theta: float,
                          crest: CrestBranch = CrestBranch.MAXIMUM,
                          branch: Branch = Branch.SINGLE) -> tuple[float, float]:
    """Gradient (d/dI, d/dtheta) of the reduced Poincare function.

    Raises tau_star's error where there is no primary crossing, TangencyPoint
    near the tangency locus (where the crossing time ceases to be
    differentiable) and DomainError on the crest window's edge.
    """
    d_i, d_theta, why = _gradient(params, I, theta, 0.0, crest, branch)
    if why[0] != _OK:
        raise _miss(int(why[0]), float(I), float(theta), 0.0, crest, branch)
    return float(d_i[0]), float(d_theta[0])


def scattering_step(params: ModelParams, pt: ReducedPoint,
                    crest: CrestBranch = CrestBranch.MAXIMUM,
                    branch: Branch = Branch.SINGLE) -> ReducedPoint:
    """One application of the truncated scattering map.

    (I, theta) -> (I + eps * dL/dtheta, theta - eps * dL/dI); exact up to the
    dropped second-order remainder.
    """
    d_i, d_theta = grad_reduced_poincare(params, pt.I, pt.theta, crest, branch)
    return ReducedPoint(I=pt.I + params.eps * d_theta,
                        theta=pt.theta - params.eps * d_i)


def scattering_branches(params: ModelParams, I: float, theta: float) -> BranchSet:
    """Which branches of the maximum crest exist at (I, theta), with their psi-domains."""
    orientation = crest_orientation(params, I)
    if orientation is Orientation.SINGULAR:
        return BranchSet(available=(), domains={}, tangency=None)
    if orientation is Orientation.VERTICAL:
        # vertical crest: a crossing may or may not exist at this theta
        why = _primary(params, I, theta, 0.0)[3]
        avail = (Branch.SINGLE,) if why[0] == _OK else ()
        return BranchSet(available=avail, domains={}, tangency=None)
    info = tangency_points(params, I)
    if info is None:
        return BranchSet(available=(Branch.SINGLE,), domains={}, tangency=None)
    domains = _branch_psi_domains(params, I)
    tol = 1e-12
    if wrap_angle(theta - info.theta2 + tol) <= info.theta1 - info.theta2 + 2 * tol:
        # inside (or on the edge of) the tangency band: three branches
        return BranchSet(available=(Branch.A, Branch.B, Branch.C),
                         domains=domains, tangency=info)
    return BranchSet(available=(Branch.SINGLE,), domains=domains, tangency=info)


@dataclass(frozen=True)
class SymmetryReport:
    grid_shape: tuple[int, int]
    max_discrepancy_I: float
    max_discrepancy_phi: float

    @property
    def max_discrepancy(self) -> float:
        return max(self.max_discrepancy_I, self.max_discrepancy_phi)


def symmetry_check_mu(params: ModelParams, n: int = 20,
                      I_range: tuple[float, float] = (0.1, 2.0)) -> SymmetryReport:
    """Verify that the minimum-crest map at s = pi equals the maximum-crest
    map at s = 0 with the sign of mu flipped (via a01 -> -a01).

    Returns the maximum componentwise discrepancy over an n-by-n grid; the
    truncated map in (I, phi, s) coordinates (s a parameter) is
    (I + eps*dL/dphi, phi - eps*dL/dI) at the crossing of each side.
    """
    flipped = replace(params, a01=-params.a01)
    I = np.repeat(np.linspace(I_range[0], I_range[1], n), n)
    phi = np.tile(np.linspace(0.0, TWO_PI, n, endpoint=False), n)
    sides = ((params, math.pi, CrestBranch.MINIMUM), (flipped, 0.0, CrestBranch.MAXIMUM))
    grads = [_gradient(p, I, phi, s, crest) for p, s, crest in sides]
    missing = np.isnan([d_i for d_i, _, _ in grads])   # (side, point): no crossing
    if missing.any():
        # the first such point, the minimum-crest side first
        k = int(np.argmax(missing.any(axis=0)))
        side = int(np.argmax(missing[:, k]))
        (_, s, crest), why = sides[side], grads[side][2]
        raise _miss(int(why[k]), float(I[k]), float(phi[k]), s, crest, Branch.SINGLE)
    (left_i, left_phi), (right_i, right_phi) = (
        (I + p.eps * d_phi, phi - p.eps * d_i)
        for (p, _, _), (d_i, d_phi, _) in zip(sides, grads))
    return SymmetryReport(grid_shape=(n, n),
                          max_discrepancy_I=float(np.abs(left_i - right_i).max(initial=0.0)),
                          max_discrepancy_phi=float(np.abs(left_phi - right_phi).max(initial=0.0)))


def flow_reduced_hamiltonian(params: ModelParams, pt: ReducedPoint, t: float) -> ReducedPoint:
    """Flow of dI/dt = dL/dtheta, dtheta/dt = -dL/dI for time t, L the
    reduced function of the maximum crest's single map.

    The truncated scattering map is the Euler step of this system, so n map
    iterates track this flow at time n*eps.  Integrated by DOP853 at rtol =
    1e-11, atol = 1e-13, it conserves the reduced function to ~1e-9 per unit
    time.  Where the flow leaves the branch domain the map's own error
    propagates (NoCrossing in a hole); a failed integration raises
    ScatmapError.
    """
    if t == 0.0:
        return pt
    from scipy.integrate import solve_ivp  # SciPy only where a flow is integrated

    def rhs(_t, y):
        d_i, d_theta = grad_reduced_poincare(params, y[0], y[1])
        return [d_theta, -d_i]

    sol = solve_ivp(rhs, (0.0, t), [pt.I, pt.theta], method="DOP853",
                    rtol=1e-11, atol=1e-13, dense_output=False)
    if not sol.success:
        raise ScatmapError(f"reduced flow integration failed: {sol.message}")
    return ReducedPoint(I=float(sol.y[0, -1]), theta=float(sol.y[1, -1]))
