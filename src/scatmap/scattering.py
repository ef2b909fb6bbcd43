"""Crossing times, reduced Poincare functions and the truncated scattering map.

A torus segment through (I, theta) is parameterized by the time-angle
sigma in (-pi/2, 3*pi/2]; it crosses the maximum crest where

    c(sigma) = mu*alpha_signed(I)*sin(theta + I*sigma) + sin(sigma) = 0

with cos(sigma) >= 0 (the minimum crest takes cos(sigma) <= 0).  The crossing
with smallest |tau| (tau = -sigma for the theta-anchored segment) defines the
primary map; inside a tangency band three crossings coexist and are told
apart by which psi-interval (branch A/B/C) they fall in.

One function, _primary, finds the primary crossing of many points at once,
on one crossing kernel (_crossings), and every caller reads it:
tau_star_full is a batch of one, and the bulk callers (the portrait grid,
the error-bound constants, the admissible-window scan, the mu-flip symmetry
check) pass arrays.  _gradient takes the gradient there the same way:
grad_reduced_poincare (hence the scattering map) is a batch of one.
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
    melnikov_potential,
    wrap_angle,
)
from .roots import brentq, brentq_many

# sigma sampling step for the crossing scan (half-window pi is split in 200)
_SCAN_STEP = math.pi / 200.0
# points the crossing kernel scans at once; bounds its scan arrays (410 kB
# of floats, 3 x 52 kB of flags) and sine tables (3.2 kB per action)
_CHUNK = 256
# points whose brackets the kernel refines in one call: a 400 x 400 grid's
# refinement takes 0.30 s in 1,024-point calls, 0.67 s in 256-point ones
_BLOCK = 4 * _CHUNK
# brackets from which roots.brentq_many beats a roots.brentq loop: at 1-64 it
# costs 270-740 us against 6-530 us for the loop (2-core x86-64 VM, NumPy 2.4)
_LOCKSTEP_MIN = 64
# points per action from which _fill uses sine tables: at 16 as fast as sines,
# at 64 0.2-0.4 and at 1-2 1.3-4.5 times their time (2-core x86-64, NumPy 2.4)
_TABLE_MIN = 16
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
    out = []
    for form in forms:
        value = {v: form(params, v) for v in set(actions)}
        out.append(np.array([value[v] for v in actions]).reshape(I.shape))
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


def _crossings(a, I, phi, s, crest: CrestBranch) -> tuple[np.ndarray, np.ndarray]:
    """(point, sigma) of every crossing of the segments through (I[k], phi[k],
    s[k]) with the crest, a[k] being the crest coefficient: the sigmas in the
    crest window with c(sigma) = 0 (to 1e-12), sorted by point, then sigma.

    Points are scanned _CHUNK at a time in reused working arrays: _fill
    writes c at the window's samples, from sine tables to within delta.
    Samples with |c| < 2e-3 + delta, a sign change or the next one that small
    are candidates; there c and both neighbours are recomputed exactly, and
    only those floats find the exact scan's zeros, brackets and grazing pairs
    (local |c| minimum below 2e-3 without sign change, rescanned finely to
    keep near-tangency double roots).  A _BLOCK's brackets are refined at
    once, by roots.brentq_many, or by a roots.brentq loop below _LOCKSTEP_MIN
    brackets (same floats).  Roots with |c| > 1e-12 are dropped, and a root
    within 1e-10 of its point's last kept root is merged into it.

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
        found = []   # per chunk: scan zeros, brackets, fine zeros (point, sigma)
        for start in range(block, min(block + _BLOCK, len(I)), _CHUNK):
            ca, cI, cphi, cs = (v[start:start + _CHUNK] for v in (a, I, phi, s))
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
            found.append((k[zero] + start, xs[i[zero]], point + start, lo, hi,
                          fine_point + start, fine_zero))

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
    """psi-interval domains of the three bijective branches, or None if no tangency."""
    info = tangency_points(params, I)
    if info is None:
        return None
    th = lambda psi: theta_of_psi(params, I, psi)
    # theta is increasing on [0, psi1] and on [psi2, 2*pi]; invert the band edges
    psi_t1 = brentq(lambda p: th(p) - info.theta1, info.psi2, TWO_PI, xtol=1e-14)
    psi_t2 = brentq(lambda p: th(p) - info.theta2, 0.0, info.psi1, xtol=1e-14)
    return {
        Branch.A: ((0.0, psi_t2), (info.psi2, TWO_PI)),
        Branch.B: ((0.0, info.psi1), (psi_t1, TWO_PI)),
        Branch.C: ((0.0, psi_t2), (info.psi1, info.psi2), (psi_t1, TWO_PI)),
    }


def _primary(params: ModelParams, I, phi, s,
             crest: CrestBranch = CrestBranch.MAXIMUM,
             branch: Branch = Branch.SINGLE):
    """The primary crossing of each segment through (I[k], phi[k], s[k]), the
    anchor's s first reduced into the window (-pi/2, 3*pi/2].

    It is the crossing of minimal |tau| (tau = s - sigma), ties toward the
    smaller tau; off the SINGLE branch, where the action has a tangency band,
    only crossings with psi in that branch's psi-domain count.  Returns the
    arrays tau, psi, sigma (NaN where there is no primary crossing) and why:
    _OK, or the reason there is none (_SINGULAR, _MISSES, _OFF_BRANCH).
    _gradient marks an _OK crossing _TANGENT or _EDGE where it has no
    gradient.
    """
    I, phi, s = _points(I, phi, _window_s(s))
    a, = _per_action(params, I, crest_coefficient)
    point, sigma = _crossings(a, I, phi, s, crest)
    tau = s[point] - sigma
    psi = _wrap_angles(phi[point] - I[point] * tau)
    singular = np.abs(np.abs(a) - 1.0) <= SINGULAR_TOL   # crest_orientation's test
    keep = ~singular[point]   # a singular crest's roots are not used
    if branch is not Branch.SINGLE:
        # with no tangency (domains None) the one crossing serves every label
        kept = np.flatnonzero(keep).tolist()
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


def reduced_poincare_psi(params: ModelParams, I: float, psi: float,
                         crest: CrestBranch = CrestBranch.MAXIMUM) -> float:
    """Crest-angle form A00 + A10(I) cos(psi) + A01 cos(xi(I, psi)); no root-finding."""
    return melnikov_potential(params, I, psi, xi(params, crest, I, psi))


def _grad_at_crossing(params: ModelParams, I, tau, psi):
    """(d/dI, d/dtheta) of the reduced function from the envelope identity,
    at crossings with segment time tau and crest angle psi (scalars or
    arrays).

    The crossing condition kills every d tau/d(I, theta) term, leaving
      d/dtheta = -A10(I) sin(psi),
      d/dI     =  A10'(I) cos(psi) + tau * A10(I) * sin(psi).
    The identity is exact; tests and `scatmap verify` check it against
    finite_diff_grad in every regime.
    """
    a10, a10_deriv = _per_action(params, I, amp_A10, amp_A10_deriv)
    sin_psi = np.sin(psi)
    return a10_deriv * np.cos(psi) + tau * a10 * sin_psi, -a10 * sin_psi


def finite_diff_grad(params: ModelParams, I: float, theta: float,
                     crest: CrestBranch = CrestBranch.MAXIMUM,
                     branch: Branch = Branch.SINGLE,
                     h: float = 1e-5) -> tuple[float, float]:
    """Central finite differences of reduced_poincare; the independent oracle."""
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


def scattering_branches(params: ModelParams, I: float, theta: float,
                        crest: CrestBranch = CrestBranch.MAXIMUM) -> BranchSet:
    """Which scattering branches exist at (I, theta), with their psi-domains."""
    orientation = crest_orientation(params, I)
    if orientation is Orientation.SINGULAR:
        return BranchSet(available=(), domains={}, tangency=None)
    if orientation is Orientation.VERTICAL:
        # vertical crest: a crossing may or may not exist at this theta
        why = _primary(params, I, theta, 0.0, crest)[3]
        avail = (Branch.SINGLE,) if why[0] == _OK else ()
        return BranchSet(available=avail, domains={}, tangency=None)
    info = tangency_points(params, I)
    if info is None:
        return BranchSet(available=(Branch.SINGLE,), domains={}, tangency=None)
    domains = _branch_psi_domains(params, I)
    th = wrap_angle(theta)
    tol = 1e-12
    if info.theta2 - tol <= th <= info.theta1 + tol:
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


def flow_reduced_hamiltonian(params: ModelParams, pt: ReducedPoint, t: float,
                             crest: CrestBranch = CrestBranch.MAXIMUM,
                             branch: Branch = Branch.SINGLE,
                             rtol: float = 1e-11, atol: float = 1e-13) -> ReducedPoint:
    """Flow of dI/dt = dL/dtheta, dtheta/dt = -dL/dI for time t.

    The truncated scattering map is the Euler step of this system, so n map
    iterates track this flow at time n*eps.  Conserves the reduced function
    to ~1e-9 per unit time at the default tolerances.  Where the flow leaves
    the branch domain the map's own error propagates (NoCrossing in a hole);
    a failed integration raises ScatmapError.
    """
    if t == 0.0:
        return pt
    from scipy.integrate import solve_ivp  # SciPy only where a flow is integrated

    def rhs(_t, y):
        d_i, d_theta = grad_reduced_poincare(params, y[0], y[1], crest, branch)
        return [d_theta, -d_i]

    sol = solve_ivp(rhs, (0.0, t), [pt.I, pt.theta], method="DOP853",
                    rtol=rtol, atol=atol, dense_output=False)
    if not sol.success:
        raise ScatmapError(f"reduced flow integration failed: {sol.message}")
    return ReducedPoint(I=float(sol.y[0, -1]), theta=float(sol.y[1, -1]))
