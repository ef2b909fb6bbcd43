"""Crossing times, reduced Poincare functions and the truncated scattering map.

A torus segment through (I, theta) is parameterized by the time-angle
sigma in (-pi/2, 3*pi/2]; it crosses the maximum crest where

    c(sigma) = mu*alpha_signed(I)*sin(theta + I*sigma) + sin(sigma) = 0

with cos(sigma) >= 0 (the minimum crest takes cos(sigma) <= 0).  The crossing
with smallest |tau| (tau = -sigma for the theta-anchored segment) defines the
primary map; inside a tangency band three crossings coexist and are told
apart by which psi-interval (branch A/B/C) they fall in.

One crossing kernel, _crossings, serves every scalar-path caller and takes
many points at once: tau_star_full is a batch of one, and the bulk callers
(the error-bound constants, the admissible-window scan, the mu-flip
symmetry check) make one call each.  The portrait grid (gridkernels) keeps
its own coarser scan.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .crests import (
    CrestBranch,
    TangencyInfo,
    dxi_max_dpsi,
    tangency_points,
    theta_of_psi,
)
from .errors import (
    BranchUnavailable,
    DomainExit,
    NoCrossing,
    ScatmapError,
    SingularCrest,
    TangencyPoint,
)
from .highways import in_intervals
from .model import (
    TWO_PI,
    ModelParams,
    amp_A00,
    amp_A01,
    amp_A10,
    amp_A10_deriv,
    crest_coefficient,
    wrap_angle,
)
from .roots import brentq

# sigma sampling step for the crossing scan (half-window pi is split in 200)
_SCAN_STEP = math.pi / 200.0
# points the crossing kernel scans at once; bounds its scan arrays (50 kB)
_CHUNK = 32
# reject gradients closer to a tangency than this in |d theta / d psi|
_TANGENCY_GUARD = 1e-6


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
    """c(sigma) of one segment; roots.brentq refines every root with it."""
    return a * math.sin(phi + I * (sig - s)) + math.sin(sig)


def _crossings(params: ModelParams, I, phi, s,
               crest: CrestBranch) -> Iterator[list[float]]:
    """Every sigma in the crest window with c(sigma) = 0, tolerance 1e-12,
    for each point (I[k], phi[k], s[k]) of the arrays; the one crossing kernel.

    Yields each point's sorted roots in turn.  The coarse scan runs with
    numpy over _CHUNK points at a time, and the next chunk is scanned only
    once this one is consumed, so nothing is held for all points at once.
    Each bracket is refined by Brent's method on the scalar c (roots.brentq,
    which gives SciPy's floats).  Cells holding a grazing pair (local |c|
    minimum without sign change) are rescanned finely so that near-tangency
    double roots are not dropped.

    While the crest is horizontal its component through (0, 0) is exactly
    the graph covered by the maximum sigma-window.  Once it turns vertical
    (|mu*alpha| > 1) that window also picks up points of the other
    component, which sits in the cos(psi) < 0 half; those are filtered
    out, and the points left without any admissible root are the holes.
    """
    I, phi, s = _points(I, phi, s)
    lo, hi = _sigma_window(crest)
    n = max(8, int(math.ceil((hi - lo) / _SCAN_STEP)))
    xs = np.linspace(lo, hi, n + 1)
    coeff: dict[float, float] = {}   # crest coefficient of each distinct I
    for start in range(0, len(I), _CHUNK):
        part = slice(start, start + _CHUNK)
        actions = I[part].tolist()
        for v in actions:
            if v not in coeff:
                coeff[v] = crest_coefficient(params, v)
        a = np.array([coeff[v] for v in actions])
        yield from _crossings_chunk(a, I[part], phi[part], s[part], xs, crest)


def _points(I, phi, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalars or 1-D arrays broadcast to three 1-D float arrays (views)."""
    return tuple(np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                       for v in (I, phi, s))))


def _crossings_chunk(a, I, phi, s, xs, crest: CrestBranch) -> list[list[float]]:
    """_crossings for one chunk of points; a holds each point's crest coefficient."""
    def scan(k, x):
        # c(x) for the points k, with the operation order of _crest_fn,
        # in place so that a chunk holds one scan-sized array at a time
        c = x - s[k, None]
        c *= I[k, None]
        c += phi[k, None]
        np.sin(c, out=c)
        c *= a[k, None]
        c += np.sin(x)
        return c

    every = np.arange(len(I))
    vs = scan(every, xs[None, :])
    args = list(zip(a.tolist(), phi.tolist(), I.tolist(), s.tolist()))
    roots: list[list[float]] = [[] for _ in args]

    def refine(k: int, x0: float, x1: float):
        r = brentq(_crest_fn, x0, x1, args=args[k], xtol=1e-15)
        if abs(_crest_fn(r, *args[k])) <= 1e-12:
            roots[k].append(r)

    for k, i in zip(*np.nonzero(vs == 0.0)):
        roots[k].append(xs[i])
    for k, i in zip(*np.nonzero(vs[:, :-1] * vs[:, 1:] < 0.0)):
        refine(k, xs[i], xs[i + 1])

    # grazing pairs: interior local minima of |c| below a coarse threshold
    # (the mask is built term by term to hold one float temporary at a time)
    absv = np.abs(vs)
    inner, abs_inner = vs[:, 1:-1], absv[:, 1:-1]
    graze = abs_inner < 2e-3
    graze &= abs_inner <= absv[:, :-2]
    graze &= abs_inner <= absv[:, 2:]
    graze &= vs[:, :-2] * inner > 0.0
    graze &= inner * vs[:, 2:] > 0.0
    gk, gi = np.nonzero(graze)
    if gk.size:
        sub = np.linspace(xs[gi], xs[gi + 2], 257, axis=1)
        sv = scan(gk, sub)
        for r, j in zip(*np.nonzero(sv[:, :-1] * sv[:, 1:] < 0.0)):
            refine(gk[r], sub[r, j], sub[r, j + 1])
        for r, j in zip(*np.nonzero(sv[:, :-1] == 0.0)):
            roots[gk[r]].append(sub[r, j])

    want_positive = crest is CrestBranch.MAXIMUM
    for k, (ak, phik, Ik, sk) in enumerate(args):
        found = sorted(roots[k])
        dedup: list[float] = []
        for r in found:
            if not dedup or abs(r - dedup[-1]) > 1e-10:
                dedup.append(r)
        if abs(ak) > 1.0:
            dedup = [r for r in dedup
                     if (math.cos(phik + Ik * (r - sk)) > 0.0) == want_positive]
        roots[k] = dedup
    return roots


@lru_cache(maxsize=4096)
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


def _is_singular(params: ModelParams, I: float) -> bool:
    return abs(abs(crest_coefficient(params, I)) - 1.0) <= 1e-12


def _select_crossing(params: ModelParams, I: float, phi: float, s: float,
                     sigmas: list[float], branch: Branch) -> float:
    """Pick one crossing: minimal |tau| for the primary branch, else by psi-domain."""
    if branch is Branch.SINGLE:
        # tau = s - sigma; ties broken toward the smaller tau
        return min(sigmas, key=lambda sig: (abs(s - sig), s - sig))
    domains = _branch_psi_domains(params, I)
    if domains is None:
        # no tangency: the unique crossing serves every branch label
        return min(sigmas, key=lambda sig: (abs(s - sig), s - sig))
    candidates = [sig for sig in sigmas
                  if in_intervals(wrap_angle(phi + I * (sig - s)), domains[branch],
                                  tol=1e-9)]
    if not candidates:
        raise BranchUnavailable(
            f"no crossing with psi in branch-{branch.value} domain at I={I!r}"
        )
    return min(candidates, key=lambda sig: (abs(s - sig), s - sig))


def _tau_stars(params: ModelParams, I, phi, s,
               crest: CrestBranch = CrestBranch.MAXIMUM,
               branch: Branch = Branch.SINGLE) -> Iterator[TauStar | ScatmapError]:
    """tau_star_full at each point (I[k], phi[k], s[k]) in turn, from one
    kernel call; where tau_star_full would raise, the exception is yielded.
    """
    # reduce each anchor's s into the window (-pi/2, 3*pi/2]
    s = [v - TWO_PI if v > 1.5 * math.pi else v
         for v in map(wrap_angle, np.atleast_1d(np.asarray(s, dtype=float)).tolist())]
    I, phi, s = _points(I, phi, s)
    # the kernel also scans singular points; their roots are not used
    for k, sigmas in enumerate(_crossings(params, I, phi, s, crest)):
        Ik, phik, sk = float(I[k]), float(phi[k]), float(s[k])
        if _is_singular(params, Ik):
            yield SingularCrest(f"crest is singular at I = {Ik!r}")
            continue
        if not sigmas:
            yield NoCrossing(
                f"segment through (I={Ik!r}, phi={phik!r}, s={sk!r}) misses the "
                f"{crest.value} crest"
            )
            continue
        try:
            sig = _select_crossing(params, Ik, phik, sk, sigmas, branch)
        except BranchUnavailable as exc:
            yield exc
            continue
        tau = sk - sig
        yield TauStar(tau=tau, psi=wrap_angle(phik - Ik * tau), sigma=sig,
                      crest=crest, branch=branch)


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
    ts, = _tau_stars(params, I, phi, s, crest, branch)
    if isinstance(ts, ScatmapError):
        raise ts
    return ts


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
    return (amp_A00(params) + amp_A10(params, I) * math.cos(ts.psi)
            + amp_A01(params) * math.cos(ts.sigma))


def reduced_poincare_psi(params: ModelParams, I: float, psi: float,
                         crest: CrestBranch = CrestBranch.MAXIMUM) -> float:
    """Crest-angle form A00 + A10(I) cos(psi) + A01 cos(xi(I, psi)); no root-finding."""
    from .crests import xi  # local import to keep module init cheap
    x = xi(params, crest, I, psi)
    return (amp_A00(params) + amp_A10(params, I) * math.cos(psi)
            + amp_A01(params) * math.cos(x))


def _grad_at_crossing(params: ModelParams, I: float, ts: TauStar) -> tuple[float, float]:
    """(d/dI, d/dtheta) of the reduced function from the envelope identity.

    The crossing condition kills every d tau/d(I, theta) term, leaving
      d/dtheta = -A10(I) sin(psi),
      d/dI     =  A10'(I) cos(psi) + tau * A10(I) * sin(psi).
    The identity is exact; tests and `scatmap verify` check it against
    finite_diff_grad in every regime.
    """
    a10 = amp_A10(params, I)
    sin_psi = math.sin(ts.psi)
    d_theta = -a10 * sin_psi
    d_i = amp_A10_deriv(params, I) * math.cos(ts.psi) + ts.tau * a10 * sin_psi
    return d_i, d_theta


def finite_diff_grad(params: ModelParams, I: float, theta: float,
                     crest: CrestBranch = CrestBranch.MAXIMUM,
                     branch: Branch = Branch.SINGLE,
                     h: float = 1e-5) -> tuple[float, float]:
    """Central finite differences of reduced_poincare; the independent oracle."""
    f = lambda ii, tt: reduced_poincare(params, ii, tt, crest, branch)
    d_i = (f(I + h, theta) - f(I - h, theta)) / (2.0 * h)
    d_theta = (f(I, theta + h) - f(I, theta - h)) / (2.0 * h)
    return d_i, d_theta


def dtheta_dpsi_at(params: ModelParams, I: float, psi: float,
                   crest: CrestBranch = CrestBranch.MAXIMUM) -> float:
    """d theta / d psi = 1 - I * d xi/d psi; vanishes on the tangency locus.

    The minimum-crest slope is the negative of the maximum-crest one.
    """
    slope = dxi_max_dpsi(params, I, psi)
    if crest is CrestBranch.MINIMUM:
        slope = -slope
    return 1.0 - I * slope


def grad_reduced_poincare(params: ModelParams, I: float, theta: float,
                          crest: CrestBranch = CrestBranch.MAXIMUM,
                          branch: Branch = Branch.SINGLE) -> tuple[float, float]:
    """Gradient (d/dI, d/dtheta) of the reduced Poincare function.

    Raises TangencyPoint when the crossing sits too close to the tangency
    locus, where the crossing time ceases to be differentiable.
    """
    ts = tau_star(params, I, theta, crest, branch)
    _check_tangency(params, I, ts.psi, crest)
    return _grad_at_crossing(params, I, ts)


def _check_tangency(params: ModelParams, I: float, psi: float,
                    crest: CrestBranch = CrestBranch.MAXIMUM):
    if abs(dtheta_dpsi_at(params, I, psi, crest)) < _TANGENCY_GUARD:
        raise TangencyPoint(
            f"gradient undefined near tangency: |d theta/d psi| < {_TANGENCY_GUARD}"
        )


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
    coeff = abs(crest_coefficient(params, I))
    if abs(coeff - 1.0) <= 1e-12:
        return BranchSet(available=(), domains={}, tangency=None)
    info = tangency_points(params, I)
    if coeff > 1.0:
        # vertical crest: a crossing may or may not exist at this theta
        sigmas, = _crossings(params, I, theta, 0.0, crest)
        avail = (Branch.SINGLE,) if sigmas else ()
        return BranchSet(available=avail, domains={}, tangency=None)
    if info is None:
        return BranchSet(available=(Branch.SINGLE,), domains={}, tangency=None)
    domains = dict(_branch_psi_domains(params, I))  # copy: cache stays pristine
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
    left = _tau_stars(params, I, phi, math.pi, CrestBranch.MINIMUM)
    right = _tau_stars(flipped, I, phi, 0.0, CrestBranch.MAXIMUM)
    max_di = 0.0
    max_dphi = 0.0
    for Ik, phik, ts_left, ts_right in zip(I.tolist(), phi.tolist(), left, right):
        steps = []
        for p, ts in ((params, ts_left), (flipped, ts_right)):
            if isinstance(ts, ScatmapError):
                raise ts
            d_i, d_phi = _grad_at_crossing(p, Ik, ts)
            steps.append((Ik + p.eps * d_phi, phik - p.eps * d_i))
        (left_i, left_phi), (right_i, right_phi) = steps
        max_di = max(max_di, abs(left_i - right_i))
        max_dphi = max(max_dphi, abs(left_phi - right_phi))
    return SymmetryReport(grid_shape=(n, n), max_discrepancy_I=max_di,
                          max_discrepancy_phi=max_dphi)


def flow_reduced_hamiltonian(params: ModelParams, pt: ReducedPoint, t: float,
                             crest: CrestBranch = CrestBranch.MAXIMUM,
                             branch: Branch = Branch.SINGLE,
                             rtol: float = 1e-11, atol: float = 1e-13) -> ReducedPoint:
    """Flow of dI/dt = dL/dtheta, dtheta/dt = -dL/dI for time t.

    The truncated scattering map is the Euler step of this system, so n map
    iterates track this flow at time n*eps.  Conserves the reduced function
    to ~1e-9 per unit time at the default tolerances.
    """
    if t == 0.0:
        return pt
    from scipy.integrate import solve_ivp  # SciPy only where a flow is integrated

    def rhs(_t, y):
        d_i, d_theta = grad_reduced_poincare(params, y[0], y[1], crest, branch)
        return [d_theta, -d_i]

    try:
        sol = solve_ivp(rhs, (0.0, t), [pt.I, pt.theta], method="DOP853",
                        rtol=rtol, atol=atol, dense_output=False)
    except ScatmapError as exc:
        raise DomainExit(f"reduced flow left its branch domain: {exc}") from exc
    if not sol.success:
        raise DomainExit(f"reduced flow integration failed: {sol.message}")
    return ReducedPoint(I=float(sol.y[0, -1]), theta=float(sol.y[1, -1]))
