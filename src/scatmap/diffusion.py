"""Pseudo-orbits along highways and the diffusion-time estimate.

A drift itinerary alternates bursts of at most N_ss truncated scattering
steps with rotor ("inner") legs that re-aim the torus angle, either back
onto the highway or into the admissible window of the branch-A map inside
a tangency band.  The total model time decomposes as

    T_d = N_s * T_h + floor(N_s / N_ss) * T_i,

with T_h the homoclinic travel time per scattering step and T_i the
ergodization time of the rotor, bounded through the Dirichlet box principle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .crests import (
    Orientation,
    alpha_max,
    critical_actions,
    crest_orientation,
    tangency_points,
    theta_of_psi,
)
from .errors import BranchUnavailable, NotInDomain, ScatmapError
from .highways import Side, highway_psi
from .model import (
    TWO_PI,
    ModelParams,
    alpha,
    wrap_angle,
    wrap_signed,
)
from .scattering import (
    Branch,
    CrestBranch,
    ReducedPoint,
    _OK,
    _gradient,
    _primary,
    scattering_step,
)

# inner legs cannot steer theta when the rotor barely turns
_FROZEN_ACTION = 1e-3
# fraction of an eps step below which a leg counts as stalled
_STALL_FRACTION = 1e-3

ALPHA_PRIME_BOUND = 1.465  # rounded bound on |alpha'|; enters the C constant
_K2 = 1.0  # placeholder for the map's unknown second-order remainder constant


class Mechanism(Enum):
    SCATTERING = "scattering"
    INNER = "inner"


@dataclass(frozen=True)
class OrbitLeg:
    mechanism: Mechanism
    points: tuple[ReducedPoint, ...]
    model_time: float
    deviation_start: float
    deviation_end: float
    error_bound: float


@dataclass(frozen=True)
class PseudoOrbit:
    legs: tuple[OrbitLeg, ...]
    c: float
    a: float
    steps_per_burst: int

    @property
    def points(self) -> list[ReducedPoint]:
        out: list[ReducedPoint] = []
        for leg in self.legs:
            out.extend(leg.points if not out else leg.points[1:])
        return out

    @property
    def final_point(self) -> ReducedPoint:
        return self.legs[-1].points[-1]

    @property
    def total_model_time(self) -> float:
        return sum(leg.model_time for leg in self.legs)


@dataclass(frozen=True)
class DiffusionTimeEstimate:
    Ts: float
    Ns: int
    Nss: int
    Th: float
    Ti: float
    C: float
    Td: float
    delta: float
    asymptotic: float
    ratio: float
    inner_share: float


def inner_ergodization_time(I: float, eps: float, a: float) -> tuple[int, float]:
    """Smallest k with |2*pi*k*I - 2*pi*l| < eps^a, and T_i = 2*pi*k.

    The Dirichlet box principle guarantees k <= N = ceil(2*pi/eps^a - 1);
    a brute scan up to N realizes it.  Raises ScatmapError when the rotor
    is too slow to return (|I| <= eps).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    tol = eps**a
    if tol >= TWO_PI:
        raise ValueError("eps^a must be below 2*pi")
    if abs(I) <= eps:
        raise ScatmapError(f"|I| = {abs(I)!r} <= eps; rotor effectively frozen")
    k, _ = _dirichlet_base(I, tol)
    return k, TWO_PI * k


def _dirichlet_base(I: float, tol: float) -> tuple[int, float]:
    """Smallest k <= N with the signed shift delta = 2*pi*k*I mod 2*pi, |delta| < tol."""
    n_max = math.ceil(TWO_PI / tol - 1.0)
    for k in range(1, n_max + 1):
        d = math.remainder(TWO_PI * k * I, TWO_PI)
        if abs(d) < tol:
            return k, d
    raise ScatmapError(f"no Dirichlet return within N = {n_max}")


def _inner_retarget(I: float, theta: float, theta_target: float,
                    tol: float) -> tuple[float, float]:
    """Rotor time t = 2*pi*k*m landing theta within ~tol/2 of the target.

    Uses the ladder of multiples of the base Dirichlet return: each block of
    k rotor periods shifts theta by the base residue delta, so the circle is
    swept in |delta|-sized rungs.
    """
    k, delta = _dirichlet_base(I, tol)
    gap = wrap_signed(theta_target - theta)
    if delta == 0.0:
        # perfectly periodic rotor angle: theta unreachable, stay put
        return 0.0, theta
    m = round(gap / delta)
    if m <= 0:
        # sweep the other way around the circle
        m = round((gap + math.copysign(TWO_PI, delta)) / delta)
        m = max(m, 0)
    t = TWO_PI * k * m
    return t, wrap_angle(theta + m * delta)


@lru_cache(maxsize=128)
def _region_constants(params: ModelParams, I_lo: float, I_hi: float,
                      grid_n: int = 25) -> tuple[float, float]:
    """(L, K): max gradient norm and max Hessian norm over a phase-space grid.

    Each grid cell takes the gradient at five points (the cell and its
    central-difference stencil), all from one _gradient call.  A cell is
    dropped unless its five reason codes are _OK: a point without a primary
    crossing, within _TANGENCY_GUARD of the tangency locus (_TANGENT) or on
    the crest window's edge (_EDGE) drops it.  K is the spectral norm of the
    central differences, taken for all cells in one batch.
    """
    h = 1e-5
    I = np.repeat(np.linspace(I_lo, I_hi, grid_n), grid_n)
    theta = np.tile(np.linspace(0.0, TWO_PI, grid_n, endpoint=False), grid_n)
    I_pts = np.stack([I, I + h, I - h, I, I], axis=1).ravel()
    th_pts = np.stack([theta, theta, theta, theta + h, theta - h], axis=1).ravel()
    d_i, d_theta, why = _gradient(params, I_pts, th_pts, 0.0)
    grad = np.where((why == _OK)[:, None], np.stack([d_i, d_theta], axis=1), np.nan)
    grad = grad.reshape(-1, 5, 2)
    grad = grad[~np.isnan(grad).any(axis=(1, 2))]   # (cell, stencil point, d/dI or d/dtheta)
    L = max((math.hypot(gi, gt) for gi, gt in grad[:, 0].tolist()), default=0.0)
    hess = np.stack([grad[:, 1] - grad[:, 2], grad[:, 3] - grad[:, 4]], axis=2) / (2 * h)
    return L, float(np.linalg.norm(hess, 2, axis=(1, 2)).max(initial=0.0))


def propagated_error_bound(params: ModelParams, n: int, dev: float,
                           region: tuple[float, float]) -> float:
    """Worst-case drift of n truncated steps from the reduced flow.

        n*eps^2*K2 + (L*eps/2)*((1 + eps*K)^n - 1) + dev*exp(K*eps*n)

    with L, K grid maxima of the gradient and of the variational (Hessian)
    norm over the region.  K2 = _K2 = 1 stands in for the unknown
    second-order remainder constant of the map itself.  A bound beyond the
    float range is returned as inf.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    eps = params.eps
    L, K = _region_constants(params, float(min(region)), float(max(region)))
    try:
        euler = 0.5 * L * eps * ((1.0 + eps * K) ** n - 1.0)
        return n * eps * eps * _K2 + euler + dev * math.exp(K * eps * n)
    except OverflowError:
        return math.inf


def _rising_side(params: ModelParams) -> Side:
    """The lane on which the single map increases I: right for a10 > 0."""
    return Side.RIGHT if params.a10 > 0 else Side.LEFT


def _lane_theta(params: ModelParams, I: float, side: Side) -> float:
    """theta of the lane point at action I; NaN where the lane is undefined."""
    try:
        return theta_of_psi(params, I, highway_psi(params, I, side))
    except NotInDomain:
        return math.nan


def _drift(params: ModelParams, side: Side, c: float, a: float,
           region: tuple[float, float], in_band) -> PseudoOrbit:
    """Scattering bursts from I = region[0] to region[1] (branch A where
    in_band(I), else the single map), each followed by a rotor leg that
    aims theta at the middle of branch A's window or back at the lane.

    A burst ends after ceil(eps^-c) steps, at region[1], on a step that would
    not raise I, or on any ScatmapError from scattering_step.  The lane theta
    and band flag are found once per burst end and carried along: the inner
    leg, its target and the next burst keep the action.
    """
    if not (0.0 < a < c < 1.0):
        raise ValueError("exponents must satisfy 0 < a < c < 1")
    eps = params.eps
    if eps == 0.0:
        raise ScatmapError("eps = 0: the scattering map does not move I")
    I_start, I_end = region
    nss = max(1, math.ceil(eps ** (-c)))
    tol_land = eps**a
    try:
        th_per_step = time_Th(params, max(abs(I_start), abs(I_end), 1e-6))[0]
    except ScatmapError:   # mu*max(alpha) >= 1: the travel-time constant is undefined
        th_per_step = math.nan
    legs: list[OrbitLeg] = []

    def target(I: float, lane: float, band: bool) -> float:
        if band:
            lo, hi = _admissible_window(params, I)
            return 0.5 * (lo + hi)
        if math.isnan(lane):   # highway_psi refused the lane at I
            raise NotInDomain(f"crest not horizontal at I = {I!r}; highway lane undefined")
        return lane

    lane, band = _lane_theta(params, I_start, side), in_band(I_start)
    pt = ReducedPoint(I=I_start, theta=target(I_start, lane, band))
    for _ in range(200_000):
        points = [pt]
        for _ in range(nss):
            try:
                new = scattering_step(params, pt, CrestBranch.MAXIMUM,
                                      Branch.A if band else Branch.SINGLE)
            except ScatmapError:
                break
            if new.I <= pt.I:
                break  # the branch would move I the wrong way; re-aim first
            pt = new
            points.append(pt)
            if pt.I >= I_end:
                break
        n = len(points) - 1
        dev0 = abs(wrap_signed(points[0].theta - lane))
        lane = _lane_theta(params, pt.I, side)
        legs.append(OrbitLeg(
            mechanism=Mechanism.SCATTERING, points=tuple(points),
            model_time=n * th_per_step, deviation_start=dev0,
            deviation_end=abs(wrap_signed(pt.theta - lane)),
            error_bound=propagated_error_bound(
                params, n, dev0 if math.isfinite(dev0) else tol_land, region)))
        if pt.I >= I_end:
            return PseudoOrbit(legs=tuple(legs), c=c, a=a, steps_per_burst=nss)
        gain = pt.I - points[0].I
        if gain <= eps * _STALL_FRACTION:
            raise ScatmapError(f"burst advanced I by {gain!r} at I = {pt.I!r}")
        band = in_band(pt.I)
        theta_target = target(pt.I, lane, band)
        if abs(pt.I) > max(eps, _FROZEN_ACTION):
            # a rotor leg at the fixed action; near I = 0 the rotor is frozen
            # and the lane is crossed continuously, so there is none
            t, theta = _inner_retarget(pt.I, pt.theta, theta_target, tol_land)
            new = ReducedPoint(I=pt.I, theta=theta)
            legs.append(OrbitLeg(
                mechanism=Mechanism.INNER, points=(pt, new), model_time=t,
                deviation_start=abs(wrap_signed(pt.theta - lane)),
                deviation_end=abs(wrap_signed(theta - lane)), error_bound=tol_land))
            pt = new
    raise ScatmapError("leg budget exhausted")


def _check_lane_interval(params: ModelParams, lo: float, hi: float):
    i_plus, i_plusplus = critical_actions(params)
    if i_plus is None:
        return
    for band in ((i_plus, i_plusplus), (-i_plusplus, -i_plus)):
        if hi > band[0] and lo < band[1]:
            raise NotInDomain(
                f"[{lo!r}, {hi!r}] crosses the highway breakage band "
                f"[{band[0]!r}, {band[1]!r}]"
            )


def build_pseudo_orbit_highway(params: ModelParams, I_start: float, I_end: float,
                               side: Side = Side.RIGHT, c: float = 0.5,
                               a: float = 0.25) -> PseudoOrbit:
    """Drift itinerary hugging one highway lane from I_start up to I_end.

    Alternates bursts of at most ceil(eps^-c) truncated scattering steps with
    rotor legs that land theta back within eps^a of the lane.  Raises
    ScatmapError at eps = 0 and when a burst ending short of I_end advances
    I by less than eps*1e-3, and NotInDomain when the interval touches
    breakage.
    """
    if I_end <= I_start:
        raise ValueError("I_end must exceed I_start (drift increases I)")
    _check_lane_interval(params, I_start, I_end)
    return _drift(params, side, c, a, (I_start, I_end), lambda I: False)


def _admissible_window(params: ModelParams, I: float) -> tuple[float, float]:
    """theta-window where branch-A stepping increases I, at action I.

    Inside a tangency band this is (theta2, 2*pi); where the crest turns
    vertical the window is found by sampling which torus lines still cross.
    """
    info = tangency_points(params, I)
    if info is not None:
        return wrap_angle(info.theta2), TWO_PI
    # vertical crest ("holes"): sample admissible theta near the top arc
    thetas = np.linspace(math.pi, TWO_PI, 257)
    psi = _primary(params, I, thetas, 0.0)[1]   # NaN where a line misses
    good = thetas[(math.pi < psi) & (psi < TWO_PI)]
    if not good.size:
        raise BranchUnavailable(f"no admissible torus line found at I = {I!r}")
    return float(good.min()), float(good.max())


def build_pseudo_orbit_general(params: ModelParams, I_star: float,
                               c: float = 0.5, a: float = 0.25) -> PseudoOrbit:
    """Drift itinerary from -I_star to I_star valid in every crossing regime.

    Where the highway exists the itinerary follows it; across breakage bands
    it switches to the branch-A map on the theta-window where the action
    still climbs, using rotor legs to re-enter that window.  In the single
    map regime no action lies in a band, so this is the highway itinerary.
    """
    if I_star <= 0.0:
        raise ValueError("I_star must be positive")
    return _drift(params, _rising_side(params), c, a, (-I_star, I_star),
                  lambda I: _in_band(params, I))


def _in_band(params: ModelParams, I: float) -> bool:
    """A tangency band or a non-horizontal crest at I: the drift steps branch A."""
    return (tangency_points(params, I) is not None
            or crest_orientation(params, I) is not Orientation.HORIZONTAL)


def _ts_integrand(params: ModelParams, I: float, side: Side) -> float:
    a = abs(I)
    if a < 1e-9:
        sin_psi = -1.0 if side is Side.RIGHT else 1.0
        return -0.5 * math.pi / (TWO_PI * params.a10 * sin_psi)
    psi = highway_psi(params, a, side)
    try:
        return -math.sinh(math.pi * a / 2.0) / (TWO_PI * params.a10 * a * math.sin(psi))
    except OverflowError:
        raise ValueError(f"T_s overflows: sinh(pi*I/2) at I = {I!r} exceeds floats") from None


def time_Ts(params: ModelParams, I0: float, If: float,
            side: Side = Side.RIGHT) -> float:
    """Scattering-flow time along the lane from I0 to If (tolerance 1e-9).

        integral of -sinh(pi I/2) / (2 pi a10 I sin(psi_h(I))) dI

    The integrand is even in I, so symmetric intervals double the half-range
    value.  Requires [I0, If] inside the highway domain, with sinh(pi I/2)
    finite there (else ValueError).
    """
    _check_lane_interval(params, min(I0, If), max(I0, If))
    from scipy.integrate import quad  # SciPy only where a quadrature runs
    f = lambda I: _ts_integrand(params, float(I), side)
    pts = [0.0] if I0 < 0.0 < If else None
    val, _ = quad(f, I0, If, points=pts, limit=300, epsabs=1e-10, epsrel=1e-10)
    return val


def time_Th(params: ModelParams, I_star: float) -> tuple[float, float, float]:
    """Homoclinic travel time per scattering step: (T_h, delta, C).

    C = 16|a10| (1 + 1.465 / sqrt(1 - mu^2 A^2)), A = max of alpha on [0, I_star];
    delta = 4*sqrt(2)*eps/C; T_h = 2*log(C/eps) > 0 needs eps < C (else ValueError).
    """
    if params.eps <= 0.0:
        raise ValueError("eps must be positive for a finite travel time")
    i_alpha, a_max = alpha_max()
    A = a_max if I_star >= i_alpha else alpha(I_star)
    m2a2 = (params.mu * A) ** 2
    if m2a2 >= 1.0:
        raise ScatmapError(
            f"mu^2 A^2 = {m2a2!r} >= 1; travel-time constant undefined"
        )
    C = 16.0 * abs(params.a10) * (1.0 + ALPHA_PRIME_BOUND / math.sqrt(1.0 - m2a2))
    if params.eps >= C:
        raise ValueError(f"eps = {params.eps!r} >= C = {C!r}: no positive travel time")
    delta = 4.0 * math.sqrt(2.0) * params.eps / C
    return 2.0 * math.log(C / params.eps), delta, C


def diffusion_time(params: ModelParams, I_star: float, c: float = 0.5,
                   a: float = 0.25) -> DiffusionTimeEstimate:
    """Assemble the total drift-time estimate over [-I_star, I_star].

    Uses the ergodization-time bound 2*pi*ceil(2*pi/eps^a - 1) for T_i and
    reports the asymptotic form (Ts/eps) * 2*log(C/eps) plus the ratio of
    the full estimate to it.
    """
    if not (0.0 < a < c < 1.0):
        raise ValueError("exponents must satisfy 0 < a < c < 1")
    if params.eps <= 0.0:
        raise ValueError("eps must be positive")
    if I_star <= 0.0:
        raise ValueError("I_star must be positive")
    eps = params.eps
    ts = time_Ts(params, -I_star, I_star, _rising_side(params))
    th, delta, C = time_Th(params, I_star)
    steps = ts / eps
    if not 0.5 < steps < math.inf:   # N_s = round(T_s/eps) must be a count >= 1
        raise ValueError(f"T_s/eps = {steps!r}: no scattering step, or too many to count")
    ns = round(steps)
    nss = math.ceil(eps ** (-c))
    ti = TWO_PI * math.ceil(TWO_PI / eps**a - 1.0)
    td = ns * th + (ns // nss) * ti
    if td == math.inf:
        raise ValueError(f"T_d is beyond the float range at I_star = {I_star!r}, eps = {eps!r}")
    asym = steps * 2.0 * math.log(C / eps)
    return DiffusionTimeEstimate(
        Ts=ts, Ns=ns, Nss=nss, Th=th, Ti=ti, C=C, Td=td, delta=delta,
        asymptotic=asym, ratio=td / asym,
        inner_share=(ns // nss) * ti / td,
    )
