"""Highways: the distinguished level set L* = A00 + A01 of the reduced function.

On this level the action changes as fast as the first-order map allows while
theta stays pinned near a vertical line, which is what makes these curves the
fast drift channels.  In the crest angle psi the level condition reads

    A10(I) cos(psi) + A01 (cos(xi(I, psi)) - 1) = 0,

with exactly one root in (0, pi) (left lane) and one in (pi, 2*pi) (right
lane) whenever the crest is horizontal.  epsilon_star scans the envelope
gradient along the right lane for the admissible perturbation size.  The
module imports no NumPy: the commands that trace lanes start without it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .crests import (
    Orientation,
    critical_actions,
    crest_orientation,
    tangency_points,
    theta_of_psi,
    xi_max_raw,
)
from .errors import NotInDomain
from .model import (
    TWO_PI,
    ModelParams,
    amp_A01,
    amp_A10,
    amp_A10_deriv,
    envelope_gradient,
    wrap_signed,
)
from .roots import arange, brentq, check_samples, linspace


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class HighwaySample:
    I: float
    theta: float
    psi: float
    side: Side
    residual: float


@dataclass(frozen=True)
class HighwayDomain:
    """Guaranteed existence set vs numerically detected one.

    ``guaranteed`` is the proven interval union (complement of the breakage
    band [I_plus, I_plusplus] and its mirror); ``effective`` is what a direct
    level-set/tangency proximity scan finds, which can be larger.
    """

    guaranteed: tuple[tuple[float, float], ...]
    effective: tuple[tuple[float, float], ...]
    I_plus: float | None
    I_plusplus: float | None


@dataclass(frozen=True)
class EpsilonStarEstimate:
    value: float
    envelope: float
    argmin_I: float


def level_gap(params: ModelParams, I: float, psi: float) -> float:
    """Reduced function minus the highway level, in the psi parameterization."""
    return (amp_A10(params, I) * math.cos(psi)
            + amp_A01(params) * (math.cos(xi_max_raw(params, I, psi)) - 1.0))


def highway_psi(params: ModelParams, I: float, side: Side = Side.RIGHT,
                psi_hint: float | None = None) -> float:
    """Unique crest angle of the highway lane at action I, to 1e-12.

    Requires the crest to be horizontal at I (crest_orientation); raises
    NotInDomain otherwise.  ``psi_hint`` narrows the bracket during traces.
    """
    if crest_orientation(params, I) is not Orientation.HORIZONTAL:
        raise NotInDomain(
            f"crest not horizontal at I = {I!r}; highway lane undefined"
        )
    lo, hi = (0.0, math.pi) if side is Side.LEFT else (math.pi, TWO_PI)
    pad = 1e-13
    f = lambda psi: level_gap(params, I, psi)
    if psi_hint is not None and lo < psi_hint < hi:
        h = 0.1
        a, b = max(lo + pad, psi_hint - h), min(hi - pad, psi_hint + h)
        if f(a) * f(b) < 0.0:
            return brentq(f, a, b, xtol=1e-14)
    return brentq(f, lo + pad, hi - pad, xtol=1e-14)


def _sample(params: ModelParams, I: float, side: Side,
            psi_hint: float | None) -> HighwaySample:
    psi = highway_psi(params, I, side, psi_hint)
    return HighwaySample(
        I=I,
        theta=theta_of_psi(params, I, psi),
        psi=psi,
        side=side,
        residual=level_gap(params, I, psi),
    )


def trace_highway(params: ModelParams, side: Side, I_from: float, I_to: float,
                  step: float = 1e-2) -> list[HighwaySample]:
    """Sample one lane over [I_from, I_to], seeding each root from the last.

    Aborts with NotInDomain carrying the partial trace if the lane ceases to
    exist mid-way.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    steps = abs(I_to - I_from) / step
    check_samples(steps)
    samples: list[HighwaySample] = []
    hint = None
    for I in linspace(I_from, I_to, max(1, round(steps)) + 1):
        try:
            s = _sample(params, I, side, hint)
        except NotInDomain as exc:
            raise NotInDomain(
                f"highway lane lost at I = {I!r}", partial=samples
            ) from exc
        samples.append(s)
        hint = s.psi
    return samples


def highway_domain(params: ModelParams) -> HighwayDomain:
    """Guaranteed domain plus a numeric breakage detector.

    The detector walks the breakage band in steps of 1e-2 and flags actions
    where the lane root either disappears or comes within 1e-3 of a tangency
    angle; contiguous safe stretches are reported as effective intervals.
    """
    i_plus, i_plusplus = critical_actions(params)
    inf = math.inf
    if i_plus is None:
        full = ((-inf, inf),)
        return HighwayDomain(guaranteed=full, effective=full,
                             I_plus=None, I_plusplus=None)
    guaranteed = (
        (-inf, -i_plusplus),
        (-i_plus, i_plus),
        (i_plusplus, inf),
    )

    def lane_ok(I: float) -> bool:
        try:
            psi = highway_psi(params, I, Side.RIGHT)
        except NotInDomain:
            return False
        info = tangency_points(params, I)
        if info is None:
            return True
        return min(abs(wrap_signed(psi - info.psi1)), abs(wrap_signed(psi - info.psi2))) >= 1e-3

    # scan the positive band; the domain is symmetric under I -> -I
    band = arange(i_plus, i_plusplus + 1e-2, 1e-2)
    extra: list[tuple[float, float]] = []
    start = None
    for I in band:
        good = lane_ok(I)
        if good and start is None:
            start = I
        elif not good and start is not None:
            extra.append((start, I))
            start = None
    if start is not None:
        extra.append((start, band[-1]))

    effective = [*guaranteed, *extra, *((-hi, -lo) for lo, hi in extra)]
    return HighwayDomain(guaranteed=guaranteed, effective=tuple(sorted(effective)),
                         I_plus=i_plus, I_plusplus=i_plusplus)


def _lane_gradient(params: ModelParams, I: float) -> tuple[float, float]:
    """The reduced function's gradient at the right lane's crossing at action
    I (tau = -xi at psi_h(I)): model.envelope_gradient on math floats."""
    psi = highway_psi(params, I, Side.RIGHT)
    return envelope_gradient(amp_A10(params, I), amp_A10_deriv(params, I),
                             -xi_max_raw(params, I, psi), math.sin(psi), math.cos(psi))


def epsilon_star(params: ModelParams, I_star: float,
                 grid: int = 801) -> EpsilonStarEstimate:
    """Largest perturbation for which the gradient dominates along the lane.

    Minimizes the gradient norm over lane samples with |I| <= I_star (the
    function is even in I, so only [0, I_star] is scanned) and reports the
    large-action envelope 4*pi*|a10|*I_star*exp(-pi*I_star/2) next to it.
    The gradient at each sample is _lane_gradient's.
    """
    if I_star <= 0.0:
        raise ValueError("I_star must be positive")
    if crest_orientation(params, I_star) is not Orientation.HORIZONTAL:
        raise NotInDomain(f"lane undefined at I = {I_star!r}")
    Is = linspace(0.0, I_star, grid)
    vals = [math.hypot(*_lane_gradient(params, I)) for I in Is]
    # np.argmin's pick: the first NaN, else the first minimum
    k = min(range(grid), key=lambda j: (vals[j] == vals[j], vals[j]))
    envelope = 4.0 * math.pi * abs(params.a10) * I_star * math.exp(-math.pi * I_star / 2.0)
    return EpsilonStarEstimate(value=vals[k], envelope=envelope, argmin_I=Is[k])


def in_intervals(x: float, intervals: tuple[tuple[float, float], ...],
                 tol: float = 0.0) -> bool:
    """Whether x lies in one of the closed intervals, each widened by tol."""
    return any(lo - tol <= x <= hi + tol for lo, hi in intervals)
