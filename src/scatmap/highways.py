"""Highways: the distinguished level set L* = A00 + A01 of the reduced function.

On this level the action changes as fast as the first-order map allows while
theta stays pinned near a vertical line, which is what makes these curves the
fast drift channels.  In the crest angle psi the level condition reads

    A10(I) cos(psi) + A01 (cos(xi(I, psi)) - 1) = 0,

with exactly one root in (0, pi) (left lane) and one in (pi, 2*pi) (right
lane) whenever the crest is horizontal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

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
)
from .roots import brentq


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
    n = max(1, int(round(abs(I_to - I_from) / step)))
    I_values = np.linspace(I_from, I_to, n + 1)
    samples: list[HighwaySample] = []
    hint = None
    for I in I_values:
        try:
            s = _sample(params, float(I), side, hint)
        except NotInDomain as exc:
            raise NotInDomain(
                f"highway lane lost at I = {float(I)!r}", partial=samples
            ) from exc
        samples.append(s)
        hint = s.psi
    return samples


def highway_domain(params: ModelParams, scan_step: float = 1e-2,
                   proximity: float = 1e-3) -> HighwayDomain:
    """Guaranteed domain plus a numeric breakage detector.

    The detector walks the breakage band and flags actions where the lane
    root either disappears or comes within ``proximity`` of a tangency
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
        return min(abs(psi - info.psi1), abs(psi - info.psi2)) >= proximity

    # scan the positive band; the domain is symmetric under I -> -I
    band = np.arange(i_plus, i_plusplus + scan_step, scan_step)
    ok = [lane_ok(float(I)) for I in band]
    extra: list[tuple[float, float]] = []
    start = None
    for I, good in zip(band, ok):
        if good and start is None:
            start = float(I)
        elif not good and start is not None:
            extra.append((start, float(I)))
            start = None
    if start is not None:
        extra.append((start, float(band[-1])))

    effective = [*guaranteed, *extra, *((-hi, -lo) for lo, hi in extra)]
    return HighwayDomain(guaranteed=guaranteed, effective=tuple(sorted(effective)),
                         I_plus=i_plus, I_plusplus=i_plusplus)


def in_intervals(x: float, intervals: tuple[tuple[float, float], ...],
                 tol: float = 0.0) -> bool:
    """Whether x lies in one of the closed intervals, each widened by tol."""
    return any(lo - tol <= x <= hi + tol for lo, hi in intervals)
