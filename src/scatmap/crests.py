"""Crest geometry: parameterizations, tangencies, critical actions, regimes.

Crests are the curves in the (phi, s) torus where the splitting potential is
critical along unperturbed torus lines.  Their shape at a given action I is
controlled by c = mu*alpha_signed(I): horizontal graphs over phi for |c| < 1,
vertical graphs over s for |c| > 1, singular at |c| = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import DomainError
from .model import (
    ModelParams,
    alpha,
    beta,
    crest_coefficient,
    wrap_angle,
)
from .roots import brentq, golden_max

SINGULAR_TOL = 1e-12


class CrestBranch(Enum):
    MAXIMUM = "max"
    MINIMUM = "min"


class Orientation(Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"
    SINGULAR = "singular"


class Regime(Enum):
    SINGLE_MAP = "single"
    TANGENCY = "tangency"
    HOLES = "holes"


@dataclass(frozen=True)
class TangencyInfo:
    """Tangency data between torus lines and the maximum crest at action I.

    psi1 <= psi2 are the tangent crest angles, the ends of the interval on
    which the label theta(psi) decreases: pi -/+ h for mu > 0 (psi1 in
    (pi/2, pi]) and -/+ h for mu < 0 (psi1 in (-pi/2, 0]), with h in
    [0, pi/2).  theta1 = theta(psi1) >= theta2 = theta(psi2) are the
    corresponding torus-line labels, unwrapped.
    """

    I: float
    psi1: float
    psi2: float
    theta1: float
    theta2: float


@dataclass(frozen=True)
class RegimeReport:
    regime: Regime
    mu_low: float
    mu_high: float
    I_plus: float | None
    I_plusplus: float | None
    boundary: bool


@lru_cache(maxsize=1)
def alpha_max() -> tuple[float, float]:
    """(argmax, max) of alpha over I > 0, found by golden-section search."""
    x = golden_max(alpha, 0.5, 1.2, 3.0, xtol=1e-12)
    return x, alpha(x)


@lru_cache(maxsize=1)
def beta_max() -> tuple[float, float]:
    """(argmax, max) of beta over I > 0, found by golden-section search."""
    x = golden_max(beta, 1.0, 1.9, 4.0, xtol=1e-12)
    return x, beta(x)


def crest_orientation(params: ModelParams, I: float) -> Orientation:
    """Crest shape at I: the library's one test of |mu*alpha(I)| against 1."""
    c = abs(crest_coefficient(params, I))
    if abs(c - 1.0) <= SINGULAR_TOL:
        return Orientation.SINGULAR
    return Orientation.HORIZONTAL if c < 1.0 else Orientation.VERTICAL


def xi(params: ModelParams, branch: CrestBranch, I: float, phi: float) -> float:
    """Horizontal crest parameterization s = xi(I, phi), reduced to [0, 2*pi).

    Raises DomainError when |mu*alpha(I)*sin(phi)| > 1, i.e. where the crest
    cannot be written as a graph over phi (the "holes" situation).
    """
    x = xi_max_raw(params, I, phi)
    return wrap_angle(x if branch is CrestBranch.MAXIMUM else math.pi - x)


def xi_max_raw(params: ModelParams, I: float, psi: float) -> float:
    """Maximum-crest value in (-pi/2, pi/2), unwrapped; pi minus it is the
    minimum crest."""
    u = crest_coefficient(params, I) * math.sin(psi)
    if abs(u) > 1.0:
        raise DomainError(
            f"crest not horizontally parameterizable: |mu*alpha*sin(phi)| = {abs(u):.6g} > 1"
        )
    return -math.asin(u)


def eta(params: ModelParams, branch: CrestBranch, I: float, s: float) -> float:
    """Vertical crest parameterization phi = eta(I, s), reduced to [0, 2*pi)."""
    c = crest_coefficient(params, I)
    if c == 0.0:
        raise DomainError("vertical parameterization undefined at mu*alpha(I) = 0")
    u = math.sin(s) / c
    if abs(u) > 1.0:
        raise DomainError(
            f"crest not vertically parameterizable: |sin(s)/(mu*alpha)| = {abs(u):.6g} > 1"
        )
    x = -math.asin(u)
    return wrap_angle(x if branch is CrestBranch.MAXIMUM else math.pi - x)


def crest_residual(params: ModelParams, I: float, phi: float, s: float) -> float:
    """mu*alpha_signed(I)*sin(phi) + sin(s); zero exactly on a crest."""
    return crest_coefficient(params, I) * math.sin(phi) + math.sin(s)


def theta_of_psi(params: ModelParams, I: float, psi: float) -> float:
    """Torus-line label theta(psi) = psi - I*xi_max(I, psi), unwrapped."""
    return psi - I * xi_max_raw(params, I, psi)


def tangency_points(params: ModelParams, I: float) -> TangencyInfo | None:
    """Tangency angles between torus lines and the maximum crest at I.

    Exists iff |I|*|mu|*alpha(I) >= 1 while the crest is horizontal.  Returns
    None outside that set (including the vertical and singular cases).
    """
    a = abs(params.mu) * alpha(I)
    b = abs(I) * a
    if b < 1.0 or crest_orientation(params, I) is not Orientation.HORIZONTAL:
        return None  # at a singular crest the angles degenerate to pi/2, 3pi/2
    r = math.sqrt((b * b - 1.0) / (1.0 - a * a))
    half = math.atan(r)
    # d theta/d psi = 1 + I*c*cos(psi)/sqrt(1 - (c sin(psi))^2), c = mu*alpha_signed(I),
    # vanishes where cos(psi) has the sign of -I*c, that is of -mu
    centre = math.pi if params.mu > 0.0 else 0.0
    psi1 = centre - half
    psi2 = centre + half
    theta1 = theta_of_psi(params, I, psi1)
    theta2 = theta_of_psi(params, I, psi2)
    return TangencyInfo(I=I, psi1=psi1, psi2=psi2, theta1=theta1, theta2=theta2)


def critical_actions(params: ModelParams) -> tuple[float | None, float | None]:
    """Critical actions (I_plus, I_plusplus) bounding highway breakage.

    (None, None) while |mu| < 1/max(beta).  Otherwise I_plus is the smallest
    positive root of beta(I) = 1/|mu| (for |mu| <= 1) or of alpha(I) = 1/|mu|
    (for |mu| >= 1), and I_plusplus the largest root of beta(I) = 1/|mu|.
    alpha and beta are unimodal on I > 0, so each root is one Brent solve
    between the argmax and an end of [1e-6, 30]; where beta's maximum does
    not exceed 1/|mu| the two roots of beta merge at its argmax.  Raises
    ValueError when |mu| is so large that a root leaves that range.
    """
    am = abs(params.mu)
    i_beta, bmax = beta_max()
    if am < 1.0 / bmax:
        return None, None
    target = 1.0 / am
    if bmax <= target:
        return i_beta, i_beta
    lo, hi = 1e-6, 30.0
    if max(alpha(lo), beta(hi)) >= target:
        raise ValueError(f"|mu| = {am!r}: a critical action lies outside [{lo}, {hi}]")
    f = lambda x: beta(x) - target
    i_plusplus = brentq(f, i_beta, hi, xtol=1e-14)
    if am <= 1.0:
        return brentq(f, lo, i_beta, xtol=1e-14), i_plusplus
    return brentq(lambda x: alpha(x) - target, lo, alpha_max()[0], xtol=1e-14), i_plusplus


def classify_regime(params: ModelParams) -> RegimeReport:
    """Place mu among the three crossing regimes.

    Thresholds are 1/max(beta) and 1/max(alpha), computed numerically rather
    than hardcoded; closed intervals are used at the boundaries and boundary
    values of |mu| are flagged.
    """
    am = abs(params.mu)
    mu_low = 1.0 / beta_max()[1]
    mu_high = 1.0 / alpha_max()[1]
    if am < mu_low:
        regime = Regime.SINGLE_MAP
    elif am <= mu_high:
        regime = Regime.TANGENCY
    else:
        regime = Regime.HOLES
    i_plus, i_plusplus = critical_actions(params)
    boundary = abs(am - mu_low) <= 1e-9 or abs(am - mu_high) <= 1e-9
    return RegimeReport(
        regime=regime,
        mu_low=mu_low,
        mu_high=mu_high,
        I_plus=i_plus,
        I_plusplus=i_plusplus,
        boundary=boundary,
    )
