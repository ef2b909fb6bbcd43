"""Pendulum-rotor model: Hamiltonian data, separatrix and splitting potential.

The system is a pendulum (p, q) coupled to a rotor (I, phi) with periodic
time angle s, perturbed by  eps * cos(q) * (a00 + a10*cos(phi) + a01*cos(s)).
All closed forms for the first-order splitting live here: the potential
L(I, phi, s) = A00 + A10(I) cos(phi) + A01 cos(s)  and the auxiliary shape
functions alpha / beta controlling the crest geometry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi
SINH_HALF_PI = math.sinh(math.pi / 2.0)

# sinh(pi*I/2) overflows way before this; amplitudes have underflowed to 0.
_I_OVERFLOW = 700.0 / math.pi
# below this the 0/0 limit branch is used for A10, alpha
_I_TINY = 1e-8


def wrap_angle(x: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    y = math.fmod(x, TWO_PI)
    if y < 0.0:
        y += TWO_PI
    if y >= TWO_PI:  # tiny negatives can round up to exactly 2*pi
        y = 0.0
    return y + 0.0  # +0.0 normalizes -0.0


def wrap_signed(x: float) -> float:
    """Reduce an angle difference to (-pi, pi]."""
    y = math.fmod(x, TWO_PI)
    if y > math.pi:
        y -= TWO_PI
    elif y <= -math.pi:
        y += TWO_PI
    return y


@dataclass(frozen=True)
class ModelParams:
    """Coupling amplitudes and perturbation size.

    Every field must be finite. a10 and a01 must both be nonzero: every
    scattering construction relies on the ratio mu = a10/a01 being finite
    and nonzero.
    """

    a00: float
    a10: float
    a01: float
    eps: float = 0.0

    def __post_init__(self):
        for name in ("a00", "a10", "a01", "eps"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.a01 == 0.0:
            raise ValueError("a01 must be nonzero (mu = a10/a01 must be finite)")
        if self.a10 == 0.0:
            raise ValueError("a10 must be nonzero (mu must be nonzero)")
        if self.eps < 0.0:
            raise ValueError("eps must be >= 0")

    @property
    def mu(self) -> float:
        return self.a10 / self.a01


@dataclass(frozen=True)
class FullState:
    """Point of the full five-dimensional flow.

    q and phi are stored reduced to [0, 2*pi); s is kept unreduced so that
    trajectories remain monotone in the time angle.
    """

    p: float
    q: float
    I: float
    phi: float
    s: float

    def __post_init__(self):
        object.__setattr__(self, "q", wrap_angle(self.q))
        object.__setattr__(self, "phi", wrap_angle(self.phi))


def separatrix(t: float) -> tuple[float, float]:
    """Upper homoclinic loop of the unperturbed pendulum at separatrix time t.

    Returns (p0, q0) = (2/cosh t, 4*arctan(e^t)); the energy identity
    p0^2/2 + cos(q0) - 1 = 0 holds to machine precision.
    """
    p0 = 2.0 / math.cosh(t)
    # exp(t) overflows near t = 710; the angle has long since rounded to 2*pi
    q0 = 4.0 * math.atan(math.exp(t)) if t < 350.0 else TWO_PI
    return p0, q0


def amp_A00(params: ModelParams) -> float:
    return 4.0 * params.a00


def amp_A01(params: ModelParams) -> float:
    return TWO_PI * params.a01 / SINH_HALF_PI


def amp_A10(params: ModelParams, I: float) -> float:
    """Action-dependent splitting amplitude 2*pi*I*a10/sinh(pi*I/2).

    Even in I, with removable value 4*a10 at I = 0.
    """
    a = abs(I)
    if a < _I_TINY:
        return 4.0 * params.a10
    if a > _I_OVERFLOW:
        return 0.0
    return TWO_PI * I * params.a10 / math.sinh(math.pi * I / 2.0)


def amp_A10_deriv(params: ModelParams, I: float) -> float:
    """d/dI of amp_A10; odd in I."""
    a = abs(I)
    if a < _I_TINY:
        # leading term of the even series 4*a10*(1 - (pi I/2)^2/6 + ...)
        return -4.0 * params.a10 * (math.pi / 2.0) ** 2 * I / 3.0
    if a > _I_OVERFLOW:
        return 0.0
    x = math.pi * I / 2.0
    sh = math.sinh(x)
    ch = math.cosh(x)
    return TWO_PI * params.a10 * (sh - I * (math.pi / 2.0) * ch) / sh**2


def melnikov_potential(params: ModelParams, I: float, phi: float, s: float) -> float:
    """Closed-form splitting potential A00 + A10(I) cos(phi) + A01 cos(s)."""
    return (amp_A00(params) + amp_A10(params, I) * math.cos(phi)
            + amp_A01(params) * math.cos(s))


def alpha(I: float) -> float:
    """Crest shape function sinh(pi/2) I^2 / sinh(pi |I|/2); even, >= 0."""
    a = abs(I)
    if a < _I_TINY:
        return 2.0 * SINH_HALF_PI * a / math.pi
    if a > _I_OVERFLOW:
        return 0.0
    return SINH_HALF_PI * a * a / math.sinh(math.pi * a / 2.0)


def alpha_signed(I: float) -> float:
    """Odd extension of alpha; this is the factor that enters crest equations.

    The crest condition reads mu*alpha_signed(I)*sin(phi) + sin(s) = 0, and
    the sign flip under I -> -I is what makes the reduced objects even in I.
    """
    if I == 0.0:
        return 0.0
    return math.copysign(alpha(I), I)


def beta(I: float) -> float:
    """|I| * alpha(I) = sinh(pi/2) |I|^3 / sinh(pi |I|/2) for I >= 0."""
    return abs(I) * alpha(I)


def crest_coefficient(params: ModelParams, I: float) -> float:
    """mu * alpha_signed(I), the single number controlling crest geometry at I."""
    return params.mu * alpha_signed(I)


def perturbation_g(params: ModelParams, phi: float, s: float) -> float:
    return params.a00 + params.a10 * math.cos(phi) + params.a01 * math.cos(s)


def full_vector_field(params: ModelParams, y) -> list[float]:
    """Hamilton equations of the full system at y = (p, q, I, phi, s).

    (dp, dq, dI, dphi, ds) =
      (sin(q)*(1 + eps*g(phi,s)), p, eps*a10*cos(q)*sin(phi), I, 1).
    A plain list: the 5D integrators call this thousands of times.
    """
    p, q, I, phi, s = y
    g = perturbation_g(params, phi, s)
    return [
        math.sin(q) * (1.0 + params.eps * g),
        p,
        params.eps * params.a10 * math.cos(q) * math.sin(phi),
        I,
        1.0,
    ]


def inner_first_integral(params: ModelParams, I: float, phi: float) -> float:
    """First integral I^2/2 + eps*a10*(cos(phi) - 1) of the torus dynamics."""
    return 0.5 * I * I + params.eps * params.a10 * (math.cos(phi) - 1.0)


def pendulum_energy(p: float, q: float) -> float:
    """P(p,q) = p^2/2 + cos(q) - 1; zero exactly on the separatrix."""
    return 0.5 * p * p + math.cos(q) - 1.0
