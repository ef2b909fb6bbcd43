"""Independent numerical oracles for the closed forms.

The oracles recompute a quantity the rest of the library obtains in closed
form, by a route that shares no code with it: direct quadrature for the
splitting potential, and full 5D integration (of model.full_vector_field)
for the action jump across one homoclinic excursion.  SciPy's integrators
are imported inside the functions that use them, so importing this module
does not load SciPy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScatmapError
from .model import (
    FullState,
    ModelParams,
    full_vector_field,
    inner_first_integral,
    perturbation_g,
    separatrix,
)
from .scattering import CrestBranch, _grad_at_crossing, _window_s, tau_star_full


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: list[FullState]
    tolerances: tuple[float, float]


def melnikov_quadrature_oracle(params: ModelParams, I: float, phi: float,
                               s: float, tol: float = 1e-10) -> float:
    """Splitting potential by direct quadrature along the separatrix.

        (1/2) * integral of p0(u)^2 * g(phi + I*u, s + u) du

    The integrand decays like exp(-2|u|); the window is cut where the tail
    drops below tol.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    amp = abs(params.a00) + abs(params.a10) + abs(params.a01)
    # tail beyond T is bounded by 8*amp*exp(-2T)
    T = 0.5 * math.log(max(8.0 * amp, 1.0) / (0.1 * tol)) + 1.0
    if T == math.inf:
        raise ValueError(f"amplitude {amp!r} at tol {tol!r} needs an infinite quadrature window")
    from scipy.integrate import quad

    def integrand(u: float) -> float:
        p0 = 2.0 / math.cosh(u)
        return 0.5 * p0 * p0 * perturbation_g(params, phi + I * u, s + u)

    val, _ = quad(integrand, -T, T, limit=400, epsabs=0.1 * tol, epsrel=1e-12)
    return val


def integrate_full(params: ModelParams, state: FullState, T: float,
                   tol: float = 1e-10, n_samples: int = 200,
                   max_step: float = math.inf,
                   first_step: float | None = None) -> Trajectory:
    """Adaptive high-order integration of the full 5D flow over [0, T].

    ``max_step``/``first_step`` exist so convergence tests can force a fixed
    step; normal callers leave them alone.
    """
    if not math.isfinite(T):
        raise ValueError("T must be finite")
    sol = _integrate(params, [state.p, state.q, state.I, state.phi, state.s], T,
                     tol, tol * 1e-2, t_eval=np.linspace(0.0, T, max(2, n_samples)),
                     max_step=max_step, first_step=first_step)
    states = [FullState(p=sol.y[0, k], q=sol.y[1, k], I=sol.y[2, k],
                        phi=sol.y[3, k], s=sol.y[4, k])
              for k in range(sol.y.shape[1])]
    return Trajectory(times=sol.t, states=states, tolerances=(tol * 1e-2, tol))


def _integrate(params: ModelParams, y0, T: float, rtol: float, atol: float, **options):
    """solve_ivp (DOP853) of the full 5D flow from y0 over [0, T]."""
    from scipy.integrate import solve_ivp
    sol = solve_ivp(lambda t, y: full_vector_field(params, y), (0.0, T), y0,
                    method="DOP853", rtol=rtol, atol=atol, **options)
    if not sol.success:
        raise ScatmapError(f"integrator failed: {sol.message}")
    return sol


def measure_homoclinic_jump(params: ModelParams, I: float, phi: float,
                            s: float) -> tuple[float, float]:
    """Measured vs predicted first-order action jump across one excursion.

    Launches on the unperturbed separatrix at separatrix time tau* - T0 with
    (I, phi) back-propagated by the exact torus flow (the full flow on the
    invariant manifold p = q = 0; this captures the O(eps) wobble of the
    asymptotic orbit that a bare rotor rotation misses), integrates the
    full system for 2*T0 = 2*(log(1/eps) + 5) at rtol = 1e-12, and reads the
    jump off the rotor first integral model.inner_first_integral, which is
    constant except during the excursion.  Returns (dI_measured,
    dI_predicted = eps * dL*/dphi).  Raises ScatmapError for a torus that
    barely rotates (|I| < 1e-6).
    """
    if abs(I) < 1e-6:
        raise ScatmapError(
            "jump measurement needs a rotating torus (|I| >= 1e-6)")
    if params.eps == 0.0:
        return 0.0, 0.0
    # a much larger T0 degrades the result: the hyperbolic stretch re-amplifies the launch offset
    T0 = math.log(1.0 / params.eps) + 5.0
    # keep the launch anchored to the same s-representative tau_star uses
    s = float(_window_s(s))
    ts = tau_star_full(params, I, phi, s, CrestBranch.MAXIMUM)
    predicted = params.eps * float(_grad_at_crossing(params, I, ts.tau, ts.psi)[1])

    p0, q0 = separatrix(ts.tau - T0)
    I0, phi0 = _integrate(params, [0.0, 0.0, I, phi, 0.0], -T0, 1e-13, 1e-14).y[2:4, -1].tolist()
    yf = _integrate(params, [p0, q0, I0, phi0, s - T0], 2.0 * T0, 1e-12, 1e-13).y[:, -1]
    G0 = inner_first_integral(params, I0, phi0)
    Gf = inner_first_integral(params, yf[2], yf[3])
    return (Gf - G0) / I, predicted

