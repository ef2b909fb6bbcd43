"""scatmap: scattering maps and diffusion highways for a pendulum-rotor system.

The exports are served lazily (PEP 562): ``from scatmap import X`` imports
only the module that defines X, so importing the package loads no NumPy.
"""
import importlib

_EXPORTS = {
    "errors": "BranchUnavailable DomainError NoCrossing NotInDomain ScatmapError "
              "SingularCrest TangencyPoint",
    "model": "FullState ModelParams alpha beta full_vector_field inner_first_integral "
             "melnikov_potential separatrix",
    "crests": "CrestBranch Orientation Regime RegimeReport TangencyInfo classify_regime "
              "crest_orientation critical_actions eta tangency_points xi",
    "scattering": "Branch BranchSet ReducedPoint TauStar flow_reduced_hamiltonian "
                  "grad_reduced_poincare reduced_poincare reduced_poincare_psi "
                  "scattering_branches scattering_step symmetry_check_mu tau_star",
    "highways": "EpsilonStarEstimate HighwayDomain HighwaySample Side epsilon_star "
                "highway_domain highway_psi trace_highway",
    "diffusion": "DiffusionTimeEstimate Mechanism OrbitLeg PseudoOrbit "
                 "build_pseudo_orbit_general build_pseudo_orbit_highway diffusion_time "
                 "inner_ergodization_time propagated_error_bound time_Th time_Ts",
    "verify": "Trajectory integrate_full measure_homoclinic_jump melnikov_quadrature_oracle",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_HOME, "__version__"]
__version__ = "0.1.0"


def __getattr__(name: str):
    """An export, read from its module on each access (not cached here, so a
    name rebound in its module, as the benchmark tracer does, is seen)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted([*globals(), *_HOME])
