"""scatmap: scattering maps and diffusion highways for a pendulum-rotor system."""

from .errors import (
    BranchUnavailable,
    DomainError,
    NoCrossing,
    NotInDomain,
    ScatmapError,
    SingularCrest,
    TangencyPoint,
)
from .model import (
    FullState,
    ModelParams,
    alpha,
    beta,
    full_vector_field,
    inner_first_integral,
    melnikov_potential,
    separatrix,
)
from .crests import (
    CrestBranch,
    Orientation,
    Regime,
    RegimeReport,
    TangencyInfo,
    classify_regime,
    crest_orientation,
    critical_actions,
    eta,
    tangency_points,
    xi,
)
from .scattering import (
    Branch,
    BranchSet,
    ReducedPoint,
    TauStar,
    flow_reduced_hamiltonian,
    grad_reduced_poincare,
    reduced_poincare,
    reduced_poincare_psi,
    scattering_branches,
    scattering_step,
    symmetry_check_mu,
    tau_star,
)
from .highways import (
    HighwayDomain,
    HighwaySample,
    Side,
    highway_domain,
    highway_psi,
    trace_highway,
)
from .diffusion import (
    DiffusionTimeEstimate,
    Mechanism,
    OrbitLeg,
    PseudoOrbit,
    build_pseudo_orbit_general,
    build_pseudo_orbit_highway,
    diffusion_time,
    inner_ergodization_time,
    propagated_error_bound,
    time_Th,
    time_Ts,
)
from .verify import (
    EpsilonStarEstimate,
    Trajectory,
    epsilon_star,
    integrate_full,
    measure_homoclinic_jump,
    melnikov_quadrature_oracle,
)

__version__ = "0.1.0"
