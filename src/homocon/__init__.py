"""Finite-time non-overshooting leader-following consensus toolkit.

Library layers:

* graphs        - leader-rooted topologies, Laplacians, distributed
                  transmitted-vector fixed points
* homogeneity   - weighted dilations and the canonical homogeneous norm
* certificates  - eigenvalue-margin feasibility checks and small-scale
                  solvers for the design inequalities
* protocols     - linear and homogeneous consensus control laws
* cones         - barrier matrices, safety cones, invariance monitors
* simulation    - deterministic batched closed-loop integration
* cli           - config-driven command line front end
"""

from .graphs import (
    DirectedGraph,
    LaplacianDecomposition,
    SingularFollowerBlock,
    is_leader_rooted,
    laplacian,
    solve_transmitted,
)
from .homogeneity import (
    DilationGenerator,
    HomogeneousNormContext,
    OriginNotDifferentiable,
    canonical_norm,
    canonical_norm_many,
    check_generator_relations,
    dilation_matrix,
    norm_gradient,
)
from .certificates import (
    CertificateP,
    CertificateXY,
    Infeasible,
    NonPositiveRho,
    NotSymmetric,
    RobustnessConstants,
    SingularX,
    compute_rho,
    compute_theta,
    disturbance_bound,
    robustness_constants,
    solve_lmi_p,
    solve_lmi_xy,
    verify_lmi_p,
    verify_lmi_xy,
)
from .protocols import (
    DimensionMismatch,
    IntegratorChain,
    ProtocolKind,
    ProtocolSpec,
    consensus_protocol,
    control_input,
    control_input_many,
    error_field,
    linear_gain,
    linear_protocol,
    nonovershoot_protocol,
)
from .cones import (
    AdmissibilityReport,
    ConeSpec,
    InvarianceReport,
    barrier_matrix,
    check_initial_admissible,
    gamma_matrix,
    homogeneous_barrier,
    invariance_monitor,
    linear_barrier,
    metzler_check,
)
from .simulation import (
    AxisSpec,
    AxisTrajectory,
    DisturbanceSpec,
    NonConvergentStep,
    ScenarioConfig,
    Trajectory,
    lyapunov_violation,
    overshoot_metric,
    settling_time,
    simulate,
    simulate_batch,
    write_trajectory_csv,
)

__version__ = "0.1.0"
