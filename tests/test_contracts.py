"""The rejection paths of the public constructors and functions that no
other test takes: each call must raise its documented exception with its
message."""

import numpy as np
import pytest

from homocon.certificates import NonPositiveRho, SingularX, compute_theta, verify_lmi_p, verify_lmi_xy
from homocon.cones import ConeSpec, check_initial_admissible
from homocon.graphs import DirectedGraph, solve_transmitted
from homocon.homogeneity import DilationGenerator, HomogeneousNormContext
from homocon.protocols import (
    DimensionMismatch,
    IntegratorChain,
    ProtocolKind,
    ProtocolSpec,
    control_input_many,
    error_field,
    linear_protocol,
)
from homocon.simulation import DisturbanceSpec, ScenarioConfig, Trajectory, settling_time
from test_simulation import chain_graph, reference_axis

GEN = DilationGenerator(2, -0.2)
CTX = HomogeneousNormContext(GEN, np.eye(2))
CHAIN = IntegratorChain(2)
CONSENSUS = ProtocolKind.HOMOGENEOUS_CONSENSUS


def _scenario(axes=None, dt=1e-2, horizon=1.0, n=2):
    return ScenarioConfig(chain_graph(), n, (reference_axis(),) if axes is None else axes, dt, horizon)


CASES = {
    # simulation
    "negative-amplitude": (lambda: DisturbanceSpec(np.array([0.1, -0.1])), ValueError, "nonnegative"),
    "offsets-shape": (lambda: DisturbanceSpec(np.ones(2), offsets=np.ones(3)), ValueError,
                      "offsets must match"),
    "horizon-below-dt": (lambda: _scenario(dt=1.0, horizon=0.5), ValueError, "at least one step"),
    "no-axes": (lambda: _scenario(axes=()), ValueError, "at least one axis"),
    "axis-dimension": (lambda: _scenario(n=3), ValueError, "protocol dimension mismatch"),
    "amplitude-count": (lambda: _scenario(axes=(reference_axis(disturbance=DisturbanceSpec(np.ones(2))),)),
                        ValueError, "need 4 disturbance amplitudes"),
    "unknown-axis": (lambda: Trajectory(np.zeros(1), ()).axis("Z"), KeyError, "no axis named 'Z'"),
    "settling-tol": (lambda: settling_time(Trajectory(np.zeros(1), ()), 0.0), ValueError,
                     "tol must be positive"),
    # protocols
    "gain-length": (lambda: ProtocolSpec(ProtocolKind.LINEAR, 2, np.ones(3)), DimensionMismatch,
                    "gain must have 2 entries"),
    "linear-mu": (lambda: ProtocolSpec(ProtocolKind.LINEAR, 2, np.ones(2), -0.5), ValueError,
                  "linear protocol has mu = 0"),
    "context-dimension": (lambda: ProtocolSpec(CONSENSUS, 3, np.ones(3), -0.2, CTX), DimensionMismatch,
                          "norm context dimension mismatch"),
    "context-mu": (lambda: ProtocolSpec(CONSENSUS, 2, np.ones(2), -0.5, CTX), ValueError,
                   "different mu"),
    "consensus-mu": (lambda: ProtocolSpec(CONSENSUS, 2, np.ones(2), -1.5, HomogeneousNormContext(
        DilationGenerator(2, -1.5), np.eye(2))), ValueError, r"consensus protocol needs mu in \[-1"),
    "vector-length": (lambda: control_input_many(linear_protocol(2, 1.0), np.ones((1, 3))),
                      DimensionMismatch, "vectors must have 2 components"),
    "disturbance-length": (lambda: error_field(CHAIN, linear_protocol(2, 1.0), np.zeros(4), np.zeros(2)),
                           DimensionMismatch, "disturbance must match"),
    # homogeneity
    "generator-dimension": (lambda: DilationGenerator(0, 0.0), ValueError, "state dimension must be >= 1"),
    "generator-mu": (lambda: DilationGenerator(2, np.nan), ValueError, "mu must be finite"),
    "p-shape": (lambda: HomogeneousNormContext(GEN, np.eye(3)), ValueError, r"P must be \(2, 2\)"),
    "p-definite": (lambda: HomogeneousNormContext(GEN, -np.eye(2)), ValueError,
                   "P must be positive definite"),
    # P is positive definite, P G + G P (G = diag(2, 1)) is not
    "p-monotone": (lambda: HomogeneousNormContext(DilationGenerator(2, -1.0), [[1.0, 0.97], [0.97, 1.0]]),
                   ValueError, "monotonicity condition"),
    # graphs
    "no-followers": (lambda: DirectedGraph(0, np.zeros((1, 1))), ValueError, "at least one follower"),
    "weights-shape": (lambda: DirectedGraph(1, np.zeros((3, 3))), ValueError, r"weights must be \(2, 2\)"),
    "negative-weight": (lambda: DirectedGraph(1, [[0.0, 0.0], [-1.0, 0.0]]), ValueError,
                        "weights must be nonnegative"),
    "states-shape": (lambda: solve_transmitted(chain_graph(1), np.eye(2), np.zeros((3, 2))), ValueError,
                     r"states must be \(2, 2\)"),
    # cones
    "cone-lambda": (lambda: ConeSpec(2, 0.0), ValueError, "lam > 0"),
    "cone-singular": (lambda: ConeSpec(4, 1e4), ValueError, "numerically singular"),
    "admissible-dimension": (lambda: check_initial_admissible([np.zeros(3)], ConeSpec(2, 1.0)), ValueError,
                             "error vectors must have dimension 2"),
    # certificates: a gain of 1.7e308 makes P Acl + Acl' P overflow
    "margins-overflow": (lambda: verify_lmi_p(np.eye(2), GEN, CHAIN.A, CHAIN.B, np.full(2, 1.7e308)),
                         ValueError, "margins overflow"),
    "x-singular": (lambda: verify_lmi_xy(np.diag([1.0, 0.0]), np.ones(2), GEN, CHAIN.A, CHAIN.B), SingularX,
                   "X is numerically singular"),
    "theta-rho": (lambda: compute_theta(np.eye(2), GEN, 0.0), NonPositiveRho, "rho must be positive"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rejection_contract(case):
    call, error, match = CASES[case]
    with pytest.raises(error, match=match):
        call()
