import numpy as np
import pytest

from homocon.cones import (
    ConeSpec,
    barrier_matrix,
    check_initial_admissible,
    gamma_matrix,
    homogeneous_barrier,
    invariance_monitor,
    linear_barrier,
    metzler_check,
)
from homocon.homogeneity import (
    DilationGenerator,
    HomogeneousNormContext,
    dilation_matrix,
)
from homocon.protocols import IntegratorChain, linear_gain
from oracles import bisect_norm

PUBLISHED_P = np.array([[0.0020, 0.0005], [0.0005, 0.0012]])


# -- barrier matrix -------------------------------------------------------------

def test_barrier_matrix_n2():
    assert np.array_equal(barrier_matrix(2, 1.0), [[-1.0, 0.0], [-1.0, -1.0]])


def test_barrier_matrix_n1():
    assert np.array_equal(barrier_matrix(1, 2.0), [[-1.0]])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_barrier_matrix_maps_input_column(n):
    chain = IntegratorChain(n)
    H = barrier_matrix(n, 1.3)
    assert np.allclose(H @ chain.B, -chain.B, atol=1e-12)


# -- linear barrier --------------------------------------------------------------

def test_linear_barrier_examples():
    spec = ConeSpec(2, 1.0)
    assert np.array_equal(linear_barrier(spec, [0.0, 0.0]), [0.0, 0.0])
    assert np.array_equal(linear_barrier(spec, [-1.0, 0.0]), [1.0, 1.0])
    assert np.array_equal(linear_barrier(spec, [1.0, 0.0]), [-1.0, -1.0])


# -- homogeneous barrier ----------------------------------------------------------

def test_homogeneous_barrier_on_unit_sphere_reduces_to_linear():
    spec = ConeSpec(2, 1.0, -0.2)
    ctx = HomogeneousNormContext(DilationGenerator(2, -0.2), PUBLISHED_P)
    rng = np.random.default_rng(40)
    for _ in range(20):
        e = rng.normal(size=2)
        e = e / np.sqrt(e @ PUBLISHED_P @ e)
        assert np.allclose(
            homogeneous_barrier(spec, ctx, e), linear_barrier(spec, e), atol=1e-10
        )


def test_homogeneous_barrier_zero_at_apex():
    spec = ConeSpec(2, 1.0, -0.2)
    ctx = HomogeneousNormContext(DilationGenerator(2, -0.2), PUBLISHED_P)
    assert np.array_equal(homogeneous_barrier(spec, ctx, [0.0, 0.0]), [0.0, 0.0])


def test_homogeneous_membership_dilation_invariant():
    spec = ConeSpec(2, 1.0, -0.2)
    ctx = HomogeneousNormContext(DilationGenerator(2, -0.2), PUBLISHED_P)
    rng = np.random.default_rng(41)
    for _ in range(1000):
        e = rng.normal(size=2) * rng.uniform(0.01, 10.0)
        s = rng.uniform(-4.0, 4.0)
        phi = homogeneous_barrier(spec, ctx, e)
        phi_s = homogeneous_barrier(spec, ctx, dilation_matrix(ctx.gen, s) @ e)
        assert np.array_equal(np.sign(np.round(phi, 12)), np.sign(np.round(phi_s, 12)))


def test_homogeneous_barrier_composed_oracle():
    spec = ConeSpec(2, 1.0, -0.2)
    ctx = HomogeneousNormContext(DilationGenerator(2, -0.2), PUBLISHED_P)
    e = np.array([-0.5, 0.1])
    r = bisect_norm(ctx, e)
    expected = spec.H @ (e * np.exp(-np.log(r) * ctx.gen.diag_entries))
    assert np.allclose(homogeneous_barrier(spec, ctx, e), expected, atol=1e-8)


# -- admissibility ----------------------------------------------------------------

def test_admissibility_binomial_sum_pass():
    spec = ConeSpec(2, 1.0, -0.2)
    ctx = HomogeneousNormContext(DilationGenerator(2, -0.2), PUBLISHED_P)
    report = check_initial_admissible([[-1.0, 0.5]], spec, ctx)
    entry = report.entries[0]
    assert entry.sum_checks[0][1] == pytest.approx(-0.5)
    assert entry.sum_checks[0][2]
    assert report.admissible_homogeneous


def test_admissibility_apex_passes():
    spec = ConeSpec(2, 1.0, -0.2)
    ctx = HomogeneousNormContext(DilationGenerator(2, -0.2), PUBLISHED_P)
    report = check_initial_admissible([[0.0, 0.0]], spec, ctx)
    assert report.admissible_linear and report.admissible_homogeneous


def test_admissibility_binomial_sum_fail():
    spec = ConeSpec(2, 1.0, -0.2)
    ctx = HomogeneousNormContext(DilationGenerator(2, -0.2), PUBLISHED_P)
    report = check_initial_admissible([[-0.1, 0.5]], spec, ctx)
    entry = report.entries[0]
    assert entry.sum_checks[0][1] == pytest.approx(0.4)
    assert not entry.sum_checks[0][2]
    assert not report.admissible_homogeneous


def test_binomial_sums_match_linear_cone():
    # the k = 2..n sum conditions plus e_1 <= 0 are exactly H e >= 0
    rng = np.random.default_rng(42)
    for n in (2, 3, 4):
        spec = ConeSpec(n, 1.7)
        for _ in range(50):
            e = rng.normal(size=n)
            report = check_initial_admissible([e], spec)
            entry = report.entries[0]
            sums_ok = all(ok for (_, _, ok) in entry.sum_checks)
            assert entry.linear_cone_ok == (sums_ok and entry.first_component_ok)


# -- gamma matrix -----------------------------------------------------------------

def test_gamma_identity_for_linear_case():
    assert np.array_equal(gamma_matrix(DilationGenerator(2, 0.0), 1.0), np.eye(2))


def test_gamma_example_mu_minus_one():
    G = gamma_matrix(DilationGenerator(2, -1.0), 1.0)
    assert np.array_equal(G, [[2.0, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("mu", [-1.0, -0.5, -0.2])
def test_gamma_intertwines_barrier_and_dilation(n, mu):
    lam = 1.0
    gen = DilationGenerator(n, mu)
    H = barrier_matrix(n, lam)
    G = gamma_matrix(gen, lam)
    assert np.max(np.abs(H @ gen.matrix() - G @ H)) <= 1e-12
    assert np.min(G) >= 0.0  # entrywise nonnegative for mu in [-1, 0)
    assert np.min(np.diag(G)) > 0.0 and np.allclose(G, np.tril(G))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_barrier_similarity_transform(n):
    for lam in (0.5, 1.0, 2.0):
        chain = IntegratorChain(n)
        H = barrier_matrix(n, lam)
        Acl = chain.A - chain.B @ linear_gain(n, lam).reshape(1, -1)
        lhs = H @ Acl @ np.linalg.inv(H)
        assert np.max(np.abs(lhs - (chain.A - lam * np.eye(n)))) <= 1e-10


# -- Metzler ----------------------------------------------------------------------

def test_metzler_examples():
    chain = IntegratorChain(2)
    assert metzler_check(chain.A - 1.0 * np.eye(2))
    assert not metzler_check([[0.0, -1.0], [0.0, 0.0]])


def test_metzler_shifted_gamma():
    gen = DilationGenerator(3, -0.5)
    chain = IntegratorChain(3)
    G = gamma_matrix(gen, 1.0)
    for gamma in (0.1, 1.0, 10.0):
        assert metzler_check(chain.A - 1.0 * np.eye(3) + gamma * G)


# -- monitor ----------------------------------------------------------------------

def test_monitor_flags_start_outside_cone():
    from homocon.graphs import DirectedGraph
    from homocon.simulation import AxisSpec, ScenarioConfig, simulate
    from homocon.protocols import nonovershoot_protocol

    ctx = HomogeneousNormContext(DilationGenerator(2, -0.2), PUBLISHED_P)
    spec = nonovershoot_protocol(1.0, ctx)
    cone = ConeSpec(2, 1.0, -0.2)
    graph = DirectedGraph.from_edges(1, [[1, 0, 1.0]])
    init = np.array([[0.0, 0.0], [0.5, 0.3]])  # follower ahead: outside
    scen = ScenarioConfig(graph, 2, (AxisSpec("X", spec, init, cone),), 1e-3, 0.05)
    traj = simulate(scen)
    report = invariance_monitor(traj, "X")
    assert report.violation_time == 0.0
    assert report.min_value < -1e-6


def test_monitor_reads_recorded_barrier():
    from homocon.graphs import DirectedGraph
    from homocon.simulation import AxisSpec, ScenarioConfig, simulate
    from homocon.protocols import linear_protocol, nonovershoot_protocol

    ctx = HomogeneousNormContext(DilationGenerator(2, -0.2), PUBLISHED_P)
    cone = ConeSpec(2, 1.0, -0.2)
    graph = DirectedGraph.from_edges(1, [[1, 0, 1.0]])
    init = np.array([[0.0, 0.0], [-2.0, 1.0]])
    axes = (
        AxisSpec("X", nonovershoot_protocol(1.0, ctx), init, cone),
        AxisSpec("Y", linear_protocol(2, 1.0), init),
    )
    traj = simulate(ScenarioConfig(graph, 2, axes, 1e-3, 0.5))
    at = traj.axis("X")
    # the recorded barrier agrees with the library's own evaluation
    for k in range(0, len(traj.times), 50):
        assert np.allclose(
            at.barrier[k, 0], homogeneous_barrier(cone, ctx, at.errors[k, 0]), atol=1e-10
        )
    assert invariance_monitor(traj, "X").min_value == float(at.barrier.min())
    with pytest.raises(ValueError):
        invariance_monitor(traj, "Y")


def test_cone_invariant_under_nonpositive_disturbance():
    # componentwise nonpositive matched disturbances on the followers
    # leave the homogeneous cone positively invariant for mu in (-1, 0)
    from homocon.certificates import solve_lmi_p
    from homocon.graphs import DirectedGraph
    from homocon.protocols import IntegratorChain, linear_gain, nonovershoot_protocol
    from homocon.simulation import (
        AxisSpec,
        DisturbanceSpec,
        ScenarioConfig,
        simulate,
    )

    chain = IntegratorChain(2)
    gen = DilationGenerator(2, -0.5)
    cert = solve_lmi_p(gen, chain.A, chain.B, linear_gain(2, 1.0))
    from homocon.cli import fit_unit_ball

    init = np.array([[0.0, 0.0], [-2.0, 1.0], [-3.0, 1.0], [-4.0, 1.0]])
    P = fit_unit_ball(cert.P, init[1:] - init[0])
    ctx = HomogeneousNormContext(gen, P)
    cone = ConeSpec(2, 1.0, -0.5)
    graph = DirectedGraph.from_edges(3, [[1, 0, 1.0], [2, 1, 1.0], [3, 2, 1.0]])
    a = 0.15
    amps = np.array([0.0, a, a, a])
    offsets = np.array([0.0, -a, -a, -a])  # draws from [-2a, 0]
    ax = AxisSpec("X", nonovershoot_protocol(1.0, ctx), init, cone,
                  DisturbanceSpec(amps, offsets=offsets))
    scen = ScenarioConfig(graph, 2, (ax,), 1e-3, 6.0, "implicit_euler", 77)
    traj = simulate(scen)
    assert float(traj.axis("X").disturbance.max()) <= 0.0
    report = invariance_monitor(traj, "X")
    assert report.min_value >= -1e-6
    assert report.violation_time is None


def test_linear_barrier_dynamics_consistency():
    # along the linear closed loop, d/dt(H e) = (A - lam I)(H e)
    from homocon.graphs import DirectedGraph
    from homocon.simulation import AxisSpec, ScenarioConfig, simulate
    from homocon.protocols import linear_protocol

    lam, dt = 1.0, 1e-4
    spec = linear_protocol(2, lam)
    cone = ConeSpec(2, lam)
    graph = DirectedGraph.from_edges(1, [[1, 0, 1.0]])
    init = np.array([[0.0, 0.0], [-2.0, 1.0]])
    scen = ScenarioConfig(graph, 2, (AxisSpec("X", spec, init, cone),), dt, 0.5)
    traj = simulate(scen)
    e = traj.axis("X").errors[:, 0, :]
    phi = e @ cone.H.T
    dphi = (phi[2:] - phi[:-2]) / (2 * dt)
    rhs = phi[1:-1] @ (IntegratorChain(2).A - lam * np.eye(2)).T
    assert np.max(np.abs(dphi - rhs)) <= 5e-4
