from dataclasses import replace

import numpy as np
import pytest

from homocon.cones import ConeSpec
from homocon.graphs import DirectedGraph, solve_transmitted
from homocon.homogeneity import DilationGenerator, HomogeneousNormContext
from homocon.protocols import (
    IntegratorChain,
    control_input,
    control_input_many,
    linear_protocol,
    nonovershoot_protocol,
)
from homocon.simulation import (
    AxisSpec,
    DisturbanceSpec,
    NonConvergentStep,
    ScenarioConfig,
    lyapunov_violation,
    overshoot_metric,
    settling_time,
    simulate,
    simulate_batch,
    step_implicit_euler,
    write_trajectory_csv,
)
from test_graphs import cyclic_graph

PUBLISHED_P = np.array([[0.0020, 0.0005], [0.0005, 0.0012]])


def reference_axis(name="X", mu=-0.2, init=None, cone=True, disturbance=None):
    ctx = HomogeneousNormContext(DilationGenerator(2, mu), PUBLISHED_P)
    spec = nonovershoot_protocol(1.0, ctx)
    if init is None:
        init = np.array([[0.0, 0.0], [-2.0, 1.0], [-3.5, 1.0], [-5.0, 1.0]])
    cs = ConeSpec(2, 1.0, mu) if cone else None
    return AxisSpec(name, spec, init, cs, disturbance)


def chain_graph(N=3):
    return DirectedGraph.from_edges(N, [[i + 1, i, 1.0] for i in range(N)])


# -- generic implicit step ------------------------------------------------------

def test_implicit_step_linear_decay():
    x = step_implicit_euler(np.array([1.0]), lambda x: -x, 0.1)
    assert abs(float(x[0]) - 1.0 / 1.1) <= 1e-12


def test_implicit_step_zero_field_is_identity():
    x0 = np.array([2.0, -3.0])
    assert np.array_equal(step_implicit_euler(x0, lambda x: 0.0 * x, 0.1), x0)


def test_implicit_step_raises_on_stiff_divergence():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonConvergentStep):
            step_implicit_euler(np.array([1.0]), lambda x: -1e6 * x, 0.1)


def test_implicit_step_local_error_second_order():
    # |x_implicit - x_explicit| = O(dt^2) via a dt vs dt/2 comparison
    ctx = HomogeneousNormContext(DilationGenerator(2, -0.2), PUBLISHED_P)
    spec = nonovershoot_protocol(1.0, ctx)
    chain = IntegratorChain(2)

    def field(x):
        return chain.A @ x + chain.B.ravel() * control_input(spec, x)

    x0 = np.array([-1.5, 0.7])
    gaps = []
    for dt in (1e-3, 5e-4):
        xi = step_implicit_euler(x0, field, dt)
        xe = x0 + dt * field(x0)
        gaps.append(np.linalg.norm(xi - xe))
    ratio = gaps[0] / gaps[1]
    assert 2.5 <= ratio <= 6.0


def test_structured_step_matches_generic_fixed_point():
    graph = DirectedGraph.from_edges(1, [[1, 0, 1.0]])
    ax = reference_axis(init=np.array([[0.0, 0.0], [-2.0, 1.0]]), cone=False)
    scen = ScenarioConfig(graph, 2, (ax,), 1e-3, 1e-3)
    traj = simulate(scen)
    chain = IntegratorChain(2)

    def field(x):
        L, F = x[:2], x[2:]
        u = control_input(ax.protocol, F - L)
        return np.concatenate([chain.A @ L, chain.A @ F + chain.B.ravel() * u])

    ref = step_implicit_euler(ax.initial.reshape(-1), field, 1e-3)
    assert np.max(np.abs(traj.axis("X").states[1].reshape(-1) - ref)) <= 1e-10


# -- equilibrium and determinism --------------------------------------------------

def test_zero_initial_error_stays_zero():
    init = np.array([[1.0, 0.5], [1.0, 0.5], [1.0, 0.5], [1.0, 0.5]])
    ax = reference_axis(init=init)
    scen = ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, 0.5)
    traj = simulate(scen)
    at = traj.axis("X")
    assert np.all(at.errors == 0.0)
    assert np.all(at.controls == 0.0)
    assert settling_time(traj, 1e-3) == 0.0


def test_determinism_identical_arrays():
    amps = np.array([0.0, 0.2, 0.1, 0.3])
    ax = reference_axis(disturbance=DisturbanceSpec(amps))
    scen = ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, 0.5, "implicit_euler", 7)
    t1 = simulate(scen)
    t2 = simulate(scen)
    assert np.array_equal(t1.axis("X").states, t2.axis("X").states)
    assert np.array_equal(t1.axis("X").disturbance, t2.axis("X").disturbance)


def test_seed_changes_disturbance():
    amps = np.array([0.0, 0.2, 0.1, 0.3])
    ax = reference_axis(disturbance=DisturbanceSpec(amps))
    s1 = ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, 0.1, "implicit_euler", 1)
    s2 = ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, 0.1, "implicit_euler", 2)
    assert not np.array_equal(
        simulate(s1).axis("X").disturbance, simulate(s2).axis("X").disturbance
    )


# -- recording contracts -----------------------------------------------------------

def test_first_sample_is_initial_condition_exactly():
    ax = reference_axis()
    scen = ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, 0.1)
    traj = simulate(scen)
    assert np.array_equal(traj.axis("X").states[0], ax.initial)


def test_transmitted_equals_errors_along_run():
    # the simulator integrates e_i in place of the transmitted vector
    # v_i; the graph solver must return v_i = e_i at the recorded states,
    # on an acyclic chain and on cyclic follower dependencies
    for graph in (chain_graph(), cyclic_graph(6)):
        N = graph.num_followers
        init = np.array([[0.0, 0.0]] + [[-2.0 - 0.5 * i, 1.0] for i in range(N)])
        ax = reference_axis(init=init)
        traj = simulate(ScenarioConfig(graph, 2, (ax,), 1e-3, 0.2))
        at = traj.axis("X")
        for k in (0, 1, 5, 100, 200):
            v = solve_transmitted(graph, np.eye(2), at.states[k])
            assert np.max(np.abs(v - at.errors[k])) <= 1e-10


def test_recorded_transmitted_comes_from_graph_solver():
    # the recorded errors stand for the transmitted vector; they must be
    # what the graph solver returns at the recorded state
    ax = reference_axis()
    scen = ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, 0.01)
    traj = simulate(scen)
    at = traj.axis("X")
    k = 5
    ref = solve_transmitted(chain_graph(), np.eye(2), at.states[k])
    assert np.max(np.abs(at.errors[k] - ref)) <= 1e-12


def test_disturbance_realizations_within_interval():
    amps = np.array([0.0, 0.5, 0.25, 0.75])
    ax = reference_axis(disturbance=DisturbanceSpec(amps))
    scen = ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, 5.0, "implicit_euler", 11)
    traj = simulate(scen)
    q = traj.axis("X").disturbance[:-1]  # last node holds no draw
    for i, a in enumerate(amps):
        qi = q[:, i]
        assert qi.min() >= -a - 1e-15 and qi.max() <= a + 1e-15
        if a > 0:
            sigma = a / np.sqrt(3.0)
            assert abs(qi.mean()) <= 3.0 * sigma / np.sqrt(len(qi))


# -- metrics -----------------------------------------------------------------------

def test_settling_time_none_when_never_settles():
    ax = reference_axis()
    scen = ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, 0.05)
    traj = simulate(scen)
    assert settling_time(traj, 1e-9) is None


def test_overshoot_sign_conventions():
    ax = reference_axis(init=np.array([[0.0, 0.0], [0.5, 0.0], [-1.0, 1.0], [-2.0, 1.0]]))
    scen = ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, 0.01)
    traj = simulate(scen)
    assert overshoot_metric(traj, "X") >= 0.5  # starts ahead of the leader


def test_lyapunov_violation_helper():
    h = np.array([[1.0, 0.5], [0.9, 0.6], [0.8, 0.4]])
    # follower 2 rises 0.1 above its previous value while above floor
    assert lyapunov_violation(h) == pytest.approx(0.1)
    assert lyapunov_violation(np.array([[1e-7], [5.0]])) == 0.0  # below floor


# -- batch equivalence ---------------------------------------------------------------

def test_batch_of_one_matches_simulate():
    amps = np.array([0.0, 0.3, 0.2, 0.1])
    ax = reference_axis(disturbance=DisturbanceSpec(amps))
    scen = ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, 0.5, "implicit_euler", 5)
    traj = simulate(scen)
    batch = simulate_batch(scen, {"X": ax.initial[None]})
    at = traj.axis("X")
    assert np.array_equal(batch.hnorm["X"][:, 0, :], at.hnorm)
    sq = np.einsum("tij,tij->t", at.errors, at.errors)
    assert np.array_equal(batch.errsq_total[:, 0], sq)


def test_batch_runs_match_individual_seeds():
    amps = np.array([0.0, 0.3, 0.2, 0.1])
    base = reference_axis(disturbance=DisturbanceSpec(amps))
    inits = np.stack([base.initial, base.initial * 1.1, base.initial * 0.7])
    scen = ScenarioConfig(chain_graph(), 2, (base,), 1e-3, 0.2, "implicit_euler", 30)
    batch = simulate_batch(scen, {"X": inits})
    for b in range(3):
        ax_b = AxisSpec("X", base.protocol, inits[b], base.cone,
                        DisturbanceSpec(amps, seed=30 + b))
        scen_b = ScenarioConfig(chain_graph(), 2, (ax_b,), 1e-3, 0.2,
                                "implicit_euler", 30)
        tb = simulate(scen_b)
        assert np.array_equal(batch.hnorm["X"][:, b, :], tb.axis("X").hnorm)


# -- axis independence ---------------------------------------------------------------
# Axes share one integration sweep; each must come out exactly as if
# it were integrated alone. Disturbances carry explicit seeds, since a
# seedless axis draws from a stream keyed by its position.


def _mu_minus_one_axes():
    # both laws discontinuous at the origin; small errors and matched
    # disturbances make both axes snap to zero and hit the bracket
    from homocon.certificates import solve_lmi_p, solve_lmi_xy
    from homocon.protocols import consensus_protocol, linear_gain

    gen = DilationGenerator(2, -1.0)
    chain = IntegratorChain(2)
    cert_x = solve_lmi_p(gen, chain.A, chain.B, linear_gain(2, 1.0))
    cert_y = solve_lmi_xy(gen, chain.A, chain.B)
    spec_x = nonovershoot_protocol(1.0, HomogeneousNormContext(gen, cert_x.P))
    spec_y = consensus_protocol(cert_y.K, HomogeneousNormContext(gen, cert_y.P))
    init_x = np.array([[0.0, 0.0], [-0.005, 0.0025], [-0.175, 0.05], [-0.25, 0.05]])
    init_y = np.array([[0.0, 0.05], [0.075, 0.05], [-0.05, 0.05], [-0.125, 0.05]])
    dist_x = DisturbanceSpec(0.3 * np.array([0.0, 0.540, 0.444, 0.462]), seed=11)
    dist_y = DisturbanceSpec(0.3 * np.array([0.030, 0.428, 0.533, 0.441]), seed=12)
    return (
        AxisSpec("X", spec_x, init_x, ConeSpec(2, 1.0, -1.0), dist_x),
        AxisSpec("Y", spec_y, init_y, None, dist_y),
    )


def _mu_minus_one():
    return ScenarioConfig(chain_graph(), 2, _mu_minus_one_axes(), 1e-3, 1.0)


def _curved_and_linear_cyclic():
    from homocon.certificates import solve_lmi_p
    from homocon.cli import fit_unit_ball
    from homocon.protocols import linear_gain

    N, n = 6, 3
    gen = DilationGenerator(n, -0.5)
    chain = IntegratorChain(n)
    cert = solve_lmi_p(gen, chain.A, chain.B, linear_gain(n, 1.0))
    cone = ConeSpec(n, 1.0, -0.5)
    rng = np.random.default_rng(8)
    errs = np.stack([np.linalg.solve(cone.H, rng.uniform(0.5, 2.0, n)) for _ in range(N)])
    ctx = HomogeneousNormContext(gen, fit_unit_ball(cert.P, errs))
    init_x = np.vstack([np.zeros((1, n)), errs])
    init_y = rng.uniform(-2.0, 2.0, (N + 1, n))
    dist_y = DisturbanceSpec(rng.uniform(0.0, 0.3, N + 1), seed=5)
    axes = (
        AxisSpec("X", nonovershoot_protocol(1.0, ctx), init_x, cone),
        AxisSpec("Y", linear_protocol(n, 1.0), init_y, ConeSpec(n, 1.0), dist_y),
    )
    return ScenarioConfig(cyclic_graph(N), n, axes, 1e-3, 0.3)


def _rk4_two_degrees():
    # different degrees per axis: per-row dilation entries in one solve
    from homocon.certificates import solve_lmi_xy
    from homocon.protocols import consensus_protocol

    gen = DilationGenerator(2, -0.5)
    chain = IntegratorChain(2)
    cert = solve_lmi_xy(gen, chain.A, chain.B)
    spec_y = consensus_protocol(cert.K, HomogeneousNormContext(gen, cert.P))
    init_y = np.array([[0.0, 1.0], [1.5, 1.0], [-1.0, 1.0], [-2.5, 1.0]])
    dist_y = DisturbanceSpec(np.array([0.03, 0.2, 0.1, 0.3]), seed=3)
    axes = (reference_axis(), AxisSpec("Y", spec_y, init_y, None, dist_y))
    return ScenarioConfig(chain_graph(), 2, axes, 1e-3, 0.5, "rk4")


def _batch_mixed_kinds():
    # a discontinuous law beside a degree-zero (closed-form) one
    from homocon.certificates import verify_lmi_xy
    from homocon.protocols import consensus_protocol

    X = np.array([[0.8281, -0.3107], [-0.3107, 0.9377]])
    Y = np.array([0.7502, 0.5000])
    gen = DilationGenerator(2, 0.0)
    chain = IntegratorChain(2)
    cert = verify_lmi_xy(X, Y, gen, chain.A, chain.B)
    ax_x = _mu_minus_one_axes()[0]
    init_y = np.array([[0.0, 1.0], [1.5, 1.0], [-1.0, 1.0], [-2.5, 1.0]])
    dist_y = DisturbanceSpec(np.array([0.03, 0.428, 0.533, 0.441]), seed=21)
    ax_y = AxisSpec("Y", consensus_protocol(cert.K, HomogeneousNormContext(gen, cert.P)),
                    init_y, None, dist_y)
    return ScenarioConfig(chain_graph(), 2, (ax_x, ax_y), 1e-3, 0.6)


TWO_AXIS_CASES = {
    "mu_minus_one_snap_and_bracket": _mu_minus_one,
    "curved_and_linear_cyclic": _curved_and_linear_cyclic,
    "rk4": _rk4_two_degrees,
    "batch": _batch_mixed_kinds,
}


@pytest.mark.parametrize("case", sorted(TWO_AXIS_CASES))
def test_two_axes_equal_each_axis_alone(case, monkeypatch):
    import homocon.simulation as simulation

    scen = TWO_AXIS_CASES[case]()
    alone = [replace(scen, axes=(ax,)) for ax in scen.axes]
    if case == "batch":
        factors = np.array([1.0, 0.6, 1.3])[:, None, None]
        inits = {ax.name: ax.initial[None] * factors for ax in scen.axes}
        scales = [1.0, 0.5, 0.8]
        both = simulate_batch(scen, inits, scales)
        singles = [simulate_batch(one, inits, scales) for one in alone]
        for ax, single in zip(scen.axes, singles):
            for field in ("efirst_max", "hnorm", "phimin"):
                x, y = getattr(both, field)[ax.name], getattr(single, field)[ax.name]
                assert (x is None and y is None) or np.array_equal(x, y), field
        total = singles[0].errsq_total + singles[1].errsq_total
        assert np.array_equal(both.errsq_total, total)
        return

    brackets = []
    bracketed = simulation._bracketed_roots

    def counted(*args):
        brackets.append(1)
        return bracketed(*args)

    monkeypatch.setattr(simulation, "_bracketed_roots", counted)
    traj = simulate(scen)
    for ax, one in zip(scen.axes, alone):
        before = len(brackets)
        a, b = traj.axis(ax.name), simulate(one).axis(ax.name)
        for field in ("states", "errors", "controls", "hnorm", "barrier", "disturbance"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x is None and y is None) or np.array_equal(x, y), (ax.name, field)
        if case == "mu_minus_one_snap_and_bracket":
            # this axis alone slides onto the origin and needs the bracket
            assert np.any(np.all(b.errors == 0.0, axis=2)), ax.name
            assert len(brackets) > before, ax.name


# -- integrator behaviour --------------------------------------------------------------

def _nominal_preset():
    from homocon.cli import _preset_config, build_scenario

    cfg = _preset_config("homogeneous_nominal")
    cfg["sim"]["horizon"] = 3.0
    return build_scenario(cfg)


@pytest.mark.parametrize(
    "make", [_nominal_preset, _curved_and_linear_cyclic], ids=["mu-0.2", "mu-0.5-n3"]
)
def test_recorded_controls_solve_the_implicit_law(make):
    # under implicit Euler controls[k] is the law at node k, so the step's
    # root solve must leave w = u(e) to its stopping tolerance
    scen = make()
    traj = simulate(scen)
    for ax in scen.axes:
        at = traj.axis(ax.name)
        T, N, n = at.errors.shape
        u, _ = control_input_many(ax.protocol, at.errors.reshape(-1, n))
        u = u.reshape(T, N)
        assert np.all(np.abs(at.controls - u) <= 1e-12 * (1.0 + np.abs(u))), ax.name


def test_grid_refinement_first_order():
    # terminal state converges at first order: successive dt-halving
    # differences shrink by about a factor of two
    init = np.array([[0.0, 0.0], [-2.0, 1.0]])
    graph = DirectedGraph.from_edges(1, [[1, 0, 1.0]])
    terms = []
    for dt in (2e-3, 1e-3, 5e-4):
        ax = reference_axis(mu=-0.5, init=init, cone=False)
        scen = ScenarioConfig(graph, 2, (ax,), dt, 1.0)
        traj = simulate(scen)
        terms.append(traj.axis("X").errors[-1, 0])
    d1 = np.linalg.norm(terms[0] - terms[1])
    d2 = np.linalg.norm(terms[1] - terms[2])
    assert 1.4 <= d1 / d2 <= 3.0


def test_rk4_close_to_implicit_on_smooth_segment():
    init = np.array([[0.0, 0.0], [-2.0, 1.0]])
    graph = DirectedGraph.from_edges(1, [[1, 0, 1.0]])
    out = {}
    for integ in ("implicit_euler", "rk4"):
        ax = reference_axis(init=init, cone=False)
        scen = ScenarioConfig(graph, 2, (ax,), 1e-3, 0.5, integ)
        out[integ] = simulate(scen).axis("X").errors[-1, 0]
    assert np.linalg.norm(out["rk4"] - out["implicit_euler"]) <= 5e-3


def test_monotone_homogeneous_norm_along_nominal_run():
    ax = reference_axis()
    scen = ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, 8.0)
    traj = simulate(scen)
    assert lyapunov_violation(traj.axis("X").hnorm, floor=1e-6) <= 1e-9


def test_degree_zero_consensus_equals_linear_kind_trajectory():
    # with the dilation degree at zero the homogeneous law is -K v, so
    # whole trajectories must agree with the linear kind bit for bit
    from homocon.certificates import verify_lmi_xy
    from homocon.protocols import ProtocolKind, ProtocolSpec, consensus_protocol

    X = np.array([[0.8281, -0.3107], [-0.3107, 0.9377]])
    Y = np.array([0.7502, 0.5000])
    chain = IntegratorChain(2)
    cert = verify_lmi_xy(X, Y, DilationGenerator(2, 0.0), chain.A, chain.B)
    ctx = HomogeneousNormContext(DilationGenerator(2, 0.0), cert.P)
    spec_h = consensus_protocol(cert.K, ctx)
    spec_l = ProtocolSpec(ProtocolKind.LINEAR, 2, cert.K)
    graph = DirectedGraph.from_edges(1, [[1, 0, 1.0]])
    init = np.array([[0.0, 1.0], [1.5, 1.0]])
    amps = np.array([0.03, 0.428])
    runs = []
    for spec in (spec_h, spec_l):
        ax = AxisSpec("Y", spec, init, None, DisturbanceSpec(amps))
        scen = ScenarioConfig(graph, 2, (ax,), 1e-3, 1.0, "implicit_euler", 3)
        runs.append(simulate(scen).axis("Y"))
    assert np.array_equal(runs[0].errors, runs[1].errors)
    assert np.array_equal(runs[0].controls, runs[1].controls)
    # the degree-zero axis still records the weighted norm
    e5 = runs[0].errors[5, 0]
    assert runs[0].hnorm[5, 0] == pytest.approx(np.sqrt(e5 @ cert.P @ e5), rel=1e-12)


def test_implicit_trajectory_converges_to_ivp_reference():
    # independent oracle: a high-order adaptive integrator on the same
    # closed-loop field; the implicit scheme converges to it at first order
    from scipy.integrate import solve_ivp

    from homocon.protocols import error_field

    ctx = HomogeneousNormContext(DilationGenerator(2, -0.2), PUBLISHED_P)
    spec = nonovershoot_protocol(1.0, ctx)
    chain = IntegratorChain(2)
    sol = solve_ivp(
        lambda t, e: error_field(chain, spec, e),
        [0.0, 2.0], [-2.0, 1.0], rtol=1e-11, atol=1e-13, method="DOP853",
    )
    ref = sol.y[:, -1]
    graph = DirectedGraph.from_edges(1, [[1, 0, 1.0]])
    init = np.array([[0.0, 0.0], [-2.0, 1.0]])
    gaps = []
    for dt in (1e-3, 1e-4):
        scen = ScenarioConfig(graph, 2, (AxisSpec("X", spec, init),), dt, 2.0)
        traj = simulate(scen)
        gaps.append(np.linalg.norm(traj.axis("X").errors[-1, 0] - ref))
    assert gaps[0] <= 1e-3
    assert 5.0 <= gaps[0] / gaps[1] <= 20.0  # first order in dt


def test_third_order_chain_full_stack():
    from homocon.certificates import solve_lmi_p
    from homocon.cli import fit_unit_ball
    from homocon.cones import ConeSpec, check_initial_admissible, invariance_monitor
    from homocon.protocols import linear_gain

    gen = DilationGenerator(3, -0.2)
    chain = IntegratorChain(3)
    cert = solve_lmi_p(gen, chain.A, chain.B, linear_gain(3, 1.0))
    cone = ConeSpec(3, 1.0, -0.2)
    rng = np.random.default_rng(3)
    Hinv = np.linalg.inv(cone.H)
    errs = np.stack([Hinv @ rng.uniform(0.2, 1.0, 3) for _ in range(2)])
    P = fit_unit_ball(cert.P, errs)
    ctx = HomogeneousNormContext(gen, P)
    assert check_initial_admissible(errs, cone, ctx).admissible_homogeneous
    init = np.vstack([np.zeros((1, 3)), errs])
    graph = DirectedGraph.from_edges(2, [[1, 0, 1.0], [2, 1, 1.0]])
    spec = nonovershoot_protocol(1.0, ctx)
    scen = ScenarioConfig(graph, 3, (AxisSpec("X", spec, init, cone),), 1e-3, 15.0)
    traj = simulate(scen)
    assert overshoot_metric(traj, "X") <= 1e-6
    assert settling_time(traj, 1e-3, "X") is not None
    mon = invariance_monitor(traj, "X")
    assert mon.min_value >= -1e-6
    assert lyapunov_violation(traj.axis("X").hnorm) <= 1e-9


def test_disturbance_beyond_control_authority_stays_finite():
    # amplitudes twice the sphere gain bound defeat exact rejection; the
    # run must still integrate cleanly with bounded errors
    from homocon.certificates import solve_lmi_p
    from homocon.protocols import linear_gain

    gen = DilationGenerator(2, -1.0)
    chain = IntegratorChain(2)
    cert = solve_lmi_p(gen, chain.A, chain.B, linear_gain(2, 1.0))
    ctx = HomogeneousNormContext(gen, cert.P)
    spec = nonovershoot_protocol(1.0, ctx)
    graph = DirectedGraph.from_edges(1, [[1, 0, 1.0]])
    init = np.array([[0.0, 0.0], [-1.0, 0.5]])
    amp = 2.0 * spec.sphere_gain_bound()
    ax = AxisSpec("X", spec, init, None, DisturbanceSpec(np.array([0.0, amp])))
    scen = ScenarioConfig(graph, 2, (ax,), 1e-3, 5.0, "implicit_euler", 13)
    traj = simulate(scen)
    e = traj.axis("X").errors
    assert np.all(np.isfinite(e))
    assert np.abs(e).max() <= 10.0


# -- CSV ---------------------------------------------------------------------------------

def test_csv_layout_and_roundtrip(tmp_path):
    amps = np.array([0.0, 0.2, 0.1, 0.3])
    axX = reference_axis(disturbance=DisturbanceSpec(amps))
    scen = ScenarioConfig(chain_graph(), 2, (axX,), 1e-3, 0.01, "implicit_euler", 3)
    traj = simulate(scen)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,agent,axis,x1,x2,u,e1,e2,hnorm,phi1,phi2,q"
    assert len(lines) == 1 + 11 * 4  # 10 steps + initial node, 4 agents, 1 axis
    data = np.genfromtxt(path, delimiter=",", names=True, dtype=None, encoding=None)
    row = data[5]  # t=0.001, agent 1
    k, agent = 1, 1
    assert row["t"] == pytest.approx(0.001)
    assert int(row["agent"]) == agent
    assert row["x1"] == pytest.approx(traj.axis("X").states[k, agent, 0], abs=0)
    assert row["e1"] == pytest.approx(traj.axis("X").errors[k, agent - 1, 0], abs=0)
    assert row["q"] == pytest.approx(traj.axis("X").disturbance[k, agent], abs=0)


def test_csv_deterministic_bytes(tmp_path):
    ax = reference_axis(disturbance=DisturbanceSpec(np.array([0.0, 0.2, 0.1, 0.3])))
    scen = ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, 0.05, "implicit_euler", 9)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(simulate(scen), p1)
    write_trajectory_csv(simulate(scen), p2)
    assert p1.read_bytes() == p2.read_bytes()


# -- config validation ----------------------------------------------------------------

def test_scenario_rejects_bad_dt():
    ax = reference_axis()
    with pytest.raises(ValueError):
        ScenarioConfig(chain_graph(), 2, (ax,), -1.0, 1.0)


def test_scenario_rejects_unrooted_graph_and_nonfinite_times():
    ax = reference_axis()
    # followers 1 and 2 only hear each other; the leader reaches 3 alone
    unrooted = DirectedGraph.from_edges(3, [[1, 2, 1.0], [2, 1, 1.0], [3, 0, 1.0]])
    with pytest.raises(ValueError, match="leader-rooted"):
        ScenarioConfig(unrooted, 2, (ax,), 1e-3, 1.0)
    for dt, horizon in ((np.nan, 1.0), (1e-3, np.nan), (1e-3, np.inf), (np.inf, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            ScenarioConfig(chain_graph(), 2, (ax,), dt, horizon)


def test_specs_reject_nonfinite_values():
    init = np.array([[0.0, 0.0], [-2.0, np.nan], [-3.5, 1.0], [-5.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        reference_axis(init=init)
    with pytest.raises(ValueError, match="finite"):
        DisturbanceSpec(np.array([0.0, np.inf, 0.1, 0.1]))
    with pytest.raises(ValueError, match="finite"):
        DisturbanceSpec(np.full(4, 0.1), offsets=np.array([0.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        replace(linear_protocol(2, 1.0), gain=np.array([np.nan, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        DirectedGraph.from_edges(1, [[1, 0, np.inf]])


def test_scenario_rejects_dimension_mismatch():
    ax = reference_axis(init=np.array([[0.0, 0.0], [-1.0, 0.0]]))  # 1 follower, graph has 3
    with pytest.raises(ValueError):
        ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, 1.0)


def test_linear_protocol_runs_without_norm_context():
    spec = linear_protocol(2, 1.0)
    init = np.array([[0.0, 0.0], [-2.0, 1.0], [-3.0, 1.0], [-4.0, 1.0]])
    ax = AxisSpec("X", spec, init, ConeSpec(2, 1.0))
    scen = ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, 0.5)
    traj = simulate(scen)
    assert overshoot_metric(traj, "X") <= 0.0
