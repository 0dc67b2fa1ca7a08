import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from homocon.cones import ConeSpec
from homocon.graphs import DirectedGraph, solve_transmitted
from homocon.homogeneity import DilationGenerator, HomogeneousNormContext
from homocon.protocols import (
    IntegratorChain,
    consensus_protocol,
    control_input,
    control_input_many,
    linear_gain,
    linear_protocol,
    nonovershoot_protocol,
)
from homocon.simulation import (
    _DRAW_CHUNK,
    AxisSpec,
    DisturbanceSpec,
    NonConvergentStep,
    ScenarioConfig,
    lyapunov_violation,
    overshoot_metric,
    settling_time,
    simulate,
    simulate_batch,
    write_trajectory_csv,
)
from oracles import step_implicit_euler
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


def test_lyapunov_violation_in_slices_equals_one_max():
    import homocon.simulation as simulation

    def one_max(h, floor):
        inc = h[1:] - h[:-1]
        mask = h[:-1] > floor
        if not mask.any():
            return 0.0
        return float(np.max(np.where(mask, inc, -np.inf)))

    S = simulation._LYAPUNOV_SLICE
    rng = np.random.default_rng(4)
    cases = [np.array([[0.3]]), np.full((5, 2), 1e-9), np.array([[np.nan], [1.0]]),
             np.array([[1.0], [np.nan]])]
    for T in (2, S, S + 1, S + 2, 2 * S + 3):
        h = np.exp(-np.linspace(0.0, 30.0, T))[:, None, None] * rng.uniform(0.5, 1.0, (T, 3, 2))
        cases.append(h)
        if T > S:
            rise = h.copy()
            rise[S, 1, 0] = rise[S - 1, 1, 0] + 2.0  # the largest, out of a slice's last node
            cases.append(rise)
        holes = h.copy()
        holes[rng.random(h.shape) < 0.01] = np.nan
        cases.append(holes)
    for h in cases:
        for floor in (1e-6, 0.0, 1e-9, 2.0):
            got, want = lyapunov_violation(h, floor), one_max(h, floor)
            assert type(got) is float
            assert _same_arrays(np.float64(got), np.float64(want)), (h.shape, floor, got, want)


# -- batch equivalence ---------------------------------------------------------------

def _assert_batch_run_equals(batch, b, traj):
    """Run b of ``batch`` holds the reductions of the recorded run
    ``traj`` bit for bit."""
    sq = sum(np.einsum("tij,tij->t", at.errors, at.errors) for at in traj.axes)
    assert _same_arrays(np.ascontiguousarray(batch.errsq_total[:, b]), sq), b
    for at in traj.axes:
        phimin = None if at.barrier is None else at.barrier.reshape(len(sq), -1).min(axis=1)
        want = {"efirst_max": at.errors[:, :, 0].max(axis=1), "hnorm": at.hnorm, "phimin": phimin}
        for field, y in want.items():
            x = getattr(batch, field)[at.name]
            if y is None:
                assert x is None, (field, at.name)
            else:
                assert _same_arrays(np.ascontiguousarray(x[:, b]), y), (field, at.name, b)


# The batch recorder reduces its nodes once per draw chunk: these runs
# end inside the first chunk, on its last node, one node past it, and
# one node past the second.
@pytest.mark.parametrize("steps", [1, _DRAW_CHUNK, _DRAW_CHUNK + 1, 2 * _DRAW_CHUNK + 1])
def test_batch_of_one_matches_simulate(steps):
    amps = np.array([0.0, 0.3, 0.2, 0.1])
    ax = reference_axis(disturbance=DisturbanceSpec(amps))
    scen = ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, steps * 1e-3, "implicit_euler", 5)
    assert scen.steps == steps
    _assert_batch_run_equals(simulate_batch(scen, {"X": ax.initial[None]}), 0, simulate(scen))


def test_batch_runs_match_individual_seeds():
    # with one follower, a run alone makes every product with one row,
    # which BLAS rounds through another kernel than the same row among
    # others
    for N, mu in ((3, -0.2), (1, -0.5)):
        amps = np.array([0.0, 0.3, 0.2, 0.1])[:N + 1]
        base = reference_axis(mu=mu, init=reference_axis().initial[:N + 1],
                              disturbance=DisturbanceSpec(amps))
        inits = np.stack([base.initial, base.initial * 1.1, base.initial * 0.7])
        scen = ScenarioConfig(chain_graph(N), 2, (base,), 1e-3, 0.2, "implicit_euler", 30)
        batch = simulate_batch(scen, {"X": inits})
        for b in range(3):
            ax_b = AxisSpec("X", base.protocol, inits[b], base.cone,
                            DisturbanceSpec(amps, seed=30 + b))
            scen_b = ScenarioConfig(chain_graph(N), 2, (ax_b,), 1e-3, 0.2,
                                    "implicit_euler", 30)
            _assert_batch_run_equals(batch, b, simulate(scen_b))


def test_settling_batch_runs_match_individual_runs(monkeypatch):
    # undisturbed runs that settle at different nodes: the batch steps
    # the settled runs' rows on at the origin and ends once the last run
    # settles, while each run alone advances its leaders to the end
    blocks = _blocks(monkeypatch)
    scen = _settling_scenario()
    X0 = scen.axes[0].initial
    inits = np.stack([X0 * 0.2, X0, X0 * 0.5])
    batch = simulate_batch(scen, {"X": inits})
    for b in range(3):
        tb = simulate(replace(scen, axes=(replace(scen.axes[0], initial=inits[b]),)))
        _assert_batch_run_equals(batch, b, tb)
    # the batch, then runs 0.2, 1.0 and 0.5: each comes to rest in the
    # third draw chunk and settles at its end
    assert [block.settled_node for block in blocks] == [3 * _DRAW_CHUNK] * 4


def test_batch_ignores_leader_overflow():
    # a common disturbance offset of 1e308 drives every leader's state
    # past the float range within the run, while dq = q_i - q_0 = 0
    # leaves the errors undisturbed: the batch never advances the
    # leaders, a recorded run does
    zero = np.zeros(4)
    ax = reference_axis(disturbance=DisturbanceSpec(zero, offsets=np.full(4, 1e308)))
    scen = ScenarioConfig(chain_graph(), 2, (ax,), 1e-2, 2.0)
    batch = simulate_batch(scen, {"X": ax.initial[None]})
    for x in (batch.efirst_max["X"], batch.hnorm["X"], batch.phimin["X"], batch.errsq_total):
        assert np.isfinite(x).all()
    _assert_batch_run_equals(batch, 0, simulate(replace(scen, axes=(replace(ax, disturbance=None),))))
    with pytest.raises(NonConvergentStep, match="non-finite"):
        simulate(scen)


@pytest.mark.parametrize("gap, runs, shared", [(1, 7921, True), (1, 7920, True), (1, 7919, False),
                                              (2, 7921, False)])
def test_batch_rejects_disturbance_streams_shared_across_axes(gap, runs, shared):
    # run b of a disturbed axis i without a seed draws the stream seeded
    # seed + 7919 i + b, so axes i < j would share one once B > 7919 (j - i):
    # at B = 7921, run 7919 + b of X drew run b of Y's draws
    ax = AxisSpec("X", linear_protocol(2, 1.0), np.array([[0.0, 0.0], [-1.0, 0.5]]),
                  disturbance=DisturbanceSpec(np.array([0.1, 0.2])))
    between = tuple(replace(ax, name=f"U{i}", disturbance=None) for i in range(gap - 1))
    axes = (ax,) + between + (replace(ax, name="Y"),)
    scen = ScenarioConfig(chain_graph(1), 2, axes, 1e-2, 0.05, "implicit_euler", 3)
    inits = {a.name: np.broadcast_to(ax.initial, (runs, 2, 2)) for a in axes}
    if shared:
        with pytest.raises(ValueError, match="share disturbance streams"):
            simulate_batch(scen, inits)
        # the guard leaves an axis with a seed of its own to its caller
        seeded = replace(axes[-1], disturbance=replace(ax.disturbance, seed=10**6))
        scen = replace(scen, axes=axes[:-1] + (seeded,))
    batch = simulate_batch(scen, inits)
    assert np.isfinite(batch.errsq_total).all()


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


def _step_stop_edge():
    # runs 4 and 19 of the mu = -1 disturbed benchmark sweep at seed 12
    # (perfbench/workloads.py), to 2.4 s: a Newton step stop at 1e-6
    # freezes a few of their rows before |F| <= 1e-13 holds, 3e-7 none;
    # P is that sweep's fitted P
    P = np.array([[0.04588498401272345, 0.015294994670907818],
                  [0.015294994670907818, 0.015294994670907818]])
    spec = nonovershoot_protocol(1.0, HomogeneousNormContext(DilationGenerator(2, -1.0), P))
    amps = 0.3924229165314968 * np.array([0.0, 1.0, 1.0, 1.0])
    runs = {
        4: (21 / 30, [[0.0, 0.0], [-0.07668551315402389, -0.973954551899716],
                      [-1.2138722880878456, 0.3367888797547915],
                      [-0.9772285763984713, -2.6752001196588533]]),
        19: (4 / 30, [[0.0, 0.0], [-0.33790575755948454, -0.09475242981190346],
                      [-0.6379692947448414, 0.20279153975853426],
                      [-1.6036453622047668, 0.2095117445824142]]),
    }
    axes = tuple(
        AxisSpec(f"X{b}", spec, np.array(init), ConeSpec(2, 1.0, -1.0),
                 DisturbanceSpec(amps * scale, seed=12 + b))
        for b, (scale, init) in runs.items()
    )
    return ScenarioConfig(chain_graph(), 2, axes, 1e-3, 2.4)


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


def _two_degrees():
    # different degrees per axis: per-row dilation entries in one log-norm
    # Newton
    from homocon.certificates import solve_lmi_xy
    from homocon.protocols import consensus_protocol

    gen = DilationGenerator(2, -0.5)
    chain = IntegratorChain(2)
    cert = solve_lmi_xy(gen, chain.A, chain.B)
    spec_y = consensus_protocol(cert.K, HomogeneousNormContext(gen, cert.P))
    init_y = np.array([[0.0, 1.0], [1.5, 1.0], [-1.0, 1.0], [-2.5, 1.0]])
    dist_y = DisturbanceSpec(np.array([0.03, 0.2, 0.1, 0.3]), seed=3)
    axes = (reference_axis(), AxisSpec("Y", spec_y, init_y, None, dist_y))
    return ScenarioConfig(chain_graph(), 2, axes, 1e-3, 0.5)


def _batch_mixed_kinds():
    # a discontinuous law and a mu = -0.5 one about a degree-zero
    # (closed-form) one: the block puts the curved axes first, out of
    # cfg.axes order
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
    ax_w = reference_axis(
        "W", mu=-0.5, init=np.array([[0.0, 0.0], [-1.0, 0.5], [-2.0, 0.5], [-3.0, 1.0]])
    )
    return ScenarioConfig(chain_graph(), 2, (ax_x, ax_y, ax_w), 1e-3, 0.6)


def _four_axes():
    # affine axes ahead of curved ones in cfg.axes: mu = 0 with a cone,
    # mu = -1 with snaps and brackets, linear, mu = -0.5
    from homocon.certificates import verify_lmi_xy
    from homocon.protocols import consensus_protocol

    X = np.array([[0.8281, -0.3107], [-0.3107, 0.9377]])
    Y = np.array([0.7502, 0.5000])
    gen = DilationGenerator(2, 0.0)
    chain = IntegratorChain(2)
    cert = verify_lmi_xy(X, Y, gen, chain.A, chain.B)
    ax_z = AxisSpec(
        "Z", consensus_protocol(cert.K, HomogeneousNormContext(gen, cert.P)),
        np.array([[0.0, 1.0], [1.5, 1.0], [-1.0, 1.0], [-2.5, 1.0]]), ConeSpec(2, 1.0),
        DisturbanceSpec(np.array([0.03, 0.4, 0.5, 0.4]), seed=31),
    )
    ax_v = AxisSpec(
        "V", linear_protocol(2, 1.0),
        np.array([[0.0, 0.0], [-1.0, 0.0], [-2.0, 0.5], [-3.0, 1.0]]), ConeSpec(2, 1.0),
        DisturbanceSpec(np.array([0.0, 0.2, 0.1, 0.3]), seed=32),
    )
    ax_w = reference_axis(
        "W", mu=-0.5, init=np.array([[0.0, 0.0], [-1.0, 0.5], [-2.0, 0.5], [-3.0, 1.0]])
    )
    axes = (ax_z, _mu_minus_one_axes()[0], ax_v, ax_w)
    return ScenarioConfig(chain_graph(), 2, axes, 1e-3, 0.6)


TWO_AXIS_CASES = {
    "mu_minus_one_snap_and_bracket": _mu_minus_one,
    "curved_and_linear_cyclic": _curved_and_linear_cyclic,
    "two_degrees": _two_degrees,
    "batch": _batch_mixed_kinds,
    "four_axes": _four_axes,
}

# axes that, integrated alone, slide onto the origin and need the
# bracketed log-norm solve behind the Newton
SLIDING_AXES = {"mu_minus_one_snap_and_bracket": ("X", "Y"), "four_axes": ("X",)}


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
        # summed in cfg.axes order
        total = singles[0].errsq_total + singles[1].errsq_total + singles[2].errsq_total
        assert np.array_equal(both.errsq_total, total)
        return

    fallbacks = []
    solve = simulation._log_norm_roots

    def counted(*args):
        fallbacks.append(1)
        return solve(*args)

    monkeypatch.setattr(simulation, "_log_norm_roots", counted)
    traj = simulate(scen)
    for ax, one in zip(scen.axes, alone):
        before = len(fallbacks)
        a, b = traj.axis(ax.name), simulate(one).axis(ax.name)
        for field in ("states", "errors", "controls", "hnorm", "barrier", "disturbance"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x is None and y is None) or np.array_equal(x, y), (ax.name, field)
        if ax.name in SLIDING_AXES.get(case, ()):
            assert np.any(np.all(b.errors == 0.0, axis=2)), ax.name
            assert len(fallbacks) > before, ax.name


# -- settled-block fast path ---------------------------------------------------------


def _settling_scenario(axes=()):
    # mu = -0.2 from the preset's errors reaches the origin at t = 7.2 s,
    # behind a moving leader
    init = reference_axis().initial + np.array([1.0, 0.5])
    return ScenarioConfig(chain_graph(), 2, (reference_axis(init=init),) + axes, 1e-2, 12.0)


def _resting_follower(disturbed=False):
    # the first follower starts on its leader, so its error rests on the
    # origin from node 0; a disturbed second axis starts the same way but
    # is pushed off it by its draws
    scen = _settling_scenario()
    init = scen.axes[0].initial.copy()
    init[1] = init[0]
    axes = (replace(scen.axes[0], initial=init),)
    if disturbed:
        dist = DisturbanceSpec(np.array([0.0, 0.3, 0.3, 0.3]), seed=3)
        axes += (reference_axis("Y", init=init, disturbance=dist),)
    return replace(scen, axes=axes)


def _implicit_steps(monkeypatch):
    """Count the implicit steps, one list entry each."""
    import homocon.simulation as simulation

    steps = []
    step = simulation._Block.step_implicit

    def counted(self, *args):
        steps.append(None)
        return step(self, *args)

    monkeypatch.setattr(simulation._Block, "step_implicit", counted)
    return steps


def _same_arrays(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _blocks(monkeypatch):
    """Collect the row block of every integration."""
    import homocon.simulation as simulation

    blocks = []
    integrate = simulation._integrate

    def collected(*args):
        out = integrate(*args)
        blocks.append(out.block)
        return out

    monkeypatch.setattr(simulation, "_integrate", collected)
    return blocks


def _without_shortcuts(monkeypatch):
    import homocon.simulation as simulation

    monkeypatch.setattr(simulation, "_NEWTON_STEP", -1.0)
    _without_retirement(monkeypatch)


def test_settled_block_fast_path_is_bit_exact(monkeypatch):
    # the leader-only steps, the batch's early end and one reduction per
    # settled chunk, and the Newton step stop must all leave every bit
    # as it is
    import homocon.simulation as simulation

    scen = _settling_scenario()
    inits = {"X": scen.axes[0].initial[None] * np.array([1.0, 0.5, 0.2])[:, None, None]}
    steps = _implicit_steps(monkeypatch)
    blocks = _blocks(monkeypatch)
    fast_traj = simulate(scen)
    # the rows rest from node 719 (t = 7.19) on; the third chunk's end,
    # node 768, settles the block, and the leaders ran alone after it
    assert blocks[0].settled_node == 768
    assert _same_arrays(fast_traj.axes[0].errors[719], fast_traj.axes[0].errors[720])
    # the origin test runs only on steps where a row that does not yet
    # rest on the origin is within the law's reach of it
    assert blocks[0].origin_tests == 17
    assert len(steps) == 768
    del steps[:]
    nodes = []
    hnorm = simulation._Axis.hnorm

    def counted(self, E, s):
        nodes.append(E.shape[0])
        return hnorm(self, E, s)

    monkeypatch.setattr(simulation._Axis, "hnorm", counted)
    fast_batch = simulate_batch(scen, inits)
    # the largest run comes to rest last, in the same chunk; the third
    # chunk is reduced, the batch ends, and each of the two later chunks
    # is reduced from the settled node alone
    assert blocks[1].settled_node == 768
    assert len(steps) == 768
    assert nodes == [_DRAW_CHUNK + 1, _DRAW_CHUNK, _DRAW_CHUNK, 1, 1]
    _without_shortcuts(monkeypatch)
    traj, batch = simulate(scen), simulate_batch(scen, inits)
    assert blocks[2].settled_node is None and blocks[3].settled_node is None
    for field in ("states", "errors", "controls", "hnorm", "barrier", "disturbance"):
        assert _same_arrays(getattr(fast_traj.axes[0], field), getattr(traj.axes[0], field)), field
    for field in ("efirst_max", "hnorm", "phimin"):
        assert _same_arrays(getattr(fast_batch, field)["X"], getattr(batch, field)["X"]), field
    assert _same_arrays(fast_batch.errsq_total, batch.errsq_total)


def test_fast_path_waits_for_undisturbed_settled_rows(monkeypatch):
    # a linear axis decays but never reaches zero: the curved axis's
    # settling alone must not stop the implicit steps
    ax_y = AxisSpec("Y", linear_protocol(2, 1.0),
                    np.array([[0.0, 0.0], [-1.0, 0.5], [-2.0, 0.5], [-3.0, 1.0]]))
    scen = _settling_scenario((ax_y,))
    blocks = _blocks(monkeypatch)
    traj = simulate(scen)
    assert blocks[0].settled_node is None
    assert np.all(traj.axis("X").errors[-1] == 0.0)
    assert np.all(traj.axis("Y").errors[-1] != 0.0)
    # under matched disturbances the mu = -1 axes slide: steps place
    # every row on the origin and repeat their errors, but a later draw
    # could move them, so the block never settles
    traj = simulate(replace(_mu_minus_one(), horizon=2.0))
    assert blocks[1].settled_node is None
    errors = np.concatenate([ax.errors for ax in traj.axes], axis=1)
    bits = errors.reshape(len(errors), -1).view(np.uint64)
    repeats = np.nonzero((bits[1:] == 0).all(axis=1) & (bits[:-1] == 0).all(axis=1))[0]
    assert repeats.size


# -- retired rows ----------------------------------------------------------------------
# A curved row of an undisturbed axis that rests on the origin leaves the
# block's working set at the next draw-chunk boundary: the runs must equal,
# bit for bit, runs that keep every row working, with the same counts.

_STEP_COUNTS = ("newton_calls", "newton_passes", "newton_step_stops", "fallback_rows",
                "fallback_passes", "origin_tests")


def _without_retirement(monkeypatch):
    """Keep every curved row working and the block unsettled, so that the
    steps run to the horizon: a settled block's later steps would rest
    every row, with no Newton and no origin test."""
    import homocon.simulation as simulation

    monkeypatch.setattr(simulation._Block, "retire", lambda self, s: False)


def _working_rows(monkeypatch):
    """Record, after each chunk's ``retire``, the block's retired rows and
    its working curved rows."""
    import homocon.simulation as simulation

    rows = []
    retire = simulation._Block.retire

    def recorded(self, s):
        settled = retire(self, s)
        rows.append((self.retired_rows, len(self.curved) * self.group_rows))
        return settled

    monkeypatch.setattr(simulation._Block, "retire", recorded)
    return rows


def test_retired_rows_keep_every_bit_of_a_batch(monkeypatch):
    # smaller runs come to rest sooner: rows leave the working set at
    # the chunk boundaries 256 and 512, and the batch settles at 768
    scen = _settling_scenario()
    inits = {"X": scen.axes[0].initial[None] * np.array([1.0, 0.3, 0.01, 0.001])[:, None, None]}
    blocks = _blocks(monkeypatch)
    rows = _working_rows(monkeypatch)
    fast = simulate_batch(scen, inits)
    assert rows == [(3, 9), (7, 5), (7, 5)]
    _without_retirement(monkeypatch)
    slow = simulate_batch(scen, inits)
    assert blocks[1].retired_rows == 0
    assert (blocks[0].settled_node, blocks[1].settled_node) == (768, None)
    assert [getattr(blocks[0], c) for c in _STEP_COUNTS] == [getattr(blocks[1], c) for c in _STEP_COUNTS]
    for field in ("efirst_max", "hnorm", "phimin"):
        assert _same_arrays(getattr(fast, field)["X"], getattr(slow, field)["X"]), field
    assert _same_arrays(fast.errsq_total, slow.errsq_total)


@pytest.mark.parametrize(
    "make, rows",
    [
        # X rests from about 6 s and Y moves on: both axes keep the
        # largest moving count of Y, X with resting rows among them
        (lambda: replace(_preset("homogeneous_nominal"), horizon=13.0), [(0, 6)] * 45 + [(2, 4)] * 3 + [(4, 2)] * 3),
        # the curved rows retire while the linear axis moves on; one of
        # them, at rest, stays working
        (lambda: _settling_scenario((AxisSpec("Y", linear_protocol(2, 1.0), np.array(
            [[0.0, 0.0], [-1.0, 0.5], [-2.0, 0.5], [-3.0, 1.0]])),)), [(0, 3)] * 2 + [(2, 1)] * 3),
        (_resting_follower, [(1, 2)] * 3),
        # a disturbed curved axis keeps every row working
        (lambda: _resting_follower(True), [(0, 6)] * 5),
        # undisturbed mu = -1 axes: the bracketed solve runs on working
        # rows of both axes after some rows retired
        (lambda: replace(_mu_minus_one(), horizon=3.0, axes=tuple(
            replace(ax, disturbance=None) for ax in _mu_minus_one_axes())),
         [(0, 6)] * 3 + [(2, 4)] * 2 + [(4, 2)] * 2),
    ],
    ids=["mu-0.2-two-axes", "mu-0.2-and-linear", "mu-0.2-resting", "mu-0.2-resting-and-disturbed",
         "mu-1-undisturbed"],
)
def test_retired_rows_keep_every_bit(make, rows, monkeypatch):
    scen = make()
    blocks = _blocks(monkeypatch)
    working = _working_rows(monkeypatch)
    fast = simulate(scen)
    assert working == rows
    _without_retirement(monkeypatch)
    slow = simulate(scen)
    assert (blocks[1].retired_rows, blocks[1].settled_node) == (0, None)
    assert [getattr(blocks[0], c) for c in _STEP_COUNTS] == [getattr(blocks[1], c) for c in _STEP_COUNTS]
    for a, b in zip(fast.axes, slow.axes):
        for field in ("states", "errors", "controls", "hnorm", "barrier", "disturbance"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x is None and y is None) or _same_arrays(x, y), (a.name, field)


# -- log-norm fallback ---------------------------------------------------------------


def _fallback_calls(monkeypatch, scen):
    """Integrate ``scen`` and record, per _log_norm_roots call, its
    block, rows, their errors a, result and passes. Returns (calls,
    block, trajectory)."""
    import homocon.simulation as simulation

    calls = []
    solve = simulation._log_norm_roots

    def recorded(block, a, s, s0, rows):
        w, s_rows, passes = solve(block, a, s, s0, rows)
        calls.append({"block": block, "rows": rows.copy(), "a": a[rows], "w": w.copy(),
                      "s": s_rows.copy(), "passes": passes})
        return w, s_rows, passes

    monkeypatch.setattr(simulation, "_log_norm_roots", recorded)
    blocks = _blocks(monkeypatch)
    traj = simulate(scen)
    return calls, blocks[0], traj


@pytest.mark.parametrize(
    "make, bound",
    [(_mu_minus_one, 9), (lambda: _preset("homogeneous_robust"), 7)],
    ids=["mu-1-sliding", "mu-1-disturbed"],
)
def test_fallback_passes_are_bounded(make, bound, monkeypatch):
    calls, block, _ = _fallback_calls(monkeypatch, make())
    passes = [c["passes"] for c in calls]
    assert passes and max(passes) <= bound, passes
    assert (block.fallback_rows, block.fallback_passes) == (
        sum(c["rows"].size for c in calls), sum(passes)
    )


def test_one_bracket_call_per_step_across_axes(monkeypatch):
    # two copies of one axis leave rows open on the same steps: one
    # bracketed solve a step takes the rows of both, in the passes that
    # one copy alone takes
    x = _mu_minus_one_axes()[0]
    alone = replace(_mu_minus_one(), axes=(x,))
    calls, block, traj = _fallback_calls(monkeypatch, replace(alone, axes=(x, replace(x, name="X2"))))
    assert (block.fallback_rows, block.fallback_passes) == (4, 9)
    assert all(np.unique(c["rows"] // (block.B * block.N)).size == 2 for c in calls)
    single = simulate(alone).axis("X")
    for name in ("X", "X2"):
        for field in ("states", "errors", "controls", "hnorm", "barrier", "disturbance"):
            assert _same_arrays(getattr(traj.axis(name), field), getattr(single, field)), (name, field)


def test_bracket_returns_a_root_or_a_sign_change(monkeypatch):
    from homocon.homogeneity import canonical_norm_many

    calls, _, _ = _fallback_calls(monkeypatch, _mu_minus_one())
    assert calls
    for c in calls:
        block = c["block"]
        beta, axis = block.beta, c["rows"] // (block.B * block.N)
        for j in np.unique(axis):
            protocol = block.curved[j].spec.protocol
            a, w, s = c["a"][axis == j], c["w"][axis == j], c["s"][axis == j]

            def residual(w):
                return w - control_input_many(protocol, a + w[:, None] * beta)[0]

            solved = np.abs(residual(w)) <= 1e-12 * (1.0 + np.abs(w))
            h = 1e-13 * (1.0 + np.abs(w))
            f_lo, f_hi = residual(w - h), residual(w + h)
            assert np.all(solved | (f_lo * f_hi <= 0.0)), (residual(w), f_lo, f_hi)
            _, log_norms = canonical_norm_many(protocol.norm_ctx, a + w[:, None] * beta)
            assert np.all(np.abs(s - log_norms) <= 1e-12), (s, log_norms)


def test_fallback_pass_cap_raises(monkeypatch):
    import homocon.simulation as simulation

    monkeypatch.setattr(simulation, "_ROOT_PASSES", 2)
    with pytest.raises(NonConvergentStep, match="log-norm solve"):
        simulate(replace(_mu_minus_one(), horizon=0.3))


# -- integrator behaviour --------------------------------------------------------------

def _preset(run):
    from homocon.cli import _preset_config, build_scenario

    cfg = _preset_config(run)
    cfg["sim"]["horizon"] = 3.0
    return build_scenario(cfg)


@pytest.mark.parametrize(
    "make, passes",
    [(lambda: _preset("homogeneous_nominal"), 10), (lambda: _preset("homogeneous_robust"), 10),
     (lambda: _preset("homogeneous_robust"), 3), (_curved_and_linear_cyclic, 10)],
    ids=["mu-0.2", "mu-1-disturbed", "mu-1-disturbed-3-passes", "mu-0.5-n3"],
)
def test_recorded_controls_solve_the_implicit_law(make, passes, monkeypatch):
    # under implicit Euler controls[k] is the law at node k, so the step's
    # root solve must leave w = u(e) to its stopping tolerance. Where the
    # mu = -1 law is discontinuous, two kinds of node cannot meet it: an
    # error snapped exactly to the origin, where the law is set-valued and
    # the control must be one of its values, and a jump of the law across
    # the diagonal, where the step's residual w - u(a + w beta) changes
    # sign within 1e-13 (1 + |w|). With fewer Newton passes, the rows
    # still open after the last one take the bracketed solve, which must
    # meet the law as well
    import homocon.simulation as simulation

    scen = make()
    blocks = _blocks(monkeypatch)
    traj = simulate(scen)
    if passes != simulation._NEWTON_PASSES:
        monkeypatch.setattr(simulation, "_NEWTON_PASSES", passes)
        traj = simulate(scen)
        assert blocks[1].fallback_rows > blocks[0].fallback_rows
    block = simulation._Block(scen, [ax.initial[None] for ax in scen.axes])
    for ax in scen.axes:
        at = traj.axis(ax.name)
        T, N, n = at.errors.shape
        u, _ = control_input_many(ax.protocol, at.errors.reshape(-1, n))
        u = u.reshape(T, N)
        solved = np.abs(at.controls - u) <= 1e-12 * (1.0 + np.abs(u))
        if ax.protocol.mu != -1.0:
            assert np.all(solved), ax.name
            continue
        origin = np.all(at.errors == 0.0, axis=2)
        bound = ax.protocol.sphere_gain_bound() * (1.0 + 1e-9)
        assert np.all(np.abs(at.controls[origin]) <= bound), ax.name
        k, i = np.nonzero(~(solved | origin))
        assert np.all(k > 0), ax.name  # node 0 holds the law's own value
        dq = at.disturbance[k - 1, i + 1] - at.disturbance[k - 1, 0]
        a = at.errors[k - 1, i] @ block.R.T + dq[:, None] * block.beta
        w = at.controls[k, i]
        h = 1e-13 * (1.0 + np.abs(w))
        f_lo, f_hi = (
            w + d - control_input_many(ax.protocol, a + (w + d)[:, None] * block.beta)[0]
            for d in (-h, h)
        )
        assert np.all(f_lo * f_hi <= 0.0), (ax.name, k, i)


# -- Newton step stop ----------------------------------------------------------------
# A row frozen by the step test would have met the residual test on the
# next pass: disabling the test must leave every array as it is.


@pytest.mark.parametrize(
    "make",
    [lambda: _preset("homogeneous_nominal"), lambda: _preset("homogeneous_robust"),
     _curved_and_linear_cyclic, _mu_minus_one, _step_stop_edge],
    ids=["mu-0.2", "mu-1-disturbed", "mu-0.5-n3", "mu-1-sliding", "mu-1-edge"],
)
def test_newton_step_stop_keeps_every_bit(make, monkeypatch):
    scen = make()
    blocks = _blocks(monkeypatch)
    fast = simulate(scen)
    assert blocks[0].newton_step_stops > 0
    _without_shortcuts(monkeypatch)
    slow = simulate(scen)
    assert blocks[1].newton_step_stops == 0
    assert blocks[0].newton_passes < blocks[1].newton_passes
    for a, b in zip(fast.axes, slow.axes):
        for field in ("states", "errors", "controls", "hnorm", "barrier", "disturbance"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x is None and y is None) or _same_arrays(x, y), (a.name, field)


def test_newton_counts_of_the_nominal_preset(monkeypatch):
    # exact counts pin the work per step; a change that adds passes or
    # stops the step test from firing shows here
    blocks = _blocks(monkeypatch)
    simulate(_preset("homogeneous_nominal"))
    (block,) = blocks
    # 3,000 steps of six curved rows: one pass per step but two, and all
    # but three row solves frozen by the step test (6,002 passes without
    # it)
    assert (block.newton_calls, block.newton_passes, block.newton_step_stops) == (3000, 3002, 17997)
    assert (block.fallback_rows, block.fallback_passes) == (0, 0)
    assert block.settled_node is None  # the preset settles at 5.886 s
    # no row comes within reach of the origin in the first 3 s
    assert block.origin_tests == 0


def test_newton_and_fallback_counts_of_the_robust_preset(monkeypatch):
    # the mu = -1 disturbed preset sends a few rows a step, where a + w
    # beta cancels, past the Newton; exact counts show a change in how
    # many, or in the passes their bracketed solve takes (9,490 Newton
    # passes without the step test)
    blocks = _blocks(monkeypatch)
    simulate(_preset("homogeneous_robust"))
    (block,) = blocks
    assert (block.newton_calls, block.newton_passes, block.newton_step_stops) == (3000, 7654, 13830)
    assert (block.fallback_rows, block.fallback_passes) == (4, 17)
    assert block.settled_node is None  # a disturbed block never settles
    assert block.origin_tests == 881


def _near_origin_disturbed():
    # mu = -0.95, errors of 0.03 under amplitudes of 0.09 to 0.26: a
    # regime that leans on the bracketed solve behind the Newton, with
    # its rows within reach of the origin on a third of the steps
    from homocon.certificates import solve_lmi_p
    from homocon.protocols import linear_gain

    gen = DilationGenerator(2, -0.95)
    chain = IntegratorChain(2)
    cert = solve_lmi_p(gen, chain.A, chain.B, linear_gain(2, 1.0))
    cone = ConeSpec(2, 1.0, -0.95)
    rng = np.random.default_rng(0)
    errors = np.stack([np.linalg.solve(cone.H, rng.uniform(0.5, 1.0, 2)) for _ in range(3)])
    errors *= 0.03 / np.linalg.norm(errors, axis=1)[:, None]
    amps = np.concatenate([[0.0], rng.uniform(0.09, 0.26, 3)])
    ax = AxisSpec("X", nonovershoot_protocol(1.0, HomogeneousNormContext(gen, cert.P)),
                  np.vstack([np.zeros((1, 2)), errors]), cone, DisturbanceSpec(amps, seed=0))
    return ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, 1.0)


def test_fallback_counts_near_the_origin(monkeypatch):
    # exact counts of a deterministic run: about one row a step takes the
    # bracketed solve
    blocks = _blocks(monkeypatch)
    simulate(_near_origin_disturbed())
    (block,) = blocks
    assert (block.newton_calls, block.newton_passes) == (1000, 1939)
    assert (block.fallback_rows, block.fallback_passes) == (992, 3103)
    assert block.origin_tests == 356


# -- work buffers ----------------------------------------------------------------------
# The residual writes into buffers made once per block; its values must
# be those of a new array for every operation, and nothing a step
# returns may be one of those buffers.


def _residual_block(groups, rows, n, mus, rng):
    """The row block of ``groups`` curved axes (a non-overshooting law
    first, consensus laws with random gains after it), each of ``rows``
    runs of one follower, with random diagonal P."""
    import homocon.simulation as simulation

    axes = []
    for j, mu in enumerate(mus[:groups]):
        ctx = HomogeneousNormContext(DilationGenerator(n, mu), np.diag(rng.uniform(0.2, 5.0, n)))
        spec = (nonovershoot_protocol(1.0, ctx) if j == 0
                else consensus_protocol(rng.uniform(0.1, 3.0, n), ctx))
        axes.append(AxisSpec(f"A{j}", spec, np.zeros((2, n))))
    scen = ScenarioConfig(chain_graph(1), n, tuple(axes), 1e-2, 1e-2)
    return simulation._Block(scen, [np.zeros((rows, 2, n))] * groups)


_SPECIAL_S = st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -0.0])


@settings(max_examples=80)
@given(
    groups=st.integers(1, 3),
    rows=st.integers(1, 40),
    n=st.sampled_from([2, 3, 4]),
    mus=st.lists(st.floats(-1.0, -0.01), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@example(groups=2, rows=1, n=2, mus=[-1.0, -0.2, -0.5], seed=0, data=None)
# the block shapes of the sweeps: 30 runs of mu = -1 and 100 of mu = -0.2
@example(groups=1, rows=90, n=2, mus=[-1.0, -0.2, -0.5], seed=1, data=None)
@example(groups=1, rows=300, n=2, mus=[-0.2, -1.0, -0.5], seed=2, data=None)
def test_buffered_residual_equals_the_allocating_one(groups, rows, n, mus, seed, data):
    import homocon.simulation as simulation
    from oracles import log_norm_residual

    m = groups * rows
    rng = np.random.default_rng(seed)
    block = _residual_block(groups, rows, n, mus, rng)
    if data is None:  # the specials first, then log norms from a generator of their own
        s = np.random.default_rng([seed, 1]).uniform(-40.0, 40.0, m)
        s[:5] = [np.nan, -0.0, np.inf, -np.inf, 0.0][:m]
    else:
        s = np.array(data.draw(st.lists(st.one_of(st.floats(-40.0, 40.0), _SPECIAL_S),
                                        min_size=m, max_size=m)))
    a = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (m, 1))
    a[rng.random((m, n)) < 0.1] = -0.0
    a[rng.random((m, n)) < 0.1] = 0.0
    with np.errstate(all="ignore"):
        # the block's buffers, once filled from other inputs
        simulation._log_norm_residual(block, a[::-1].copy(), s[::-1].copy())
        outs = [
            (simulation._log_norm_residual(block, a, s), log_norm_residual(block, a, s)),
            ((simulation._log_norm_residual(block, a, s, True),), (log_norm_residual(block, a, s, True),)),
        ]
    for got, want in outs:
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert _same_arrays(np.ascontiguousarray(x), np.ascontiguousarray(y))


@pytest.mark.parametrize(
    "make",
    [lambda: _preset("homogeneous_nominal"), _curved_and_linear_cyclic, _mu_minus_one,
     _near_origin_disturbed],
    ids=["mu-0.2", "mu-0.5-and-linear", "mu-1-sliding", "mu-0.95-near-origin"],
)
def test_step_implicit_returns_arrays_it_does_not_reuse(make):
    import homocon.simulation as simulation

    scen = make()
    block = simulation._Block(scen, [ax.initial[None] for ax in scen.axes])
    buffers = [x for x in vars(block.work).values() if isinstance(x, np.ndarray)]
    zero = 0.0 * block.beta[None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w, s = block.eval(block.E0, None)
        first = block.step_implicit(block.E0, zero, w, s)
        kept = [x.copy() for x in first]
        second = block.step_implicit(first[0], zero, first[1], first[2])
    assert not all(_same_arrays(x, y) for x, y in zip(first, second))
    for x, y in zip(first, kept):
        assert _same_arrays(x, y)
        assert not any(np.shares_memory(x, b) for b in buffers)


# -- origin screen ---------------------------------------------------------------------
# A step skips the origin test only where no row can be placed on the
# origin but those of undisturbed axes already resting there: the
# screened runs must equal, bit for bit, runs that test every step.


@pytest.mark.parametrize(
    "make",
    [_mu_minus_one, _settling_scenario, lambda: _preset("homogeneous_robust"),
     _near_origin_disturbed, _resting_follower, lambda: _resting_follower(True)],
    ids=["mu-1-sliding", "mu-0.2-settling", "mu-1-disturbed", "mu-0.95-near-origin",
         "mu-0.2-resting", "mu-0.2-resting-and-disturbed"],
)
def test_origin_screen_keeps_every_bit(make, monkeypatch):
    import homocon.simulation as simulation
    from oracles import solve_control_roots

    scen = make()
    blocks = _blocks(monkeypatch)
    screened = simulate(scen)
    steps = blocks[0].settled_node or scen.steps
    # both kinds of step occur
    assert 0 < blocks[0].origin_tests < steps
    monkeypatch.setattr(simulation._Block, "_solve_control_roots", solve_control_roots)
    tested = simulate(scen)
    counts = ("newton_calls", "newton_passes", "newton_step_stops", "fallback_rows",
              "fallback_passes", "settled_node")
    assert [getattr(blocks[0], c) for c in counts] == [getattr(blocks[1], c) for c in counts]
    assert _same_arrays(screened.times, tested.times)
    for a, b in zip(screened.axes, tested.axes):
        for field in ("states", "errors", "controls", "hnorm", "barrier", "disturbance"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x is None and y is None) or _same_arrays(x, y), (a.name, field)


def _one_row_block(mu, n, dt, reach):
    """The row block of one nonovershooting follower whose P is scaled so
    that c0 |beta| = reach, c0 = max(snap_bound, cmax (1 + 1e-9)) (cmax
    scales as P^(-1/2)), and the largest |wpar| with which the origin
    test can place a row of it on the origin: c0 for mu = -1, else
    max(snap_bound, cmax (1 + 1e-9) min(sqrt(lmax(P)) r, 1)^ball_exp),
    the near test's bound at the largest snap distance r of a row with
    |wpar| <= c0 (its line within r of the origin, so |a| <= about
    c0 |beta|)."""
    import homocon.simulation as simulation
    from homocon.certificates import solve_lmi_p
    from homocon.protocols import linear_gain

    gen = DilationGenerator(n, mu)
    chain = IntegratorChain(n)
    P = solve_lmi_p(gen, chain.A, chain.B, linear_gain(n, 1.0)).P

    def block(P):
        spec = nonovershoot_protocol(1.0, HomogeneousNormContext(gen, P))
        scen = ScenarioConfig(chain_graph(1), n, (AxisSpec("X", spec, np.zeros((2, n))),), dt, dt)
        b = simulation._Block(scen, [np.zeros((1, 2, n))])
        return b, max(b.snap_bound[0], b.ball[0, 0])

    b, c0 = block(P)
    b, c0 = block(P * (c0 * b.root_btb / reach) ** 2)
    c_ball, root_lmax, ball_exp = b.ball[0]
    cb = c0 * b.root_btb
    r = 1e-12 * (1.0 + (1e-12 * (1.0 + cb) + cb) / (1.0 - 1e-12) + cb)
    return b, max(b.snap_bound[0], c_ball * min(root_lmax * r, 1.0) ** ball_exp)


@settings(max_examples=60)
@given(
    mu=st.floats(-1.0, 0.0, exclude_max=True),
    n=st.sampled_from([2, 3]),
    dt=st.floats(1e-3, 0.5),
    exponent=st.floats(-30.0, 3.0),
    w_frac=st.floats(-1.0, 1.0),
    d_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_origin_screen_admits_every_row_within_reach(mu, n, dt, exponent, w_frac, d_frac, seed):
    # a row a within the snap distance 1e-12 (1 + |a| + |w| |beta|) of
    # -w beta, |w| <= c, may be placed on the origin: the screen must
    # leave it to the origin test, at every magnitude c0 |beta|, with c
    # for mu > -1 the near test's far smaller bound
    from homocon._linalg import rowsum

    block, c = _one_row_block(mu, n, dt, 10.0 ** exponent)
    beta = block.beta
    w = w_frac * c
    u = np.random.default_rng(seed).normal(size=n)
    u /= np.linalg.norm(u)
    wb = abs(w) * block.root_btb
    d = d_frac * 1e-12 * (1.0 + 2.0 * wb) * u
    a = -w * beta + d
    assume(np.linalg.norm(d) <= 1e-12 * (1.0 + np.linalg.norm(a) + wb))
    assert np.isfinite(block.reach2[0])
    assert rowsum(a * a) <= block.reach2[0]  # admitted


@pytest.mark.parametrize("mu, n", [(-1.0, 2), (-0.2, 2), (-0.5, 3)])
@pytest.mark.parametrize("exponent", [-30.0, -6.0, 3.0])
def test_origin_screen_rejects_rows_at_twice_its_reach(mu, n, exponent):
    # beyond the screen's reach the origin test could not place the row
    # there: its line misses the snap distance or |wpar| exceeds c
    from homocon._linalg import grouped_matmul, rowsum

    block, c = _one_row_block(mu, n, 0.01, 10.0 ** exponent)
    beta = block.beta
    for u in np.random.default_rng(7).normal(size=(20, n)):
        a = (2.0 * np.sqrt(block.reach2[0]) * u / np.linalg.norm(u))[None]
        assert rowsum(a * a)[0] > block.reach2[0]  # rejected
        wpar = grouped_matmul(a, beta) / -block.btb
        resid = a + wpar[:, None] * beta
        r = 1e-12 * (1.0 + np.sqrt(rowsum(a * a)) + np.abs(wpar) * block.root_btb)
        assert not (np.sqrt(rowsum(resid * resid)) <= r and np.abs(wpar) <= c)


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


def test_implicit_euler_is_the_only_integrator():
    graph = DirectedGraph.from_edges(1, [[1, 0, 1.0]])
    ax = reference_axis(init=np.array([[0.0, 0.0], [-2.0, 1.0]]), cone=False)
    assert ScenarioConfig(graph, 2, (ax,), 1e-3, 0.5, "implicit_euler").integrator == "implicit_euler"
    with pytest.raises(ValueError, match="implicit_euler"):
        ScenarioConfig(graph, 2, (ax,), 1e-3, 0.5, "rk4")


def test_monotone_homogeneous_norm_along_nominal_run():
    ax = reference_axis()
    scen = ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, 8.0)
    traj = simulate(scen)
    assert lyapunov_violation(traj.axis("X").hnorm, floor=1e-6) <= 1e-9


# -- consistent discretization ----------------------------------------------------------
# The implicit Euler step keeps the homogeneous Lyapunov decrease and
# finite-time convergence at any step size (Polyakov, Efimov & Brogliato,
# SIAM J. Control Optim., 2019). Near mu = 0 the law is close to linear:
# its errors decay exponentially until the snap test places them on the
# origin, so the settling time stays bounded as mu -> 0.


def _settling_horizon(mu, dt):
    """Time within which the undisturbed laws of this test settle from
    the unit ball, with a margin of at least 45 % (measured at n = 3:
    5.4 s at mu = -1 to 34 s as mu -> 0 for dt -> 0, and 10 s to 42 s
    at dt = 0.5)."""
    return (1.0 + 2.0 * dt) * min(8.0 + 2.0 / abs(mu), 50.0)


@settings(max_examples=30)
# failed before the bracket stopped at a width of 1e-14 |w| (the first)
# and before a solve that ends within the snap distance was placed on
# the origin (the second): the projected barrier read -1.8 and -1.07
@example(dt=0.5, mu=-0.6257377209350057, n=3, N=2, cyclic=False, seed=2664482376)
@example(dt=0.5, mu=-0.875, n=2, N=1, cyclic=False, seed=13)
# failed while the rows the joint Newton left open went to a bracket on
# w: at node 19 the step ended at |e| = 4.6e-12, just outside the snap
# distance, with a first component below the float grid of a + w beta
@example(dt=0.4314284310298477, mu=-1.0, n=3, N=2, cyclic=False, seed=2)
@given(
    dt=st.floats(1e-3, 0.5),
    mu=st.floats(-1.0, 0.0, exclude_max=True),
    n=st.sampled_from([2, 3]),
    N=st.integers(1, 4),
    cyclic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_implicit_step_converges_in_finite_time_at_any_dt(dt, mu, n, N, cyclic, seed):
    from homocon.certificates import solve_lmi_p
    from homocon.cli import fit_unit_ball
    from homocon.cones import check_initial_admissible
    from homocon.protocols import linear_gain

    gen = DilationGenerator(n, mu)
    chain = IntegratorChain(n)
    cert = solve_lmi_p(gen, chain.A, chain.B, linear_gain(n, 1.0))
    cone = ConeSpec(n, 1.0, mu)
    rng = np.random.default_rng(seed)
    errors = np.stack([np.linalg.solve(cone.H, rng.uniform(0.05, 1.0, n)) for _ in range(N)])
    ctx = HomogeneousNormContext(gen, fit_unit_ball(cert.P, errors))
    assume(check_initial_admissible(errors, cone, ctx).admissible_homogeneous)
    graph = cyclic_graph(N) if cyclic and N > 1 else chain_graph(N)
    init = np.vstack([np.zeros((1, n)), errors])
    ax = AxisSpec("X", nonovershoot_protocol(1.0, ctx), init, cone)
    traj = simulate(ScenarioConfig(graph, n, (ax,), dt, _settling_horizon(mu, dt)))
    at = traj.axis("X")
    assert overshoot_metric(traj, "X") <= 0.0
    assert at.barrier.min() >= 0.0
    assert lyapunov_violation(at.hnorm, floor=0.0) <= 0.0
    settled = np.all(at.errors == 0.0, axis=(1, 2))
    assert settled[-1]
    assert settled[np.argmax(settled):].all()  # and stays there


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


def test_csv_rows_follow_node_axis_agent_order(tmp_path):
    # one template per time node covers every (axis, agent) row; a % in
    # an axis name is text, not a conversion
    ax_x = reference_axis("X%d")
    ax_y = AxisSpec("Y", linear_protocol(2, 1.0), reference_axis().initial)
    traj = simulate(ScenarioConfig(chain_graph(), 2, (ax_x, ax_y), 1e-3, 0.003))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    keys = [(float(r[0]), r[2], int(r[1])) for r in rows]
    assert keys == [(traj.times[k], name, agent)
                    for k in range(4) for name in ("X%d", "Y") for agent in range(4)]
    row = rows[3 * 8 + 4 + 2]  # node 3, axis Y, agent 2
    assert float(row[6]) == traj.axis("Y").errors[3, 1, 0]
    assert row[-3:-1] == ["nan", "nan"]  # no cone on Y


def test_csv_deterministic_bytes(tmp_path):
    ax = reference_axis(disturbance=DisturbanceSpec(np.array([0.0, 0.2, 0.1, 0.3])))
    scen = ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, 0.05, "implicit_euler", 9)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(simulate(scen), p1)
    write_trajectory_csv(simulate(scen), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_equals_every_field_formatted(tmp_path):
    # constant fields written as text must read as the %.17g of each
    # value. Cases: a disturbed axis whose leader amplitude is 0 (its q
    # column reads +0.0), % in axis names, a cone-less curved axis beside
    # a linear one, 601 nodes across two blocks of 512; a run with exact
    # zeros from t = 7.2; the same run with one -0.0 draw, still formatted
    from oracles import write_trajectory_csv as write_every_field

    amps = np.array([0.0, 0.3, 0.2, 0.1])
    mixed = (
        reference_axis("X%d", disturbance=DisturbanceSpec(amps, seed=4)),
        reference_axis("Y", mu=-0.5, cone=False),
        AxisSpec("Z%%", linear_protocol(2, 1.0), reference_axis().initial, ConeSpec(2, 1.0)),
    )
    settled = simulate(_settling_scenario())
    q = settled.axes[0].disturbance.copy()
    q[3, 2] = -0.0
    cases = {
        "mixed": simulate(ScenarioConfig(chain_graph(), 2, mixed, 1e-3, 0.6, "implicit_euler", 3)),
        "settled": settled,
        "negative_zero": replace(settled, axes=(replace(settled.axes[0], disturbance=q),)),
    }
    for case, traj in cases.items():
        new, old = tmp_path / f"{case}.csv", tmp_path / f"{case}.oracle.csv"
        write_trajectory_csv(traj, new)
        write_every_field(traj, old)
        assert new.read_bytes() == old.read_bytes(), case
    line = (tmp_path / "negative_zero.csv").read_text().splitlines()[1 + 3 * 4 + 2]  # node 3, agent 2
    assert line.endswith(",-0"), line


def _streamed_cases():
    """Scenarios for the streamed CSV: a disturbed axis, an undisturbed
    one, a disturbed axis whose amplitudes are all 0 and a linear axis
    without a cone, over horizons on both sides of one draw chunk; and a
    run that settles into its leader-only tail."""
    axes = (
        reference_axis("X%d", disturbance=DisturbanceSpec(np.array([0.0, 0.3, 0.2, 0.1]), seed=4)),
        reference_axis("Y", mu=-0.5),
        reference_axis("Z", mu=-1.0, disturbance=DisturbanceSpec(np.zeros(4), seed=5)),
        AxisSpec("V", linear_protocol(2, 1.0), reference_axis().initial),
    )
    cases = {
        f"steps_{steps}": ScenarioConfig(chain_graph(), 2, axes, 1e-3, steps * 1e-3, "implicit_euler", 3)
        for steps in (1, _DRAW_CHUNK, _DRAW_CHUNK + 1, 600)
    }
    cases["settled"] = _settling_scenario()
    return cases


@pytest.mark.parametrize("case", sorted(_streamed_cases()))
def test_streamed_csv_is_the_csv_of_the_same_run(tmp_path, monkeypatch, case):
    # a run longer than one draw chunk formats its CSV in a forked writer
    # while it integrates; the file, written over a longer one, and the
    # arrays are those of a run without a destination
    import homocon.simulation as simulation
    from oracles import write_trajectory_csv as write_every_field

    forks = []
    start = simulation._CsvWriter.start
    monkeypatch.setattr(simulation._CsvWriter, "start",
                        lambda self, layout, fork: forks.append(fork) or start(self, layout, fork))
    scen = _streamed_cases()[case]
    plain = simulate(scen)
    (tmp_path / "streamed.csv").write_text("an older, longer file\n" * 200_000)
    streamed = simulate(scen, tmp_path / "streamed.csv")
    assert forks == [scen.steps > _DRAW_CHUNK]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _same_arrays(plain.times, streamed.times)
    assert plain.axis_names == streamed.axis_names
    for a, b in zip(plain.axes, streamed.axes):
        for name in ("states", "errors", "controls", "hnorm", "barrier", "disturbance"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None) == (y is None), (a.name, name)
            assert x is None or _same_arrays(x, y), (a.name, name)
    if case == "settled":
        assert np.all(plain.axes[0].errors[-1] == 0.0) and plain.axes[0].states[-1, 0, 0] != 0.0
    write_every_field(plain, tmp_path / "oracle.csv")
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def _fail_integration(monkeypatch, chunks):
    import homocon.simulation as simulation

    calls = []
    step = simulation._Block.step_implicit

    def failing(self, *args):
        calls.append(1)
        if len(calls) == chunks * _DRAW_CHUNK + 44:
            raise NonConvergentStep("injected")
        return step(self, *args)

    monkeypatch.setattr(simulation._Block, "step_implicit", failing)
    return NonConvergentStep


def _fail_writer(monkeypatch, chunks):
    import errno

    import homocon.simulation as simulation

    calls = []  # counted in the writer process
    text = simulation._CsvLayout.text

    def full(self, times, ks):
        calls.append(1)
        if len(calls) == chunks:
            raise OSError(errno.ENOSPC, "No space left on device")
        return text(self, times, ks)

    monkeypatch.setattr(simulation._CsvLayout, "text", full)
    return OSError


@pytest.mark.parametrize("fail", [_fail_integration, _fail_writer])
def test_failed_streamed_run_leaves_an_empty_csv(tmp_path, monkeypatch, fail):
    # the writer has formatted several chunks when the run fails: the file
    # is emptied rather than left holding a header and complete-looking
    # nodes
    error = fail(monkeypatch, 5)
    ax = reference_axis(disturbance=DisturbanceSpec(np.array([0.0, 0.3, 0.2, 0.1])))
    scen = ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, 2.0, "implicit_euler", 3)
    path = tmp_path / "run.csv"
    path.write_text("an older file\n")
    with pytest.raises(error):
        simulate(scen, path)
    assert path.read_bytes() == b""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_leader_overflow_after_settling_fails_and_leaves_an_empty_csv(tmp_path, monkeypatch):
    # the errors rest from node 719, and the integration ends at the end
    # of that chunk, node 768, but the leaders move on: Y's, whose
    # followers sit on it, leaves the float range at t = 11.5, in the
    # last chunk the recording derives after it
    huge = np.array([[1.7e308, 8.5e305]] * 4)
    scen = _settling_scenario((reference_axis("Y", init=huge),))
    blocks = _blocks(monkeypatch)
    short = simulate(replace(scen, horizon=11.0))
    assert blocks[0].settled_node == 768
    assert np.isfinite(short.axis("Y").states).all()
    path = tmp_path / "run.csv"
    path.write_text("an older file\n")
    with pytest.raises(NonConvergentStep, match="non-finite states"):
        simulate(scen, path)
    assert path.read_bytes() == b""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("steps, fork", [(100, True), (600, False)])
def test_failed_unforked_run_leaves_an_empty_csv(tmp_path, monkeypatch, steps, fork):
    # a run of one draw chunk, or any run without fork, formats its CSV
    # in this process: a failed integration empties the file as a
    # streamed run's does, not leaving it as it was
    _fail_integration(monkeypatch, 0)
    if not fork:
        monkeypatch.delattr(os, "fork")
    ax = reference_axis(disturbance=DisturbanceSpec(np.array([0.0, 0.3, 0.2, 0.1])))
    scen = ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, steps * 1e-3, "implicit_euler", 3)
    path = tmp_path / "run.csv"
    path.write_text("an older file\n")
    with pytest.raises(NonConvergentStep):
        simulate(scen, path)
    assert path.read_bytes() == b""


@pytest.mark.parametrize("writer", ["write_trajectory_csv", "simulate_without_fork"])
def test_failed_csv_write_leaves_an_empty_file(tmp_path, monkeypatch, writer):
    # the second 512-node block of a 601-node run fails to format after
    # the header and the first block were written: they are truncated
    ax = reference_axis(disturbance=DisturbanceSpec(np.array([0.0, 0.3, 0.2, 0.1])))
    scen = ScenarioConfig(chain_graph(), 2, (ax,), 1e-3, 0.6, "implicit_euler", 3)
    traj = simulate(scen)
    assert len(traj.times) == 601
    path = tmp_path / "run.csv"
    path.write_text("an older file\n")
    error = _fail_writer(monkeypatch, 2)
    with pytest.raises(error):
        if writer == "write_trajectory_csv":
            write_trajectory_csv(traj, path)
        else:  # simulate formats each chunk in process where fork is missing
            monkeypatch.delattr(os, "fork")
            simulate(scen, path)
    assert path.read_bytes() == b""


def _returned_bytes(traj):
    fields = ("states", "errors", "controls", "hnorm", "barrier", "disturbance")
    arrays = [traj.times] + [getattr(ax, f) for ax in traj.axes for f in fields]
    return sum(x.nbytes for x in arrays if x is not None)


def test_simulate_holds_one_draw_chunk_of_raw_nodes(tmp_path):
    # a 6,500-step run of two axes, as the benchmark's presets: besides
    # the arrays it returns, simulate holds one draw chunk of raw nodes
    # and its derivation. With a destination the arrays live in the
    # writer's shared mapping, which tracemalloc does not see
    import tracemalloc

    # degree-zero laws, as in the linear presets: cheap steps under tracing
    axes = (
        AxisSpec("X", linear_protocol(2, 1.0), reference_axis().initial, ConeSpec(2, 1.0),
                 DisturbanceSpec(np.array([0.0, 0.3, 0.2, 0.1]))),
        AxisSpec("Y", consensus_protocol(linear_gain(2, 1.0), HomogeneousNormContext(
            DilationGenerator(2, 0.0), PUBLISHED_P)), reference_axis().initial, ConeSpec(2, 1.0)),
    )
    scen = ScenarioConfig(chain_graph(), 2, axes, 1e-3, 6.5, "implicit_euler", 3)
    simulate(scen)  # first-call allocations, such as numpy's lazy imports
    for csv, bound in ((None, 1.2), (tmp_path / "run.csv", 0.25)):
        tracemalloc.start()
        try:
            traj = simulate(scen, csv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * _returned_bytes(traj), (csv, peak / _returned_bytes(traj))


# -- config validation ----------------------------------------------------------------

def _disturbed_batch():
    dist = DisturbanceSpec(np.array([0.0, 0.2, 0.1, 0.3]), seed=3)
    scen = ScenarioConfig(chain_graph(), 2, (reference_axis(disturbance=dist),), 1e-2, 0.1)
    return scen, {"X": np.repeat(scen.axes[0].initial[None], 2, axis=0)}


@pytest.mark.parametrize(
    "scales",
    [[1.0, 0.5, 0.2], [1.0], [[1.0, 0.5]], [1.0, np.nan], [np.inf, 1.0], [1.0, -0.5]],
    ids=["too-many", "too-few", "two-dimensional", "nan", "inf", "negative"],
)
def test_simulate_batch_rejects_bad_disturbance_scales(scales, monkeypatch):
    import homocon.simulation as simulation

    scen, inits = _disturbed_batch()

    def stepped(*args):
        raise AssertionError("the batch took a step")

    monkeypatch.setattr(simulation._Block, "step_implicit", stepped)
    with pytest.raises(ValueError, match="disturbance_scales"):
        simulate_batch(scen, inits, scales)


def _batch_of(shape, fill=0.5, leader=0.0):
    """Initial states of ``shape``, the leader's at ``leader`` and the
    followers' at ``fill``."""
    x = np.full(shape, fill)
    x[..., 0, :] = leader
    return x


@pytest.mark.parametrize(
    "inits",
    [
        {"X": _batch_of((2, 3, 3))},  # ran at the parent, reshaped into other errors
        {"X": _batch_of((2, 7, 1))},  # ran at the parent, reshaped into other errors
        {"X": _batch_of((2, 4, 3))},  # numpy's "cannot reshape" at the parent
        {"X": _batch_of((4, 2))},  # no run axis
        {"X": _batch_of((0, 4, 2))},
        {},  # KeyError at the parent
        {"X": _batch_of((2, 4, 2)), "Y": _batch_of((3, 4, 2))},
        {"X": _batch_of((2, 4, 2), np.nan)},  # NonConvergentStep mid-run at the parent
        {"X": _batch_of((2, 4, 2), -np.inf)},
        {"X": _batch_of((2, 4, 2), 1.7e308, -1.7e308)},
    ],
    ids=["3x3", "7x1", "4x3", "two-dimensional", "no-runs", "missing-axis", "runs-differ",
         "nan", "inf", "overflowing-errors"],
)
def test_simulate_batch_rejects_bad_initial_batches(inits, monkeypatch):
    import homocon.simulation as simulation

    axes = (reference_axis(), reference_axis("Y")) if "Y" in inits else (reference_axis(),)
    scen = ScenarioConfig(chain_graph(), 2, axes, 1e-2, 0.1)

    def stepped(*args):
        raise AssertionError("the batch took a step")

    monkeypatch.setattr(simulation._Block, "step_implicit", stepped)
    with pytest.raises(ValueError, match="initial"):
        simulate_batch(scen, inits)


def test_simulate_batch_rejects_repeated_axis_names(monkeypatch):
    # the second axis's reductions overwrote the first one's under their
    # one name, while the squared error summed both
    import homocon.simulation as simulation

    scen = ScenarioConfig(chain_graph(), 2, (reference_axis(), reference_axis()), 1e-2, 0.1)
    simulate(scen)  # a scenario may repeat names; its trajectory keeps both axes

    def stepped(*args):
        raise AssertionError("the batch took a step")

    monkeypatch.setattr(simulation._Block, "step_implicit", stepped)
    with pytest.raises(ValueError, match="distinct axis names"):
        simulate_batch(scen, {"X": _batch_of((2, 4, 2))})


def test_simulate_batch_takes_zero_disturbance_scales():
    scen, inits = _disturbed_batch()
    out = simulate_batch(scen, inits, [0.0, 1.0])
    nominal = simulate_batch(replace(scen, axes=(replace(scen.axes[0], disturbance=None),)), inits)
    assert np.array_equal(out.hnorm["X"][:, 0], nominal.hnorm["X"][:, 0])
    assert not np.array_equal(out.hnorm["X"][:, 1], nominal.hnorm["X"][:, 1])

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


def test_scenario_rejects_runs_too_large_to_record():
    # fails before any allocation; a mid-sized run would allocate for real
    ax = reference_axis()
    for dt, horizon in ((1e-3, 1e12), (1e-300, 1.0), (5e-324, 1e300)):
        with pytest.raises(ValueError, match="too large"):
            ScenarioConfig(chain_graph(), 2, (ax,), dt, horizon)


def test_overflowing_step_raises_nonconvergent():
    # beta = dt R b overflows; the step must not run on infinities
    ax = reference_axis()
    with pytest.raises(NonConvergentStep, match="dt too large"):
        simulate(ScenarioConfig(chain_graph(), 2, (ax,), 1e300, 1e300))


def test_initial_errors_that_overflow():
    init = np.array([[1.7e308, 0.0], [-1.7e308, 0.0], [-3.5, 1.0], [-5.0, 1.0]])
    with pytest.raises(ValueError, match="initial errors must be finite"):
        ScenarioConfig(chain_graph(), 2, (reference_axis(init=init),), 1e-3, 0.01)
    # batch inputs are held to the same check, before any step and
    # without a RuntimeWarning
    scen = ScenarioConfig(chain_graph(), 2, (reference_axis(),), 1e-3, 0.01)
    with pytest.raises(ValueError, match="initial errors must be finite"):
        simulate_batch(scen, {"X": init[None]})


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


def test_specs_reject_negative_seeds():
    with pytest.raises(ValueError, match="seed"):
        DisturbanceSpec(np.full(4, 0.1), seed=-3)
    with pytest.raises(ValueError, match="seed"):
        ScenarioConfig(chain_graph(), 2, (reference_axis(),), 1e-3, 0.01, seed=-1)


@pytest.mark.parametrize("name", ["X,Y", 'X"', "X\nY", "X\r"])
def test_axis_names_exclude_csv_delimiters(name):
    # a comma in a name gave data rows more fields than the header
    with pytest.raises(ValueError, match="axis name"):
        reference_axis(name)


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
