"""Safety under matched disturbances: homogeneous vs linear feedback.

The strongest homogeneity degree (mu = -1) rejects bounded matched
disturbances outright: errors still vanish in finite time and the cone
is never left. The linear protocol under the same disturbance stream
drifts across the constraint. The certified amplitude bound from the
robustness constants is printed alongside, for comparison with what the
simulation actually tolerates.
"""

import numpy as np

from homocon import (
    AxisSpec,
    ConeSpec,
    DilationGenerator,
    DirectedGraph,
    DisturbanceSpec,
    HomogeneousNormContext,
    IntegratorChain,
    ScenarioConfig,
    invariance_monitor,
    linear_gain,
    linear_protocol,
    nonovershoot_protocol,
    overshoot_metric,
    robustness_constants,
    settling_time,
    simulate,
    solve_lmi_p,
)
from homocon.cli import fit_unit_ball

graph = DirectedGraph.from_edges(3, [[1, 0, 1.0], [2, 1, 1.0], [3, 2, 1.0]])
chain = IntegratorChain(2)
lam = 1.0
K_lin = linear_gain(2, lam)
initial = np.array([[0.0, 0.0], [-2.0, 1.0], [-3.5, 1.0], [-5.0, 1.0]])
amps = np.array([0.0, 0.540, 0.444, 0.462])

# -- homogeneous mu = -1 -------------------------------------------------------
gen = DilationGenerator(2, -1.0)
cert = solve_lmi_p(gen, chain.A, chain.B, K_lin)
P = fit_unit_ball(cert.P, initial[1:] - initial[0])
ctx = HomogeneousNormContext(gen, P)
cone = ConeSpec(2, lam, -1.0)
consts = robustness_constants(P, gen, cone.H, lam, K_lin)
print("certified disturbance bound:", round(consts.q_bound, 4))
print("applied amplitudes:", amps[1:], "(beyond the certificate)")

scen = ScenarioConfig(
    graph, 2,
    (AxisSpec("X", nonovershoot_protocol(lam, ctx), initial, cone, DisturbanceSpec(amps)),),
    dt=1e-3, horizon=12.0, seed=7,
)
traj = simulate(scen)
mon = invariance_monitor(traj, "X")
print("\nhomogeneous mu=-1 under disturbance:")
print("  settling time:", settling_time(traj, 1e-3, "X"), "s")
print("  overshoot:", overshoot_metric(traj, "X"))
print("  min barrier:", mon.min_value, " violation:", mon.violation_time)

# -- linear comparison, same disturbance stream ---------------------------------
scen_lin = ScenarioConfig(
    graph, 2,
    (AxisSpec("X", linear_protocol(2, lam), initial, ConeSpec(2, lam), DisturbanceSpec(amps)),),
    dt=1e-3, horizon=12.0, seed=7,
)
traj_lin = simulate(scen_lin)
print("\nlinear protocol under the same disturbances:")
print("  settling time (1e-3):", settling_time(traj_lin, 1e-3, "X"))
print("  overshoot:", overshoot_metric(traj_lin, "X"),
      " (> 0 means a follower crossed the leader)")
