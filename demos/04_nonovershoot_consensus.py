"""Finite-time consensus without overshoot.

Three followers chase a leader moving at constant velocity. Along the
constrained axis the homogeneous non-overshooting protocol keeps every
follower strictly behind the leader while the tracking errors hit zero
in finite time; the safety cone membership is monitored along the way.
"""

import numpy as np

from homocon import (
    AxisSpec,
    ConeSpec,
    DilationGenerator,
    DirectedGraph,
    HomogeneousNormContext,
    ScenarioConfig,
    check_initial_admissible,
    invariance_monitor,
    nonovershoot_protocol,
    overshoot_metric,
    settling_time,
    simulate,
    write_trajectory_csv,
)

graph = DirectedGraph.from_edges(3, [[1, 0, 1.0], [2, 1, 1.0], [3, 2, 1.0]])

mu, lam = -0.2, 1.0
gen = DilationGenerator(2, mu)
P = np.array([[0.0020, 0.0005], [0.0005, 0.0012]])
ctx = HomogeneousNormContext(gen, P)
protocol = nonovershoot_protocol(lam, ctx)
cone = ConeSpec(2, lam, mu)

# leader starts at the origin with zero velocity on this axis; every
# follower starts behind it but moving 1 m/s faster
initial = np.array([[0.0, 0.0], [-2.0, 1.0], [-3.5, 1.0], [-5.0, 1.0]])
report = check_initial_admissible(initial[1:] - initial[0], cone, ctx)
print("initial condition admissible for the homogeneous cone:",
      report.admissible_homogeneous)

scenario = ScenarioConfig(
    graph, 2, (AxisSpec("X", protocol, initial, cone),), dt=1e-3, horizon=12.0
)
traj = simulate(scenario)

print("\novershoot metric (max leading error):", overshoot_metric(traj, "X"))
print("settling time to ||e|| <= 1e-3:", settling_time(traj, 1e-3, "X"), "s")

monitor = invariance_monitor(traj, "X")
print("minimum barrier component over the run:", monitor.min_value)
print("first violation:", monitor.violation_time)

ax = traj.axis("X")
print("\n   t      e1 per follower")
for t in (0.0, 1.0, 2.0, 4.0, 8.0):
    k = int(round(t / 1e-3))
    print(f"{t:5.1f}  {np.round(ax.errors[k, :, 0], 6)}")

write_trajectory_csv(traj, "nonovershoot_consensus.csv")
print("\nfull trajectory written to nonovershoot_consensus.csv")
