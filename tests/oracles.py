"""Independent reference implementations used as test oracles.

These deliberately avoid the library's solver paths: norms come from
plain bisection, fixed points from the Kronecker closed form, gains
from repeated matrix products, implicit Euler steps of an arbitrary
field from fixed-point iteration, trajectory CSV files from one %.17g
field per value, the implicit step's origin test run on every step, and
its log-norm residual formed with a new array for every operation.
"""

import numpy as np

from homocon._linalg import grouped_matmul, rowsum
from homocon.simulation import NonConvergentStep


def bisect_norm(ctx, x, lo=-800.0, hi=800.0, iters=200):
    """Bisection on ||d(-s)x||_P = 1; independent of the Newton path."""
    x = np.asarray(x, dtype=float)
    P = ctx.P
    rk = ctx.gen.diag_entries
    if np.sqrt(x @ P @ x) == 0.0:
        return 0.0

    def g(s):
        with np.errstate(over="ignore", invalid="ignore"):
            y = x * np.exp(np.minimum(-s * rk, 700.0))
            val = float(y @ P @ y)
        return (val if np.isfinite(val) else np.inf) - 1.0

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return float(np.exp(0.5 * (lo + hi)))


def step_implicit_euler(state, f, dt, tol=1e-12, max_iter=100):
    """One implicit Euler step x+ = x + dt f(x+) by fixed-point iteration.

    Seeded at the explicit predictor. If the iteration oscillates, the
    iterate with the smallest residual is returned, provided that
    residual is small on the scale of the step; otherwise
    NonConvergentStep is raised.
    """
    x = np.asarray(state, dtype=float)
    y = x + dt * np.asarray(f(x), dtype=float)
    best = y
    best_res = np.inf
    for _ in range(max_iter):
        y_next = x + dt * np.asarray(f(y), dtype=float)
        if not np.all(np.isfinite(y_next)):
            raise NonConvergentStep("implicit iteration produced non-finite values")
        with np.errstate(over="ignore"):
            res = float(np.linalg.norm(y_next - y))
            ynorm = float(np.linalg.norm(y_next))
        if np.isfinite(res) and res < best_res:
            best_res = res
            best = y_next
        if np.isfinite(res) and np.isfinite(ynorm) and res <= tol * (1.0 + ynorm):
            return y_next
        y = y_next
    scale = 1.0 + float(np.linalg.norm(x))
    if best_res <= 1e-3 * dt * scale:
        return best
    raise NonConvergentStep(
        f"fixed point not reached in {max_iter} iterations (residual {best_res:.3e})"
    )


def write_trajectory_csv(traj, path) -> None:
    """The trajectory CSV with every number formatted, the constant
    leader fields and nan barriers included: one float row per node and
    axis, one template per node."""
    first = traj.axes[0]
    n = first.states.shape[2]
    cols = (
        ["t", "agent", "axis"]
        + [f"x{i + 1}" for i in range(n)]
        + ["u"]
        + [f"e{i + 1}" for i in range(n)]
        + ["hnorm"]
        + [f"phi{i + 1}" for i in range(n)]
        + ["q"]
    )
    f = "%.17g"
    fields = ",".join([f] * n)
    width = len(cols) - 2  # every column but agent and axis

    def values(ax, ks):
        t = traj.times[ks]
        v = np.full((len(t), ax.states.shape[1], width), np.nan)
        v[:, :, 0] = t[:, None]
        v[:, :, 1:n + 1] = ax.states[ks]
        v[:, 0, n + 1:2 * n + 3] = 0.0
        v[:, 1:, n + 1] = ax.controls[ks]
        v[:, 1:, n + 2:2 * n + 2] = ax.errors[ks]
        v[:, 1:, 2 * n + 2] = ax.hnorm[ks]
        if ax.barrier is not None:
            v[:, 1:, 2 * n + 3:3 * n + 3] = ax.barrier[ks]
        v[:, :, -1] = ax.disturbance[ks]
        return v.reshape(len(t), -1)

    template = "".join(
        f"{f},{agent},{ax.name.replace('%', '%%')},{fields},{f},{fields},{f},{fields},{f}\n"
        for ax in traj.axes
        for agent in range(ax.states.shape[1])
    )
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for k0 in range(0, len(traj.times), 512):
            ks = slice(k0, k0 + 512)
            nodes = np.concatenate([values(ax, ks) for ax in traj.axes], axis=1).tolist()
            fh.write("".join([template % tuple(v) for v in nodes]))


def solve_control_roots(block, alpha, w_prev, s_warm, snap_tol=1e-12):
    """``simulation._Block._solve_control_roots`` with its origin test on
    every step: the pre-solve snap test and the post-solve near test run
    whatever the rows' distance to the origin. A method body for
    ``_Block``, with ``block`` in place of ``self``."""
    beta = block.beta
    M = alpha.shape[0]
    older, block.older = block.older, (s_warm, block.older[0])

    wpar = grouped_matmul(alpha, beta) / -block.btb
    resid = alpha + wpar[:, None] * beta
    rn = np.sqrt(rowsum(resid * resid))
    anorm = np.sqrt(rowsum(alpha * alpha))
    r = snap_tol * (1.0 + anorm + np.abs(wpar) * block.root_btb)
    snap = (rn <= r) & (np.abs(wpar) <= block.snap_bound)

    if snap.all():
        return np.zeros_like(alpha), wpar, np.full(M, -np.inf)
    w, logr, e_new = block._newton(alpha, w_prev, s_warm, older, ~snap)
    near = ~snap & (rowsum(e_new * e_new) <= r * r)
    if near.any():
        c, root_lmax, ex = block.ball[near].T
        near[near] = np.abs(wpar[near]) <= c * np.minimum(root_lmax * r[near], 1.0) ** ex
        snap |= near
    if snap.any():
        w = np.where(snap, wpar, w)
        logr = np.where(snap, -np.inf, logr)
        e_new = np.where(snap[:, None], 0.0, e_new)
    if not np.isfinite(w).all():
        raise NonConvergentStep("control root solve produced non-finite values")
    return e_new, w, logr


def log_norm_residual(block, a, s, control_only=False):
    """``simulation._log_norm_residual`` with a new array for every
    operation, each product through ``grouped_matmul``: its values, in
    its operations and their order, from the block's beta, rk, opm and
    product matrices alone. Returns w, or (w, F, dF, nden, J21)."""
    beta = block.beta
    ex = np.exp(s[:, None] * -block.rk)
    c = np.exp(block.opm * s)
    k = grouped_matmul(np.concatenate((a * ex, ex), axis=1), block.jw, len(block.jw))
    nden = -1.0 - c * k[:, 1]
    w = c * k[:, 0] / nden
    if control_only:
        return w
    groups = len(block.jy)
    Y = (a + w[:, None] * beta) * ex
    prod = grouped_matmul(Y, block.jy, groups)
    PY = prod[:, :-1]
    q = grouped_matmul(PY * Y, block.jq, groups)
    q2 = q[:, 0]
    J21 = grouped_matmul(PY * ex, beta) / q2
    J12 = -block.opm * w - c * prod[:, -1]
    dF = J21 * J12 / nden - q[:, 1] / q2
    return w, 0.5 * np.log(q2), dF, nden, J21
