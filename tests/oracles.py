"""Independent reference implementations used as test oracles.

These deliberately avoid the library's solver paths: norms come from
plain bisection, fixed points from the Kronecker closed form, gains
from repeated matrix products, implicit Euler steps of an arbitrary
field from fixed-point iteration.
"""

import numpy as np

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
