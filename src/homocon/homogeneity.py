"""Weighted dilations and the canonical homogeneous norm.

A dilation d(s) = exp(s*G) scales state space non-uniformly; here G is
always diagonal with entries r_k = 1 - mu*(n-k), the generator matched
to the integrator chain. The canonical homogeneous norm of x is exp(s*)
where s* solves ||d(-s*) x||_P = 1; it is the degree-1 homogeneous
surrogate for a norm that all protocols and cones in this package are
built on.

One private kernel solves it for the whole package: a vectorized Newton
iteration on rows in equal consecutive groups, each with its own P
(the simulator's axes), so every product is one stacked matmul, with an
exponent-shifted bisection for rows at extreme magnitudes.
``_project_to_sphere`` is the one projection d(-s) x onto the unit
sphere, shared by the law and the cone barriers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import grouped_matmul, is_positive_definite, outer, rowsum, symmetrize


class OriginNotDifferentiable(Exception):
    """The homogeneous norm has no gradient at x = 0."""


@dataclass(frozen=True)
class DilationGenerator:
    """Diagonal dilation generator for an n-dimensional integrator chain.

    Entries are r_k = 1 - mu*(n-k), k = 1..n, all positive whenever
    mu < 1/(n-1); the last entry is exactly 1.
    """

    n: int
    mu: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("state dimension must be >= 1")
        if not np.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if self.n > 1 and not self.mu < 1.0 / (self.n - 1):
            raise ValueError(f"mu must be < 1/(n-1) = {1.0 / (self.n - 1):g}")
        k = np.arange(1, self.n + 1, dtype=float)
        rk = 1.0 - self.mu * (self.n - k)
        rk.setflags(write=False)
        object.__setattr__(self, "_rk", rk)

    @property
    def diag_entries(self) -> np.ndarray:
        return self._rk

    def matrix(self) -> np.ndarray:
        return np.diag(self.diag_entries)


def dilation_matrix(gen: DilationGenerator, s: float) -> np.ndarray:
    """d(s) = exp(s*G), diagonal and exact for diagonal generators."""
    return np.diag(np.exp(s * gen.diag_entries))


def check_generator_relations(
    gen: DilationGenerator, A: np.ndarray, B: np.ndarray
) -> tuple[float, float]:
    """Residuals of the generator equations A G = (mu I + G) A and G B = B.

    Both vanish (to rounding) for the diagonal generator paired with the
    canonical chain matrices.
    """
    G = gen.matrix()
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float).reshape(gen.n, -1)
    r1 = np.linalg.norm(A @ G - (gen.mu * np.eye(gen.n) + G) @ A)
    r2 = np.linalg.norm(G @ B - B)
    return float(r1), float(r2)


@dataclass(frozen=True, eq=False)
class HomogeneousNormContext:
    """Dilation generator plus SPD shape matrix P defining ||.||_d.

    Construction checks P > 0 and the monotonicity condition
    P G + G P > 0, which makes s -> ||d(s)x|| strictly increasing and
    the implicit norm equation uniquely solvable.
    """

    gen: DilationGenerator
    P: np.ndarray

    def __post_init__(self):
        P = symmetrize(np.array(self.P, dtype=float))
        n = self.gen.n
        if P.shape != (n, n):
            raise ValueError(f"P must be ({n}, {n})")
        if not is_positive_definite(P):
            raise ValueError("P must be positive definite")
        G = self.gen.matrix()
        if not is_positive_definite(P @ G + G @ P):
            raise ValueError("monotonicity condition P G + G P > 0 fails")
        P.setflags(write=False)
        object.__setattr__(self, "P", P)

    def weighted_norm(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.sqrt(x @ self.P @ x))


def _log_norms(X, Ps, rk, s_warm):
    """Log canonical norms of the rows of X by Newton's method.

    The rows form len(Ps) equal consecutive groups, group j carrying the
    shape matrix ``Ps[j]`` of the stacked (A, n, n) ``Ps``; ``rk`` holds
    the dilation entries, shared (n,) or per row (m, n). F(s) =
    log ||d(-s) x||_P is smooth and strictly decreasing, and Newton stops
    at |F| <= 1e-13. Rows whose iteration over- or underflows, or has
    not settled after 50 passes, and nonzero rows whose weighted norm
    underflows, go to the exponent-shifted bisection.

    Returns (s, Y, patched): s is -inf at x = 0; Y holds the scaled
    vectors d(-s) x of the last Newton pass (None if no pass ran), valid
    on every row except those ``patched`` by the bisection (None if none
    were).
    """
    pn2 = rowsum(grouped_matmul(X, Ps, len(Ps)) * X)
    nz = pn2 > 0.0
    s = 0.5 * np.log(np.maximum(pn2, 1e-308))
    if s_warm is not None:
        s = np.where(np.isfinite(s_warm), s_warm, s)
    s = np.where(nz, s, 0.0)

    Y = patched = None
    pending = nz.copy()
    if not nz.all():
        # only x = 0 is the origin: nonzero rows whose weighted norm
        # underflowed go to the bisection
        lost = ~nz & np.any(X != 0.0, axis=1)
        if lost.any():
            _bisect_rows(X, Ps, rk, s, lost)
            nz |= lost
            patched = lost
    for _ in range(50):
        if not pending.any():
            break
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            Y = X * np.exp(-(s[:, None] * rk))
            PY = grouped_matmul(Y, Ps, len(Ps))
            q2 = rowsum(PY * Y)
            F = 0.5 * np.log(q2)
            g = rowsum(PY * (Y * rk)) / q2
        fin = np.isfinite(F) & np.isfinite(g) & (g > 0)
        pending &= ~(fin & (np.abs(F) <= 1e-13))
        broken = pending & ~fin
        if broken.any():
            _bisect_rows(X, Ps, rk, s, broken)
            pending &= ~broken
            patched = broken if patched is None else patched | broken
        move = pending & fin
        s = np.where(move, s + F / np.where(g > 0, g, 1.0), s)
    if pending.any():
        _bisect_rows(X, Ps, rk, s, pending)
        patched = pending if patched is None else patched | pending
    return np.where(nz, s, -np.inf), Y, patched


def _bisect_rows(X, Ps, rk, s, mask):
    """Overwrite s on the masked rows with the bisection's log norms;
    row i lies in group i // rows of the len(Ps) equal row groups."""
    rows = X.shape[0] // len(Ps)
    for i in np.nonzero(mask)[0]:
        s[i] = _bisect_log_norm(Ps[i // rows], rk if rk.ndim == 1 else rk[i], X[i])


def _bisect_log_norm(P, rk, x):
    """Overflow-safe log norm of one nonzero row x, working with
    component exponents; nan when x is not finite."""
    ax = np.abs(x)
    if not np.all(np.isfinite(ax)):
        return np.nan
    sign = np.sign(x)
    with np.errstate(divide="ignore"):
        lx = np.log(ax)  # -inf at zero components

    def logq(s: float) -> float:
        xi = lx - s * rk
        t = np.max(xi[np.isfinite(xi)])
        y = np.where(np.isfinite(xi), sign * np.exp(np.minimum(xi - t, 700.0)), 0.0)
        q2 = float(y @ P @ y)
        return t + 0.5 * np.log(max(q2, 1e-308))

    # bracket the root of logq(s) = 0 (strictly decreasing)
    s = float(np.max(lx[np.isfinite(lx)]))
    step = 1.0
    lo, hi = -np.inf, np.inf
    for _ in range(400):
        v = logq(s)
        if v > 0:
            lo = s
            if np.isfinite(hi):
                break
            s += step
        else:
            hi = s
            if np.isfinite(lo):
                break
            s -= step
        step *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if logq(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def _project_to_sphere(X, s, rk):
    """d(-s) x for the vectors x along the last axis of X with log norms
    s: the projection onto the unit P-sphere, 0 where s is not finite
    (the origin)."""
    finite = np.isfinite(s)
    every = finite.all()  # no row on the origin: nothing to mask
    with np.errstate(over="ignore", invalid="ignore"):
        Z = X * np.exp(-outer(s if every else np.where(finite, s, 0.0), rk))
    if not every:
        Z = np.where(finite[..., None], Z, 0.0)
    lost = ~np.isfinite(Z)
    if lost.any():
        # d(-s) overflows for rows of subnormal magnitude: scale the
        # exponents of x instead
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            safe = np.sign(X) * np.exp(np.log(np.abs(X)) - s[..., None] * rk)
        Z = np.where(lost, safe, Z)
    return Z


def canonical_norm_many(
    ctx: HomogeneousNormContext,
    X: np.ndarray,
    warm_log: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical homogeneous norms of the rows of X.

    Solves F(s) = log ||d(-s) x||_P = 0 per row by Newton's method (F is
    smooth and strictly decreasing), with an exponent-shifted bisection
    for rows at extreme magnitudes. ``warm_log`` seeds s from a previous
    call, which typically cuts the solve to one or two iterations along
    a trajectory.

    Returns (norms, log_norms); only x = 0 gets norm 0 and log norm
    -inf.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        s, _, _ = _log_norms(X, ctx.P[None], ctx.gen.diag_entries, warm_log)
        return np.exp(s), s


def canonical_norm(ctx: HomogeneousNormContext, x: np.ndarray) -> float:
    """Canonical homogeneous norm ||x||_d induced by ||.||_P.

    Total function: returns 0 at the origin, otherwise exp(s*) with
    ||d(-s*) x||_P = 1 resolved to relative tolerance 1e-12.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    r, _ = canonical_norm_many(ctx, x[None, :])
    return float(r[0])


def norm_gradient(ctx: HomogeneousNormContext, x: np.ndarray) -> np.ndarray:
    """Row gradient of the canonical homogeneous norm at x != 0.

    Closed form: with z = d(-ln r) x on the unit P-sphere,
    grad = r * z' P d(-ln r) / (z' P G z); the denominator is positive
    by the monotonicity condition.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    r = canonical_norm(ctx, x)
    if r == 0.0:
        raise OriginNotDifferentiable("gradient undefined at the origin")
    rk = ctx.gen.diag_entries
    dinv = np.exp(-np.log(r) * rk)
    z = x * dinv
    Pz = ctx.P @ z
    denom = float(Pz @ (rk * z))
    return r * (Pz * dinv) / denom


def unit_sphere_max(ctx: HomogeneousNormContext, row: np.ndarray) -> float:
    """max |row . z| over the unit P-sphere, i.e. sqrt(row P^{-1} row')."""
    row = np.asarray(row, dtype=float).reshape(-1)
    sol = np.linalg.solve(ctx.P, row)
    return float(np.sqrt(max(row @ sol, 0.0)))
