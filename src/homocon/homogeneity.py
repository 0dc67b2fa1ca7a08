"""Weighted dilations and the canonical homogeneous norm.

A dilation d(s) = exp(s*G) scales state space non-uniformly; here G is
always diagonal with entries r_k = 1 - mu*(n-k), the generator matched
to the integrator chain. The canonical homogeneous norm of x is exp(s*)
where s* solves ||d(-s*) x||_P = 1; it is the degree-1 homogeneous
surrogate for a norm that all protocols and cones in this package are
built on.

One private solver serves the whole package: a vectorized Newton
iteration on rows in equal consecutive groups, each with its own P
(the simulator's axes), so every product is one stacked matmul; rows at
extreme magnitudes take ``_bracketed_roots`` on exponent-shifted
components. ``_project_to_sphere`` is the one projection d(-s) x onto
the unit sphere, shared by the law and the cone barriers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import grouped_matmul, is_positive_definite, outer, rowsum, symmetrize

_NORM_PASSES = 50  # passes of the norm's Newton before a row goes to the bracketed solve


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
    not settled after _NORM_PASSES passes, and nonzero rows whose weighted
    norm underflows, are solved at the end by ``_bracketed_roots``.

    Returns (s, Y): s is -inf at x = 0 and nan where x is not finite; Y
    holds the scaled vectors d(-s) x, 0 where s is not finite.
    """
    pn2 = rowsum(grouped_matmul(X, Ps, len(Ps)) * X)
    nz = pn2 > 0.0
    s = 0.5 * np.log(np.maximum(pn2, 1e-308))
    if s_warm is not None:
        s = np.where(np.isfinite(s_warm), s_warm, s)
    s = np.where(nz, s, 0.0)

    Y = rough = None  # rough: the rows Newton cannot resolve, once there are any
    pending = nz.copy()
    if not nz.all():
        # only x = 0 is the origin: nonzero rows whose weighted norm
        # underflowed take the shifted solve
        lost = ~nz & np.any(X != 0.0, axis=1)
        if lost.any():
            rough = lost
    for _ in range(_NORM_PASSES):
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
            pending &= ~broken
            rough = broken if rough is None else rough | broken
        move = pending & fin
        s = np.where(move, s + F / np.where(g > 0, g, 1.0), s)
    if pending.any():
        rough = pending if rough is None else rough | pending
    s = np.where(nz, s, -np.inf)
    if rough is not None:
        # one bracketed solve on exponent-shifted components: with t the
        # row's largest exponent, y = sign(x) exp(log|x| - s rk - t) and
        # F = t + log ||y||_P cannot over- or underflow. It starts from
        # max_k log|x_k| / rk_k, and is nan where x is not finite
        i = np.nonzero(rough)[0]
        Xi, Pi, rk_i = X[i], Ps[i // (X.shape[0] // len(Ps))], np.broadcast_to(rk, X.shape)[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            lx = np.log(np.abs(Xi))  # -inf at zero components
            s0 = np.where(np.isfinite(Xi).all(axis=1), np.max(lx / rk_i, axis=1), np.nan)

        def residual(rows, s):
            xi = lx[rows] - s[:, None] * rk_i[rows]
            t = np.max(xi, axis=1)
            y = np.sign(Xi[rows]) * np.exp(xi - t[:, None])
            Py = np.einsum("ijk,ik->ij", Pi[rows], y)
            q2 = rowsum(Py * y)
            return t + 0.5 * np.log(q2), -rowsum(Py * (y * rk_i[rows])) / q2, None

        s[i], _, _ = _bracketed_roots(residual, s0, 100)
        if Y is not None:
            Y[i] = _project_to_sphere(Xi, s[i], rk_i)
    if Y is None:  # no Newton pass ran
        Y = _project_to_sphere(X, s, rk)
    return s, Y


def _bracketed_roots(residual, s0, max_passes):
    """Roots of F(s) = 0 from s0 by a Newton iteration kept inside a
    per-row bracket on s: F changes sign once, from + to -, but need not
    be monotone near its root. ``residual(rows, s)`` returns (F, dF, v)
    on the rows ``rows`` at their s: dF is nan where no Newton step may
    be taken, and v, when not None, is a value whose agreement at the
    bracket's ends stops a row. The bracket steps out from s0 in
    doubling steps (a nan F counts as +). A row bisects or steps out
    where the Newton step leaves the bracket (or, while an end is open,
    goes further than the step-out) or dF is not negative. It stops at
    |F| <= 1e-13, right after a Newton step of at most 3e-8, or at
    the resolution of F: a bracket 1e-14 max(1, |s|) wide, or with
    values v at its ends within 1e-13 (1 + |v|). A row whose start is
    not finite keeps it. Returns (s, passes, open_rows): the roots, the
    passes made and the indices of the rows still open after max_passes.
    """
    s = np.array(s0, dtype=float)
    # the bracket [lo, hi] on s and the values v at its ends
    lo, hi, v_lo, v_hi = np.repeat([[-np.inf], [np.inf], [np.nan], [np.nan]], s.size, axis=1)
    out = np.ones_like(s)  # step-out distance
    rows = np.nonzero(np.isfinite(s))[0]
    passes = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while rows.size and passes < max_passes:
            passes += 1
            sr, d = s[rows], out[rows]
            F, dF, v = residual(rows, sr)
            pos = ~(F <= 0.0)
            lo[rows] = l = np.where(pos, sr, lo[rows])
            hi[rows] = h = np.where(pos, hi[rows], sr)
            closed = np.isfinite(l) & np.isfinite(h)
            sn = sr - F / dF
            newton = (dF < 0.0) & (sn > l) & (sn < h)
            newton &= closed | (np.abs(sn - sr) <= d)
            bisect = np.where(closed, 0.5 * (l + h), np.where(pos, sr + d, sr - d))
            out[rows] = np.where(closed, d, 2.0 * d)
            settled = (np.abs(F) <= 1e-13) | (h - l <= 1e-14 * np.maximum(1.0, np.abs(sr)))
            if v is not None:
                v_lo[rows] = vl = np.where(pos, v, v_lo[rows])
                v_hi[rows] = vh = np.where(pos, v_hi[rows], v)
                settled |= np.abs(vh - vl) <= 1e-13 * (1.0 + np.abs(v))
            s[rows] = np.where(settled, sr, np.where(newton, sn, bisect))
            settled |= newton & (np.abs(sn - sr) <= 3e-8)
            rows = rows[~settled]
    return s, passes, rows


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
    ctx: HomogeneousNormContext, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical homogeneous norms of the rows of X.

    Solves F(s) = log ||d(-s) x||_P = 0 per row by Newton's method (F is
    smooth and strictly decreasing), inside a bracket on exponent-shifted
    components for rows at extreme magnitudes.

    Returns (norms, log_norms); only x = 0 gets norm 0 and log norm
    -inf.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        s, _ = _log_norms(X, ctx.P[None], ctx.gen.diag_entries, None)
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
