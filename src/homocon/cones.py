"""Safety cones certifying non-overshooting behaviour.

The barrier matrix H stacks rows h_k = -eta_1' (A + lam I)^{k-1}. The
linear cone is {e : H e >= 0}; its dilation-invariant counterpart tests
H d(-ln ||e||_d) e >= 0 instead. Both live inside the half-space where
the first error component is nonpositive, so cone membership along a
trajectory certifies that followers never overtake the leader.

The simulator records the barrier of every axis that carries a cone;
``invariance_monitor`` reads that record instead of solving the norm
again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import rowsum
from .homogeneity import (
    DilationGenerator,
    HomogeneousNormContext,
    _project_to_sphere,
    canonical_norm_many,
)
from .protocols import IntegratorChain

# Integrator and root-finder noise make exact-boundary trajectories dip
# by O(dt^2); this threshold separates that fuzz from genuine violations.
VIOLATION_THRESHOLD = -1e-6


def barrier_matrix(n: int, lam: float) -> np.ndarray:
    """Rows h_k = -eta_1' (A + lam I)^{k-1}; satisfies H B = -B."""
    if n < 1 or lam <= 0:
        raise ValueError("need n >= 1 and lam > 0")
    chain = IntegratorChain(n)
    M = chain.A + lam * np.eye(n)
    H = np.zeros((n, n))
    row = np.zeros(n)
    row[0] = -1.0
    for k in range(n):
        H[k] = row
        row = row @ M
    return H


def gamma_matrix(gen: DilationGenerator, lam: float) -> np.ndarray:
    """Lower-triangular matrix with H G = Gamma H:
    Gamma = G + lam * diag(-mu*(k-1)) A'.

    Entrywise nonnegative and anti-Hurwitz for mu in [-1, 0).
    """
    n = gen.n
    chain = IntegratorChain(n)
    k = np.arange(1, n + 1, dtype=float)
    return gen.matrix() + lam * np.diag(-gen.mu * (k - 1)) @ chain.A.T


def metzler_check(M: np.ndarray) -> bool:
    """True iff all off-diagonal entries are >= -1e-12."""
    M = np.asarray(M, dtype=float)
    off = M - np.diag(np.diagonal(M))
    return bool(np.min(off) >= -1e-12)


@dataclass(frozen=True)
class ConeSpec:
    """Barrier matrix H for (n, lam), of an axis whose law has the
    homogeneity degree ``mu`` when one is given."""

    n: int
    lam: float
    mu: float | None = None

    def __post_init__(self):
        H = barrier_matrix(self.n, self.lam)
        svals = np.linalg.svd(H, compute_uv=False)
        if svals[-1] <= 1e-12 * svals[0]:
            raise ValueError("barrier matrix is numerically singular")
        H.setflags(write=False)
        object.__setattr__(self, "_H", H)

    @property
    def H(self) -> np.ndarray:
        return self._H


def linear_barrier(spec: ConeSpec, e: np.ndarray) -> np.ndarray:
    """H e; componentwise >= 0 means membership in the linear cone."""
    return spec.H @ np.asarray(e, dtype=float).reshape(-1)


def homogeneous_barrier(
    spec: ConeSpec, ctx: HomogeneousNormContext, e: np.ndarray
) -> np.ndarray:
    """H d(-ln ||e||_d) e, and 0 at the origin (the cone apex).

    Membership is invariant under e -> d(s) e, so the same test applies
    at every error magnitude.
    """
    e = np.asarray(e, dtype=float).reshape(1, -1)
    _, s = canonical_norm_many(ctx, e)
    return (_project_to_sphere(e, s, ctx.gen.diag_entries) @ spec.H.T)[0]


@dataclass(frozen=True)
class AdmissibilityEntry:
    follower: int
    sum_checks: tuple
    first_component_ok: bool
    linear_cone_ok: bool
    unit_ball_ok: bool


@dataclass(frozen=True)
class AdmissibilityReport:
    entries: tuple
    admissible_linear: bool
    admissible_homogeneous: bool


def check_initial_admissible(
    e0_list, spec: ConeSpec, ctx: HomogeneousNormContext | None = None
) -> AdmissibilityReport:
    """Initial-condition admissibility for the cones.

    Per follower: (a) the binomial sums
    sum_z C(k-1, z) lam^z eta_{k-z}' e(0) <= 0 for k = 2..n, (b) first
    component <= 0, (c) H e(0) >= 0, (d) ||e(0)||_P <= 1 when a norm
    context is given. The homogeneous cone accepts the initial condition
    when (c) and (d) hold for every follower.
    """
    n, lam = spec.n, spec.lam
    entries = []
    all_lin = True
    all_hom = True
    for idx, e0 in enumerate(e0_list, start=1):
        e0 = np.asarray(e0, dtype=float).reshape(-1)
        if e0.shape != (n,):
            raise ValueError(f"error vectors must have dimension {n}")
        sums = []
        for k in range(2, n + 1):
            total = 0.0
            for z in range(k):
                total += math.comb(k - 1, z) * lam**z * e0[k - z - 1]
            sums.append((k, total, total <= 0.0))
        first_ok = e0[0] <= 0.0
        lin_ok = bool(np.all(linear_barrier(spec, e0) >= 0.0))
        if ctx is not None:
            ball_ok = ctx.weighted_norm(e0) <= 1.0
        else:
            ball_ok = False
        entries.append(
            AdmissibilityEntry(idx, tuple(sums), first_ok, lin_ok, ball_ok)
        )
        all_lin &= lin_ok
        all_hom &= lin_ok and ball_ok
    return AdmissibilityReport(tuple(entries), all_lin, all_hom and ctx is not None)


@dataclass(frozen=True, eq=False)
class InvarianceReport:
    min_value: float
    violation_time: float | None


def invariance_monitor(traj, axis: str | None = None) -> InvarianceReport:
    """Read the cone barrier recorded along a trajectory.

    The simulator records the barrier of every axis that carries a cone:
    H e for linear protocols, H d(-ln ||e||_d) e for homogeneous ones.
    Barriers exist only at the integration nodes; halving dt is the
    remedy when inter-sample violations are suspected. Reports the global
    minimum component and the first time any component falls below the
    violation threshold.
    """
    at = traj.axis(axis)
    if at.barrier is None:
        raise ValueError(f"axis {at.name!r} has no cone")
    per_time = rowsum(at.barrier.reshape(at.barrier.shape[0], -1), np.minimum)
    viol = np.nonzero(per_time < VIOLATION_THRESHOLD)[0]
    violation_time = float(traj.times[viol[0]]) if viol.size else None
    return InvarianceReport(float(per_time.min()), violation_time)
