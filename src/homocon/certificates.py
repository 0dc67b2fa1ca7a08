"""Feasibility certificates for the protocol design inequalities.

Two matrix inequalities are handled, both specialized to the integrator
chain and its diagonal dilation generator G:

* P-form  (verifies a given gain):  P > 0,  P G + G P > 0,
  P (A - B K) + (A - B K)' P < 0
* XY-form (designs the gain):       X > 0,  G X + X G > 0,
  A X + X A' - B Y - Y' B' < 0,  with K = Y X^{-1}, P = X^{-1}

"Feasible" means every eigenvalue margin clears a scale-aware gap.
Solvers search a Lyapunov-equation family first and fall back to
alternating eigenvalue-clipping projections, so no external SDP solver
is needed at these sizes (n <= 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import (
    clip_psd,
    jacobi_eigh,
    lyap_solve,
    pencil_eigvals,
    symmetrize,
)
from .homogeneity import DilationGenerator
from .protocols import IntegratorChain, linear_gain

STRICTNESS = 1e-12  # "> 0" means lambda_min > STRICTNESS * scale


class NotSymmetric(Exception):
    pass


class SingularX(Exception):
    pass


class Infeasible(Exception):
    pass


class NonPositiveRho(Exception):
    pass


def _require_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        # the symmetry test below is False for nan, so it would pass
        raise ValueError(f"{name} must be finite")
    scale = max(float(np.linalg.norm(M)), 1e-300)
    if np.linalg.norm(M - M.T) > 1e-12 * scale:
        raise NotSymmetric(f"{name} is not symmetric")
    return symmetrize(M)


@dataclass(frozen=True, eq=False)
class CertificateP:
    P: np.ndarray
    margins: tuple[float, float, float]
    feasible: bool


@dataclass(frozen=True, eq=False)
class CertificateXY:
    X: np.ndarray
    Y: np.ndarray
    P: np.ndarray
    K: np.ndarray
    margins: tuple[float, float, float]
    feasible: bool


@dataclass(frozen=True)
class RobustnessConstants:
    rho: float
    theta: float
    q_bound: float


def verify_lmi_p(
    P: np.ndarray,
    gen: DilationGenerator,
    A: np.ndarray,
    B: np.ndarray,
    K_lin: np.ndarray,
) -> CertificateP:
    """Eigenvalue margins of the P-form inequality for gain ``K_lin``.

    Margins, in order: lambda_min(P), lambda_min(P G + G P),
    -lambda_max(P Acl + Acl' P) with Acl = A - B K_lin. Feasible iff all
    exceed the scale-aware strictness gap.
    """
    P = _require_symmetric(P, "P")
    G = gen.matrix()
    A = np.asarray(A, dtype=float)
    Acl = A - np.asarray(B, dtype=float).reshape(-1, 1) @ np.asarray(
        K_lin, dtype=float
    ).reshape(1, -1)
    m1 = float(jacobi_eigh(P)[0])
    m2 = float(jacobi_eigh(symmetrize(P @ G + G @ P))[0])
    m3 = -float(jacobi_eigh(symmetrize(P @ Acl + Acl.T @ P))[-1])
    scale = max(float(np.linalg.norm(P)), 1e-300)
    feasible = all(m > STRICTNESS * scale for m in (m1, m2, m3))
    return CertificateP(P, (m1, m2, m3), feasible)


def verify_lmi_xy(
    X: np.ndarray,
    Y: np.ndarray,
    gen: DilationGenerator,
    A: np.ndarray,
    B: np.ndarray,
) -> CertificateXY:
    """Eigenvalue margins of the XY-form inequality; also returns the
    derived P = X^{-1} and K = Y X^{-1}."""
    X = _require_symmetric(X, "X")
    Y = np.asarray(Y, dtype=float).reshape(1, -1)
    G = gen.matrix()
    A = np.asarray(A, dtype=float)
    Bc = np.asarray(B, dtype=float).reshape(-1, 1)
    n = X.shape[0]
    svals = np.linalg.svd(X, compute_uv=False)
    if svals[-1] <= 1e-12 * max(svals[0], 1e-300):
        raise SingularX("X is numerically singular")
    P = symmetrize(np.linalg.inv(X))
    K = (Y @ P).reshape(-1)
    m1 = float(jacobi_eigh(X)[0])
    m2 = float(jacobi_eigh(symmetrize(G @ X + X @ G))[0])
    W = A @ X + X @ A.T - Bc @ Y - Y.T @ Bc.T
    m3 = -float(jacobi_eigh(symmetrize(W))[-1])
    scale = max(float(np.linalg.norm(X)), 1e-300)
    feasible = all(m > STRICTNESS * scale for m in (m1, m2, m3))
    return CertificateXY(X, Y.reshape(-1), P, K, (m1, m2, m3), feasible)


def _diag_scan(n: int, max_ratio: int = 3):
    """Deterministic family of diagonal Q matrices, identity first."""
    yield np.ones(n)
    exps = np.arange(-max_ratio, max_ratio + 1, dtype=float)
    for a in exps:
        if a == 0.0:
            continue
        yield 10.0 ** (a * np.arange(n) / max(n - 1, 1))
        yield 10.0 ** (a * np.arange(n)[::-1] / max(n - 1, 1))
    rng = np.random.default_rng(20260808)
    for _ in range(60):
        yield 10.0 ** rng.uniform(-2.5, 2.5, size=n)


def solve_lmi_p(
    gen: DilationGenerator,
    A: np.ndarray,
    B: np.ndarray,
    K_lin: np.ndarray,
    max_projection_iters: int = 400,
) -> CertificateP:
    """Find some feasible P for the P-form inequality.

    Scans Lyapunov solutions Acl' P + P Acl = -diag(q) over a fixed q
    family (each candidate satisfies conditions 1 and 3 by construction)
    and keeps the first that also satisfies the dilation condition. If
    the scan fails, alternating projections refine the best candidate.
    """
    A = np.asarray(A, dtype=float)
    Bc = np.asarray(B, dtype=float).reshape(-1, 1)
    K = np.asarray(K_lin, dtype=float).reshape(1, -1)
    Acl = A - Bc @ K
    if np.max(np.real(np.linalg.eigvals(Acl))) >= 0:
        raise Infeasible("closed loop A - B K is not Hurwitz")
    G = gen.matrix()
    n = gen.n

    best = None
    for q in _diag_scan(n):
        P = lyap_solve(Acl, np.diag(q))
        P = P / max(float(np.linalg.norm(P)), 1e-300)
        cert = verify_lmi_p(P, gen, A, Bc, K)
        if cert.feasible:
            return cert
        if best is None or min(cert.margins) > min(best.margins):
            best = cert

    # alternating projections: clip each condition in its image space
    P = best.P.copy()
    rk = gen.diag_entries
    denom2 = rk[:, None] + rk[None, :]
    for _ in range(max_projection_iters):
        scale = max(float(np.linalg.norm(P)), 1e-300)
        eps = 1e-6 * scale
        P = clip_psd(P, eps)
        P = clip_psd(P @ G + G @ P, eps) / denom2
        W = symmetrize(P @ Acl + Acl.T @ P)
        P = lyap_solve(Acl, clip_psd(-W, eps))
        cert = verify_lmi_p(P, gen, A, Bc, K)
        if cert.feasible:
            return cert
    raise Infeasible("no P certificate found within the iteration budget")


def solve_lmi_xy(
    gen: DilationGenerator,
    A: np.ndarray,
    B: np.ndarray,
    max_projection_iters: int = 400,
) -> CertificateXY:
    """Find some feasible (X, Y) for the XY-form inequality.

    Seeds X from the Lyapunov equation of the lam = 1 pole-placement
    closed loop with Y = K X, which satisfies conditions 1 and 3
    exactly; the q scan then targets the dilation condition.
    """
    A = np.asarray(A, dtype=float)
    Bc = np.asarray(B, dtype=float).reshape(-1, 1)
    n = gen.n
    K1 = linear_gain(n, 1.0).reshape(1, -1)
    Acl = A - Bc @ K1
    G = gen.matrix()

    best = None
    for q in _diag_scan(n):
        X = lyap_solve(Acl, np.diag(q), transposed=True)
        X = X / max(float(np.linalg.norm(X)), 1e-300)
        Y = K1 @ X
        cert = verify_lmi_xy(X, Y, gen, A, Bc)
        if cert.feasible:
            return cert
        if best is None or min(cert.margins) > min(best.margins):
            best = cert

    X = best.X.copy()
    rk = gen.diag_entries
    denom2 = rk[:, None] + rk[None, :]
    for _ in range(max_projection_iters):
        scale = max(float(np.linalg.norm(X)), 1e-300)
        eps = 1e-6 * scale
        X = clip_psd(X, eps)
        X = clip_psd(G @ X + X @ G, eps) / denom2
        W = symmetrize(Acl @ X + X @ Acl.T)
        X = lyap_solve(Acl, clip_psd(-W, eps), transposed=True)
        cert = verify_lmi_xy(X, K1 @ X, gen, A, Bc)
        if cert.feasible:
            return cert
    raise Infeasible("no (X, Y) certificate found within the iteration budget")


def compute_rho(P: np.ndarray, A_cl: np.ndarray) -> float:
    """Largest decay rate rho (with a 1% safety factor) such that
    P Acl + Acl' P + rho P stays negative definite."""
    P = _require_symmetric(P, "P")
    A_cl = np.asarray(A_cl, dtype=float)
    M = symmetrize(P @ A_cl + A_cl.T @ P)
    rho_star = -float(pencil_eigvals(M, P)[-1])
    if rho_star <= 0:
        raise NonPositiveRho("P does not certify exponential decay for this loop")
    return 0.99 * rho_star


def compute_theta(P: np.ndarray, gen: DilationGenerator, rho: float) -> float:
    """Guaranteed decay rate of the homogeneous norm:
    theta = rho / (2 lambda_max(P^{-1/2} (P G + G P) P^{-1/2}))."""
    if rho <= 0:
        raise NonPositiveRho("rho must be positive")
    P = _require_symmetric(P, "P")
    G = gen.matrix()
    lam_max = float(pencil_eigvals(symmetrize(P @ G + G @ P), P)[-1])
    if lam_max <= 0:
        raise NonPositiveRho("dilation condition P G + G P > 0 fails")
    return rho / (2.0 * lam_max)


def disturbance_bound(
    P: np.ndarray,
    H: np.ndarray,
    lam: float,
    rho: float,
    theta: float,
) -> float:
    """Admissible matched-disturbance amplitude for the n = 2, mu = -1
    robust non-overshooting case.

    min of two branches: rho / (2 |P^{1/2}|) with |.| the spectral norm
    of the symmetric square root, and
    lam * theta * lambda_min(P^{-1/2} H'H P^{-1/2})
    / lambda_max^{1/2}(P^{-1/2} eta1 eta1' P^{-1/2}).
    """
    P = _require_symmetric(P, "P")
    H = np.asarray(H, dtype=float)
    n = P.shape[0]
    sqrt_norm = float(np.sqrt(jacobi_eigh(P)[-1]))
    branch1 = rho / (2.0 * sqrt_norm)
    lam_min_H = float(pencil_eigvals(H.T @ H, P)[0])
    e1 = np.zeros((n, 1))
    e1[0, 0] = 1.0
    lam_max_e = float(pencil_eigvals(e1 @ e1.T, P)[-1])
    branch2 = lam * theta * lam_min_H / np.sqrt(max(lam_max_e, 1e-300))
    return float(min(branch1, branch2))


def robustness_constants(
    P: np.ndarray,
    gen: DilationGenerator,
    H: np.ndarray,
    lam: float,
    K_lin: np.ndarray,
) -> RobustnessConstants:
    """Bundle rho, theta and the disturbance bound for one certificate."""
    n = gen.n
    chain = IntegratorChain(n)
    Acl = chain.A - chain.B @ np.asarray(K_lin, dtype=float).reshape(1, -1)
    rho = compute_rho(P, Acl)
    theta = compute_theta(P, gen, rho)
    return RobustnessConstants(rho, theta, disturbance_bound(P, H, lam, rho, theta))
