"""Feasibility certificates for the protocol design inequalities.

Two matrix inequalities are handled, both specialized to the integrator
chain and its diagonal dilation generator G:

* P-form  (verifies a given gain):  P > 0,  P G + G P > 0,
  P (A - B K) + (A - B K)' P < 0
* XY-form (designs the gain):       X > 0,  G X + X G > 0,
  A X + X A' - B Y - Y' B' < 0,  with K = Y X^{-1}, P = X^{-1}

"Feasible" means every eigenvalue margin clears a scale-aware gap.
Both forms share one certificate search: for a Hurwitz M it looks for
Z > 0 with Z G + G Z > 0 and M' Z + Z M < 0, with M = A - B K for the
P-form and M = (A - B K1)' for the XY-form (Y = K1 X, K1 the lam = 1
gain). It scans a Lyapunov-equation family first and falls back to
alternating eigenvalue-clipping projections, so no external SDP solver
is needed at these sizes (n <= 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import clip_psd, fro_norm, lyap_solve, pencil_eigvals, symmetrize
from .homogeneity import DilationGenerator
from .protocols import IntegratorChain, linear_gain

STRICTNESS = 1e-12  # "> 0" means lambda_min > STRICTNESS * scale

# alternating-projection passes after a failed Lyapunov scan
_PROJECTION_ITERS = 400


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
    scale = max(fro_norm(M), 1e-300)
    if fro_norm(M - M.T) > 1e-12 * scale:
        raise NotSymmetric(f"{name} is not symmetric")
    with np.errstate(over="ignore"):
        S = symmetrize(M)
    if not np.all(np.isfinite(S)):
        raise ValueError(f"{name} is too large: its symmetric part overflows")
    return S


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


def _margins(Z: np.ndarray, G: np.ndarray, F) -> tuple[tuple, bool]:
    """The three margins lambda_min(Z), lambda_min(Z G + G Z) and
    -lambda_max(F + F'), and whether all exceed the strictness gap on
    the scale of Z. They are taken at U = Z / c, c = ||Z||_F, where no
    product overflows, and scaled back; ``F(U, c)`` forms F, which is
    linear in Z, there. Raises ValueError when one is not finite."""
    c = max(fro_norm(Z), 1e-300)
    U = Z / c
    with np.errstate(over="ignore", invalid="ignore"):
        FU = F(U, c)
        W = FU + FU.T
        unit = np.array([
            np.linalg.eigvalsh(U)[0],
            np.linalg.eigvalsh(symmetrize(U @ G + G @ U))[0],
            -np.linalg.eigvalsh(W)[-1],
        ])
        margins = c * unit
    if not (np.all(np.isfinite(W)) and np.all(np.isfinite(margins))):
        raise ValueError("matrix too large: its certificate margins overflow")
    return tuple(margins.tolist()), bool(np.all(unit > STRICTNESS))


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
    A = np.asarray(A, dtype=float)
    Acl = A - np.asarray(B, dtype=float).reshape(-1, 1) @ np.asarray(
        K_lin, dtype=float
    ).reshape(1, -1)
    margins, feasible = _margins(P, gen.matrix(), lambda U, c: U @ Acl)
    return CertificateP(P, margins, feasible)


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
    A = np.asarray(A, dtype=float)
    Bc = np.asarray(B, dtype=float).reshape(-1, 1)
    svals = np.linalg.svd(X, compute_uv=False)
    if svals[-1] <= 1e-12 * max(svals[0], 1e-300):
        raise SingularX("X is numerically singular")
    P = symmetrize(np.linalg.inv(X))
    K = (Y @ P).reshape(-1)
    # A X + X A' - B Y - Y' B' = F + F' with F = A X - B Y
    margins, feasible = _margins(X, gen.matrix(), lambda U, c: A @ U - Bc @ (Y / c))
    return CertificateXY(X, Y.reshape(-1), P, K, margins, feasible)


def _diag_scan(n: int):
    """Deterministic family of diagonal Q matrices, identity first."""
    yield np.ones(n)
    exps = np.arange(-3, 4, dtype=float)
    for a in exps:
        if a == 0.0:
            continue
        yield 10.0 ** (a * np.arange(n) / max(n - 1, 1))
        yield 10.0 ** (a * np.arange(n)[::-1] / max(n - 1, 1))
    rng = np.random.default_rng(20260808)
    for _ in range(60):
        yield 10.0 ** rng.uniform(-2.5, 2.5, size=n)


def _unit(Z: np.ndarray) -> np.ndarray:
    return Z / max(fro_norm(Z), 1e-300)


def _search(M: np.ndarray, gen: DilationGenerator, verify):
    """First candidate Z that ``verify(Z)`` certifies feasible, for
    M' Z + Z M < 0, Z G + G Z > 0, Z > 0 with M Hurwitz.

    Scans Lyapunov solutions M' Z + Z M = -diag(q) over a fixed q
    family (each candidate satisfies conditions 1 and 3 by construction,
    the dilation condition is checked) and keeps the first feasible one.
    If the scan fails, alternating projections refine the candidate with
    the largest smallest margin, clipping each condition in its image
    space. Every candidate is scaled to unit Frobenius norm, so the
    projection's eigenvalue floor is 1e-6 of its scale.
    """
    G = gen.matrix()
    best = None
    for q in _diag_scan(gen.n):
        Z = _unit(lyap_solve(M, np.diag(q)))
        cert = verify(Z)
        if cert.feasible:
            return cert
        if best is None or min(cert.margins) > best[0]:
            best = (min(cert.margins), Z)

    Z = best[1]
    rk = gen.diag_entries
    denom2 = rk[:, None] + rk[None, :]
    for _ in range(_PROJECTION_ITERS):
        Z = clip_psd(Z, 1e-6)
        Z = clip_psd(Z @ G + G @ Z, 1e-6) / denom2
        W = symmetrize(Z @ M + M.T @ Z)
        Z = _unit(lyap_solve(M, clip_psd(-W, 1e-6)))
        cert = verify(Z)
        if cert.feasible:
            return cert
    raise Infeasible("no certificate found within the iteration budget")


def solve_lmi_p(
    gen: DilationGenerator,
    A: np.ndarray,
    B: np.ndarray,
    K_lin: np.ndarray,
) -> CertificateP:
    """Find some feasible P for the P-form inequality: the certificate
    search on M = Acl = A - B K_lin."""
    A = np.asarray(A, dtype=float)
    Bc = np.asarray(B, dtype=float).reshape(-1, 1)
    K = np.asarray(K_lin, dtype=float).reshape(1, -1)
    Acl = A - Bc @ K
    if np.max(np.real(np.linalg.eigvals(Acl))) >= 0:
        raise Infeasible("closed loop A - B K is not Hurwitz")
    return _search(Acl, gen, lambda P: verify_lmi_p(P, gen, A, Bc, K))


def solve_lmi_xy(
    gen: DilationGenerator,
    A: np.ndarray,
    B: np.ndarray,
) -> CertificateXY:
    """Find some feasible (X, Y) for the XY-form inequality: the
    certificate search on M = Acl' with Y = K1 X, where Acl = A - B K1
    is the lam = 1 pole-placement closed loop. Every candidate then
    satisfies conditions 1 and 3 exactly."""
    A = np.asarray(A, dtype=float)
    Bc = np.asarray(B, dtype=float).reshape(-1, 1)
    K1 = linear_gain(gen.n, 1.0).reshape(1, -1)
    Acl = A - Bc @ K1
    return _search(Acl.T, gen, lambda X: verify_lmi_xy(X, K1 @ X, gen, A, Bc))


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
    sqrt_norm = float(np.sqrt(np.linalg.eigvalsh(P)[-1]))
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
