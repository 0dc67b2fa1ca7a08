"""Consensus control laws for integrator-chain agents.

Three protocol kinds share one evaluation point, the transmitted vector
v_i (equal to the consensus error e_i at the distributed fixed point):

* linear:        u = -K v
* consensus:     u = -||v||_d^(1+mu) K d(-ln ||v||_d) v, K from the
                 design certificate
* non-overshoot: same scaling law with the pole-placement gain K_lin,
                 paired with a safety cone

The homogeneous law is evaluated in one place, ``_law``, which both
``control_input_many`` and the simulator call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._linalg import grouped_matmul
from .homogeneity import HomogeneousNormContext, _log_norms, unit_sphere_max


class DimensionMismatch(Exception):
    pass


# Largest chain dimension: the certificates' Lyapunov solve
# (``_linalg.lyap_solve``) forms an n^2 x n^2 Kronecker system, 128 MiB at 64
MAX_CHAIN_DIM = 64


@dataclass(frozen=True)
class IntegratorChain:
    """Canonical chain of n integrators, 1 <= n <= MAX_CHAIN_DIM: A the
    upper shift, B the last basis vector."""

    n: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_CHAIN_DIM:
            raise ValueError(f"n must be between 1 and {MAX_CHAIN_DIM}")

    @property
    def A(self) -> np.ndarray:
        return np.diag(np.ones(self.n - 1), k=1) if self.n > 1 else np.zeros((1, 1))

    @property
    def B(self) -> np.ndarray:
        b = np.zeros((self.n, 1))
        b[-1, 0] = 1.0
        return b


def linear_gain(n: int, lam: float) -> np.ndarray:
    """Pole-placement row gain: the first row of (A + lam*I)^n.

    The closed loop A - B*K has all eigenvalues at -lam.
    """
    if n < 1 or not 0 < lam < np.inf:
        raise ValueError("need n >= 1 and finite lam > 0")
    chain = IntegratorChain(n)
    with np.errstate(over="ignore", invalid="ignore"):
        M = np.linalg.matrix_power(chain.A + lam * np.eye(n), n)
    if not np.all(np.isfinite(M[0])):
        raise ValueError(f"lam = {lam:g} is too large: the gain overflows")
    return M[0].copy()


class ProtocolKind(enum.Enum):
    LINEAR = "linear"
    HOMOGENEOUS_CONSENSUS = "homogeneous_consensus"
    HOMOGENEOUS_NONOVERSHOOT = "homogeneous_nonovershoot"


@dataclass(frozen=True, eq=False)
class ProtocolSpec:
    """Validated controller parameters: the five values the law reads.

    ``gain`` is the 1xn row applied inside the law; homogeneous kinds
    carry the norm context whose P certifies them. A pole-placement
    lambda is not kept: the gain holds it, and a safety cone keeps its
    own (``ConeSpec.lam``). Use the factory functions below rather than
    constructing directly.
    """

    kind: ProtocolKind
    n: int
    gain: np.ndarray
    mu: float = 0.0
    norm_ctx: HomogeneousNormContext | None = None

    def __post_init__(self):
        gain = np.asarray(self.gain, dtype=float).reshape(-1)
        if gain.shape != (self.n,):
            raise DimensionMismatch(f"gain must have {self.n} entries")
        if not np.all(np.isfinite(gain)):
            raise ValueError("gain must be finite")
        gain.setflags(write=False)
        object.__setattr__(self, "gain", gain)
        if self.kind is ProtocolKind.LINEAR:
            if self.mu != 0.0:
                raise ValueError("linear protocol has mu = 0")
            return
        if self.norm_ctx is None:
            raise ValueError("homogeneous protocols require a norm context")
        if self.norm_ctx.gen.n != self.n:
            raise DimensionMismatch("norm context dimension mismatch")
        if self.norm_ctx.gen.mu != self.mu:
            raise ValueError("norm context was built for a different mu")
        if self.kind is ProtocolKind.HOMOGENEOUS_NONOVERSHOOT:
            if not (-1.0 <= self.mu < 0.0):
                raise ValueError("non-overshooting protocol needs mu in [-1, 0)")
        else:
            hi_ok = self.n == 1 or self.mu < 1.0 / (self.n - 1)
            if not (self.mu >= -1.0 and hi_ok):
                raise ValueError("consensus protocol needs mu in [-1, 1/(n-1))")

    def sphere_gain_bound(self) -> float:
        """max |gain . z| over the unit P-sphere (control magnitude on the
        sphere; also the amplitude of the mu = -1 law near the origin)."""
        if self.norm_ctx is None:
            return float(np.linalg.norm(self.gain))
        return unit_sphere_max(self.norm_ctx, self.gain)


def linear_protocol(n: int, lam: float) -> ProtocolSpec:
    return ProtocolSpec(ProtocolKind.LINEAR, n, linear_gain(n, lam))


def consensus_protocol(gain: np.ndarray, norm_ctx: HomogeneousNormContext) -> ProtocolSpec:
    """Homogeneous consensus law from a designed gain and its certified
    norm context (typically K = Y X^{-1}, P = X^{-1})."""
    gen = norm_ctx.gen
    return ProtocolSpec(ProtocolKind.HOMOGENEOUS_CONSENSUS, gen.n, gain, gen.mu, norm_ctx)


def nonovershoot_protocol(lam: float, norm_ctx: HomogeneousNormContext) -> ProtocolSpec:
    """Homogeneous non-overshooting law: pole-placement gain scaled by the
    dilation, certified by the norm context's P."""
    gen = norm_ctx.gen
    return ProtocolSpec(
        ProtocolKind.HOMOGENEOUS_NONOVERSHOOT, gen.n, linear_gain(gen.n, lam), gen.mu, norm_ctx
    )


def _law(V, Ps, Ks, rk, opm, s_warm):
    """The homogeneous law u = -exp(opm*s) K d(-s) v on the rows v of V.

    The rows form len(Ps) equal consecutive groups, group j with shape
    matrix ``Ps[j]`` and gain ``Ks[j]`` (stacked (A, n, n) and (A, n));
    ``rk`` and ``opm`` (1 + mu) are shared or per row.
    Returns (u, log_norms), with u = 0 where the log norm is not finite
    (the origin).
    """
    s, Z = _log_norms(V, Ps, rk, s_warm)
    finite = np.isfinite(s)
    with np.errstate(over="ignore"):
        KZ = grouped_matmul(Z, Ks[:, :, None], len(Ks))[:, 0]
        u = -np.exp(opm * np.where(finite, s, 0.0)) * KZ
    return np.where(finite, u, 0.0), s


def control_input_many(spec: ProtocolSpec, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Control inputs for a batch of transmitted vectors (rows of V).

    Returns (u, log_norms); log norms are -inf at the origin, where the
    law returns 0 for every kind.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if V.shape[1] != spec.n:
        raise DimensionMismatch(f"vectors must have {spec.n} components")
    if spec.kind is ProtocolKind.LINEAR:
        return -(V @ spec.gain), np.full(V.shape[0], -np.inf)
    ctx = spec.norm_ctx
    with np.errstate(over="ignore", invalid="ignore"):
        return _law(V, ctx.P[None], spec.gain[None], ctx.gen.diag_entries, 1.0 + spec.mu, None)


def control_input(spec: ProtocolSpec, v: np.ndarray) -> float:
    """Scalar control input for one transmitted vector.

    Linear: -K v. Homogeneous: -r^(1+mu) K d(-ln r) v with r = ||v||_d,
    and 0 at v = 0. For mu = -1 the r^(1+mu) factor is identically 1,
    leaving the bounded discontinuous law with no special casing.
    """
    u, _ = control_input_many(spec, np.asarray(v, dtype=float)[None, :])
    return float(u[0])


def error_field(
    system: IntegratorChain,
    spec: ProtocolSpec,
    e: np.ndarray,
    q: np.ndarray | None = None,
) -> np.ndarray:
    """Block-decoupled closed-loop error field.

    ``e`` stacks N follower errors of dimension n; block i evolves as
    A e_i + B u_i(e_i) + q_i, with the transmitted vector resolved
    algebraically to e_i and every follower running the law ``spec``.
    """
    n = system.n
    e = np.asarray(e, dtype=float).reshape(-1)
    if e.size % n != 0:
        raise DimensionMismatch(f"stacked error length {e.size} not a multiple of n={n}")
    N = e.size // n
    E = e.reshape(N, n)
    if q is None:
        Q = np.zeros((N, n))
    else:
        q = np.asarray(q, dtype=float).reshape(-1)
        if q.size != e.size:
            raise DimensionMismatch("disturbance must match the stacked error")
        Q = q.reshape(N, n)

    out = E @ system.A.T + Q
    u, _ = control_input_many(spec, E)
    out += np.outer(u, system.B.reshape(-1))
    return out.reshape(-1)
