"""Leader-rooted directed communication graphs.

Edge convention, used everywhere in this package: ``weights[i, j] > 0``
means agent ``j`` transmits to agent ``i`` (information flows j -> i).
Agent 0 is the leader; it receives nothing, so row 0 is all zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SingularFollowerBlock(Exception):
    """The follower block of the Laplacian is numerically singular,
    which signals that the graph is not leader-rooted."""


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Weighted directed graph over one leader (index 0) and N followers.

    ``weights`` is (N+1)x(N+1), nonnegative, zero diagonal, zero leader
    row, and every follower has at least one incoming edge. Whether the
    leader actually roots the graph is checked by :func:`is_leader_rooted`
    and, indirectly, by :func:`laplacian`.
    """

    num_followers: int
    weights: np.ndarray

    def __post_init__(self):
        W = np.array(self.weights, dtype=float)
        N = self.num_followers
        if N < 1:
            raise ValueError("at least one follower required")
        if W.shape != (N + 1, N + 1):
            raise ValueError(f"weights must be ({N + 1}, {N + 1}), got {W.shape}")
        if not np.all(np.isfinite(W)):
            raise ValueError("weights must be finite")
        if np.any(W < 0):
            raise ValueError("weights must be nonnegative")
        if np.any(np.diagonal(W) != 0):
            raise ValueError("self-loops are excluded (diagonal must be zero)")
        if np.any(W[0] != 0):
            raise ValueError("leader row must be zero (the leader receives nothing)")
        if np.any(W[1:].sum(axis=1) <= 0):
            raise ValueError("every follower needs at least one incoming edge")
        W.setflags(write=False)
        object.__setattr__(self, "weights", W)

    @staticmethod
    def from_edges(num_followers: int, edges) -> "DirectedGraph":
        """Build from (receiver, sender, weight) triples; agent indices
        must be integers in [0, num_followers]. Every follower needs an
        incoming edge, so fewer edges than followers raise ValueError
        before the weight matrix is allocated."""
        N, edges = num_followers, list(edges)
        if N > len(edges):
            raise ValueError(f"{N} followers need at least {N} edges, got {len(edges)}")
        W = np.zeros((N + 1, N + 1))
        for i, j, w in edges:
            for k in (i, j):
                if not (float(k).is_integer() and 0 <= k <= N):
                    raise ValueError(f"agent index {k!r} is not an integer in [0, {N}]")
            W[int(i), int(j)] = float(w)
        return DirectedGraph(N, W)


@dataclass(frozen=True, eq=False)
class LaplacianDecomposition:
    full_laplacian: np.ndarray
    follower_block: np.ndarray


def laplacian(g: DirectedGraph) -> LaplacianDecomposition:
    """Graph Laplacian and its follower block.

    L has off-diagonal entries -w_ij and diagonal row sums; deleting the
    leader row/column leaves the follower block, which is invertible
    exactly when the leader roots the graph.

    Raises SingularFollowerBlock when the minimum singular value of the
    follower block falls below 1e-9 times its spectral norm.
    """
    W = g.weights
    L = np.where(W > 0, -W, 0.0)  # avoids negative zeros
    np.fill_diagonal(L, W.sum(axis=1))
    Lt = L[1:, 1:]
    svals = np.linalg.svd(Lt, compute_uv=False)
    smin, smax = float(svals[-1]), float(svals[0])
    if smin <= 1e-9 * max(smax, 1e-300):
        raise SingularFollowerBlock(
            f"follower block singular (sigma_min={smin:.3e}); graph is not leader-rooted"
        )
    L.setflags(write=False)
    Ltv = Lt.copy()
    Ltv.setflags(write=False)
    return LaplacianDecomposition(L, Ltv)


def is_leader_rooted(g: DirectedGraph) -> bool:
    """True iff every follower is reachable from the leader along the
    direction of information flow (sender -> receiver)."""
    W = g.weights
    N = g.num_followers
    reached = np.zeros(N + 1, dtype=bool)
    reached[0] = True
    stack = [0]
    while stack:
        j = stack.pop()
        # j informs i whenever W[i, j] > 0
        for i in np.nonzero(W[:, j] > 0)[0]:
            if not reached[i]:
                reached[i] = True
                stack.append(int(i))
    return bool(reached.all())


def solve_transmitted(g: DirectedGraph, M: np.ndarray, states) -> np.ndarray:
    """Distributed fixed point of the transmitted-vector recursion.

    Each follower averages, over its in-neighbors j, the quantity
    M(x_i - x_j) + omega_j; the leader transmits zero. Multiplying each
    follower's equation by its weighted in-degree stacks the fixed point
    into one linear system in the follower block of the Laplacian,
    ``L_ff @ Omega = (L @ X M')[1:]``, solved directly.

    Args:
        g: leader-rooted graph.
        M: (m, n) mixing matrix applied to state differences.
        states: N+1 state vectors of dimension n (leader first).

    Returns:
        (N, m) array of transmitted vectors for followers 1..N; at the
        fixed point follower i transmits M (x_i - x_0).

    Raises:
        SingularFollowerBlock: the leader does not root the graph (see
            :func:`laplacian`).
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    X = np.asarray(states, dtype=float)
    N = g.num_followers
    n = M.shape[1]
    if X.shape != (N + 1, n):
        raise ValueError(f"states must be ({N + 1}, {n}), got {X.shape}")
    dec = laplacian(g)
    return np.linalg.solve(dec.follower_block, (dec.full_laplacian @ (X @ M.T))[1:])
