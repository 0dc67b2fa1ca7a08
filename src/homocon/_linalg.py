"""Small dense linear-algebra kernels shared across the package.

Everything here targets matrices of size n <= 8. Symmetric eigenproblems
go to LAPACK (``np.linalg.eigvalsh`` and ``eigh``), as everywhere else in
the package: a certificate's outputs already pass through LAPACK solves
and BLAS products, so no eigensolver of its own could make them the same
across platforms and BLAS builds.
"""

from __future__ import annotations

import numpy as np


def symmetrize(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def rowsum(x: np.ndarray, op=np.add) -> np.ndarray:
    """op.reduce(x, axis=-1), bit for bit, for the short rows of the
    simulator: x.sum(axis=-1), or with ``np.maximum`` and ``np.minimum``
    x.max(axis=-1) and x.min(axis=-1).

    numpy reduces a short last axis row by row, at a cost per row;
    combining its columns left to right costs per column instead, which
    is several times faster on a few hundred rows, and gives the same
    bits: the same rounding, the same nan, and the same sign of a tie
    between 0.0 and -0.0 (a sum starts from the identity, so a row of
    -0.0 sums to 0.0). The one exception is the sign of a nan whose sign
    bit is set, which numpy's own max and min keep or drop by memory
    layout. Small arrays, where numpy's fixed cost is lower, and rows of
    8 or more columns, which numpy sums pairwise, go to numpy.
    """
    n = x.shape[-1]
    if not 0 < n < 8 or x.size < 128:
        return op.reduce(x, axis=-1)
    out = 0.0 + x[..., 0] if op is np.add else x[..., 0].copy()
    for j in range(1, n):
        op(out, x[..., j], out=out)
    return out


def outer(x: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x[..., None] * v, bit for bit, written into ``out`` when given, for
    a short v: (n,), or (k, n) against a one-dimensional x of k elements.
    numpy broadcasts a short last axis row by row; one call on views with
    that axis first runs its inner loop along x's last axis instead."""
    if out is None:
        out = np.empty(x.shape + v.shape[-1:])
    if x.ndim == 1:  # the implicit step's rows
        np.multiply(x, v.T if v.ndim > 1 else v[:, None], out=out.T, order="C")
    else:
        np.multiply(x, v.reshape((-1,) + (1,) * x.ndim), out=np.moveaxis(out, -1, 0), order="C")
    return out


def grouped_matmul(X: np.ndarray, M: np.ndarray, groups: int = 1) -> np.ndarray:
    """X @ M on the rows along the last axis of X, as one matmul: M is an
    (n, k) matrix or (n,) vector shared by every row, or a stack of one
    (n, k) matrix for each of ``groups`` equal consecutive row groups. A
    group of one row is padded to two: BLAS takes a one-row product
    through another kernel, which may round differently."""
    if groups == 1 and X.ndim == 2 and len(X) > 1:
        return X @ (M[0] if M.ndim == 3 else M)
    Xg = X.reshape(groups, -1, X.shape[-1])
    rows = Xg.shape[1]
    out = ((np.concatenate((Xg, Xg), axis=1) if rows == 1 else Xg) @ M)[:, :rows]
    return out.reshape(X.shape[:-1] + out.shape[2:])


def fro_norm(M: np.ndarray) -> float:
    """Frobenius norm of M. When the plain sum of squares overflows or
    underflows to zero, it is taken of M scaled by its largest entry."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(M))
    if norm == 0.0 or not np.isfinite(norm):
        big = float(np.max(np.abs(M), initial=0.0))
        if 0.0 < big < np.inf:
            norm = big * float(np.linalg.norm(M / big))
    return norm


def is_positive_definite(S: np.ndarray) -> bool:
    w = np.linalg.eigvalsh(symmetrize(S))
    scale = max(abs(float(w[0])), abs(float(w[-1])), 1e-300)
    return float(w[0]) > 1e-12 * scale


def pencil_eigvals(M: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Eigenvalues of P^{-1/2} M P^{-1/2} for symmetric M and SPD P.

    Computed via the Cholesky congruence L^{-1} M L^{-T}, which has the
    same spectrum.
    """
    L = np.linalg.cholesky(symmetrize(P))
    X = np.linalg.solve(L, symmetrize(M))
    X = np.linalg.solve(L, X.T).T
    return np.linalg.eigvalsh(symmetrize(X))


def lyap_solve(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve A'P + PA = -Q.

    Direct Kronecker solve; fine for the n <= 8 sizes used here. A must
    have no eigenvalue pair summing to zero (Hurwitz A qualifies).
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    At = A.T
    Inn = np.eye(n)
    # vec(M X + X M') = (I (x) M + M (x) I) vec(X) for column-major vec;
    # row-major reshape flips the Kronecker order, handled below.
    K = np.kron(Inn, At) + np.kron(At, Inn)
    p = np.linalg.solve(K, -np.asarray(Q, dtype=float).reshape(-1))
    return symmetrize(p.reshape(n, n))


def clip_psd(S: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Nearest (Frobenius) symmetric matrix with eigenvalues >= floor."""
    w, V = np.linalg.eigh(symmetrize(S))
    w = np.maximum(w, floor)
    return symmetrize((V * w) @ V.T)
