import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from homocon._linalg import (
    clip_psd,
    is_positive_definite,
    lyap_solve,
    outer,
    pencil_eigvals,
    rowsum,
)


def _random_symmetric(rng, n, scale=1.0):
    M = rng.normal(size=(n, n)) * scale
    return 0.5 * (M + M.T)


def test_eigenvalues_scale_at_extreme_magnitudes():
    # 1e200 squares to overflow and 1e-200 to zero in a plain Frobenius
    # norm; every kernel must still scale with its input
    rng = np.random.default_rng(5)
    L = np.tril(rng.normal(size=(5, 5))) + 3 * np.eye(5)
    for S, P in (
        (np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([[1.0, 0.25], [0.25, 2.0]])),
        (_random_symmetric(rng, 5), L @ L.T),
    ):
        w = pencil_eigvals(S, P)
        C = clip_psd(S, 0.1)
        for c in (1e-200, 1e200):
            assert is_positive_definite(c * P) and not is_positive_definite(-c * P)
            assert np.allclose(pencil_eigvals(c * S, P), c * w, rtol=1e-12, atol=0.0)
            assert np.allclose(pencil_eigvals(S, c * P), w / c, rtol=1e-12, atol=0.0)
            assert np.allclose(clip_psd(c * S, c * 0.1), c * C, rtol=1e-12, atol=1e-12 * c)


def test_lyapunov_solve_against_scipy():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        A = rng.normal(size=(n, n)) - 2.0 * np.eye(n)  # comfortably Hurwitz
        S = rng.normal(size=(n, n))
        Q = S @ S.T + np.eye(n)
        P = lyap_solve(A, Q)
        assert np.allclose(A.T @ P + P @ A, -Q, atol=1e-10)
        P_ref = scipy.linalg.solve_continuous_lyapunov(A.T, -Q)
        assert np.allclose(P, P_ref, atol=1e-9)
        X = lyap_solve(A.T, Q)
        assert np.allclose(A @ X + X @ A.T, -Q, atol=1e-10)


def test_pencil_eigvals_congruence():
    rng = np.random.default_rng(4)
    n = 4
    L = np.tril(rng.normal(size=(n, n))) + 2 * np.eye(n)
    P = L @ L.T
    M = _random_symmetric(rng, n)
    vals = pencil_eigvals(M, P)
    Ph = scipy.linalg.sqrtm(P).real
    ref = np.linalg.eigvalsh(np.linalg.solve(Ph, np.linalg.solve(Ph, M).T))
    assert np.allclose(vals, np.sort(ref), atol=1e-9)


def test_clip_psd_floors_eigenvalues():
    S = np.diag([-1.0, 0.5, 2.0])
    C = clip_psd(S, 0.1)
    assert np.allclose(np.linalg.eigvalsh(C), [0.1, 0.5, 2.0])


@pytest.mark.parametrize("n", range(1, 11))
def test_rowsum_matches_numpy_sum_bit_for_bit(n):
    # below 8 columns rowsum adds columns, from 8 on it is numpy's own
    # pairwise sum; either way every bit, the sign of zero and the nan
    # payload included, must equal x.sum(axis=-1)
    rng = np.random.default_rng(n)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    for shape in ((400, n), (15, 20, n)):
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
        mask = rng.random(shape) < 0.2
        x[mask] = rng.choice(special, mask.sum())
        zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
        zeros[0] = -0.0  # a row of negative zeros sums to 0.0
        for base in (x, zeros):
            wide = np.concatenate([base, base[..., ::-1]], axis=-1)
            for v in (base, wide[..., 1:n + 1], base[..., ::-1], base[::2]):
                with np.errstate(over="ignore", invalid="ignore"):
                    got, want = rowsum(v), v.sum(axis=-1)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=80)
@given(
    n=st.integers(1, 9),
    lead=st.sampled_from([(300,), (40,), (8, 30), (3, 5), (20, 16)]),
    mix=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    view=st.sampled_from(["contiguous", "strided", "reversed"]),
)
def test_rowsum_max_and_min_match_numpy_bit_for_bit(n, lead, mix, seed, view):
    # the batch reductions take the max and min of rows of a few entries,
    # and settled rows hold barriers of both zero signs, so a tie picks
    # a sign: with np.maximum and np.minimum every bit must equal
    # x.max(axis=-1) and x.min(axis=-1), for small arrays and rows of 8
    # or more columns (numpy's own) too
    rng = np.random.default_rng(seed)
    shape = lead + (n,)
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
    mask = rng.random(shape) < mix
    x[mask] = rng.choice(special, mask.sum())
    if view == "strided":  # a column of a wider block, as E[..., 0]
        x = np.stack([x, -x], axis=-1)[..., 0]
    elif view == "reversed":
        x = x[..., ::-1]
    for op, want in ((np.maximum, x.max(axis=-1)), (np.minimum, x.min(axis=-1))):
        got = rowsum(x, op)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), op.__name__


@pytest.mark.parametrize(
    "xshape, vshape",
    [((), (3,)), ((1,), (2,)), ((6,), (2,)), ((300,), (2,)), ((257, 300), (2,)), ((40,), (40, 4)),
     ((300,), (300, 2))],
)
def test_outer_matches_numpy_bit_for_bit(xshape, vshape):
    # x[..., None] * v, every bit, the sign of zero and nan included,
    # into a new array and into a strided view, as the implicit step's
    # buffers are
    rng = np.random.default_rng(len(xshape) + 7 * vshape[-1])
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    x, v = (np.array(rng.standard_normal(s) * 10.0 ** rng.uniform(-200, 200, s)) for s in (xshape, vshape))
    for a in (x, v):
        mask = rng.random(a.shape) < 0.2
        a[mask] = rng.choice(special, mask.sum())
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        want = x[..., None] * v
        got = outer(x, v)
        wide = np.full(want.shape[:-1] + (2 * vshape[-1],), 7.0)
        into = outer(x, v, wide[..., 1::2])
    assert got.flags.c_contiguous and into.base is not None
    for y in (got, np.ascontiguousarray(into)):
        assert y.shape == want.shape
        assert np.array_equal(y.view(np.uint64), want.view(np.uint64))
    assert (wide[..., ::2] == 7.0).all()
