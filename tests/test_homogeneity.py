import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homocon import homogeneity
from homocon.homogeneity import (
    DilationGenerator,
    HomogeneousNormContext,
    OriginNotDifferentiable,
    _log_norms,
    canonical_norm,
    canonical_norm_many,
    check_generator_relations,
    dilation_matrix,
    norm_gradient,
)
from homocon.protocols import IntegratorChain


from oracles import bisect_norm


def random_feasible_context(rng, n, mu):
    """Random SPD P that also satisfies the dilation monotonicity
    condition; rejection sampling, usually a handful of draws."""
    gen = DilationGenerator(n, mu)
    G = gen.matrix()
    while True:
        L = rng.normal(size=(n, n))
        P = L @ L.T + 0.3 * np.eye(n)
        if np.linalg.eigvalsh(P @ G + G @ P)[0] > 1e-9:
            return HomogeneousNormContext(gen, P)


# -- generator ----------------------------------------------------------------

def test_generator_entries_reference_case():
    gen = DilationGenerator(2, -0.2)
    assert np.allclose(gen.diag_entries, [1.2, 1.0])
    assert gen.diag_entries[-1] == 1.0


def test_generator_rejects_large_mu():
    with pytest.raises(ValueError):
        DilationGenerator(3, 0.5)  # needs mu < 1/2


def test_dilation_identity_and_group_property():
    gen = DilationGenerator(3, -0.4)
    assert np.allclose(dilation_matrix(gen, 0.0), np.eye(3))
    d2, d3, d5 = (dilation_matrix(gen, s) for s in (2.0, 3.0, 5.0))
    assert np.max(np.abs(d2 @ d3 - d5)) <= 1e-12 * np.max(np.abs(d5))


def test_dilation_reference_values():
    gen = DilationGenerator(2, -0.2)
    assert np.allclose(
        dilation_matrix(gen, 1.0), np.diag([np.exp(1.2), np.exp(1.0)])
    )


@pytest.mark.parametrize("n,mu", [(2, -0.2), (4, 0.3), (2, 0.0), (3, -1.0)])
def test_generator_relations_hold_exactly(n, mu):
    gen = DilationGenerator(n, mu)
    chain = IntegratorChain(n)
    r1, r2 = check_generator_relations(gen, chain.A, chain.B)
    assert r1 <= 1e-12
    assert r2 <= 1e-12


# -- canonical norm -----------------------------------------------------------

def test_norm_is_one_on_unit_sphere():
    rng = np.random.default_rng(20)
    ctx = random_feasible_context(rng, 3, -0.5)
    for _ in range(50):
        x = rng.normal(size=3)
        x = x / np.sqrt(x @ ctx.P @ x)
        assert abs(canonical_norm(ctx, x) - 1.0) <= 1e-10


def test_norm_axis_aligned_closed_form():
    ctx = HomogeneousNormContext(DilationGenerator(2, -0.2), np.eye(2))
    r = canonical_norm(ctx, [2.0, 0.0])
    assert abs(r - np.exp(np.log(2.0) / 1.2)) <= 1e-12
    assert abs(r - bisect_norm(ctx, [2.0, 0.0])) <= 1e-10


def test_norm_zero_at_origin_and_continuity():
    rng = np.random.default_rng(21)
    ctx = random_feasible_context(rng, 2, -0.5)
    assert canonical_norm(ctx, [0.0, 0.0]) == 0.0
    for k in range(1, 12):
        x = rng.normal(size=2) * 10.0 ** (-k)
        r = canonical_norm(ctx, x)
        assert r > 0
    # shrinking inputs give shrinking norms
    xs = [rng.normal(size=2) * 10.0 ** (-k) for k in range(1, 10)]
    rs = [canonical_norm(ctx, x) for x in xs]
    assert rs[-1] < rs[0] * 1e-3


def test_norm_scaling_identity():
    rng = np.random.default_rng(22)
    for mu in (-1.0, -0.5, -0.2, 0.3):
        ctx = random_feasible_context(rng, 3, mu)
        rk = ctx.gen.diag_entries
        X = rng.normal(size=(200, 3)) * 3.0
        S = rng.uniform(-5.0, 5.0, size=200)
        r0, _ = canonical_norm_many(ctx, X)
        Xs = X * np.exp(np.outer(S, rk))
        r1, _ = canonical_norm_many(ctx, Xs)
        rel = np.abs(r1 - np.exp(S) * r0) / (np.exp(S) * r0)
        assert rel.max() <= 1e-9


def test_norm_mu_zero_reduces_to_weighted_norm():
    rng = np.random.default_rng(23)
    ctx = random_feasible_context(rng, 3, 0.0)
    for _ in range(50):
        x = rng.normal(size=3) * rng.uniform(0.01, 100.0)
        assert abs(canonical_norm(ctx, x) - np.sqrt(x @ ctx.P @ x)) <= 1e-10 * max(
            1.0, np.sqrt(x @ ctx.P @ x)
        )


def test_norm_postcondition_residual():
    # the defining equation holds to 1e-10 at the returned value
    rng = np.random.default_rng(28)
    for mu in (-1.0, -0.2, 0.3):
        ctx = random_feasible_context(rng, 3, mu)
        rk = ctx.gen.diag_entries
        for _ in range(50):
            x = rng.normal(size=3) * rng.uniform(1e-4, 1e4)
            r = canonical_norm(ctx, x)
            y = x * np.exp(-np.log(r) * rk)
            assert abs(np.sqrt(y @ ctx.P @ y) - 1.0) <= 1e-10


def test_norm_matches_bisection_oracle():
    rng = np.random.default_rng(24)
    for mu in (-1.0, -0.2, 0.3):
        ctx = random_feasible_context(rng, 3, mu)
        for _ in range(20):
            x = rng.normal(size=3) * rng.uniform(1e-3, 1e3)
            r = canonical_norm(ctx, x)
            assert abs(r - bisect_norm(ctx, x)) <= 1e-9 * max(r, 1e-9)


def test_norm_extreme_magnitudes():
    ctx = HomogeneousNormContext(DilationGenerator(2, -0.5), np.eye(2))
    for scale in (1e-200, 1e-30, 1e30, 1e200):
        x = np.array([1.3, -0.7]) * scale
        r = canonical_norm(ctx, x)
        y = x * np.exp(-np.log(r) * ctx.gen.diag_entries)
        assert abs(float(y @ ctx.P @ y) - 1.0) <= 1e-9


# -- gradient -----------------------------------------------------------------

def test_gradient_mu_zero_euclidean():
    ctx = HomogeneousNormContext(DilationGenerator(2, 0.0), np.eye(2))
    x = np.array([3.0, -4.0])
    assert np.allclose(norm_gradient(ctx, x), x / 5.0, atol=1e-12)


def test_gradient_raises_at_origin():
    ctx = HomogeneousNormContext(DilationGenerator(2, -0.5), np.eye(2))
    with pytest.raises(OriginNotDifferentiable):
        norm_gradient(ctx, [0.0, 0.0])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(25)
    ctx = random_feasible_context(rng, 3, -0.4)
    h = 1e-6
    for _ in range(50):
        x = rng.normal(size=3)
        x = x / np.sqrt(x @ ctx.P @ x) * rng.uniform(0.1, 10.0)
        g = norm_gradient(ctx, x)
        fd = np.array(
            [
                (canonical_norm(ctx, x + h * e) - canonical_norm(ctx, x - h * e))
                / (2 * h)
                for e in np.eye(3)
            ]
        )
        assert np.max(np.abs(g - fd)) <= 1e-5 * max(1.0, np.abs(fd).max())


def test_gradient_scaling_identity():
    # differentiating ||d(s)x||_d = e^s ||x||_d gives
    # grad(d(s)x) = e^s * grad(x) @ d(-s)
    rng = np.random.default_rng(26)
    ctx = random_feasible_context(rng, 2, -0.3)
    gen = ctx.gen
    for _ in range(20):
        x = rng.normal(size=2)
        s = rng.uniform(-2.0, 2.0)
        lhs = norm_gradient(ctx, dilation_matrix(gen, s) @ x)
        rhs = np.exp(s) * norm_gradient(ctx, x) @ dilation_matrix(gen, -s)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(1.0, np.abs(rhs).max())


# -- closed-loop homogeneity -------------------------------------------------

def test_closed_loop_field_is_homogeneous():
    # f(e) = (A - ||e||_d^(1+mu) B K d(-ln||e||_d)) e satisfies
    # f(d(s)e) = e^(mu s) d(s) f(e)
    rng = np.random.default_rng(27)
    mu = -0.2
    ctx = random_feasible_context(rng, 2, mu)
    gen = ctx.gen
    chain = IntegratorChain(2)
    K = np.array([1.2630, 0.9517])

    def f(e):
        r = canonical_norm(ctx, e)
        if r == 0.0:
            return chain.A @ e
        dm = dilation_matrix(gen, -np.log(r))
        return chain.A @ e - r ** (1 + mu) * chain.B.ravel() * (K @ dm @ e)

    for _ in range(50):
        e = rng.normal(size=2) * rng.uniform(0.1, 10.0)
        s = rng.uniform(-3.0, 3.0)
        lhs = f(dilation_matrix(gen, s) @ e)
        rhs = np.exp(mu * s) * dilation_matrix(gen, s) @ f(e)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.abs(rhs).max())


# -- the bracketed kernel behind the norm solve ---------------------------------

# most passes a _bracketed_roots call of the shifted solve took on
# 15,053 rows of 3,000 random draws like the property test's
SHIFTED_PASSES = 4


def _mp_log_norm(P, rk, x):
    """The root of log ||d(-s) x||_P = 0 at 60 digits, from the exact
    values of the float inputs, bracketed by doubling steps from
    max_k log|x_k| / rk_k."""
    with mpmath.workdps(60):
        xs = [mpmath.mpf(float(v)) for v in x]
        rs = [mpmath.mpf(float(v)) for v in rk]
        Pm = [[mpmath.mpf(float(v)) for v in row] for row in P]

        def f(s):
            y = [v * mpmath.exp(-s * r) for v, r in zip(xs, rs)]
            q2 = mpmath.fsum(y[j] * Pm[j][k] * y[k] for j in range(len(y)) for k in range(len(y)))
            return mpmath.log(q2) / 2

        s = max(mpmath.log(abs(v)) / r for v, r in zip(xs, rs) if v != 0)
        step = mpmath.mpf(1)
        lo, hi = s, s
        while f(lo) <= 0:
            lo, step = lo - step, 2 * step
        while f(hi) > 0:
            hi, step = hi + step, 2 * step
        return float(mpmath.findroot(f, (lo, hi), solver="anderson"))


@given(
    n=st.sampled_from([2, 3]),
    mu=st.floats(-1.0, 0.3, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
    rows=st.lists(
        st.tuples(st.floats(-300.0, 300.0), st.integers(0, 7),
                  st.one_of(st.none(), st.floats(-700.0, 700.0))),
        min_size=1, max_size=8,
    ),
)
@example(n=2, mu=-0.95, seed=0, rows=[(-20.0, 0, -265.0)])
@settings(max_examples=60)
def test_log_norms_match_a_60_digit_root(n, mu, seed, rows):
    # rows of 1e-300 to 1e300, some components zeroed, from warm starts
    # up to 700 off: underflowing and overflowing rows take the shifted
    # bracketed solve, the others Newton; both must land on the root
    rng = np.random.default_rng(seed)
    ctx = random_feasible_context(rng, n, mu)
    rk = ctx.gen.diag_entries
    X = rng.normal(size=(len(rows), n)) * 10.0 ** np.array([k for k, _, _ in rows])[:, None]
    for x, (_, zeros, _) in zip(X, rows):
        x[[bool(zeros >> j & 1) for j in range(n)]] = 0.0
    warm = np.array([np.nan if w is None else w for _, _, w in rows])
    X = np.vstack([X, np.full(n, np.nan), np.r_[np.inf, np.zeros(n - 1)]])
    warm = np.r_[warm, 0.0, 0.0]

    passes = []
    solve = homogeneity._bracketed_roots

    def counted(residual, s0, max_passes):
        out = solve(residual, s0, max_passes)
        passes.append(out[1])
        return out

    homogeneity._bracketed_roots = counted
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # as its callers run it
            s, _ = _log_norms(X, ctx.P[None], rk, warm)
            s_rows, _ = _log_norms(X, ctx.P[None], np.tile(rk, (len(X), 1)), warm)
    finally:
        homogeneity._bracketed_roots = solve
    assert np.array_equal(s, s_rows, equal_nan=True)
    assert max(passes, default=0) <= SHIFTED_PASSES, passes
    finite = np.isfinite(X).all(axis=1)
    zero = finite & ~X.any(axis=1)
    assert np.array_equal(np.isnan(s), ~finite)
    assert np.array_equal(s == -np.inf, zero)
    for i in np.nonzero(finite & ~zero)[0]:
        root = _mp_log_norm(ctx.P, rk, X[i])
        assert abs(s[i] - root) <= 1e-13 * max(1.0, abs(root)), (X[i], warm[i], s[i], root)
