import numpy as np
import pytest

from homocon.homogeneity import (
    DilationGenerator,
    HomogeneousNormContext,
    dilation_matrix,
)
from homocon.protocols import (
    DimensionMismatch,
    IntegratorChain,
    ProtocolKind,
    ProtocolSpec,
    consensus_protocol,
    control_input,
    control_input_many,
    error_field,
    linear_gain,
    linear_protocol,
    nonovershoot_protocol,
)

PUBLISHED_P = np.array([[0.0020, 0.0005], [0.0005, 0.0012]])


def reference_ctx(mu=-0.2):
    return HomogeneousNormContext(DilationGenerator(2, mu), PUBLISHED_P)


# -- gains ---------------------------------------------------------------------

def test_linear_gain_published_value():
    assert np.array_equal(linear_gain(2, 1.0), [1.0, 2.0])


def test_linear_gain_scalar_case():
    assert np.array_equal(linear_gain(1, 3.0), [3.0])


def test_linear_gain_matrix_power_oracle():
    rng = np.random.default_rng(30)
    for n in range(1, 6):
        for lam in (0.5, 1.0, 2.0):
            chain = IntegratorChain(n)
            M = np.eye(n)
            for _ in range(n):
                M = M @ (chain.A + lam * np.eye(n))
            assert np.allclose(linear_gain(n, lam), M[0], atol=1e-12)


def test_closed_loop_poles_all_at_minus_lambda():
    # the gain entries are binomial coefficients, so the closed loop is
    # the companion form of (s + lam)^n: poles at -lam algebraically.
    # A numerical eigensolver only locates a defective n-fold eigenvalue
    # to O(eps^(1/n)), hence the dimension-dependent tolerance.
    import math

    for n in range(1, 6):
        for lam in (0.5, 1.0, 2.0):
            gain = linear_gain(n, lam)
            binom = [math.comb(n, j) * lam ** (n - j) for j in range(n)]
            assert np.allclose(gain, binom, rtol=1e-12)
            chain = IntegratorChain(n)
            Acl = chain.A - chain.B @ gain.reshape(1, -1)
            eig = np.linalg.eigvals(Acl)
            tol = max(1e-8, 20.0 * np.finfo(float).eps ** (1.0 / n) * lam)
            assert np.max(np.abs(eig - (-lam))) <= tol


# -- protocol construction ------------------------------------------------------

def test_nonovershoot_requires_negative_mu():
    ctx = HomogeneousNormContext(DilationGenerator(2, 0.3), np.eye(2))
    with pytest.raises(ValueError):
        nonovershoot_protocol(1.0, ctx)


def test_consensus_allows_positive_mu_below_cap():
    ctx = HomogeneousNormContext(DilationGenerator(2, 0.3), np.eye(2))
    spec = consensus_protocol([1.0, 1.0], ctx)
    assert spec.kind is ProtocolKind.HOMOGENEOUS_CONSENSUS


def test_homogeneous_kind_requires_context():
    with pytest.raises(ValueError):
        ProtocolSpec(ProtocolKind.HOMOGENEOUS_CONSENSUS, 2, [1.0, 1.0], -0.5)


# -- control law -----------------------------------------------------------------

def test_zero_input_for_all_kinds():
    specs = [
        linear_protocol(2, 1.0),
        consensus_protocol([1.2630, 0.9517], reference_ctx()),
        nonovershoot_protocol(1.0, reference_ctx()),
    ]
    for spec in specs:
        assert control_input(spec, [0.0, 0.0]) == 0.0


def test_mu_zero_homogeneous_equals_linear():
    ctx = HomogeneousNormContext(DilationGenerator(2, 0.0), np.eye(2))
    K = np.array([1.5, 0.7])
    spec = consensus_protocol(K, ctx)
    rng = np.random.default_rng(31)
    for _ in range(20):
        v = rng.normal(size=2) * rng.uniform(0.01, 100.0)
        assert abs(control_input(spec, v) + K @ v) <= 1e-10 * max(1.0, abs(K @ v))


def test_control_against_composed_oracle():
    # two-step oracle: norm by bisection, then the scaling formula
    from oracles import bisect_norm

    ctx = reference_ctx()
    spec = nonovershoot_protocol(1.0, ctx)
    rng = np.random.default_rng(32)
    for _ in range(20):
        v = rng.normal(size=2) * rng.uniform(0.1, 10.0)
        r = bisect_norm(ctx, v)
        dm = np.diag(np.exp(-np.log(r) * ctx.gen.diag_entries))
        expected = -(r ** 0.8) * float(np.array([1.0, 2.0]) @ dm @ v)
        assert abs(control_input(spec, v) - expected) <= 1e-8 * max(1.0, abs(expected))


def test_control_homogeneity_degree():
    # u(d(s) v) = e^((1+mu) s) u(v)
    ctx = reference_ctx()
    spec = nonovershoot_protocol(1.0, ctx)
    rng = np.random.default_rng(33)
    for _ in range(50):
        v = rng.normal(size=2)
        s = rng.uniform(-3.0, 3.0)
        lhs = control_input(spec, dilation_matrix(ctx.gen, s) @ v)
        rhs = np.exp((1 - 0.2) * s) * control_input(spec, v)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_mu_minus_one_bounded_near_origin():
    ctx = HomogeneousNormContext(DilationGenerator(2, -1.0), np.eye(2))
    spec = consensus_protocol([1.0, 2.0], ctx)
    cap = spec.sphere_gain_bound()
    rng = np.random.default_rng(34)
    for k in range(1, 12):
        v = rng.normal(size=2) * 10.0 ** (-k)
        assert abs(control_input(spec, v)) <= cap * (1 + 1e-9)


def test_batch_matches_scalar():
    rng = np.random.default_rng(35)
    V = rng.normal(size=(40, 2)) * rng.uniform(0.01, 10.0, size=(40, 1))
    # rows whose weighted norm overflows or underflows take the bracketed
    # solve on exponent-shifted components and are projected again
    # (subnormal rows through the overflow-safe sphere projection); the
    # zero row is the origin
    z = np.array([-1.3, 0.7])
    V = np.vstack([V, 1e200 * z, 1e-200 * z, 1e-310 * z, np.zeros(2)])
    for mu in (-0.2, -1.0):
        spec = nonovershoot_protocol(1.0, reference_ctx(mu))
        u, _ = control_input_many(spec, V)
        for i in range(len(V)):
            assert abs(u[i] - control_input(spec, V[i])) <= 1e-11 * max(1.0, abs(u[i]))
        assert u[-1] == 0.0
        assert np.all(u[-3:-1] != 0.0)
        assert np.all(np.isfinite(u))
        for x in V[-4:-1]:
            for t in (-1.0, 2.0):
                lhs = control_input(spec, dilation_matrix(spec.norm_ctx.gen, t) @ x)
                rhs = np.exp((1.0 + mu) * t) * control_input(spec, x)
                assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


# -- error field ------------------------------------------------------------------

def test_field_zero_at_equilibrium():
    chain = IntegratorChain(2)
    spec = linear_protocol(2, 1.0)
    out = error_field(chain, spec, np.zeros(6))
    assert np.array_equal(out, np.zeros(6))


def test_field_single_follower_linear():
    chain = IntegratorChain(2)
    spec = linear_protocol(2, 1.0)
    out = error_field(chain, spec, np.array([1.0, 0.0]))
    assert np.allclose(out, [0.0, -1.0])


def test_field_dimension_mismatch():
    chain = IntegratorChain(2)
    spec = linear_protocol(2, 1.0)
    with pytest.raises(DimensionMismatch):
        error_field(chain, spec, np.zeros(5))


def test_field_block_homogeneity():
    ctx = reference_ctx()
    spec = nonovershoot_protocol(1.0, ctx)
    chain = IntegratorChain(2)
    gen = ctx.gen
    rng = np.random.default_rng(36)
    for _ in range(20):
        e = rng.normal(size=4)
        s = rng.uniform(-2.0, 2.0)
        dm = dilation_matrix(gen, s)
        e_scaled = np.concatenate([dm @ e[:2], dm @ e[2:]])
        lhs = error_field(chain, spec, e_scaled)
        f = error_field(chain, spec, e)
        rhs = np.exp(-0.2 * s) * np.concatenate([dm @ f[:2], dm @ f[2:]])
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.abs(rhs).max())


def test_field_with_disturbance_offset():
    chain = IntegratorChain(2)
    spec = linear_protocol(2, 1.0)
    q = np.array([0.0, 0.3, 0.0, -0.1])
    out = error_field(chain, spec, np.zeros(4), q)
    assert np.allclose(out, q)
