import numpy as np
import pytest

from homocon.certificates import (
    Infeasible,
    NonPositiveRho,
    NotSymmetric,
    compute_rho,
    compute_theta,
    disturbance_bound,
    solve_lmi_p,
    solve_lmi_xy,
    verify_lmi_p,
    verify_lmi_xy,
)
from homocon.cones import barrier_matrix
from homocon.homogeneity import DilationGenerator
from homocon.protocols import IntegratorChain, linear_gain

PUBLISHED_P = np.array([[0.0020, 0.0005], [0.0005, 0.0012]])
PUBLISHED_X = np.array([[0.8281, -0.3107], [-0.3107, 0.9377]])
PUBLISHED_Y = np.array([0.7502, 0.5000])

CHAIN2 = IntegratorChain(2)
GEN2 = DilationGenerator(2, -0.2)


def test_published_p_certificate_is_feasible():
    cert = verify_lmi_p(PUBLISHED_P, GEN2, CHAIN2.A, CHAIN2.B, linear_gain(2, 1.0))
    assert cert.feasible
    assert all(m > 0 for m in cert.margins)


def test_negative_p_is_infeasible():
    cert = verify_lmi_p(-np.eye(2), GEN2, CHAIN2.A, CHAIN2.B, linear_gain(2, 1.0))
    assert not cert.feasible
    assert cert.margins[0] < 0


def test_not_symmetric_rejected():
    with pytest.raises(NotSymmetric):
        verify_lmi_p([[1.0, 0.5], [0.0, 1.0]], GEN2, CHAIN2.A, CHAIN2.B, [1.0, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_matrix_rejected(bad):
    M = np.array([[1.0, 0.0], [0.0, bad]])
    with pytest.raises(ValueError, match="finite"):
        verify_lmi_p(M, GEN2, CHAIN2.A, CHAIN2.B, linear_gain(2, 1.0))
    with pytest.raises(ValueError, match="finite"):
        verify_lmi_xy(M, PUBLISHED_Y, GEN2, CHAIN2.A, CHAIN2.B)


def test_matrices_near_the_float_limit():
    # the symmetric part of a 1.7e308 entry overflows: bad input
    huge = np.array([[1.7e308, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="too large"):
        verify_lmi_p(huge, GEN2, CHAIN2.A, CHAIN2.B, linear_gain(2, 1.0))
    with pytest.raises(ValueError, match="too large"):
        verify_lmi_xy(huge, PUBLISHED_Y, GEN2, CHAIN2.A, CHAIN2.B)
    # 8e307 survives symmetrizing, but not P G + G P or P Acl + Acl' P
    # (the RuntimeWarning is an error under pytest)
    big = np.array([[8e307, 0.0], [0.0, 1.0]])
    assert not verify_lmi_p(big, GEN2, CHAIN2.A, CHAIN2.B, linear_gain(2, 1.0)).feasible
    assert not verify_lmi_p(big[::-1, ::-1], GEN2, CHAIN2.A, CHAIN2.B, linear_gain(2, 1.0)).feasible


def test_published_xy_certificate_and_derived_gain():
    cert = verify_lmi_xy(PUBLISHED_X, PUBLISHED_Y, GEN2, CHAIN2.A, CHAIN2.B)
    assert cert.feasible
    assert np.max(np.abs(cert.K - [1.2630, 0.9517])) <= 1e-3
    assert np.max(np.abs(cert.P - [[1.3791, 0.4569], [0.4569, 1.2178]])) <= 1e-3


def test_identity_x_zero_y_infeasible():
    cert = verify_lmi_xy(np.eye(2), np.zeros(2), GEN2, CHAIN2.A, CHAIN2.B)
    assert not cert.feasible
    assert cert.margins[2] <= 0  # A X + X A' is indefinite for the chain


def test_verify_scale_covariance():
    # the extreme scales square to overflow and underflow in a plain
    # Frobenius norm
    for c in (1e-200, 1e-3, 1.0, 1e3, 1e200):
        cert = verify_lmi_p(c * PUBLISHED_P, GEN2, CHAIN2.A, CHAIN2.B, linear_gain(2, 1.0))
        assert cert.feasible


@pytest.mark.parametrize("n,mu,lam", [(2, -0.2, 1.0), (2, 0.0, 1.0), (3, -0.3, 1.0), (2, -1.0, 2.0)])
def test_solve_p_round_trip(n, mu, lam):
    chain = IntegratorChain(n)
    gen = DilationGenerator(n, mu)
    cert = solve_lmi_p(gen, chain.A, chain.B, linear_gain(n, lam))
    assert cert.feasible
    check = verify_lmi_p(cert.P, gen, chain.A, chain.B, linear_gain(n, lam))
    assert check.feasible and all(m > 0 for m in check.margins)


@pytest.mark.parametrize("n,mu", [(2, -0.2), (2, -1.0), (1, -0.5), (3, -0.5), (4, 0.3)])
def test_solve_xy_round_trip(n, mu):
    chain = IntegratorChain(n)
    gen = DilationGenerator(n, mu)
    cert = solve_lmi_xy(gen, chain.A, chain.B)
    assert cert.feasible
    check = verify_lmi_xy(cert.X, cert.Y, gen, chain.A, chain.B)
    assert check.feasible


FORCED_PROJECTIONS = {
    "xy_n5_mu-1": (5, -1.0, "xy"),
    "p_n5_mu0.23": (5, 0.23, "p"),
    "p_n3_mu0.48": (3, 0.48, "p"),  # ends infeasible
}


@pytest.mark.parametrize("case", sorted(FORCED_PROJECTIONS))
def test_forced_projection_keeps_unit_candidates_and_valid_certificates(case, monkeypatch):
    import homocon.certificates as certificates

    n, mu, form = FORCED_PROJECTIONS[case]
    chain = IntegratorChain(n)
    gen = DilationGenerator(n, mu)
    G = gen.matrix()
    K = linear_gain(n, 1.0)
    # the scan yields one candidate, q = 1, which fails the dilation
    # condition in these cases, so the alternating projections run
    monkeypatch.setattr(certificates, "_diag_scan", lambda n: iter([np.ones(n)]))
    norms = []
    for name in ("verify_lmi_p", "verify_lmi_xy"):
        def recorded(Z, *args, _verify=getattr(certificates, name)):
            norms.append(np.linalg.norm(Z))
            return _verify(Z, *args)

        monkeypatch.setattr(certificates, name, recorded)
    try:
        if form == "p":
            Acl = chain.A - chain.B @ K[None]
            cert = solve_lmi_p(gen, chain.A, chain.B, K)
            Z, W = cert.P, cert.P @ Acl + Acl.T @ cert.P
        else:
            cert = solve_lmi_xy(gen, chain.A, chain.B)
            BY = chain.B @ cert.Y[None]
            Z, W = cert.X, chain.A @ cert.X + cert.X @ chain.A.T - BY - BY.T
    except Infeasible:
        assert case == "p_n3_mu0.48"
    else:
        assert cert.feasible
        assert np.linalg.eigvalsh(Z)[0] > 0
        assert np.linalg.eigvalsh(Z @ G + G @ Z)[0] > 0
        assert np.linalg.eigvalsh(W)[-1] < 0
    assert len(norms) > 1  # the projection ran
    assert np.all(np.abs(np.array(norms) - 1.0) <= 1e-12), max(norms)


# case grids (n, mu, form) of the certificate search, "p1" and "p2" the
# P-form with the gain at lambda = 1 and 2, each with the cases it ends
# Infeasible on: those may be certified or not, every other case must be
SEARCH_GATE = {
    "full": (range(2, 9), (-1.0, -0.8, -0.5, -0.2, -0.05, 0.0), ("p1", "p2", "xy"),
             {(8, -1.0, "xy"), (8, -0.8, "xy")}),
    "forced": (range(2, 7), (-1.0, -0.7, -0.4, -0.1, 0.1, 0.2, 0.3, 0.45), ("p1", "xy"),
               {(4, 0.3, "xy"), (6, -1.0, "xy")}),
}


@pytest.mark.parametrize("scan", sorted(SEARCH_GATE))
def test_certificate_search_gate(scan, monkeypatch):
    # the full Lyapunov scan, and the alternating projections on their
    # own behind a scan cut to q = 1: each certificate must re-verify
    import homocon.certificates as certificates

    ns, mus, forms, known = SEARCH_GATE[scan]
    if scan == "forced":
        monkeypatch.setattr(certificates, "_diag_scan", lambda n: iter([np.ones(n)]))
    cases = [(n, mu, form) for n in ns for mu in mus if mu < 1.0 / (n - 1) for form in forms]
    assert len(cases) == {"full": 126, "forced": 68}[scan]
    lost = []
    for n, mu, form in cases:
        chain, gen = IntegratorChain(n), DilationGenerator(n, mu)
        try:
            if form == "xy":
                cert = solve_lmi_xy(gen, chain.A, chain.B)
                ok = verify_lmi_xy(cert.X, cert.Y, gen, chain.A, chain.B).feasible
            else:
                K = linear_gain(n, float(form[1:]))
                cert = solve_lmi_p(gen, chain.A, chain.B, K)
                ok = verify_lmi_p(cert.P, gen, chain.A, chain.B, K).feasible
        except Infeasible:
            ok = False
        if not ok and (n, mu, form) not in known:
            lost.append((n, mu, form))
    assert not lost


def test_solve_p_rejects_non_hurwitz_gain():
    with pytest.raises(Infeasible):
        solve_lmi_p(GEN2, CHAIN2.A, CHAIN2.B, np.array([-1.0, -1.0]))


# -- robustness constants ------------------------------------------------------

def test_rho_identity_example():
    assert abs(compute_rho(np.eye(2), -np.eye(2)) - 1.98) <= 1e-12


def test_rho_scale_invariant():
    Acl = CHAIN2.A - CHAIN2.B @ linear_gain(2, 1.0).reshape(1, -1)
    base = compute_rho(PUBLISHED_P, Acl)
    assert base > 0
    for c in (0.01, 100.0):
        assert abs(compute_rho(c * PUBLISHED_P, Acl) - base) <= 1e-9 * base


def test_rho_resubstitution():
    Acl = CHAIN2.A - CHAIN2.B @ linear_gain(2, 1.0).reshape(1, -1)
    rho = compute_rho(PUBLISHED_P, Acl)
    M = PUBLISHED_P @ Acl + Acl.T @ PUBLISHED_P + rho * PUBLISHED_P
    assert np.linalg.eigvalsh(M)[-1] < 0


def test_rho_rejects_unstable_pair():
    with pytest.raises(NonPositiveRho):
        compute_rho(np.eye(2), np.eye(2))


def test_theta_identity_example():
    assert abs(compute_theta(np.eye(2), DilationGenerator(2, 0.0), 2.0) - 0.5) <= 1e-12


def test_theta_linear_in_rho():
    gen = DilationGenerator(2, -1.0)
    t1 = compute_theta(PUBLISHED_P, gen, 1.0)
    t3 = compute_theta(PUBLISHED_P, gen, 3.0)
    assert abs(t3 - 3.0 * t1) <= 1e-12


def test_disturbance_bound_closed_form_example():
    H = np.array([[-1.0, 0.0], [-1.0, -1.0]])
    got = disturbance_bound(np.eye(2), H, 1.0, 2.0, 0.5)
    lam_min = (3.0 - np.sqrt(5.0)) / 2.0  # smallest eigenvalue of H'H
    assert abs(got - min(1.0, 0.5 * lam_min)) <= 1e-12


def test_disturbance_bound_monotone_in_rho():
    H = barrier_matrix(2, 1.0)
    gen = DilationGenerator(2, -1.0)
    prev = 0.0
    for rho in (0.1, 0.5, 1.0, 2.0):
        theta = compute_theta(PUBLISHED_P, gen, rho)
        b = disturbance_bound(PUBLISHED_P, H, 1.0, rho, theta)
        assert b > prev
        prev = b


def test_published_disturbance_amplitudes_reported_not_asserted():
    # report whether the published amplitudes fall inside the computed
    # bound for the mu = -1 certificate; the comparison is informational
    chain = IntegratorChain(2)
    gen = DilationGenerator(2, -1.0)
    cert = solve_lmi_p(gen, chain.A, chain.B, linear_gain(2, 1.0))
    rho = compute_rho(cert.P, chain.A - chain.B @ linear_gain(2, 1.0).reshape(1, -1))
    theta = compute_theta(cert.P, gen, rho)
    bound = disturbance_bound(cert.P, barrier_matrix(2, 1.0), 1.0, rho, theta)
    assert bound > 0
    amplitudes = (0.540, 0.444, 0.462)
    print(f"computed bound {bound:.4f}; published amplitudes {amplitudes} "
          f"inside: {all(a <= bound for a in amplitudes)}")
