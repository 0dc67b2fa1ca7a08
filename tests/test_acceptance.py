"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
PASS/FAIL line per criterion with timings. Tolerances are fixed here,
not configurable.
"""

import filecmp
import hashlib
import time

import numpy as np
import pytest

import homocon as hc
from homocon.cli import fit_unit_ball, main
from homocon.graphs import DirectedGraph
from homocon.simulation import AxisSpec, DisturbanceSpec, ScenarioConfig

PUBLISHED_P = np.array([[0.0020, 0.0005], [0.0005, 0.0012]])
PUBLISHED_X = np.array([[0.8281, -0.3107], [-0.3107, 0.9377]])
PUBLISHED_Y = np.array([0.7502, 0.5000])

CHAIN2 = hc.IntegratorChain(2)
GRAPH = DirectedGraph.from_edges(3, [[1, 0, 1.0], [2, 1, 1.0], [3, 2, 1.0]])


def report(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}  {detail}")
    assert ok, f"criterion {num}: {name} {detail}"


def random_feasible_context(rng, n, mu):
    gen = hc.DilationGenerator(n, mu)
    G = gen.matrix()
    while True:
        L = rng.normal(size=(n, n))
        P = L @ L.T + 0.3 * np.eye(n)
        if np.linalg.eigvalsh(P @ G + G @ P)[0] > 1e-9:
            return hc.HomogeneousNormContext(gen, P)


def sample_admissible_errors(rng, cone, ctx, count):
    """Errors inside the linear cone, scaled into the unit P-ball with an
    interior margin; admissibility re-checked through the public report."""
    Hinv = np.linalg.inv(cone.H)
    out = np.empty((count, 3, 2))
    for b in range(count):
        for i in range(3):
            phi = rng.uniform(0.05, 1.0, size=2)
            e = Hinv @ phi
            e = e / ctx.weighted_norm(e) * rng.uniform(0.1, 0.9)
            out[b, i] = e
    return out


# ---------------------------------------------------------------------------


def test_criterion_01_gain_regression():
    gain = hc.linear_gain(2, 1.0)
    ok = gain.tolist() == [1.0, 2.0]
    report(1, "linear gain (n=2, lambda=1) equals (1, 2) exactly", ok, str(gain))


def test_criterion_02_certificate_regression():
    cert_p = hc.verify_lmi_p(
        PUBLISHED_P, hc.DilationGenerator(2, -0.2), CHAIN2.A, CHAIN2.B, hc.linear_gain(2, 1.0)
    )
    cert_xy = hc.verify_lmi_xy(
        PUBLISHED_X, PUBLISHED_Y, hc.DilationGenerator(2, -0.2), CHAIN2.A, CHAIN2.B
    )
    k_err = np.max(np.abs(cert_xy.K - [1.2630, 0.9517]))
    p_err = np.max(np.abs(cert_xy.P - [[1.3791, 0.4569], [0.4569, 1.2178]]))
    ok = (
        cert_p.feasible
        and all(m > 0 for m in cert_p.margins)
        and cert_xy.feasible
        and k_err <= 1e-3
        and p_err <= 1e-3
    )
    report(2, "published certificates verify; derived K, P match", ok,
           f"K err {k_err:.1e}, P err {p_err:.1e}")


def test_criterion_03_homogeneous_norm_properties():
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst_scale = 0.0
    worst_sphere = 0.0
    worst_reduction = 0.0
    per_mu = 2500
    for mu in (-1.0, -0.5, -0.2, 0.3):
        ctx = random_feasible_context(rng, 3, mu)
        rk = ctx.gen.diag_entries
        X = rng.normal(size=(per_mu, 3)) * rng.uniform(0.1, 10.0, size=(per_mu, 1))
        S = rng.uniform(-5.0, 5.0, size=per_mu)
        r0, _ = hc.canonical_norm_many(ctx, X)
        r1, _ = hc.canonical_norm_many(ctx, X * np.exp(np.outer(S, rk)))
        worst_scale = max(worst_scale, float(np.max(np.abs(r1 - np.exp(S) * r0) / (np.exp(S) * r0))))
        # unit-sphere agreement
        pn = np.sqrt(np.einsum("ij,jk,ik->i", X, ctx.P, X))
        U = X / pn[:, None]
        ru, _ = hc.canonical_norm_many(ctx, U)
        worst_sphere = max(worst_sphere, float(np.max(np.abs(ru - 1.0))))
    ctx0 = random_feasible_context(rng, 3, 0.0)
    X = rng.normal(size=(10000, 3)) * rng.uniform(0.01, 100.0, size=(10000, 1))
    r, _ = hc.canonical_norm_many(ctx0, X)
    pn = np.sqrt(np.einsum("ij,jk,ik->i", X, ctx0.P, X))
    worst_reduction = float(np.max(np.abs(r - pn) / np.maximum(pn, 1e-30)))
    ok = worst_scale <= 1e-9 and worst_sphere <= 1e-10 and worst_reduction <= 1e-10
    report(3, "canonical norm scaling/sphere/reduction suite", ok,
           f"scale {worst_scale:.1e}, sphere {worst_sphere:.1e}, "
           f"mu=0 {worst_reduction:.1e} ({time.time() - t0:.1f}s)")


def test_criterion_04_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(404)
    ctx = random_feasible_context(rng, 3, -0.4)
    h = 1e-6
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(size=3)
        x = x / ctx.weighted_norm(x) * rng.uniform(0.1, 10.0)
        g = hc.norm_gradient(ctx, x)
        fd = np.array(
            [
                (hc.canonical_norm(ctx, x + h * e) - hc.canonical_norm(ctx, x - h * e))
                / (2 * h)
                for e in np.eye(3)
            ]
        )
        worst = max(worst, float(np.max(np.abs(g - fd)) / max(1.0, np.abs(fd).max())))
    ok = worst <= 1e-5
    report(4, "norm gradient vs central differences (1e3 points)", ok,
           f"worst rel {worst:.1e} ({time.time() - t0:.1f}s)")


def test_criterion_05_fixed_point_oracle():
    t0 = time.time()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        N = int(rng.integers(1, 21))
        n = int(rng.integers(1, 5))
        edges = []
        for i in range(1, N + 1):
            edges.append([i, int(rng.integers(0, i)), float(rng.uniform(0.5, 2.0))])
        for _ in range(int(rng.integers(0, N))):
            i = int(rng.integers(1, N + 1))
            j = int(rng.integers(0, N + 1))
            if i != j:
                edges.append([i, j, float(rng.uniform(0.05, 0.4))])
        g = DirectedGraph.from_edges(N, edges)
        M = rng.normal(size=(int(rng.integers(1, 4)), n))
        X = rng.normal(size=(N + 1, n))
        om = hc.solve_transmitted(g, M, X)
        worst = max(worst, float(np.max(np.abs(om - (X[1:] - X[0]) @ M.T))))
    ok = worst <= 1e-10
    report(5, "transmitted fixed point equals Kronecker oracle (100 graphs)", ok,
           f"worst {worst:.1e} ({time.time() - t0:.1f}s)")


def test_criterion_06_structural_identities():
    worst_hg = 0.0
    worst_sim = 0.0
    metzler_ok = True
    gamma_nonneg = True
    for n in (2, 3, 4):
        chain = hc.IntegratorChain(n)
        lam = 1.0
        H = hc.barrier_matrix(n, lam)
        Acl = chain.A - chain.B @ hc.linear_gain(n, lam).reshape(1, -1)
        worst_sim = max(
            worst_sim,
            float(np.max(np.abs(H @ Acl @ np.linalg.inv(H) - (chain.A - lam * np.eye(n))))),
        )
        for mu in (-1.0, -0.5, -0.2):
            gen = hc.DilationGenerator(n, mu)
            G = hc.gamma_matrix(gen, lam)
            worst_hg = max(worst_hg, float(np.max(np.abs(H @ gen.matrix() - G @ H))))
            gamma_nonneg &= bool(np.min(G) >= 0.0)
            for gamma in (0.1, 1.0, 10.0):
                metzler_ok &= hc.metzler_check(chain.A - lam * np.eye(n) + gamma * G)
    ok = worst_hg <= 1e-10 and worst_sim <= 1e-10 and gamma_nonneg and metzler_ok
    report(6, "barrier/dilation structural identities", ok,
           f"HG-GammaH {worst_hg:.1e}, similarity {worst_sim:.1e}")


@pytest.fixture(scope="module")
def nonovershoot_batch():
    """Shared by criteria 7 and 8: 100 admissible runs, 20 s at dt=1e-3."""
    ctx = hc.HomogeneousNormContext(hc.DilationGenerator(2, -0.2), PUBLISHED_P)
    cone = hc.ConeSpec(2, 1.0, -0.2)
    proto = hc.nonovershoot_protocol(1.0, ctx)
    rng = np.random.default_rng(707)
    errors = sample_admissible_errors(rng, cone, ctx, 100)
    for b in range(100):
        rep = hc.check_initial_admissible(errors[b], cone, ctx)
        assert rep.admissible_homogeneous
    inits = np.zeros((100, 4, 2))
    inits[:, 1:, :] = errors  # leader at the origin: states equal errors
    ax = AxisSpec("X", proto, inits[0], cone)
    scen = ScenarioConfig(GRAPH, 2, (ax,), 1e-3, 20.0)
    t0 = time.time()
    batch = hc.simulate_batch(scen, {"X": inits})
    elapsed = time.time() - t0

    # cross-check the batch reductions against a full single-run pipeline
    ax0 = AxisSpec("X", proto, inits[0], cone)
    traj0 = hc.simulate(ScenarioConfig(GRAPH, 2, (ax0,), 1e-3, 20.0))
    assert abs(hc.overshoot_metric(traj0, "X") - batch.efirst_max["X"][:, 0].max()) <= 1e-12
    mon0 = hc.invariance_monitor(traj0, "X")
    assert abs(mon0.min_value - batch.phimin["X"][:, 0].min()) <= 1e-12
    st0 = hc.settling_time(traj0, 1e-3)
    sq0 = np.sqrt(batch.errsq_total[:, 0])
    above = sq0 > 1e-3
    st_batch = 0.0 if not above.any() else (np.nonzero(above)[0][-1] + 1) * 1e-3
    assert st0 == pytest.approx(st_batch, abs=1e-12)
    return batch, elapsed


def test_criterion_07_nonovershoot_simulation(nonovershoot_batch):
    batch, elapsed = nonovershoot_batch
    overshoot = float(batch.efirst_max["X"].max())
    phi_min = float(batch.phimin["X"].min())
    sq = np.sqrt(batch.errsq_total)
    T1 = sq.shape[0]
    settled = []
    for b in range(sq.shape[1]):
        above = sq[:, b] > 1e-3
        settled.append((not above.any()) or np.nonzero(above)[0][-1] < T1 - 1)
    ok = overshoot <= 1e-6 and phi_min >= -1e-6 and all(settled)
    report(7, "100 admissible runs: no overshoot, cone kept, finite settling", ok,
           f"overshoot {overshoot:.1e}, min barrier {phi_min:.1e}, "
           f"{elapsed:.1f}s for the sweep")


def test_criterion_08_lyapunov_monotonicity(nonovershoot_batch):
    batch, _ = nonovershoot_batch
    h = batch.hnorm["X"]  # (T+1, 100, 3)
    inc = h[1:] - h[:-1]
    mask = h[:-1] > 1e-6
    worst = float(np.max(np.where(mask, inc, -np.inf)))
    ok = worst <= 1e-9
    report(8, "homogeneous norms non-increasing until below 1e-6", ok,
           f"worst increment {worst:.1e}")


def test_criterion_09_robust_finite_time():
    t0 = time.time()
    gen = hc.DilationGenerator(2, -1.0)
    K = hc.linear_gain(2, 1.0)
    cert = hc.solve_lmi_p(gen, CHAIN2.A, CHAIN2.B, K)
    init = np.array([[0.0, 0.0], [-2.0, 1.0], [-3.5, 1.0], [-5.0, 1.0]])
    P = fit_unit_ball(cert.P, init[1:] - init[0])
    ctx = hc.HomogeneousNormContext(gen, P)
    cone = hc.ConeSpec(2, 1.0, -1.0)
    consts = hc.robustness_constants(P, gen, cone.H, 1.0, K)
    assert consts.q_bound > 0
    amps = np.array([0.0, 1.0, 1.0, 1.0]) * consts.q_bound
    ax = AxisSpec("X", hc.nonovershoot_protocol(1.0, ctx), init, cone,
                  DisturbanceSpec(amps))
    scen = ScenarioConfig(GRAPH, 2, (ax,), 1e-3, 10.0, "implicit_euler", 909)
    traj = hc.simulate(scen)
    st = hc.settling_time(traj, 1e-3, "X")
    at = traj.axis("X")
    sq = np.sqrt(np.einsum("tij,tij->t", at.errors, at.errors))
    stays = st is not None and float(sq[int(round(st / 1e-3)):].max()) <= 1e-3
    mon = hc.invariance_monitor(traj, "X")
    ok = stays and mon.min_value >= -1e-6
    report(9, "mu=-1 with admissible disturbance: settles, stays, cone kept", ok,
           f"settling {st}, min barrier {mon.min_value:.1e}, "
           f"q_bound {consts.q_bound:.3f} ({time.time() - t0:.1f}s)")


def test_criterion_10_iss_boundedness():
    t0 = time.time()
    gen = hc.DilationGenerator(2, -0.5)
    cert = hc.solve_lmi_p(gen, CHAIN2.A, CHAIN2.B, hc.linear_gain(2, 1.0))
    ctx = hc.HomogeneousNormContext(gen, cert.P)
    init = np.array([[0.0, 0.0], [-2.0, 1.0], [-3.5, 1.0], [-5.0, 1.0]])
    amps = np.array([0.0, 0.540, 0.444, 0.462])  # published amplitudes
    ax = AxisSpec("X", hc.nonovershoot_protocol(1.0, ctx), init, None,
                  DisturbanceSpec(amps))
    scen = ScenarioConfig(GRAPH, 2, (ax,), 1e-3, 10.0, "implicit_euler", 1010)
    scales = (0.5, 1.0, 2.0)
    batch = hc.simulate_batch(
        scen, {"X": np.repeat(init[None], 3, axis=0)}, disturbance_scales=scales
    )
    sq = np.sqrt(batch.errsq_total)
    sup = sq.max(axis=0)
    terminal = sq[-2000:].max(axis=0)
    bounded = bool(np.all(np.isfinite(sq)) and np.all(sup <= 100.0))
    monotone = terminal[0] <= terminal[1] <= terminal[2]
    ok = bounded and monotone
    report(10, "mu=-0.5 disturbed runs bounded; terminal error grows with amplitude",
           ok, f"sup {sup.max():.2f}, terminal {np.round(terminal, 5).tolist()} "
           f"({time.time() - t0:.1f}s)")


# sha256 of every reproduce-paper output; a refactor that keeps the
# numerics must keep these, a deliberate numeric change re-records them
GOLDEN_SHA256 = {
    "homogeneous_nominal.csv": "a76ecacaaf1c3e739d3d0a0bdfa797751abb95a2f1d3b6e24b45d41d46c7bef7",
    "homogeneous_robust.csv": "333287af6913d0a43015e33409f6fde3fcb4308d3d960f3b18556070df5fa399",
    "linear_disturbed.csv": "3cb0e7fe4b20794eb05ea7bdf6e7201e919609621771a84c737041ec0c9ae9b8",
    "linear_nominal.csv": "ed2928e7c66f3dfcddbee14aa27f3b97ea07a1f2db4dacb7798784aabe61405c",
    "summary.csv": "bdb7c92d49d3dbc180439693119be070acb98f477cc2e430bd5ad369a3fbeb87",
    "summary.json": "4b7784a5fbbbcc6e2a20bdf3cdbd7c7b81cb36b02612e40df3438abe98900a69",
}


def test_criterion_11_reproduce_paper_determinism(tmp_path):
    t0 = time.time()
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["reproduce-paper", "--output", str(d1)]) == 0
    assert main(["reproduce-paper", "--output", str(d2)]) == 0
    names = sorted(GOLDEN_SHA256)
    match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
    # each drifted file with its new digest, for a deliberate re-record
    digests = {name: hashlib.sha256((d1 / name).read_bytes()).hexdigest() for name in names}
    drifted = {name: d for name, d in digests.items() if d != GOLDEN_SHA256[name]}
    ok = sorted(match) == names and not mismatch and not errors and not drifted
    report(11, "reproduce-paper twice gives byte-identical outputs matching the digests",
           ok, f"{len(match)}/{len(names)} files identical, drifted {drifted} "
           f"({time.time() - t0:.0f}s)")
