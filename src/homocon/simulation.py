"""Deterministic closed-loop simulation of the multi-agent system.

Agents integrate the chain dynamics under a per-axis protocol; the
leader runs open loop. The implicit Euler scheme exploits the affine
structure of each step: given the new leader state, a follower's update
is affine in its (scalar) control w, e = a + w beta, so the implicit
equation reduces to one root problem per follower per step. For
homogeneous laws it is solved jointly in w and the log norm s of e: one
2x2 Newton iteration per row on w = u(e) and log ||d(-s) e||_P = 0,
with the closed-form derivatives of the canonical norm, warm-started
from the previous step; the few rows it leaves unsettled go to a
bracketing fallback. At points where the control law is set-valued
(mu = -1 at the origin) the step selects the control that lands the
error exactly on the discontinuity manifold, which reproduces sliding
without chattering.

Internally the integrator advances the leader state and the follower
errors; follower states are reconstructed as leader + error, which
avoids the catastrophic cancellation of differencing two O(10) states
once errors shrink toward machine scale.

Every axis of every batch run shares one integration sweep: their
follower errors are the rows of one block, so each step makes one joint
(w, s) solve for all homogeneous rows together.
Matrix products still run per axis, on that axis's own rows, so an axis
integrates exactly as it would alone. The law, the norm solve and the
sphere projection of the cone barrier are the library's own
(``protocols._law``, ``homogeneity._log_norms``,
``homogeneity._project_to_sphere``), fed with per-axis spans.

Runs are deterministic: identical configuration and seed give
bit-identical trajectories and CSV files. A batch dimension lets many
initial conditions share the sweep; a batch of one is exactly
`simulate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import ConeSpec
from .graphs import DirectedGraph, is_leader_rooted
from .homogeneity import _matmul_runs, _project_to_sphere
from .protocols import IntegratorChain, ProtocolKind, ProtocolSpec, _law


class NonConvergentStep(Exception):
    """The implicit solve failed; reducing dt is the usual remedy."""


class CertificateMissing(Exception):
    """A homogeneous protocol was supplied without its certificate."""


@dataclass(frozen=True, eq=False)
class DisturbanceSpec:
    """Matched disturbance q_i = B * qhat_i with qhat_i drawn uniformly
    from offsets[i] + [-amplitudes[i], amplitudes[i]], redrawn and held
    each step. Nonzero offsets give one-sided disturbances (for example
    offset -a with amplitude a draws from [-2a, 0])."""

    amplitudes: np.ndarray
    seed: int | None = None
    offsets: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=float)
        if not np.all(np.isfinite(a)):
            raise ValueError("amplitudes must be finite")
        if np.any(a < 0):
            raise ValueError("amplitudes must be nonnegative")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)
        if self.offsets is not None:
            o = np.asarray(self.offsets, dtype=float)
            if o.shape != a.shape:
                raise ValueError("offsets must match amplitudes")
            if not np.all(np.isfinite(o)):
                raise ValueError("offsets must be finite")
            o.setflags(write=False)
            object.__setattr__(self, "offsets", o)


@dataclass(frozen=True, eq=False)
class AxisSpec:
    """One motion axis: protocol, initial agent states, optional safety
    cone to record barriers against, optional disturbance."""

    name: str
    protocol: ProtocolSpec
    initial: np.ndarray
    cone: ConeSpec | None = None
    disturbance: DisturbanceSpec | None = None

    def __post_init__(self):
        X0 = np.array(self.initial, dtype=float)
        if not np.all(np.isfinite(X0)):
            raise ValueError(f"axis {self.name}: initial states must be finite")
        X0.setflags(write=False)
        object.__setattr__(self, "initial", X0)


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    graph: DirectedGraph
    n: int
    axes: tuple
    dt: float
    horizon: float
    integrator: str = "implicit_euler"
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.dt) and np.isfinite(self.horizon)):
            raise ValueError("dt and horizon must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon < self.dt:
            raise ValueError("horizon must be at least one step")
        if not is_leader_rooted(self.graph):
            raise ValueError("graph is not leader-rooted")
        if not self.axes:
            raise ValueError("need at least one axis")
        if self.integrator not in ("implicit_euler", "rk4"):
            raise ValueError("integrator must be 'implicit_euler' or 'rk4'")
        N = self.graph.num_followers
        for ax in self.axes:
            if ax.protocol.n != self.n:
                raise ValueError(f"axis {ax.name}: protocol dimension mismatch")
            if ax.protocol.is_homogeneous and ax.protocol.norm_ctx is None:
                raise CertificateMissing(f"axis {ax.name}: missing norm context")
            if ax.initial.shape != (N + 1, self.n):
                raise ValueError(
                    f"axis {ax.name}: initial states must be ({N + 1}, {self.n})"
                )
            if ax.disturbance is not None and ax.disturbance.amplitudes.shape != (
                N + 1,
            ):
                raise ValueError(f"axis {ax.name}: need {N + 1} disturbance amplitudes")
        object.__setattr__(self, "axes", tuple(self.axes))

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True, eq=False)
class AxisTrajectory:
    """Recorded series for one axis; time is the leading dimension.

    ``controls[k]`` is the law at node k: under implicit Euler, the
    control applied on [t_{k-1}, t_k), and at node 0 the nodal law value.
    ``disturbance[k]`` is the draw applied on [t_k, t_{k+1}), zero at
    the final node.
    No transmitted vectors are stored: at the distributed fixed point
    they equal ``errors`` (see :func:`homocon.graphs.solve_transmitted`).
    """

    name: str
    states: np.ndarray        # (T+1, N+1, n)
    errors: np.ndarray        # (T+1, N, n)
    controls: np.ndarray      # (T+1, N)
    hnorm: np.ndarray         # (T+1, N)
    barrier: np.ndarray | None   # (T+1, N, n) when a cone was supplied
    disturbance: np.ndarray   # (T+1, N+1)


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray
    axes: tuple
    dt: float = field(default=0.0)

    def axis(self, name: str | None = None) -> AxisTrajectory:
        if name is None:
            return self.axes[0]
        for ax in self.axes:
            if ax.name == name:
                return ax
        raise KeyError(f"no axis named {name!r}")

    @property
    def axis_names(self) -> tuple:
        return tuple(ax.name for ax in self.axes)


# ---------------------------------------------------------------------------
# generic implicit Euler step (stacked state, arbitrary field)


def step_implicit_euler(state, f, dt, tol=1e-12, max_iter=100):
    """One implicit Euler step x+ = x + dt f(x+) by fixed-point iteration.

    Seeded at the explicit predictor. If the iteration oscillates, the
    iterate with the smallest residual is returned, provided that
    residual is small on the scale of the step; otherwise
    NonConvergentStep is raised.
    """
    x = np.asarray(state, dtype=float)
    y = x + dt * np.asarray(f(x), dtype=float)
    best = y
    best_res = np.inf
    for _ in range(max_iter):
        y_next = x + dt * np.asarray(f(y), dtype=float)
        if not np.all(np.isfinite(y_next)):
            raise NonConvergentStep("implicit iteration produced non-finite values")
        with np.errstate(over="ignore"):
            res = float(np.linalg.norm(y_next - y))
            ynorm = float(np.linalg.norm(y_next))
        if np.isfinite(res) and res < best_res:
            best_res = res
            best = y_next
        if np.isfinite(res) and np.isfinite(ynorm) and res <= tol * (1.0 + ynorm):
            return y_next
        y = y_next
    scale = 1.0 + float(np.linalg.norm(x))
    if best_res <= 1e-3 * dt * scale:
        return best
    raise NonConvergentStep(
        f"fixed point not reached in {max_iter} iterations (residual {best_res:.3e})"
    )


# ---------------------------------------------------------------------------
# the row block: every axis of every batch run, integrated together


# disturbance steps drawn per generator call; bounds the draw buffers
# independently of the horizon
_DRAW_CHUNK = 256

# passes of the joint (w, s) Newton before a row goes to the bracket
_NEWTON_PASSES = 10


class _Axis:
    """One axis's place in the row block and its law parameters."""

    def __init__(self, index: int, spec: AxisSpec, rows: slice, lead: slice, beta):
        protocol = spec.protocol
        ctx = protocol.norm_ctx
        self.index = index  # position in ScenarioConfig.axes
        self.spec = spec
        self.rows = rows    # follower error rows, run-major
        self.lead = lead    # leader rows, one per run
        self.K = protocol.gain
        self.P = ctx.P if ctx is not None else None
        self.rk = ctx.gen.diag_entries if ctx is not None else None
        self.opm = 1.0 + protocol.mu
        # at degree zero the dilation is uniform: the law collapses to
        # -K v and the norm has the closed form ||v||_P
        self.affine = protocol.mu == 0.0
        if self.affine:
            self.lin_den = 1.0 + float(protocol.gain @ beta)
            if self.lin_den <= 0:
                raise NonConvergentStep("dt too large for the linear implicit step")
        else:
            self.cmax = protocol.sphere_gain_bound()
            # [y, d(-s) 1] @ jac holds P y, K y, K G y and K d(-s) beta:
            # one product per pass of the joint Newton
            n = beta.shape[0]
            self.jac = np.zeros((2 * n, n + 3))
            self.jac[:n, :n] = self.P
            self.jac[:n, n] = self.K
            self.jac[:n, n + 1] = self.K * self.rk
            self.jac[n:, n + 2] = self.K * beta
            # |w| below this selects the set-valued point of the law
            if protocol.mu == -1.0:
                self.snap_bound = self.cmax * (1.0 + 1e-9)
            else:
                self.snap_bound = 1e-9 * (1.0 + self.cmax)

    def affine_log_norms(self, V):
        if self.P is None:
            return np.full(V.shape[0], -np.inf)
        pn2 = (V @ self.P * V).sum(axis=1)
        with np.errstate(divide="ignore"):
            return np.where(pn2 > 0.0, 0.5 * np.log(pn2), -np.inf)

    def hnorm(self, E, s):
        """Recorded norms of errors E (rows in the last axis) with log
        norms s: homogeneous exp(s), linear ||e||_2."""
        if self.rk is None:
            return np.sqrt((E * E).sum(axis=-1))
        with np.errstate(over="ignore"):
            return np.exp(s)  # exp(-inf) = 0 at the origin

    def barrier(self, E, s):
        """Cone barrier H z of errors E, z the projection of e onto the
        unit sphere for homogeneous laws and e itself for linear ones."""
        H_T = self.spec.cone.H.T
        if self.rk is None:
            return E @ H_T
        return _project_to_sphere(E, s, self.rk) @ H_T


class _Rows:
    """Sorted rows of the homogeneous (non-affine) axes that one law
    evaluation works on, cut into one contiguous span per axis.

    Matrix products run per span; elementwise arithmetic runs on all rows
    at once with per-row dilation entries ``rk`` and exponents ``opm``
    (1 + mu), broadcast from the axis when a single axis is present.
    """

    def __init__(self, axes, spans, rk=None, opm=None):
        if len(axes) == 1:
            rk, opm = axes[0].rk, axes[0].opm
        self.axes = axes
        self.spans = spans
        self.rk = rk
        self.opm = opm
        self.P = [g.P for g in axes]
        self.K = [g.K for g in axes]
        self.jac = [g.jac for g in axes]

    def eval(self, V, s_warm):
        """Returns (u, log_norms) of the law on the rows of V."""
        return _law(V, self.spans, self.P, self.K, self.rk, self.opm, s_warm)

    def residual(self, a, beta, w, s_warm):
        """Returns (w - u, log_norms) at the errors a + w*beta."""
        u, s = self.eval(a + w[:, None] * beta, s_warm)
        return w - u, s


class _Block:
    """Every axis of every batch run as one row block.

    Follower errors form an (M, n) array, M = A*B*N, and leader states
    an (A*B, n) array; each axis owns a contiguous run-major slice of
    both. Homogeneous axes come first, so their rows are a prefix of the
    block and share one joint (w, s) Newton solve per step. Affine axes
    (linear, and mu = 0) use the closed-form step.
    """

    def __init__(self, cfg: ScenarioConfig, inits):
        n, dt = cfg.n, cfg.dt
        B = inits[0].shape[0]
        if any(X0.shape[0] != B for X0 in inits):
            raise ValueError("every axis needs the same number of runs")
        N = cfg.graph.num_followers
        chain = IntegratorChain(n)
        self.dt = dt
        self.A = chain.A
        self.b = chain.B.reshape(-1)
        self.R = np.linalg.inv(np.eye(n) - dt * self.A)
        self.beta = dt * (self.R @ self.b)
        self.btb = float(self.beta @ self.beta)
        self.B, self.N, self.n = B, N, n

        order = sorted(range(len(cfg.axes)), key=lambda i: cfg.axes[i].protocol.mu == 0.0)
        self.axes = []
        for j, i in enumerate(order):
            rows = slice(j * B * N, (j + 1) * B * N)
            lead = slice(j * B, (j + 1) * B)
            self.axes.append(_Axis(i, cfg.axes[i], rows, lead, self.beta))
        self.in_order = sorted(self.axes, key=lambda g: g.index)
        self.curved = [g for g in self.axes if not g.affine]
        self.flat = [g for g in self.axes if g.affine]
        self.M = len(self.axes) * B * N
        self.m_curved = len(self.curved) * B * N
        self.lead_spans = [g.lead for g in self.axes]
        self.row_spans = [g.rows for g in self.axes]

        X0 = [inits[g.index] for g in self.axes]
        self.L0 = np.concatenate([x[:, 0, :] for x in X0])
        self.E0 = np.concatenate([(x[:, 1:, :] - x[:, 0:1, :]).reshape(B * N, n) for x in X0])

        if self.curved:
            # per-row parameters of the curved rows
            rk = np.repeat(np.stack([g.rk for g in self.curved]), B * N, axis=0)
            opm = np.repeat([g.opm for g in self.curved], B * N)
            self.snap_bound = np.repeat([g.snap_bound for g in self.curved], B * N)
            self.curved_rows = _Rows(self.curved, [g.rows for g in self.curved], rk, opm)

    # -- law on the whole block ---------------------------------------------------
    def eval(self, E, s_warm):
        """Returns (u, log_norms) for every row of the block."""
        mc = self.m_curved
        if not self.flat:
            return self.curved_rows.eval(E, s_warm)
        u = np.empty(self.M)
        s = np.empty(self.M)
        if mc:
            u[:mc], s[:mc] = self.curved_rows.eval(
                E[:mc], None if s_warm is None else s_warm[:mc]
            )
        for g in self.flat:
            V = E[g.rows]
            u[g.rows] = -(V @ g.K)
            s[g.rows] = g.affine_log_norms(V)
        return u, s

    # -- implicit Euler step ------------------------------------------------------
    def step_implicit(self, L, E, q0, dq, w_prev, s_warm):
        RT = self.R.T
        L_new = _matmul_runs(
            L + self.dt * np.outer(q0, self.b), self.lead_spans, [RT] * len(self.axes)
        )
        alpha = (
            _matmul_runs(E, self.row_spans, [RT] * len(self.axes))
            + dq[:, None] * self.beta
        )
        mc = self.m_curved
        if not self.flat:
            return (L_new, *self._solve_control_roots(alpha, w_prev, s_warm))
        w = np.empty(self.M)
        e_new = np.empty_like(alpha)
        logr = np.empty(self.M)
        if mc:
            e_new[:mc], w[:mc], logr[:mc] = self._solve_control_roots(
                alpha[:mc], w_prev[:mc], s_warm[:mc]
            )
        for g in self.flat:  # closed form
            a = alpha[g.rows]
            w[g.rows] = wg = -(a @ g.K) / g.lin_den
            e_new[g.rows] = eg = a + wg[:, None] * self.beta
            logr[g.rows] = g.affine_log_norms(eg)
        return L_new, e_new, w, logr

    def _solve_control_roots(self, alpha, w_prev, s_warm, tol=1e-12, snap_tol=1e-12):
        """Per-row scalar solve of w = law(alpha + w*beta) on the curved rows.

        Returns (e_new, w, log_norms). When the affine line passes through
        the set-valued point of the law (within snap_tol of the origin)
        and the required control is an admissible selection, the error is
        placed exactly at the origin: the discrete analogue of sliding.
        """
        beta, btb = self.beta, self.btb
        rows = self.curved_rows
        M = alpha.shape[0]

        wpar = -_matmul_runs(alpha, rows.spans, [beta] * len(rows.spans)) / btb
        resid = alpha + wpar[:, None] * beta
        rn = np.sqrt((resid * resid).sum(axis=1))
        anorm = np.sqrt((alpha * alpha).sum(axis=1))
        scale = 1.0 + anorm + np.abs(wpar) * np.sqrt(btb)
        snap = (rn <= snap_tol * scale) & (np.abs(wpar) <= self.snap_bound)

        if snap.all():
            return np.zeros_like(alpha), wpar, np.full(M, -np.inf)
        w, logr, e_new = self._newton(alpha, w_prev, s_warm, ~snap, tol)
        if snap.any():
            w[snap] = wpar[snap]
            logr[snap] = -np.inf
            e_new[snap] = 0.0
        if not np.all(np.isfinite(w)):
            raise NonConvergentStep("control root solve produced non-finite values")
        return e_new, w, logr

    def _newton(self, a, w_prev, s_prev, pending, tol):
        """Joint Newton on (w, s) on the curved rows, e = a + w beta.

        Solves R1 = w + exp(opm s) K d(-s)(a + w beta) = 0 together with
        R2 = F = log ||d(-s)(a + w beta)||_P = 0, from (w_prev, s_prev),
        with the closed-form Jacobian (y = d(-s)(a + w beta),
        q2 = y'Py, G = diag(rk), opm = 1 + mu):

            dR1/dw = 1 + exp(opm s) K d(-s) beta
            dR1/ds = exp(opm s) (opm K y - K G y)
            dF/dw  = (Py . d(-s) beta) / q2
            dF/ds  = -(Py . G y) / q2

        Only ``pending`` rows are solved; each freezes once |F| <= 1e-13
        and |R1| <= tol (1 + |w|). Rows still open or non-finite after
        _NEWTON_PASSES passes go to the bracket, once per axis.
        Returns (w, log_norms, e_new).
        """
        beta, n, rows = self.beta, self.n, self.curved_rows
        rk, opm, spans = rows.rk, rows.opm, rows.spans
        w = w_prev.copy()
        s = s_prev.copy()
        pending = pending.copy()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cold = pending & ~np.isfinite(s)
            if cold.any():  # rows leaving the origin start at log ||e||_P
                X = a + w[:, None] * beta
                pn2 = (_matmul_runs(X, spans, rows.P) * X).sum(axis=1)
                s = np.where(cold, 0.5 * np.log(pn2), s)
            for _ in range(_NEWTON_PASSES):
                ex = np.exp(-(s[:, None] * rk))
                Y = (a + w[:, None] * beta) * ex
                prod = _matmul_runs(np.concatenate((Y, ex), axis=1), spans, rows.jac)
                PY, KY, KGY, KDb = prod[:, :n], prod[:, n], prod[:, n + 1], prod[:, n + 2]
                PYY = PY * Y
                q2 = PYY.sum(axis=1)
                F = 0.5 * np.log(q2)
                c = np.exp(opm * s)
                R1 = w + c * KY
                done = (np.abs(F) <= 1e-13) & (np.abs(R1) <= tol * (1.0 + np.abs(w)))
                pending &= ~done
                if not pending.any():
                    break
                J11 = 1.0 + c * KDb
                J12 = c * (opm * KY - KGY)
                J21 = (PY * ex * beta).sum(axis=1) / q2
                J22 = -(PYY * rk).sum(axis=1) / q2
                det = J11 * J22 - J12 * J21
                dw = (J12 * F - J22 * R1) / det
                ds = (J21 * R1 - J11 * F) / det
                w = np.where(pending, w + dw, w)
                s = np.where(pending, s + ds, s)

        rough = np.nonzero(pending)[0]
        if rough.size:
            # the bracket runs once per axis, from the residual at w_prev:
            # its bisection keeps moving settled rows until every row of
            # the call has settled
            cuts = np.searchsorted(rough, [span.start for span in spans] + [len(a)])
            for g, lo, hi in zip(rows.axes, cuts[:-1], cuts[1:]):
                if hi > lo:
                    r = rough[lo:hi]
                    one = _Rows([g], [slice(0, hi - lo)])
                    f0, s0 = one.residual(a[r], beta, w_prev[r], s_prev[r])
                    w[r], s[r] = _bracketed_roots(
                        one, a[r], beta, g.cmax, w_prev[r], f0, s0, tol
                    )
        return w, s, a + w[:, None] * beta

    # -- explicit RK4 step -------------------------------------------------------
    def field(self, L, E, q0, dq, warm):
        B, N, n = self.B, self.N, self.n
        dL = _matmul_runs(L, self.lead_spans, [self.A.T] * len(self.axes)) + np.outer(
            q0, self.b
        )
        u, logr = self.eval(E, warm)
        EA = np.empty_like(E)
        for span in self.row_spans:
            EA[span] = (E[span].reshape(B, N, n) @ self.A.T).reshape(B * N, n)
        dE = EA + (u + dq)[:, None] * self.b
        return dL, dE, logr

    def step_rk4(self, L, E, q0, dq, s_warm):
        dt = self.dt
        s = s_warm
        k1L, k1E, s = self.field(L, E, q0, dq, s)
        k2L, k2E, s = self.field(L + 0.5 * dt * k1L, E + 0.5 * dt * k1E, q0, dq, s)
        k3L, k3E, s = self.field(L + 0.5 * dt * k2L, E + 0.5 * dt * k2E, q0, dq, s)
        k4L, k4E, s = self.field(L + dt * k3L, E + dt * k3E, q0, dq, s)
        L_new = L + dt / 6.0 * (k1L + 2 * k2L + 2 * k3L + k4L)
        E_new = E + dt / 6.0 * (k1E + 2 * k2E + 2 * k3E + k4E)
        return L_new, E_new


def _bracketed_roots(rows: _Rows, a, beta, cmax, w0, f0, s0, tol):
    """Bracket-and-bisect fallback for rows of one axis the joint Newton
    left unsettled.

    On a jump of the law crossing the diagonal (set-valued point that
    failed the snap test) the bracket collapses without the residual
    vanishing; the endpoint with the smaller residual is then kept,
    i.e. the control is projected to the value minimizing the residual.
    """
    m = w0.shape[0]
    delta = 1.0 + 0.5 * np.abs(w0) + cmax
    lo = w0.copy()
    flo = f0.copy()
    hi = w0.copy()
    fhi = f0.copy()
    slo = s0.copy()
    shi = s0.copy()
    for _ in range(60):
        need_lo = flo > 0
        need_hi = fhi < 0
        if not (need_lo.any() or need_hi.any()):
            break
        lo = np.where(need_lo, lo - delta, lo)
        hi = np.where(need_hi, hi + delta, hi)
        if need_lo.any():
            fl, sl = rows.residual(a, beta, lo, slo)
            flo = np.where(need_lo, fl, flo)
            slo = np.where(need_lo, sl, slo)
        if need_hi.any():
            fh, sh = rows.residual(a, beta, hi, shi)
            fhi = np.where(need_hi, fh, fhi)
            shi = np.where(need_hi, sh, shi)
        delta = delta * 2.0
    else:
        raise NonConvergentStep("failed to bracket the implicit control")

    w = 0.5 * (lo + hi)
    s = slo.copy()
    best_w = w.copy()
    best_f = np.full(m, np.inf)
    best_s = s.copy()
    for it in range(80):
        den = fhi - flo
        secant = np.where(np.abs(den) > 1e-300, lo - flo * (hi - lo) / den, 0.5 * (lo + hi))
        use_sec = (it % 3 != 2) & (secant > lo) & (secant < hi)
        w = np.where(use_sec, secant, 0.5 * (lo + hi))
        f, s = rows.residual(a, beta, w, s)
        better = np.abs(f) < np.abs(best_f)
        best_w = np.where(better, w, best_w)
        best_f = np.where(better, f, best_f)
        best_s = np.where(better, s, best_s)
        neg = f <= 0
        lo = np.where(neg, w, lo)
        flo = np.where(neg, f, flo)
        hi = np.where(neg, hi, w)
        fhi = np.where(neg, fhi, f)
        width_ok = (hi - lo) <= 1e-14 * (1.0 + np.abs(w))
        conv = (np.abs(best_f) <= tol * (1.0 + np.abs(best_w))) | width_ok
        if conv.all():
            break
    return best_w, best_s


# ---------------------------------------------------------------------------
# the integration loop and its two recorders


class _Draws:
    """Matched disturbances for every disturbed axis, drawn per run
    generator in chunks of steps. A chunk draw continues the generator's
    stream exactly as one draw per step would."""

    def __init__(self, cfg: ScenarioConfig, block: _Block, scales):
        B = block.B
        scales = np.ones(B) if scales is None else np.asarray(scales, float)
        self.block = block
        self.axes = []
        for g in block.axes:
            d = g.spec.disturbance
            if d is None:
                continue
            base = d.seed if d.seed is not None else cfg.seed + 7919 * g.index
            rngs = [np.random.default_rng(base + b) for b in range(B)]
            amps = d.amplitudes
            offsets = np.zeros_like(amps) if d.offsets is None else d.offsets
            per_run = [(amps * scales[b], offsets * scales[b]) for b in range(B)]
            self.axes.append((g, rngs, per_run))

    def take(self, count):
        """Returns (q0, dq, qhat): leader disturbances (count, A*B),
        follower-minus-leader disturbances (count, M), and the raw draws
        (count, B, N+1) of each disturbed axis."""
        block = self.block
        q0 = np.zeros((count, len(block.axes) * block.B))
        dq = np.zeros((count, block.M))
        qhat = {}
        for g, rngs, per_run in self.axes:
            q = np.stack(
                [
                    rng.uniform(-1.0, 1.0, (count, block.N + 1)) * amp + off
                    for rng, (amp, off) in zip(rngs, per_run)
                ],
                axis=1,
            )
            q0[:, g.lead] = q[:, :, 0]
            dq[:, g.rows] = (q[:, :, 1:] - q[:, :, 0:1]).reshape(count, -1)
            qhat[g] = q
        return q0, dq, qhat


class _FullRecord:
    """Every node of every row, for ``simulate`` (a single run)."""

    def __init__(self, block: _Block, T: int):
        self.L = np.empty((T + 1,) + block.L0.shape)
        self.E = np.empty((T + 1,) + block.E0.shape)
        self.u = np.empty((T + 1, block.M))
        self.s = np.empty((T + 1, block.M))
        self.q = {g: np.zeros((T + 1, block.B, block.N + 1)) for g in block.axes}

    def record(self, k, L, E, u, s):
        self.L[k] = L
        self.E[k] = E
        self.u[k] = u
        self.s[k] = s

    def draws(self, k, qhat):
        for g, q in qhat.items():
            self.q[g][k:k + q.shape[0]] = q

    def axis(self, g: _Axis) -> AxisTrajectory:
        """The recorded series of one axis of a single run."""
        errors = np.ascontiguousarray(self.E[:, g.rows])
        lead = self.L[:, g.lead.start][:, None, :]
        s = self.s[:, g.rows]
        return AxisTrajectory(
            name=g.spec.name,
            states=np.concatenate([lead, lead + errors], axis=1),
            errors=errors,
            controls=np.ascontiguousarray(self.u[:, g.rows]),
            hnorm=g.hnorm(errors, s),
            # a stack of per-node products, each shaped as in _BatchRecord
            barrier=g.barrier(errors, s) if g.spec.cone is not None else None,
            disturbance=self.q[g][:, 0],
        )


class _BatchRecord:
    """Per-run reductions of every axis, for ``simulate_batch``."""

    def __init__(self, block: _Block, T: int):
        B, N = block.B, block.N
        self.block = block
        self.efirst_max = {g: np.empty((T + 1, B)) for g in block.axes}
        self.hnorm = {g: np.empty((T + 1, B, N)) for g in block.axes}
        self.phimin = {
            g: np.empty((T + 1, B)) if g.spec.cone is not None else None for g in block.axes
        }
        self.errsq = {g: np.empty((T + 1, B)) for g in block.axes}

    def record(self, k, L, E, u, s):
        B, N, n = self.block.B, self.block.N, self.block.n
        for g in self.block.axes:
            E2 = E[g.rows]
            E_ = E2.reshape(B, N, n)
            self.hnorm[g][k] = g.hnorm(E2, s[g.rows]).reshape(B, N)
            self.efirst_max[g][k] = E_[:, :, 0].max(axis=1)
            self.errsq[g][k] = np.einsum("bij,bij->b", E_, E_)
            if g.spec.cone is not None:
                phi = g.barrier(E2, s[g.rows])
                self.phimin[g][k] = phi.reshape(B, N * n).min(axis=1)

    def draws(self, k, qhat):
        pass


def _integrate(cfg: ScenarioConfig, inits, recorder, dist_scales=None):
    """Advance every axis of every run as one row block.

    ``inits`` lists each axis's (B, N+1, n) initial states in
    ``cfg.axes`` order; ``recorder(block, T)`` receives every node.
    Returns (block, recorder, final errors, final log norms).
    """
    block = _Block(cfg, [np.asarray(x, dtype=float) for x in inits])
    T = cfg.steps
    rec = recorder(block, T)
    draws = _Draws(cfg, block, dist_scales)
    implicit = cfg.integrator == "implicit_euler"

    L, E = block.L0, block.E0
    u, s = block.eval(E, None)  # node 0: nodal law value
    rec.record(0, L, E, u, s)
    w = np.zeros(block.M)
    q0 = np.zeros((_DRAW_CHUNK, len(block.axes) * block.B))
    dq = np.zeros((_DRAW_CHUNK, block.M))
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, T, _DRAW_CHUNK):
            count = min(_DRAW_CHUNK, T - k0)
            if draws.axes:
                q0, dq, qhat = draws.take(count)
                rec.draws(k0, qhat)
            for j in range(count):
                if implicit:
                    L, E, w, s = block.step_implicit(L, E, q0[j], dq[j], w, s)
                    u = w
                else:
                    warm = np.where(np.isfinite(s), s, 0.0)
                    L, E = block.step_rk4(L, E, q0[j], dq[j], warm)
                    u, s = block.eval(E, s)
                rec.record(k0 + j + 1, L, E, u, s)
    return block, rec, E, s


@dataclass(frozen=True, eq=False)
class BatchResult:
    """Per-run reductions from one batched sweep (time-major arrays)."""

    times: np.ndarray
    axis_names: tuple
    efirst_max: dict      # name -> (T+1, B)
    hnorm: dict           # name -> (T+1, B, N)
    phimin: dict          # name -> (T+1, B) or None
    errsq_total: np.ndarray  # (T+1, B) summed over axes


def simulate(cfg: ScenarioConfig) -> Trajectory:
    """Integrate one scenario, recording every node.

    Deterministic: the same configuration and seed produce identical
    arrays and, downstream, byte-identical CSV files.
    """
    times = np.arange(cfg.steps + 1) * cfg.dt
    block, rec, E, s = _integrate(cfg, [ax.initial[None] for ax in cfg.axes], _FullRecord)
    if cfg.integrator == "implicit_euler":
        # final node control column: repeat the nodal law value
        rec.u[-1], _ = block.eval(E, s)
    axes = tuple(rec.axis(g) for g in block.in_order)
    return Trajectory(times=times, axes=axes, dt=cfg.dt)


def simulate_batch(
    cfg: ScenarioConfig, initial_batches: dict, disturbance_scales=None
) -> BatchResult:
    """Integrate many runs of one scenario that differ only in their
    initial states; ``initial_batches`` maps axis name -> (B, N+1, n).

    Disturbed runs use per-run generators seeded base + run index, so
    run b reproduces ``simulate`` with that run's initial states and the
    shifted seed. ``disturbance_scales`` (length B) multiplies every
    disturbance amplitude per run, for amplitude sweeps.
    """
    times = np.arange(cfg.steps + 1) * cfg.dt
    block, rec, _, _ = _integrate(
        cfg, [initial_batches[ax.name] for ax in cfg.axes], _BatchRecord, disturbance_scales
    )
    axes = block.in_order
    total = None
    for g in axes:
        total = rec.errsq[g] if total is None else total + rec.errsq[g]
    return BatchResult(
        times,
        tuple(g.spec.name for g in axes),
        {g.spec.name: rec.efirst_max[g] for g in axes},
        {g.spec.name: rec.hnorm[g] for g in axes},
        {g.spec.name: rec.phimin[g] for g in axes},
        total,
    )


# ---------------------------------------------------------------------------
# trajectory metrics


def _settling_index(norms: np.ndarray, tol: float) -> int | None:
    """Earliest index i with norms[j] <= tol for all j >= i."""
    above = norms > tol
    if not above.any():
        return 0
    last = int(np.nonzero(above)[0][-1])
    if last == norms.shape[0] - 1:
        return None
    return last + 1


def settling_time(traj: Trajectory, tol: float, axis: str | None = None):
    """Earliest grid time after which the stacked error norm stays at or
    below ``tol``; None if it never does. With ``axis=None`` the norm
    stacks every recorded axis."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if axis is None:
        sq = sum(np.einsum("tij,tij->t", a.errors, a.errors) for a in traj.axes)
    else:
        at = traj.axis(axis)
        sq = np.einsum("tij,tij->t", at.errors, at.errors)
    idx = _settling_index(np.sqrt(sq), tol)
    return None if idx is None else float(traj.times[idx])


def overshoot_metric(traj: Trajectory, axis: str | None = None) -> float:
    """Max over time and followers of the first error component on one
    axis; <= 0 means no follower ever led the leader there."""
    at = traj.axis(axis)
    return float(at.errors[:, :, 0].max())


def lyapunov_violation(hnorm: np.ndarray, tol: float = 1e-9, floor: float = 1e-6) -> float:
    """Largest increase of a per-follower norm series between adjacent
    nodes, counted only while the norm sits above ``floor``. At or below
    ``tol`` the series counts as non-increasing."""
    h = np.asarray(hnorm, dtype=float)
    inc = h[1:] - h[:-1]
    mask = h[:-1] > floor
    if not mask.any():
        return 0.0
    return float(np.max(np.where(mask, inc, -np.inf)))


# ---------------------------------------------------------------------------
# CSV export


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per (time, agent, axis); floats at 17 significant digits.

    Columns: t, agent, axis, x1..xn, u, e1..en, hnorm, phi1..phin, q.
    Leader rows carry zero errors and norms; phi columns are nan when no
    cone was recorded for the axis.
    """
    first = traj.axes[0]
    n = first.states.shape[2]
    cols = (
        ["t", "agent", "axis"]
        + [f"x{i + 1}" for i in range(n)]
        + ["u"]
        + [f"e{i + 1}" for i in range(n)]
        + ["hnorm"]
        + [f"phi{i + 1}" for i in range(n)]
        + ["q"]
    )
    f = "%.17g"
    fields = ",".join([f] * n)
    width = len(cols) - 2  # every column but agent and axis

    def values(ax, ks):
        """Numbers of every row at the time nodes ``ks``, in column order;
        leaders carry zeros, and nan where no barrier was recorded."""
        t = traj.times[ks]
        v = np.full((len(t), ax.states.shape[1], width), np.nan)
        v[:, :, 0] = t[:, None]
        v[:, :, 1:n + 1] = ax.states[ks]
        v[:, 0, n + 1:2 * n + 3] = 0.0
        v[:, 1:, n + 1] = ax.controls[ks]
        v[:, 1:, n + 2:2 * n + 2] = ax.errors[ks]
        v[:, 1:, 2 * n + 2] = ax.hnorm[ks]
        if ax.barrier is not None:
            v[:, 1:, 2 * n + 3:3 * n + 3] = ax.barrier[ks]
        v[:, :, -1] = ax.disturbance[ks]
        return v.tolist()

    # one row template per (axis, agent), formatted once per row
    templates = [
        [
            f"{f},{agent},{ax.name.replace('%', '%%')},{fields},{f},{fields},{f},{fields},{f}\n"
            for agent in range(ax.states.shape[1])
        ]
        for ax in traj.axes
    ]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for k0 in range(0, len(traj.times), 512):
            ks = slice(k0, k0 + 512)
            chunk = [(tm, values(ax, ks)) for tm, ax in zip(templates, traj.axes)]
            lines = []
            for j in range(len(traj.times[ks])):
                for tm, v in chunk:
                    lines += [tmpl % tuple(row) for tmpl, row in zip(tm, v[j])]
            fh.write("".join(lines))
