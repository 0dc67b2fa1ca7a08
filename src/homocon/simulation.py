"""Deterministic closed-loop simulation of the multi-agent system.

Agents integrate the chain dynamics under a per-axis protocol; the
leader runs open loop. The implicit Euler scheme exploits the affine
structure of each step: given the new leader state, a follower's update
is affine in its (scalar) control, so the implicit equation reduces to
one scalar root problem per follower per step. At points where the
control law is set-valued (mu = -1 at the origin) the step selects the
control that lands the error exactly on the discontinuity manifold,
which reproduces sliding without chattering.

Internally the integrator advances the leader state and the follower
errors; follower states are reconstructed as leader + error, which
avoids the catastrophic cancellation of differencing two O(10) states
once errors shrink toward machine scale.

Runs are deterministic: identical configuration and seed give
bit-identical trajectories and CSV files. A batch dimension lets many
initial conditions share one integration sweep; a batch of one is
exactly `simulate`.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .cones import ConeSpec
from .graphs import DirectedGraph, is_leader_rooted
from .homogeneity import canonical_norm_many
from .protocols import IntegratorChain, ProtocolKind, ProtocolSpec


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
        if np.any(a < 0):
            raise ValueError("amplitudes must be nonnegative")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)
        if self.offsets is not None:
            o = np.asarray(self.offsets, dtype=float)
            if o.shape != a.shape:
                raise ValueError("offsets must match amplitudes")
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

    ``controls[k]`` and ``disturbance[k]`` are the values applied on
    [t_k, t_{k+1}); the final node repeats the nodal law value and zero.
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
# structured per-axis stepper


# squared weighted norms that underflow to exactly zero mark the origin;
# the integrator's snap logic keeps settled errors at exact zero, so the
# sub-denormal band is never visited with meaningful directions
_NORM_FLOOR = 0.0


class _FastLaw:
    """Fused evaluation of a protocol law on batches of vectors.

    Same arithmetic as :func:`homocon.protocols.control_input_many` with
    the norm Newton solve inlined; rows the Newton pass cannot settle
    are routed through the robust solver.
    """

    def __init__(self, spec: ProtocolSpec):
        self.spec = spec
        self.linear = spec.kind is ProtocolKind.LINEAR
        self.K = spec.gain
        if not self.linear:
            self.P = spec.norm_ctx.P
            self.rk = spec.norm_ctx.gen.diag_entries
            self.mu = spec.mu
        # at degree zero the dilation is uniform: the law collapses to
        # -K v and the norm has the closed form ||v||_P
        self.affine = self.linear or (not self.linear and spec.mu == 0.0)

    def log_norms(self, V: np.ndarray, s_warm: np.ndarray | None):
        if self.linear:
            return np.full(V.shape[0], -np.inf)
        P, rk = self.P, self.rk
        if self.mu == 0.0:
            pn2 = (V @ P * V).sum(axis=1)
            with np.errstate(divide="ignore"):
                return np.where(pn2 > _NORM_FLOOR, 0.5 * np.log(pn2), -np.inf)
        pn2 = (V @ P * V).sum(axis=1)
        nz = pn2 > _NORM_FLOOR
        s = 0.5 * np.log(np.maximum(pn2, 1e-308))
        if s_warm is not None:
            s = np.where(np.isfinite(s_warm), s_warm, s)
        s = np.where(nz, s, 0.0)

        pending = nz.copy()
        for _ in range(50):
            if not pending.any():
                break
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                Y = V * np.exp(-np.outer(s, rk))
                PY = Y @ P
                q2 = (PY * Y).sum(axis=1)
                F = 0.5 * np.log(q2)
                g = (PY * (Y * rk)).sum(axis=1) / q2
            fin = np.isfinite(F) & np.isfinite(g) & (g > 0)
            pending &= ~(fin & (np.abs(F) <= 1e-13))
            broken = pending & ~fin
            if broken.any():
                _, srob = canonical_norm_many(self.spec.norm_ctx, V[broken])
                s[broken] = srob
                pending &= ~broken
            move = pending & fin
            s = np.where(move, s + F / np.where(g > 0, g, 1.0), s)
        if pending.any():
            _, srob = canonical_norm_many(self.spec.norm_ctx, V[pending])
            s[pending] = srob
        return np.where(nz, s, -np.inf)

    def eval(self, V: np.ndarray, s_warm: np.ndarray | None):
        """Returns (u, log_norms)."""
        if self.affine:
            return -(V @ self.K), self.log_norms(V, None)
        s = self.log_norms(V, s_warm)
        finite = np.isfinite(s)
        sf = np.where(finite, s, 0.0)
        Z = V * np.exp(-np.outer(sf, self.rk))
        with np.errstate(over="ignore"):
            u = -np.exp((1.0 + self.mu) * sf) * (Z @ self.K)
        return np.where(finite, u, 0.0), s


class _AxisStepper:
    """Advances leader state and follower errors for one axis."""

    def __init__(self, spec: ProtocolSpec, n: int, dt: float):
        self.spec = spec
        self.dt = dt
        chain = IntegratorChain(n)
        self.A = chain.A
        self.b = chain.B.reshape(-1)
        self.R = np.linalg.inv(np.eye(n) - dt * self.A)
        self.beta = dt * (self.R @ self.b)
        self.btb = float(self.beta @ self.beta)
        self.cmax = spec.sphere_gain_bound()
        self.law = _FastLaw(spec)
        if self.law.affine:
            self.lin_den = 1.0 + float(spec.gain @ self.beta)
            if self.lin_den <= 0:
                raise NonConvergentStep("dt too large for the linear implicit step")

    # -- explicit field pieces -------------------------------------------------
    def field(self, L, E, q0, dq, warm=None):
        B_, N, n = E.shape
        dL = L @ self.A.T + np.outer(q0, self.b)
        u, logr = self.law.eval(E.reshape(B_ * N, n), warm)
        dE = E @ self.A.T + (u.reshape(B_, N) + dq)[:, :, None] * self.b
        return dL, dE, logr

    # -- implicit step ----------------------------------------------------------
    def step_implicit(self, L, E, q0, dq, w_prev, s_warm):
        B_, N, n = E.shape
        M = B_ * N
        L_new = (L + self.dt * np.outer(q0, self.b)) @ self.R.T
        alpha = E.reshape(M, n) @ self.R.T + dq.reshape(M)[:, None] * self.beta

        if self.law.affine:
            w = -(alpha @ self.spec.gain) / self.lin_den
            e_new = alpha + w[:, None] * self.beta
            logr = self.law.log_norms(e_new, None)
            return L_new, e_new.reshape(B_, N, n), w.reshape(B_, N), logr

        w, e_new, logr = _solve_control_roots(
            self.law, alpha, self.beta, self.btb, self.cmax,
            w_prev.reshape(M), s_warm.reshape(M),
        )
        return L_new, e_new.reshape(B_, N, n), w.reshape(B_, N), logr

    # -- explicit RK4 step -------------------------------------------------------
    def step_rk4(self, L, E, q0, dq, s_warm):
        dt = self.dt
        s = s_warm.reshape(-1)
        k1L, k1E, s = self.field(L, E, q0, dq, s)
        k2L, k2E, s = self.field(L + 0.5 * dt * k1L, E + 0.5 * dt * k1E, q0, dq, s)
        k3L, k3E, s = self.field(L + 0.5 * dt * k2L, E + 0.5 * dt * k2E, q0, dq, s)
        k4L, k4E, s = self.field(L + dt * k3L, E + dt * k3E, q0, dq, s)
        L_new = L + dt / 6.0 * (k1L + 2 * k2L + 2 * k3L + k4L)
        E_new = E + dt / 6.0 * (k1E + 2 * k2E + 2 * k3E + k4E)
        return L_new, E_new


def _solve_control_roots(law: _FastLaw, alpha, beta, btb, cmax, w_prev, s_warm,
                         tol=1e-12, snap_tol=1e-12):
    """Per-element scalar solve of w = law(alpha + w*beta).

    Returns (w, e_new, log_norms). When the affine line passes through
    the set-valued point of the law (within snap_tol of the origin) and
    the required control is an admissible selection, the error is placed
    exactly at the origin: the discrete analogue of sliding.
    """
    M = alpha.shape[0]

    wpar = -(alpha @ beta) / btb
    resid = alpha + wpar[:, None] * beta
    rn = np.linalg.norm(resid, axis=1)
    anorm = np.linalg.norm(alpha, axis=1)
    scale = 1.0 + anorm + np.abs(wpar) * np.sqrt(btb)
    geom = rn <= snap_tol * scale
    if law.spec.mu == -1.0:
        adm = np.abs(wpar) <= cmax * (1.0 + 1e-9)
    else:
        adm = np.abs(wpar) <= 1e-9 * (1.0 + cmax)
    snap = geom & adm

    w = w_prev.copy()
    e_new = np.zeros_like(alpha)
    logr = np.full(M, -np.inf)
    live = ~snap
    w[snap] = wpar[snap]

    if live.any():
        idx = np.nonzero(live)[0]
        a = alpha[idx]
        wl = w_prev[idx].copy()
        sl = s_warm[idx].copy()

        def ev(wv, sv):
            V = a + wv[:, None] * beta
            u, lr = law.eval(V, sv)
            return wv - u, lr

        phi_a, s_a = ev(wl, sl)
        wb = wl - phi_a
        phi_b, s_b = ev(wb, s_a)
        w1, f1, w2, f2 = wl, phi_a, wb, phi_b
        done = np.abs(f2) <= tol * (1.0 + np.abs(w2))
        for _ in range(9):
            if done.all():
                break
            den = f2 - f1
            step = np.where(np.abs(den) > 1e-300, f2 * (w2 - w1) / den, f2)
            cand = np.where(done, w2, w2 - step)
            f_c, s_c = ev(cand, s_b)
            w1, f1 = w2, f2
            w2, f2, s_b = cand, np.where(done, f2, f_c), np.where(done, s_b, s_c)
            done |= np.abs(f2) <= tol * (1.0 + np.abs(w2))

        if not done.all():
            rough = np.nonzero(~done)[0]
            w2r, s2r = _bracketed_roots_impl(
                law, a[rough], beta, cmax, w2[rough], f2[rough], s_b[rough], tol
            )
            w2[rough], s_b[rough] = w2r, s2r

        w[idx] = w2
        logr[idx] = s_b
        e_new[idx] = a + w2[:, None] * beta

    if snap.any():
        logr[snap] = -np.inf
    if not np.all(np.isfinite(w)):
        raise NonConvergentStep("control root solve produced non-finite values")
    return w, e_new, logr


def _bracketed_roots_impl(law: _FastLaw, a, beta, cmax, w0, f0, s0, tol):
    """Bracket-and-bisect fallback for elements the secant pass missed.

    On a jump of the law crossing the diagonal (set-valued point that
    failed the snap test) the bracket collapses without the residual
    vanishing; the endpoint with the smaller residual is then kept,
    i.e. the control is projected to the value minimizing the residual.
    """
    m = w0.shape[0]

    def ev(wv, sv):
        V = a + wv[:, None] * beta
        u, lr = law.eval(V, sv)
        return wv - u, lr

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
            fl, sl = ev(lo, slo)
            flo = np.where(need_lo, fl, flo)
            slo = np.where(need_lo, sl, slo)
        if need_hi.any():
            fh, sh = ev(hi, shi)
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
        f, s = ev(w, s)
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
# batched integration


@dataclass
class _AxisRecord:
    efirst_max: np.ndarray       # (T+1, B) max over followers of e_i1
    hnorm: np.ndarray            # (T+1, B, N)
    phimin: np.ndarray | None    # (T+1, B)
    errsq: np.ndarray            # (T+1, B)
    # full-mode extras
    states: np.ndarray | None = None
    errors: np.ndarray | None = None
    controls: np.ndarray | None = None
    disturbance: np.ndarray | None = None
    barrier: np.ndarray | None = None


def _integrate_axis(cfg: ScenarioConfig, ax: AxisSpec, init_batch, record_full,
                    dist_scales=None):
    """Advance one axis for all batch runs; returns an _AxisRecord."""
    X0 = np.asarray(init_batch, dtype=float)  # (B, N+1, n)
    B_, Np1, n = X0.shape
    N = Np1 - 1
    T = cfg.steps
    dt = cfg.dt
    stepper = _AxisStepper(ax.protocol, n, dt)

    L = X0[:, 0, :].copy()
    E = X0[:, 1:, :] - X0[:, 0:1, :]

    rngs = None
    if ax.disturbance is not None:
        axis_index = [a.name for a in cfg.axes].index(ax.name)
        base = (
            ax.disturbance.seed
            if ax.disturbance.seed is not None
            else cfg.seed + 7919 * axis_index
        )
        rngs = [np.random.default_rng(base + b) for b in range(B_)]
        amps = ax.disturbance.amplitudes
        offsets = (
            np.zeros_like(amps) if ax.disturbance.offsets is None else ax.disturbance.offsets
        )
        scales = np.ones(B_) if dist_scales is None else np.asarray(dist_scales, float)

    rec = _AxisRecord(
        efirst_max=np.empty((T + 1, B_)),
        hnorm=np.empty((T + 1, B_, N)),
        phimin=np.empty((T + 1, B_)) if ax.cone is not None else None,
        errsq=np.empty((T + 1, B_)),
    )
    if record_full:
        rec.states = np.empty((T + 1, B_, Np1, n))
        rec.errors = np.empty((T + 1, B_, N, n))
        rec.controls = np.empty((T + 1, B_, N))
        rec.disturbance = np.zeros((T + 1, B_, Np1))
        if ax.cone is not None:
            rec.barrier = np.empty((T + 1, B_, N, n))

    M = B_ * N
    s_node = np.full(M, -np.inf)
    w_node = np.zeros(M)

    has_cone = ax.cone is not None
    H_T = ax.cone.H.T if has_cone else None
    rk = ax.protocol.norm_ctx.gen.diag_entries if ax.protocol.norm_ctx else None

    def record(k, E_, L_, s_log, u_nodal):
        E2 = E_.reshape(M, n)
        if rk is not None:
            with np.errstate(over="ignore"):
                r = np.exp(s_log)  # exp(-inf) = 0 at the origin
        else:
            r = np.linalg.norm(E2, axis=1)  # linear protocols: record ||e||_2
        rec.hnorm[k] = r.reshape(B_, N)
        rec.efirst_max[k] = E_[:, :, 0].max(axis=1)
        rec.errsq[k] = np.einsum("bij,bij->b", E_, E_)
        phi = None
        if has_cone:
            if rk is None:
                phi = E2 @ H_T
            else:
                finite = np.isfinite(s_log)
                Z = E2 * np.exp(-np.outer(np.where(finite, s_log, 0.0), rk))
                phi = np.where(finite[:, None], Z, 0.0) @ H_T
            rec.phimin[k] = phi.reshape(B_, N * n).min(axis=1)
        if record_full:
            rec.states[k] = np.concatenate([L_[:, None, :], L_[:, None, :] + E_], axis=1)
            rec.errors[k] = E_
            rec.controls[k] = u_nodal.reshape(B_, N)
            if phi is not None:
                rec.barrier[k] = phi.reshape(B_, N, n)

    # node 0: nodal law value
    u0, s_node = stepper.law.eval(E.reshape(M, n), None)
    record(0, E, L, s_node, u0)

    zero_q0 = np.zeros(B_)
    zero_dq = np.zeros((B_, N))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(T):
            if rngs is not None:
                qhat = np.stack(
                    [
                        rngs[b].uniform(-1.0, 1.0, Np1) * (amps * scales[b])
                        + offsets * scales[b]
                        for b in range(B_)
                    ]
                )
                q0 = qhat[:, 0]
                dq = qhat[:, 1:] - q0[:, None]
            else:
                q0, dq = zero_q0, zero_dq

            if cfg.integrator == "implicit_euler":
                L, E, w, s_node = stepper.step_implicit(L, E, q0, dq, w_node, s_node)
                w_node = w.reshape(M)
                u_nodal = w_node
            else:
                warm = np.where(np.isfinite(s_node), s_node, 0.0)
                L, E = stepper.step_rk4(L, E, q0, dq, warm)
                u_nodal, s_node = stepper.law.eval(E.reshape(M, n), s_node)
            if record_full and rngs is not None:
                rec.disturbance[k] = qhat
            record(k + 1, E, L, s_node, u_nodal)

    # final node control column: repeat the nodal law value
    if record_full and cfg.integrator == "implicit_euler":
        uT, _ = stepper.law.eval(E.reshape(M, n), s_node)
        rec.controls[T] = uT.reshape(B_, N)
    return rec


def _axis_trajectory(ax: AxisSpec, rec: _AxisRecord, b: int) -> AxisTrajectory:
    return AxisTrajectory(
        name=ax.name,
        states=rec.states[:, b],
        errors=rec.errors[:, b],
        controls=rec.controls[:, b],
        hnorm=rec.hnorm[:, b],
        barrier=rec.barrier[:, b] if rec.barrier is not None else None,
        disturbance=rec.disturbance[:, b],
    )


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
    out = []
    for ax in cfg.axes:
        rec = _integrate_axis(cfg, ax, ax.initial[None, :, :], record_full=True)
        out.append(_axis_trajectory(ax, rec, 0))
    return Trajectory(times=times, axes=tuple(out), dt=cfg.dt)


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
    efirst, hnorm, phimin = {}, {}, {}
    total = None
    for ax in cfg.axes:
        rec = _integrate_axis(
            cfg, ax, initial_batches[ax.name], record_full=False,
            dist_scales=disturbance_scales,
        )
        efirst[ax.name] = rec.efirst_max
        hnorm[ax.name] = rec.hnorm
        phimin[ax.name] = rec.phimin
        total = rec.errsq if total is None else total + rec.errsq
    return BatchResult(times, tuple(a.name for a in cfg.axes), efirst, hnorm, phimin, total)


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
    buf = io.StringIO()
    buf.write(",".join(cols) + "\n")
    fmt = "%.17g"
    for k, t in enumerate(traj.times):
        for ax in traj.axes:
            Np1 = ax.states.shape[1]
            for agent in range(Np1):
                parts = [fmt % t, str(agent), ax.name]
                parts += [fmt % v for v in ax.states[k, agent]]
                if agent == 0:
                    parts += [fmt % 0.0]
                    parts += [fmt % 0.0] * n
                    parts += [fmt % 0.0]
                    parts += ["nan"] * n
                else:
                    i = agent - 1
                    parts += [fmt % ax.controls[k, i]]
                    parts += [fmt % v for v in ax.errors[k, i]]
                    parts += [fmt % ax.hnorm[k, i]]
                    if ax.barrier is not None:
                        parts += [fmt % v for v in ax.barrier[k, i]]
                    else:
                        parts += ["nan"] * n
                parts += [fmt % ax.disturbance[k, agent]]
                buf.write(",".join(parts) + "\n")
    with open(path, "w", newline="\n") as fh:
        fh.write(buf.getvalue())
