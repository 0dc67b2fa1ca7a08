"""Deterministic closed-loop simulation of the multi-agent system.

Agents integrate the chain dynamics under a per-axis protocol; the
leader runs open loop. Each implicit Euler step is affine in a
follower's scalar control w, e = a + w beta. For homogeneous laws the
law is linear in e at a fixed log norm s, so the control w(s) has a
closed form and the step is one scalar equation in s,
F(s) = log ||d(-s)(a + w(s) beta)||_P = 0. One Newton iteration on s
solves it for every curved row, started from the quadratic through the
log norms at the last three nodes. A row stops once |F| is small, or
right after a step so small that the next pass would only confirm it.
The few rows it cannot resolve (no descending step, or a + w beta
cancelling below the resolution of F) solve the same equation with the
bracketed Newton of the norm solve. Where the law is set-valued
(mu = -1 at the origin) the step selects the control that lands the
error exactly on the discontinuity manifold, which reproduces sliding
without chattering.
A row is placed on the origin when its line a + w beta passes within
the snap distance r of it and the control that gets closest is within
the law's bound c there: for mu = -1 the largest |u| on the unit
sphere, for mu > -1 the far smaller bound of |u| on the ball of radius
r. That needs |a| <= about c |beta|, so the test for it runs only on
steps where some curved row is that close to the origin but for an
undisturbed row resting on it, which it would place there again; on the
other steps every row not at rest goes to the Newton.

The homogeneous laws of negative degree are finite-time stable, and the
implicit step keeps that: undisturbed, their errors reach exactly zero
and stay there. Such a row leaves the step's working set at the end of
its draw chunk, and the step writes for it the values it would compute
again, so the screen, the Newton and the residual work on the rows that
still move. A chunk whose last two nodes have every row at rest ends on
a node that every later node repeats, errors, controls and norms: both
entry points stop integrating there. ``simulate`` derives each later
chunk of nodes from that node alone; a batch copies that node's
reductions over the rest of the horizon, but only those with a bit set,
since its series start zeroed, so a settled tail of +0.0 is never
written.

The integrator advances the follower errors e_i = x_i - x_0 alone, which
evolve without reading the leader's state, so differencing two O(10)
states never cancels. The leaders run open loop, and only a recording
reads them: it steps them from the draws it records, and its follower
states are leader + error.

Every axis of every batch run shares one sweep: their follower errors
are the rows of one block, each axis a slice of it, and every product is
one stacked matmul against the axes' matrices (``_linalg.grouped_matmul``,
which pads a group of one row to two). A row's product then does not
depend on the rows beside it, so an axis integrates exactly as it would
alone and a batch run exactly as ``simulate`` runs it. The law, the
norm solve and the cone barrier's sphere projection are the library's
own (``protocols._law``, ``homogeneity._log_norms``,
``homogeneity._project_to_sphere``).

A step makes several dozen numpy calls, so on a few rows its time is
the cost per call. The block alone holds its laws' parameters and makes
once the arrays its log-norm residual writes (``_Work``), for the Newton
and for a step's one bracketed solve over every axis's open rows;
``_Draws`` forms the forcing of a draw chunk at once. Ops that pair the
rows with their n columns take transposed views, so numpy loops along
the rows (``_Work``, ``_linalg.outer``). Each value keeps its operations
and their order, so every bit is that of a new array per operation, and
a step returns new arrays, never a buffer.

Runs are deterministic: identical configuration and seed give
bit-identical trajectories and CSV files. Both entry points buffer one
draw chunk of raw nodes, the controls only ``simulate``, and derive it
once the chunk ends with the same calls (``_ChunkRecord.series``):
``simulate`` into the recorded series it returns, a batch into each
run's reductions (overshoot, norms, barrier minimum, squared error).
Given a CSV destination, ``simulate`` has the CSV of a run longer than
one draw chunk formatted by a forked writer process on another CPU while
it integrates: the integration's loop is bound by dispatch, and
formatting %.17g fields takes about a third of a preset run's time. Once
the integration ends, the parent formats about half of the nodes the
writer has not been sent, and appends them after the writer's.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import math
import mmap
import os
import shutil
import signal
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from ._linalg import grouped_matmul, outer, rowsum
from .cones import ConeSpec
from .graphs import DirectedGraph, is_leader_rooted
from .homogeneity import _bracketed_roots, _log_norms, _project_to_sphere
from .protocols import IntegratorChain, ProtocolSpec, _law


class NonConvergentStep(Exception):
    """The implicit solve failed; reducing dt is the usual remedy."""


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
        if self.seed is not None and self.seed < 0:
            raise ValueError("disturbance seed must be nonnegative")
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
    cone to record barriers against, optional disturbance. The name is a
    field of the trajectory CSV, so it may not hold a comma, a double
    quote or a line break."""

    name: str
    protocol: ProtocolSpec
    initial: np.ndarray
    cone: ConeSpec | None = None
    disturbance: DisturbanceSpec | None = None

    def __post_init__(self):
        if any(c in self.name for c in ',"\r\n'):
            raise ValueError(f"axis name {self.name!r} holds a comma, a quote or a line break")
        X0 = np.array(self.initial, dtype=float)
        if not np.all(np.isfinite(X0)):
            raise ValueError(f"axis {self.name}: initial states must be finite")
        X0.setflags(write=False)
        object.__setattr__(self, "initial", X0)


# Largest run a scenario may ask for, in recorded state values
# (steps + 1) * (N + 1) * n * axes: ``simulate`` returns about this many
# floats in its states and as many in its errors and barriers, 0.8 GB
# each at the bound, and holds besides only one draw chunk of raw nodes.
# reproduce-paper records about 3.2e5.
MAX_RECORDED_VALUES = 10**8


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
        N = self.graph.num_followers
        steps = round(float(self.horizon) / float(self.dt), 0)  # inf when it overflows
        size = (steps + 1) * (N + 1) * self.n * len(self.axes)
        if not size <= MAX_RECORDED_VALUES:
            raise ValueError(
                f"run too large: {size:.3g} recorded values, at most {MAX_RECORDED_VALUES:.0e}"
            )
        if self.integrator != "implicit_euler":
            raise ValueError("integrator must be 'implicit_euler'")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        for ax in self.axes:
            if ax.protocol.n != self.n:
                raise ValueError(f"axis {ax.name}: protocol dimension mismatch")
            if ax.initial.shape != (N + 1, self.n):
                raise ValueError(
                    f"axis {ax.name}: initial states must be ({N + 1}, {self.n})"
                )
            with np.errstate(over="ignore"):
                errors = ax.initial[1:] - ax.initial[0]
            if not np.all(np.isfinite(errors)):
                raise ValueError(f"axis {ax.name}: initial errors must be finite")
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

    ``controls[k]`` is the law at node k: the implicit Euler control
    applied on [t_{k-1}, t_k), and at node 0 and the final node the
    nodal law value. Where the step placed an error exactly on the
    origin it is the control that brings the step closest to it: a
    value of the set-valued law there for mu = -1, otherwise one within
    the law's bound near it.
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
# the row block: every axis of every batch run, integrated together


# disturbance steps drawn per generator call; bounds the draw buffers
# independently of the horizon
_DRAW_CHUNK = 256

# passes of the log-norm Newton before a row goes to the fallback
_NEWTON_PASSES = 10

# a row whose Newton step in s is within this freezes after the step. At
# 1e-6 a few mu = -1 rows near the origin miss |F| <= 1e-13 after it
_NEWTON_STEP = np.array(3e-8)

# past this |w dF/dw|, a few ulps of w move F by more than 1e-13 / 3
# (a + w beta cancels): the Newton cannot resolve F there
_NEWTON_COND = np.array(50.0)

# 0-d arrays, as the two above: numpy converts a float operand on every call
_F_TOL, _ZERO, _HALF, _MINUS_ONE, _NEG_INF = map(np.array, (1e-13, 0.0, 0.5, -1.0, -np.inf))

# the fallback's pass cap (_log_norm_roots)
_ROOT_PASSES = 100

# largest denominator 1 + K beta of the closed-form affine step
_LIN_DEN_MAX = 1e8

# a curved row whose line a + w beta passes within
# _SNAP_TOL (1 + |a| + |wpar| |beta|) of the origin may be placed there
_SNAP_TOL = 1e-12


class _Axis:
    """One axis's place in the row block and what its recorders and affine step read."""

    def __init__(self, index: int, spec: AxisSpec, rows: slice, beta):
        protocol = spec.protocol
        ctx = protocol.norm_ctx
        self.index = index  # position in ScenarioConfig.axes
        self.spec = spec
        self.rows = rows    # follower error rows, run-major
        self.K = protocol.gain
        self.P = ctx.P if ctx is not None else None
        self.rk = ctx.gen.diag_entries if ctx is not None else None
        # at degree zero the dilation is uniform: the law collapses to
        # -K v and the norm has the closed form ||v||_P
        self.affine = protocol.mu == 0.0
        if self.affine:
            # e = a + w beta cancels a down to about a / lin_den, losing
            # log10(lin_den) digits
            self.lin_den = 1.0 + float(protocol.gain @ beta)
            if not 0.0 < self.lin_den <= _LIN_DEN_MAX:
                raise NonConvergentStep("dt too large for the linear implicit step")

    def log_norms(self, E, s):
        """Log norms of this axis's errors E (rows in the last axis): its
        rows of the block's curved-row log norms s, the closed form
        log ||e||_P at degree zero, None for linear laws."""
        if self.rk is None:
            return None
        if not self.affine:
            return s[..., self.rows]
        pn2 = rowsum(grouped_matmul(E, self.P) * E)
        with np.errstate(divide="ignore"):
            return np.where(pn2 > 0.0, 0.5 * np.log(pn2), -np.inf)

    def hnorm(self, E, s):
        """Recorded norms of errors E with this axis's log norms s:
        homogeneous exp(s), linear ||e||_2."""
        if self.rk is None:
            return np.sqrt(rowsum(E * E))
        with np.errstate(over="ignore"):
            return np.exp(s)  # exp(-inf) = 0 at the origin

    def barrier(self, E, s):
        """Cone barrier H z of errors E, z the projection of e onto the
        unit sphere for homogeneous laws and e itself for linear ones."""
        Z = E if self.rk is None else _project_to_sphere(E, s, self.rk)
        return grouped_matmul(Z, self.spec.cone.H.T)


class _Block:
    """Every axis of every batch run as one row block.

    Follower errors form an (M, n) array, M = A*B*N, and each axis owns
    a contiguous run-major slice of it, B*N rows; the leaders are not
    part of the block. Every per-axis product is therefore one
    stacked matmul over an (A, rows, .) view of the flat array, against
    the axes' matrices stacked here. Curved axes come first, so their
    rows are a prefix of the block and share one log-norm Newton solve
    per step, which writes into the block's ``work`` buffers; the
    block's log norms cover these rows only. Affine axes (linear, and
    mu = 0) use the closed-form step.

    A curved row of an undisturbed axis with s = -inf rests on the origin
    for good: e is +-0.0, its a is +0.0, and every step places it there
    again (e = +0.0, w = -0.0, s = -inf). ``retire``, called at the end of
    each draw chunk, takes such rows out of the working set (``active``,
    None while every curved row works): the screen, the Newton, the
    residual, their per-row arrays and ``work`` then cover the working
    rows alone, and ``step_implicit`` writes the retired rows' values.
    Every curved axis keeps the same number of working rows
    (``group_rows``), so that its products keep one stacked layout.
    """

    def __init__(self, cfg: ScenarioConfig, inits):
        n, dt = cfg.n, cfg.dt
        N = cfg.graph.num_followers
        B = len(inits[0]) if inits[0].ndim else 0
        if not B or any(X0.shape != (B, N + 1, n) for X0 in inits):
            raise ValueError(f"every axis needs initial states of one shape (B, {N + 1}, {n}), B >= 1")
        chain = IntegratorChain(n)
        self.dt = dt
        self.b = chain.B.reshape(-1)
        with np.errstate(over="ignore"):
            self.R = np.linalg.inv(np.eye(n) - dt * chain.A)
            self.beta = dt * (self.R @ self.b)
            self.btb = float(self.beta @ self.beta)
            self.root_btb = np.sqrt(self.btb)
        if not (np.all(np.isfinite(self.R)) and np.isfinite(self.btb)):
            raise NonConvergentStep("dt too large for the implicit step")
        self.B, self.N, self.n = B, N, n

        order = sorted(range(len(cfg.axes)), key=lambda i: cfg.axes[i].protocol.mu == 0.0)
        self.axes = []
        for j, i in enumerate(order):
            rows = slice(j * B * N, (j + 1) * B * N)
            self.axes.append(_Axis(i, cfg.axes[i], rows, self.beta))
        self.in_order = sorted(self.axes, key=lambda g: g.index)
        self.curved = [g for g in self.axes if not g.affine]
        flat = self.axes[len(self.curved):]
        self.M = len(self.axes) * B * N
        self.m_curved = len(self.curved) * B * N
        # the node from which every later node repeats it, once known
        self.settled_node = None
        # Newton calls, passes and step-test stops; fallback rows, passes;
        # steps that ran the origin test
        self.newton_calls = self.newton_passes = self.newton_step_stops = 0
        self.fallback_rows = self.fallback_passes = 0
        self.origin_tests = 0
        self.retired_rows = 0  # curved rows out of the working set
        self.active = None  # the working rows of the curved prefix, None for all

        X0 = [inits[g.index] for g in self.axes]
        with np.errstate(over="ignore", invalid="ignore"):
            self.E0 = np.concatenate([(x[:, 1:, :] - x[:, 0:1, :]).reshape(B * N, n) for x in X0])
        if not np.isfinite(self.E0).all():
            raise ValueError("initial errors must be finite")

        if self.curved:
            # the curved axes' matrices, stacked, and their laws' parameters
            laws = [g.spec.protocol for g in self.curved]
            mu, cmax = np.array([[law.mu, law.sphere_gain_bound()] for law in laws]).T
            rk, opm = np.stack([g.rk for g in self.curved]), 1.0 + mu
            self.P = np.stack([g.P for g in self.curved])
            self.K = np.stack([g.K for g in self.curved])
            # the log-norm residual's products, one per axis: [d(-s) a,
            # d(-s) 1] @ jw holds K d(-s) a and K d(-s) beta, y @ jy holds
            # P y and K G y, and (Py * y) @ jq holds y'Py and y'P G y
            self.jw = np.zeros((len(rk), 2 * n, 2))
            self.jw[:, :n, 0], self.jw[:, n:, 1] = self.K, self.K * self.beta
            self.jy = np.concatenate((self.P, (self.K * rk)[:, :, None]), axis=2)
            self.jq = np.stack((np.ones_like(rk), rk), axis=2)
            # |w| below this selects the set-valued point of the law
            bound = np.where(mu == -1.0, cmax * (1.0 + 1e-9), 1e-9 * (1.0 + cmax))
            # on the ball |e| <= r with sqrt(lmax(P)) r <= 1 the log norm is
            # at most log(sqrt(lmax) r) / max(rk), so there
            # |u| <= cmax (sqrt(lmax) r)^ball_exp, ball_exp = opm / max(rk)
            c, ex = cmax * (1.0 + 1e-9), opm / rk.max(axis=1)
            root_lmax = np.sqrt(np.linalg.eigvalsh(self.P)[:, -1])
            # a row is placed on the origin only with |wpar| <= c, and its
            # line then passes within the snap distance r of it, which needs
            # |a| <= (tol (1 + c |beta|) + c |beta|) / (1 - tol): that bound,
            # squared, with a margin for rounding. Each axis's c is its law's:
            # the larger of snap_bound and the near test's bound
            # cmax (1 + 1e-9) min(sqrt(lmax) r, 1)^ball_exp at the largest r
            # of a row within the reach for c = cmax (1 + 1e-9). For
            # mu = -1, ball_exp = 0 and c = cmax (1 + 1e-9)
            def reach2(c):
                cb = c * self.root_btb
                return ((_SNAP_TOL * (1.0 + cb) + cb) / (1.0 - _SNAP_TOL) * (1.0 + 1e-6)) ** 2

            with np.errstate(over="ignore"):  # an infinite reach tests every step
                loose = np.maximum(bound, c)
                r = _SNAP_TOL * (1.0 + np.sqrt(reach2(loose)) + loose * self.root_btb)
                reach = reach2(np.maximum(bound, c * np.minimum(root_lmax * r, 1.0) ** ex))
            # per axis; calm: undisturbed, its rows rest on the origin once there
            calm = np.array([g.spec.disturbance is None for g in self.curved])
            self.laws = rk, opm, bound, reach, np.column_stack((c, root_lmax, ex)), calm
            self.eval_law = np.repeat(rk, B * N, axis=0), np.repeat(opm, B * N)
            # log norms of the working rows at the two nodes before the
            # previous one, newest first; nan until they are known
            self._activate(B * N, (np.full(self.m_curved, np.nan),) * 2)
        if flat:
            self.K_flat = np.stack([g.K for g in flat])[:, :, None]
            self.lin_den = np.repeat([g.lin_den for g in flat], B * N)

    def _activate(self, rows, older):
        """The per-row arrays of ``rows`` working rows of each curved axis,
        whose log norms at the two nodes before the previous one are
        ``older``, and a ``_Work`` for them."""
        rk, opm, bound, reach, ball, calm = self.laws
        self.group_rows, self.older = rows, older
        # s times a neg_rko column is -(s rk) and opm s: one exp gives d(-s) and c
        self.rk, self.opm = np.repeat(rk, rows, axis=0), np.repeat(opm, rows)
        self.neg_rko, self.neg_opm = np.repeat(np.column_stack((-rk, opm)).T, rows, axis=1), -self.opm
        self.snap_bound, self.reach2, self.ball = (np.repeat(x, rows, axis=0) for x in (bound, reach, ball))
        calm = np.repeat(calm, rows)
        self.calm = calm if calm.any() else None
        self.work = _Work(self)

    def retire(self, s):
        """Takes the curved rows at rest out of the working set, given the
        curved log norms s of the last node, and returns whether the block
        has settled. A row rests when its axis is undisturbed and s = -inf.
        Each curved axis keeps the largest number of rows that still move
        on any of them, at least one: an axis with fewer keeps some resting
        rows working. With no affine rows and every row at rest at the node
        before too (``older[0]``), the last step placed every row by the
        rest rule, and every later node repeats the last: it has settled."""
        mc, calm = self.m_curved, self.laws[-1] if self.curved else None
        if calm is None or not calm.all():  # a disturbed axis keeps every row
            return False
        rest = s == -np.inf
        if mc == self.M and rest.all() and (self.older[0] == -np.inf).all():
            return True
        moving = ~rest.reshape(len(calm), -1)
        rows = max(1, int(moving.sum(axis=1).max()))
        if rows < self.group_rows:
            # each axis's moving rows first, then its resting ones, in row order
            keep = np.sort(np.argsort(~moving, axis=1, kind="stable")[:, :rows], axis=1)
            active = (keep + np.arange(len(calm))[:, None] * moving.shape[1]).ravel()
            older = np.full((2, mc), -np.inf)  # a retired row's log norms
            older[:, slice(None) if self.active is None else self.active] = self.older
            self.active, self.retired_rows = active, mc - active.size
            self.active_cells = (active[:, None] * self.n + np.arange(self.n)).ravel()
            self._activate(rows, tuple(older[:, active]))
        return False

    # -- law on the whole block ---------------------------------------------------
    def eval(self, E, s_warm):
        """Returns (u, s): the law on every row of the block and the log
        norms of the curved rows."""
        mc = self.m_curved
        u = np.empty(self.M)
        s = np.empty(0)
        if mc:
            u[:mc], s = _law(E[:mc], self.P, self.K, *self.eval_law, s_warm)
        if mc < self.M:
            u[mc:] = -grouped_matmul(E[mc:], self.K_flat, len(self.K_flat))[:, 0]
        return u, s

    # -- implicit Euler step ------------------------------------------------------
    def step_implicit(self, E, dqb, w_prev, s_warm):
        """The followers' implicit Euler step from errors E, with the
        forcing dqb = dq beta of the follower-minus-leader disturbances
        dq, which ``_Draws`` forms once per draw chunk (zeros when
        undisturbed); the leaders do not enter it. Returns fresh
        arrays (e_new, w, log_norms): no work buffer of the block is
        among them, so a caller may keep them across steps."""
        mc, act = self.m_curved, self.active
        alpha = grouped_matmul(E, self.R.T) + dqb
        if mc == self.M and act is None:
            return self._solve_control_roots(alpha, w_prev, s_warm)
        w = np.empty(self.M)
        e_new = np.empty_like(alpha)
        logr = np.empty(0)
        if act is not None:  # the retired rows stay on the origin
            e_new[:mc], w[:mc], logr = 0.0, -0.0, np.full(mc, -np.inf)
            e, w[act], logr[act] = self._solve_control_roots(alpha.take(act, axis=0), w_prev[act], s_warm[act])
            e_new.reshape(-1)[self.active_cells] = e.reshape(-1)  # e_new[act] = e, at a third of the cost
        elif mc:
            e_new[:mc], w[:mc], logr = self._solve_control_roots(alpha[:mc], w_prev[:mc], s_warm)
        if mc < self.M:
            a, wf, ef = alpha[mc:], w[mc:], e_new[mc:]  # closed form, written in place
            np.negative(grouped_matmul(a, self.K_flat, len(self.K_flat))[:, 0], out=wf)
            np.divide(wf, self.lin_den, out=wf)
            np.add(a, outer(wf, self.beta, ef), out=ef)
        return e_new, w, logr

    def _solve_control_roots(self, alpha, w_prev, s_warm):
        """Per-row scalar solve of w = law(alpha + w*beta) on the working rows.

        Returns (e_new, w, log_norms). When the affine line passes through
        the set-valued point of the law (within the snap distance r =
        _SNAP_TOL (1 + |a| + |wpar| |beta|) of the origin) and the required
        control is an admissible selection, the error is placed exactly at
        the origin: the discrete analogue of sliding. The control is then
        wpar, which brings a + w beta closest to it. A row the solve
        leaves within r of the origin is placed there too when |wpar| is
        within the law's bound on that ball. A step skips both tests when
        each row has |a|^2 above ``reach2``, too far to be placed there, or
        rests: a row of an undisturbed axis whose log norm was -inf has
        a = +0.0, which the test would place there again (wpar = -0.0).
        """
        M, wk = alpha.shape[0], self.work
        older, self.older = self.older, (s_warm, self.older[0])
        asq = rowsum(np.multiply(alpha, alpha, out=wk.sq))
        far = np.greater(asq, self.reach2, out=wk.far)
        far &= np.isfinite(asq, out=wk.hit)
        snap, wpar, clear = None, -0.0, np.count_nonzero(far)
        if clear < M and self.calm is not None:  # the rows at rest
            snap = np.logical_and(np.equal(s_warm, _NEG_INF, out=wk.rest), self.calm, out=wk.rest)
            clear += np.count_nonzero(snap)
        if clear < M:
            self.origin_tests += 1
            wpar = grouped_matmul(alpha, self.beta) / -self.btb
            resid = alpha + outer(wpar, self.beta)
            rn = np.sqrt(rowsum(resid * resid))
            r = _SNAP_TOL * (1.0 + np.sqrt(asq) + np.abs(wpar) * self.root_btb)
            snap = (rn <= r) & (np.abs(wpar) <= self.snap_bound)
        if snap is not None and np.count_nonzero(snap) == M:
            return np.zeros_like(alpha), np.full(M, wpar), np.full(M, -np.inf)
        # far is the pending set of a step that skips the tests
        w, logr, e_new = self._newton(alpha, w_prev, s_warm, older, far if clear == M else ~snap)
        if clear < M:
            # an error the solve leaves within r of the origin is below the
            # resolution of a + w beta, which cancels there: rounding noise
            near = ~snap & (rowsum(e_new * e_new) <= r * r)
            if np.count_nonzero(near):
                c, root_lmax, ex = self.ball[near].T
                near[near] = np.abs(wpar[near]) <= c * np.minimum(root_lmax * r[near], 1.0) ** ex
                snap |= near
        if snap is not None and np.count_nonzero(snap):
            w = np.where(snap, wpar, w)
            logr = np.where(snap, -np.inf, logr)
            e_new = np.where(snap[:, None], 0.0, e_new)
        if np.count_nonzero(np.isfinite(w, out=wk.hit)) < M:
            raise NonConvergentStep("control root solve produced non-finite values")
        return e_new, w, logr

    def _newton(self, a, w_prev, s_prev, older, pending):
        """Newton on the log norm alone for the ``pending`` curved rows,
        F(s) = 0 with the closed-form control w(s) (``_log_norm_residual``),
        from the quadratic through s_prev and the two ``older`` log norms
        (s_prev where one is unknown or at the origin; a row leaving the
        origin starts at log ||a + w_prev beta||_P). A row freezes once
        |F| <= 1e-13, or right after a step |ds| <= _NEWTON_STEP, where
        the next pass would only confirm it: it then takes w(s) at its
        new s. Later passes never rewrite a frozen row. Rows that cannot
        make a resolved descending step (dF >= 0, 1 + c K b <= 0, a value
        not finite, |w dF/dw| > _NEWTON_COND) or are open after
        _NEWTON_PASSES passes go to ``_log_norm_roots`` from this
        Newton's start, all in one call. ``pending`` is updated in place;
        the residual's values, the masks and the steps live in the
        block's ``work``. Runs under ``_integrate``'s errstate, where
        overflow, invalid values and division by zero make non-finite
        values silently. Returns new arrays (w, log_norms, e_new).
        """
        beta, wk = self.beta, self.work
        # start from the quadratic through the last three nodes where all
        # of them are known and off the origin
        s1, s2 = older
        s = 3.0 * (s_prev - s1) + s2
        finite = np.isfinite(s)
        if np.count_nonzero(finite) < len(s):
            s = np.where(finite, s, s_prev)
            cold = pending & ~np.isfinite(s)
            if np.count_nonzero(cold):  # rows leaving the origin
                X = a + outer(w_prev, beta)
                pn2 = rowsum(grouped_matmul(X, self.P, len(self.P)) * X)
                s = np.where(cold, 0.5 * np.log(pn2), s)
        s_start = s.copy()  # s is updated in place
        rough = None  # rows for the log-norm solve, once there are any
        step, stopped, hit, x, ds = wk.step, wk.stopped, wk.hit, wk.x, wk.ds
        self.newton_calls += 1
        for p in range(_NEWTON_PASSES):
            self.newton_passes += 1
            wp, F, dF, nden, J21 = _log_norm_residual(self, a, s)
            if p:  # the rows that stepped take w at their new s
                np.copyto(w, wp, where=step)
            else:
                w = wp.copy()
            np.copyto(pending, False, where=np.less_equal(np.abs(F, out=x), _F_TOL, out=hit))
            stops = 0  # rows stopped by their last step, without w(s)
            open_rows = np.count_nonzero(pending)
            if not open_rows:
                break
            if p == _NEWTON_PASSES - 1:  # the open rows go to the log-norm solve
                rough = pending if rough is None else rough | pending
                break
            np.divide(F, dF, out=ds)
            np.less(np.maximum(dF, nden, out=x), _ZERO, out=step)
            step &= pending
            step &= np.greater(dF, _NEG_INF, out=hit)
            step &= np.less_equal(np.abs(np.multiply(J21, wp, out=x), out=x), _NEWTON_COND, out=hit)
            steps = np.count_nonzero(step)
            if steps < open_rows:
                lost = pending & ~step
                rough = lost if rough is None else rough | lost
            np.subtract(s, ds, out=s, where=step)
            np.less_equal(np.abs(ds, out=x), _NEWTON_STEP, out=stopped)
            stopped &= step
            np.logical_xor(step, stopped, out=pending)
            stops = int(np.count_nonzero(stopped))
            self.newton_step_stops += stops
            if stops == steps:
                break
        if stops:
            np.copyto(w, _log_norm_residual(self, a, s, True), where=stopped)
        if rough is not None:
            rows = np.nonzero(rough)[0]
            w[rows], s[rows], passes = _log_norm_roots(self, a, s, s_start, rows)
            self.fallback_rows += rows.size
            self.fallback_passes += passes
        return w, s, a + outer(w, beta)


class _Work:
    """The arrays that ``_log_norm_residual`` and ``_Block._newton`` write
    for the block's m working rows, made with them. A product's operand
    ``*_g`` is (groups, rows, .), one-row groups padded to two (kept zero)
    as ``grouped_matmul`` pads them, and elementwise ops write its (m, .)
    view. The exponentials are held by rows, (n + 1, m), and ops pair them
    with transposed (m, n) views (``*_t``), so that numpy's inner loop
    runs along the m rows.
    """

    def __init__(self, block):
        m, n = len(block.curved) * block.group_rows, block.n

        def stacked(cols, groups=len(block.curved)):
            rows = m // groups
            out = np.zeros((groups, 2 if rows == 1 else rows) + cols)
            return out, out[:, :rows].reshape((m,) + cols)

        # exp(s [-rk | opm]), d(-s) 1 and c: contiguous, so exp takes its new-array loop
        self.xc = np.empty((n + 1, m))
        self.ex, self.c = self.xc[:n], self.xc[n]
        self.kin_g, kin = stacked((2 * n,))  # [d(-s) a, d(-s) 1]
        self.aex_t, self.kex_t = kin[:, :n].T, kin[:, n:].T
        self.k_g, k = stacked((2,))  # K d(-s) a, K d(-s) beta
        self.y_g, self.y = stacked((n,))  # y, then P y . y
        self.prod_g, prod = stacked((n + 1,))  # P y, K G y
        self.q_g, q = stacked((2,))  # y'Py, y'P G y
        self.pye_g, pye = stacked((n,), 1)  # P y . d(-s), against beta
        self.j21_g, self.j21 = stacked((), 1)
        self.ka, self.kb, self.q2, self.qg = k[:, 0], k[:, 1], q[:, 0], q[:, 1]
        self.py, self.kgy = prod[:, :n], prod[:, n]
        self.y_t, self.py_t, self.pye_t = self.y.T, self.py.T, pye.T
        self.w, self.nden, self.F, self.dF, self.j12, self.t, self.x, self.ds = np.empty((8, m))
        self.step, self.stopped, self.hit, self.far, self.rest = np.empty((5, m), dtype=bool)
        self.sq = np.empty((m, n))
        self.beta_col = block.beta[:, None]


def _log_norm_residual(block, a, s, control_only=False):
    """F(s) = log ||y||_P, y = d(-s)(a + w(s) beta), on the block's curved
    rows a, with the closed-form control w(s) = -c K d(-s) a / (1 + c K
    d(-s) beta), c = exp(opm s), which solves w = -c K y at the fixed log
    norm s; and dF = J22 - J21 J12 / J11, the Schur complement of the
    Jacobian of (w + c K y, F) in (w, s) (G = diag(rk), q2 = y'Py):

        J11 = 1 + c K d(-s) beta      J12 = c (opm K y - K G y)
        J21 = (Py . d(-s) beta) / q2  J22 = -(Py . G y) / q2

    Every value is written into the block's ``work``, and the arrays
    returned are its buffers: w alone when ``control_only``, else
    (w, F, dF, nden, J21) with nden = -J11.
    """
    beta, wk = block.beta, block.work
    ex, c, w, nden = wk.ex, wk.c, wk.w, wk.nden
    np.exp(np.multiply(s, block.neg_rko, out=wk.xc), out=wk.xc)
    np.multiply(a.T, ex, out=wk.aex_t)
    wk.kex_t[...] = ex
    np.matmul(wk.kin_g, block.jw, out=wk.k_g)
    np.subtract(_MINUS_ONE, np.multiply(c, wk.kb, out=nden), out=nden)
    np.multiply(c, wk.ka, out=w)
    w /= nden
    if control_only:
        return w
    Y, J21, J12, dF, F, t = wk.y, wk.j21, wk.j12, wk.dF, wk.F, wk.t
    np.add(np.multiply(w, wk.beta_col, out=wk.y_t, order="C").T, a, out=Y)  # w beta + a
    np.multiply(wk.y_t, ex, out=wk.y_t)
    np.matmul(wk.y_g, block.jy, out=wk.prod_g)
    Y *= wk.py
    np.matmul(wk.y_g, block.jq, out=wk.q_g)
    np.multiply(wk.py_t, ex, out=wk.pye_t)
    np.matmul(wk.pye_g, beta, out=wk.j21_g)
    J21 /= wk.q2
    np.multiply(block.neg_opm, w, out=J12)
    J12 -= np.multiply(c, wk.kgy, out=t)  # c K y = -w at w(s)
    np.multiply(J21, J12, out=dF)
    dF /= nden
    dF -= np.divide(wk.qg, wk.q2, out=t)
    np.log(wk.q2, out=F)
    F *= _HALF
    return w, F, dF, nden, J21


def _log_norm_roots(block, a, s, s0, rows):
    """F(s) = 0 (``_log_norm_residual``) on the curved ``rows``, of any
    axes, that ``_Block._newton`` left open, from s0 (0 where not finite)
    by ``homogeneity._bracketed_roots``: no Newton step where
    1 + c K b <= 0, and where a + w beta cancels, F may stay near 1e-5
    until the controls at the bracket's ends agree. A pass evaluates
    every working row into the block's ``work``, the open rows at their
    new s and the others at s, and reads the open rows: a row's values do
    not depend on the rows beside it. Returns, on ``rows``, w at the
    final s, the log norms of a + w beta and the passes made. Raises
    NonConvergentStep when a row is open after _ROOT_PASSES passes."""
    s_last = s.copy()
    s_last[rows] = np.where(np.isfinite(s0[rows]), s0[rows], 0.0)

    def residual(open_rows, s_open):
        r = rows[open_rows]
        s_last[r] = s_open
        w, F, dF, nden, _ = _log_norm_residual(block, a, s_last)
        return F[r], np.where(nden[r] < 0.0, dF[r], np.nan), w[r]

    s_rows, passes, open_rows = _bracketed_roots(residual, s_last[rows], _ROOT_PASSES)
    if open_rows.size:
        raise NonConvergentStep("the implicit step's log-norm solve did not settle")
    s_last[rows] = s_rows
    w = _log_norm_residual(block, a, s_last, True)[rows]
    # the errors' own log norms: where a + w beta cancels, F is not small
    P = block.P[rows // block.group_rows]  # one per row
    s_rows, _ = _log_norms(a[rows] + outer(w, block.beta), P, block.rk[rows], s_rows)
    return w, s_rows, passes


# ---------------------------------------------------------------------------
# the integration loop and its chunked recorders


class _Draws:
    """Matched disturbances for every disturbed axis, drawn per run
    generator in chunks of steps, and the errors' forcing ``dqb`` = dq
    beta they make, one per step of the chunk, written in place.
    Undisturbed rows read +0.0 (beta >= 0), which is still added: that
    turns a -0.0 into +0.0 as a drawn zero does. A chunk draw continues
    the generator's stream exactly as one draw per step would."""

    def __init__(self, cfg: ScenarioConfig, block: _Block, scales):
        B = block.B
        scales = np.ones(B) if scales is None else np.asarray(scales, float)
        if scales.shape != (B,) or not np.all(np.isfinite(scales) & (scales >= 0.0)):
            raise ValueError("disturbance_scales must hold one finite, nonnegative scale per run")
        # seedless axes i < j share streams (cfg.seed + 7919 i + b) once B > 7919 (j - i)
        seedless = sorted(g.index for g in block.axes if g.spec.disturbance and g.spec.disturbance.seed is None)
        if any(B > 7919 * (j - i) for i, j in zip(seedless, seedless[1:])):
            raise ValueError(f"{B} runs would share disturbance streams across axes: give each a seed")
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
        shape = (_DRAW_CHUNK, block.M, block.n)  # undisturbed: one zero block
        self.dqb = np.zeros(shape) if self.axes else np.broadcast_to(np.zeros(shape[1:]), shape)

    def take(self, count):
        """Writes the forcing of the next ``count`` steps into ``dqb``
        and returns the raw draws (count, B, N+1) of each disturbed axis."""
        block = self.block
        qhat = {}
        for g, rngs, per_run in self.axes:
            q = np.stack(
                [
                    rng.uniform(-1.0, 1.0, (count, block.N + 1)) * amp + off
                    for rng, (amp, off) in zip(rngs, per_run)
                ],
                axis=1,
            )
            dq = (q[:, :, 1:] - q[:, :, 0:1]).reshape(count, -1, 1)
            np.multiply(dq, block.beta, out=self.dqb[:count, g.rows])
            qhat[g] = q
        return qhat


class _ChunkRecord:
    """One draw chunk of raw nodes. ``record`` buffers each node's
    errors, curved-row log norms and, where ``u`` is a buffer (a
    recording's), controls; once the chunk ends, ``reduce`` has
    ``derive`` turn them into the run's outputs from ``series``. Once the
    block has settled, ``settle`` fills in the rest of the horizon, whose
    every node repeats the settled one.
    """

    def __init__(self, block: _Block, T: int, controls: bool):
        nodes = _DRAW_CHUNK + 1
        self.block, self.T = block, T
        self.E = np.empty((nodes,) + block.E0.shape)
        self.s = np.empty((nodes, block.m_curved))
        self.u = np.empty((nodes, block.M)) if controls else None
        self.start = self.stop = 0  # buffered nodes start..stop-1

    def record(self, k, E, u, s):
        i = k - self.start
        self.E[i] = E
        self.s[i] = s
        if self.u is not None:
            self.u[i] = u
        self.stop = k + 1

    def draws(self, k, qhat):
        pass

    def series(self, count):
        """For each axis, in ``cfg.axes`` order, (axis, errors, norms,
        barrier or None) of the first ``count`` buffered nodes; the
        errors are a view of the buffer."""
        E, s_all = self.E[:count], self.s[:count]
        for g in self.block.in_order:
            errors = E[:, g.rows]
            s = g.log_norms(errors, s_all)
            barrier = g.barrier(errors, s) if g.spec.cone is not None else None
            yield g, errors, g.hnorm(errors, s), barrier

    def reduce(self):
        count = self.stop - self.start
        self.derive(slice(self.start, self.stop), count)
        if self.block.settled_node is not None:
            self.settle(count)
        self.start = self.stop


class _TrajectoryRecord(_ChunkRecord):
    """Every node of a single run, for ``simulate``: the axes'
    ``AxisTrajectory`` arrays, into which the draws go directly.

    The leaders run open loop, and only the recorded states read them:
    ``derive`` steps them node by node from the recorded draws, L_{k+1} =
    (L_k + dt q0_k b) R', every axis's (1, n) leader stacked, and raises
    NonConvergentStep when one is not finite; it does so over the
    settled tail too, where the followers' errors are broadcast. The
    final node's control is the law there.

    With a ``_CsvWriter``, started here, each chunk sends it its complete
    nodes: a node's disturbance is drawn with the chunk that starts at
    it, so a chunk's last node waits for the next one. A run of more than
    one draw chunk forks the writer where ``os.fork`` exists, and its
    arrays live in anonymous shared mappings. Otherwise they are private:
    a MAP_SHARED array is not copy-on-write, so a process forked later
    that wrote to it would change the caller's trajectory.
    """

    def __init__(self, block: _Block, T: int, writer: _CsvWriter | None = None):
        super().__init__(block, T, True)
        fork = writer is not None and T > _DRAW_CHUNK and hasattr(os, "fork")

        def alloc(*shape):  # zeroed: the final node and undisturbed axes draw nothing
            if not fork:
                return np.zeros(shape)
            return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), float).reshape(shape)

        N, n = block.N, block.n
        self.axes = {g: AxisTrajectory(
            g.spec.name, states=alloc(T + 1, N + 1, n), errors=alloc(T + 1, N, n),
            controls=alloc(T + 1, N), hnorm=alloc(T + 1, N), disturbance=alloc(T + 1, N + 1),
            barrier=alloc(T + 1, N, n) if g.spec.cone is not None else None,
        ) for g in block.in_order}
        self.writer = writer
        # the leaders at the last derived node, (A, 1, n); simulate starts from the axes' initial states
        self.L = np.stack([g.spec.initial[:1] for g in self.axes])
        if writer is not None:
            # an axis without a disturbance records q = +0.0 throughout
            writer.start(_CsvLayout(tuple(self.axes.values()),
                                    [g.spec.disturbance is not None for g in block.in_order]), fork)

    def draws(self, k, qhat):
        for g, q in qhat.items():
            self.axes[g].disturbance[k:k + q.shape[0]] = q[:, 0]

    def settle(self, count):
        """Moves the settled node, the ``count``-th buffered one, to the
        buffer's first row and derives each later chunk from it alone
        (``count`` 1), broadcast over the chunk's nodes."""
        for x in (self.E, self.s, self.u):
            x[0] = x[count - 1]
        while self.stop <= self.T:
            self.start, self.stop = self.stop, min(self.stop + len(self.E), self.T + 1)
            self.derive(slice(self.start, self.stop), 1)

    def derive(self, ks, count):
        block, final = self.block, ks.stop == self.T + 1
        k1 = ks.start or 1  # the first node a step reaches
        q0 = np.stack([ax.disturbance[k1 - 1:ks.stop - 1, :1] for ax in self.axes.values()], axis=1)
        lq = q0[..., None] * block.b
        lq *= block.dt
        leads = np.empty((ks.stop - ks.start,) + self.L.shape)
        leads[0] = self.L  # node 0, else overwritten by the step that reaches it
        for i, lq_k in enumerate(lq, k1 - ks.start):
            leads[i] = self.L = (self.L + lq_k) @ block.R.T
        if not np.isfinite(self.L).all():
            raise NonConvergentStep("integration produced non-finite states")
        if final:
            u_final, _ = block.eval(self.E[count - 1], self.s[count - 1])
        for a, (g, errors, hnorm, barrier) in enumerate(self.series(count)):
            ax, lead = self.axes[g], leads[:, a]
            ax.states[ks] = np.concatenate([lead, lead + errors], axis=1)
            ax.errors[ks] = errors
            ax.controls[ks] = self.u[:count, g.rows]
            if final:
                ax.controls[-1] = u_final[g.rows]
            ax.hnorm[ks] = hnorm
            if barrier is not None:
                ax.barrier[ks] = barrier
        if self.writer is not None:
            self.writer.send(max(ks.start - 1, 0), ks.stop if final else ks.stop - 1)
            if final:
                self.writer.finish()


class _BatchRecord(_ChunkRecord):
    """Per-run reductions of every axis, for ``simulate_batch``, keyed by
    axis name, of what ``series`` derives; the squared errors of the axes
    are summed in ``cfg.axes`` order. They read errors only, so the
    leaders are never stepped. The series start zeroed, and the kernel
    maps their pages on first write, so a settled tail of +0.0 costs no
    memory.
    """

    def __init__(self, block: _Block, T: int):
        super().__init__(block, T, False)
        B, N = block.B, block.N
        axes = [g.spec for g in block.in_order]
        self.efirst_max = {ax.name: np.zeros((T + 1, B)) for ax in axes}
        self.hnorm = {ax.name: np.zeros((T + 1, B, N)) for ax in axes}
        self.phimin = {ax.name: np.zeros((T + 1, B)) if ax.cone is not None else None for ax in axes}
        self.errsq = np.zeros((T + 1, B))  # 0.0 + x is x, for every x >= 0, inf and nan

    def derive(self, ks, count):
        B, N, n = self.block.B, self.block.N, self.block.n
        for g, errors, hnorm, barrier in self.series(count):
            name, E_ = g.spec.name, errors.reshape(count, B, N, n)
            self.hnorm[name][ks] = hnorm.reshape(count, B, N)
            self.efirst_max[name][ks] = rowsum(E_[:, :, :, 0], np.maximum)
            self.errsq[ks] += np.einsum("tbij,tbij->tb", E_, E_)
            if barrier is not None:
                self.phimin[name][ks] = rowsum(barrier.reshape(count, B, N * n), np.minimum)

    def settle(self, count):
        """Copies each series' value at the settled node, which its chunk
        derived, over the rest of the horizon, unless every bit of it is
        0: a -0.0 is written too."""
        k = self.block.settled_node
        for x in (self.errsq, *self.efirst_max.values(), *self.hnorm.values(), *self.phimin.values()):
            if x is not None and x[k].view(np.uint64).any():
                x[k + 1:] = x[k]


def _integrate(cfg: ScenarioConfig, inits, recorder, dist_scales=None):
    """Advance the follower errors of every axis of every run as one row
    block; the leaders do not enter the errors' steps.

    ``inits`` lists each axis's (B, N+1, n) initial states in
    ``cfg.axes`` order; ``recorder(block, T)`` receives every node
    integrated, and its ``reduce`` is called at the end of each draw
    chunk, whose forcing ``_Draws`` forms at its start. Before that,
    ``block.retire`` takes the rows at rest out of the working set; once
    it finds the block settled, every later node repeats the chunk's last
    one (``block.settled_node``): the integration ends there, and the
    recorder's ``reduce`` fills in the rest of the horizon. Raises
    NonConvergentStep when an error is not finite at a chunk's end.
    Returns the recorder, whose ``block`` is the row block.
    """
    block = _Block(cfg, [np.asarray(x, dtype=float) for x in inits])
    T = cfg.steps
    rec = recorder(block, T)
    draws = _Draws(cfg, block, dist_scales)

    E = block.E0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w, s = block.eval(E, None)  # node 0: nodal law value
        rec.record(0, E, w, s)
        for k0 in range(0, T, _DRAW_CHUNK):
            count = min(_DRAW_CHUNK, T - k0)
            if draws.axes:
                rec.draws(k0, draws.take(count))
            for j in range(count):
                E, w, s = block.step_implicit(E, draws.dqb[j], w, s)
                rec.record(k0 + j + 1, E, w, s)
            if not np.isfinite(E).all():
                raise NonConvergentStep("integration produced non-finite states")
            block.settled_node = k0 + count if block.retire(s) else None
            rec.reduce()
            if block.settled_node is not None:
                break
    return rec


@dataclass(frozen=True, eq=False)
class BatchResult:
    """Per-run reductions from one batched sweep (time-major arrays).
    Past a settled node every array repeats that node bit for bit; a
    value of +0.0 there was never written, so those pages take no memory
    until the caller writes them."""

    times: np.ndarray
    axis_names: tuple
    efirst_max: dict      # name -> (T+1, B)
    hnorm: dict           # name -> (T+1, B, N)
    phimin: dict          # name -> (T+1, B) or None
    errsq_total: np.ndarray  # (T+1, B) summed over axes


def simulate(cfg: ScenarioConfig, csv=None) -> Trajectory:
    """Integrate one scenario, recording every node, and with ``csv``
    write the trajectory CSV there (``write_trajectory_csv``).

    The file is opened before the first step. A run of more than one
    draw chunk of steps has its CSV formatted by a forked writer process
    while it integrates, where ``os.fork`` exists; once the integration
    ends, this process formats about half of the nodes the writer has
    not been sent. The writer is reaped before ``simulate`` returns or
    raises, and its failure raises OSError. Other runs format each chunk
    here. Any failure, in the integration or in the write, leaves the
    file at ``csv`` empty. Deterministic: the same configuration and
    seed produce identical arrays and byte-identical CSV files.
    """
    times = np.arange(cfg.steps + 1) * cfg.dt
    inits = [ax.initial[None] for ax in cfg.axes]
    with contextlib.nullcontext() if csv is None else _CsvWriter(csv, times) as writer:
        rec = _integrate(cfg, inits, functools.partial(_TrajectoryRecord, writer=writer))
    return Trajectory(times=times, axes=tuple(rec.axes.values()))


def simulate_batch(
    cfg: ScenarioConfig, initial_batches: dict, disturbance_scales=None
) -> BatchResult:
    """Integrate many runs of one scenario that differ only in their
    initial states; ``initial_batches`` maps each axis name, and no
    other key, to (B, N+1, n), one B >= 1 for every axis, with finite
    initial errors (else ValueError before any step, which names the
    unknown and missing axes).

    Run b's reductions equal, bit for bit, those of ``simulate`` with
    that run's initial states; disturbed runs use per-run generators
    seeded base + run index, so there ``simulate`` takes the shifted
    seed. ``disturbance_scales`` (B finite, nonnegative values, else
    ValueError before any step) multiplies every disturbance amplitude
    and offset per run, for amplitude sweeps. The leaders are never
    advanced, since no reduction reads them: a run whose leader state
    overflows while its errors stay finite returns finite reductions,
    where ``simulate`` raises NonConvergentStep. Two disturbed axes
    without a seed at i < j in ``cfg.axes`` would share draws once
    B > 7919 (j - i): ValueError before any step. Once every run has
    settled undisturbed, the integration ends, and each reduction's
    value at the settled node is copied over the rest of the horizon
    unless it is +0.0, which the zeroed arrays already hold. The axes'
    names key the reductions, so they must differ (else ValueError
    before any step).
    """
    names = tuple(ax.name for ax in cfg.axes)
    if len(set(names)) != len(names):
        raise ValueError("simulate_batch needs distinct axis names")
    unknown = [k for k in initial_batches if k not in names]
    missing = [k for k in names if k not in initial_batches]
    if unknown or missing:
        raise ValueError(f"initial_batches must key every axis: unknown {unknown}, missing {missing}")
    times = np.arange(cfg.steps + 1) * cfg.dt
    rec = _integrate(cfg, [initial_batches[k] for k in names], _BatchRecord, disturbance_scales)
    return BatchResult(times, names, rec.efirst_max, rec.hnorm, rec.phimin, rec.errsq)


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


# nodes per slice of lyapunov_violation
_LYAPUNOV_SLICE = 2048


def lyapunov_violation(hnorm: np.ndarray, floor: float = 1e-6) -> float:
    """Largest increase of a per-follower norm series between adjacent
    nodes, counted only while the norm sits above ``floor``; a value at
    or below zero means the series never increases there."""
    h = np.asarray(hnorm, dtype=float)
    worst, counted = -np.inf, False
    # slices of nodes keep the temporaries small on long batch series
    for k in range(0, h.shape[0] - 1, _LYAPUNOV_SLICE):
        part = h[k:k + _LYAPUNOV_SLICE + 1]
        mask = part[:-1] > floor
        counted = counted or bool(mask.any())
        # np.maximum keeps a nan increase, as one max over all nodes would
        worst = np.maximum(worst, np.max(part[1:] - part[:-1], where=mask, initial=-np.inf))
    return float(worst) if counted else 0.0


# ---------------------------------------------------------------------------
# CSV export


_F = "%.17g"


class _CsvLayout:
    """The trajectory CSV of a run's axes: its header, and one template
    per time node, every (axis, agent) row of it, that ``text`` fills
    for any range of nodes. Only values that vary are formatted: t once
    per node, and the leader's zeros, the nan barriers and the q of an
    axis whose ``varies`` is false are written as text."""

    def __init__(self, axes, varies):
        n = axes[0].states.shape[2]
        cols = (
            ["t", "agent", "axis"]
            + [f"x{i + 1}" for i in range(n)]
            + ["u"]
            + [f"e{i + 1}" for i in range(n)]
            + ["hnorm"]
            + [f"phi{i + 1}" for i in range(n)]
            + ["q"]
        )
        self.header = ",".join(cols) + "\n"
        fields = ",".join([_F] * n)
        zeros, nans = ",".join(["0"] * n), ",".join(["nan"] * n)
        # the place of each row's t among the node's values
        template, slots, width = [], [], 0
        for ax, qv in zip(axes, varies):
            name, N = ax.name.replace("%", "%%"), ax.errors.shape[1]
            q = _F if qv else "0"
            phi = fields if ax.barrier is not None else nans
            template.append(f"%s,0,{name},{fields},0,{zeros},0,{nans},{q}\n")
            template += [f"%s,{i},{name},{fields},{_F},{fields},{_F},{phi},{q}\n" for i in range(1, N + 1)]
            lead = 1 + n + qv
            row = 2 * n + 3 + (n if ax.barrier is not None else 0) + qv
            slots += [width] + [width + lead + i * row for i in range(N)]
            width += lead + N * row
        self.template, self.slots = "".join(template), slots
        self.axes, self.varies = axes, varies

    def text(self, times, ks) -> str:
        """The rows of the time nodes ``ks`` (a slice)."""
        nodes = np.concatenate([_csv_values(ax, qv, ks) for ax, qv in zip(self.axes, self.varies)], axis=1)
        nodes = nodes.astype(object)
        nodes[:, self.slots] = np.array([_F % t for t in times[ks].tolist()], dtype=object)[:, None]
        return "".join([self.template % tuple(v) for v in nodes.tolist()])


def _csv_values(ax, qv, ks):
    """The numbers of one axis's rows at the time nodes ``ks`` in
    template order, one line per node, with 0 in the t slots."""
    states, E = ax.states[ks], ax.errors[ks]
    lead = [np.zeros((len(E), 1)), states[:, 0]]
    rows = [np.zeros(E.shape[:2] + (1,)), states[:, 1:], ax.controls[ks][:, :, None], E,
            ax.hnorm[ks][:, :, None]]
    if ax.barrier is not None:
        rows.append(ax.barrier[ks])
    if qv:
        lead.append(ax.disturbance[ks][:, :1])
        rows.append(ax.disturbance[ks][:, 1:, None])
    return np.concatenate(lead + [np.concatenate(rows, axis=2).reshape(len(E), -1)], axis=1)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per (time, agent, axis); floats at 17 significant digits.

    Columns: t, agent, axis, x1..xn, u, e1..en, hnorm, phi1..phin, q.
    Leader rows carry zero errors and norms; phi columns are nan when no
    cone was recorded for the axis. The q of an axis whose disturbance
    is +0.0 throughout is written as text, like every other constant
    field. A write that fails leaves the file empty, not holding a
    partial CSV.
    """
    with _CsvWriter(path, traj.times) as writer:
        # a -0.0 draw is still formatted
        writer.start(_CsvLayout(traj.axes, [bool(ax.disturbance.view(np.uint64).any())
                                            for ax in traj.axes]), fork=False)
        writer.send(0, len(traj.times))
        writer.finish()


def _empty(fd: int) -> None:
    """Truncate the file behind ``fd`` unless it holds no data: ext4 flushes
    a file truncated even from empty on close; a device or pipe has no size."""
    if os.fstat(fd).st_size:
        os.ftruncate(fd, 0)


def _current_cpu():
    """The CPU this process runs on, where Linux's /proc tells it and
    CPU affinity can be set; None elsewhere."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        with open("/proc/self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


class _CsvWriter:
    """The writer of a trajectory CSV, in this process or a forked one.

    The file is opened here and written from its start, but truncated
    only when it holds data (``_empty``): the CLI hands over empty
    temporary files. ``start`` writes the header, or with ``fork`` forks
    a writer process that does; ``send`` appends the rows of a range of
    nodes, or queues the range for the writer, whose loop sends each
    range it reads and then writes one byte to the parent, which keeps
    two ranges in its pipe. ``finish`` completes the file: the parent
    keeps the queued part of the last half of the nodes the writer has
    not appended, if that is at least 64, formats it into an anonymous
    spill file and appends it once it has reaped the writer; it raises
    OSError with a forked writer's error. ``close`` kills and reaps a
    writer that was not finished and closes what is still open; unless
    ``finish`` succeeded, it then empties the file, so that a failed run
    or write leaves no partial CSV behind.
    """

    def __init__(self, path, times):
        self.times = times
        self.pid = self.fh = None
        self.finished = False
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            _empty(fd)
        except BaseException:
            os.close(fd)
            raise
        self.fds = {"file": fd}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def start(self, layout: _CsvLayout, fork: bool) -> None:
        self.layout = layout
        if not fork:
            self.fh = open(self.fds["file"], "w", newline="\n", closefd=False)
            self.fh.write(layout.header)
            return
        fds = self.fds
        fds["ranges_in"], fds["ranges"] = os.pipe()
        fds["acks"], fds["acks_out"] = os.pipe()
        fds["errors"], fds["errors_out"] = os.pipe()
        cpu = _current_cpu()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                # woken by the parent's pipe writes, the writer can be
                # queued on the parent's CPU, and then stays there and
                # halves the integration's speed: it keeps off that CPU
                others = os.sched_getaffinity(0) - {cpu} if cpu is not None else None
                if others:
                    os.sched_setaffinity(0, others)
                os.close(fds["ranges"])
                self.start(layout, fork=False)
                with open(fds["ranges_in"], "rb") as ranges:
                    while msg := ranges.read(16):
                        self.send(*struct.unpack("2q", msg))
                        os.write(fds["acks_out"], b"\0")
                self.finish()
                status = 0
            except BaseException as exc:
                # reported to the parent: the writer never returns into
                # the caller's code
                try:
                    os.write(fds["errors_out"], str(exc).encode()[:4096])
                except BaseException:
                    pass
            finally:
                os._exit(status)
        for name in ("ranges_in", "acks_out", "errors_out"):
            os.close(fds.pop(name))
        os.set_blocking(fds["acks"], False)
        self.queued, self.sent = collections.deque(), []

    def send(self, k0: int, k1: int) -> None:
        """Append the rows of the nodes k0..k1-1."""
        if self.fh is not None:
            for k in range(k0, k1, 512):
                self.fh.write(self.layout.text(self.times, slice(k, min(k + 512, k1))))
            return
        self.queued.append((k0, k1))
        try:
            self._pump()
        except BrokenPipeError:
            self.finish()  # the writer ended early: raises its error
            raise

    def _pump(self) -> None:
        """Forget the ranges the writer has appended, and send it queued
        ones until two are in its pipe."""
        with contextlib.suppress(BlockingIOError):
            del self.sent[:len(os.read(self.fds["acks"], 64))]
        while self.queued and len(self.sent) < 2:
            self.sent.append(self.queued.popleft())
            os.write(self.fds["ranges"], struct.pack("2q", *self.sent[-1]))

    def _hand_over(self):
        """Send the writer the queued nodes but the parent's share, and end
        its input; return the share's spill (None without a share), first
        and end node."""
        spill, split, k1 = None, 0, 0
        with contextlib.suppress(BrokenPipeError):  # the writer ended early: finish reports it
            self._pump()
            if self.queued:
                k0, k1 = self.queued[0][0], self.queued[-1][1]
                split = max(k0, k1 - (k1 - (self.sent or self.queued)[0][0]) // 2)
                if k1 - split >= 64:
                    with contextlib.suppress(OSError):  # else the writer formats it
                        spill = tempfile.TemporaryFile("w+", newline="\n")
                split = k1 if spill is None else split
                os.write(self.fds["ranges"], struct.pack("2q", k0, split))
        os.close(self.fds.pop("ranges"))
        return spill, split, k1

    def finish(self) -> None:
        if self.fh is not None:
            fh, self.fh = self.fh, None
            fh.close()
        else:
            spill, k0, k1 = self._hand_over()
            with spill or contextlib.nullcontext():
                for k in range(k0, k1, 64):  # small blocks keep the parent's peak memory low
                    spill.write(self.layout.text(self.times, slice(k, min(k + 64, k1))))
                _, status = os.waitpid(self.pid, 0)
                self.pid = None
                if status:
                    with open(self.fds.pop("errors"), "rb") as fh:
                        error = fh.read().decode(errors="replace")
                    raise OSError(f"trajectory writer failed: {error or os.waitstatus_to_exitcode(status)}")
                if spill:  # the writer has written every node before the share
                    spill.seek(0)
                    with open(self.fds["file"], "wb", closefd=False) as fh:
                        shutil.copyfileobj(spill.buffer, fh)
        self.finished = True

    def close(self) -> None:
        try:
            if self.pid is not None:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
                self.pid = None
            if self.fh is not None:
                # buffered rows land before the truncation, not after it
                fh, self.fh = self.fh, None
                with contextlib.suppress(OSError):
                    fh.close()
            if not self.finished:
                _empty(self.fds["file"])
        finally:
            for fd in self.fds.values():
                os.close(fd)
            self.fds = {}
