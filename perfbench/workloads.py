"""The benchmark's four workloads.

Each workload's ``setup(seed, workdir)`` builds every input from the seed
alone and returns a ``Plan``: the list of ops that make up one cycle. An
op calls homocon's public entry points, checks the program's outputs and
returns the number of integration steps it completed (every batch run
and every axis counted separately). A wrong output raises
``CheckFailed``; any other exception, or a non-zero CLI exit code, is a
failed op too.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import homocon as hc
from homocon import cli

DT = 1e-3
OVERSHOOT_TOL = 1e-6   # acceptance criterion 7
BARRIER_TOL = -1e-6    # criteria 7 and 9: phi_min >= -1e-6
SETTLE_TOL = 1e-3      # settling tolerance of the summaries and criteria 7, 9
LYAPUNOV_TOL = 1e-9    # criterion 8: norm increments while above NORM_FLOOR
NORM_FLOOR = 1e-6

# Published reference values of the packaged preset (reproduce-paper).
PUBLISHED_P = [[0.0020, 0.0005], [0.0005, 0.0012]]
PUBLISHED_X = [[0.8281, -0.3107], [-0.3107, 0.9377]]
PUBLISHED_Y = [0.7502, 0.5000]
PUBLISHED_DIST_X = [0.0, 0.540, 0.444, 0.462]
PUBLISHED_DIST_Y = [0.030, 0.428, 0.533, 0.441]
PRESET_GRAPH = {"num_followers": 3, "edges": [[1, 0, 1.0], [2, 1, 1.0], [3, 2, 1.0]]}
PRESET_INITIAL_X = [[0.0, 0.0], [-2.0, 1.0], [-3.5, 1.0], [-5.0, 1.0]]
PRESET_INITIAL_Y = [[0.0, 1.0], [1.5, 1.0], [-1.0, 1.0], [-2.5, 1.0]]
HOMOGENEOUS_PRESETS = ("homogeneous_nominal", "homogeneous_robust")
PRESETS = HOMOGENEOUS_PRESETS + ("linear_disturbed", "linear_nominal")

# Horizons. The published one is 20 s; see README.md for why the preset
# and cyclic workloads run shorter ones.
PRESET_HORIZON = 6.5     # homogeneous_nominal settles at 5.886 s
SWEEP_NOMINAL_HORIZON = 20.0
SWEEP_RUNS = 100
SWEEP_DISTURBED_HORIZON = 4.5  # the worst-norm run settles near 3.7 s
SWEEP_DISTURBED_RUNS = 30
CYCLIC_HORIZON = 0.1
CYCLIC_FOLLOWERS = (4, 6)
CYCLIC_DRAWS = 3  # config pairs per cycle: the cost per step depends on the draw


class CheckFailed(Exception):
    """The program returned, but its output is wrong."""


class ExitCode(Exception):
    """The CLI returned a non-zero exit code."""

    def __init__(self, code: int):
        super().__init__(f"exit code {code}")
        self.code = code


@dataclass
class Op:
    name: str
    run: Callable[[], int]


@dataclass
class Plan:
    ops: list
    info: dict = field(default_factory=dict)


def _check(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
    return path


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _run_cli(argv) -> None:
    code = cli.main(argv)
    if code != 0:
        raise ExitCode(code)


def _admissible_errors(rng, cone, count, N, scale):
    """``count`` sets of N errors inside the linear cone H e >= 0;
    ``scale(e)`` sets each error's magnitude."""
    Hinv = np.linalg.inv(cone.H)
    out = np.empty((count, N, cone.n))
    for b in range(count):
        for i in range(N):
            e = Hinv @ rng.uniform(0.05, 1.0, size=cone.n)
            out[b, i] = e * scale(e)
    return out


def _settled(errsq_total: np.ndarray) -> np.ndarray:
    """Per run: the stacked error norm is at or below the settling
    tolerance at the last node, so the run settled and stayed there."""
    return np.sqrt(errsq_total[-1]) <= SETTLE_TOL


# ---------------------------------------------------------------------------
# paper_presets


def _preset_config(run: str, seed: int) -> dict:
    cfg = {
        "graph": PRESET_GRAPH,
        "system": {"n": 2, "axes": ["X", "Y"]},
        "initial": {"X": PRESET_INITIAL_X, "Y": PRESET_INITIAL_Y},
        "sim": {"dt": DT, "horizon": PRESET_HORIZON, "integrator": "implicit_euler",
                "seed": seed},
        "output": {"trajectory_csv": f"{run}.csv", "summary": f"{run}.summary.json"},
    }
    linear = {
        "X": {"kind": "linear", "lambda": 1.0},
        "Y": {"kind": "homogeneous_consensus", "mu": 0.0, "X": PUBLISHED_X, "Y": PUBLISHED_Y},
    }
    if run == "homogeneous_nominal":
        cfg["protocol"] = {
            "X": {"kind": "homogeneous_nonovershooting", "mu": -0.2, "lambda": 1.0,
                  "P": PUBLISHED_P},
            "Y": {"kind": "homogeneous_consensus", "mu": -0.2, "X": PUBLISHED_X,
                  "Y": PUBLISHED_Y},
        }
    elif run == "homogeneous_robust":
        cfg["protocol"] = {
            "X": {"kind": "homogeneous_nonovershooting", "mu": -1.0, "lambda": 1.0,
                  "fit_unit_ball": True},
            "Y": {"kind": "homogeneous_consensus", "mu": -1.0},
        }
    else:
        cfg["protocol"] = linear
    if run in ("homogeneous_robust", "linear_disturbed"):
        cfg["disturbance"] = {"X": PUBLISHED_DIST_X, "Y": PUBLISHED_DIST_Y}
    return cfg


def _preset_op(run: str, config: str, workdir: str, info: dict) -> Op:
    passes = itertools.count()

    def op() -> int:
        out = os.path.join(workdir, f"{run}.pass{next(passes)}")
        _run_cli(["simulate", "--config", config, "--output", out])
        files = {f"{run}.csv", f"{run}.summary.json"}
        present = set(os.listdir(out))
        _check(files <= present, f"{run}: missing {sorted(files - present)}")
        summary = _read_json(os.path.join(out, f"{run}.summary.json"))
        if run in HOMOGENEOUS_PRESETS:
            x = summary["X"]
            _check(x["overshoot"] <= OVERSHOOT_TOL, f"{run}: X overshoot {x['overshoot']}")
            _check(x["phi_min"] >= BARRIER_TOL, f"{run}: X phi_min {x['phi_min']}")
            _check(x["settling_time_tol1e-3"] is not None, f"{run}: X never settles")
            # what reproduce-paper adds to these presets' summaries
            scenario = cli.build_scenario(cli.load_config(config))
            ax = scenario.axes[0]
            e0 = ax.initial[1:] - ax.initial[0]
            rep = hc.check_initial_admissible(e0, ax.cone, ax.protocol.norm_ctx)
            _check(rep.admissible_homogeneous, f"{run}: initial errors not admissible")
            if run == "homogeneous_robust":
                ctx = ax.protocol.norm_ctx
                consts = hc.robustness_constants(
                    ctx.P, ctx.gen, ax.cone.H, ax.cone.lam, ax.protocol.gain
                )
                _check(consts.q_bound > 0, f"{run}: q_bound {consts.q_bound}")
        digests = {name: _sha256(os.path.join(out, name)) for name in sorted(files)}
        first = info.setdefault("sha256", {})
        for name, digest in digests.items():
            # every later pass must repeat the first byte for byte
            _check(first.setdefault(name, digest) == digest, f"{name} differs between passes")
        shutil.rmtree(out)
        return 2 * round(PRESET_HORIZON / DT)

    return Op(run, op)


def setup_paper_presets(seed: int, workdir: str) -> Plan:
    plan = Plan([])
    for run in PRESETS:
        config = _write_json(os.path.join(workdir, f"{run}.json"), _preset_config(run, seed))
        plan.ops.append(_preset_op(run, config, workdir, plan.info))
    return plan


# ---------------------------------------------------------------------------
# sweep_nominal: criterion 7 and 8 sweep


def setup_sweep_nominal(seed: int, workdir: str) -> Plan:
    rng = np.random.default_rng(seed)
    graph = hc.DirectedGraph.from_edges(3, PRESET_GRAPH["edges"])
    ctx = hc.HomogeneousNormContext(hc.DilationGenerator(2, -0.2), np.array(PUBLISHED_P))
    cone = hc.ConeSpec(2, 1.0, -0.2)
    errors = _admissible_errors(
        rng, cone, SWEEP_RUNS, 3, lambda e: rng.uniform(0.1, 0.9) / ctx.weighted_norm(e)
    )
    for b in range(SWEEP_RUNS):
        rep = hc.check_initial_admissible(errors[b], cone, ctx)
        _check(rep.admissible_homogeneous, f"sweep run {b}: initial errors not admissible")
    inits = np.zeros((SWEEP_RUNS, 4, 2))
    inits[:, 1:] = errors  # leader at the origin
    axis = hc.AxisSpec("X", hc.nonovershoot_protocol(1.0, ctx), inits[0], cone)
    scenario = hc.ScenarioConfig(graph, 2, (axis,), DT, SWEEP_NOMINAL_HORIZON)

    def op() -> int:
        batch = hc.simulate_batch(scenario, {"X": inits})
        overshoot = float(batch.efirst_max["X"].max())
        phi_min = float(batch.phimin["X"].min())
        _check(overshoot <= OVERSHOOT_TOL, f"overshoot {overshoot}")
        _check(phi_min >= BARRIER_TOL, f"phi_min {phi_min}")
        settled = _settled(batch.errsq_total)
        _check(bool(settled.all()), f"{int((~settled).sum())} runs never settle")
        worst = hc.lyapunov_violation(batch.hnorm["X"], floor=NORM_FLOOR)
        _check(worst <= LYAPUNOV_TOL, f"norm increment {worst}")
        return scenario.steps * SWEEP_RUNS

    return Plan([Op("sweep", op)])


# ---------------------------------------------------------------------------
# sweep_disturbed: mu = -1 robust protocol over a disturbance-scale sweep


def setup_sweep_disturbed(seed: int, workdir: str) -> Plan:
    rng = np.random.default_rng(seed)
    runs = SWEEP_DISTURBED_RUNS
    graph = hc.DirectedGraph.from_edges(3, PRESET_GRAPH["edges"])
    gen = hc.DilationGenerator(2, -1.0)
    chain = hc.IntegratorChain(2)
    K = hc.linear_gain(2, 1.0)
    cert = hc.solve_lmi_p(gen, chain.A, chain.B, K)
    cone = hc.ConeSpec(2, 1.0, -1.0)
    errors = _admissible_errors(rng, cone, runs, 3, lambda e: rng.uniform(0.5, 5.0))
    P = cli.fit_unit_ball(cert.P, errors.reshape(-1, 2))
    ctx = hc.HomogeneousNormContext(gen, P)
    for b in range(runs):
        rep = hc.check_initial_admissible(errors[b], cone, ctx)
        _check(rep.admissible_homogeneous, f"sweep run {b}: initial errors not admissible")
    consts = hc.robustness_constants(P, gen, cone.H, 1.0, K)
    _check(consts.q_bound > 0, f"q_bound {consts.q_bound}")
    amplitudes = consts.q_bound * np.array([0.0, 1.0, 1.0, 1.0])
    scales = rng.permutation(np.arange(1, runs + 1) / runs)  # spread over (0, 1]
    inits = np.zeros((runs, 4, 2))
    inits[:, 1:] = errors
    axis = hc.AxisSpec("X", hc.nonovershoot_protocol(1.0, ctx), inits[0], cone,
                       hc.DisturbanceSpec(amplitudes, seed))
    scenario = hc.ScenarioConfig(graph, 2, (axis,), DT, SWEEP_DISTURBED_HORIZON,
                                 "implicit_euler", seed)

    def op() -> int:
        batch = hc.simulate_batch(scenario, {"X": inits}, disturbance_scales=scales)
        phi_min = batch.phimin["X"].min(axis=0)
        _check(bool((phi_min >= BARRIER_TOL).all()), f"phi_min {phi_min.min()}")
        settled = _settled(batch.errsq_total)
        _check(bool(settled.all()), f"{int((~settled).sum())} runs never settle")
        return scenario.steps * runs

    return Plan([Op("sweep", op)])


# ---------------------------------------------------------------------------
# cyclic_cli: simulate on user configs whose followers form a directed cycle


def cyclic_edges(N: int) -> list:
    """Leader-rooted chain 0 -> 1 -> ... -> N, a back edge N -> 1 at
    weight 0.5, and skip edges at 0.3: leader -> 2 and i + 2 -> i for
    i = 2..N-2. Edges are [receiver, sender, weight]."""
    edges = [[i, i - 1, 1.0] for i in range(1, N + 1)] + [[1, N, 0.5], [2, 0, 0.3]]
    edges += [[i, i + 2, 0.3] for i in range(2, N - 1)]
    return edges


def _cyclic_config(N: int, rng, run: str) -> dict:
    n = 3
    cone = hc.ConeSpec(n, 1.0, -0.5)
    errors = _admissible_errors(rng, cone, 1, N, lambda e: rng.uniform(0.5, 3.0))[0]
    leader_x = rng.uniform(-1.0, 1.0, size=n)
    initial_x = np.vstack([leader_x, leader_x + errors])
    initial_y = rng.uniform(-2.0, 2.0, size=(N + 1, n))
    return {
        "graph": {"num_followers": N, "edges": cyclic_edges(N)},
        "system": {"n": n, "axes": ["X", "Y"]},
        "protocol": {
            "X": {"kind": "homogeneous_nonovershooting", "mu": -0.5, "lambda": 1.0,
                  "fit_unit_ball": True},
            "Y": {"kind": "homogeneous_consensus", "mu": -0.3},
        },
        "initial": {"X": initial_x.tolist(), "Y": initial_y.tolist()},
        "disturbance": {"Y": rng.uniform(0.0, 0.3, size=N + 1).tolist(),
                        "seed": int(rng.integers(2**31))},
        "sim": {"dt": DT, "horizon": CYCLIC_HORIZON, "seed": int(rng.integers(2**31))},
        "output": {"trajectory_csv": f"{run}.csv", "summary": f"{run}.summary.json"},
    }


def setup_cyclic_cli(seed: int, workdir: str) -> Plan:
    rng = np.random.default_rng(seed)
    ops = []
    for draw, N in itertools.product(range(CYCLIC_DRAWS), CYCLIC_FOLLOWERS):
        run = f"cyclic_n{N}_{draw}"
        config = _write_json(os.path.join(workdir, f"{run}.json"), _cyclic_config(N, rng, run))

        def op(run=run, config=config) -> int:
            out = os.path.join(workdir, run)
            _run_cli(["simulate", "--config", config, "--output", out])
            summary_path = os.path.join(out, f"{run}.summary.json")
            _check(os.path.exists(os.path.join(out, f"{run}.csv")), f"{run}: no CSV")
            phi_min = _read_json(summary_path)["X"]["phi_min"]
            _check(phi_min >= BARRIER_TOL, f"{run}: X phi_min {phi_min}")
            shutil.rmtree(out)
            return 2 * round(CYCLIC_HORIZON / DT)

        ops.append(Op(run, op))
    return Plan(ops)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, str], Plan]
    min_cycles: int = 1


# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {
    # the second pass is compared byte for byte with the first
    "paper_presets": Workload(setup_paper_presets, min_cycles=2),
    "sweep_nominal": Workload(setup_sweep_nominal),
    "sweep_disturbed": Workload(setup_sweep_disturbed),
    "cyclic_cli": Workload(setup_cyclic_cli),
}
