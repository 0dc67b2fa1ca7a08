"""Command line front end.

Subcommands: ``gains``, ``verify-lmi``, ``simulate``, ``reproduce-paper``.
Configs are strict JSON (unknown keys rejected); every output file is
written to a temporary path and renamed, and the temporary file is
removed when a write fails, so failed runs leave nothing partial
behind. Exit codes: 0 ok, 2 bad input, 3 infeasible certificate,
4 integration failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .certificates import (
    Infeasible,
    NotSymmetric,
    SingularX,
    robustness_constants,
    solve_lmi_p,
    solve_lmi_xy,
    verify_lmi_p,
    verify_lmi_xy,
)
from .cones import ConeSpec, check_initial_admissible, invariance_monitor
from .graphs import DirectedGraph
from .homogeneity import DilationGenerator, HomogeneousNormContext
from .protocols import (
    IntegratorChain,
    ProtocolKind,
    ProtocolSpec,
    consensus_protocol,
    linear_gain,
    nonovershoot_protocol,
)
from .simulation import (
    AxisSpec,
    DisturbanceSpec,
    NonConvergentStep,
    ScenarioConfig,
    overshoot_metric,
    settling_time,
    simulate,
    write_trajectory_csv,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_INTEGRATION = 4


class ConfigError(Exception):
    pass


def _fail(code: int, msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _atomic_write(path: str, write) -> None:
    """Call ``write(tmp_path)`` and rename the result onto ``path``; on
    any failure the temporary file is removed and the error re-raised."""
    tmp = f"{path}.tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def _atomic_write_text(path: str, text: str) -> None:
    def write(tmp: str) -> None:
        with open(tmp, "w", newline="\n") as fh:
            fh.write(text)

    _atomic_write(path, write)


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _field(section: dict, key: str, where: str, cast):
    """Required config value ``section[key]`` converted by ``cast``."""
    if key not in section:
        raise ConfigError(f"missing {where}.{key}")
    try:
        return cast(section[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {where}.{key}: {exc}") from exc


def _integer(value) -> int:
    """A count or seed: only a JSON integer, since int() would truncate
    2.9 to 2 and let the run go ahead."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _matrix(value, shape, where: str) -> np.ndarray:
    try:
        M = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must be numeric: {exc}") from exc
    if M.shape != shape:
        raise ConfigError(f"{where} must have shape {shape}, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ConfigError(f"{where} must be finite")
    return M


# ---------------------------------------------------------------------------
# config loading


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _check_keys(
        cfg,
        {"graph", "system", "protocol", "initial", "disturbance", "sim", "output"},
        "config",
    )
    for key in ("graph", "system", "protocol", "initial", "sim"):
        if key not in cfg:
            raise ConfigError(f"missing config section '{key}'")
    for key, section in cfg.items():
        if not isinstance(section, dict):
            raise ConfigError(f"config section '{key}' must be an object")
    return cfg


def _build_graph(section: dict) -> DirectedGraph:
    _check_keys(section, {"num_followers", "edges"}, "graph")
    try:
        return DirectedGraph.from_edges(
            _integer(section["num_followers"]), section["edges"]
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad graph section: {exc}") from exc


def _build_protocol(name: str, sec: dict, n: int):
    """Returns (ProtocolSpec, ConeSpec or None, margins dict)."""
    if not isinstance(sec, dict):
        raise ConfigError(f"protocol.{name} must be an object")
    _check_keys(
        sec,
        {"kind", "mu", "lambda", "P", "X", "Y", "K", "fit_unit_ball"},
        f"protocol.{name}",
    )
    kind = sec.get("kind")
    where = f"protocol.{name}"
    if not isinstance(sec.get("fit_unit_ball", False), bool):
        raise ConfigError(f"{where}.fit_unit_ball must be true or false")
    chain = IntegratorChain(n)
    margins = {}
    if kind == "linear":
        lam = _field(sec, "lambda", where, float) if "lambda" in sec else None
        if "K" in sec:
            gain = _matrix(sec["K"], (n,), f"{where}.K")
        elif lam is not None:
            gain = linear_gain(n, lam)
        else:
            raise ConfigError(f"{where}: linear kind needs 'lambda' or 'K'")
        spec = ProtocolSpec(ProtocolKind.LINEAR, n, gain, 0.0, lam)
        cone = ConeSpec(n, lam) if lam is not None else None
        return spec, cone, margins

    if kind not in ("homogeneous_consensus", "homogeneous_nonovershooting"):
        raise ConfigError(f"protocol.{name}: unknown kind {kind!r}")
    mu = _field(sec, "mu", where, float)
    gen = DilationGenerator(n, mu)

    if kind == "homogeneous_consensus":
        if "X" in sec or "Y" in sec:
            if not ("X" in sec and "Y" in sec):
                raise ConfigError(f"protocol.{name}: need both X and Y")
            cert = verify_lmi_xy(
                _matrix(sec["X"], (n, n), f"protocol.{name}.X"),
                _matrix(sec["Y"], (n,), f"protocol.{name}.Y"),
                gen, chain.A, chain.B,
            )
            if not cert.feasible:
                raise Infeasible(f"protocol.{name}: (X, Y) certificate infeasible")
            gain, P = cert.K, cert.P
            margins["xy"] = cert.margins
        elif "P" in sec and "K" in sec:
            # explicit gain plus shape matrix: the congruence-transformed
            # form of the design inequality, checkable as the P-form
            gain = _matrix(sec["K"], (n,), f"protocol.{name}.K")
            cert = verify_lmi_p(
                _matrix(sec["P"], (n, n), f"protocol.{name}.P"),
                gen, chain.A, chain.B, gain,
            )
            if not cert.feasible:
                raise Infeasible(f"protocol.{name}: (P, K) certificate infeasible")
            P = cert.P
            margins["p"] = cert.margins
        else:
            cert = solve_lmi_xy(gen, chain.A, chain.B)
            gain, P = cert.K, cert.P
            margins["xy"] = cert.margins
        ctx = HomogeneousNormContext(gen, P)
        return consensus_protocol(gain, ctx), None, margins

    lam = _field(sec, "lambda", where, float)
    K_lin = linear_gain(n, lam)
    if "P" in sec:
        cert = verify_lmi_p(
            _matrix(sec["P"], (n, n), f"protocol.{name}.P"),
            gen, chain.A, chain.B, K_lin,
        )
        if not cert.feasible:
            raise Infeasible(f"protocol.{name}: P certificate infeasible")
    else:
        cert = solve_lmi_p(gen, chain.A, chain.B, K_lin)
    margins["p"] = cert.margins
    ctx = HomogeneousNormContext(gen, cert.P)
    return nonovershoot_protocol(lam, ctx), ConeSpec(n, lam, mu), margins


def fit_unit_ball(P: np.ndarray, errors: np.ndarray, margin: float = 0.9) -> np.ndarray:
    """Rescale P (certificates are scale-invariant) so every row of
    ``errors`` has weighted norm at most ``margin``."""
    worst = 0.0
    for e in np.atleast_2d(errors):
        worst = max(worst, float(np.sqrt(e @ P @ e)))
    if worst <= margin:
        return P
    return P * (margin / worst) ** 2


def build_scenario(cfg: dict, overrides: dict | None = None) -> ScenarioConfig:
    overrides = overrides or {}
    graph = _build_graph(cfg["graph"])
    N = graph.num_followers

    _check_keys(cfg["system"], {"n", "axes"}, "system")
    n = _field(cfg["system"], "n", "system", _integer)
    axis_names = _field(cfg["system"], "axes", "system", list)
    if not all(isinstance(name, str) for name in axis_names):
        raise ConfigError("axis names must be strings")
    if len(set(axis_names)) != len(axis_names):
        raise ConfigError("duplicate axis names")

    sim = dict(cfg["sim"])
    _check_keys(sim, {"dt", "horizon", "integrator", "seed"}, "sim")
    sim.update(overrides)
    dt = _field(sim, "dt", "sim", float)
    horizon = _field(sim, "horizon", "sim", float)
    seed = _field(sim, "seed", "sim", _integer) if "seed" in sim else 0
    integrator = sim.get("integrator", "implicit_euler")
    if integrator == "explicit_rk4":
        integrator = "rk4"

    dist_cfg = dict(cfg.get("disturbance", {}))
    _check_keys(dist_cfg, set(axis_names) | {"seed"}, "disturbance")
    dist_seed = _field(dist_cfg, "seed", "disturbance", _integer) if "seed" in dist_cfg else None

    axes = []
    for name in axis_names:
        if name not in cfg["protocol"]:
            raise ConfigError(f"missing protocol for axis {name!r}")
        if name not in cfg["initial"]:
            raise ConfigError(f"missing initial states for axis {name!r}")
        sec = cfg["protocol"][name]
        init = _matrix(cfg["initial"][name], (N + 1, n), f"initial.{name}")
        spec, cone, _ = _build_protocol(name, sec, n)
        if sec.get("fit_unit_ball") and spec.norm_ctx is not None:
            errors = init[1:] - init[0]
            P = fit_unit_ball(spec.norm_ctx.P, errors)
            ctx = HomogeneousNormContext(spec.norm_ctx.gen, P)
            if spec.kind is ProtocolKind.HOMOGENEOUS_NONOVERSHOOT:
                spec = nonovershoot_protocol(spec.lam, ctx)
            else:
                spec = consensus_protocol(spec.gain, ctx)
        dist = None
        if name in dist_cfg:
            amps = _matrix(dist_cfg[name], (N + 1,), f"disturbance.{name}")
            dist = DisturbanceSpec(amps, dist_seed)
        axes.append(AxisSpec(name, spec, init, cone, dist))

    return ScenarioConfig(graph, n, tuple(axes), dt, horizon, integrator, seed)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gains(args) -> int:
    try:
        n = int(args.n)
        lam = float(args.lam)
        gain = linear_gain(n, lam)
        gen = DilationGenerator(n, float(args.mu))
    except ValueError as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    chain = IntegratorChain(n)
    Acl = chain.A - chain.B @ gain.reshape(1, -1)
    eigs = np.sort_complex(np.linalg.eigvals(Acl))
    print(f"K_lin = {np.array2string(gain, separator=', ')}")
    print(f"G_d diagonal = {np.array2string(gen.diag_entries, separator=', ')}")
    print("closed-loop eigenvalues =", ", ".join(f"{z.real:.6g}{z.imag:+.6g}j" for z in eigs))
    return EXIT_OK


def cmd_verify_lmi(args) -> int:
    try:
        cfg = load_config(args.config)
        n = _field(cfg["system"], "n", "system", _integer)
        any_protocol = False
        for name, sec in cfg["protocol"].items():
            spec, _, margins = _build_protocol(name, sec, n)
            any_protocol = True
            for label, m in margins.items():
                print(
                    f"{name} [{label}] margins: "
                    f"{m[0]:.6e} {m[1]:.6e} {m[2]:.6e} feasible=True"
                )
            if not margins:
                print(f"{name}: linear protocol, nothing to verify")
        if not any_protocol:
            return _fail(EXIT_BAD_INPUT, "no protocols in config")
    except (ConfigError, ValueError, NotSymmetric, SingularX) as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _summarize(traj, scenario: ScenarioConfig) -> dict:
    summary = {}
    for ax_cfg in scenario.axes:
        at = traj.axis(ax_cfg.name)
        entry = {
            "overshoot": overshoot_metric(traj, ax_cfg.name),
            "settling_time_tol1e-3": settling_time(traj, 1e-3, ax_cfg.name),
        }
        if ax_cfg.cone is not None:
            rep = invariance_monitor(traj, ax_cfg.name)
            entry["phi_min"] = rep.min_value
            entry["phi_violation_time"] = rep.violation_time
        summary[ax_cfg.name] = entry
    summary["settling_time_all_axes"] = settling_time(traj, 1e-3)
    return summary


def cmd_simulate(args) -> int:
    try:
        cfg = load_config(args.config)
        overrides = {
            k: v
            for k, v in (("dt", args.dt), ("horizon", args.horizon), ("seed", args.seed))
            if v is not None
        }
        scenario = build_scenario(cfg, overrides)
        out_cfg = cfg.get("output", {})
        _check_keys(out_cfg, {"trajectory_csv", "summary"}, "output")
        csv_name = out_cfg.get("trajectory_csv", "trajectory.csv")
        summary_name = out_cfg.get("summary", "summary.json")
        if not (isinstance(csv_name, str) and isinstance(summary_name, str)):
            raise ConfigError("output file names must be strings")
        out_dir = args.output or "."
        csv_path = os.path.join(out_dir, csv_name)
        summary_path = os.path.join(out_dir, summary_name)
    except (ConfigError, ValueError, NotSymmetric, SingularX) as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE

    try:
        traj = simulate(scenario)
    except NonConvergentStep as exc:
        return _fail(EXIT_INTEGRATION, f"integration failed: {exc}")

    summary = _summarize(traj, scenario)
    try:
        os.makedirs(out_dir, exist_ok=True)
        _atomic_write(csv_path, lambda tmp: write_trajectory_csv(traj, tmp))
        _atomic_write_text(summary_path, json.dumps(summary, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        return _fail(EXIT_BAD_INPUT, f"cannot write output: {exc}")
    line = " ".join(
        f"{ax}:overshoot={summary[ax]['overshoot']:.3e}" for ax in traj.axis_names
    )
    print(f"wrote {csv_path}; {line}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce-paper preset

PUBLISHED_P_NONOVERSHOOT = [[0.0020, 0.0005], [0.0005, 0.0012]]
PUBLISHED_X = [[0.8281, -0.3107], [-0.3107, 0.9377]]
PUBLISHED_Y = [0.7502, 0.5000]
PUBLISHED_DIST_X = [0.0, 0.540, 0.444, 0.462]
PUBLISHED_DIST_Y = [0.030, 0.428, 0.533, 0.441]

# Communication topology: leader-rooted chain 0 -> 1 -> 2 -> 3 with unit
# weights. Initial positions keep every follower behind the leader along
# X by more than the velocity offset, so the initial errors are
# admissible for the cone; the admissibility report is re-checked at
# build time.
PRESET_GRAPH = {"num_followers": 3, "edges": [[1, 0, 1.0], [2, 1, 1.0], [3, 2, 1.0]]}
PRESET_INITIAL_X = [[0.0, 0.0], [-2.0, 1.0], [-3.5, 1.0], [-5.0, 1.0]]
PRESET_INITIAL_Y = [[0.0, 1.0], [1.5, 1.0], [-1.0, 1.0], [-2.5, 1.0]]


def _preset_config(run: str) -> dict:
    base = {
        "graph": PRESET_GRAPH,
        "system": {"n": 2, "axes": ["X", "Y"]},
        "initial": {"X": PRESET_INITIAL_X, "Y": PRESET_INITIAL_Y},
        "sim": {"dt": 1e-3, "horizon": 20.0, "integrator": "implicit_euler", "seed": 20260301},
    }
    if run == "homogeneous_nominal":
        base["protocol"] = {
            "X": {
                "kind": "homogeneous_nonovershooting",
                "mu": -0.2,
                "lambda": 1.0,
                "P": PUBLISHED_P_NONOVERSHOOT,
            },
            "Y": {"kind": "homogeneous_consensus", "mu": -0.2, "X": PUBLISHED_X, "Y": PUBLISHED_Y},
        }
    elif run == "homogeneous_robust":
        base["protocol"] = {
            "X": {
                "kind": "homogeneous_nonovershooting",
                "mu": -1.0,
                "lambda": 1.0,
                "fit_unit_ball": True,
            },
            "Y": {"kind": "homogeneous_consensus", "mu": -1.0},
        }
        base["disturbance"] = {"X": PUBLISHED_DIST_X, "Y": PUBLISHED_DIST_Y}
    elif run == "linear_disturbed":
        # degree zero turns both homogeneous laws into their linear forms
        base["protocol"] = {
            "X": {"kind": "linear", "lambda": 1.0},
            "Y": {"kind": "homogeneous_consensus", "mu": 0.0,
                   "X": PUBLISHED_X, "Y": PUBLISHED_Y},
        }
        base["disturbance"] = {"X": PUBLISHED_DIST_X, "Y": PUBLISHED_DIST_Y}
    elif run == "linear_nominal":
        base["protocol"] = {
            "X": {"kind": "linear", "lambda": 1.0},
            "Y": {"kind": "homogeneous_consensus", "mu": 0.0,
                   "X": PUBLISHED_X, "Y": PUBLISHED_Y},
        }
    else:
        raise ValueError(f"unknown preset run {run!r}")
    return base


PRESET_RUNS = (
    "homogeneous_nominal",
    "homogeneous_robust",
    "linear_disturbed",
    "linear_nominal",
)


def _run_preset(run: str, out_dir: str) -> dict:
    cfg = _preset_config(run)
    scenario = build_scenario(cfg)
    traj = simulate(scenario)
    _atomic_write(os.path.join(out_dir, f"{run}.csv"), lambda tmp: write_trajectory_csv(traj, tmp))
    summary = _summarize(traj, scenario)
    summary["run"] = run

    if run == "homogeneous_robust":
        ax = scenario.axes[0]
        consts = robustness_constants(
            ax.protocol.norm_ctx.P,
            ax.protocol.norm_ctx.gen,
            ax.cone.H,
            ax.cone.lam,
            ax.protocol.gain,
        )
        summary["rho"] = consts.rho
        summary["theta"] = consts.theta
        summary["q_bound"] = consts.q_bound
        worst = max(
            a0 + PUBLISHED_DIST_X[0] for a0 in PUBLISHED_DIST_X[1:]
        )  # |qhat_i - qhat_0| worst case along X
        summary["published_amplitudes_within_bound"] = bool(worst <= consts.q_bound)

    # admissibility of the preset initial errors for the X-axis cone
    ax = scenario.axes[0]
    if ax.cone is not None and ax.protocol.norm_ctx is not None:
        e0 = ax.initial[1:] - ax.initial[0]
        rep = check_initial_admissible(e0, ax.cone, ax.protocol.norm_ctx)
        summary["initial_admissible"] = rep.admissible_homogeneous
    return summary


def _summary_csv(summaries: list) -> str:
    rows = ["run,axis,settling_time,overshoot,phi_min,phi_violation_time"]
    for s in summaries:
        for ax in ("X", "Y"):
            entry = s[ax]
            rows.append(
                ",".join(
                    [
                        s["run"],
                        ax,
                        repr(entry["settling_time_tol1e-3"]),
                        repr(entry["overshoot"]),
                        repr(entry.get("phi_min")),
                        repr(entry.get("phi_violation_time")),
                    ]
                )
            )
    return "\n".join(rows) + "\n"


def cmd_reproduce_paper(args) -> int:
    out_dir = args.output or "reproduce_paper"
    try:
        os.makedirs(out_dir, exist_ok=True)
        summaries = [_run_preset(r, out_dir) for r in PRESET_RUNS]
        _atomic_write_text(
            os.path.join(out_dir, "summary.json"),
            json.dumps(summaries, sort_keys=True, indent=2) + "\n",
        )
        _atomic_write_text(os.path.join(out_dir, "summary.csv"), _summary_csv(summaries))
    except OSError as exc:
        return _fail(EXIT_BAD_INPUT, f"cannot write output: {exc}")
    except NonConvergentStep as exc:
        return _fail(EXIT_INTEGRATION, f"integration failed: {exc}")
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE

    for s in summaries:
        print(
            f"{s['run']}: X overshoot={s['X']['overshoot']:.3e} "
            f"settling={s['X']['settling_time_tol1e-3']}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="homocon", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gains", help="print the pole-placement gain and dilation")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--lambda", dest="lam", required=True, type=float)
    p.add_argument("--mu", type=float, default=0.0)
    p.set_defaults(func=cmd_gains)

    p = sub.add_parser("verify-lmi", help="check certificate margins from a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_verify_lmi)

    p = sub.add_parser("simulate", help="run one configured scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce-paper", help="run the four preset experiments")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_reproduce_paper)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
