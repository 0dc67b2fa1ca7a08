"""Command line front end.

Subcommands: ``gains``, ``verify-lmi``, ``simulate``, ``reproduce-paper``.
Configs are strict JSON. Unknown keys are rejected (``_SECTION_KEYS``):
each protocol kind takes only the keys it reads (``_PROTOCOL_KEYS``), and
``simulate`` takes axis entries only for the axes it runs. Every
output file is written to a new temporary file of a unique name beside
it and renamed once the run has succeeded; a failure, SIGINT, SIGTERM or
SIGHUP removes the temporary files, so a run leaves nothing partial behind.
Exit codes: 0 ok, 2 bad input, 3 infeasible certificate, 4 integration
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading

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
)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_INTEGRATION = 4


class ConfigError(Exception):
    pass


class NonFiniteSummary(Exception):
    """A run's summary holds a NaN or an infinity."""


class _Terminated(BaseException):
    """SIGTERM or SIGHUP in a subcommand: unwinds every cleanup, as KeyboardInterrupt does."""


def _fail(code: int, msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


class _Staged:
    """Output files written under temporary names and renamed together.

    ``path(target)`` creates a new empty file beside ``target``, under a
    unique name and exclusively, so no other file is overwritten, with
    the mode that the umask gives a new file, and ``text(target, text)``
    writes one through the descriptor that created it; ``commit``
    renames each onto its target in order. Leaving the ``with`` block removes every
    temporary file not renamed, so a failed run leaves nothing partial.
    """

    def __init__(self):
        self.files = []  # (temporary, target) pairs not yet renamed

    def __enter__(self):
        return self

    def _create(self, target: str) -> int:
        head, tail = os.path.split(target)
        while True:
            tmp = os.path.join(head, f"{tail}.{os.urandom(4).hex()}.tmp")
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except FileExistsError:
                continue
            self.files.append((tmp, target))
            return fd

    def path(self, target: str) -> str:
        os.close(self._create(target))
        return self.files[-1][0]

    def text(self, target: str, text: str) -> None:
        with open(self._create(target), "w", newline="\n") as fh:
            fh.write(text)

    def commit(self) -> None:
        while self.files:
            os.replace(*self.files[0])
            self.files.pop(0)

    def __exit__(self, *exc):
        for tmp, _ in self.files:
            try:
                os.remove(tmp)
            except OSError:
                pass
        return False


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


def _number(value) -> float:
    """A real value: only a JSON number, since float() would also take
    the string "0.001" and the boolean true."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _matrix(value, shape, where: str) -> np.ndarray:
    def numbers(v):
        return [numbers(x) for x in v] if isinstance(v, list) else _number(v)

    try:
        M = np.asarray(numbers(value), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where} must be numeric: {exc}") from exc
    if M.shape != shape:
        raise ConfigError(f"{where} must have shape {shape}, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ConfigError(f"{where} must be finite")
    return M


# ---------------------------------------------------------------------------
# config loading


# the config's sections and their keys, which every subcommand checks;
# None for the sections keyed by axis name, checked against system.axes
_SECTION_KEYS = {
    "graph": {"num_followers", "edges"},
    "system": {"n", "axes"},
    "sim": {"dt", "horizon", "integrator", "seed"},
    "output": {"trajectory_csv", "summary"},
    "protocol": None, "initial": None, "disturbance": None,
}


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _check_keys(cfg, set(_SECTION_KEYS), "config")
    for key in ("graph", "system", "protocol", "initial", "sim"):
        if key not in cfg:
            raise ConfigError(f"missing config section '{key}'")
    for key, section in cfg.items():
        if not isinstance(section, dict):
            raise ConfigError(f"config section '{key}' must be an object")
        if _SECTION_KEYS[key] is not None:
            _check_keys(section, _SECTION_KEYS[key], key)
    return cfg


def _build_graph(section: dict) -> DirectedGraph:
    try:
        # agent indices are JSON integers and weights JSON numbers
        edges = [(_integer(i), _integer(j), _number(w)) for i, j, w in section["edges"]]
        return DirectedGraph.from_edges(_integer(section["num_followers"]), edges)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad graph section: {exc}") from exc


# the keys each protocol kind reads; a homogeneous_consensus section
# gives X with Y, P with K, or none of the four (a solved certificate)
_PROTOCOL_KEYS = {
    "linear": {"kind", "lambda", "K"},
    "homogeneous_nonovershooting": {"kind", "mu", "lambda", "P", "fit_unit_ball"},
    "homogeneous_consensus": {"kind", "mu", "fit_unit_ball", "X", "Y", "P", "K"},
}
_CONSENSUS_CERTIFICATES = ({"X", "Y"}, {"P", "K"}, set())


def _build_protocol(name: str, sec: dict, n: int, init=None):
    """Returns (ProtocolSpec, ConeSpec or None, margins dict). With the
    axis's initial states ``init``, a homogeneous section that sets
    ``fit_unit_ball`` has its certificate's P rescaled before the norm
    context is built."""
    where = f"protocol.{name}"
    if not isinstance(sec, dict):
        raise ConfigError(f"{where} must be an object")
    kind = sec.get("kind")
    # any JSON value may stand here, a list too, which cannot be hashed
    if not (isinstance(kind, str) and kind in _PROTOCOL_KEYS):
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    _check_keys(sec, _PROTOCOL_KEYS[kind], where)
    if not isinstance(sec.get("fit_unit_ball", False), bool):
        raise ConfigError(f"{where}.fit_unit_ball must be true or false")
    chain = IntegratorChain(n)
    margins = {}

    def context(P):
        if init is not None and sec.get("fit_unit_ball"):
            with np.errstate(over="ignore"):
                P = fit_unit_ball(P, init[1:] - init[0])
        return HomogeneousNormContext(gen, P)

    if kind == "linear":
        lam = _field(sec, "lambda", where, _number) if "lambda" in sec else None
        if "K" in sec:
            gain = _matrix(sec["K"], (n,), f"{where}.K")
        elif lam is not None:
            gain = linear_gain(n, lam)
        else:
            raise ConfigError(f"{where}: linear kind needs 'lambda' or 'K'")
        spec = ProtocolSpec(ProtocolKind.LINEAR, n, gain)
        cone = ConeSpec(n, lam) if lam is not None else None
        return spec, cone, margins

    mu = _field(sec, "mu", where, _number)
    gen = DilationGenerator(n, mu)

    if kind == "homogeneous_consensus":
        if {"X", "Y", "P", "K"} & set(sec) not in _CONSENSUS_CERTIFICATES:
            raise ConfigError(f"{where}: give X with Y, P with K, or none of the four")
        if "X" in sec:
            cert = verify_lmi_xy(
                _matrix(sec["X"], (n, n), f"{where}.X"),
                _matrix(sec["Y"], (n,), f"{where}.Y"),
                gen, chain.A, chain.B,
            )
            if not cert.feasible:
                raise Infeasible(f"{where}: (X, Y) certificate infeasible")
            gain, P = cert.K, cert.P
            margins["xy"] = cert.margins
        elif "P" in sec:
            # explicit gain plus shape matrix: the congruence-transformed
            # form of the design inequality, checkable as the P-form
            gain = _matrix(sec["K"], (n,), f"{where}.K")
            cert = verify_lmi_p(
                _matrix(sec["P"], (n, n), f"{where}.P"),
                gen, chain.A, chain.B, gain,
            )
            if not cert.feasible:
                raise Infeasible(f"{where}: (P, K) certificate infeasible")
            P = cert.P
            margins["p"] = cert.margins
        else:
            cert = solve_lmi_xy(gen, chain.A, chain.B)
            gain, P = cert.K, cert.P
            margins["xy"] = cert.margins
        return consensus_protocol(gain, context(P)), None, margins

    lam = _field(sec, "lambda", where, _number)
    K_lin = linear_gain(n, lam)
    if "P" in sec:
        cert = verify_lmi_p(
            _matrix(sec["P"], (n, n), f"{where}.P"),
            gen, chain.A, chain.B, K_lin,
        )
        if not cert.feasible:
            raise Infeasible(f"{where}: P certificate infeasible")
    else:
        cert = solve_lmi_p(gen, chain.A, chain.B, K_lin)
    margins["p"] = cert.margins
    return nonovershoot_protocol(lam, context(cert.P)), ConeSpec(n, lam, mu), margins


def fit_unit_ball(P: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """Rescale P (certificates are scale-invariant) so every row of
    ``errors`` has weighted norm at most 0.9. Raises ValueError when
    an error is not finite, a weighted norm overflows or a nonzero
    entry of the rescaled P is below the normal range of floats."""
    errors = np.atleast_2d(errors)
    if not np.all(np.isfinite(errors)):
        raise ValueError("initial errors must be finite")
    worst = 0.0
    with np.errstate(over="ignore"):
        for e in errors:
            worst = max(worst, float(np.sqrt(e @ P @ e)))
    if not np.isfinite(worst):
        raise ValueError("initial errors too large to fit into the unit ball")
    if worst <= 0.9:
        return P
    scaled = P * (0.9 / worst) ** 2
    if not np.all(np.abs(scaled[P != 0]) >= np.finfo(float).tiny):
        raise ValueError("initial errors too large to fit into the unit ball")
    return scaled


def build_scenario(cfg: dict, overrides: dict | None = None) -> ScenarioConfig:
    overrides = overrides or {}
    graph = _build_graph(cfg["graph"])
    N = graph.num_followers

    n = _field(cfg["system"], "n", "system", _integer)
    axis_names = _field(cfg["system"], "axes", "system", list)
    if not all(isinstance(name, str) for name in axis_names):
        raise ConfigError("axis names must be strings")
    if len(set(axis_names)) != len(axis_names):
        raise ConfigError("duplicate axis names")

    sim = {**cfg["sim"], **overrides}
    dt = _field(sim, "dt", "sim", _number)
    horizon = _field(sim, "horizon", "sim", _number)
    integrator = sim.get("integrator", "implicit_euler")

    dist_cfg = cfg.get("disturbance", {})
    _check_keys(dist_cfg, set(axis_names) | {"seed"}, "disturbance")
    # the scenario's seed seeds nothing but the draws, axis i's from seed +
    # 7919 i (simulation._Draws): the last given of sim.seed,
    # disturbance.seed and --seed, else 0; each given is checked
    seeds = [_field(sec, "seed", where, _integer) for sec, where in
             ((cfg["sim"], "sim"), (dist_cfg, "disturbance"), (overrides, "--seed")) if "seed" in sec]
    if min(seeds, default=0) < 0:
        raise ConfigError("sim.seed, disturbance.seed and --seed must be nonnegative")
    seed = seeds[-1] if seeds else 0
    # simulate runs only the axes it names
    _check_keys(cfg["protocol"], set(axis_names), "protocol")
    _check_keys(cfg["initial"], set(axis_names), "initial")

    axes = []
    for name in axis_names:
        if name not in cfg["protocol"]:
            raise ConfigError(f"missing protocol for axis {name!r}")
        if name not in cfg["initial"]:
            raise ConfigError(f"missing initial states for axis {name!r}")
        sec = cfg["protocol"][name]
        init = _matrix(cfg["initial"][name], (N + 1, n), f"initial.{name}")
        spec, cone, _ = _build_protocol(name, sec, n, init)
        dist = None
        if name in dist_cfg:
            dist = DisturbanceSpec(_matrix(dist_cfg[name], (N + 1,), f"disturbance.{name}"))
        axes.append(AxisSpec(name, spec, init, cone, dist))

    return ScenarioConfig(graph, n, tuple(axes), dt, horizon, integrator, seed)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gains(args) -> int:
    n = int(args.n)
    gain = linear_gain(n, float(args.lam))
    gen = DilationGenerator(n, float(args.mu))
    chain = IntegratorChain(n)
    Acl = chain.A - chain.B @ gain.reshape(1, -1)
    eigs = np.sort_complex(np.linalg.eigvals(Acl))
    print(f"K_lin = {np.array2string(gain, separator=', ')}")
    print(f"G_d diagonal = {np.array2string(gen.diag_entries, separator=', ')}")
    print("closed-loop eigenvalues =", ", ".join(f"{z.real:.6g}{z.imag:+.6g}j" for z in eigs))
    return EXIT_OK


def cmd_verify_lmi(args) -> int:
    cfg = load_config(args.config)
    n = _field(cfg["system"], "n", "system", _integer)
    if not cfg["protocol"]:
        return _fail(EXIT_BAD_INPUT, "no protocols in config")
    for name, sec in cfg["protocol"].items():
        _, _, margins = _build_protocol(name, sec, n)
        for label, m in margins.items():
            print(f"{name} [{label}] margins: {m[0]:.6e} {m[1]:.6e} {m[2]:.6e} feasible=True")
        if not margins:
            print(f"{name}: linear protocol, nothing to verify")
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


def _summary_json(summary) -> str:
    """Strict JSON text of a summary; NonFiniteSummary when it holds a
    NaN or an infinity."""
    try:
        return json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteSummary(str(exc)) from exc


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    overrides = {
        k: v
        for k, v in (("dt", args.dt), ("horizon", args.horizon), ("seed", args.seed))
        if v is not None
    }
    scenario = build_scenario(cfg, overrides)
    out_cfg = cfg.get("output", {})
    csv_name = out_cfg.get("trajectory_csv", "trajectory.csv")
    summary_name = out_cfg.get("summary", "summary.json")
    if not (isinstance(csv_name, str) and isinstance(summary_name, str)):
        raise ConfigError("output file names must be strings")
    out_dir = args.output or "."
    csv_path = os.path.join(out_dir, csv_name)
    summary_path = os.path.join(out_dir, summary_name)
    if os.path.normpath(csv_path) == os.path.normpath(summary_path):
        raise ConfigError(f"output.trajectory_csv and output.summary name one file: {csv_name!r}")

    with _Staged() as out:
        os.makedirs(out_dir, exist_ok=True)
        traj = simulate(scenario, out.path(csv_path))
        summary = _summarize(traj, scenario)
        out.text(summary_path, _summary_json(summary))
        out.commit()
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
    elif run in ("linear_disturbed", "linear_nominal"):
        # degree zero turns both homogeneous laws into their linear forms
        base["protocol"] = {
            "X": {"kind": "linear", "lambda": 1.0},
            "Y": {"kind": "homogeneous_consensus", "mu": 0.0,
                   "X": PUBLISHED_X, "Y": PUBLISHED_Y},
        }
    else:
        raise ValueError(f"unknown preset run {run!r}")
    if run in ("homogeneous_robust", "linear_disturbed"):
        base["disturbance"] = {"X": PUBLISHED_DIST_X, "Y": PUBLISHED_DIST_Y}
    return base


PRESET_RUNS = (
    "homogeneous_nominal",
    "homogeneous_robust",
    "linear_disturbed",
    "linear_nominal",
)


def _run_preset(run: str, csv: str) -> dict:
    """Runs one preset, writes its trajectory CSV to ``csv`` and returns
    its summary."""
    cfg = _preset_config(run)
    scenario = build_scenario(cfg)
    traj = simulate(scenario, csv)
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
    with _Staged() as out:
        os.makedirs(out_dir, exist_ok=True)
        summaries = [
            _run_preset(run, out.path(os.path.join(out_dir, f"{run}.csv")))
            for run in PRESET_RUNS
        ]
        out.text(os.path.join(out_dir, "summary.json"), _summary_json(summaries))
        out.text(os.path.join(out_dir, "summary.csv"), _summary_csv(summaries))
        out.commit()
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
    pid, caught = os.getpid(), {}
    def terminate(signum, frame):
        if os.getpid() != pid:  # a forked writer: the run's process cleans up
            os._exit(1)
        for sig in caught:  # a second signal does not cut the cleanup short
            signal.signal(sig, signal.SIG_IGN)
        raise _Terminated(signum)

    # where they exist and are not ignored; only the main thread may set handlers
    for name in ("SIGTERM", "SIGHUP") if threading.current_thread() is threading.main_thread() else ():
        if hasattr(signal, name) and signal.getsignal(sig := getattr(signal, name)) is signal.SIG_DFL:
            caught[sig] = signal.signal(sig, terminate)
    # the exit code of each exception that a subcommand raises
    try:
        return args.func(args)
    except (ConfigError, ValueError, NotSymmetric, SingularX) as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NonConvergentStep as exc:
        return _fail(EXIT_INTEGRATION, f"integration failed: {exc}")
    except NonFiniteSummary as exc:
        return _fail(EXIT_INTEGRATION, f"non-finite summary: {exc}")
    except OSError as exc:
        return _fail(EXIT_BAD_INPUT, f"cannot write output: {exc}")
    except _Terminated as exc:
        signum = exc.args[0]
    finally:
        for sig, handler in caught.items():
            signal.signal(sig, handler)
    sys.stdout.flush()
    signal.raise_signal(signum)  # the signal's own status, as an uncaught SIGINT gives
    return 128 + signum


if __name__ == "__main__":
    sys.exit(main())
