"""Median-of-k timings of the implicit step's layers on fixed inputs,
printed (or written) as JSON.

    python tools/bench_layers.py [--runs 15] [--seconds 0.1] [--out FILE]

It imports ``homocon`` from ``src/`` of the checkout it lies in. Six row
blocks have the shapes of the benchmark's workloads:

- ``presets_6x2``: the ``homogeneous_nominal`` preset, N = 3, axes X and
  Y (6 rows, 2 groups, n = 2), as in ``paper_presets``;
- ``cyclic_8x2`` and ``cyclic_12x2``: a cyclic follower graph with
  N = 4 and N = 6, a mu = -0.5 non-overshooting axis and a mu = -0.3
  consensus axis (n = 3), as in ``cyclic_cli``;
- ``sweep_90x1``: 30 runs of the mu = -1 chain under disturbance, as in
  ``sweep_disturbed``;
- ``sweep_300x1``: 100 runs of the mu = -0.2 chain, as in
  ``sweep_nominal``;
- ``sweep_300x1_rest``: the same with its first 33 runs started on the
  origin, where their rows rest, as ``sweep_nominal``'s settled runs do
  while the others still move.

Each block is stepped 50 times from its initial errors, so that the
Newton has warm starts, and then retires the curved rows at rest, those
of undisturbed axes with log norm -inf (``_Block.retire``, which
``_integrate`` calls at each draw chunk's end, where it also finds a
settled block): ``sweep_300x1_rest`` works on its 201 moving rows, the
other blocks on all their rows. That state is the fixed input. The
record gives each block's working curved ``rows`` and its ``retired``
ones. Timed per block: ``residual`` (``_log_norm_residual`` on the
working rows, with the block's work buffers), ``newton`` (one
``_Block._newton`` call on every working row off the origin),
``log_norms_cold`` and ``log_norms_warm`` (``homogeneity._log_norms`` of
the working rows' errors, started from their weighted norms and from the
block's log norms there),
``control_input_many`` (``protocols.control_input_many`` of each curved
axis's errors, the public law evaluation) and ``step_implicit``. Also
timed, in the same runs:

- ``derive``: ``_BatchRecord.derive`` of one full draw chunk (257
  nodes, stepped on from that state) on each sweep block, whose axis has
  a cone as the benchmark's sweeps have, so the barrier is derived too;
- ``csv``: ``_CsvLayout.text`` of a 512-node range of the
  ``homogeneous_nominal`` preset, with the text's size and its rate in
  MB/s (10^6 bytes per second at the median time);
- ``certificates``: ``solve_lmi_p`` (the lambda = 1 gain) and
  ``solve_lmi_xy`` on the integrator chain with n = 2..8 and
  mu = -0.5, each of which finds its certificate on the Lyapunov scan.

A run times
one loop of calls of about ``--seconds`` for every block and layer in
turn, so that the machine's slow phases fall on all of them alike; the
record holds, per layer, the median over ``--runs`` runs of the time per
call in microseconds, and the quartiles. The machine's speed still
differs between processes: compare two checkouts over several
alternating runs of the tool.
"""

from __future__ import annotations

import argparse
import functools
import json
import platform
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent  # the checkout
sys.path.insert(0, str(ROOT / "src"))

import homocon as hc  # noqa: E402
from homocon import cli, homogeneity, protocols, simulation  # noqa: E402

WARM_STEPS = 50
CSV_NODES = 512
CERT_DIMS = range(2, 9)
CERT_MU = -0.5
CHAIN_EDGES = [[1, 0, 1.0], [2, 1, 1.0], [3, 2, 1.0]]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=15, help="timed runs per layer (k)")
    p.add_argument("--seconds", type=float, default=0.1, help="length of one run")
    p.add_argument("--out", type=Path, help="write the JSON record here")
    return p.parse_args(argv)


def _cyclic_scenario(N: int) -> hc.ScenarioConfig:
    rng = np.random.default_rng(N)
    n = 3
    edges = [[i, i - 1, 1.0] for i in range(1, N + 1)] + [[1, N, 0.5], [2, 0, 0.3]]
    edges += [[i, i + 2, 0.3] for i in range(2, N - 1)]
    cone = hc.ConeSpec(n, 1.0, -0.5)
    Hinv = np.linalg.inv(cone.H)
    errors = np.stack([Hinv @ rng.uniform(0.05, 1.0, n) for _ in range(N)])
    leader = rng.uniform(-1.0, 1.0, n)
    cfg = {
        "graph": {"num_followers": N, "edges": edges},
        "system": {"n": n, "axes": ["X", "Y"]},
        "protocol": {
            "X": {"kind": "homogeneous_nonovershooting", "mu": -0.5, "lambda": 1.0,
                  "fit_unit_ball": True},
            "Y": {"kind": "homogeneous_consensus", "mu": -0.3},
        },
        "initial": {"X": np.vstack([leader, leader + errors]).tolist(),
                    "Y": rng.uniform(-2.0, 2.0, (N + 1, n)).tolist()},
        "sim": {"dt": 1e-3, "horizon": 1.0},
    }
    return cli.build_scenario(cfg)


def _sweep(runs: int, mu: float, disturbed: bool):
    """A chain scenario with ``runs`` initial states and its per-row
    disturbance terms (zero when not ``disturbed``). A disturbed axis
    declares a disturbance, so that the block does not take its rows for
    undisturbed ones at rest; the timed calls read the terms alone."""
    rng = np.random.default_rng(runs)
    gen = hc.DilationGenerator(2, mu)
    chain = hc.IntegratorChain(2)
    K = hc.linear_gain(2, 1.0)
    P = hc.solve_lmi_p(gen, chain.A, chain.B, K).P
    errors = rng.uniform(-2.0, 2.0, (runs, 3, 2))
    P = cli.fit_unit_ball(P, errors.reshape(-1, 2))
    inits = np.zeros((runs, 4, 2))
    inits[:, 1:] = errors
    axis = hc.AxisSpec("X", hc.nonovershoot_protocol(1.0, hc.HomogeneousNormContext(gen, P)),
                       inits[0], hc.ConeSpec(2, 1.0, mu),
                       hc.DisturbanceSpec(np.full(4, 0.2)) if disturbed else None)
    scen = hc.ScenarioConfig(hc.DirectedGraph.from_edges(3, CHAIN_EDGES), 2, (axis,), 1e-3, 1.0)
    dq = rng.uniform(-0.4, 0.4, runs * 3) if disturbed else np.zeros(runs * 3)
    return scen, [inits], dq


def blocks():
    """(name, scenario, per-axis initial states, follower-minus-leader
    disturbances) of each timed block."""
    out = [("presets_6x2", cli.build_scenario(cli._preset_config("homogeneous_nominal")), None, None)]
    for N in (4, 6):
        out.append((f"cyclic_{2 * N}x2", _cyclic_scenario(N), None, None))
    out.append(("sweep_90x1",) + _sweep(30, -1.0, True))
    out.append(("sweep_300x1",) + _sweep(100, -0.2, False))
    scen, inits, dq = _sweep(100, -0.2, False)
    inits[0][:33, 1:] = 0.0
    out.append(("sweep_300x1_rest", scen, inits, dq))
    return out


def warm_state(scen, inits, dq):
    """The block and its state after WARM_STEPS steps, its resting rows
    retired: (block, E, w, s, dqb), with the forcing as ``_integrate``
    passes it."""
    if inits is None:
        inits = [ax.initial[None] for ax in scen.axes]
    block = simulation._Block(scen, [np.asarray(x, dtype=float) for x in inits])
    dqb = (np.zeros(block.M) if dq is None else dq)[:, None] * block.beta
    E = block.E0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w, s = block.eval(E, None)
        for _ in range(WARM_STEPS):
            E, w, s = block.step_implicit(E, dqb, w, s)
    block.retire(s)
    return block, E, w, s, dqb


def layers(block, E, w, s, dqb) -> dict:
    """The timed calls on one block, by layer name."""
    alpha = simulation.grouped_matmul(E, block.R.T) + dqb
    act = slice(block.m_curved) if block.active is None else block.active  # the working rows
    ac, wc, sc = alpha[act], w[act], s[act]
    older = block.older

    def residual():
        return simulation._log_norm_residual(block, ac, sc)

    def newton():  # the pending set of a step that skips the origin test
        return block._newton(ac, wc, sc, older, np.isfinite(sc))

    def log_norms(s_warm):
        return lambda: homogeneity._log_norms(E[act], block.P, block.rk, s_warm)

    def control_input_many():
        return [protocols.control_input_many(g.spec.protocol, E[g.rows]) for g in block.curved]

    def step_implicit():
        block.older = older  # the step shifts it
        return block.step_implicit(E, dqb, w, s)

    return {"residual": residual, "newton": newton, "log_norms_cold": log_norms(None),
            "log_norms_warm": log_norms(sc), "control_input_many": control_input_many,
            "step_implicit": step_implicit}


def derive_chunk(scen, inits, dq):
    """``_BatchRecord.derive`` of one full draw chunk: the block's warm
    state and the nodes of the steps that follow it."""
    block, E, w, s, dqb = warm_state(scen, inits, dq)
    nodes = simulation._DRAW_CHUNK + 1
    rec = simulation._BatchRecord(block, nodes - 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rec.record(0, E, w, s)
        for k in range(1, nodes):
            E, w, s = block.step_implicit(E, dqb, w, s)
            rec.record(k, E, w, s)
    return lambda: rec.derive(slice(0, nodes), nodes)


def csv_text():
    """``_CsvLayout.text`` of CSV_NODES nodes of the preset, as
    ``write_trajectory_csv`` lays it out, and the text's size in bytes."""
    scen = cli.build_scenario(cli._preset_config("homogeneous_nominal"))
    traj = hc.simulate(replace(scen, horizon=CSV_NODES * scen.dt))
    layout = simulation._CsvLayout(traj.axes, [bool(ax.disturbance.view(np.uint64).any())
                                               for ax in traj.axes])
    ks = slice(0, CSV_NODES)
    return (lambda: layout.text(traj.times, ks)), len(layout.text(traj.times, ks).encode())


def certificate_solves() -> dict:
    """The certificate searches by (solver, n)."""
    fns = {}
    for n in CERT_DIMS:
        gen, chain = hc.DilationGenerator(n, CERT_MU), hc.IntegratorChain(n)
        fns[("solve_lmi_p", n)] = functools.partial(
            hc.solve_lmi_p, gen, chain.A, chain.B, hc.linear_gain(n, 1.0))
        fns[("solve_lmi_xy", n)] = functools.partial(hc.solve_lmi_xy, gen, chain.A, chain.B)
    return fns


def time_calls(fns: dict, seconds: float, runs: int) -> dict:
    """Median and quartiles over ``runs`` of the microseconds per call of
    each function in ``fns``, timed in loops of about ``seconds``. Each
    run times every function once, in turn, so that a slow phase of the
    machine falls on all of them alike."""
    numbers = {}
    for key, fn in fns.items():
        fn()
        t0, calls = time.perf_counter(), 0
        while time.perf_counter() - t0 < 0.05:
            fn()
            calls += 1
        numbers[key] = max(1, int(calls * seconds / (time.perf_counter() - t0)))
    per_call = {key: [] for key in fns}
    for _ in range(runs):
        for key, fn in fns.items():
            t0 = time.perf_counter()
            for _ in range(numbers[key]):
                fn()
            per_call[key].append((time.perf_counter() - t0) / numbers[key] * 1e6)
    out = {}
    for key, xs in per_call.items():
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if runs > 1 else xs * 3
        out[key] = {"median_us": med, "q1_us": q1, "q3_us": q3, "calls_per_run": numbers[key]}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    record = {
        "tool": "tools/bench_layers.py",
        "runs": args.runs,
        "seconds": args.seconds,
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "processor": platform.processor() or platform.machine()},
        "blocks": {},
        "derive": {},
        "certificates": {"mu": CERT_MU, "solve_lmi_p": {}, "solve_lmi_xy": {}},
    }
    fns = {}
    for name, scen, inits, dq in blocks():
        block, *state = warm_state(scen, inits, dq)
        record["blocks"][name] = {"rows": len(block.curved) * block.group_rows,
                                  "retired": block.retired_rows, "groups": len(block.curved),
                                  "n": block.n, "layers": {}}
        fns.update({(name, layer): fn for layer, fn in layers(block, *state).items()})
        if name.startswith("sweep"):
            fns[(name, "derive")] = derive_chunk(scen, inits, dq)
    fns[("presets_6x2", "csv")], size = csv_text()
    fns.update(certificate_solves())
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        timed = time_calls(fns, args.seconds, args.runs)
    for (name, layer), t in timed.items():
        if name in record["certificates"]:
            record["certificates"][name][f"n{layer}"] = t
        elif layer == "derive":
            record["derive"][name] = {"nodes": simulation._DRAW_CHUNK + 1, **t}
        elif layer == "csv":
            record["csv"] = {"preset": "homogeneous_nominal", "nodes": CSV_NODES, "bytes": size,
                             **t, "mb_per_s": size / t["median_us"]}
        else:
            record["blocks"][name]["layers"][layer] = t
    text = json.dumps(record, indent=1)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
