"""Alternating parent/change pairs of the benchmark, summarised as one
``BENCH_<n>.json``.

    python tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --seeds 501-510 --seconds 20 --out BENCH_15.json \\
        [--workloads cyclic_cli,sweep_nominal] [--trace-pairs 2] \\
        [--claim cyclic_cli:steps_per_s:1.06] [--what TEXT]
    python tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --reproduce-paper 10 --out reproduce.json

Each directory is a source checkout holding ``perfbench/run.py``. For
every workload and seed the two checkouts run ``python3 perfbench/run.py
--workload W --seed N --seconds S --trace 0`` one after the other, the
parent first at even positions and the change first at odd ones, so a
drift of the machine's speed falls on both sides alike. Each run's last
line of standard output is its JSON result; the wall-clock metrics it
prints before that line (``steps_per_s.wall``, ``setup_s.wall``, not
rescaled by the reference clock) are kept beside the JSON metrics and
summarised the same way. ``--trace-pairs K`` adds K
traced pairs (``--trace 1``) per workload on the first K seeds, for the
per-layer metrics.

Per workload and metric the record holds both sides' runs, median and
quartiles (``statistics.quantiles``, inclusive method), the number of
pairs the change won, the ratio of the medians and the median gap over
the parent's interquartile range, signed so that a positive gap is a
gain. Which way is better comes from ``BENCHMARK.json`` in the change
checkout; a per-layer metric not listed there is compared as
lower-is-better. A run that fails to return a result stops the tool.
``--claim W:M:F`` adds whether the change gained at least the factor F
on metric M of workload W, in that metric's direction (``claim_met``).

``--reproduce-paper K`` runs, in place of the benchmark, K alternating
pairs of ``python -m homocon.cli reproduce-paper --output DIR`` with
``PYTHONPATH=<checkout>/src`` and a fresh temporary DIR each, and
records each run's wall seconds (``wall_s``) and peak resident set
size in MB (``peak_rss_mb``, from ``os.wait4``), summarised and
compared as above.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("paper_presets", "sweep_nominal", "sweep_disturbed", "cyclic_cli")
SIDES = ("parent", "change")
TIMEOUT_S = 300.0  # per run; a 20 s run takes about 30 s


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="parent source checkout")
    p.add_argument("--change", required=True, type=Path, help="changed source checkout")
    p.add_argument("--seeds", help="first-last, or a comma list")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--trace-pairs", type=int, default=0)
    p.add_argument("--claim", help="workload:metric:target gain factor of the medians")
    p.add_argument("--what", default="", help="what the change does, for the record")
    p.add_argument("--parent-commit", help="the parent's commit, for a checkout without git")
    p.add_argument("--change-commit", help="the change's commit, for a checkout without git")
    p.add_argument("--reproduce-paper", type=int, metavar="K",
                   help="K pairs of `homocon reproduce-paper` in place of the benchmark")
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    if (args.seeds is None) == (args.reproduce_paper is None):
        p.error("give exactly one of --seeds and --reproduce-paper")
    return args


def parse_seeds(text: str) -> list:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def commit(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None  # an exported tree
    return out.stdout.strip()


def machine() -> dict:
    import numpy

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": model}


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process; returns the metrics of its last JSON line,
    with the wall-clock metrics of the lines before it and its counts of
    failed and attempted ops."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics.update(wall_metrics(lines[:-1]), failed=result["failed"], attempted=result["attempted"])
    return metrics


def run_reproduce_paper(root: Path) -> dict:
    """One ``reproduce-paper`` run of the checkout's ``src/``: its wall
    seconds and its peak RSS in MB."""
    cmd = [sys.executable, "-m", "homocon.cli", "reproduce-paper", "--output"]
    env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"))
    with tempfile.TemporaryDirectory() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd + [out], env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"{root}: {' '.join(cmd)} DIR exited {proc.returncode}\n"
                               + err.read().decode(errors="replace"))
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}  # ru_maxrss is in KB


def wall_metrics(lines: list) -> dict:
    """The metrics that ``perfbench/run.py`` prints on the wall clock, not
    rescaled by its reference clock: lines such as
    ``steps_per_s.wall 15961.2 1/s (n=8, wall clock, not rescaled)``."""
    out = {}
    for line in lines:
        name, _, rest = line.partition(" ")
        if name.endswith(".wall") and rest:
            out[name] = float(rest.split()[0])
    return out


def summary(runs: list) -> dict:
    if len(runs) == 1:
        q1 = median = q3 = runs[0]
    else:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"runs": runs, "median": median, "q1": q1, "q3": q3}


def compare(parent: list, change: list, higher: bool) -> dict:
    """Both sides' summaries, pairs won by the change, the ratio of the
    medians, and the median gap over the parent's IQR (positive = gain)."""
    out = {"parent": summary(parent), "change": summary(change)}
    sign = 1.0 if higher else -1.0
    out["pairs_change_better"] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    mp, mc = out["parent"]["median"], out["change"]["median"]
    if mp:
        out["ratio_of_medians"] = mc / mp
    iqr = out["parent"]["q3"] - out["parent"]["q1"]
    if iqr > 0:
        out["median_gap_over_parent_iqr"] = sign * (mc - mp) / iqr
    return out


def series(args, runs: list, directions: dict) -> dict:
    """Alternating pairs, one for each ``(label, run)`` of ``runs``:
    ``run(checkout)`` makes one run and returns its metrics by name.
    Every metric that both sides returned in every pair is compared."""
    roots = {"parent": args.parent, "change": args.change}
    values = {side: {} for side in SIDES}
    first = []
    for i, (label, run) in enumerate(runs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            metrics = run(roots[side])
            for name, value in metrics.items():
                values[side].setdefault(name, []).append(value)
            print(f"{label} {side}: "
                  + " ".join(f"{k}={metrics[k]:.6g}" for k in sorted(metrics)
                             if k.removesuffix(".wall") in directions
                             or k in ("failed", "attempted")),
                  file=sys.stderr, flush=True)
    out = {"first_in_pair": first}
    for name in values["parent"]:
        if name in values["change"] and len(values["change"][name]) == len(runs):
            higher = higher_is_better(name, directions)
            out[name] = compare(values["parent"][name], values["change"][name], higher)
    return out


def benchmark_runs(workload: str, seeds: list, seconds: float, trace: int) -> list:
    """The runs of ``series`` for one workload of the benchmark, a pair
    a seed."""
    return [(f"{workload} seed {seed} trace {trace}",
             functools.partial(run_once, workload=workload, seed=seed, seconds=seconds, trace=trace))
            for seed in seeds]


def higher_is_better(name: str, directions: dict) -> bool:
    """A wall-clock metric ``M.wall`` goes the way of M."""
    return directions.get(name.removesuffix(".wall"), name in ("attempted",))


def claim_met(got: dict, target: float, higher: bool, pairs: int) -> bool:
    """A claimed gain of ``target`` (a factor above 1) on one metric's
    ``compare`` entry: the medians improve by at least that factor (the
    ratio of medians is at least ``target`` for a higher-is-better
    metric, at most 1 / ``target`` for a lower-is-better one), the
    change wins at least 9 in 10 of the ``pairs``, and the median gap
    exceeds the parent's IQR."""
    ratio = got.get("ratio_of_medians")
    if ratio is None or ratio <= 0.0:
        return False
    gain = ratio if higher else 1.0 / ratio
    return bool(
        gain >= target
        and got["pairs_change_better"] >= 0.9 * pairs
        and got.get("median_gap_over_parent_iqr", 0.0) > 1.0
    )


def benchmark(args, directions: dict, record: dict) -> None:
    """The benchmark's pairs of every workload, and the claim, into
    ``record``, which is written after each workload."""
    seeds = parse_seeds(args.seeds)
    for workload in args.workloads.split(","):
        entry = {"seeds": seeds, **series(args, benchmark_runs(workload, seeds, args.seconds, 0),
                                          directions)}
        if args.trace_pairs:
            traced = seeds[:args.trace_pairs]
            entry["traced"] = {"seeds": traced, **series(
                args, benchmark_runs(workload, traced, args.seconds, 1), directions)}
        record["workloads"][workload] = entry
        args.out.write_text(json.dumps(record, indent=1) + "\n")  # keep what is done
    if args.claim:
        workload, metric, target = args.claim.split(":")
        got = record["workloads"][workload][metric]
        higher = higher_is_better(metric, directions)
        record["claim"] = {
            "workload": workload, "metric": metric, "target_gain": float(target),
            "better": "higher" if higher else "lower",
            "ratio_of_medians": got.get("ratio_of_medians"),
            "pairs_won": got["pairs_change_better"],
            "median_gap_over_parent_iqr": got.get("median_gap_over_parent_iqr"),
        }
        record["claim"]["met"] = claim_met(got, float(target), higher, len(seeds))


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] == "higher"
                  for m in bench["end_to_end"] + bench["per_layer"]}
    if args.reproduce_paper is None:
        what = (f"alternating parent/change pairs of `python3 perfbench/run.py --workload W "
                f"--seed N --seconds {args.seconds:g}` at seeds {args.seeds}")
    else:
        what = (f"{args.reproduce_paper} alternating parent/change pairs of "
                f"`python -m homocon.cli reproduce-paper`")
    record = {
        "what": (f"{what}, written by tools/bench_pairs.py; median_gap_over_parent_iqr "
                 f"is positive for a gain. " + args.what).strip(),
        "parent_commit": args.parent_commit or commit(args.parent),
        "change_commit": args.change_commit or commit(args.change),
        "machine": machine(),
    }
    if args.reproduce_paper is None:
        record.update(seconds=args.seconds, workloads={})
        benchmark(args, directions, record)
    else:
        runs = [(f"reproduce-paper pair {i}", run_reproduce_paper)
                for i in range(args.reproduce_paper)]
        # listed, wall_s shows in the progress lines; lower is better, as unlisted
        record["reproduce_paper"] = series(args, runs, dict(directions, wall_s=False))
    record["load_after"] = os.getloadavg()
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
