"""Alternating parent/change pairs of the benchmark, summarised as one
``BENCH_<n>.json``.

    python tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --seeds 501-510 --seconds 20 --out BENCH_15.json \\
        [--workloads cyclic_cli,sweep_nominal] [--trace-pairs 2] \\
        [--claim cyclic_cli:steps_per_s:1.06] [--what TEXT]

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
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_presets", "sweep_nominal", "sweep_disturbed", "cyclic_cli")
SIDES = ("parent", "change")
TIMEOUT_S = 300.0  # per run; a 20 s run takes about 30 s


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="parent source checkout")
    p.add_argument("--change", required=True, type=Path, help="changed source checkout")
    p.add_argument("--seeds", required=True, help="first-last, or a comma list")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--trace-pairs", type=int, default=0)
    p.add_argument("--claim", help="workload:metric:target gain factor of the medians")
    p.add_argument("--what", default="", help="what the change does, for the record")
    p.add_argument("--parent-commit", help="the parent's commit, for a checkout without git")
    p.add_argument("--change-commit", help="the change's commit, for a checkout without git")
    p.add_argument("--out", required=True, type=Path)
    return p.parse_args(argv)


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
    """One benchmark process; returns its last JSON line, with the
    wall-clock metrics of the lines before it added to its metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["metrics"].update({k: {"value": v} for k, v in wall_metrics(lines[:-1]).items()})
    return result


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


def series(args, workload: str, seeds: list, trace: int, directions: dict) -> dict:
    roots = {"parent": args.parent, "change": args.change}
    values = {side: {} for side in SIDES}
    first = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            res = run_once(roots[side], workload, seed, args.seconds, trace)
            metrics = {k: v["value"] for k, v in res["metrics"].items()}
            metrics.update(failed=res["failed"], attempted=res["attempted"])
            for name, value in metrics.items():
                values[side].setdefault(name, []).append(value)
            print(f"{workload} seed {seed} trace {trace} {side}: "
                  + " ".join(f"{k}={metrics[k]:.6g}" for k in sorted(metrics)
                             if k.removesuffix(".wall") in directions
                             or k in ("failed", "attempted")),
                  file=sys.stderr, flush=True)
    out = {"seeds": seeds, "first_in_pair": first}
    for name in values["parent"]:
        if name in values["change"] and len(values["change"][name]) == len(seeds):
            higher = higher_is_better(name, directions)
            out[name] = compare(values["parent"][name], values["change"][name], higher)
    return out


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


def main(argv=None) -> int:
    args = parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] == "higher"
                  for m in bench["end_to_end"] + bench["per_layer"]}
    record = {
        "what": (f"alternating parent/change pairs of `python3 perfbench/run.py --workload W "
                 f"--seed N --seconds {args.seconds:g}` at seeds {args.seeds}, written by "
                 f"tools/bench_pairs.py; median_gap_over_parent_iqr is positive for a gain. "
                 + args.what).strip(),
        "parent_commit": args.parent_commit or commit(args.parent),
        "change_commit": args.change_commit or commit(args.change),
        "seconds": args.seconds,
        "machine": machine(),
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        entry = series(args, workload, seeds, 0, directions)
        if args.trace_pairs:
            entry["traced"] = series(args, workload, seeds[:args.trace_pairs], 1, directions)
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
    record["load_after"] = os.getloadavg()
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
