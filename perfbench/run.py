"""homocon benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and gets no option or environment variable
from the benchmark. With ``--trace 0`` the run sets up the workload
several times, then runs cycles of its ops until the run ends closest
to ``--seconds``, and prints the end-to-end metrics. With
``--trace 1`` it makes one pass (set-up plus one cycle) with every
public homocon function wrapped, then the same pass untraced, and prints
the per-layer metrics. Every op checks the program's outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Human-readable
lines with sample counts come before it, and the full record (run
metadata, every op, output digests, spans) goes to ``.perfbench/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("paper_presets", "sweep_nominal", "sweep_disturbed", "cyclic_cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# run metadata


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "homocon").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _metadata(args, np) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# ops


def run_op(op, cycle: int, clock, tracer=None) -> dict:
    """Run one op, closed loop; failures are recorded, never raised."""
    from workloads import CheckFailed, ExitCode

    rec = {"cycle": cycle, "op": op.name, "steps": 0, "ok": False, "error": None}
    sink = io.StringIO()  # the CLI's progress lines stay off our stdout
    with clock.interval() as iv:
        try:
            with contextlib.redirect_stdout(sink):
                if tracer is None:
                    steps = op.run()
                else:
                    steps = tracer.run_op(f"c{cycle}.{op.name}", f"bench.op.{op.name}", op.run)
            rec.update(steps=steps, ok=True)
        except CheckFailed as exc:
            rec["error"] = {"kind": "check", "detail": str(exc)}
        except ExitCode as exc:
            rec["error"] = {"kind": "exit", "detail": exc.code}
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rec["error"] = {"kind": "raised", "detail": type(exc).__name__,
                            "message": str(exc)}
    rec.update(wall_s=iv.wall_s, ref_s=iv.ref_s)
    return rec


def run_cycle(plan, cycle: int, clock, tracer=None) -> list:
    return [run_op(op, cycle, clock, tracer) for op in plan.ops]


def cycle_rate(records, time_key="ref_s") -> float:
    """Steps of completed ops per second of all ops, failed ones included."""
    return sum(r["steps"] for r in records) / sum(r[time_key] for r in records)


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def timed_run(args, workload, workdir: Path, import_s: float) -> dict:
    from reference import RefClock

    clock = RefClock()
    import_ref_s = clock.ref_s(import_s)
    setup_s, setup_ref_s, plan = [], [], None
    for i in range(SETUP_REPEATS):
        d = workdir / f"setup{i}"
        d.mkdir()
        with clock.interval() as iv:
            plan = workload.setup(args.seed, str(d))
        setup_s.append(iv.wall_s)
        setup_ref_s.append(iv.ref_s)

    cycles = []
    t_begin = time.perf_counter()
    while True:
        cycles.append(run_cycle(plan, len(cycles), clock))
        elapsed = time.perf_counter() - t_begin
        # stop where the run ends closest to --seconds
        if len(cycles) >= workload.min_cycles and elapsed * (1 + 0.5 / len(cycles)) > args.seconds:
            break

    ops = [r for c in cycles for r in c]
    rates = [cycle_rate(c) for c in cycles]
    failed = sum(not r["ok"] for r in ops)
    metrics = {
        "setup_s": (import_ref_s + statistics.median(setup_ref_s), "s", SETUP_REPEATS),
        "steps_per_s": (statistics.median(rates), "1/s", len(rates)),
        "ok_ratio": ((len(ops) - failed) / len(ops), "ratio", len(ops)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    wall_rates = [cycle_rate(c, "wall_s") for c in cycles]
    return {
        "metrics": metrics,
        "wall_metrics": {
            "setup_s": (import_s + statistics.median(setup_s), "s", SETUP_REPEATS),
            "steps_per_s": (statistics.median(wall_rates), "1/s", len(wall_rates)),
        },
        "ops": ops,
        "import_s": import_s,
        "setup_repeats_s": setup_s,
        "setup_repeats_ref_s": setup_ref_s,
        "cycle_steps_per_s": rates,
        "cycle_steps_per_wall_s": wall_rates,
        "measured_s": time.perf_counter() - t_begin,
        "info": plan.info,
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def traced_run(args, workload, workdir: Path, import_s: float) -> dict:
    from reference import RefClock
    from tracing import Tracer, per_layer_metrics

    clock = RefClock()

    # The traced pass runs first, so cold-start costs land in it and the
    # overhead ratio errs high rather than low.
    def one_pass(tag: str, cycle: int, tracer=None):
        """Set-up plus one cycle; returns (plan, op records, reference seconds)."""
        d = workdir / tag
        d.mkdir()
        with clock.interval() as iv:
            if tracer is None:
                plan = workload.setup(args.seed, str(d))
            else:
                plan = tracer.run_op("setup", "bench.setup",
                                     lambda: workload.setup(args.seed, str(d)))
        records = run_cycle(plan, cycle, clock, tracer)
        return plan, records, iv.ref_s + sum(r["ref_s"] for r in records)

    tracer = Tracer()
    tracer.install()
    plan, traced_ops, traced_s = one_pass("traced", 0, tracer)
    tracer.uninstall()
    untraced_plan, untraced_ops, untraced_s = one_pass("untraced", 1)
    if untraced_plan.info != plan.info:
        untraced_ops.append({"cycle": 1, "op": "determinism", "steps": 0, "ok": False,
                             "wall_s": 0.0, "ref_s": 0.0, "error": {
                                 "kind": "check", "detail": "outputs differ between passes"}})

    spans_path = OUT / f"{_stem(args)}.spans.jsonl"
    tracer.dump(str(spans_path))
    metrics = per_layer_metrics(tracer.spans, traced_s / untraced_s)
    return {
        "metrics": {k: (v, unit, 1) for k, (v, unit) in metrics.items()},
        "ops": traced_ops + untraced_ops,
        "import_s": import_s,
        "traced_pass_ref_s": traced_s,
        "untraced_pass_ref_s": untraced_s,
        "wrapped_bindings": tracer.wrapped,
        "spans_file": spans_path.name,
        "info": plan.info,
    }


# ---------------------------------------------------------------------------


def _stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "homocon" / "__init__.py").is_file():
        print(f"error: no homocon sources under {SRC}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import numpy as np

    import homocon
    from workloads import WORKLOADS

    import_s = time.perf_counter() - t0
    if Path(homocon.__file__).resolve().parent != (SRC / "homocon").resolve():
        print(f"error: imported homocon from {homocon.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        run = (traced_run if args.trace else timed_run)(args, workload, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = run.pop("ops")
    failed = [r for r in ops if not r["ok"]]
    correct = not any(r["error"]["kind"] == "check" for r in failed)
    record = {
        "metadata": dict(_metadata(args, np), load_before=load_before,
                         load_after=os.getloadavg()),
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "failures": sorted({json.dumps(r["error"], sort_keys=True) for r in failed}),
        "ops": ops,
        **run,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in run["metrics"].items()},
    }
    results_path = OUT / f"{_stem(args)}.json"
    results_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(ops)}  failed {len(failed)}  correct {correct}")
    for err in record["failures"]:
        print(f"failure: {err}")
    for name, (value, unit, n) in run["metrics"].items():
        print(f"{name} {value:.6g} {unit} (n={n})")
    for name, (value, unit, n) in run.get("wall_metrics", {}).items():
        print(f"{name}.wall {value:.6g} {unit} (n={n}, wall clock, not rescaled)")
    print(f"fail_ratio {len(failed) / len(ops):.6g} ratio (n={len(ops)}, "
          f"{len(failed)} failed)")
    print(f"record: {results_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
