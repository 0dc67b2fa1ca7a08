"""One sha256 per (seed, workload) over every output of the benchmark's
workloads, to show that a change keeps the program's outputs bit for bit.

    python tools/output_digests.py --seeds 11,12 [--workloads cyclic_cli,sweep_nominal]

It imports ``homocon`` from ``src/`` and the workloads from
``perfbench/workloads.py`` of the checkout it lies in, unchanged. Each
workload is set up from the seed in a fresh directory and runs one
cycle of its ops, whose own printing goes to standard error. Every ``BatchResult`` that
``homocon.simulate_batch`` returns (each array with its shape and
dtype, by field and axis name) and every file that a ``cli.main`` call
writes under its ``--output`` directory (by relative path, before the op
removes it) goes into the digest, in the order the ops make them. Two
checkouts with equal digests at a seed made the same outputs there. A
failed op stops the tool.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent  # the checkout
WORKLOADS = ("paper_presets", "sweep_nominal", "sweep_disturbed", "cyclic_cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, help="comma list of seeds")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    return p.parse_args(argv)


def _add(h, name: str, value) -> None:
    """Feed one named value (an array, None or text) into the digest."""
    h.update(name.encode() + b"\0")
    if value is None:
        h.update(b"None\0")
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}\0".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode() + b"\0")


def _add_batch(h, result) -> None:
    for field in ("times", "axis_names", "efirst_max", "hnorm", "phimin", "errsq_total"):
        value = getattr(result, field)
        if isinstance(value, dict):
            for axis in sorted(value):
                _add(h, f"batch.{field}.{axis}", value[axis])
        else:
            _add(h, f"batch.{field}", value)


def _add_files(h, out_dir: Path) -> None:
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        _add(h, f"file.{path.relative_to(out_dir).as_posix()}", path.read_bytes())


def digest(name: str, seed: int) -> str:
    """Set workload ``name`` up at ``seed``, run one cycle of its ops and
    return the sha256 of everything they produced."""
    import homocon
    import workloads

    h = hashlib.sha256()
    simulate_batch, cli_main = homocon.simulate_batch, workloads.cli.main

    def hashed_batch(*args, **kwargs):
        result = simulate_batch(*args, **kwargs)
        _add_batch(h, result)
        return result

    def hashed_main(argv=None):
        code = cli_main(argv)
        _add(h, "cli.argv0", argv[0])
        _add(h, "cli.exit", code)
        if "--output" in argv:
            _add_files(h, Path(argv[argv.index("--output") + 1]))
        return code

    homocon.simulate_batch, workloads.cli.main = hashed_batch, hashed_main
    try:
        with tempfile.TemporaryDirectory(prefix="digests-") as workdir, \
                contextlib.redirect_stdout(sys.stderr):
            plan = workloads.WORKLOADS[name].setup(seed, workdir)
            for op in plan.ops:
                _add(h, "op", op.name)
                _add(h, "steps", op.run())
    finally:
        homocon.simulate_batch, workloads.cli.main = simulate_batch, cli_main
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    for seed in (int(s) for s in args.seeds.split(",")):
        for name in args.workloads.split(","):
            print(f"{seed} {name} {digest(name, seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
