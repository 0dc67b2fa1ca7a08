"""The output digest tool on the cheapest workload: one seed repeats its
digest, another seed changes it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_digests_repeat_at_one_seed_and_differ_across_seeds():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digests.py"),
         "--seeds", "11,11,12", "--workloads", "cyclic_cli"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    lines = [line.split() for line in out.stdout.splitlines()]
    assert [line[:2] for line in lines] == [["11", "cyclic_cli"]] * 2 + [["12", "cyclic_cli"]]
    digests = [line[2] for line in lines]
    assert all(len(d) == 64 for d in digests)
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]
