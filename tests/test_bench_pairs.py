"""The pair runner's summaries and claim rule, on synthetic numbers (no
benchmark run)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_parse_seeds():
    assert bench_pairs.parse_seeds("501-505") == [501, 502, 503, 504, 505]
    assert bench_pairs.parse_seeds("7-7") == [7]
    assert bench_pairs.parse_seeds("3,1,9") == [3, 1, 9]
    assert bench_pairs.parse_seeds("12") == [12]


def test_summary_quartiles():
    assert bench_pairs.summary([4.0]) == {"runs": [4.0], "median": 4.0, "q1": 4.0, "q3": 4.0}
    s = bench_pairs.summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s["q1"], s["median"], s["q3"]) == (2.0, 3.0, 4.0)
    s = bench_pairs.summary([1.0, 2.0, 3.0, 4.0])
    assert (s["q1"], s["median"], s["q3"]) == (1.75, 2.5, 3.25)


def test_compare_higher_is_better():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0]
    change = [110.0, 101.0, 108.0, 109.0, 111.0]
    out = bench_pairs.compare(parent, change, higher=True)
    assert out["pairs_change_better"] == 4  # the second pair is lost
    assert out["ratio_of_medians"] == pytest.approx(109.0 / 100.0)
    # parent IQR 101 - 99 = 2, median gap +9
    assert out["median_gap_over_parent_iqr"] == pytest.approx(4.5)
    loss = bench_pairs.compare(change, parent, higher=True)
    assert loss["pairs_change_better"] == 1
    assert loss["median_gap_over_parent_iqr"] < 0.0


def test_compare_lower_is_better():
    parent = [2.0, 2.2, 1.8, 2.1, 1.9]
    change = [1.5, 1.6, 1.4, 2.5, 1.5]
    out = bench_pairs.compare(parent, change, higher=False)
    assert out["pairs_change_better"] == 4
    assert out["ratio_of_medians"] == pytest.approx(1.5 / 2.0)
    # a lower median is a gain: the gap is positive
    assert out["median_gap_over_parent_iqr"] == pytest.approx(0.5 / 0.2)
    assert bench_pairs.compare(change, parent, higher=False)["median_gap_over_parent_iqr"] < 0.0


def test_compare_without_spread_or_scale():
    out = bench_pairs.compare([0.0, 0.0], [1.0, 0.0], higher=True)
    assert out["pairs_change_better"] == 1
    assert "ratio_of_medians" not in out  # the parent's median is 0
    assert "median_gap_over_parent_iqr" not in out  # the parent's IQR is 0


def _entry(ratio, pairs, gap):
    return {"ratio_of_medians": ratio, "pairs_change_better": pairs,
            "median_gap_over_parent_iqr": gap}


def test_claim_follows_the_metric_direction():
    met = bench_pairs.claim_met
    # higher is better: the ratio must reach the target
    assert met(_entry(1.10, 10, 3.0), 1.06, True, 10)
    assert not met(_entry(1.05, 10, 3.0), 1.06, True, 10)
    assert not met(_entry(0.90, 10, 3.0), 1.06, True, 10)
    # lower is better: a gain is a ratio below 1, at most 1 / target
    assert met(_entry(0.90, 10, 3.0), 1.06, False, 10)
    assert not met(_entry(0.95, 10, 3.0), 1.06, False, 10)
    assert not met(_entry(1.10, 10, 3.0), 1.06, False, 10)
    # and in either direction 9 of 10 pairs and a gap above the IQR
    assert met(_entry(1.10, 9, 1.01), 1.06, True, 10)
    assert not met(_entry(1.10, 8, 3.0), 1.06, True, 10)
    assert not met(_entry(1.10, 10, 1.0), 1.06, True, 10)
    assert not met({"ratio_of_medians": 1.10, "pairs_change_better": 10}, 1.06, True, 10)
    assert not met({"pairs_change_better": 10, "median_gap_over_parent_iqr": 3.0}, 1.06, False, 10)


def test_direction_of_unlisted_metrics():
    directions = {"steps_per_s": True, "setup_s": False}
    assert bench_pairs.higher_is_better("steps_per_s", directions)
    assert not bench_pairs.higher_is_better("setup_s", directions)
    assert bench_pairs.higher_is_better("attempted", directions)
    assert not bench_pairs.higher_is_better("failed", directions)
    assert not bench_pairs.higher_is_better("layer.cli.self_s", directions)


def test_wall_clock_lines():
    # the lines perfbench/run.py prints before its JSON line
    lines = [
        "workload paper_presets  seed 11  trace 0  ops 8  failed 0  correct True",
        "setup_s 0.194 s (n=3)",
        "steps_per_s 15961.2 1/s (n=2)",
        "steps_per_s.wall 14873.5 1/s (n=2, wall clock, not rescaled)",
        "setup_s.wall 0.201 s (n=3, wall clock, not rescaled)",
        "fail_ratio 0 ratio (n=8, 0 failed)",
        "record: .perfbench/paper_presets-seed11-trace0-pid1.json",
    ]
    assert bench_pairs.wall_metrics(lines) == {"steps_per_s.wall": 14873.5, "setup_s.wall": 0.201}
    assert bench_pairs.wall_metrics(["steps_per_s 1 1/s (n=1)"]) == {}
    directions = {"steps_per_s": True, "setup_s": False}
    assert bench_pairs.higher_is_better("steps_per_s.wall", directions)
    assert not bench_pairs.higher_is_better("setup_s.wall", directions)


def test_reproduce_paper_pairs(tmp_path, monkeypatch):
    # K alternating pairs of stand-in runs, summarised like the benchmark's
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        root.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": "peak_rss_mb", "better": "lower"}], "per_layer": []}))
    calls = []

    def fake(root):
        calls.append(root.name)
        k = len(calls)
        if root == parent:
            return {"wall_s": 5.0 + 0.1 * k, "peak_rss_mb": 60.0}
        return {"wall_s": 4.0 + 0.1 * k, "peak_rss_mb": 50.0 + k}

    monkeypatch.setattr(bench_pairs, "run_reproduce_paper", fake)
    out = tmp_path / "record.json"
    argv = ["--parent", str(parent), "--change", str(change), "--reproduce-paper", "4",
            "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert calls == ["parent", "change", "change", "parent"] * 2
    got = json.loads(out.read_text())["reproduce_paper"]
    assert got["first_in_pair"] == ["parent", "change"] * 2
    wall = got["wall_s"]
    assert wall["parent"]["runs"] == pytest.approx([5.1, 5.4, 5.5, 5.8])
    assert wall["change"]["runs"] == pytest.approx([4.2, 4.3, 4.6, 4.7])
    assert wall["pairs_change_better"] == 4  # lower is better
    assert got["peak_rss_mb"]["change"]["runs"] == [52.0, 53.0, 56.0, 57.0]
    assert got["peak_rss_mb"]["pairs_change_better"] == 4
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(argv + ["--seeds", "1-2"])
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["--parent", "p", "--change", "c", "--out", "o"])


def _stub_checkout(root, body):
    """A checkout whose ``homocon.cli`` runs ``body`` (no homocon code)."""
    package = root / "src" / "homocon"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("import sys\nfrom pathlib import Path\n" + body)
    return root


def test_reproduce_paper_run_measures_the_child(tmp_path):
    # the run imports the checkout's src/, writes into a fresh output
    # directory, and its peak RSS is the child's own
    ok = _stub_checkout(tmp_path / "ok", (
        "assert sys.argv[1:3] == ['reproduce-paper', '--output']\n"
        "assert not any(Path(sys.argv[3]).iterdir())\n"
        "(Path(sys.argv[3]) / 'summary.json').write_text('{}')\n"
        "block = bytearray(64 << 20)\n"))
    got = bench_pairs.run_reproduce_paper(ok)
    assert set(got) == {"wall_s", "peak_rss_mb"}
    assert got["wall_s"] > 0.0
    assert 64.0 < got["peak_rss_mb"] < 1024.0
    failing = _stub_checkout(tmp_path / "failing", "sys.exit('no presets')\n")
    with pytest.raises(RuntimeError, match="exited 1"):
        bench_pairs.run_reproduce_paper(failing)
