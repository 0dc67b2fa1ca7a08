"""The layer timer's record, from one short run of each layer (no timing
is asserted)."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_layers.py"
_spec = importlib.util.spec_from_file_location("bench_layers", _PATH)
bench_layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_layers)


def test_record_holds_every_block_and_layer(tmp_path, capsys):
    out = tmp_path / "layers.json"
    assert bench_layers.main(["--runs", "1", "--seconds", "0.001", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert json.loads(capsys.readouterr().out) == record
    shapes = {name: (b["rows"], b["retired"], b["groups"], b["n"]) for name, b in record["blocks"].items()}
    # the 99 resting rows of sweep_300x1_rest leave its working set
    assert shapes == {
        "presets_6x2": (6, 0, 2, 2), "cyclic_8x2": (8, 0, 2, 3), "cyclic_12x2": (12, 0, 2, 3),
        "sweep_90x1": (90, 0, 1, 2), "sweep_300x1": (300, 0, 1, 2), "sweep_300x1_rest": (201, 99, 1, 2),
    }
    for block in record["blocks"].values():
        assert set(block["layers"]) == {"residual", "newton", "log_norms_cold", "log_norms_warm",
                                        "control_input_many", "step_implicit"}
        for t in block["layers"].values():
            assert 0.0 < t["q1_us"] <= t["median_us"] <= t["q3_us"]
            assert t["calls_per_run"] >= 1
    assert set(record["derive"]) == {"sweep_90x1", "sweep_300x1", "sweep_300x1_rest"}
    for t in record["derive"].values():
        assert t["nodes"] == 257 and 0.0 < t["median_us"]
    certs = record["certificates"]
    assert certs["mu"] == -0.5
    for solver in ("solve_lmi_p", "solve_lmi_xy"):
        assert set(certs[solver]) == {f"n{n}" for n in range(2, 9)}
        assert all(0.0 < t["median_us"] for t in certs[solver].values())
    csv = record["csv"]
    assert csv["nodes"] == 512 and csv["bytes"] > 512 * 100
    assert csv["mb_per_s"] == csv["bytes"] / csv["median_us"] > 0.0
