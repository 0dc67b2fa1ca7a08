import copy
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homocon.cli import (
    EXIT_BAD_INPUT,
    EXIT_INFEASIBLE,
    EXIT_OK,
    _preset_config,
    build_scenario,
    fit_unit_ball,
    main,
)

NAN = float("nan")
INF = float("inf")
PUBLISHED_P = [[0.0020, 0.0005], [0.0005, 0.0012]]
PUBLISHED_X = [[0.8281, -0.3107], [-0.3107, 0.9377]]
PUBLISHED_Y = [0.7502, 0.5000]


def small_config(**overrides):
    cfg = {
        "graph": {"num_followers": 1, "edges": [[1, 0, 1.0]]},
        "system": {"n": 2, "axes": ["X"]},
        "protocol": {
            "X": {
                "kind": "homogeneous_nonovershooting",
                "mu": -0.2,
                "lambda": 1.0,
                "P": PUBLISHED_P,
            }
        },
        "initial": {"X": [[0.0, 0.0], [-2.0, 1.0]]},
        "sim": {"dt": 1e-3, "horizon": 0.05, "integrator": "implicit_euler", "seed": 1},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# -- gains ------------------------------------------------------------------------

def test_gains_published_values(capsys):
    rc = main(["gains", "--n", "2", "--lambda", "1", "--mu", "-0.2"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "[1., 2.]" in out
    assert "[1.2, 1. ]" in out


def test_gains_scalar_case(capsys):
    rc = main(["gains", "--n", "1", "--lambda", "5"])
    assert rc == EXIT_OK
    assert "[5.]" in capsys.readouterr().out


def test_gains_cubic_case(capsys):
    rc = main(["gains", "--n", "3", "--lambda", "1"])
    assert rc == EXIT_OK
    assert "[1., 3., 3.]" in capsys.readouterr().out


def test_gains_bad_arguments_exit_two():
    assert main(["gains", "--n", "2", "--lambda", "-1"]) == EXIT_BAD_INPUT
    assert main(["gains", "--n", "2", "--lambda", "1", "--mu", "1.5"]) == EXIT_BAD_INPUT


# -- verify-lmi ---------------------------------------------------------------------

def test_verify_lmi_published_p_feasible(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    assert main(["verify-lmi", "--config", path]) == EXIT_OK
    assert "feasible=True" in capsys.readouterr().out


def test_verify_lmi_published_xy_feasible(tmp_path):
    cfg = small_config()
    cfg["protocol"] = {
        "X": {"kind": "homogeneous_consensus", "mu": -0.2, "X": PUBLISHED_X, "Y": PUBLISHED_Y}
    }
    path = write_config(tmp_path, cfg)
    assert main(["verify-lmi", "--config", path]) == EXIT_OK


def test_verify_lmi_explicit_gain_with_shape_matrix(tmp_path):
    # K = Y X^-1 and P = X^-1 satisfy the congruent P-form inequality
    cfg = small_config()
    cfg["protocol"] = {
        "X": {
            "kind": "homogeneous_consensus",
            "mu": -0.2,
            "K": [1.2630, 0.9517],
            "P": [[1.3791, 0.4569], [0.4569, 1.2178]],
        }
    }
    path = write_config(tmp_path, cfg)
    assert main(["verify-lmi", "--config", path]) == EXIT_OK


def test_linear_kind_accepts_explicit_gain(tmp_path):
    cfg = small_config()
    cfg["protocol"] = {"X": {"kind": "linear", "K": [1.263, 0.9517]}}
    path = write_config(tmp_path, cfg)
    out_dir = str(tmp_path / "out")
    assert main(["simulate", "--config", path, "--output", out_dir]) == EXIT_OK


def test_verify_lmi_solver_round_trip(tmp_path):
    # no matrices given: certificates are solved on the spot and verified
    cfg = small_config()
    cfg["protocol"] = {
        "X": {"kind": "homogeneous_consensus", "mu": -0.2},
    }
    path = write_config(tmp_path, cfg)
    assert main(["verify-lmi", "--config", path]) == EXIT_OK


def test_verify_lmi_negative_p_exit_three(tmp_path):
    cfg = small_config()
    cfg["protocol"]["X"]["P"] = [[-1.0, 0.0], [0.0, -1.0]]
    path = write_config(tmp_path, cfg)
    assert main(["verify-lmi", "--config", path]) == EXIT_INFEASIBLE


def test_verify_lmi_malformed_exit_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["verify-lmi", "--config", str(path)]) == EXIT_BAD_INPUT


def test_unknown_keys_rejected(tmp_path):
    cfg = small_config()
    cfg["extra_section"] = {}
    path = write_config(tmp_path, cfg)
    assert main(["verify-lmi", "--config", path]) == EXIT_BAD_INPUT

    cfg = small_config()
    cfg["protocol"]["X"]["typo_key"] = 1
    path = write_config(tmp_path, cfg)
    assert main(["verify-lmi", "--config", path]) == EXIT_BAD_INPUT


# -- simulate -------------------------------------------------------------------------

def test_simulate_writes_csv_and_summary(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    out_dir = str(tmp_path / "out")
    rc = main(["simulate", "--config", path, "--output", out_dir])
    assert rc == EXIT_OK
    assert os.path.exists(os.path.join(out_dir, "trajectory.csv"))
    summary = json.loads(open(os.path.join(out_dir, "summary.json")).read())
    assert summary["X"]["overshoot"] <= 1e-6
    assert "phi_min" in summary["X"]
    assert "wrote" in capsys.readouterr().out


def test_simulate_zero_error_settles_immediately(tmp_path):
    cfg = small_config()
    cfg["initial"] = {"X": [[1.0, 0.5], [1.0, 0.5]]}
    path = write_config(tmp_path, cfg)
    out_dir = str(tmp_path / "out")
    assert main(["simulate", "--config", path, "--output", out_dir]) == EXIT_OK
    summary = json.loads(open(os.path.join(out_dir, "summary.json")).read())
    assert summary["X"]["settling_time_tol1e-3"] == 0.0


def test_simulate_missing_section_exit_two(tmp_path):
    cfg = small_config()
    del cfg["initial"]
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path]) == EXIT_BAD_INPUT


def test_simulate_no_partial_output_on_bad_config(tmp_path):
    cfg = small_config()
    cfg["initial"] = {"X": [[0.0], [0.0]]}  # wrong dimension
    path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", path, "--output", str(out_dir)]) == EXIT_BAD_INPUT
    assert not out_dir.exists() or not list(out_dir.iterdir())


def test_simulate_rejects_unrooted_graph_and_nonfinite_times(tmp_path):
    cases = {
        # followers 1 and 2 only hear each other
        "unrooted": {
            "graph": {"num_followers": 2, "edges": [[1, 2, 1.0], [2, 1, 1.0]]},
            "initial": {"X": [[0.0, 0.0], [-2.0, 1.0], [-3.0, 1.0]]},
        },
        "nan_dt": {"sim": {"dt": float("nan"), "horizon": 0.05}},
        "inf_horizon": {"sim": {"dt": 1e-3, "horizon": float("inf")}},
    }
    for name, patch in cases.items():
        path = write_config(tmp_path, small_config(**patch), f"{name}.json")
        out_dir = tmp_path / name
        assert main(["simulate", "--config", path, "--output", str(out_dir)]) == EXIT_BAD_INPUT
        assert not out_dir.exists()


# each case: (command, edit applied to the config and the output directory)
BAD_INPUTS = {
    "unknown_output_key": ("simulate", lambda cfg, out: cfg["output"].update(typo="x.csv")),
    "simulate_missing_n": ("simulate", lambda cfg, out: cfg["system"].pop("n")),
    "verify_missing_n": ("verify-lmi", lambda cfg, out: cfg["system"].pop("n")),
    "missing_dt": ("simulate", lambda cfg, out: cfg["sim"].pop("dt")),
    "protocol_list": ("verify-lmi", lambda cfg, out: cfg.update(protocol=[cfg["protocol"]["X"]])),
    "csv_name_is_directory": ("simulate", lambda cfg, out: (out / "trajectory.csv").mkdir()),
    "axis_name_list": ("simulate", lambda cfg, out: cfg["system"].update(axes=[["X"]])),
    "disturbance_seed_string": (
        "simulate",
        lambda cfg, out: cfg.update(disturbance={"X": [0.0, 0.1], "seed": "abc"}),
    ),
    "no_axes": ("simulate", lambda cfg, out: cfg["system"].update(axes=[])),
    # counts and seeds must be JSON integers, not truncated floats
    "n_float": ("simulate", lambda cfg, out: cfg["system"].update(n=2.9)),
    "verify_n_float": ("verify-lmi", lambda cfg, out: cfg["system"].update(n=2.9)),
    "num_followers_float": (
        "simulate", lambda cfg, out: cfg["graph"].update(num_followers=1.5),
    ),
    "sim_seed_float": ("simulate", lambda cfg, out: cfg["sim"].update(seed=1.7)),
    "disturbance_seed_float": (
        "simulate",
        lambda cfg, out: cfg.update(disturbance={"X": [0.0, 0.1], "seed": 1.7}),
    ),
    # only a JSON boolean switches the P rescaling on or off
    "fit_unit_ball_string": (
        "simulate", lambda cfg, out: cfg["protocol"]["X"].update(fit_unit_ball="no"),
    ),
    "fit_unit_ball_integer": (
        "simulate", lambda cfg, out: cfg["protocol"]["X"].update(fit_unit_ball=1),
    ),
    # non-finite numbers would reach the CSV and make summary.json invalid
    "initial_nan": ("simulate", lambda cfg, out: cfg["initial"]["X"][1].__setitem__(0, NAN)),
    "disturbance_nan": ("simulate", lambda cfg, out: cfg.update(disturbance={"X": [0.0, NAN]})),
    "disturbance_inf": ("simulate", lambda cfg, out: cfg.update(disturbance={"X": [0.0, INF]})),
    "linear_gain_nan": (
        "simulate", lambda cfg, out: cfg["protocol"].update(X={"kind": "linear", "K": [NAN, 1.0]}),
    ),
    "edge_index_float": (
        "simulate", lambda cfg, out: cfg["graph"].update(edges=[[1.5, 0, 1.0]]),
    ),
    "edge_index_out_of_range": (
        "simulate", lambda cfg, out: cfg["graph"].update(edges=[[1, 0, 1.0], [2, 0, 1.0]]),
    ),
    "no_followers": ("simulate", lambda cfg, out: cfg["graph"].update(num_followers=0)),
    "object_in_initial": (
        "simulate", lambda cfg, out: cfg["initial"]["X"][1].__setitem__(0, {}),
    ),
    "p_infinite": (
        "verify-lmi", lambda cfg, out: cfg["protocol"]["X"].update(P=[[INF, 0.0], [0.0, 1.0]]),
    ),
    "object_in_p": (
        "verify-lmi", lambda cfg, out: cfg["protocol"]["X"].update(P=[[{}, 0.0], [0.0, 1.0]]),
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_two_without_partial_files(tmp_path, case):
    command, edit = BAD_INPUTS[case]
    cfg = small_config(output={})
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    edit(cfg, out_dir)
    before = sorted(p.name for p in out_dir.iterdir())
    argv = [command, "--config", write_config(tmp_path, cfg)]
    if command == "simulate":
        argv += ["--output", str(out_dir)]
    assert main(argv) == EXIT_BAD_INPUT
    assert sorted(p.name for p in out_dir.iterdir()) == before


def _paths(node, prefix=()):
    """Path of every key and list item below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


CONFIG_PATHS = list(_paths(small_config()))
MISSING = object()
MUTANTS = [NAN, INF, -INF, 0, -1, -2.5, "x", [], [1.0, 2.0], {}, MISSING]


def _mutate(cfg, path, value):
    """Replace (or with MISSING, delete) the node at ``path``; a path an
    earlier edit removed is skipped."""
    node, key = cfg, path[-1]
    try:
        for step in path[:-1]:
            node = node[step]
        node[key]  # raises if an earlier edit removed the node
    except (KeyError, IndexError, TypeError):
        return
    if not isinstance(node, (dict, list)):
        return
    if value is MISSING:
        del node[key]
    else:
        node[key] = copy.deepcopy(value)


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(["simulate", "verify-lmi"]),
    st.lists(st.tuples(st.sampled_from(CONFIG_PATHS), st.sampled_from(MUTANTS)),
             min_size=1, max_size=3),
)
def test_mutated_config_exits_cleanly(command, edits):
    cfg = copy.deepcopy(small_config())
    for path, value in edits:
        _mutate(cfg, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as fh:
            json.dump(cfg, fh)
        out_dir = os.path.join(tmp, "out")
        argv = [command, "--config", config]
        if command == "simulate":
            argv += ["--output", out_dir]
        code = main(argv)
        assert code in (0, 2, 3, 4)
        written = os.listdir(out_dir) if os.path.isdir(out_dir) else []
        assert not [name for name in written if name.endswith(".tmp")]
        if code == 0 and command == "simulate":
            with open(os.path.join(out_dir, "summary.json")) as fh:
                _strict_json(fh.read())


def test_simulate_cli_flag_overrides(tmp_path):
    path = write_config(tmp_path, small_config())
    out_dir = str(tmp_path / "out")
    rc = main(
        ["simulate", "--config", path, "--output", out_dir, "--horizon", "0.01",
         "--dt", "0.001", "--seed", "42"]
    )
    assert rc == EXIT_OK
    lines = open(os.path.join(out_dir, "trajectory.csv")).read().splitlines()
    assert len(lines) == 1 + 11 * 2  # 11 nodes, 2 agents


# -- scenario building ------------------------------------------------------------------

def test_build_scenario_solves_when_matrices_absent():
    cfg = small_config()
    del cfg["protocol"]["X"]["P"]
    scen = build_scenario(cfg)
    assert scen.axes[0].protocol.norm_ctx is not None


def test_fit_unit_ball_scales_into_ball():
    P = np.array([[1.5, 0.5], [0.5, 0.5]])
    errors = np.array([[-5.0, 1.0], [-2.0, 1.0]])
    P2 = fit_unit_ball(P, errors)
    for e in errors:
        assert np.sqrt(e @ P2 @ e) <= 0.9 + 1e-12


def test_preset_configs_build():
    for run in ("homogeneous_nominal", "homogeneous_robust", "linear_disturbed",
                "linear_nominal"):
        cfg = _preset_config(run)
        cfg["sim"]["horizon"] = 0.01
        scen = build_scenario(cfg)
        assert len(scen.axes) == 2
