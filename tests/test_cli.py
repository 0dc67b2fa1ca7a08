import contextlib
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
    EXIT_INTEGRATION,
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
    # rejected before the chain's (n, n) matrices are allocated
    assert main(["gains", "--n", str(10**6), "--lambda", "1"]) == EXIT_BAD_INPUT


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


def test_verify_lmi_exhaustive_search_exit_three(tmp_path, capsys):
    # at n = 8, mu = -1 the XY search finds no certificate: the scan and
    # every projection pass run, and the command ends infeasible
    cfg = small_config()
    cfg["system"]["n"] = 8
    cfg["protocol"] = {"X": {"kind": "homogeneous_consensus", "mu": -1.0}}
    path = write_config(tmp_path, cfg)
    assert main(["verify-lmi", "--config", path]) == EXIT_INFEASIBLE
    assert "infeasible:" in capsys.readouterr().err


def test_verify_lmi_malformed_exit_two(tmp_path):
    path = tmp_path / "bad.json"
    # not JSON, and a root that is not an object
    for text in ("{not json", json.dumps([small_config()])):
        path.write_text(text)
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


def _fit_overflowing_errors(cfg, out):
    cfg["protocol"]["X"]["fit_unit_ball"] = True
    cfg["initial"]["X"] = [[1.7e308, 0.0], [-1.7e308, 0.0]]


def _fit_huge_errors(cfg, out):
    cfg["protocol"]["X"]["fit_unit_ball"] = True
    cfg["initial"]["X"] = [[0.0, 0.0], [1e200, 0.0]]


def _fit_subnormal_p(cfg, out):
    # e' P e is finite, but P scaled to fit it is subnormal
    cfg["protocol"]["X"]["fit_unit_ball"] = True
    cfg["initial"]["X"] = [[0.0, 0.0], [3e154, 0.0]]


def _second_axis(cfg, section):
    """Adds axis Y to system.axes and gives it a copy of X's entry in
    ``section`` only."""
    cfg["system"]["axes"] = ["X", "Y"]
    cfg[section]["Y"] = cfg[section]["X"]


def _axis_name_comma(cfg, out):
    cfg["system"]["axes"] = ["X,Y"]
    for section in ("protocol", "initial"):
        cfg[section]["X,Y"] = cfg[section].pop("X")


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
    "verify_huge_n": ("verify-lmi", lambda cfg, out: cfg["system"].update(n=10**6)),
    "num_followers_float": (
        "simulate", lambda cfg, out: cfg["graph"].update(num_followers=1.5),
    ),
    "sim_seed_float": ("simulate", lambda cfg, out: cfg["sim"].update(seed=1.7)),
    "disturbance_seed_float": (
        "simulate",
        lambda cfg, out: cfg.update(disturbance={"X": [0.0, 0.1], "seed": 1.7}),
    ),
    # numpy's generators take only nonnegative seeds
    "sim_seed_negative": ("simulate", lambda cfg, out: cfg["sim"].update(seed=-1)),
    "sim_seed_negative_beside_disturbance_seed": (
        "simulate",
        lambda cfg, out: (cfg["sim"].update(seed=-1),
                          cfg.update(disturbance={"X": [0.0, 0.1], "seed": 3})),
    ),
    "disturbance_seed_negative": (
        "simulate",
        lambda cfg, out: cfg.update(disturbance={"X": [0.0, 0.1], "seed": -3}),
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
    # agent indices are JSON integers and weights JSON numbers
    "edge_index_bool": ("simulate", lambda cfg, out: cfg["graph"].update(edges=[[True, False, 1.0]])),
    "edge_weight_string": ("simulate", lambda cfg, out: cfg["graph"].update(edges=[[1, 0, "1.0"]])),
    # every follower needs an incoming edge: refused before the weights are allocated
    "num_followers_huge": ("simulate", lambda cfg, out: cfg["graph"].update(num_followers=10**9)),
    # a comma in an axis name would add a field to the CSV's data rows
    "axis_name_comma": ("simulate", _axis_name_comma),
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
    # real parameters must be JSON numbers: float() would take "0.001" and true
    "dt_string": ("simulate", lambda cfg, out: cfg["sim"].update(dt="0.001")),
    "dt_bool": ("simulate", lambda cfg, out: cfg["sim"].update(dt=True, horizon=2.0)),
    "horizon_string": ("simulate", lambda cfg, out: cfg["sim"].update(horizon="0.05")),
    "mu_string": ("simulate", lambda cfg, out: cfg["protocol"]["X"].update(mu="-0.2")),
    "lambda_string": ("simulate", lambda cfg, out: cfg["protocol"]["X"].update({"lambda": "1"})),
    "verify_mu_string": ("verify-lmi", lambda cfg, out: cfg["protocol"]["X"].update(mu="-0.2")),
    # an integer too large for a float used to escape as an OverflowError
    "matrix_huge_int": (
        "simulate", lambda cfg, out: cfg["initial"]["X"][1].__setitem__(0, -(10**400)),
    ),
    "matrix_string": (
        "simulate",
        lambda cfg, out: cfg["protocol"]["X"].update(P=[[str(x) for x in r] for r in PUBLISHED_P]),
    ),
    # runs too large to record are refused before anything is allocated
    "horizon_huge": ("simulate", lambda cfg, out: cfg["sim"].update(horizon=1e12)),
    "dt_tiny": ("simulate", lambda cfg, out: cfg["sim"].update(dt=1e-300, horizon=1.0)),
    # implicit Euler is the only scheme
    "integrator_rk4": ("simulate", lambda cfg, out: cfg["sim"].update(integrator="rk4")),
    "integrator_explicit_rk4": (
        "simulate", lambda cfg, out: cfg["sim"].update(integrator="explicit_rk4"),
    ),
    # finite states whose difference, the initial error, overflows
    "initial_error_overflow": (
        "simulate", lambda cfg, out: cfg["initial"].update(X=[[1.7e308, 0.0], [-1.7e308, 0.0]]),
    ),
    # ... and so must not reach fit_unit_ball, which would square it
    "fit_unit_ball_error_overflow": ("simulate", _fit_overflowing_errors),
    # a finite error whose weighted norm overflows cannot be fitted either
    "fit_unit_ball_norm_overflow": ("simulate", _fit_huge_errors),
    "fit_unit_ball_subnormal_p": ("simulate", _fit_subnormal_p),
    # finite values too large for the gain or the certificate arithmetic
    "lambda_huge": ("simulate", lambda cfg, out: cfg["protocol"]["X"].update({"lambda": 1e300})),
    "verify_lambda_huge": (
        "verify-lmi", lambda cfg, out: cfg["protocol"]["X"].update({"lambda": 1e300}),
    ),
    "p_diagonal_huge": (
        "verify-lmi",
        lambda cfg, out: cfg["protocol"]["X"].update(P=[[0.0020, 0.0005], [0.0005, 1.7e308]]),
    ),
    "simulate_p_diagonal_huge": (
        "simulate",
        lambda cfg, out: cfg["protocol"]["X"].update(P=[[1.7e308, 0.0005], [0.0005, 0.0012]]),
    ),
}


# each protocol kind takes only the keys it reads
IGNORED_KEYS = {
    "linear_mu": {"kind": "linear", "lambda": 1.0, "mu": -0.2},
    "linear_fit_unit_ball": {"kind": "linear", "lambda": 1.0, "fit_unit_ball": True},
    "linear_p": {"kind": "linear", "lambda": 1.0, "P": PUBLISHED_P},
    "nonovershooting_k": {"kind": "homogeneous_nonovershooting", "mu": -0.2, "lambda": 1.0,
                          "K": [1.0, 2.0]},
    "nonovershooting_xy": {"kind": "homogeneous_nonovershooting", "mu": -0.2, "lambda": 1.0,
                           "X": PUBLISHED_X, "Y": PUBLISHED_Y},
    # P without K would be dropped for a solved certificate
    "consensus_p_alone": {"kind": "homogeneous_consensus", "mu": -0.2, "P": PUBLISHED_P},
    "consensus_k_alone": {"kind": "homogeneous_consensus", "mu": -0.2, "K": [1.263, 0.9517]},
    "consensus_lambda": {"kind": "homogeneous_consensus", "mu": -0.2, "lambda": 1.0},
}
BAD_INPUTS.update(
    (f"{prefix}protocol_{case}",
     (command, lambda cfg, out, sec=sec: cfg["protocol"].update(X=sec)))
    for case, sec in IGNORED_KEYS.items()
    for prefix, command in (("", "simulate"), ("verify_", "verify-lmi"))
)
# simulate runs only the axes in system.axes and takes no entry for another
BAD_INPUTS["protocol_for_other_axis"] = (
    "simulate", lambda cfg, out: cfg["protocol"].update(Z={"kind": "linear", "lambda": 1.0}),
)
BAD_INPUTS["protocol_of_unknown_kind_for_other_axis"] = (
    "simulate", lambda cfg, out: cfg["protocol"].update(Z={"kind": "pid"}),
)
BAD_INPUTS["initial_for_other_axis"] = (
    "simulate", lambda cfg, out: cfg["initial"].update(Z=[[0.0, 0.0], [1.0, 0.0]]),
)
BAD_INPUTS.update({
    "duplicate_axis_names": ("simulate", lambda cfg, out: cfg["system"].update(axes=["X", "X"])),
    "missing_protocol_for_axis": ("simulate", lambda cfg, out: _second_axis(cfg, "initial")),
    "missing_initial_for_axis": ("simulate", lambda cfg, out: _second_axis(cfg, "protocol")),
    "protocol_entry_list": (
        "simulate", lambda cfg, out: cfg["protocol"].update(X=[cfg["protocol"]["X"]]),
    ),
    "linear_without_lambda_or_k": (
        "simulate", lambda cfg, out: cfg["protocol"].update(X={"kind": "linear"}),
    ),
    "trajectory_csv_number": ("simulate", lambda cfg, out: cfg["output"].update(trajectory_csv=3)),
    # verify-lmi checks the keys of the sections it does not read too
    "verify_unknown_graph_key": ("verify-lmi", lambda cfg, out: cfg.update(graph={"x": 1})),
    "verify_unknown_system_key": ("verify-lmi", lambda cfg, out: cfg["system"].update(bogus=1)),
    "verify_unknown_sim_key": ("verify-lmi", lambda cfg, out: cfg["sim"].update(bogus=1)),
    "verify_unknown_output_key": ("verify-lmi", lambda cfg, out: cfg["output"].update(bogus=1)),
})


def _exit_code_without_files(tmp_path, command, edit):
    """Exit code of ``command`` on ``small_config`` changed by ``edit``;
    asserts that the run left its output directory as it was."""
    cfg = small_config(output={})
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    edit(cfg, out_dir)
    before = sorted(p.name for p in out_dir.iterdir())
    argv = [command, "--config", write_config(tmp_path, cfg)]
    if command == "simulate":
        argv += ["--output", str(out_dir)]
    code = main(argv)
    assert sorted(p.name for p in out_dir.iterdir()) == before
    return code


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_two_without_partial_files(tmp_path, case):
    assert _exit_code_without_files(tmp_path, *BAD_INPUTS[case]) == EXIT_BAD_INPUT


# consensus certificates whose gain has the wrong sign
INFEASIBLE_CERTIFICATES = {
    "xy": {"kind": "homogeneous_consensus", "mu": -0.2, "X": PUBLISHED_X, "Y": [-0.7502, -0.5]},
    "pk": {"kind": "homogeneous_consensus", "mu": -0.2,
           "P": [[1.3791, 0.4569], [0.4569, 1.2178]], "K": [-1.263, -0.9517]},
}


@pytest.mark.parametrize("command", ["simulate", "verify-lmi"])
@pytest.mark.parametrize("case", sorted(INFEASIBLE_CERTIFICATES))
def test_infeasible_certificate_exits_three_without_files(tmp_path, case, command):
    sec = INFEASIBLE_CERTIFICATES[case]
    code = _exit_code_without_files(tmp_path, command, lambda cfg, out: cfg["protocol"].update(X=sec))
    assert code == EXIT_INFEASIBLE


@pytest.mark.parametrize(
    "csv_name, summary_name",
    [("same.txt", "same.txt"), ("./a.csv", "a.csv"), ("sub/../a.csv", "a.csv")],
)
def test_colliding_output_names_exit_two_before_integrating(
    tmp_path, monkeypatch, capsys, csv_name, summary_name
):
    # the summary would be written over the CSV: refused before the run
    import homocon.cli as cli

    monkeypatch.setattr(cli, "simulate", lambda scenario: pytest.fail("integrated"))
    cfg = small_config(output={"trajectory_csv": csv_name, "summary": summary_name})
    out_dir = tmp_path / "out"
    argv = ["simulate", "--config", write_config(tmp_path, cfg), "--output", str(out_dir)]
    assert main(argv) == EXIT_BAD_INPUT
    assert "name one file" in capsys.readouterr().err
    assert not out_dir.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_overflowing_step_exits_four_without_files(tmp_path):
    cfg = small_config(output={})
    cfg["sim"].update(dt=1e300, horizon=1e300)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["simulate", "--config", write_config(tmp_path, cfg), "--output", str(out_dir)]
    assert main(argv) == EXIT_INTEGRATION
    assert list(out_dir.iterdir()) == []


# the closed-form step of a degree-zero law cancels all but about
# 1 / (1 + K beta) of its terms, so a dt that makes beta huge is refused
CANCELLING_STEPS = {
    "linear_dt_1e40": ({"kind": "linear", "lambda": 1.0}, 1e40),
    "degree_zero_dt_1e60": (
        {"kind": "homogeneous_consensus", "mu": 0.0, "X": PUBLISHED_X, "Y": PUBLISHED_Y}, 1e60,
    ),
}


@pytest.mark.parametrize("case", sorted(CANCELLING_STEPS))
def test_cancelling_closed_form_step_exits_four_without_files(tmp_path, case):
    protocol, dt = CANCELLING_STEPS[case]
    cfg = small_config(output={})
    cfg["protocol"]["X"] = protocol
    cfg["sim"].update(dt=dt, horizon=5 * dt)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["simulate", "--config", write_config(tmp_path, cfg), "--output", str(out_dir)]
    assert main(argv) == EXIT_INTEGRATION
    assert list(out_dir.iterdir()) == []


def _linear_huge_error(cfg):
    cfg["protocol"]["X"] = {"kind": "linear", "lambda": 1.0}
    cfg["initial"]["X"] = [[0.0, 0.0], [1e308, 1e308]]


NONFINITE_STATES = {
    # the leader's open-loop state overflows
    "leader_overflow": lambda cfg: cfg["initial"].update(X=[[1.79e308, 1.79e308]] * 2),
    # the first implicit step of a linear law overflows
    "linear_huge_error": _linear_huge_error,
}


@pytest.mark.parametrize("case", sorted(NONFINITE_STATES))
def test_nonfinite_states_exit_four_without_files(tmp_path, case):
    cfg = small_config(output={})
    NONFINITE_STATES[case](cfg)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["simulate", "--config", write_config(tmp_path, cfg), "--output", str(out_dir)]
    assert main(argv) == EXIT_INTEGRATION
    assert list(out_dir.iterdir()) == []


def _nan_overshoot(summarize):
    def summary_with_nan(traj, scenario):
        summary = summarize(traj, scenario)
        summary[scenario.axes[0].name]["overshoot"] = NAN
        return summary

    return summary_with_nan


def test_simulate_nonfinite_summary_exits_four_without_files(tmp_path, monkeypatch):
    import homocon.cli as cli

    monkeypatch.setattr(cli, "_summarize", _nan_overshoot(cli._summarize))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    config = write_config(tmp_path, small_config(output={}))
    assert main(["simulate", "--config", config, "--output", str(out_dir)]) == EXIT_INTEGRATION
    assert list(out_dir.iterdir()) == []


def test_reproduce_paper_nonfinite_summary_exits_four_without_files(tmp_path, monkeypatch):
    import homocon.cli as cli

    preset_config = cli._preset_config

    def short(run):
        cfg = preset_config(run)
        cfg["sim"]["horizon"] = 0.01
        return cfg

    monkeypatch.setattr(cli, "_preset_config", short)
    monkeypatch.setattr(cli, "_summarize", _nan_overshoot(cli._summarize))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["reproduce-paper", "--output", str(out_dir)]) == EXIT_INTEGRATION
    assert list(out_dir.iterdir()) == []


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _count_writers(monkeypatch):
    """Count the CSV writers that simulate forks."""
    import homocon.simulation as simulation

    forks = []
    start = simulation._CsvWriter.start

    def counting(self, layout, fork):
        if fork:
            forks.append(1)
        start(self, layout, fork)

    monkeypatch.setattr(simulation._CsvWriter, "start", counting)
    return forks


def _long_config(**overrides):
    # 400 steps: more than one draw chunk, so the CSV is streamed
    cfg = small_config(**overrides)
    cfg["sim"]["horizon"] = 0.4
    return cfg


@pytest.mark.parametrize("config", [small_config, _long_config])
def test_temporary_names_never_overwrite_other_files(tmp_path, config):
    # the summary's temporary file once took the CSV's name
    # "s.json.tmp", and a user's "trajectory.csv.tmp" was overwritten
    # and then deleted
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "trajectory.csv.tmp").write_text("kept\n")
    for output in ({"trajectory_csv": "s.json.tmp", "summary": "s.json"}, {}):
        cfg = config(output=output)
        argv = ["simulate", "--config", write_config(tmp_path, cfg), "--output", str(out_dir)]
        assert main(argv) == EXIT_OK
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "s.json", "s.json.tmp", "summary.json", "trajectory.csv", "trajectory.csv.tmp"]
    assert (out_dir / "trajectory.csv.tmp").read_text() == "kept\n"
    for csv, summary in (("s.json.tmp", "s.json"), ("trajectory.csv", "summary.json")):
        assert (out_dir / csv).read_text().startswith("t,agent,axis,")
        assert "X" in json.loads((out_dir / summary).read_text())
    assert _no_children()


def test_output_files_take_the_umask_mode(tmp_path):
    out_dir = tmp_path / "out"
    old = os.umask(0o027)
    try:
        for config in (small_config, _long_config):
            argv = ["simulate", "--config", write_config(tmp_path, config()), "--output", str(out_dir)]
            assert main(argv) == EXIT_OK
            for name in ("trajectory.csv", "summary.json"):
                assert (out_dir / name).stat().st_mode & 0o777 == 0o640, name
    finally:
        os.umask(old)


def _fail_after_first_chunk(monkeypatch):
    import homocon.simulation as simulation

    calls = []
    step = simulation._Block.step_implicit

    def failing(self, *args):
        calls.append(1)
        if len(calls) == simulation._DRAW_CHUNK + 44:
            raise simulation.NonConvergentStep("injected")
        return step(self, *args)

    monkeypatch.setattr(simulation._Block, "step_implicit", failing)


def _fail_in_writer(monkeypatch):
    import errno

    import homocon.simulation as simulation

    def full(self, times, ks):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(simulation._CsvLayout, "text", full)


def _nan_summary(monkeypatch):
    import homocon.cli as cli

    monkeypatch.setattr(cli, "_summarize", _nan_overshoot(cli._summarize))


# each case: (patch, exit code, text on stderr)
STREAMED_FAILURES = {
    "nonconvergent_step": (_fail_after_first_chunk, EXIT_INTEGRATION, "integration failed"),
    "nonfinite_summary": (_nan_summary, EXIT_INTEGRATION, "non-finite summary"),
    "writer_fails": (_fail_in_writer, EXIT_BAD_INPUT, "cannot write output"),
}


@pytest.mark.parametrize("case", sorted(STREAMED_FAILURES))
def test_streamed_run_failures_leave_no_file_and_no_process(tmp_path, monkeypatch, capsys, case):
    patch, code, message = STREAMED_FAILURES[case]
    forks = _count_writers(monkeypatch)
    patch(monkeypatch)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    config = write_config(tmp_path, _long_config(output={}))
    assert main(["simulate", "--config", config, "--output", str(out_dir)]) == code
    assert message in capsys.readouterr().err
    assert forks == [1]
    assert _no_children()
    assert list(out_dir.iterdir()) == []


def test_reproduce_paper_streamed_failure_leaves_no_file_and_no_process(tmp_path, monkeypatch):
    import homocon.cli as cli

    preset_config = cli._preset_config

    def short(run):
        cfg = preset_config(run)
        cfg["sim"]["horizon"] = 0.3  # 300 steps: streamed
        return cfg

    monkeypatch.setattr(cli, "_preset_config", short)
    forks = _count_writers(monkeypatch)
    _nan_summary(monkeypatch)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["reproduce-paper", "--output", str(out_dir)]) == EXIT_INTEGRATION
    assert len(forks) == len(cli.PRESET_RUNS)
    assert _no_children()
    assert list(out_dir.iterdir()) == []


# -- signals and real write failures, in child processes --------------------------------


def _reproduce_paper(out_dir, **popen):
    """``homocon reproduce-paper`` as a child process in a session of its
    own, so that its process group holds it and its writers alone."""
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.Popen([sys.executable, "-m", "homocon.cli", "reproduce-paper", "--output", str(out_dir)],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True, **popen)


def _staged_bytes(out_dir):
    total = 0
    for f in out_dir.glob("*.tmp"):
        with contextlib.suppress(FileNotFoundError):
            total += f.stat().st_size
    return total


def test_main_runs_outside_the_main_thread():
    # only the main thread may set signal handlers: main sets none there
    import threading

    codes = []
    worker = threading.Thread(target=lambda: codes.append(main(["gains", "--n", "2", "--lambda", "1"])))
    worker.start()
    worker.join(timeout=60)
    assert codes == [EXIT_OK]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the CSV writer forks")
def test_sigterm_leaves_no_staged_file_and_no_writer(tmp_path):
    import signal
    import time

    out_dir = tmp_path / "out"
    proc = _reproduce_paper(out_dir)
    # the forked writer has formatted rows into a staged CSV
    deadline = time.monotonic() + 60.0
    while _staged_bytes(out_dir) < 10**6 and proc.poll() is None and time.monotonic() < deadline:
        time.sleep(0.02)
    assert proc.poll() is None, proc.stderr.read()
    proc.send_signal(signal.SIGTERM)
    proc.communicate(timeout=60)
    assert proc.returncode == -signal.SIGTERM
    assert list(out_dir.iterdir()) == []
    with pytest.raises(ProcessLookupError):  # nothing is left in its process group
        os.killpg(proc.pid, 0)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the CSV writer forks")
def test_file_size_limit_exits_2_and_leaves_nothing(tmp_path):
    resource = pytest.importorskip("resource")

    def limit():  # in the child alone
        resource.setrlimit(resource.RLIMIT_FSIZE, (2**20, 2**20))

    out_dir = tmp_path / "out"
    proc = _reproduce_paper(out_dir, preexec_fn=limit)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_BAD_INPUT
    assert b"File too large" in err
    assert list(out_dir.iterdir()) == []


def _paths(node, prefix=()):
    """Path of every key and list item below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


CONFIG_PATHS = list(_paths(small_config()))
MISSING = object()
MUTANTS = [NAN, INF, -INF, 0, -1, -2.5, 1e300, -1e300, 1e-300, 1.7e308,
           "x", [], [1.0, 2.0], {}, MISSING]


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


@settings(max_examples=50)
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


def test_negative_seed_flag_exits_two_without_files(tmp_path):
    # the robust preset draws its disturbances from the run's seed
    cfg = _preset_config("homogeneous_robust")
    cfg["sim"]["horizon"] = 0.01
    out_dir = tmp_path / "out"
    argv = ["simulate", "--config", write_config(tmp_path, cfg), "--output", str(out_dir),
            "--seed", "-5"]
    assert main(argv) == EXIT_BAD_INPUT
    assert not out_dir.exists()


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


def test_draws_take_seed_flag_then_disturbance_seed_then_sim_seed(tmp_path):
    runs = iter(range(8))

    def q_column(cfg, *flags):
        out_dir = tmp_path / f"out{next(runs)}"
        argv = ["simulate", "--config", write_config(tmp_path, cfg), "--output", str(out_dir)]
        assert main(argv + list(flags)) == EXIT_OK
        rows = (out_dir / "trajectory.csv").read_text().splitlines()[1:]
        return [row.rsplit(",", 1)[1] for row in rows]

    unseeded = small_config(disturbance={"X": [0.0, 0.1]})  # sim.seed is 1
    seeded = small_config(disturbance={"X": [0.0, 0.1], "seed": 3})
    assert q_column(seeded) == q_column(seeded, "--seed", "3")
    assert q_column(seeded, "--seed", "5") != q_column(seeded, "--seed", "9")
    assert q_column(unseeded) == q_column(seeded, "--seed", "1") != q_column(seeded)


# -- scenario building ------------------------------------------------------------------

def test_disturbance_seed_gives_each_axis_its_own_stream():
    # disturbance.seed becomes the scenario's seed, which seeds only the
    # draws: axis i draws from it + 7919 i, as from sim.seed without one
    from homocon.simulation import simulate

    cfg = _preset_config("homogeneous_robust")
    cfg["sim"]["horizon"] = 0.01
    cfg["disturbance"]["seed"] = 5
    scen = build_scenario(cfg)
    assert scen.seed == 5
    assert [ax.disturbance.seed for ax in scen.axes] == [None, None]
    traj = simulate(scen)
    x, y = (traj.axis(ax.name).disturbance[:-1, 1:] / ax.disturbance.amplitudes[1:]
            for ax in scen.axes)
    assert np.abs(x - y).min() > 1e-6


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
    # a NaN row has no norm to fit, in either row order
    for errors in ([[NAN, 0.0], [1.0, 1.0]], [[1.0, 1.0], [NAN, 0.0]]):
        with pytest.raises(ValueError, match="must be finite"):
            fit_unit_ball(0.01 * np.eye(2), np.array(errors))


def test_fitted_axes_build_one_norm_context_each(monkeypatch):
    # fit_unit_ball rescales the certificate's P before the axis's norm
    # context is built, so no context of the unfitted P is built first
    import homocon.cli as cli
    from homocon.certificates import solve_lmi_p, solve_lmi_xy
    from homocon.homogeneity import DilationGenerator
    from homocon.protocols import IntegratorChain, linear_gain

    built = []
    context = cli.HomogeneousNormContext

    def counted(gen, P):
        built.append(P)
        return context(gen, P)

    monkeypatch.setattr(cli, "HomogeneousNormContext", counted)
    cfg = _preset_config("homogeneous_robust")
    cfg["sim"]["horizon"] = 0.01
    cfg["protocol"]["Y"]["fit_unit_ball"] = True
    scen = build_scenario(cfg)
    assert len(built) == 2
    gen, chain = DilationGenerator(2, -1.0), IntegratorChain(2)
    certs = (solve_lmi_p(gen, chain.A, chain.B, linear_gain(2, 1.0)),
             solve_lmi_xy(gen, chain.A, chain.B))
    for ax, cert in zip(scen.axes, certs):
        fitted = fit_unit_ball(cert.P, ax.initial[1:] - ax.initial[0])
        assert not np.array_equal(fitted, cert.P), ax.name
        assert np.array_equal(ax.protocol.norm_ctx.P, fitted), ax.name


def test_preset_configs_build():
    for run in ("homogeneous_nominal", "homogeneous_robust", "linear_disturbed",
                "linear_nominal"):
        cfg = _preset_config(run)
        cfg["sim"]["horizon"] = 0.01
        scen = build_scenario(cfg)
        assert len(scen.axes) == 2
