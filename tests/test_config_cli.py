import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spsa_lab.cli import _write_csv, main
from spsa_lab.config import ConfigError, config_hash, load_config, validate_config


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MEANFLOW_TRIG = json.loads((CONFIGS / "meanflow_trig.json").read_text())


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run_cfg(theta0=1.0, n=200, **overrides):
    cfg = {
        "objective.kind": "quadratic1d",
        "step.alpha0": 0.1,
        "step.rho": 0.6,
        "gain.kind": "center_active",
        "gain.eps_bullet": 0.1,
        "gain.theta_ctr": [0.0],
        "gain.sigma_p": 1.0,
        "probe.base": "rademacher",
        "probe.mode": "iid",
        "seed.master": 7,
        "run.N": n,
        "run.theta0": [theta0],
        "run.stride": 1,
    }
    cfg.update(overrides)
    return cfg


def test_validate_rejects_unknown_key(tmp_path):
    cfg = run_cfg()
    cfg["run.bogus"] = 1
    with pytest.raises(ConfigError, match="run.bogus"):
        validate_config(cfg, "run")


def test_validate_names_offending_key():
    cfg = run_cfg()
    cfg["step.rho"] = 1.2
    with pytest.raises(ConfigError, match="step.rho"):
        validate_config(cfg, "run")


def test_validate_requires_gain_dependents():
    cfg = run_cfg()
    del cfg["gain.theta_ctr"]
    with pytest.raises(ConfigError, match="gain.theta_ctr"):
        validate_config(cfg, "run")


def test_validate_ensemble_invariants():
    cfg = {
        "objective.kind": "trig_quadratic1d",
        "step.alpha0": 0.1,
        "step.rho": 0.6,
        "gain.kind": "center_active",
        "gain.theta_ctr": [0.0],
        "gain.sigma_p": 1.0,
        "probe.base": "uniform",
        "seed.master": 1,
        "ensemble.M": 4,
        "ensemble.N": 100,
        "ensemble.N0": 200,
        "ensemble.eps_grid": [0.05, 0.07, 0.1],
        "ensemble.statistic": "grad",
        "ensemble.theta0_box": [-1, 1],
    }
    with pytest.raises(ConfigError, match="ensemble.N0"):
        validate_config(cfg, "experiment")
    cfg["ensemble.N0"] = 50
    validate_config(cfg, "experiment")
    cfg["ensemble.M"] = 1
    with pytest.raises(ConfigError, match="ensemble.M"):
        validate_config(cfg, "experiment")
    cfg["ensemble.M"] = 4
    cfg["ensemble.eps_grid"] = [0.1, 0.05]
    with pytest.raises(ConfigError, match="eps_grid"):
        validate_config(cfg, "experiment")


def test_validate_guard_threshold_floor():
    cfg = run_cfg(**{"run.guard_threshold": 10.0})
    with pytest.raises(ConfigError, match="guard_threshold"):
        validate_config(cfg, "run")


def test_config_hash_is_canonical():
    a = {"b.key": 1, "a.key": [1, 2]}
    b = {"a.key": [1, 2], "b.key": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"a.key": [1, 2], "b.key": 2})


def test_cli_run_writes_trajectory_and_manifest(tmp_path):
    cfg_path = write_cfg(tmp_path, run_cfg())
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = read_csv(out / "trajectory.csv")
    assert rows[0] == ["n", "theta_0", "alpha", "eps", "objective"]
    assert len(rows) == 202  # header + indices 0..200
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "run"
    assert manifest["config_hash"] == config_hash(load_config(cfg_path))
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["diverged_at"] is None


def test_cli_run_round_trips_doubles(tmp_path):
    cfg_path = write_cfg(tmp_path, run_cfg(n=50))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = read_csv(out / "trajectory.csv")[1:]
    from spsa_lab import (
        CenterActiveGain,
        ProbeGenerator,
        BaseNoise,
        StepSizeSchedule,
        quadratic_1d,
        run_batch,
    )
    from spsa_lab.exploration import derive_seed

    seed = derive_seed(7, "run", 0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    probe = ProbeGenerator(BaseNoise("rademacher", 1), "iid", seed=seed, rng=rng)
    result = run_batch(
        quadratic_1d(),
        StepSizeSchedule(0.1, 0.6),
        CenterActiveGain(0.1, np.array([0.0]), 1.0),
        [probe],
        np.array([[1.0]]),
        50,
        stride=1,
    )
    parsed = np.array([float(r[1]) for r in rows])
    assert np.array_equal(parsed, result.thetas[0, :, 0])  # 17 digits round-trip exactly


def test_cli_run_divergence_exit_code(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--config", str(CONFIGS / "fig1_divergence.json"), "--out", str(out)])
    assert code == 3
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["diverged_at"] is not None
    # the trajectory ends on the trip index, with no row past it
    n = [int(r[0]) for r in read_csv(out / "trajectory.csv")[1:]]
    assert n[-1] == summary["diverged_at"] == max(n)


def test_cli_run_strided_divergence_stops_at_trip(tmp_path):
    # every stride-th index up to the trip is written, and none after it;
    # this run trips at an odd index
    cfg = json.loads((CONFIGS / "fig1_divergence.json").read_text())
    cfg["run.stride"] = 2
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 3
    diverged_at = json.loads((out / "run_summary.json").read_text())["diverged_at"]
    n = [int(r[0]) for r in read_csv(out / "trajectory.csv")[1:]]
    assert diverged_at % 2 == 1
    assert n == list(range(0, diverged_at + 1, 2))


def test_cli_validation_failure_leaves_no_outputs(tmp_path, capsys):
    cfg = run_cfg()
    cfg["step.rho"] = 1.2
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "step.rho" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_unknown_key_with_exit_2(tmp_path, capsys):
    cfg = run_cfg()
    cfg["run.bogus"] = True
    cfg_path = write_cfg(tmp_path, cfg)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "run.bogus" in capsys.readouterr().err


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2


def experiment_cfg(**overrides):
    cfg = {
        "objective.kind": "trig_quadratic1d",
        "step.alpha0": 0.1,
        "step.rho": 0.6,
        "gain.kind": "center_active",
        "gain.theta_ctr": [0.0],
        "gain.sigma_p": 1.0,
        "probe.base": "uniform",
        "probe.support": 1.0,
        "probe.varsigma": 0.7071067811865476,
        "seed.master": 99,
        "ensemble.M": 4,
        "ensemble.N": 1500,
        "ensemble.N0": 500,
        "ensemble.eps_grid": [0.05, 0.0707, 0.1],
        "ensemble.statistic": "grad",
        "ensemble.theta0_box": [-10, 10],
    }
    cfg.update(overrides)
    return cfg


def test_cli_experiment_outputs_and_worker_determinism(tmp_path):
    cfg_path = write_cfg(tmp_path, experiment_cfg())
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out1), "--workers", "1"]) == 0
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out8), "--workers", "8"]) == 0
    assert (out1 / "ensemble.csv").read_bytes() == (out8 / "ensemble.csv").read_bytes()
    assert (out1 / "scaling.json").read_bytes() == (out8 / "scaling.json").read_bytes()
    rows = read_csv(out1 / "ensemble.csv")
    assert rows[0] == ["eps_bullet", "mode", "M_effective", "scaled_var_trace", "mean_bias_norm"]
    assert len(rows) == 7  # header + 2 modes x 3 gain values
    scaling = json.loads((out1 / "scaling.json").read_text())
    assert set(scaling) == {"iid", "zigzag"}
    for fit in scaling.values():
        assert set(fit) == {"slope", "intercept", "r_squared"}
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert len(manifest["seeds"]["iid"]) == 3


def test_cli_experiment_rejects_bad_worker_counts(tmp_path, capsys):
    # --workers is ignored, but a count below 1 is still an error; the
    # config key is gone
    cfg_path = write_cfg(tmp_path, experiment_cfg())
    assert main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "w0"), "--workers", "0"]) == 2
    assert "--workers" in capsys.readouterr().err
    cfg_path = write_cfg(tmp_path, experiment_cfg(workers=1), name="w.json")
    assert main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "k1")]) == 2
    assert "unknown config key 'workers'" in capsys.readouterr().err
    assert not (tmp_path / "w0").exists() and not (tmp_path / "k1").exists()


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        (
            "run",
            run_cfg(**{"objective.kind": "quadratic_nd", "objective.Q": [[1.0, 0.5], [0.0, 1.0]],
                       "gain.theta_ctr": [0.0, 0.0], "run.theta0": [1.0, 1.0]}),
            "objective.Q",
        ),
        (
            "run",
            {k: v for k, v in run_cfg(**{"run.theta0_box": [[-1.0, 1.0], [-1.0, 1.0]]}).items() if k != "run.theta0"},
            "run.theta0_box",
        ),
        ("experiment", experiment_cfg(**{"ensemble.theta0_box": [[-1.0, 1.0], [-1.0, 1.0]]}), "ensemble.theta0_box"),
        ("run", run_cfg(**{"gain.kind": "objective_active", "gain.obj_floor": 0.5}), "gain.obj_floor"),
        (
            "experiment",
            experiment_cfg(**{"ensemble.statistic": "fbar", "meanflow.method": "monte_carlo"}),
            "meanflow.method",
        ),
        ("meanflow", dict(MEANFLOW_TRIG, **{"probe.base": "uniform"}), "meanflow.method"),
        ("meanflow", dict(MEANFLOW_TRIG, **{"meanflow.method": "quadrature"}), "meanflow.method"),
        (
            "meanflow",
            dict(MEANFLOW_TRIG, **{"objective.kind": "quadratic_nd", "objective.Q": [[1.0, 0.0], [0.0, 2.0]],
                                   "gain.theta_ctr": [0.0, 0.0], "meanflow.theta_init": [0.2, 0.2],
                                   "meanflow.flow_theta0": [1.0, 1.0]}),
            "objective.kind",
        ),
        ("experiment", experiment_cfg(**{"ensemble.statistic": "fbar", "meanflow.method": "two_point"}),
         "meanflow.method"),
        ("meanflow", dict(MEANFLOW_TRIG, **{"meanflow.flow_theta0": [1.0, 2.0]}), "meanflow.flow_theta0"),
        ("meanflow", dict(MEANFLOW_TRIG, **{"meanflow.theta_init": [0.2, 0.1]}), "meanflow.theta_init"),
        ("equilibrium", dict(MEANFLOW_TRIG, **{"meanflow.flow_theta0": [1.0, 2.0]}), "meanflow.flow_theta0"),
        ("equilibrium", dict(MEANFLOW_TRIG, **{"meanflow.theta_init": [0.2, 0.1]}), "meanflow.theta_init"),
    ],
    ids=[
        "nonsymmetric_Q", "run_box_dimension", "ensemble_box_dimension", "obj_floor_above_known_floor",
        "experiment_fbar_monte_carlo", "meanflow_two_point_uniform", "meanflow_quadrature_rademacher",
        "meanflow_two_dimensional", "experiment_fbar_two_point_uniform", "meanflow_flow_start_dimension",
        "meanflow_equilibrium_start_dimension", "equilibrium_flow_start_dimension",
        "equilibrium_equilibrium_start_dimension",
    ],
)
def test_cli_invalid_built_config_exits_2_naming_key(tmp_path, capsys, command, cfg, key):
    # each passes the per-key checks except experiment_fbar_monte_carlo,
    # which names a mean-field method no command can run; the others fail
    # only when the objective, box, gain or mean-field evaluator is built,
    # or when a start point is checked against the objective's dimension.
    # Each ends in a ConfigError, not a traceback
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is loaded by probe-check's regeneration test only; the
    # other commands do not pay for its import
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = "import sys, spsa_lab.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_cli_experiment_rerun_is_bit_identical(tmp_path):
    cfg_path = write_cfg(tmp_path, experiment_cfg())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out2)]) == 0
    for name in ("ensemble.csv", "scaling.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_seed_flag_overrides_master(tmp_path):
    cfg_path = write_cfg(tmp_path, experiment_cfg())
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out1), "--seed", "5"]) == 0
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out2), "--seed", "6"]) == 0
    assert (out1 / "ensemble.csv").read_bytes() != (out2 / "ensemble.csv").read_bytes()


def test_write_csv_writes_each_number_as_its_float(tmp_path):
    # ints (run's n), strings (experiment's mode), Python floats and NumPy
    # scalars: a string as it is, a number as its float to 17 digits
    cells = [7, "zigzag", 0.1, np.float64(1.0 / 3.0), np.int64(5), float("nan"), -0.0, 1e-300, 2**60]
    _write_csv(tmp_path / "cells.csv", [f"c{i}" for i in range(len(cells))], [cells, cells])
    want = [c if isinstance(c, str) else format(float(c), ".17g") for c in cells]
    assert read_csv(tmp_path / "cells.csv")[1:] == [want, want]


def test_cli_meanflow_outputs(tmp_path):
    out = tmp_path / "mf"
    assert main(["meanflow", "--config", str(CONFIGS / "meanflow_trig.json"), "--out", str(out)]) == 0
    rows = read_csv(out / "fbar_grid.csv")
    assert rows[0] == ["theta", "fbar", "stderr"]
    assert len(rows) == 102  # header + 101 grid points
    thetas = [float(r[0]) for r in rows[1:]]
    assert thetas == sorted(thetas)
    assert all(float(r[2]) == 0.0 for r in rows[1:])
    report = json.loads((out / "eq_report.json").read_text())
    assert abs(report["theta_star"][0] - 0.19094784751) < 1e-6
    assert report["eigs"][0] < 0
    assert 1.7 <= report["bias_sweep"]["slope"] <= 2.3
    flow_rows = read_csv(out / "flow_mean.csv")
    assert len(flow_rows) == 1002  # header + 1001 time points


def test_cli_meanflow_zero_bias_sweep_writes_strict_json(tmp_path):
    # on the quadratic the two-point field is the exact gradient, so every
    # sweep bias is 0 and the log-log slope is undefined: it is written as
    # null, with no warning
    cfg = json.loads((CONFIGS / "meanflow_trig.json").read_text())
    cfg["objective.kind"] = "quadratic1d"
    out = tmp_path / "mf"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["meanflow", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"eq_report.json holds the non-JSON constant {constant}")

    report = json.loads((out / "eq_report.json").read_text(), parse_constant=reject)
    assert report["bias_sweep"]["bias"] == [0.0] * len(cfg["meanflow.eps_sweep"])
    assert report["bias_sweep"]["slope"] is None


def test_cli_meanflow_rejects_monte_carlo_for_equilibrium(tmp_path):
    cfg = json.loads((CONFIGS / "meanflow_trig.json").read_text())
    cfg["meanflow.method"] = "monte_carlo"
    cfg_path = write_cfg(tmp_path, cfg)
    assert main(["meanflow", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


def test_cli_equilibrium_quadratic(tmp_path):
    cfg = {
        "objective.kind": "quadratic1d",
        "gain.kind": "center_active",
        "gain.eps_bullet": 0.1,
        "gain.theta_ctr": [0.0],
        "gain.sigma_p": 1.0,
        "probe.base": "rademacher",
        "meanflow.method": "two_point",
        "meanflow.theta_init": [1.0],
    }
    out = tmp_path / "eq"
    assert main(["equilibrium", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
    report = json.loads((out / "eq_report.json").read_text())
    assert abs(report["theta_star"][0]) < 1e-9
    assert report["eigs"][0] == pytest.approx(-2.0, abs=1e-5)


def test_cli_experiment_divergent_cells_exit_4(tmp_path, capsys):
    # an unstabilized constant gain from far-out starts loses runs in
    # every cell, leaving too few complete gain values for the fit
    cfg = experiment_cfg(**{
        "objective.kind": "quadratic1d",
        "step.alpha0": 1.0,
        "gain.kind": "constant",
        "probe.base": "rademacher",
        "ensemble.theta0_box": [5, 10],
    })
    for key in ("gain.theta_ctr", "gain.sigma_p", "probe.support", "probe.varsigma"):
        cfg.pop(key, None)
    out = tmp_path / "div"
    assert main(["experiment", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 4
    assert "fewer than 3 complete" in capsys.readouterr().err


def test_cli_probe_check(tmp_path):
    out = tmp_path / "pc"
    assert main(["probe-check", "--config", str(CONFIGS / "probe_check_zigzag.json"), "--out", str(out)]) == 0
    report = json.loads((out / "probe_report.json").read_text())
    assert report["sample_count"] == 100_000
    assert report["third_moment_max_abs"] < 0.02
    assert report["covariance_error"] < 0.02
    assert report["regeneration_p"] > 0.01
    assert report["covariance_closed_form"][0][0] == pytest.approx(1.0 / 3.0)


def test_canned_configs_validate():
    for name, command in (
        ("fig1_divergence.json", "run"),
        ("fig1_active.json", "run"),
        ("fig2_desk.json", "experiment"),
        ("fig2_full.json", "experiment"),
        ("meanflow_trig.json", "meanflow"),
        ("probe_check_zigzag.json", "probe-check"),
    ):
        validate_config(load_config(CONFIGS / name), command)


def test_cli_fig1_active_config_stabilizes(tmp_path):
    # reduced horizon: same recipe, checks the stabilized trajectory ends small
    cfg = load_config(CONFIGS / "fig1_active.json")
    cfg["run.N"] = 20_000
    out = tmp_path / "fig1"
    assert main(["run", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["diverged_at"] is None
    assert abs(summary["theta_final"][0]) < 1.0
