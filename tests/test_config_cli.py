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
from spsa_lab.config import (
    _GAIN_KEY_DEPS,
    DEFAULTS,
    KNOWN_KEYS,
    REQUIRED_KEYS,
    ConfigError,
    config_hash,
    load_config,
    validate_config,
)


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


def test_defaults_pass_their_own_key_checks():
    # an optional key left out takes its DEFAULTS entry, which must be a
    # value the config could have given
    for key, value in DEFAULTS.items():
        checker, expected = KNOWN_KEYS[key]
        assert checker(value), f"DEFAULTS[{key!r}] = {value!r} is not {expected}"


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
    from spsa_lab.core import run_batch
    from spsa_lab.exploration import BaseNoise, ProbeGenerator, derive_seed
    from spsa_lab.objectives import quadratic_1d
    from spsa_lab.schedules import CenterActiveGain, StepSizeSchedule

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


@pytest.mark.parametrize("kind", ["directory", "latin1"])
def test_cli_unreadable_config_exits_2_naming_it(tmp_path, capsys, kind):
    cfg_path = tmp_path / "cfg.json"
    if kind == "directory":
        cfg_path.mkdir()
    else:
        # its e-acute is the byte 0xe9, which UTF-8 rejects
        cfg_path.write_bytes(json.dumps(run_cfg(**{"output.dir": "caf\u00e9"}), ensure_ascii=False).encode("latin-1"))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "--config" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# where the output directory would go: an existing file, or a path under one
OUT_PATHS = {"file": ("taken",), "under_file": ("taken", "sub", "out")}


@pytest.mark.parametrize("where", sorted(OUT_PATHS))
@pytest.mark.parametrize("via", ["--out", "output.dir"])
def test_cli_output_path_that_cannot_be_a_directory_exits_2(tmp_path, capsys, via, where):
    (tmp_path / "taken").write_text("not a directory", encoding="utf-8")
    out = str(tmp_path.joinpath(*OUT_PATHS[where]))
    cfg = run_cfg(**({"output.dir": out} if via == "output.dir" else {}))
    cfg_path = write_cfg(tmp_path, cfg)
    argv = ["run", "--config", str(cfg_path)] + (["--out", out] if via == "--out" else [])
    assert main(argv) == 2
    assert via in capsys.readouterr().err
    # nothing was made, and the file is untouched
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "taken"]
    assert (tmp_path / "taken").read_text(encoding="utf-8") == "not a directory"


def test_cli_empty_out_exits_2(tmp_path, monkeypatch, capsys):
    # an empty --out is not the default directory
    monkeypatch.chdir(tmp_path)
    cfg_path = write_cfg(tmp_path, run_cfg())
    assert main(["run", "--config", str(cfg_path), "--out", ""]) == 2
    assert "--out" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


DECAYING = {"gain.kind": "decaying", "gain.kappa": 0.6}
# 2 probe modes x 5 gains x M lanes = 1000 lanes
FIG2_FULL_SHAPE = {"ensemble.M": 100, "ensemble.eps_grid": [0.05, 0.0707, 0.1, 0.1414, 0.2]}


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
    "command, name",
    [
        ("run", "fig1_active.json"),
        ("experiment", "fig2_desk.json"),
        ("meanflow", "meanflow_trig.json"),
        ("equilibrium", "meanflow_trig.json"),
        ("probe-check", "probe_check_zigzag.json"),
    ],
)
def test_cli_workers_below_one_exits_2_for_every_command(tmp_path, capsys, command, name):
    # every command checks --workers before any work, like a config key
    out = tmp_path / "out"
    assert main([command, "--config", str(CONFIGS / name), "--out", str(out), "--workers", "0"]) == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


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
        (
            "run",
            {k: v for k, v in run_cfg(**{"run.theta0_box": [-1e308, 1e308]}).items() if k != "run.theta0"},
            "run.theta0_box",
        ),
        ("experiment", experiment_cfg(**{"ensemble.theta0_box": [-1e308, 1e308]}), "ensemble.theta0_box"),
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
        ("experiment", experiment_cfg(**{"ensemble.eps_grid": [0.1, 0.1, 0.1]}), "ensemble.eps_grid"),
        ("experiment", experiment_cfg(**{"ensemble.eps_grid": [0.05, 0.05, 0.1]}), "ensemble.eps_grid"),
        ("meanflow", dict(MEANFLOW_TRIG, **{"meanflow.eps_sweep": [0.05, 0.05, 0.05]}), "meanflow.eps_sweep"),
        ("equilibrium", dict(MEANFLOW_TRIG, **{"meanflow.eps_sweep": [0.05, 0.1, 0.05]}), "meanflow.eps_sweep"),
    ],
    ids=[
        "nonsymmetric_Q", "run_box_dimension", "ensemble_box_dimension", "run_box_width_overflows",
        "ensemble_box_width_overflows", "obj_floor_above_known_floor",
        "experiment_fbar_monte_carlo", "meanflow_two_point_uniform", "meanflow_quadrature_rademacher",
        "meanflow_two_dimensional", "experiment_fbar_two_point_uniform", "meanflow_flow_start_dimension",
        "meanflow_equilibrium_start_dimension", "equilibrium_flow_start_dimension",
        "equilibrium_equilibrium_start_dimension", "experiment_one_distinct_gain", "experiment_repeated_gain",
        "meanflow_one_distinct_sweep_gain", "equilibrium_two_distinct_sweep_gains",
    ],
)
def test_cli_invalid_built_config_exits_2_naming_key(tmp_path, capsys, command, cfg, key):
    # each passes the per-key checks except experiment_fbar_monte_carlo,
    # which names a mean-field method no command can run, and the gain
    # grids with fewer than 3 distinct values, which the scaling fits need.
    # The mean-field and dimension cases fail in validate_config's derived
    # checks, before anything is built; the others (Q's symmetry, a box's
    # shape or a width hi - lo that overflows, gain.obj_floor above the
    # objective's floor) fail only when the objective, box or gain is
    # built.  Each ends in a ConfigError, not a traceback or a warning
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not caught, [str(w.message) for w in caught]
    assert key in capsys.readouterr().err
    assert not out.exists()


Q2 = {"objective.kind": "quadratic_nd", "objective.Q": [[1.0, 0.0], [0.0, 2.0]], "gain.theta_ctr": [0.0, 0.0]}
FBAR = {"ensemble.statistic": "fbar"}


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("run", run_cfg(**{"run.theta0": [1.0, 1.0]}), "run.theta0"),
        ("run", run_cfg(**{"gain.theta_ctr": [0.0, 0.0]}), "gain.theta_ctr"),
        ("run", run_cfg(**{**Q2, "run.theta0": [1.0, 1.0], "gain.theta_ctr": [0.0]}), "gain.theta_ctr"),
        ("experiment", experiment_cfg(**{"gain.theta_ctr": [0.0, 0.0]}), "gain.theta_ctr"),
        ("meanflow", dict(MEANFLOW_TRIG, **{"gain.theta_ctr": [0.0, 0.0]}), "gain.theta_ctr"),
        ("meanflow", dict(MEANFLOW_TRIG, **Q2, **{"meanflow.theta_init": [0.2, 0.2]}), "objective.kind"),
        ("equilibrium", dict(MEANFLOW_TRIG, **Q2), "objective.kind"),
        ("experiment", experiment_cfg(**Q2, **FBAR), "objective.kind"),
        ("meanflow", dict(MEANFLOW_TRIG, **{"meanflow.theta_init": [0.2, 0.1]}), "meanflow.theta_init"),
        ("meanflow", dict(MEANFLOW_TRIG, **{"meanflow.flow_theta0": [1.0, 2.0]}), "meanflow.flow_theta0"),
        ("equilibrium", dict(MEANFLOW_TRIG, **{"meanflow.theta_init": [0.2, 0.1]}), "meanflow.theta_init"),
        ("equilibrium", dict(MEANFLOW_TRIG, **{"meanflow.flow_theta0": [1.0, 2.0]}), "meanflow.flow_theta0"),
        ("meanflow", dict(MEANFLOW_TRIG, **{"probe.base": "uniform"}), "meanflow.method"),
        ("equilibrium", dict(MEANFLOW_TRIG, **{"meanflow.method": "quadrature"}), "meanflow.method"),
        ("experiment", experiment_cfg(**FBAR, **{"meanflow.method": "two_point"}), "meanflow.method"),
        (
            "experiment",
            experiment_cfg(**FBAR, **{"probe.base": "rademacher", "meanflow.method": "quadrature"}),
            "meanflow.method",
        ),
        ("run", run_cfg(**{**Q2, "objective.Q": [[1.0, 0.5]], "run.theta0": [1.0, 1.0]}), "objective.Q"),
    ],
    ids=[
        "run_start_dimension", "run_center_dimension", "run_nd_center_dimension", "experiment_center_dimension",
        "meanflow_center_dimension", "meanflow_two_dimensional", "equilibrium_two_dimensional",
        "experiment_fbar_two_dimensional", "meanflow_equilibrium_start_dimension", "meanflow_flow_start_dimension",
        "equilibrium_equilibrium_start_dimension", "equilibrium_flow_start_dimension", "meanflow_two_point_uniform",
        "equilibrium_quadrature_rademacher", "experiment_fbar_two_point_uniform",
        "experiment_fbar_quadrature_rademacher", "non_square_Q",
    ],
)
def test_validate_config_alone_rejects_dimension_and_mean_field_rules(command, cfg, key):
    # validate_config is the one gate before a command builds anything: a
    # point of the wrong dimension, a mean field on a 2-d objective or with
    # the other node rule, and a non-square Q are rejected there, naming the key
    with pytest.raises(ConfigError, match=f"'{key}'"):
        validate_config(cfg, command)


MEANFLOW_QUADRATURE = dict(MEANFLOW_TRIG, **{"probe.base": "uniform", "meanflow.method": "quadrature"})
PROBE_CHECK_SMALL = dict(
    json.loads((CONFIGS / "probe_check_zigzag.json").read_text()),
    **{"probe_check.samples": 1000, "probe_check.regen_samples": 100},
)


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("meanflow", dict(MEANFLOW_TRIG, **{"gain.sigma_p": 1e-200}), "gain.sigma_p"),
        ("meanflow", dict(MEANFLOW_TRIG, **{"gain.sigma_p": 1e300}), "gain.sigma_p"),
        ("run", run_cfg(**{"gain.sigma_p": 1e300}), "gain.sigma_p"),
        ("meanflow", dict(MEANFLOW_TRIG, **{"meanflow.flow_t_end": 1.7e308}), "meanflow.flow_t_end"),
        ("meanflow", dict(MEANFLOW_TRIG, **{"meanflow.flow_t_end": 1e300}), "meanflow.flow_t_end"),
        ("meanflow", dict(MEANFLOW_TRIG, **{"meanflow.flow_dt": 1e-300}), "meanflow.flow_dt"),
        ("meanflow", dict(MEANFLOW_TRIG, **{"meanflow.flow_t_end": 1001.0}), "meanflow.flow_t_end"),
        ("meanflow", dict(MEANFLOW_TRIG, **{"meanflow.grid": [-3.0, 3.0, 10**6 + 1]}), "meanflow.grid"),
        ("meanflow", dict(MEANFLOW_TRIG, **{"meanflow.grid": [-1e308, 1e308, 11]}), "meanflow.grid"),
        ("meanflow", dict(MEANFLOW_QUADRATURE, **{"probe.support": 1e308}), "probe.support"),
        ("run", run_cfg(**{"probe.base": "uniform", "probe.support": 1e308}), "probe.support"),
        ("run", run_cfg(n=10**12), "run.N"),
        ("run", run_cfg(n=10**7, **{"run.stride": 9}), "run.N"),
        ("experiment", experiment_cfg(**{"ensemble.M": 10**9}), "ensemble.M"),
        ("experiment", experiment_cfg(**{"ensemble.M": 166_667}), "ensemble.M"),
        ("run", run_cfg(n=10**12, **{"run.stride": 10**7}), "run.N"),
        ("run", run_cfg(n=10**8 + 1, **{"run.stride": 1000}), "run.N"),
        ("experiment", experiment_cfg(**FIG2_FULL_SHAPE, **{"ensemble.N": 2 * 10**6 + 1}), "ensemble.N"),
        ("run", run_cfg(**{"gain.eps_bullet": 1e300, "probe.base": "uniform", "probe.support": 1e10}), "gain.eps_bullet"),
        ("meanflow", dict(MEANFLOW_QUADRATURE, **{"gain.eps_bullet": 1e300, "probe.support": 1e10}), "gain.eps_bullet"),
        ("run", run_cfg(**{"gain.eps_bullet": 10**400}), "gain.eps_bullet"),
        ("experiment", experiment_cfg(**{"ensemble.eps_grid": [0.05, 0.1, 1e300], "probe.support": 1e10}),
         "ensemble.eps_grid"),
        ("probe-check", dict(PROBE_CHECK_SMALL, **{"probe.support": 5e102}), "probe.support"),
        ("probe-check", dict(PROBE_CHECK_SMALL, **{"probe.varsigma": 2e102}), "probe.varsigma"),
        ("probe-check", dict(PROBE_CHECK_SMALL, **{"probe.support": 3.5e102}), "probe_check.samples"),
        ("probe-check", dict(PROBE_CHECK_SMALL, **{"probe.support": 1e200, "probe.varsigma": 1e-200}), "probe.support"),
        ("probe-check", dict(PROBE_CHECK_SMALL, **{"probe.support": 1e-300, "probe.varsigma": 1e200}), "probe.varsigma"),
        ("probe-check", dict(PROBE_CHECK_SMALL, **{"probe.support": 10**400}), "probe.support"),
        ("probe-check", dict(PROBE_CHECK_SMALL, **{"probe.varsigma": 10**400}), "probe.varsigma"),
        ("probe-check", dict(PROBE_CHECK_SMALL, **{"probe_check.samples": 10**12}), "probe_check.samples"),
        ("probe-check", dict(PROBE_CHECK_SMALL, **{"probe_check.regen_samples": 10**7 + 1}), "probe_check.regen_samples"),
        ("run", run_cfg(**{**DECAYING, "gain.kappa": 1000.0}), "gain.kappa"),
        ("run", run_cfg(n=2, **{**DECAYING, "gain.eps_bullet": 1.0, "gain.kappa": 1075.0}), "gain.kappa"),
        ("experiment", experiment_cfg(**{**DECAYING, "gain.kappa": 1000.0}), "gain.kappa"),
        ("run", run_cfg(n=10**400, **DECAYING), "run.N"),
        ("experiment", experiment_cfg(**{**DECAYING, "ensemble.N": 10**400}), "ensemble.N"),
    ],
    ids=[
        "sigma_p_square_underflows", "sigma_p_square_overflows", "run_sigma_p_square_overflows",
        "flow_steps_overflow", "flow_steps_above_cap", "flow_dt_steps_above_cap", "flow_steps_just_above_cap",
        "grid_points_above_cap", "grid_width_overflows", "twice_support_overflows", "run_twice_support_overflows",
        "record_rows_overflow", "record_rows_above_cap", "ensemble_lanes_overflow", "ensemble_lanes_just_above_cap",
        "run_steps_far_above_cap_with_few_rows", "run_steps_just_above_cap", "ensemble_lane_steps_just_above_cap",
        "run_probe_offset_overflows", "meanflow_probe_offset_overflows", "eps_bullet_int_too_large_for_a_float",
        "eps_grid_probe_offset_overflows", "probe_bound_cube_overflows", "probe_varsigma_bound_cube_overflows",
        "probe_third_moment_sum_overflows", "probe_support_square_overflows", "probe_varsigma_square_overflows",
        "support_int_too_large_for_a_float", "varsigma_int_too_large_for_a_float", "probe_samples_far_above_cap",
        "regen_samples_just_above_cap", "run_decaying_gain_underflows", "run_decaying_gain_just_underflows",
        "experiment_decaying_gain_underflows", "run_decaying_steps_int_too_large_for_a_float",
        "experiment_decaying_steps_int_too_large_for_a_float",
    ],
)
def test_cli_derived_quantity_out_of_range_exits_2_naming_key(tmp_path, capsys, command, cfg, key):
    # each key passes its own check, but a quantity derived from it (a square,
    # a doubled bound, a probe offset, a step count, a grid size, the rows of
    # a record, the lanes or lane-steps of an experiment, the sum of a probe
    # check's third-moment products, the last decaying gain) is out of range or
    # above its cap; the config is rejected before any work starts.  An int too
    # large for a float, or a grid whose width overflows, fails its own check.  A run of 10**12 steps recorded
    # every 10**7 has few rows but would take a month
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_step_caps_admit_their_limit():
    # a run may take 10**8 steps, and an experiment 2 * 10**9 lane-steps: 2 probe
    # modes x 5 gains x M=100 lanes (the configs/fig2_full.json shape) x N=2 * 10**6
    validate_config(run_cfg(n=10**8, **{"run.stride": 1000}), "run")
    validate_config(experiment_cfg(**FIG2_FULL_SHAPE, **{"ensemble.N": 2 * 10**6}), "experiment")


def test_record_and_lane_caps_admit_their_limit():
    # N // stride + 2 record rows, and 2 probe modes x 3 gains x M lanes, may reach 10**6
    validate_config(run_cfg(n=10**6 - 2), "run")
    validate_config(run_cfg(n=9 * (10**6 - 2) + 8, **{"run.stride": 9}), "run")
    validate_config(experiment_cfg(**{"ensemble.M": 166_666}), "experiment")


def test_probe_sample_caps_admit_their_limit():
    cfg = dict(PROBE_CHECK_SMALL, **{"probe_check.samples": 10**7, "probe_check.regen_samples": 10**7})
    validate_config(cfg, "probe-check")


def test_decaying_gain_check_admits_the_smallest_subnormal():
    # 2**-1074 is the smallest positive double; 2**-1075 rounds to 0.0
    validate_config(run_cfg(n=2, **{**DECAYING, "gain.eps_bullet": 1.0, "gain.kappa": 1074.0}), "run")


def without(cfg: dict, key: str) -> dict:
    return {k: v for k, v in cfg.items() if k != key}


REQUIRED_BASES = {
    "run": run_cfg(),
    "experiment": experiment_cfg(),
    "meanflow": MEANFLOW_TRIG,
    "equilibrium": MEANFLOW_TRIG,
    "probe-check": PROBE_CHECK_SMALL,
}
GAIN_BASES = {
    "decaying": run_cfg(**DECAYING),
    "center_active": run_cfg(),
    "objective_active": run_cfg(**{"gain.kind": "objective_active", "gain.obj_floor": 0.0}),
}
QUADRATIC_ND = run_cfg(
    **{
        "objective.kind": "quadratic_nd",
        "objective.Q": [[2.0, 0.0], [0.0, 1.0]],
        "gain.theta_ctr": [0.0, 0.0],
        "run.theta0": [1.0, 1.0],
    }
)
# (command, a valid config, the key to remove from it), each with its id
MISSING_KEY_CASES = (
    [pytest.param(c, cfg, key, id=f"{c}:{key}") for c, cfg in REQUIRED_BASES.items() for key in REQUIRED_KEYS[c]]
    + [pytest.param("run", GAIN_BASES[k], key, id=f"{k}:{key}") for k, keys in _GAIN_KEY_DEPS.items() for key in keys]
    + [
        pytest.param("run", QUADRATIC_ND, "objective.Q", id="quadratic_nd:objective.Q"),
        pytest.param("run", run_cfg(), "run.theta0", id="run:run.theta0"),
        pytest.param(
            "run", without(run_cfg(**{"run.theta0_box": [-1.0, 1.0]}), "run.theta0"), "run.theta0_box",
            id="run:run.theta0_box",
        ),
    ]
)


@pytest.mark.parametrize("command, cfg, key", MISSING_KEY_CASES)
def test_cli_missing_required_key_exits_2_naming_it(tmp_path, capsys, command, cfg, key):
    # every key a command requires, each gain kind's keys, objective.Q for
    # quadratic_nd and the run's start: without it the config is rejected
    # before any output is made, with a message naming the key
    validate_config(cfg, command)
    out = tmp_path / "out"
    assert main([command, "--config", str(write_cfg(tmp_path, without(cfg, key))), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err, err
    assert not out.exists()


def child_env() -> dict:
    """The environment of a child ``python``, with this checkout's package on its path."""
    src = Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))


OVERFLOW_CASES = {
    "eps_bullet_1e300": ({"gain.eps_bullet": 1e300}, 4),
    "theta_init_1e300": ({"meanflow.theta_init": [1e300]}, 4),
    "flow_theta0_1e200": ({"meanflow.flow_theta0": [1e200]}, 0),
    "flow_theta0_1e300": ({"meanflow.flow_theta0": [1e300]}, 0),
}
# the meanflow cases keep their plain names; equilibrium runs meanflow's
# command body without the flow, so it takes the solver failures only
OVERFLOW_SLOTS = [("meanflow", case) for case in OVERFLOW_CASES] + [
    ("equilibrium", case) for case, (_, code) in OVERFLOW_CASES.items() if code == 4
]


@pytest.mark.parametrize(
    "command, case",
    OVERFLOW_SLOTS,
    ids=[case if command == "meanflow" else f"{command}:{case}" for command, case in OVERFLOW_SLOTS],
)
def test_cli_meanflow_meets_overflow_without_traceback_or_warning(tmp_path, command, case):
    # the field's float formulas meet inf and NaN here, where math.cos(inf)
    # raises and np.cos gives NaN; the equilibrium search fails on a NaN
    # residual (exit 4, before any output directory is made) and the flow
    # stops at its first non-finite state (exit 0), and stderr holds nothing
    # but the solver's error line
    changes, code = OVERFLOW_CASES[case]
    cfg_path = write_cfg(tmp_path, dict(MEANFLOW_TRIG, **changes))
    out = tmp_path / "out"
    cmd = [sys.executable, "-m", "spsa_lab.cli", command, "--config", str(cfg_path), "--out", str(out)]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr
    want = "error: equilibrium search stalled at residual nan (tol 1.0e-10)\n" if code == 4 else ""
    assert proc.stderr == want
    assert out.exists() == (code == 0)


def test_cli_run_with_non_finite_state_writes_strict_json(tmp_path):
    # a center at 1e300 makes the first gain overflow to inf and the first
    # step NaN: the guard trips (exit 3), with no warning, and the NaN final
    # state is written as null
    cfg_path = write_cfg(tmp_path, run_cfg(**{"gain.theta_ctr": [1e300]}))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3

    def reject(constant):
        raise ValueError(f"the output holds the non-JSON constant {constant}")

    summary = json.loads((out / "run_summary.json").read_text(), parse_constant=reject)
    assert summary["diverged_at"] == 1 and summary["theta_final"] == [None]
    json.loads((out / "manifest.json").read_text(), parse_constant=reject)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is loaded by probe-check's regeneration test only; the
    # other commands do not pay for its import
    code = "import sys, spsa_lab.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


# atexit runs its handlers last in, first out: a probe registered before the
# import runs after every handler the import registers
FREEZE_PROBE = "import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count())); import {module}"


@pytest.mark.parametrize("module, frozen", [("spsa_lab", False), ("spsa_lab.cli", True)])
def test_exit_freeze_is_registered_by_the_cli_only(module, frozen):
    # the command line freezes the heap at exit so that the interpreter's
    # last collections skip it; the package imported as a library leaves
    # its host's exit alone
    code = FREEZE_PROBE.format(module=module)
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True)
    assert (int(proc.stdout) > 0) == frozen


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
    _write_csv(tmp_path / "cells.csv", [f"c{i}" for i in range(len(cells))], [[c, c] for c in cells])
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


@pytest.mark.parametrize("command", ["meanflow", "equilibrium"])
@pytest.mark.parametrize("base, rule", [("rademacher", "two_point"), ("uniform", "quadrature")])
def test_cli_mean_field_rule_follows_the_probe_base(tmp_path, command, base, rule):
    # meanflow.method is optional: without it the probe base picks the rule,
    # and every output but the manifest, which echoes the config, is the same
    # bytes as with the key
    cfg = dict(MEANFLOW_TRIG, **{"probe.base": base, "meanflow.method": rule, "meanflow.grid": [-3.0, 3.0, 11]})
    outputs = {}
    for name, given in (("with", cfg), ("without", without(cfg, "meanflow.method"))):
        out = tmp_path / name
        assert main([command, "--config", str(write_cfg(tmp_path, given, f"{name}.json")), "--out", str(out)]) == 0
        outputs[name] = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    want = {"meanflow": {"fbar_grid.csv", "flow_mean.csv", "eq_report.json"}, "equilibrium": {"eq_report.json"}}
    assert set(outputs["with"]) == want[command]
    assert outputs["with"] == outputs["without"]


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


# each canned config with a small workload: meanflow_trig on a small grid and
# a short flow, fig1_active for 200 steps, fig2_desk with 4 runs of 300 steps
# and probe_check_zigzag with few samples.  Each numeric key, or one entry of
# a numeric list, is set to a tiny, a huge and the largest decimal value
SWEEP_CFGS = {
    "meanflow": dict(MEANFLOW_TRIG, **{"meanflow.grid": [-3.0, 3.0, 11], "meanflow.flow_t_end": 0.01}),
    "run": dict(json.loads((CONFIGS / "fig1_active.json").read_text()), **{"run.N": 200}),
    "experiment": dict(
        json.loads((CONFIGS / "fig2_desk.json").read_text()), **{"ensemble.M": 4, "ensemble.N": 300, "ensemble.N0": 100}
    ),
    "probe-check": PROBE_CHECK_SMALL,
}
SWEEP_VALUES = (1e-300, 1e300, 1.7e308)
SWEEP_SLOTS = [
    (command, key, i, SWEEP_VALUES)
    for command, cfg in SWEEP_CFGS.items()
    for key, value in cfg.items()
    for i in (range(len(value)) if isinstance(value, list) else [None])
    if not isinstance(value, str)
] + [("probe-check", "probe.support", None, (5e102,))]


def sweep_id(command, key, index, values):
    # the meanflow cases keep their plain key names
    name = key if index is None else f"{key}[{index}]"
    name = name if command == "meanflow" else f"{command}:{name}"
    return name if values is SWEEP_VALUES else f"{name}={values[0]:g}"


@pytest.mark.parametrize("command, key, index, values", SWEEP_SLOTS, ids=[sweep_id(*slot) for slot in SWEEP_SLOTS])
def test_cli_meanflow_bad_number_exits_cleanly(tmp_path, capsys, command, key, index, values):
    # each ends in success, a config error, a guard trip or a solver failure,
    # with no traceback and no warning, and every JSON it writes is strict
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    for value in values:
        cfg = json.loads(json.dumps(SWEEP_CFGS[command]))
        if index is None:
            cfg[key] = value
        else:
            cfg[key][index] = value
        out = tmp_path / f"out{value:g}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)])
        assert code in (0, 2, 3, 4), (command, key, index, value, code)
        assert "Traceback" not in capsys.readouterr().err
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=reject)


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
