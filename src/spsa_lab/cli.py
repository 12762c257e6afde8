"""Command-line front end.

Subcommands: ``run`` (single trajectory), ``experiment`` (gain-scale by
probe-mode ensemble matrix), ``meanflow`` (field grid, flow trajectory,
equilibrium report), ``equilibrium`` (report only), and ``probe-check``
(probe-law diagnostics).  All outputs are CSV/JSON written under one
directory together with a manifest sufficient to reproduce them
bit-identically.

Exit codes: 0 success, 2 invalid configuration, 3 divergence-guard trip,
4 solver non-convergence.

``experiment`` runs the whole matrix as lane batches in one thread.  The
``--workers`` option is still parsed and must be at least 1 (else exit 2),
but it is ignored; there is no worker environment variable or config key.

``meanflow`` writes ``fbar_grid.csv`` with the header ``theta,fbar,stderr``.
The ``stderr`` column is always 0: every method a config can select is
deterministic.  The column stays because the header is the published
output format, which the benchmark's output checks assert.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    build_base_noise,
    build_gain,
    build_objective,
    build_schedule,
    build_theta0_box,
    config_hash,
    get_varsigma,
    load_config,
    validate_config,
)
from .core import DivergenceGuard, run_batch
from .ensemble import lane_stream, run_ensemble_matrix, scaling_fit
from .exploration import ProbeGenerator, derive_seed, regeneration_test
from .meanflow import MeanFieldEvaluator, SolverError, bias_sweep, find_equilibrium, integrate_flow
from .objectives import bisect_root

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_SOLVER = 4

MODES = ("iid", "zigzag")


def _fmt(x) -> str:
    # 17 significant digits: round-trip exact for doubles; "g" formats an int
    # or a NumPy scalar as the float it converts to
    return format(x, ".17g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``rows`` under ``header``: strings as they are, numbers through ``_fmt``.

    Callers pass Python floats and ints (``tolist``), which build their
    rows faster than NumPy scalars and format to the same text.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([c if isinstance(c, str) else _fmt(c) for c in row] for row in rows)


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_manifest(out: Path, command: str, cfg: dict, outputs: list[str], seeds) -> None:
    _write_json(
        out / "manifest.json",
        {
            "tool": "spsa-lab",
            "version": __version__,
            "command": command,
            "config": cfg,
            "config_hash": config_hash(cfg),
            "outputs": sorted(outputs),
            "seeds": seeds,
        },
    )


def _prepare(args, command: str):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed.master"] = args.seed
    validate_config(cfg, command)
    out = Path(args.out) if args.out else Path(cfg.get("output.dir", "spsa_lab_out"))
    return cfg, out


def _deterministic_method(cfg: dict) -> str:
    if "meanflow.method" in cfg:
        return cfg["meanflow.method"]
    return "two_point" if cfg["probe.base"] == "rademacher" else "quadrature"


def cmd_run(args) -> int:
    cfg, out = _prepare(args, "run")
    objective = build_objective(cfg)
    schedule = build_schedule(cfg)
    gain = build_gain(cfg, objective)
    base = build_base_noise(cfg, objective.dim)
    guard = DivergenceGuard(cfg.get("run.guard_threshold", 1e6))
    seed = derive_seed(cfg["seed.master"], "run", 0)
    mode, varsigma = cfg["probe.mode"], get_varsigma(cfg)
    if "run.theta0" in cfg:
        theta0 = np.asarray(cfg["run.theta0"], dtype=float)
        if theta0.size != objective.dim:
            raise ConfigError(
                f"config key 'run.theta0' has dimension {theta0.size}, objective has {objective.dim}"
            )
        _, probe = lane_stream(seed, base, mode, varsigma)
    else:
        box = build_theta0_box(cfg, "run.theta0_box", objective.dim)
        theta0, probe = lane_stream(seed, base, mode, varsigma, box)

    # a one-lane batch; the engine stops at a guard trip, so the record ends there
    result = run_batch(
        objective,
        schedule,
        gain,
        [probe],
        theta0,
        cfg["run.N"],
        algorithm=cfg.get("run.algorithm", "1spsa"),
        guard=guard,
        stride=cfg.get("run.stride", 1),
        record_objective=True,
    )
    diverged_at = int(result.diverged_at[0])

    out.mkdir(parents=True, exist_ok=True)
    header = ["n"] + [f"theta_{i}" for i in range(objective.dim)] + ["alpha", "eps", "objective"]
    columns = (
        result.record_indices.tolist(),
        result.thetas[0].tolist(),
        result.alpha_trace.tolist(),
        result.gain_trace[0].tolist(),
        result.objective_trace[0].tolist(),
    )
    rows = [[idx, *theta, alpha, eps, value] for idx, theta, alpha, eps, value in zip(*columns)]
    _write_csv(out / "trajectory.csv", header, rows)
    summary = {
        "n_steps": result.n_steps,
        "diverged_at": diverged_at if diverged_at >= 0 else None,
        "theta_final": [float(x) for x in result.theta_final[0]],
        "seed": seed,
    }
    _write_json(out / "run_summary.json", summary)
    _write_manifest(out, "run", cfg, ["trajectory.csv", "run_summary.json"], {"run": seed})
    return EXIT_DIVERGED if diverged_at >= 0 else EXIT_OK


def cmd_experiment(args) -> int:
    cfg, out = _prepare(args, "experiment")
    objective = build_objective(cfg)
    schedule = build_schedule(cfg)
    base = build_base_noise(cfg, objective.dim)
    varsigma = get_varsigma(cfg)
    guard = DivergenceGuard(cfg.get("run.guard_threshold", 1e6))
    algorithm = cfg.get("run.algorithm", "1spsa")
    eps_grid = [float(e) for e in cfg["ensemble.eps_grid"]]
    master = cfg["seed.master"]
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")

    def statistic(mode: str, lane_gain):
        if cfg["ensemble.statistic"] == "grad":
            return objective.grad_batch
        return _mean_field(cfg, objective, lane_gain, base, mode).value_batch

    cells = run_ensemble_matrix(
        objective,
        schedule,
        base,
        MODES,
        varsigma,
        build_gain(cfg, objective, eps_bullet=eps_grid[0]),
        eps_grid,
        cfg["ensemble.M"],
        cfg["ensemble.N"],
        cfg["ensemble.N0"],
        build_theta0_box(cfg, "ensemble.theta0_box", objective.dim),
        statistic,
        master,
        guard=guard,
        algorithm=algorithm,
    )

    out.mkdir(parents=True, exist_ok=True)
    rows = []
    seeds = {}
    scaling = {}
    for mode in MODES:
        eps_ok, var_ok = [], []
        for i, eps in enumerate(eps_grid):
            cell = cells[(mode, i)]
            if cell.m_effective >= 2:
                sv, bias = cell.scaled_var_trace, cell.mean_bias_norm
            else:
                sv = bias = float("nan")
            rows.append([_fmt(eps), mode, str(cell.m_effective), sv, bias])
            seeds.setdefault(mode, {})[_fmt(eps)] = cell.seeds
            if cell.m_effective == cell.m_total:
                eps_ok.append(eps)
                var_ok.append(sv)
        if len(eps_ok) < 3:
            print(
                f"error: divergence left fewer than 3 complete gain values for mode {mode}",
                file=sys.stderr,
            )
            return EXIT_SOLVER
        fit = scaling_fit(eps_ok, var_ok)
        scaling[mode] = {
            "slope": fit.loglog_slope,
            "intercept": fit.loglog_intercept,
            "r_squared": fit.r_squared,
        }
    _write_csv(
        out / "ensemble.csv",
        ["eps_bullet", "mode", "M_effective", "scaled_var_trace", "mean_bias_norm"],
        rows,
    )
    _write_json(out / "scaling.json", scaling)
    _write_manifest(out, "experiment", cfg, ["ensemble.csv", "scaling.json"], seeds)
    return EXIT_OK


def _mean_field(cfg: dict, objective, gain, base, mode: str) -> MeanFieldEvaluator:
    """The config's deterministic mean field; the one place a command builds an evaluator."""
    if objective.dim != 1:
        raise ConfigError(
            f"config key 'objective.kind' is {cfg['objective.kind']!r}, of dimension {objective.dim}; "
            "the mean field needs a one-dimensional objective"
        )
    method = _deterministic_method(cfg)
    try:
        return MeanFieldEvaluator(
            objective=objective, gain=gain, base=base, mode=mode, varsigma=get_varsigma(cfg), method=method
        )
    except ValueError as exc:
        raise ConfigError(f"config key 'meanflow.method' is {method!r}, which does not fit the config: {exc}") from exc


def _build_evaluator(cfg: dict, eps_bullet: float | None = None) -> MeanFieldEvaluator:
    objective = build_objective(cfg)
    gain = build_gain(cfg, objective, eps_bullet=eps_bullet)
    base = build_base_noise(cfg, objective.dim)
    return _mean_field(cfg, objective, gain, base, cfg.get("probe.mode", "iid"))


def _check_start_points(cfg: dict, dim: int) -> None:
    """Each mean-field start point in the config must be a point of the objective."""
    for key in ("meanflow.theta_init", "meanflow.flow_theta0"):
        if key in cfg and len(cfg[key]) != dim:
            raise ConfigError(f"config key {key!r} has dimension {len(cfg[key])}, objective has {dim}")


def _equilibrium_payload(cfg: dict, evaluator: MeanFieldEvaluator) -> dict:
    objective = evaluator.objective
    if "meanflow.theta_init" in cfg:
        theta_init = np.asarray(cfg["meanflow.theta_init"], dtype=float)
    elif objective.known_optimum is not None:
        theta_init = objective.known_optimum
    else:
        theta_init = np.zeros(objective.dim)
    report = find_equilibrium(evaluator, theta_init, tol=cfg.get("meanflow.tol", 1e-10))
    payload = {
        "theta_star": [float(x) for x in report.theta_star],
        "residual": report.residual_norm,
        "eigs": [float(x) for x in report.eigen_real_parts],
        "bias": report.bias_to_opt,
        "bias_to_origin": report.bias_to_origin,
    }
    if "meanflow.eps_sweep" in cfg:
        if objective.dim != 1:
            raise ConfigError("config key 'meanflow.eps_sweep' needs a one-dimensional objective")
        ref = bisect_root(lambda x: float(objective.grad(np.array([x]))[0]), -1.0, 1.0)
        biases, slope = bias_sweep(
            lambda eb: _build_evaluator(cfg, eps_bullet=eb),
            cfg["meanflow.eps_sweep"],
            np.array([ref]),
            tol=cfg.get("meanflow.tol", 1e-10),
        )
        payload["bias_sweep"] = {
            "eps": [float(e) for e in cfg["meanflow.eps_sweep"]],
            "bias": [float(b) for b in biases],
            "slope": slope,
        }
    return payload


def cmd_meanflow(args) -> int:
    cfg, out = _prepare(args, "meanflow")
    evaluator = _build_evaluator(cfg)
    _check_start_points(cfg, evaluator.objective.dim)
    lo, hi, npts = cfg["meanflow.grid"]
    grid = np.linspace(lo, hi, int(npts))
    try:
        payload = _equilibrium_payload(cfg, evaluator)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    out.mkdir(parents=True, exist_ok=True)
    fbar = evaluator.value_batch(grid[:, None])[:, 0]
    _write_csv(
        out / "fbar_grid.csv", ["theta", "fbar", "stderr"], [[t, f, 0.0] for t, f in zip(grid.tolist(), fbar.tolist())]
    )
    outputs = ["fbar_grid.csv", "eq_report.json"]

    if "meanflow.flow_theta0" in cfg:
        flow = integrate_flow(
            evaluator,
            cfg["meanflow.flow_theta0"],
            cfg.get("meanflow.flow_t_end", 1.0),
            cfg.get("meanflow.flow_dt", 1e-3),
        )
        dim = evaluator.objective.dim
        _write_csv(
            out / "flow_mean.csv",
            ["t"] + [f"theta_{i}" for i in range(dim)],
            [[t, *state] for t, state in zip(flow.times.tolist(), flow.states.tolist())],
        )
        outputs.append("flow_mean.csv")

    _write_json(out / "eq_report.json", payload)
    _write_manifest(out, "meanflow", cfg, outputs, {})
    return EXIT_OK


def cmd_equilibrium(args) -> int:
    cfg, out = _prepare(args, "equilibrium")
    evaluator = _build_evaluator(cfg)
    _check_start_points(cfg, evaluator.objective.dim)
    try:
        payload = _equilibrium_payload(cfg, evaluator)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "eq_report.json", payload)
    _write_manifest(out, "equilibrium", cfg, ["eq_report.json"], {})
    return EXIT_OK


def cmd_probe_check(args) -> int:
    cfg, out = _prepare(args, "probe-check")
    dim = 1 if "objective.kind" not in cfg else build_objective(cfg).dim
    base = build_base_noise(cfg, dim)
    seed = derive_seed(cfg["seed.master"], "probe-check")
    gen = ProbeGenerator(base, mode=cfg["probe.mode"], varsigma=get_varsigma(cfg), seed=seed)
    report = gen.moment_diagnostics(cfg.get("probe_check.samples", 100_000))
    payload = {
        "sample_count": report.sample_count,
        "mean": [float(x) for x in report.mean_vec],
        "third_moment_max_abs": report.third_moment_max_abs,
        "covariance": [[float(v) for v in row] for row in report.covariance],
        "covariance_closed_form": [[float(v) for v in row] for row in gen.probe_covariance()],
        "covariance_error": report.covariance_error,
        "probe_bound": gen.probe_bound,
        "regeneration_p": None,
    }
    if cfg["probe.mode"] == "zigzag":
        b = base.bound
        payload["regeneration_p"] = regeneration_test(
            gen,
            np.full(dim, b),
            np.full(dim, -b),
            cfg.get("probe_check.regen_samples", 10_000),
        )
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "probe_report.json", payload)
    _write_manifest(out, "probe-check", cfg, ["probe_report.json"], {"probe": seed})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spsa-lab",
        description="Gradient-free optimization experiments with stabilized single-sample updates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, helptext in (
        ("run", cmd_run, "run one trajectory and write its record"),
        ("experiment", cmd_experiment, "run the gain-scale by probe-mode ensemble matrix"),
        ("meanflow", cmd_meanflow, "tabulate the mean field, integrate its flow, report the equilibrium"),
        ("equilibrium", cmd_equilibrium, "locate the mean-field equilibrium and report its spectrum"),
        ("probe-check", cmd_probe_check, "probe-law moment diagnostics"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to a flat dotted-key JSON config")
        p.add_argument("--out", default=None, help="output directory (default: output.dir or spsa_lab_out)")
        p.add_argument("--seed", type=int, default=None, help="override seed.master")
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="ignored (experiment runs in one thread); kept for old command lines, must be >= 1",
        )
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
