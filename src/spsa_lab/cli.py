"""Command-line front end.

Subcommands: ``run`` (single trajectory), ``experiment`` (gain-scale by
probe-mode ensemble matrix), ``meanflow`` (field grid, flow trajectory,
equilibrium report), ``equilibrium`` (report only), and ``probe-check``
(probe-law diagnostics).  All outputs are CSV/JSON written under one
directory together with a manifest sufficient to reproduce them
bit-identically.  The JSON is strict: a non-finite number is written as
null.

Exit codes: 0 success, 2 invalid configuration, 3 divergence-guard trip,
4 solver non-convergence.  ``main`` maps the exceptions to codes for
every command: a configuration error gives 2, a solver error 4.  A
``--config`` that cannot be read as UTF-8 JSON, and an ``--out`` or
``output.dir`` that cannot be a directory, are configuration errors.
Each is raised before the output directory is made, so such a failure
makes no directory and writes one ``error:`` line to stderr.
The commands hold no config rule: each has ``config.validate_config``
check its config, then builds its objects, runs and writes.

``meanflow`` and ``equilibrium`` share one command body; ``equilibrium``
writes ``meanflow``'s ``eq_report.json`` alone.  The bias sweep rescales
the gain of the one evaluator, and its zero-gain reference is the
objective's known optimum, where the equilibrium search starts unless
``meanflow.theta_init`` is set.

``experiment`` runs the whole matrix as lane batches in one thread.  Every
command still parses the ``--workers`` option and checks that it is at
least 1 (else exit 2, before the output directory is made), but ignores
it; there is no worker environment variable or config key.

``meanflow`` writes ``fbar_grid.csv`` with the header ``theta,fbar,stderr``.
The ``stderr`` column is always 0: both node rules are deterministic.
The column stays because the header is the published output format,
which the benchmark's output checks assert.

Importing this module registers ``gc.freeze`` to run at exit.  A command's
process frees the objects that importing NumPy and the package made only
on its way out, and the interpreter's last collections would walk all of
them; frozen, they are skipped, which cuts most of the process's exit time
(CHANGES.md has the figures).  The freeze relies on two things: every
output is written and closed in a ``with`` block before ``main`` returns,
and no output is written by a finalizer (Python does not promise to run
``__del__`` for objects still alive at exit).  It is registered here and
not in ``spsa_lab``, so that importing the package as a library leaves its
host's exit alone, and not when ``main`` starts, so that a process that
calls ``main`` more than once still collects its own garbage.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    PROBE_MODES,
    ConfigError,
    build_base_noise,
    build_gain,
    build_objective,
    build_schedule,
    build_theta0_box,
    config_hash,
    get_varsigma,
    load_config,
    output_dir,
    setting,
    validate_config,
)
from .core import DivergenceGuard, run_batch
from .ensemble import lane_stream, run_ensemble_matrix, scaling_fit
from .exploration import ProbeGenerator, derive_seed, regeneration_test
from .meanflow import MeanFieldEvaluator, SolverError, bias_sweep, find_equilibrium, integrate_flow

atexit.register(gc.freeze)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_SOLVER = 4


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """Write ``columns`` under ``header``, one ``%`` format for the whole table.

    A column is a nonempty list of cells, every list of one length, or a
    string: a constant column, written verbatim on each row.  A list whose
    first cell is a string is written ``%s``, any other ``%.17g``: 17
    significant digits round-trip a double exactly, and an int or a NumPy
    scalar is written as the float it converts to.  Callers pass Python
    floats and ints (``tolist``).  The cells are laid out row by row in one
    flat list by strided slice assignment, so no object is built per row.
    """
    lists = [c for c in columns if not isinstance(c, str)]
    k = len(lists)
    cells = [None] * (k * len(lists[0]))
    for i, column in enumerate(lists):
        cells[i::k] = column
    line = ",".join(
        c.replace("%", "%%") if isinstance(c, str) else "%s" if isinstance(c[0], str) else "%.17g" for c in columns
    )
    text = ",".join(header) + "\r\n" + ((line + "\r\n") * len(lists[0])) % tuple(cells)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def _finite_or_null(value):
    """``value`` with each non-finite float, at any depth, replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(path: Path, payload) -> None:
    """Write ``payload`` as strict JSON: a non-finite float is written as null."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_null(payload), fh, sort_keys=True, indent=2, allow_nan=False)
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
    out = output_dir(cfg, args.out)
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    return cfg, out


def cmd_run(args) -> int:
    cfg, out = _prepare(args, "run")
    objective = build_objective(cfg)
    schedule = build_schedule(cfg)
    gain = build_gain(cfg, objective)
    base = build_base_noise(cfg, objective.dim)
    guard = DivergenceGuard(setting(cfg, "run.guard_threshold"))
    seed = derive_seed(cfg["seed.master"], "run", 0)
    mode, varsigma = cfg["probe.mode"], get_varsigma(cfg)
    if "run.theta0" in cfg:
        theta0 = np.asarray(cfg["run.theta0"], dtype=float)
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
        algorithm=setting(cfg, "run.algorithm"),
        guard=guard,
        stride=setting(cfg, "run.stride"),
    )
    diverged_at = int(result.diverged_at[0])

    out.mkdir(parents=True, exist_ok=True)
    header = ["n"] + [f"theta_{i}" for i in range(objective.dim)] + ["alpha", "eps", "objective"]
    columns = [
        result.record_indices.tolist(),
        *result.thetas[0].T.tolist(),
        result.alpha_trace.tolist(),
        result.gain_trace[0].tolist(),
        result.objective_trace[0].tolist(),
    ]
    _write_csv(out / "trajectory.csv", header, columns)
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
    guard = DivergenceGuard(setting(cfg, "run.guard_threshold"))
    algorithm = setting(cfg, "run.algorithm")
    eps_grid = [float(e) for e in cfg["ensemble.eps_grid"]]

    def statistic(mode: str, lane_gain):
        if cfg["ensemble.statistic"] == "grad":
            return objective.grad_batch
        ev = MeanFieldEvaluator(objective, lane_gain, base, mode, varsigma)
        return lambda theta: ev.evaluate(theta[..., 0])[..., None]

    cells = run_ensemble_matrix(
        objective,
        schedule,
        base,
        PROBE_MODES,
        varsigma,
        build_gain(cfg, objective, eps_bullet=eps_grid[0]),
        eps_grid,
        cfg["ensemble.M"],
        cfg["ensemble.N"],
        cfg["ensemble.N0"],
        build_theta0_box(cfg, "ensemble.theta0_box", objective.dim),
        statistic,
        cfg["seed.master"],
        guard=guard,
        algorithm=algorithm,
    )

    out.mkdir(parents=True, exist_ok=True)
    table = {name: [] for name in ("eps_bullet", "mode", "M_effective", "scaled_var_trace", "mean_bias_norm")}
    seeds = {}
    scaling = {}
    for mode in PROBE_MODES:
        eps_ok, var_ok = [], []
        for i, eps in enumerate(eps_grid):
            cell = cells[(mode, i)]
            sv = cell.scaled_var_trace
            table["eps_bullet"].append(eps)
            table["mode"].append(mode)
            table["M_effective"].append(cell.m_effective)
            table["scaled_var_trace"].append(sv)
            table["mean_bias_norm"].append(cell.mean_bias_norm)
            seeds.setdefault(mode, {})[format(eps, ".17g")] = cell.seeds
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
    _write_csv(out / "ensemble.csv", list(table), list(table.values()))
    _write_json(out / "scaling.json", scaling)
    _write_manifest(out, "experiment", cfg, ["ensemble.csv", "scaling.json"], seeds)
    return EXIT_OK


def _equilibrium_payload(cfg: dict, evaluator: MeanFieldEvaluator) -> dict:
    # every built-in objective knows its stationary point: the search's
    # default start and the bias sweep's zero-gain reference
    optimum = float(evaluator.objective.known_optimum[0])
    tol = setting(cfg, "meanflow.tol")
    report = find_equilibrium(evaluator, cfg.get("meanflow.theta_init", [optimum])[0], tol=tol)
    # in dimension 1 the Jacobian is the one eigenvalue
    payload = {
        "theta_star": [report.theta_star],
        "residual": report.residual_norm,
        "eigs": [report.jacobian],
        "bias": report.bias_to_opt,
        "bias_to_origin": report.bias_to_origin,
    }
    if "meanflow.eps_sweep" in cfg:
        biases, slope = bias_sweep(evaluator, cfg["meanflow.eps_sweep"], optimum, tol=tol)
        payload["bias_sweep"] = {
            "eps": [float(e) for e in cfg["meanflow.eps_sweep"]],
            "bias": [float(b) for b in biases],
            "slope": slope,
        }
    return payload


def cmd_meanflow(args) -> int:
    """``meanflow``, and ``equilibrium``, which writes the same ``eq_report.json`` alone."""
    cfg, out = _prepare(args, args.command)
    objective = build_objective(cfg)
    gain = build_gain(cfg, objective)
    base = build_base_noise(cfg, objective.dim)
    evaluator = MeanFieldEvaluator(objective, gain, base, setting(cfg, "probe.mode"), get_varsigma(cfg))
    payload = _equilibrium_payload(cfg, evaluator)

    out.mkdir(parents=True, exist_ok=True)
    outputs = ["eq_report.json"]
    if args.command == "meanflow":
        lo, hi, npts = cfg["meanflow.grid"]
        grid = np.linspace(lo, hi, int(npts))
        fbar = evaluator.evaluate(grid)
        _write_csv(out / "fbar_grid.csv", ["theta", "fbar", "stderr"], [grid.tolist(), fbar.tolist(), "0"])
        outputs.append("fbar_grid.csv")
        if "meanflow.flow_theta0" in cfg:
            flow = integrate_flow(
                evaluator.at_float,
                cfg["meanflow.flow_theta0"][0],
                setting(cfg, "meanflow.flow_t_end"),
                setting(cfg, "meanflow.flow_dt"),
            )
            _write_csv(out / "flow_mean.csv", ["t", "theta_0"], [flow.times.tolist(), flow.states.tolist()])
            outputs.append("flow_mean.csv")

    _write_json(out / "eq_report.json", payload)
    _write_manifest(out, args.command, cfg, outputs, {})
    return EXIT_OK


def cmd_probe_check(args) -> int:
    cfg, out = _prepare(args, "probe-check")
    dim = 1 if "objective.kind" not in cfg else build_objective(cfg).dim
    base = build_base_noise(cfg, dim)
    seed = derive_seed(cfg["seed.master"], "probe-check")
    gen = ProbeGenerator(base, mode=cfg["probe.mode"], varsigma=get_varsigma(cfg), seed=seed)
    report = gen.moment_diagnostics(setting(cfg, "probe_check.samples"))
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
            setting(cfg, "probe_check.regen_samples"),
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
        ("equilibrium", cmd_meanflow, "locate the mean-field equilibrium and report its spectrum"),
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
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
