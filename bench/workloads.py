"""The benchmark's workloads: which spsa-lab command each runs, on which inputs.

BENCHMARK.json lists ensemble_desk and meanflow_sweep; ensemble_wide and
trajectory_record run the same way when named (README.md says why they are
left out).

Every input is written by the benchmark from its ``--seed``; nothing is read
from ``configs/``.  The same seed gives the same config.  The ensemble and
trajectory workloads take their master seed from a pool of masters on which
no lane trips the divergence guard (see README.md for why, and how the
pools were chosen); the mean-field workload draws its flow start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NAMES = ("ensemble_desk", "ensemble_wide", "trajectory_record", "meanflow_sweep")

# Masters on which every lane of every cell stays below the 1e6 guard at the
# workload's size, found by running the command on masters 0-29 (desk,
# trajectory) and 0-15 (wide).
DESK_MASTERS = (3, 4, 6, 8, 9, 10, 11, 12, 15, 16, 17, 22, 23, 25, 27, 28, 29)
WIDE_MASTERS = tuple(range(16))
RUN_MASTERS = tuple(range(30))

VARSIGMA = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an spsa-lab subcommand and its config."""

    name: str
    command: str
    config: dict
    # lane-steps the command is asked for (cells x M x N, N for a single
    # run, RK4 steps for the mean flow); the numerator of lane_steps_per_s
    lane_steps: int


def _ensemble(master: int, m: int, n: int, n0: int, grid: list[float]) -> dict:
    # the fig2_desk shape: trig quadratic, center-active gain, uniform probes
    return {
        "objective.kind": "trig_quadratic1d",
        "step.alpha0": 0.1,
        "step.rho": 0.6,
        "gain.kind": "center_active",
        "gain.theta_ctr": [0.0],
        "gain.sigma_p": 1.0,
        "probe.base": "uniform",
        "probe.support": 1.0,
        "probe.varsigma": VARSIGMA,
        "run.guard_threshold": 1e6,
        "seed.master": master,
        "ensemble.M": m,
        "ensemble.N": n,
        "ensemble.N0": n0,
        "ensemble.eps_grid": grid,
        "ensemble.statistic": "grad",
        "ensemble.theta0_box": [-10.0, 10.0],
    }


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` at ``seed``; ``tiny`` shrinks it for the self-tests."""
    if name == "ensemble_desk":
        m, n, n0 = (20, 2000, 600) if tiny else (50, 10_000, 3_000)
        grid = [0.05, 0.0707, 0.1]
        cfg = _ensemble(DESK_MASTERS[seed % len(DESK_MASTERS)], m, n, n0, grid)
        return Workload(name, "experiment", cfg, 2 * len(grid) * m * n)
    if name == "ensemble_wide":
        m, n, n0 = (200, 600, 200) if tiny else (3_000, 1_500, 500)
        grid = [0.1, 0.2, 0.4]
        cfg = _ensemble(WIDE_MASTERS[seed % len(WIDE_MASTERS)], m, n, n0, grid)
        return Workload(name, "experiment", cfg, 2 * len(grid) * m * n)
    if name == "trajectory_record":
        n = 4_000 if tiny else 50_000
        cfg = {
            # the fig1_active shape, recorded at every step
            "objective.kind": "quadratic1d",
            "step.alpha0": 0.1,
            "step.rho": 0.6,
            "gain.kind": "center_active",
            "gain.eps_bullet": 0.1,
            "gain.theta_ctr": [0.0],
            "gain.sigma_p": 1.0,
            "probe.base": "rademacher",
            "probe.mode": "iid",
            "seed.master": RUN_MASTERS[seed % len(RUN_MASTERS)],
            "run.N": n,
            "run.theta0_box": [-10.0, 10.0],
            "run.stride": 1,
            "run.guard_threshold": 1e6,
        }
        return Workload(name, "run", cfg, n)
    if name == "meanflow_sweep":
        # the meanflow_trig shape, enlarged: 20001 grid points, 20000 RK4
        # steps, eight sweep gains
        points, t_end, dt = (201, 0.2, 1e-3) if tiny else (20_001, 2.0, 1e-4)
        rng = np.random.default_rng(seed)
        theta0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 3.0))
        cfg = {
            "objective.kind": "trig_quadratic1d",
            "gain.kind": "center_active",
            "gain.eps_bullet": 0.05,
            "gain.theta_ctr": [0.0],
            "gain.sigma_p": 1.0,
            "probe.base": "rademacher",
            "meanflow.method": "two_point",
            "meanflow.grid": [-3.0, 3.0, points],
            "meanflow.theta_init": [0.2],
            "meanflow.tol": 1e-10,
            "meanflow.eps_sweep": [0.025, 0.0354, 0.05, 0.0707, 0.1, 0.141, 0.2, 0.283],
            "meanflow.flow_theta0": [theta0],
            "meanflow.flow_t_end": t_end,
            "meanflow.flow_dt": dt,
        }
        return Workload(name, "meanflow", cfg, int(round(t_end / dt)))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
