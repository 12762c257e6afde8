"""Experiment configuration: flat dotted-key JSON, validated as a whole.

A config file is a single JSON object whose keys are flat dotted paths
(for example ``"step.rho"``).  Every config rule is checked here, and
``validate_config`` checks all but three before a command builds anything.
The three need a built object, so the builders check them: ``objective.Q``
symmetric positive definite, a theta0 box of the objective's shape, and
``gain.obj_floor`` not above the objective's floor.  The two paths a
command is given are checked here too: ``load_config`` reads ``--config``,
and ``output_dir`` checks ``--out`` or ``output.dir``.  The canonical form
(sorted keys, no whitespace) is hashed into the run manifest.  The checks
and the commands read an optional key through ``setting``: left out, it
takes its ``DEFAULTS`` entry.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .core import DEFAULT_GUARD_THRESHOLD, theta0_box
from .exploration import DEFAULT_VARSIGMA, BaseNoise
from .meanflow import DEFAULT_TOL
from .objectives import Objective, builtin_objective
from .schedules import (
    CenterActiveGain,
    ConstantGain,
    DecayingGain,
    ExplorationGain,
    ObjectiveActiveGain,
    StepSizeSchedule,
)

__all__ = [
    "ConfigError",
    "load_config",
    "validate_config",
    "output_dir",
    "config_hash",
    "build_objective",
    "build_theta0_box",
    "build_schedule",
    "build_base_noise",
    "build_gain",
    "get_varsigma",
    "REQUIRED_KEYS",
]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


def _is_number(v) -> bool:
    # a finite float, or an int that converts to one
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_vector(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(_is_number(x) for x in v)


def _is_matrix(v) -> bool:
    return (
        isinstance(v, list)
        and len(v) > 0
        and all(_is_vector(row) and len(row) == len(v[0]) for row in v)
    )


# caps on what a config asks for: RK4 steps of the flow, points of the grid,
# rows of a run's record, lanes of an experiment, steps of a run, lane-steps
# of an experiment (configs/fig2_full.json asks for 5 * 10**8), and each
# sample count of a probe check, whose probes are held in memory at once
MAX_FLOW_STEPS = 10**6
MAX_GRID_POINTS = 10**6
MAX_RECORD_ROWS = 10**6
MAX_LANES = 10**6
MAX_RUN_STEPS = 10**8
MAX_LANE_STEPS = 2 * 10**9
MAX_PROBE_SAMPLES = 10**7

# experiment runs every cell in both probe modes
PROBE_MODES = ("iid", "zigzag")

# key -> (checker, human-readable expectation)
KNOWN_KEYS: dict[str, tuple] = {
    "step.alpha0": (lambda v: _is_number(v) and v > 0, "a positive number"),
    "step.rho": (lambda v: _is_number(v) and 0.5 < v < 1.0, "a number strictly inside (0.5, 1.0)"),
    "gain.kind": (
        lambda v: v in ("constant", "decaying", "center_active", "objective_active"),
        "one of constant|decaying|center_active|objective_active",
    ),
    "gain.eps_bullet": (lambda v: _is_number(v) and v > 0, "a positive number"),
    "gain.kappa": (lambda v: _is_number(v) and v >= 0, "a nonnegative number"),
    "gain.theta_ctr": (_is_vector, "a vector of numbers"),
    "gain.sigma_p": (lambda v: _is_number(v) and v > 0, "a positive number"),
    "gain.obj_floor": (_is_number, "a number"),
    "probe.base": (lambda v: v in ("rademacher", "uniform"), "rademacher or uniform"),
    "probe.support": (lambda v: _is_number(v) and v > 0, "a positive number"),
    "probe.mode": (lambda v: v in PROBE_MODES, "iid or zigzag"),
    "probe.varsigma": (lambda v: _is_number(v) and v > 0, "a positive number"),
    "objective.kind": (
        lambda v: v in ("quadratic1d", "trig_quadratic1d", "quadratic_nd"),
        "one of quadratic1d|trig_quadratic1d|quadratic_nd",
    ),
    "objective.Q": (lambda v: _is_matrix(v) and len(v) == len(v[0]), "a square matrix as nested lists"),
    "seed.master": (lambda v: _is_int(v) and v >= 0, "a nonnegative integer"),
    "run.N": (lambda v: _is_int(v) and v >= 0, "a nonnegative integer"),
    "run.theta0": (_is_vector, "a vector of numbers"),
    "run.theta0_box": (
        lambda v: (_is_vector(v) and len(v) == 2) or _is_matrix(v),
        "[lo, hi] or a per-dimension list of [lo, hi]",
    ),
    "run.stride": (lambda v: _is_int(v) and v >= 1, "a positive integer"),
    "run.algorithm": (lambda v: v in ("1spsa", "2spsa"), "1spsa or 2spsa"),
    "run.guard_threshold": (lambda v: _is_number(v) and v >= 1e3, "a number >= 1e3"),
    "ensemble.M": (lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
    "ensemble.N": (lambda v: _is_int(v) and v >= 1, "a positive integer"),
    "ensemble.N0": (lambda v: _is_int(v) and v >= 0, "a nonnegative integer"),
    "ensemble.eps_grid": (
        lambda v: _is_vector(v) and len(v) >= 3 and all(x > 0 for x in v) and all(a < b for a, b in zip(v, v[1:])),
        "a strictly increasing list of >= 3 positive numbers",
    ),
    "ensemble.statistic": (lambda v: v in ("grad", "fbar"), "grad or fbar"),
    "ensemble.theta0_box": (
        lambda v: (_is_vector(v) and len(v) == 2) or _is_matrix(v),
        "[lo, hi] or a per-dimension list of [lo, hi]",
    ),
    # optional, and a given value must be the rule probe.base picks; Monte Carlo is a test reference only
    "meanflow.method": (lambda v: v in ("two_point", "quadrature"), "two_point or quadrature"),
    "meanflow.grid": (
        lambda v: _is_vector(v) and len(v) == 3 and v[0] < v[1] and math.isfinite(float(v[1]) - float(v[0]))
        and _is_int(v[2]) and 2 <= v[2] <= MAX_GRID_POINTS,
        f"[lo, hi, npoints] with lo < hi, a finite width hi - lo and integer npoints in [2, {MAX_GRID_POINTS}]",
    ),
    "meanflow.theta_init": (_is_vector, "a vector of numbers"),
    "meanflow.tol": (lambda v: _is_number(v) and 1e-12 <= v <= 1e-6, "a number in [1e-12, 1e-6]"),
    "meanflow.eps_sweep": (
        lambda v: _is_vector(v) and all(x > 0 for x in v) and len(set(v)) >= 3,
        "a list of positive numbers with >= 3 distinct values",
    ),
    "meanflow.flow_theta0": (_is_vector, "a vector of numbers"),
    "meanflow.flow_t_end": (lambda v: _is_number(v) and v >= 0, "a nonnegative number"),
    "meanflow.flow_dt": (lambda v: _is_number(v) and v > 0, "a positive number"),
    "probe_check.samples": (lambda v: _is_int(v) and v >= 1000, "an integer >= 1000"),
    "probe_check.regen_samples": (lambda v: _is_int(v) and v >= 100, "an integer >= 100"),
    "output.dir": (lambda v: isinstance(v, str) and len(v) > 0, "a nonempty string"),
}

REQUIRED_KEYS: dict[str, list[str]] = {
    "run": [
        "objective.kind", "step.alpha0", "step.rho", "gain.kind", "gain.eps_bullet", "probe.base", "probe.mode",
        "seed.master", "run.N",
    ],
    "experiment": [
        "objective.kind", "step.alpha0", "step.rho", "gain.kind", "probe.base", "seed.master",
        "ensemble.M", "ensemble.N", "ensemble.N0", "ensemble.eps_grid", "ensemble.statistic",
        "ensemble.theta0_box",
    ],
    "meanflow": ["objective.kind", "gain.kind", "gain.eps_bullet", "probe.base", "meanflow.grid"],
    "equilibrium": ["objective.kind", "gain.kind", "gain.eps_bullet", "probe.base", "meanflow.theta_init"],
    "probe-check": ["probe.base", "probe.mode", "seed.master"],
}

DEFAULTS = {
    "probe.support": 1.0,
    "probe.mode": "iid",
    "probe.varsigma": DEFAULT_VARSIGMA,
    "run.stride": 1,
    "run.algorithm": "1spsa",
    "run.guard_threshold": DEFAULT_GUARD_THRESHOLD,
    "meanflow.tol": DEFAULT_TOL,
    "meanflow.flow_t_end": 1.0,
    "meanflow.flow_dt": 1e-3,
    "probe_check.samples": 100_000,
    "probe_check.regen_samples": 10_000,
    "output.dir": "spsa_lab_out",
}

_GAIN_KEY_DEPS = {
    "decaying": ["gain.kappa"],
    "center_active": ["gain.theta_ctr", "gain.sigma_p"],
    "objective_active": ["gain.obj_floor"],
}


def load_config(path) -> dict:
    """Read the flat dotted-key JSON config file ``--config`` names (no validation)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"--config {str(path)!r} cannot be read as UTF-8 text: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object of dotted keys")
    return cfg


def validate_config(cfg: dict, command: str) -> None:
    """Check key names, value shapes, and cross-key invariants.

    Raises ConfigError naming the offending key; nothing is partially
    accepted.
    """
    if command not in REQUIRED_KEYS:
        raise ConfigError(f"unknown command {command!r}")
    for key in cfg:
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    for key, value in cfg.items():
        checker, expected = KNOWN_KEYS[key]
        if not checker(value):
            raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}")
    missing = [k for k in REQUIRED_KEYS[command] if k not in cfg]
    if missing:
        raise ConfigError(f"missing config key {missing[0]!r} (required for {command!r})")

    kind = cfg.get("gain.kind")
    for dep in _GAIN_KEY_DEPS.get(kind, []):
        if dep not in cfg:
            raise ConfigError(f"missing config key {dep!r} (required for gain.kind={kind!r})")
    if cfg.get("objective.kind") == "quadratic_nd" and "objective.Q" not in cfg:
        raise ConfigError("missing config key 'objective.Q' (required for quadratic_nd)")
    if command == "run" and "run.theta0" not in cfg and "run.theta0_box" not in cfg:
        raise ConfigError("missing config key 'run.theta0' (or 'run.theta0_box')")
    if command == "experiment" and cfg["ensemble.N0"] >= cfg["ensemble.N"]:
        raise ConfigError("config key 'ensemble.N0' must be below 'ensemble.N'")

    _check_derived(cfg, command)


def _check_derived(cfg: dict, command: str) -> None:
    """Check what the program derives from keys that pass their own checks.

    A square, a doubled bound, the largest probe offset (gain scale times
    probe support), the probe check's third-moment sum, the last gain of a
    decaying schedule, and the sizes of the work and of the outputs: flow
    steps, run steps, record rows, experiment lanes and lane-steps, and
    probe-check samples.  Last, the objective's dimension (1, or Q's
    order): the mean field needs 1 and the node rule of ``probe.base``, and
    every start point and gain center needs it.
    """
    if "gain.sigma_p" in cfg and not 0.0 < cfg["gain.sigma_p"] * cfg["gain.sigma_p"] < math.inf:
        raise ConfigError(f"config key 'gain.sigma_p' is {cfg['gain.sigma_p']!r}; its square must be in (0, inf)")
    support = setting(cfg, "probe.support")
    if not math.isfinite(2.0 * support):
        raise ConfigError(f"config key 'probe.support' is {support!r}; twice it must be finite")
    for key in ("gain.eps_bullet", "ensemble.eps_grid"):
        if key in cfg and not math.isfinite(float(np.max(cfg[key])) * support):
            raise ConfigError(
                f"config key {key!r} is {cfg[key]!r}; times 'probe.support' {support!r} it must be finite"
            )
    steps = setting(cfg, "meanflow.flow_t_end") / setting(cfg, "meanflow.flow_dt")
    if not steps <= MAX_FLOW_STEPS:
        raise ConfigError(
            f"config keys 'meanflow.flow_t_end' / 'meanflow.flow_dt' ask for {steps:.3g} RK4 steps; "
            f"at most {MAX_FLOW_STEPS} are allowed"
        )
    if command == "probe-check":
        for key in ("probe_check.samples", "probe_check.regen_samples"):
            if setting(cfg, key) > MAX_PROBE_SAMPLES:
                raise ConfigError(
                    f"config key {key!r} asks for {cfg[key]} samples; at most {MAX_PROBE_SAMPLES} are allowed"
                )
        # the diagnostics square the base bound and varsigma, and sum one
        # third-moment product per sample, each at most the probe bound cubed
        zigzag, varsigma = cfg["probe.mode"] == "zigzag", get_varsigma(cfg)
        base_bound = support if cfg["probe.base"] == "uniform" else 1.0
        bound = base_bound * 2.0 * varsigma if zigzag else base_bound
        keys = "'probe.support' / 'probe.varsigma'" if zigzag else "'probe.support'"
        if not math.isfinite(base_bound * base_bound):
            raise ConfigError(f"config key 'probe.support' is {support!r}; its square must be finite")
        if zigzag and not math.isfinite(varsigma * varsigma):
            raise ConfigError(f"config key 'probe.varsigma' is {varsigma!r}; its square must be finite")
        if not math.isfinite(setting(cfg, "probe_check.samples") * bound * bound * bound):
            raise ConfigError(
                f"config keys {keys} give a probe bound of {bound:.3g}; "
                "'probe_check.samples' times its cube must be finite"
            )
    if command == "run":
        if cfg["run.N"] > MAX_RUN_STEPS:
            raise ConfigError(f"config key 'run.N' asks for {cfg['run.N']} steps; at most {MAX_RUN_STEPS} are allowed")
        # index 0, every stride-th index and the last
        rows = cfg["run.N"] // setting(cfg, "run.stride") + 2
        if rows > MAX_RECORD_ROWS:
            raise ConfigError(
                f"config keys 'run.N' / 'run.stride' ask for {rows} record rows; at most {MAX_RECORD_ROWS} are allowed"
            )
    if command == "experiment":
        lanes = cfg["ensemble.M"] * len(PROBE_MODES) * len(cfg["ensemble.eps_grid"])
        if lanes > MAX_LANES:
            raise ConfigError(
                f"config key 'ensemble.M' asks for {lanes} lanes ({len(PROBE_MODES)} probe modes x "
                f"{len(cfg['ensemble.eps_grid'])} gain values x M); at most {MAX_LANES} are allowed"
            )
        if lanes * cfg["ensemble.N"] > MAX_LANE_STEPS:
            raise ConfigError(
                f"config key 'ensemble.N' asks for {lanes * cfg['ensemble.N']} lane-steps ({lanes} lanes x N); "
                f"at most {MAX_LANE_STEPS} are allowed"
            )
    if command in ("run", "experiment") and cfg["gain.kind"] == "decaying":
        # the increment divides by the gain, and a one-lane run raises on a zero
        # one; the smallest gain is the smallest scale at the last index, which
        # the caps above keep small enough for a float
        eps = cfg["gain.eps_bullet"] if command == "run" else cfg["ensemble.eps_grid"][0]
        n = cfg["run.N"] if command == "run" else cfg["ensemble.N"]
        if DecayingGain(eps, cfg["gain.kappa"]).at_float(0.0, n) == 0.0:
            raise ConfigError(f"config key 'gain.kappa' is {cfg['gain.kappa']!r}; gain {eps!r} * {n}**-kappa is 0.0")

    dim = len(cfg["objective.Q"]) if cfg.get("objective.kind") == "quadratic_nd" else 1
    points = ["gain.theta_ctr"] if command != "probe-check" and cfg["gain.kind"] == "center_active" else []
    if command == "run":
        points.append("run.theta0")
    if command in ("meanflow", "equilibrium") or (command == "experiment" and cfg["ensemble.statistic"] == "fbar"):
        if dim != 1:
            raise ConfigError(
                f"config key 'objective.kind' is {cfg['objective.kind']!r}, of dimension {dim}; "
                "the mean field needs a one-dimensional objective"
            )
        rule = "two_point" if cfg["probe.base"] == "rademacher" else "quadrature"
        if cfg.get("meanflow.method", rule) != rule:
            raise ConfigError(
                f"config key 'meanflow.method' is {cfg['meanflow.method']!r}, "
                f"but 'probe.base' {cfg['probe.base']!r} takes {rule!r}"
            )
        if command != "experiment":
            points += ["meanflow.theta_init", "meanflow.flow_theta0"]
    for key in points:
        if key in cfg and len(cfg[key]) != dim:
            raise ConfigError(f"config key {key!r} has dimension {len(cfg[key])}, objective has {dim}")


def output_dir(cfg: dict, out: str | None) -> Path:
    """The output directory: ``out`` (the ``--out`` option) if given, else ``output.dir``.

    The commands make it with ``mkdir(parents=True, exist_ok=True)`` after
    their work, so it must be a directory, or a path whose nearest existing
    part is one.  That is checked here, creating nothing.
    """
    name, given = ("--out", out) if out is not None else ("config key 'output.dir'", setting(cfg, "output.dir"))
    if not given:
        raise ConfigError(f"{name} must be a nonempty path")
    path = Path(given)
    for part in (path, *path.parents):
        if part.is_dir():
            break
        # an existing file, or a link to nothing, where a directory must be
        if os.path.lexists(part):
            raise ConfigError(f"{name} is {str(path)!r}, but {str(part)!r} exists and is not a directory")
    return path


def config_hash(cfg: dict) -> str:
    """SHA-256 of the canonical serialized config (sorted keys, no whitespace)."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_objective(cfg: dict) -> Objective:
    try:
        return builtin_objective(cfg["objective.kind"], cfg.get("objective.Q"))
    except ValueError as exc:
        raise ConfigError(f"config key 'objective.Q' is invalid: {exc}") from exc


def build_theta0_box(cfg: dict, key: str, dim: int) -> np.ndarray:
    """The box under ``key`` as a (dim, 2) array of [lo, hi] rows."""
    try:
        return theta0_box(cfg[key], dim)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r} is invalid for a {dim}-dimensional objective: {exc}") from exc


def build_schedule(cfg: dict) -> StepSizeSchedule:
    return StepSizeSchedule(alpha0=cfg["step.alpha0"], rho=cfg["step.rho"])


def build_base_noise(cfg: dict, dim: int) -> BaseNoise:
    return BaseNoise(
        kind=cfg["probe.base"],
        dim=dim,
        support=setting(cfg, "probe.support"),
    )


def build_gain(cfg: dict, objective: Objective, eps_bullet: float | None = None) -> ExplorationGain:
    """Construct the configured gain, optionally overriding the scale."""
    kind = cfg["gain.kind"]
    eps = cfg["gain.eps_bullet"] if eps_bullet is None else eps_bullet
    if kind == "constant":
        return ConstantGain(eps_bullet=eps)
    if kind == "decaying":
        return DecayingGain(eps_bullet=eps, kappa=cfg["gain.kappa"])
    if kind == "center_active":
        return CenterActiveGain(eps_bullet=eps, center=cfg["gain.theta_ctr"], sigma_p=cfg["gain.sigma_p"])
    if kind == "objective_active":
        floor = cfg["gain.obj_floor"]
        if objective.known_floor is not None and floor > objective.known_floor:
            raise ConfigError(
                f"config key 'gain.obj_floor' is {floor}, above the objective's floor {objective.known_floor}"
            )
        return ObjectiveActiveGain(eps_bullet=eps, objective=objective, floor=floor)
    raise ConfigError(f"unknown gain kind {kind!r}")


def setting(cfg: dict, key: str):
    """The config's value for the optional ``key``, or its entry in ``DEFAULTS``."""
    return cfg[key] if key in cfg else DEFAULTS[key]


def get_varsigma(cfg: dict) -> float:
    return float(setting(cfg, "probe.varsigma"))
