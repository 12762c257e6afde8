"""Golden digests: every command's outputs, byte for byte, on small cases.

Each case runs ``spsa-lab`` in-process through ``cli.main`` on a committed
config or a variant of it, and compares the SHA-256 of every output file,
of stdout and of stderr (with any warning appended as ``Category:
message``), and the exit code with ``tests/golden.json``.  The cases are
small, but each reaches its path: the float flow and the column grid of
every mean-field rule, probe mode and gain kind, the zero-bias sweep, the
window statistic of both ``fbar`` rules, 2SPSA, engine chunk boundaries
(N > ENGINE_CHUNK), and guard trips in a run (exit 3) and in an
experiment (exit 4).

A change that moves an output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says which outputs moved and why.  The file records the Python, NumPy
and SciPy versions it was made with, because a libm or NumPy change can
move last bits; a failure names any version that differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from spsa_lab.cli import main
from test_config_cli import child_env

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def _config(name: str, **changes) -> dict:
    """A committed config with keys set (a value of None deletes the key)."""
    cfg = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    for key, value in changes.items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    return cfg


def _meanflow(**changes) -> dict:
    return _config("meanflow_trig.json", **changes)


NO_CENTER = {"gain.theta_ctr": None, "gain.sigma_p": None}

MEANFLOW_VARIANTS = {
    "trig": _meanflow(),
    "zigzag": _meanflow(**{"probe.mode": "zigzag"}),
    "quadrature_iid": _meanflow(**{"probe.base": "uniform", "meanflow.method": "quadrature"}),
    "quadrature_zigzag": _meanflow(
        **{"probe.base": "uniform", "meanflow.method": "quadrature", "probe.mode": "zigzag"}
    ),
    "objective_active": _meanflow(**{"gain.kind": "objective_active", "gain.obj_floor": 2.0}, **NO_CENTER),
    "constant": _meanflow(**{"gain.kind": "constant"}, **NO_CENTER),
    "decaying": _meanflow(**{"gain.kind": "decaying", "gain.kappa": 0.3}, **NO_CENTER),
    "quadratic1d": _meanflow(**{"objective.kind": "quadratic1d"}),
}

SMALL_ENSEMBLE = {"ensemble.M": 4, "ensemble.N": 2500, "ensemble.N0": 800}
QUADRATIC_ND = {
    "objective.kind": "quadratic_nd",
    "objective.Q": [[2.0, 0.5], [0.5, 1.0]],
    "gain.theta_ctr": [0.0, 0.0],
    "probe.base": "uniform",
}

CASES = {
    **{f"meanflow_{name}": ("meanflow", cfg) for name, cfg in MEANFLOW_VARIANTS.items()},
    **{f"equilibrium_{name}": ("equilibrium", cfg) for name, cfg in MEANFLOW_VARIANTS.items()},
    "experiment_grad": ("experiment", _config("fig2_desk.json", **SMALL_ENSEMBLE)),
    "experiment_fbar_quadrature": (
        "experiment",
        _config("fig2_desk.json", **SMALL_ENSEMBLE, **{"ensemble.statistic": "fbar"}),
    ),
    "experiment_fbar_two_point": (
        "experiment",
        _config(
            "fig2_desk.json",
            **SMALL_ENSEMBLE,
            **{
                "ensemble.statistic": "fbar",
                "probe.base": "rademacher",
                "objective.kind": "quadratic1d",
                "step.alpha0": 0.05,
            },
        ),
    ),
    "experiment_2spsa": ("experiment", _config("fig2_desk.json", **SMALL_ENSEMBLE, **{"run.algorithm": "2spsa"})),
    # an unstabilized constant gain from far-out starts trips lanes in every
    # cell, leaving too few complete gain values for the fit (exit 4)
    "experiment_trips": (
        "experiment",
        _config(
            "fig2_desk.json",
            **SMALL_ENSEMBLE,
            **{
                "objective.kind": "quadratic1d",
                "step.alpha0": 1.0,
                "step.rho": 0.6,
                "gain.kind": "constant",
                "probe.base": "rademacher",
                "ensemble.theta0_box": [5.0, 10.0],
            },
            **NO_CENTER,
        ),
    ),
    "run_fig1_active": ("run", _config("fig1_active.json", **{"run.N": 5000})),
    "run_fig1_divergence": ("run", _config("fig1_divergence.json", **{"run.N": 3000})),
    "probe_check_zigzag": ("probe-check", _config("probe_check_zigzag.json", **{"probe_check.samples": 20_000})),
    # the one-lane run on the trig objective (libm trig at a float) with
    # uniform zigzag probes, across a chunk boundary, ending off the stride
    "run_trig_zigzag": (
        "run",
        _config(
            "fig1_active.json",
            **{
                "objective.kind": "trig_quadratic1d",
                "probe.base": "uniform",
                "probe.mode": "zigzag",
                "run.N": 4500,
                "run.stride": 7,
            },
        ),
    ),
    "run_2spsa": ("run", _config("fig1_active.json", **{"run.N": 3000, "run.algorithm": "2spsa"})),
    "run_objective_active": (
        "run",
        _config(
            "fig1_active.json",
            **{
                "objective.kind": "trig_quadratic1d",
                "gain.kind": "objective_active",
                "gain.obj_floor": 2.5,
                "run.N": 3000,
                "run.stride": 3,
            },
            **NO_CENTER,
        ),
    ),
    # d = 2 keeps the (m, d) rows of the engine
    "run_quadratic_nd": (
        "run",
        _config("fig1_active.json", **{"run.N": 3000, "run.stride": 5}, **QUADRATIC_ND),
    ),
    "experiment_quadratic_nd": (
        "experiment",
        _config("fig2_desk.json", **SMALL_ENSEMBLE, **QUADRATIC_ND, **{"ensemble.theta0_box": [-1.0, 1.0]}),
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, workdir: Path) -> dict:
    """Run one case in ``workdir`` and return its digests."""
    command, cfg = CASES[name]
    cfg_path = workdir / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = workdir / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(cfg_path), "--out", str(out)])
    err = stderr.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    return {
        "exit": code,
        "stdout": _sha256(stdout.getvalue().encode("utf-8")),
        "stderr": _sha256(err.encode("utf-8")),
        "files": {p.relative_to(out).as_posix(): _sha256(p.read_bytes()) for p in files},
    }


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(golden, name, tmp_path):
    got = run_case(name, tmp_path)
    want = golden["cases"][name]
    differ = {k: f"{golden['versions'][k]} -> {v}" for k, v in versions().items() if golden["versions"][k] != v}
    note = f" (recorded with other versions: {differ})" if differ else ""
    assert got["exit"] == want["exit"], f"exit code{note}"
    assert sorted(got["files"]) == sorted(want["files"]), f"output files{note}"
    moved = [k for k in ("stdout", "stderr") if got[k] != want[k]]
    moved += [f for f in want["files"] if got["files"][f] != want["files"][f]]
    assert not moved, f"outputs moved: {moved}{note}"


# one case of each command that does work, run in a fresh interpreter that
# then exits: what a command writes must not depend on the interpreter's
# teardown, which the command line shortens by freezing the heap at exit
FRESH_PROCESS_CASES = ("run_fig1_divergence", "experiment_grad", "meanflow_trig")
FRESH_PROCESS_MAIN = "import sys; from spsa_lab.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("name", FRESH_PROCESS_CASES)
def test_fresh_process_outputs_match_golden_digests(golden, name, tmp_path):
    command, cfg = CASES[name]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    argv = [sys.executable, "-c", FRESH_PROCESS_MAIN, command, "--config", str(cfg_path), "--out", str(out)]
    proc = subprocess.run(argv, env=child_env(), capture_output=True)
    want = golden["cases"][name]
    assert proc.returncode == want["exit"], proc.stderr.decode("utf-8", "replace")
    got = {p.relative_to(out).as_posix(): _sha256(p.read_bytes()) for p in out.rglob("*") if p.is_file()}
    assert got == want["files"]


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cases = {}
        for name in sorted(CASES):
            workdir = Path(tmp) / name
            workdir.mkdir()
            cases[name] = run_case(name, workdir)
    GOLDEN.write_text(json.dumps({"versions": versions(), "cases": cases}, indent=2, sort_keys=True) + "\n")
    for name, case in cases.items():
        print(f"{name}: exit {case['exit']}, {len(case['files'])} files", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
