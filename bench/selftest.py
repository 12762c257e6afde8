"""Self-tests of the benchmark's output checks and span counts.

    python3 bench/selftest.py

Run from the repository root; it takes a few seconds.  First, failed
commands must not be timed.  Each workload runs once at a tiny size and must
pass every check.  Then each corruption below is applied to a copy of those
outputs, and the check it names must fail: this shows that every check can
fail.  Last, a tiny traced command must give the span counts that its shapes
imply.  These tests are kept out of the repository's test suite.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spsa_lab.cli import main as cli_main  # noqa: E402


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write_rows(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def edit_csv(name: str, fn):
    def corrupt(out: Path, wl):
        rows = _rows(out / name)
        fn(rows, wl)
        _write_rows(out / name, rows)

    return corrupt


def edit_json(name: str, fn):
    def corrupt(out: Path, wl):
        payload = json.loads((out / name).read_text())
        fn(payload, wl)
        (out / name).write_text(json.dumps(payload))

    return corrupt


def delete(name: str):
    return lambda out, wl: (out / name).unlink()


def scale_cell(row: int, col: int, factor: float):
    def fn(rows, wl):
        rows[row][col] = repr(float(rows[row][col]) * factor)

    return fn


# --- ensemble corruptions ---------------------------------------------------


def _drop_lane(rows, wl):
    rows[1][2] = str(int(rows[1][2]) - 1)


def _zigzag_as_iid(rows, wl):
    iid = next(r for r in rows[1:] if r[1] == "iid")
    zz = next(r for r in rows[1:] if r[1] == "zigzag" and r[0] == iid[0])
    zz[3] = iid[3]


def _flip_iid_slope(payload, wl):
    payload["iid"]["slope"] = abs(payload["iid"]["slope"])


def _shift_zigzag_slope(payload, wl):
    payload["zigzag"]["slope"] += 0.1


def _ensemble_corruptions(ref):
    def perturb_reference(rows, wl):
        eps = wl.config["ensemble.eps_grid"][ref["eps_index"]]
        row = next(i for i, r in enumerate(rows) if r[1] == ref["mode"] and float(r[0]) == eps)
        scale_cell(row, 4, 1 + 1e-6)(rows, wl)

    return [
        ("files", delete("scaling.json")),
        ("rows", edit_csv("ensemble.csv", lambda rows, wl: rows.pop())),
        ("complete", edit_csv("ensemble.csv", _drop_lane)),
        ("iid_over_zigzag", edit_csv("ensemble.csv", _zigzag_as_iid)),
        ("iid_slope", edit_json("scaling.json", _flip_iid_slope)),
        ("zigzag_slope", edit_json("scaling.json", _shift_zigzag_slope)),
        ("reference_cell", edit_csv("ensemble.csv", perturb_reference)),
    ]


# --- trajectory corruptions -------------------------------------------------


def _biased_probes(rows, wl):
    """A self-consistent trajectory whose probes are +1 with probability 0.6."""
    cfg = wl.config
    signs = np.where(np.random.default_rng(0).random(len(rows)) < 0.6, 1.0, -1.0)
    alpha = lambda n: min(cfg["step.alpha0"], max(n, 1) ** -cfg["step.rho"])  # noqa: E731
    theta = float(rows[1][1])
    for n, row in enumerate(rows[1:]):
        eps = float(checks._center_gain(cfg, cfg["gain.eps_bullet"], theta))
        row[1:] = [repr(theta), repr(alpha(n)), repr(eps), repr(theta**2)]
        theta = float(theta - (alpha(n + 1) / eps) * signs[n] * (theta + signs[n] * eps) ** 2)


def _final_theta(rows, wl):
    rows[-1][1] = "1.0"


TRAJECTORY = [
    ("files", delete("run_summary.json")),
    ("summary", edit_json("run_summary.json", lambda p, wl: p.update(diverged_at=10))),
    ("rows", edit_csv("trajectory.csv", lambda rows, wl: rows.pop(100))),
    ("alpha", edit_csv("trajectory.csv", scale_cell(100, 2, 1 + 1e-9))),
    ("eps", edit_csv("trajectory.csv", scale_cell(100, 3, 1 + 1e-9))),
    ("objective", edit_csv("trajectory.csv", scale_cell(100, 4, 1 + 1e-9))),
    ("update", edit_csv("trajectory.csv", scale_cell(100, 1, 1 + 1e-7))),
    ("probe_balance", edit_csv("trajectory.csv", _biased_probes)),
    ("convergence", edit_csv("trajectory.csv", _final_theta)),
]

# --- mean-field corruptions -------------------------------------------------


def _shift_theta_star(p, wl):
    p["theta_star"][0] += 1e-6


def _scale_eig(p, wl):
    p["eigs"][0] *= 1 + 1e-4


def _scale_bias(p, wl):
    p["bias_sweep"]["bias"][2] *= 1.001


def _shift_flow(rows, wl):
    rows[len(rows) // 2][1] = repr(float(rows[len(rows) // 2][1]) + 1e-6)


MEANFLOW = [
    ("files", delete("flow_mean.csv")),
    ("grid", edit_csv("fbar_grid.csv", lambda rows, wl: rows.pop(50))),
    ("fbar", edit_csv("fbar_grid.csv", scale_cell(50, 1, 1 + 1e-6))),
    ("theta_star", edit_json("eq_report.json", _shift_theta_star)),
    ("eigenvalue", edit_json("eq_report.json", _scale_eig)),
    ("bias_sweep", edit_json("eq_report.json", _scale_bias)),
    ("flow", edit_csv("flow_mean.csv", _shift_flow)),
]


def corruptions(name: str, ref: dict):
    if name.startswith("ensemble"):
        return _ensemble_corruptions(ref)
    return TRAJECTORY if name == "trajectory_record" else MEANFLOW


def run_tiny(wl, tmp: Path) -> Path:
    cfg_path, out = tmp / f"{wl.name}.json", tmp / wl.name
    cfg_path.write_text(json.dumps(wl.config))
    code = cli_main([wl.command, "--config", str(cfg_path), "--out", str(out), "--workers", "1"])
    assert code == 0, f"{wl.name}: tiny command exited {code}"
    return out


def test_checks(tmp: Path, seed: int = 0) -> None:
    for name in workloads.NAMES:
        wl = workloads.make(name, seed, tiny=True)
        ref = checks.reference(wl, seed)
        out = run_tiny(wl, tmp)
        failed = checks.check(wl, out, ref)
        assert not failed, f"{name}: clean tiny run fails {failed}"
        for expected, corrupt in corruptions(name, ref):
            bad = tmp / f"{name}-{expected}"
            shutil.copytree(out, bad)
            corrupt(bad, wl)
            names = {n for n, _ in checks.check(wl, bad, ref)}
            assert expected in names, f"{name}: corruption for {expected!r} tripped only {sorted(names)}"
            print(f"ok  {name}: corrupted output fails {expected}")
        print(f"ok  {name}: tiny run passes every check")


def test_span_counts(tmp: Path) -> None:
    wl = workloads.make("ensemble_desk", 0, tiny=True)
    cfg = wl.config
    (tmp / "spans.json").write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(BENCH / "entry.py"), str(tmp / "mark"), "--spans", str(tmp / "spans.npz"), "--"]
    argv += ["experiment", "--config", str(tmp / "spans.json"), "--out", str(tmp / "spans-out"), "--workers", "1"]
    subprocess.run(argv, env=env, check=True)
    got = tracing.layer_metrics(tmp / "spans.npz")
    cells, m, n = 2 * len(cfg["ensemble.eps_grid"]), cfg["ensemble.M"], cfg["ensemble.N"]
    want = {
        "ensemble.cells": cells,
        "core.steps": cells * n,
        "core.lane_steps": cells * m * n,
        "exploration.streams": cells * m,
        "schedules.gain_calls": cells * n,
        "objectives.value_batch_calls": cells * n,
        "objectives.grad_batch_calls": cells * (n - cfg["ensemble.N0"] + 1),
        "exploration.take_calls": cells * m,
        "meanflow.evaluate_calls": 0,
    }
    for key, value in want.items():
        assert got[key] == value, f"{key}: {got[key]} != {value}"
    spans = tracing.Spans(tmp / "spans.npz")
    for name in ("numpy.random.Philox", "numpy.random.Generator"):
        assert spans.ids(name).size == cells * m, f"{name}: {spans.ids(name).size} != {cells * m}"
    assert 0 < spans.span_inner_s < spans.span_s and 0 < got["trace.span_us"] < 100
    assert 0 < got["cli.self_s"] < got["ensemble.cell_s"] and 0.9 < got["ensemble.concurrency"] <= 1.0 + 1e-9
    print("ok  traced tiny ensemble_desk: span counts match its shapes")


def test_failed_commands_are_not_timed() -> None:
    wl = workloads.make("trajectory_record", 0, tiny=True)
    ok = run.Op(0, 5.0, 1.0, 4.0, 100.0)
    early_exit = run.Op(4, 1.5, 1.0, 0.5, 90.0)
    assert run.end_to_end(wl, [early_exit, ok, early_exit])["wall_s"] == ok.wall_s
    try:
        run.end_to_end(wl, [early_exit])
    except run.Fatal:
        print("ok  end-to-end metrics come only from commands that succeeded")
    else:
        raise AssertionError("a run with no successful command reported metrics")


if __name__ == "__main__":
    test_failed_commands_are_not_timed()
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        test_checks(Path(tmp))
        test_span_counts(Path(tmp))
    print("all self-tests passed")
