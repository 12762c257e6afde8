"""Output checks, made apart from the program.

Every check compares an output with a computation written here from the
documented method, or with a property the method must have; none compares
with a stored copy of earlier output.  ``reference(workload)`` does the
expensive part once per run (a recomputed ensemble cell, a root, an ODE
solution); ``check(workload, out_dir, ref)`` then reads one command's
outputs and returns the names of the checks that failed, each with its
reason.  README.md lists the tolerances and why each is what it is.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import integrate, optimize

from workloads import Workload

# relative agreement between the program's ensemble cell and the one
# recomputed here; both follow the same recursion in double precision
CELL_RTOL = 1e-9
ALPHA_RTOL = 1e-12
TRAJ_UPDATE_RTOL = 1e-10
FBAR_TOL = 1e-10
ROOT_TOL = 1e-9
EIG_RTOL = 1e-6
FLOW_TOL = 1e-8
BIAS_RTOL = 1e-6
SLOPE_BAND = (1.85, 2.15)
MIN_IID_OVER_ZIGZAG = 10.0
PROBE_SIGMAS = 5.0
FINAL_THETA_MAX = 0.05


def _trig(x):
    return x**2 - np.cos(x) - np.sin(5.0 * x) / 5.0 + 4.0


def _trig_grad(x):
    return 2.0 * x + np.sin(x) - np.cos(5.0 * x)


def _center_gain(cfg: dict, eps_bullet: float, theta):
    c = cfg["gain.theta_ctr"][0]
    return eps_bullet * np.sqrt(1.0 + (theta - c) ** 2 / cfg["gain.sigma_p"] ** 2)


def stream_key(*parts) -> int:
    """Philox key of one lane: the first 16 bytes of SHA-256 over the '|'-joined parts."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


def _read_csv(path: Path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return header, rows


def _numeric(path: Path) -> tuple[list[str], np.ndarray]:
    header, rows = _read_csv(path)
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


class Failures:
    """Collects the checks that failed, each with its reason."""

    def __init__(self):
        self.items: list[tuple[str, str]] = []

    def require(self, ok, check: str, detail: str) -> bool:
        if not ok:
            self.items.append((check, detail))
        return bool(ok)


# --- ensemble workloads -----------------------------------------------------


def reference_cell(cfg: dict, mode: str, eps_index: int) -> dict:
    """One ensemble cell recomputed with NumPy from the documented recursion.

    Lane i draws from Philox keyed by (master, mode, gain index, i): first
    theta0 uniform on the box, then (zigzag only) the initial memory, then
    one uniform base draw per step.  Each step applies the center-active
    gain, one perturbed objective value and the 1SPSA update; the window
    mean of the closed-form gradient runs over iterate indices N0..N.
    """
    m, n, n0 = cfg["ensemble.M"], cfg["ensemble.N"], cfg["ensemble.N0"]
    eps_bullet = cfg["ensemble.eps_grid"][eps_index]
    lo, hi = cfg["ensemble.theta0_box"]
    s, vs = cfg["probe.support"], cfg["probe.varsigma"]
    u = np.empty((m, n + 2))
    for i in range(m):
        rng = np.random.Generator(np.random.Philox(key=stream_key(cfg["seed.master"], mode, eps_index, i)))
        u[i] = rng.random(n + 2)
    theta = lo + (hi - lo) * u[:, 0]
    w = -s + (2.0 * s) * u[:, 1:]
    xi = w[:, :n] if mode == "iid" else vs * (w[:, 1:] - w[:, :-1])
    xi = np.ascontiguousarray(xi.T)  # (n, m): one row per step
    alpha = np.minimum(cfg["step.alpha0"], np.arange(1, n + 1, dtype=float) ** -cfg["step.rho"])
    total = _trig_grad(theta) if n0 == 0 else np.zeros(m)
    peak = np.abs(theta).max()
    for k in range(1, n + 1):
        x = xi[k - 1]
        eps = _center_gain(cfg, eps_bullet, theta)
        theta = theta - (alpha[k - 1] / eps) * x * _trig(theta + eps * x)
        peak = max(peak, np.abs(theta).max())
        if k >= n0:
            total += _trig_grad(theta)
    means = total / (n - n0 + 1)
    return {
        "mode": mode,
        "eps_index": eps_index,
        "scaled_var_trace": float((n - n0) * np.var(means, ddof=1)),
        "mean_bias_norm": float(abs(means.mean())),
        "peak_abs_theta": float(peak),
    }


def _loglog_slope(x, y) -> float:
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def _check_ensemble(wl: Workload, out: Path, ref: dict, fail: Failures) -> None:
    cfg = wl.config
    grid = cfg["ensemble.eps_grid"]
    header, rows = _read_csv(out / "ensemble.csv")
    scaling = json.loads((out / "scaling.json").read_text())
    cells = {}
    for row in rows:
        rec = dict(zip(header, row))
        cells[(rec["mode"], float(rec["eps_bullet"]))] = rec
    expected = {(mode, float(e)) for mode in ("iid", "zigzag") for e in grid}
    if not fail.require(
        len(rows) == len(expected) and set(cells) == expected, "rows", f"cells {sorted(cells)} != {sorted(expected)}"
    ):
        return
    m = cfg["ensemble.M"]
    bad = [k for k, rec in cells.items() if int(rec["M_effective"]) != m]
    fail.require(not bad, "complete", f"cells with M_effective != {m}: {bad}")
    var = {k: float(rec["scaled_var_trace"]) for k, rec in cells.items()}
    low = [e for e in grid if not var[("iid", e)] >= MIN_IID_OVER_ZIGZAG * var[("zigzag", e)]]
    fail.require(not low, "iid_over_zigzag", f"iid variance below {MIN_IID_OVER_ZIGZAG}x zigzag at eps {low}")
    for mode in ("iid", "zigzag"):
        own = _loglog_slope(grid, [var[(mode, e)] for e in grid])
        got = scaling[mode]["slope"]
        fail.require(
            math.isclose(got, own, rel_tol=1e-9, abs_tol=1e-12),
            "iid_slope" if mode == "iid" else "zigzag_slope",
            f"{mode} slope {got} != own fit {own}",
        )
    fail.require(scaling["iid"]["slope"] < 0, "iid_slope", f"iid slope {scaling['iid']['slope']} not negative")
    rec = cells[(ref["mode"], float(grid[ref["eps_index"]]))]
    for key in ("scaled_var_trace", "mean_bias_norm"):
        got, want = float(rec[key]), ref[key]
        fail.require(
            math.isclose(got, want, rel_tol=CELL_RTOL),
            "reference_cell",
            f"{ref['mode']} eps {grid[ref['eps_index']]} {key} {got!r} != recomputed {want!r}",
        )


# --- trajectory workload ----------------------------------------------------


def _check_trajectory(wl: Workload, out: Path, fail: Failures) -> None:
    cfg = wl.config
    n_steps = cfg["run.N"]
    summary = json.loads((out / "run_summary.json").read_text())
    fail.require(
        summary["diverged_at"] is None and summary["n_steps"] == n_steps,
        "summary",
        f"diverged_at {summary['diverged_at']}, n_steps {summary['n_steps']} (want null, {n_steps})",
    )
    header, data = _numeric(out / "trajectory.csv")
    if not fail.require(
        header == ["n", "theta_0", "alpha", "eps", "objective"], "rows", f"unexpected header {header}"
    ):
        return
    n, theta, alpha, eps, obj = data.T
    if not fail.require(
        n.size == n_steps + 1 and np.array_equal(n, np.arange(n_steps + 1)), "rows", f"rows are not 0..{n_steps}"
    ):
        return
    lo, hi = cfg["run.theta0_box"]
    fail.require(lo <= theta[0] <= hi, "rows", f"theta_0 {theta[0]} outside the box")
    want_alpha = np.minimum(cfg["step.alpha0"], np.maximum(n, 1.0) ** -cfg["step.rho"])
    want_alpha[0] = cfg["step.alpha0"]
    fail.require(np.allclose(alpha, want_alpha, rtol=ALPHA_RTOL, atol=0), "alpha", "alpha != min(alpha0, n^-rho)")
    want_eps = _center_gain(cfg, cfg["gain.eps_bullet"], theta)
    fail.require(np.allclose(eps, want_eps, rtol=ALPHA_RTOL, atol=0), "eps", "eps != eps_bullet*sqrt(1+(theta-c)^2/sp^2)")
    fail.require(np.allclose(obj, theta**2, rtol=ALPHA_RTOL, atol=0), "objective", "objective != theta^2")
    # theta_{n+1} = theta_n - (alpha_{n+1}/eps_n) xi f(theta_n + eps_n xi), xi = +1 or -1
    th, ep, a_next, nxt = theta[:-1], eps[:-1], alpha[1:], theta[1:]
    resid = {}
    for sign in (1.0, -1.0):
        incr = (a_next / ep) * sign * (th + sign * ep) ** 2
        resid[sign] = np.abs(nxt - (th - incr)) / (np.abs(th) + np.abs(incr) + 1e-300)
    best = np.minimum(resid[1.0], resid[-1.0])
    worst = int(np.argmax(best))
    fail.require(
        best[worst] <= TRAJ_UPDATE_RTOL,
        "update",
        f"step {worst}->{worst + 1} matches neither probe sign (rel. residual {best[worst]:.3e})",
    )
    plus = float(np.mean(resid[1.0] < resid[-1.0]))
    band = PROBE_SIGMAS * 0.5 / math.sqrt(n_steps)
    fail.require(abs(plus - 0.5) <= band, "probe_balance", f"share of +1 probes {plus:.4f} outside 0.5 +- {band:.4f}")
    fail.require(
        abs(theta[-1]) <= FINAL_THETA_MAX and summary["theta_final"] == [theta[-1]],
        "convergence",
        f"|theta_N| = {abs(theta[-1])} (want <= {FINAL_THETA_MAX}, equal to run_summary)",
    )


# --- mean-field workload ----------------------------------------------------


def _fbar(cfg: dict, eps_bullet: float, theta):
    """Two-point mean field: -[f(theta+eps) - f(theta-eps)]/(2 eps) at eps = eps(theta)."""
    eps = _center_gain(cfg, eps_bullet, theta)
    return -(_trig(theta + eps) - _trig(theta - eps)) / (2.0 * eps)


def _root(fn) -> float:
    return float(optimize.brentq(fn, -1.0, 1.0, xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=500))


def reference_meanflow(cfg: dict) -> dict:
    eb = cfg["gain.eps_bullet"]
    star = _root(lambda x: _fbar(cfg, eb, x))
    h = 1e-6
    slope = (_fbar(cfg, eb, star + h) - _fbar(cfg, eb, star - h)) / (2.0 * h)
    stationary = _root(_trig_grad)
    sweep = [abs(_root(lambda x, e=e: _fbar(cfg, e, x)) - stationary) for e in cfg["meanflow.eps_sweep"]]
    t_end = cfg["meanflow.flow_t_end"]
    flow = integrate.solve_ivp(
        lambda t, y: _fbar(cfg, eb, y),
        (0.0, t_end),
        [cfg["meanflow.flow_theta0"][0]],
        method="DOP853",
        rtol=1e-13,
        atol=1e-14,
        dense_output=True,
    )
    return {"theta_star": star, "eig": float(slope), "stationary": stationary, "sweep": sweep, "flow": flow.sol}


def _check_meanflow(wl: Workload, out: Path, ref: dict, fail: Failures) -> None:
    cfg = wl.config
    eb = cfg["gain.eps_bullet"]
    lo, hi, npts = cfg["meanflow.grid"]
    header, grid = _numeric(out / "fbar_grid.csv")
    if fail.require(
        header == ["theta", "fbar", "stderr"] and grid.shape[0] == npts, "grid", f"{grid.shape[0]} grid rows, want {npts}"
    ):
        theta, fbar, stderr = grid.T
        fail.require(
            np.allclose(theta, np.linspace(lo, hi, npts), rtol=1e-12, atol=1e-14) and not stderr.any(),
            "grid",
            "grid points differ from linspace(lo, hi, n) or stderr is not 0",
        )
        want = _fbar(cfg, eb, theta)
        err = np.abs(fbar - want) / (1.0 + np.abs(want))
        fail.require(err.max() <= FBAR_TOL, "fbar", f"row {int(err.argmax())} off the two-point formula by {err.max():.3e}")

    report = json.loads((out / "eq_report.json").read_text())
    star = report["theta_star"][0]
    fail.require(
        abs(star - ref["theta_star"]) <= ROOT_TOL
        and abs(report["bias"] - abs(ref["theta_star"] - ref["stationary"])) <= ROOT_TOL,
        "theta_star",
        f"theta_star {star!r} (bias {report['bias']!r}) != brentq root {ref['theta_star']!r}",
    )
    eig = report["eigs"][0]
    fail.require(
        eig < 0 and math.isclose(eig, ref["eig"], rel_tol=EIG_RTOL),
        "eigenvalue",
        f"eigenvalue {eig!r} != finite-difference slope {ref['eig']!r} (must be negative)",
    )

    sweep = report["bias_sweep"]
    biases = np.asarray(sweep["bias"])
    fail.require(
        sweep["eps"] == cfg["meanflow.eps_sweep"] and np.allclose(biases, ref["sweep"], rtol=BIAS_RTOL, atol=0),
        "bias_sweep",
        f"sweep biases {sweep['bias']} != brentq offsets {ref['sweep']}",
    )
    own = _loglog_slope(cfg["meanflow.eps_sweep"], biases)
    fail.require(
        math.isclose(sweep["slope"], own, rel_tol=1e-9) and SLOPE_BAND[0] <= sweep["slope"] <= SLOPE_BAND[1],
        "bias_sweep",
        f"sweep slope {sweep['slope']} (own fit {own}) outside the O(eps^2) band {SLOPE_BAND}",
    )

    header, flow = _numeric(out / "flow_mean.csv")
    steps = int(round(cfg["meanflow.flow_t_end"] / cfg["meanflow.flow_dt"]))
    if fail.require(
        header == ["t", "theta_0"] and flow.shape[0] == steps + 1, "flow", f"{flow.shape[0]} flow rows, want {steps + 1}"
    ):
        t, state = flow.T
        want = ref["flow"](t)[0]
        err = np.abs(state - want)
        fail.require(
            np.allclose(t, np.arange(steps + 1) * cfg["meanflow.flow_dt"], rtol=1e-12, atol=1e-15)
            and err.max() <= FLOW_TOL,
            "flow",
            f"flow state off solve_ivp by {err.max():.3e} at t={t[int(err.argmax())]}",
        )


# --- entry points -----------------------------------------------------------

OUTPUTS = {
    "experiment": ("ensemble.csv", "scaling.json", "manifest.json"),
    "run": ("trajectory.csv", "run_summary.json", "manifest.json"),
    "meanflow": ("fbar_grid.csv", "flow_mean.csv", "eq_report.json", "manifest.json"),
}


def reference(wl: Workload, seed: int) -> dict:
    """What the checks compare with, computed once per benchmark run."""
    if wl.command == "experiment":
        cell = seed % 6  # which (mode, gain) cell to recompute rotates with the seed
        return reference_cell(wl.config, ("iid", "zigzag")[cell // 3], cell % 3)
    if wl.command == "meanflow":
        return reference_meanflow(wl.config)
    return {}


def check(wl: Workload, out: Path, ref: dict) -> list[tuple[str, str]]:
    """Names and reasons of the checks that ``out`` fails; empty when all pass."""
    fail = Failures()
    missing = [f for f in OUTPUTS[wl.command] if not (out / f).is_file()]
    if not fail.require(not missing, "files", f"missing outputs {missing}"):
        return fail.items
    if wl.command == "experiment":
        guard = wl.config["run.guard_threshold"]
        fail.require(ref["peak_abs_theta"] < guard, "reference_cell", f"a recomputed lane passes the {guard:g} guard")
        _check_ensemble(wl, out, ref, fail)
    elif wl.command == "run":
        _check_trajectory(wl, out, fail)
    else:
        _check_meanflow(wl, out, ref, fail)
    return fail.items
