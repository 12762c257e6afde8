"""Ensemble execution and long-run variance statistics.

Runs the (probe mode, gain scale) ensemble matrix as lane batches of the
engine, whose window statistic gives each run's average of a target
quantity without storing its trajectory.  Covers the across-run
statistics used to quantify algorithmic variance: the scaled covariance
of those averages across independent runs, power-law fits of that
covariance against the gain scale, the noise decomposition at an
equilibrium, and batch-means estimation of asymptotic covariances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import DivergenceGuard, WindowStatistic, _increment, run_batch, theta0_box
from .exploration import BaseNoise, ProbeGenerator, derive_seed
from .objectives import Objective
from .schedules import ExplorationGain, StepSizeSchedule

__all__ = [
    "scaled_covariance",
    "ScalingFit",
    "scaling_fit",
    "DeltaDecomposition",
    "delta_decompose",
    "batch_means_covariance",
    "batch_means_cross_covariance",
    "EnsembleCell",
    "run_ensemble_matrix",
    "lane_stream",
]

# lanes per run_batch call in run_ensemble_matrix.  Each step of a block pays
# the engine's fixed cost once for all its cells, and each stack of window
# steps (core.STACK_BYTES of iterates) one call of each distinct statistic
# function.  A block's streams and its probe chunk (at most core.PROBE_BYTES)
# bound its memory.  Tripped lanes stay in the block's arrays until every
# lane of the block has tripped.
LANE_BLOCK = 4096


def scaled_covariance(values: np.ndarray, window: int) -> float:
    """Window length times the trace of the sample covariance across runs.

    ``values`` holds one statistic row per run, as (m, p) float rows; the
    covariance across runs is the unbiased estimator.
    """
    m = values.shape[0]
    if m < 2:
        raise ValueError(f"covariance across runs needs at least 2 runs, got {m}")
    centered = values - values.mean(axis=0)
    trace = float(np.sum(centered**2) / (m - 1))
    return window * trace


@dataclass
class ScalingFit:
    """Least-squares power-law fit of scaled variance against gain scale."""

    loglog_slope: float
    loglog_intercept: float
    r_squared: float


def scaling_fit(eps_values, scaled_vars) -> ScalingFit:
    """Fit log(scaled variance) on log(gain scale) by least squares.

    The one log-log fit of the package: ``meanflow.bias_sweep`` takes its
    slope here too.  Needs finite positive values and 3 distinct grid values.
    """
    eps_values = np.asarray(list(eps_values), dtype=float)
    scaled_vars = np.asarray(list(scaled_vars), dtype=float)
    if eps_values.size != scaled_vars.size:
        raise ValueError("grid and variance lengths differ")
    if not np.all((eps_values > 0) & (eps_values < np.inf) & (scaled_vars > 0) & (scaled_vars < np.inf)):
        raise ValueError("power-law fit needs finite positive grid and variances")
    # a set, not np.unique: np.unique imports numpy.ma on its first call
    distinct = len(set(eps_values.tolist()))
    if distinct < 3:
        raise ValueError(f"power-law fit needs at least 3 distinct grid values, got {distinct}")
    lx, ly = np.log(eps_values), np.log(scaled_vars)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    total = ly - ly.mean()
    r2 = 1.0 - float(resid @ resid) / float(total @ total) if float(total @ total) > 0 else 1.0
    return ScalingFit(float(slope), float(intercept), r2)


@dataclass
class DeltaDecomposition:
    """Update-noise decomposition at a frozen equilibrium.

    delta is the raw noise sequence; nu carries the objective level over
    the gain (the dominant scale for iid probes, telescoping for zigzag
    probes), omega the probe-covariance fluctuation times the gradient,
    and psi the residual (curvature and higher-order terms), so that
    nu + omega + psi reproduces delta exactly.
    """

    nu: np.ndarray
    omega: np.ndarray
    psi: np.ndarray
    delta: np.ndarray


def delta_decompose(theta_star, probes: np.ndarray, objective: Objective, eps: float, sigma_xi) -> DeltaDecomposition:
    """Decompose the update noise at a frozen point into nu + omega + psi.

    ``probes`` has shape (k, d); ``eps`` is the gain value at the frozen
    point; ``sigma_xi`` is the closed-form probe covariance.  The raw noise
    is the engine's 1SPSA increment (``core._increment``) at step size 1,
    centred at zero, the mean field at an equilibrium.
    """
    theta_star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    xi = np.asarray(probes, dtype=float)
    if xi.ndim == 1:
        xi = xi[:, None]
    d = theta_star.size
    sigma_xi = np.asarray(sigma_xi, dtype=float).reshape(d, d)

    level = objective.value(theta_star)
    grad = objective.grad(theta_star)
    delta = _increment(lambda pts: objective.value_batch(pts)[:, None], "1spsa", theta_star, xi, eps, 1.0)
    nu = -(level / eps) * xi
    outer = np.einsum("ki,kj->kij", xi, xi)
    omega = np.einsum("kij,j->ki", sigma_xi[None, :, :] - outer, grad)
    psi = delta - nu - omega
    return DeltaDecomposition(nu=nu, omega=omega, psi=psi, delta=delta)


def _batch_mean_rows(samples: np.ndarray, batch_size: int):
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if batch_size < 1:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    n_batches = samples.shape[0] // batch_size
    if n_batches < 20:
        raise ValueError(f"batch-means estimate needs >= 20 batches, got {n_batches}")
    trimmed = samples[: n_batches * batch_size]
    return trimmed.reshape(n_batches, batch_size, samples.shape[1]).mean(axis=1)


def batch_means_covariance(samples: np.ndarray, batch_size: int) -> np.ndarray:
    """Batch-means estimate of the asymptotic covariance of a sequence.

    Splits the sequence into consecutive batches, averages each, and
    scales the across-batch covariance by the batch size.  Consistent as
    the batch size grows for geometrically ergodic inputs.
    """
    return batch_means_cross_covariance(samples, samples, batch_size)


def batch_means_cross_covariance(x: np.ndarray, y: np.ndarray, batch_size: int) -> np.ndarray:
    """Batch-means estimate of the asymptotic cross-covariance of two sequences."""
    mx = _batch_mean_rows(x, batch_size)
    my = _batch_mean_rows(y, batch_size)
    if mx.shape[0] != my.shape[0]:
        raise ValueError("sequences must have equal batch counts")
    cx = mx - mx.mean(axis=0)
    cy = my - my.mean(axis=0)
    cov = cx.T @ cy / (mx.shape[0] - 1)
    return batch_size * cov


def lane_stream(seed: int, base: BaseNoise, mode: str, varsigma: float, box: np.ndarray | None = None):
    """Seed one lane: its starting point and its probe generator.

    One Philox stream keyed by ``seed`` first draws theta0 uniformly from
    ``box``, a (d, 2) array of [lo, hi] rows already checked by
    ``core.theta0_box`` (no draw when the box is None, and theta0 is None),
    then feeds the lane's probes.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    theta0 = None if box is None else rng.uniform(box[:, 0], box[:, 1])
    return theta0, ProbeGenerator(base, mode=mode, varsigma=varsigma, seed=seed, rng=rng)


@dataclass
class EnsembleCell:
    """One (probe mode, gain scale) cell of an ensemble experiment.

    ``run_ensemble_matrix`` keys each cell by (mode, gain index).  Its
    statistics are taken over the runs that did not diverge, and each is NaN
    when fewer than 2 runs survive: an across-run variance needs two.
    """

    eps_bullet: float
    bias_values: np.ndarray  # (m, p) window averages per run
    diverged: np.ndarray  # (m,) bool
    m_total: int
    window: int
    seeds: list[int] = field(default_factory=list)

    @property
    def m_effective(self) -> int:
        return int(self.m_total - self.diverged.sum())

    @property
    def scaled_var_trace(self) -> float:
        """Window length times the across-run variance trace of the window averages.

        This estimates the asymptotic covariance only once
        alpha_N * f / eps is small, with alpha_N the step size at the
        horizon and f the objective level: the update noise leaves the
        iterate with a jitter of that order, and for zigzag probes the
        noise that the jitter adds does not telescope.  That
        finite-horizon excess shrinks with alpha_N but grows as eps
        shrinks, so at small gains it can hide the O(eps^2) zigzag law.
        """
        rows = self.bias_values[~self.diverged]
        return scaled_covariance(rows, self.window) if len(rows) >= 2 else np.nan

    @property
    def mean_bias_norm(self) -> float:
        rows = self.bias_values[~self.diverged]
        return float(np.linalg.norm(rows.mean(axis=0))) if len(rows) >= 2 else np.nan


def run_ensemble_matrix(
    objective: Objective,
    schedule: StepSizeSchedule,
    base: BaseNoise,
    modes: Sequence[str],
    varsigma: float,
    gain: ExplorationGain,
    eps_grid: Sequence[float],
    m_runs: int,
    n_steps: int,
    n_burn: int,
    box,
    statistic: Callable[[str, ExplorationGain], Callable[[np.ndarray], np.ndarray]],
    master_seed: int,
    eps_indices: Sequence[int] | None = None,
    guard: DivergenceGuard | None = None,
    algorithm: str = "1spsa",
) -> dict[tuple[str, int], EnsembleCell]:
    """Run every (probe mode, gain scale) cell with ``m_runs`` runs each.

    Cells are keyed by (mode, gain index); the gain indices default to the
    grid positions.  Run i of a cell draws from a stream keyed by (master
    seed, mode, gain index, i), so results are identical however runs are
    batched; each lane's theta0 is drawn from ``box``, checked once by
    ``core.theta0_box``.  The lanes, ordered (mode, gain index, run),
    advance in contiguous blocks of at most ``LANE_BLOCK``, one
    ``run_batch`` per block: every block pays the engine's per-step cost
    once for all its cells, and builds its streams just before it runs.
    Each lane runs ``gain`` at its cell's scale.  ``statistic(mode,
    lane_gain)`` returns the row function averaged over iterate indices in
    [n_burn, n_steps] for the lanes of ``mode``, where ``lane_gain`` holds
    one scale per such lane of the block; like every window statistic
    (``core.WindowStatistic``), it maps an (s, m, d) stack of iterates to
    an (s, m, p) stack of float rows.  Adjacent modes whose functions
    compare equal share one call over their lanes, so a function must act
    row by row.
    """
    if m_runs < 2:
        raise ValueError(f"ensemble needs at least 2 runs, got {m_runs}")
    if n_burn >= n_steps:
        raise ValueError(f"burn-in {n_burn} must be below horizon {n_steps}")
    box = theta0_box(box, objective.dim)
    indices = range(len(eps_grid)) if eps_indices is None else eps_indices
    if len(indices) != len(eps_grid):
        raise ValueError(f"need one gain index per grid value: {len(indices)} != {len(eps_grid)}")
    cells = [(mode, k, float(eps)) for mode in modes for k, eps in zip(indices, eps_grid)]
    if not cells:
        raise ValueError("ensemble needs at least one mode and one gain value")
    lane_mode = [mode for mode, _, _ in cells for _ in range(m_runs)]
    lane_eps = np.repeat([eps for _, _, eps in cells], m_runs)
    seeds = [derive_seed(master_seed, mode, k, i) for mode, k, _ in cells for i in range(m_runs)]
    bias_blocks, diverged_blocks = [], []
    for lo in range(0, len(seeds), LANE_BLOCK):
        block = slice(lo, lo + LANE_BLOCK)
        theta0 = np.empty((len(seeds[block]), objective.dim))
        probes: list[ProbeGenerator] = []
        for row, (seed, mode) in enumerate(zip(seeds[block], lane_mode[block])):
            theta0[row], probe = lane_stream(seed, base, mode, varsigma, box)
            probes.append(probe)
        block_gain = gain.scaled(lane_eps[block])
        # the statistic of each mode's rows, which are contiguous in the
        # block; adjacent modes with the same function share one call
        parts, start = [], 0
        for mode, group in itertools.groupby(lane_mode[block]):
            seg = slice(start, start + len(list(group)))
            fn = statistic(mode, gain.scaled(block_gain.eps_bullet[seg]))
            if parts and parts[-1][1] == fn:
                seg = slice(parts.pop()[0].start, seg.stop)
            parts.append((seg, fn))
            start = seg.stop

        if len(parts) == 1:
            block_statistic = parts[0][1]  # its rows are the whole block
        else:

            def block_statistic(theta: np.ndarray) -> np.ndarray:
                return np.concatenate([fn(theta[..., seg, :]) for seg, fn in parts], axis=-2)

        result = run_batch(
            objective,
            schedule,
            block_gain,
            probes,
            theta0,
            n_steps,
            algorithm=algorithm,
            guard=guard,
            stride=0,
            statistic=WindowStatistic(n_burn, block_statistic),
        )
        bias_blocks.append(result.window_mean)
        diverged_blocks.append(result.diverged)
    # a block whose lanes all diverged before the window has a single NaN column
    p = max(b.shape[1] for b in bias_blocks)
    values = np.concatenate([np.broadcast_to(b, (b.shape[0], p)) for b in bias_blocks])
    diverged = np.concatenate(diverged_blocks)
    out = {}
    for c, (mode, k, eps) in enumerate(cells):
        rows = slice(c * m_runs, (c + 1) * m_runs)
        out[(mode, k)] = EnsembleCell(
            eps_bullet=eps,
            bias_values=values[rows],
            diverged=diverged[rows],
            m_total=m_runs,
            window=n_steps - n_burn,
            seeds=seeds[rows],
        )
    return out

