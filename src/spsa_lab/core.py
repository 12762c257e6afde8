"""Single-sample and two-sample SPSA recursions and the trajectory engine.

``run_batch`` is the one way to run the recursion; a single trajectory is
a one-lane batch.  The update rule lives in one function, the engine's
increment of a batch of iterates.  The engine advances many independent
trajectories in lock step (vectorized across runs), with per-run probe
streams, a divergence guard that freezes runs whose iterates escape and
ends the run once every lane has tripped, strided trajectory recording,
and on-the-fly window statistics so long ensembles never store full
trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .exploration import ProbeGenerator
from .objectives import Objective
from .schedules import ExplorationGain, StepSizeSchedule

__all__ = [
    "DivergenceGuard",
    "BatchRunResult",
    "WindowStatistic",
    "run_batch",
    "sample_theta0",
    "theta0_box",
]

DEFAULT_GUARD_THRESHOLD = 1e6
# steps of probes drawn per lane at a time; a batch holds m * ENGINE_CHUNK * d
# doubles of probes
ENGINE_CHUNK = 2048


@dataclass(frozen=True)
class DivergenceGuard:
    """Freezes a trajectory once its iterate norm exceeds the threshold.

    The threshold must sit far above the post-transient scale of
    interest; it is an engineering stand-in for the (uncomputable)
    ultimate bound.
    """

    threshold: float = DEFAULT_GUARD_THRESHOLD

    def __post_init__(self):
        if not self.threshold >= 1e3:
            raise ValueError(f"guard threshold must be >= 1e3, got {self.threshold}")


def _increment(objective: Objective, algorithm: str, theta, xi, eps, alpha) -> np.ndarray:
    """The update increment of an (m, d) batch of iterates.

    With probes ``xi`` (m, d), gains ``eps`` (m,) and step size ``alpha``,
    1SPSA moves by -(alpha / eps) xi f(theta + eps xi), one objective
    evaluation per row; 2SPSA by
    -(alpha / (2 eps)) xi (f(theta + eps xi) - f(theta - eps xi)), two.
    """
    y = objective.value_batch(theta + eps[:, None] * xi)
    if algorithm == "1spsa":
        return -(alpha / eps)[:, None] * xi * y[:, None]
    y_minus = objective.value_batch(theta - eps[:, None] * xi)
    return -(alpha / (2.0 * eps))[:, None] * xi * (y - y_minus)[:, None]


@dataclass(frozen=True)
class WindowStatistic:
    """On-the-fly average of ``fn(theta)`` over iterates with index >= start.

    ``fn`` maps an (m, d) batch of iterates to an (m, p) array; the
    engine accumulates its sum over the window without storing
    trajectories.
    """

    name: str
    start: int
    fn: Callable[[np.ndarray], np.ndarray]


@dataclass
class BatchRunResult:
    """Lock-step result for a batch of independent runs."""

    theta_final: np.ndarray  # (m, d)
    diverged_at: np.ndarray  # (m,), -1 where the guard never fired
    n_steps: int
    stride: int
    record_indices: np.ndarray | None = None  # (k,)
    thetas: np.ndarray | None = None  # (m, k, d)
    objective_trace: np.ndarray | None = None  # (m, k)
    alpha_trace: np.ndarray | None = None  # (k,)
    gain_trace: np.ndarray | None = None  # (m, k)
    statistics: dict[str, np.ndarray] = field(default_factory=dict)  # name -> (m, p) means

    @property
    def diverged(self) -> np.ndarray:
        return self.diverged_at >= 0


def theta0_box(box, dim: int) -> np.ndarray:
    """A per-coordinate box as a (dim, 2) array; one [lo, hi] pair is broadcast over the dims."""
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = np.tile(box, (dim, 1))
    if box.shape != (dim, 2) or np.any(box[:, 0] >= box[:, 1]):
        raise ValueError(f"theta0 box must be ({dim}, 2) with lo < hi, got {box.tolist()!r}")
    return box


def sample_theta0(box, rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform draw from a per-coordinate box ([lo, hi] broadcast over dims)."""
    box = theta0_box(box, dim)
    return rng.uniform(box[:, 0], box[:, 1])


def run_batch(
    objective: Objective,
    schedule: StepSizeSchedule,
    gain: ExplorationGain,
    probes: Sequence[ProbeGenerator],
    theta0: np.ndarray,
    n_steps: int,
    algorithm: str = "1spsa",
    guard: DivergenceGuard | None = None,
    stride: int = 0,
    record_objective: bool = False,
    statistics: Sequence[WindowStatistic] = (),
    chunk: int = ENGINE_CHUNK,
) -> BatchRunResult:
    """Advance ``m`` independent trajectories in lock step.

    Each run owns its probe generator; probe draws are chunked per run,
    and the result does not depend on the chunk width.  A lane trips the
    guard at the first index k whose iterate norm is not <= the
    threshold: a NaN or infinite norm trips, a norm equal to the
    threshold does not.  ``diverged_at`` holds that k.  A tripped lane's
    iterate freezes: it makes no further updates or statistic
    contributions, and its window statistics are NaN.  It stays in the
    working arrays, so the probe draw, gain, objective and statistic
    still see its row, and in a multi-lane batch each later record holds
    its frozen iterate.  The engine returns on the step where its last
    live lane trips, once that step's statistic, gain and record are
    done, so the records of a batch whose lanes all trip end at the last
    trip index.  While no lane has tripped, a step adds the increment
    without masking.  With ``stride`` > 0 the iterate at every stride-th
    index (plus index 0 and the final index) is stored.  ``gain`` may
    carry one scale per lane (``eps_bullet`` of shape (m,)).
    """
    if algorithm not in ("1spsa", "2spsa"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    if chunk < 1:
        raise ValueError(f"chunk must be positive, got {chunk}")
    theta = np.atleast_2d(np.asarray(theta0, dtype=float)).copy()
    m, d = theta.shape
    if len(probes) != m:
        raise ValueError(f"need one probe generator per run: {len(probes)} != {m}")
    threshold = (guard or DivergenceGuard()).threshold

    active = np.ones(m, dtype=bool)
    live = True  # no lane has tripped yet
    diverged_at = np.full(m, -1, dtype=int)

    stat_sums = {s.name: None for s in statistics}
    stat_counts = {s.name: 0 for s in statistics}

    def accumulate(n_index: int, current: np.ndarray):
        # a frozen lane's sum is replaced by NaN at the end, so it needs no mask
        for s in statistics:
            if n_index >= s.start:
                vals = np.asarray(s.fn(current), dtype=float)
                if vals.ndim == 1:
                    vals = vals[:, None]
                if stat_sums[s.name] is None:
                    stat_sums[s.name] = np.zeros_like(vals)
                stat_sums[s.name] += vals
                stat_counts[s.name] += 1

    def lane_gains(current: np.ndarray, n_index: int) -> np.ndarray:
        return np.asarray(gain.value(current, n_index), dtype=float)

    # index 0, every stride-th index and the last index; fewer when every
    # lane trips before the end
    n_rec = 1 + n_steps // stride + (n_steps % stride > 0) if stride > 0 else 0
    rec_idx = np.empty(n_rec, dtype=int)
    rec_alpha = np.empty(n_rec)
    rec_thetas = np.empty((m, n_rec, d))
    rec_gain = np.empty((m, n_rec))
    rec_obj = np.empty((m, n_rec)) if record_objective else None
    n_recorded = 0

    def record(n_index: int, current: np.ndarray, alpha: float, eps: np.ndarray):
        nonlocal n_recorded
        i = n_recorded
        rec_idx[i] = n_index
        rec_alpha[i] = alpha
        rec_thetas[:, i] = current
        rec_gain[:, i] = eps
        if record_objective:
            rec_obj[:, i] = objective.value_batch(current)
        n_recorded += 1

    # one chunk of probes, drawn lane by lane into the same buffer; step
    # major, so each step reads one contiguous (m, d) block
    xi_buf = np.empty((min(chunk, n_steps), m, d))
    with np.errstate(over="ignore", invalid="ignore"):
        # eps always holds the gain at the current iterate: it drives the next
        # step and is what a record at the current index stores
        eps = lane_gains(theta, 0)
        if stride > 0:
            record(0, theta, schedule(0), eps)
        accumulate(0, theta)

        n = 0
        stop = False  # set on the step where the last live lane trips
        while n < n_steps and not stop:
            width = min(chunk, n_steps - n)
            for i, g in enumerate(probes):
                xi_buf[:width, i] = g.take(width)
            alphas = schedule(np.arange(n + 1, n + width + 1))
            for j in range(width):
                k = n + j + 1  # index of the iterate produced this step
                incr = _increment(objective, algorithm, theta, xi_buf[j], eps, alphas[j])
                if live:
                    theta += incr
                else:
                    theta = np.where(active[:, None], theta + incr, theta)
                norms = np.abs(theta[:, 0]) if d == 1 else np.linalg.norm(theta, axis=1)
                # one compare and one count in the common case; "not <=" is
                # also true for NaN
                within = norms <= threshold
                if np.count_nonzero(within) < m:
                    newly = active & ~within
                    if newly.any():
                        diverged_at[newly] = k
                        active &= within
                        live = False
                        stop = not active.any()
                accumulate(k, theta)
                recorded = stride > 0 and (k % stride == 0 or k == n_steps)
                if k < n_steps or recorded:
                    eps = lane_gains(theta, k)
                if recorded:
                    record(k, theta, alphas[j], eps)
                if stop:
                    break
            n += width

    result = BatchRunResult(
        theta_final=theta,
        diverged_at=diverged_at,
        n_steps=n_steps,
        stride=stride,
    )
    if stride > 0:
        result.record_indices = rec_idx[:n_recorded]
        result.thetas = rec_thetas[:, :n_recorded]  # (m, k, d)
        result.alpha_trace = rec_alpha[:n_recorded]
        result.gain_trace = rec_gain[:, :n_recorded]
        if record_objective:
            result.objective_trace = rec_obj[:, :n_recorded]
    for s in statistics:
        sums = stat_sums[s.name]
        if sums is None:
            mean = np.full((m, 1), np.nan)
        else:
            mean = sums / max(stat_counts[s.name], 1)
        # a frozen lane's window is cut short, so it has no window average
        mean[result.diverged] = np.nan
        result.statistics[s.name] = mean
    return result

