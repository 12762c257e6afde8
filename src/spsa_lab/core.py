"""Single-sample and two-sample SPSA recursions and the trajectory engine.

``run_batch`` is the one way to run the recursion; a single trajectory is
a one-lane batch.  The engine advances many independent trajectories in
lock step (vectorized across runs), with per-run probe streams, a
divergence guard that freezes runs whose iterates escape and ends the run
once every lane has tripped, strided trajectory recording, and an on-the-fly
window statistic so long ensembles never store full trajectories.  Beyond
the (m, d) arrays of one step, work memory is bounded in bytes, whatever
m and d: the probe chunk holds at most ``PROBE_BYTES`` and the window
statistic's stack of iterates at most ``STACK_BYTES``, so the statistic
runs once per stack of steps, not once per step.

The update rule lives in one function, ``_increment``, written once as an
element-wise expression that ``ensemble.delta_decompose`` and
``meanflow.monte_carlo_field`` call too.  The engine holds its iterates in
one of two forms, and both run that expression, the guard and the record:

- a Python float, for one lane at d = 1 with no window statistic, whose
  objective gives an element-wise ``fn_1d`` and whose gain has one scale.
  Probes come from ``take(width)[:, 0].tolist()`` and step sizes from
  ``tolist()``; the step calls the objective's and the gain's float forms
  (``at_float``, bound at construction) directly, so it makes no NumPy
  call.
- (m, d) rows for every other run, with each lane's gain and objective
  value as an (m, 1) column.

The two forms agree bit for bit: each runs the same IEEE operations in
the same order.  Each 1-d formula is written once and takes its library:
``numpy`` on rows, ``math`` at a float, where ``objectives.float_form``
catches libm's domain errors once and gives NaN as NumPy does; squares
are written ``x * x`` (see ``objectives``).  The guard is one element-wise
test in both forms and at every d, ``abs(theta) <= threshold``, so it
bounds the largest coordinate (the sup norm) and cannot overflow.
Overflow gives inf or NaN in both forms, without a warning, and the guard
trips on it.  The one exception is a gain that has underflowed to 0.0 (a
decaying gain far out): rows divide by it to inf or NaN, with NumPy's
warning, but a float lane raises ``ZeroDivisionError``.  The CLI rejects
such a gain in its config (``gain.kappa``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "theta0_box",
]

DEFAULT_GUARD_THRESHOLD = 1e6
# steps of probes drawn per lane at a time, at most PROBE_BYTES of probes
# (m * chunk * d doubles) per batch: 64 MiB is a full 4,096-lane block at d = 1
ENGINE_CHUNK = 2048
PROBE_BYTES = 2**26
# bytes of iterates stacked for one window-statistic call
STACK_BYTES = 2**17


@dataclass(frozen=True)
class DivergenceGuard:
    """Freezes a trajectory once some coordinate of its iterate exceeds the threshold.

    The threshold must sit far above the post-transient scale of
    interest; it is an engineering stand-in for the (uncomputable)
    ultimate bound.
    """

    threshold: float = DEFAULT_GUARD_THRESHOLD

    def __post_init__(self):
        if not self.threshold >= 1e3:
            raise ValueError(f"guard threshold must be >= 1e3, got {self.threshold}")


def _increment(f, algorithm: str, theta, xi, eps, alpha):
    """The update increment, one element-wise expression for every form of the iterate.

    With probe ``xi``, gain ``eps`` and step size ``alpha``, 1SPSA moves by
    -(alpha / eps) xi f(theta + eps xi), one objective evaluation; 2SPSA by
    -(alpha / (2 eps)) xi (f(theta + eps xi) - f(theta - eps xi)), two.
    ``f`` is the objective in the iterate's form: a float at a float, and
    an (m, 1) column on (m, d) rows, where ``eps`` is an (m, 1) column too.
    """
    # the sign sits on the step size: IEEE division is sign-symmetric, so the
    # bits are those of -(alpha / eps), with one operation fewer on rows
    y = f(theta + eps * xi)
    if algorithm == "1spsa":
        return (-alpha / eps) * xi * y
    return (-alpha / (2.0 * eps)) * xi * (y - f(theta - eps * xi))


@dataclass(frozen=True)
class WindowStatistic:
    """On-the-fly average of ``fn(theta)`` over iterates with index >= start.

    ``fn`` maps an (s, m, d) stack of iterates, s steps of m lanes, to an
    (s, m, p) stack of float rows, one row per lane and step, and must act
    on each step as it would on that step's (m, d) rows alone.  The engine
    copies the window's iterates into a stack of at most ``STACK_BYTES``,
    calls ``fn`` once per full stack and once at the end, and adds the
    rows to the window sum one step at a time, in index order, without
    storing trajectories.
    """

    start: int
    fn: Callable[[np.ndarray], np.ndarray]


@dataclass
class BatchRunResult:
    """Lock-step result for a batch of independent runs."""

    theta_final: np.ndarray  # (m, d)
    diverged_at: np.ndarray  # (m,), -1 where the guard never fired
    record_indices: np.ndarray | None = None  # (k,)
    thetas: np.ndarray | None = None  # (m, k, d)
    objective_trace: np.ndarray | None = None  # (m, k)
    alpha_trace: np.ndarray | None = None  # (k,)
    gain_trace: np.ndarray | None = None  # (m, k)
    window_mean: np.ndarray | None = None  # (m, p), the window statistic's mean

    @property
    def diverged(self) -> np.ndarray:
        return self.diverged_at >= 0


def theta0_box(box, dim: int) -> np.ndarray:
    """A per-coordinate box as a (dim, 2) array; one [lo, hi] pair is broadcast over the dims.

    Each width ``hi - lo`` must be finite, because a uniform draw scales by it.
    """
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = np.tile(box, (dim, 1))
    if box.shape != (dim, 2) or np.any(box[:, 0] >= box[:, 1]):
        raise ValueError(f"theta0 box must be ({dim}, 2) with lo < hi, got {box.tolist()!r}")
    if not all(math.isfinite(hi - lo) for lo, hi in box.tolist()):
        raise ValueError(f"theta0 box widths hi - lo must be finite, got {box.tolist()!r}")
    return box


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
    statistic: WindowStatistic | None = None,
    chunk: int = ENGINE_CHUNK,
) -> BatchRunResult:
    """Advance ``m`` independent trajectories in lock step.

    Each run owns its probe generator; probe draws are chunked per run, and
    the result does not depend on the chunk width.  A lane trips the guard
    at the first index k where some coordinate of its iterate has a
    magnitude that is not <= the threshold (the sup norm): a NaN or infinite
    coordinate trips, a magnitude equal to the threshold does not.
    ``diverged_at`` holds that k.  A tripped lane's iterate freezes: it
    makes no further updates or statistic contributions, and its window mean
    is NaN.  It stays in the working arrays, so the probe draw, gain,
    objective and statistic still see its row, and in a multi-lane batch
    each later record holds its frozen iterate.  The engine returns on the
    step where its last live lane trips, once that step's statistic, gain
    and record are done, so the records of a batch whose lanes all trip end
    at the last trip index.  While no lane has tripped, a step adds the
    increment without masking.  With ``stride`` > 0 the iterate, its
    objective value, the step size and the gain at every stride-th index
    (plus index 0 and the final index) are stored.  ``gain`` may carry one
    scale per lane (``eps_bullet`` of shape (m,)).  With a ``statistic``,
    ``window_mean`` holds each lane's mean of its function over the window,
    in the (m, p) form of the function's rows: an (m, 1) column of NaN when
    no step reaches the window.  The function sees (s, m, d) stacks of
    iterates (see ``WindowStatistic``) of at most
    max(1, STACK_BYTES // (8 m d)) steps, so it runs once per full stack
    and once for the steps left when the run ends; with no statistic, a
    step makes no statistic pass.  Both stack lengths, this one and the
    probe chunk's max(1, min(chunk, PROBE_BYTES // (8 m d))) steps, come
    from m d alone, and neither changes the result.  The iterate's form
    (see the module docstring) does not change the result, except that a
    one-lane float run whose gain reaches 0.0 raises ``ZeroDivisionError``.
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
    chunk = max(1, min(chunk, PROBE_BYTES // (8 * m * d)))
    threshold = (guard or DivergenceGuard()).threshold

    # the iterate's form: the objective and the gain in it, and the
    # probes of a chunk, one entry per step.  A lane runs on floats when its
    # objective and gain have float formulas and no statistic needs rows; a
    # gain with one scale per lane keeps the rows
    lane = statistic is None and m == 1 and d == 1 and objective.fn_1d is not None and np.ndim(gain.eps_bullet) == 0
    if lane:
        theta = float(theta[0, 0])
        value, gains = objective.at_float, gain.at_float

        def draw(width: int):
            return probes[0].take(width)[:, 0].tolist()

    else:

        def value(x):
            return objective.value_batch(x)[:, None]

        # one chunk of probes, drawn lane by lane into the same buffer; step
        # major, so each step reads one contiguous (m, d) block
        xi_buf = np.empty((min(chunk, n_steps), m, d))

        def draw(width: int):
            for i, g in enumerate(probes):
                xi_buf[:width, i] = g.take(width)
            return xi_buf

        def gains(x, n_index: int):
            return np.asarray(gain.value(x, n_index), dtype=float)[:, None]

    active = np.ones(m, dtype=bool)
    live = True  # no lane has tripped yet
    diverged_at = np.full(m, -1, dtype=int)

    # the statistic's sum and count over the indices >= start that the run
    # reaches.  Each such iterate is copied into the stack; a full stack, and
    # the last one, goes through ``fn`` in one call, and its rows are added
    # one step at a time, in index order, so the sum has the bits of a sum
    # taken step by step.  The sum starts at 0.0, so its first addition
    # makes a fresh array: ``fn`` may return its input itself, which the sum
    # must not alias, and a -0.0 first value sums to +0.0.  A frozen lane's
    # mean is replaced by NaN at the end, so its sum needs no mask
    start = n_steps + 1 if statistic is None else statistic.start
    window_sum, window_count, n_stacked = 0.0, 0, 0
    stack = None if statistic is None else np.empty((max(1, STACK_BYTES // (8 * m * d)), m, d))

    def flush():
        nonlocal window_sum, window_count, n_stacked
        for row in statistic.fn(stack[:n_stacked]):
            window_sum += row
        window_count += n_stacked
        n_stacked = 0

    # index 0, every stride-th index and the last index; fewer when every
    # lane trips before the end
    n_rec = 1 + n_steps // stride + (n_steps % stride > 0) if stride > 0 else 0
    n_recorded = 0

    def record(n_index: int, current, alpha: float, eps):
        # step-major, in the iterate's form: a float or (m, d) rows
        nonlocal n_recorded
        i = n_recorded
        rec_idx[i] = n_index
        rec_alpha[i] = alpha
        rec_thetas[i] = current
        rec_gain[i] = eps
        rec_obj[i] = value(current)
        n_recorded += 1

    with np.errstate(over="ignore", invalid="ignore"):
        # eps always holds the gain at the current iterate: it drives the next
        # step and is what a record at the current index stores
        eps = gains(theta, 0)
        if stride > 0:
            rec_idx = np.empty(n_rec, dtype=int)
            rec_alpha = np.empty(n_rec)
            rec_thetas = np.empty((n_rec,) + np.shape(theta))
            # the gain and the objective value have one shape in each form
            rec_gain = np.empty((n_rec,) + np.shape(eps))
            rec_obj = np.empty((n_rec,) + np.shape(eps))
            record(0, theta, schedule(0), eps)
        if start <= 0:
            stack[0] = theta
            n_stacked = 1

        n = 0
        stop = False  # set on the step where the last live lane trips
        while n < n_steps and not stop:
            width = min(chunk, n_steps - n)
            xi = draw(width)
            alphas = schedule(np.arange(n + 1, n + width + 1)).tolist()
            for j in range(width):
                k = n + j + 1  # index of the iterate produced this step
                alpha = alphas[j]
                incr = _increment(value, algorithm, theta, xi[j], eps, alpha)
                if live:
                    theta += incr
                else:
                    theta = np.where(active[:, None], theta + incr, theta)
                # one compare and one count in the common case; "not <=" is
                # also true for NaN, and a float lane's compare gives a bool
                within = abs(theta) <= threshold
                if within is not True and np.count_nonzero(within) < m * d:
                    within = np.reshape(within, (m, d)).all(axis=1)
                    newly = active & ~within
                    if newly.any():
                        diverged_at[newly] = k
                        active &= within
                        live = False
                        stop = not active.any()
                if k >= start:
                    if n_stacked == len(stack):
                        flush()
                    stack[n_stacked] = theta
                    n_stacked += 1
                recorded = stride > 0 and (k % stride == 0 or k == n_steps)
                if k < n_steps or recorded:
                    eps = gains(theta, k)
                if recorded:
                    record(k, theta, alpha, eps)
                if stop:
                    break
            n += width
        if n_stacked:
            flush()

    result = BatchRunResult(
        theta_final=np.reshape(theta, (m, d)),
        diverged_at=diverged_at,
    )
    if stride > 0:
        k = n_recorded
        result.record_indices = rec_idx[:k]
        result.thetas = rec_thetas[:k].reshape(k, m, d).transpose(1, 0, 2)  # (m, k, d)
        result.alpha_trace = rec_alpha[:k]
        result.gain_trace = rec_gain[:k].reshape(k, m).T
        result.objective_trace = rec_obj[:k].reshape(k, m).T
    if statistic is not None:
        mean = np.full((m, 1), np.nan) if window_count == 0 else window_sum / window_count
        # a frozen lane's window is cut short, so it has no window average
        mean[result.diverged] = np.nan
        result.window_mean = mean
    return result
