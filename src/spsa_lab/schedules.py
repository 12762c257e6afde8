"""Step-size and exploration-gain schedules.

The step size decays polynomially under an initial clamp; exploration
gains are either oblivious (functions of the iteration index only) or
active (functions of the current iterate, bounded below by ``eps_bullet``,
which is the stabilization mechanism).

Every gain's ``value`` takes an (m, d) batch, one (d,) point, or a
1-d point given as a Python float; a float runs the same expression as a
batch row on Python floats and returns a float.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StepSizeSchedule",
    "ExplorationGain",
    "ConstantGain",
    "DecayingGain",
    "CenterActiveGain",
    "ObjectiveActiveGain",
    "GainFloorError",
]


class GainFloorError(ValueError):
    """Objective fell below the declared floor while evaluating a gain."""


@dataclass(frozen=True)
class StepSizeSchedule:
    """Polynomially decaying step size alpha(n) = min(alpha0, n**-rho).

    alpha(0) is defined as alpha0 so the first update uses alpha(1).
    The decay exponent must lie strictly inside (1/2, 1): the partial
    sums of alpha(n) then diverge while those of alpha(n)**2 converge.
    """

    alpha0: float
    rho: float

    def __post_init__(self):
        if not self.alpha0 > 0:
            raise ValueError(f"alpha0 must be positive, got {self.alpha0}")
        if not 0.5 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0.5, 1.0), got {self.rho}")

    def __call__(self, n):
        """Step size at iteration ``n`` (scalar or integer array)."""
        n = np.asarray(n, dtype=float)
        with np.errstate(divide="ignore"):
            decay = np.where(n >= 1, np.power(np.maximum(n, 1.0), -self.rho), np.inf)
        out = np.minimum(self.alpha0, decay)
        return float(out) if out.ndim == 0 else out


def _squared_norms(theta):
    """Squared row norms of a float array, or the square of a float; identical arithmetic for every shape.

    At d = 1 the sum of one term is that term, taken without a reduce; at
    a (1,) point the result is then 0-d.  A float is a 1-d point, and its
    squared norm is a float.
    """
    sq = theta * theta
    if isinstance(sq, float):
        return sq
    return sq[..., 0] if sq.shape[-1] == 1 else np.add.reduce(sq, axis=-1)


def _sqrt(x):
    """Square root of a float (``math.sqrt``) or of an array; both are correctly rounded, so they agree bit for bit."""
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def _oblivious(theta, eps):
    """An oblivious gain ``eps`` for each row of an (m, d) batch, or ``eps`` itself for one point."""
    if isinstance(theta, float) or np.ndim(theta) < 2:
        return eps
    return np.full(np.shape(theta)[0], eps)


def _check_scale(gain) -> None:
    """Validate ``gain.eps_bullet``: a positive scalar, or an (m,) array of positive per-row scales."""
    if np.ndim(gain.eps_bullet) > 0:
        object.__setattr__(gain, "eps_bullet", np.asarray(gain.eps_bullet, dtype=float))
    if not np.all(np.asarray(gain.eps_bullet) > 0):
        raise ValueError(f"eps_bullet must be positive, got {gain.eps_bullet}")


class ExplorationGain:
    """Base class for exploration-gain schedules.

    Subclasses implement ``value(theta, n)``; ``theta`` may be a single
    vector of shape (d,), a 1-d point given as a float, or a batch of
    shape (m, d), in which case a vector of per-row gains is returned.
    ``eps_bullet`` is one scale for every row or an (m,) array holding one
    scale per row of the batch.
    """

    eps_bullet: float

    def value(self, theta, n: int = 0):
        raise NotImplementedError

    def scaled(self, eps_bullet) -> "ExplorationGain":
        """The same gain at scale ``eps_bullet`` (a scalar or one scale per row)."""
        return dataclasses.replace(self, eps_bullet=eps_bullet)


@dataclass(frozen=True)
class ConstantGain(ExplorationGain):
    """Oblivious constant gain, eps(n) = eps_bullet."""

    eps_bullet: float

    def __post_init__(self):
        _check_scale(self)

    def value(self, theta, n: int = 0):
        return _oblivious(theta, self.eps_bullet)


@dataclass(frozen=True)
class DecayingGain(ExplorationGain):
    """Oblivious decaying gain, eps(n) = eps_bullet * n**-kappa, eps(0) = eps_bullet."""

    eps_bullet: float
    kappa: float

    def __post_init__(self):
        _check_scale(self)
        if self.kappa < 0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")

    def value(self, theta, n: int = 0):
        return _oblivious(theta, self.eps_bullet * (max(n, 1) ** -self.kappa if n >= 1 else 1.0))


@dataclass(frozen=True)
class CenterActiveGain(ExplorationGain):
    """Active gain growing with the distance from a prior center.

    eps(theta) = eps_bullet * sqrt(1 + ||theta - center||^2 / sigma_p^2),
    so eps >= eps_bullet everywhere.  ``center`` is an a-priori guess of
    the minimizer and ``sigma_p`` quantifies its uncertainty.
    """

    eps_bullet: float
    center: np.ndarray
    sigma_p: float = 1.0

    def __post_init__(self):
        _check_scale(self)
        if not self.sigma_p > 0:
            raise ValueError(f"sigma_p must be positive, got {self.sigma_p}")
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))
        # a float point is offset by the center's coordinate, so it stays a float
        object.__setattr__(self, "_center_1d", float(self.center[0]) if self.center.size == 1 else None)

    def value(self, theta, n: int = 0):
        # the float center makes theta - center a float array for any array input
        offset = theta - (self._center_1d if isinstance(theta, float) else self.center)
        out = self.eps_bullet * _sqrt(1.0 + _squared_norms(offset) / self.sigma_p**2)
        return float(out) if isinstance(out, float) else out


@dataclass(frozen=True)
class ObjectiveActiveGain(ExplorationGain):
    """Active gain growing with the objective value above a known floor.

    eps(theta) = eps_bullet * sqrt(1 + objective(theta) - floor); requires
    objective(theta) >= floor everywhere, which is checked per evaluation.
    """

    eps_bullet: float
    objective: "object"  # anything with value and value_batch, see objectives module
    floor: float

    def __post_init__(self):
        _check_scale(self)

    def value(self, theta, n: int = 0):
        # a float is evaluated at that point; a (d,) point is a 1-row batch
        point = isinstance(theta, float)
        if point:
            vals = self.objective.value(theta)
        else:
            rows = np.atleast_2d(np.asarray(theta, dtype=float))
            vals = self.objective.value_batch(rows)
        below = vals < self.floor
        if below if point else below.any():
            at = np.array([theta]) if point else rows[below][0]
            raise GainFloorError(f"objective below declared floor {self.floor} at theta={at}")
        out = self.eps_bullet * _sqrt(1.0 + vals - self.floor)
        return out if point or np.ndim(theta) >= 2 else float(out[0])
