"""Step-size and exploration-gain schedules.

The step size decays polynomially under an initial clamp; exploration
gains are either oblivious (functions of the iteration index only) or
active (functions of the current iterate, bounded below by ``eps_bullet``,
which is the stabilization mechanism).

Every gain's ``value`` takes an (m, d) batch, one (d,) point, or a
1-d point given as a Python float.  A float runs the same expression as a
batch row on Python floats and ``math``, with no NumPy call, and returns
a float equal to the row's gain bit for bit (a NumPy float scalar is
taken as a float).  The square root goes through ``_sqrt``, which picks
the library by ``x.__class__ is float`` and gives NaN on a float wherever
``np.sqrt`` gives NaN on an array.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .objectives import as_point

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


def _squared_norms(theta: np.ndarray):
    """Squared row norms of a float array; identical arithmetic for every shape.

    At d = 1 the sum of one term is that term, taken without a reduce (as
    for a float point, whose squared norm is ``x * x``); at a (1,) point
    the result is then 0-d.
    """
    sq = theta * theta
    return sq[..., 0] if sq.shape[-1] == 1 else np.add.reduce(sq, axis=-1)


def _sqrt(x):
    """Square root of a float by ``math.sqrt``, or of an array by ``np.sqrt``.

    Both are correctly rounded, so they agree bit for bit.  Where
    ``math.sqrt`` raises (a negative float) the result is NaN, as
    ``np.sqrt`` gives.
    """
    if x.__class__ is float:
        try:
            return math.sqrt(x)
        except ValueError:  # a negative float
            return math.nan
    return np.sqrt(x)


def _oblivious(theta, eps):
    """An oblivious gain ``eps`` for each row of an (m, d) batch, or ``eps`` itself for one point."""
    if theta.__class__ is float or np.ndim(theta) < 2:
        return eps
    return np.full(np.shape(theta)[0], eps)


def _check_scale(gain) -> None:
    """Validate ``gain.eps_bullet``: a positive scalar, stored as a float, or an (m,) array of positive row scales."""
    if np.ndim(gain.eps_bullet) > 0:
        object.__setattr__(gain, "eps_bullet", np.asarray(gain.eps_bullet, dtype=float))
    else:
        object.__setattr__(gain, "eps_bullet", float(gain.eps_bullet))
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
        # sigma_p**2 is taken once; a square that is 0 or inf would make the gain inf or NaN
        try:
            sigma_p2 = float(self.sigma_p) ** 2
        except OverflowError:
            sigma_p2 = math.inf
        if not 0.0 < sigma_p2 < math.inf:
            raise ValueError(f"sigma_p**2 must lie in (0, inf), got sigma_p {self.sigma_p}")
        object.__setattr__(self, "_sigma_p2", sigma_p2)

    def value(self, theta, n: int = 0):
        if theta.__class__ is not float:
            theta = as_point(theta)
        if theta.__class__ is float:
            offset = theta - self._center_1d
            sq = offset * offset
        else:
            sq = _squared_norms(theta - self.center)
        return self.eps_bullet * _sqrt(1.0 + sq / self._sigma_p2)


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
        if theta.__class__ is not float:
            theta = as_point(theta)
        point = theta.__class__ is float
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
