"""Step-size and exploration-gain schedules.

The step size decays polynomially under an initial clamp; exploration
gains are either oblivious (functions of the iteration index only) or
active (functions of the current iterate, bounded below by ``eps_bullet``,
which is the stabilization mechanism).

Every gain has two forms.  ``value(theta, n)`` takes an (m, d) batch and
gives (m,) row gains, or an (s, m, d) stack of batches (the mean field on
a window statistic's stack) and gives (s, m) gains; ``at_float(x, n)``
takes a 1-d point as a Python float and gives a float.  The float form is
bound once at construction and equals the gain of a batch row bit for
bit.  An active gain states
its square root once, as a formula that takes its library
(``eps * lib.sqrt(...)``, see ``objectives``): on NumPy arrays for a
batch, and on ``math`` at a float through ``objectives.float_form``,
which gives NaN where ``math.sqrt`` raises, as ``np.sqrt`` does.  Squares
are written ``x * x``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .objectives import Objective, float_form

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
        decay = np.where(n >= 1, np.power(np.maximum(n, 1.0), -self.rho), np.inf)
        out = np.minimum(self.alpha0, decay)
        return float(out) if out.ndim == 0 else out


def _squared_norms(theta: np.ndarray):
    """Squared row norms of an (m, d) float array."""
    return np.add.reduce(theta * theta, axis=-1)


def _oblivious(theta, eps):
    """An oblivious gain ``eps`` for each row of an (m, d) batch or an (s, m, d) stack."""
    return np.full(np.shape(theta)[:-1], eps)


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

    Subclasses implement ``value(theta, n)``, which maps an (m, d) batch
    to a vector of per-row gains.  ``eps_bullet`` is one scale for every
    row or an (m,) array holding one scale per row of the batch.
    ``at_float(x, n)`` is the gain at a float point; the built-in gains
    bind it at construction (see the module docstring), and by default it
    is ``value`` on a 1-row batch.
    """

    eps_bullet: float

    def value(self, theta, n: int = 0):
        raise NotImplementedError

    def at_float(self, x: float, n: int = 0) -> float:
        return float(self.value(np.array([[x]]), n)[0])

    def scaled(self, eps_bullet) -> "ExplorationGain":
        """The same gain at scale ``eps_bullet`` (a scalar or one scale per row)."""
        return dataclasses.replace(self, eps_bullet=eps_bullet)


@dataclass(frozen=True)
class ConstantGain(ExplorationGain):
    """Oblivious constant gain, eps(n) = eps_bullet."""

    eps_bullet: float

    def __post_init__(self):
        _check_scale(self)
        eps = self.eps_bullet
        object.__setattr__(self, "at_float", lambda x, n=0: eps)

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
        eps, kappa = self.eps_bullet, self.kappa

        def at_float(x, n=0):
            return eps * (max(n, 1) ** -kappa if n >= 1 else 1.0)

        object.__setattr__(self, "at_float", at_float)

    def value(self, theta, n: int = 0):
        return _oblivious(theta, self.at_float(theta, n))


@dataclass(frozen=True)
class CenterActiveGain(ExplorationGain):
    """Active gain growing with the distance from a prior center.

    eps(theta) = eps_bullet * sqrt(1 + ||theta - center||^2 / sigma_p^2),
    so eps >= eps_bullet everywhere.  ``center`` is an a-priori guess of
    the minimizer and ``sigma_p`` quantifies its uncertainty.  At d = 1 the
    gain is one formula of the coordinate, on floats and on columns; at
    d > 1 it takes the squared norm of each row's offset.
    """

    eps_bullet: float
    center: np.ndarray
    sigma_p: float = 1.0

    def __post_init__(self):
        _check_scale(self)
        if not self.sigma_p > 0:
            raise ValueError(f"sigma_p must be positive, got {self.sigma_p}")
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))
        # sigma_p squared is taken once; a square that is 0 or inf would make the gain inf or NaN
        s = float(self.sigma_p)
        sigma_p2 = s * s
        if not 0.0 < sigma_p2 < math.inf:
            raise ValueError(f"sigma_p**2 must lie in (0, inf), got sigma_p {self.sigma_p}")
        object.__setattr__(self, "_sigma_p2", sigma_p2)
        # at d = 1 a point is offset by the center's coordinate, so a float stays a float
        eps, center = self.eps_bullet, float(self.center[0]) if self.center.size == 1 else None

        def formula(x, lib):
            offset = x - center
            return eps * lib.sqrt(1.0 + offset * offset / sigma_p2)

        object.__setattr__(self, "_formula", formula)
        object.__setattr__(self, "at_float", float_form(formula))

    def value(self, theta, n: int = 0):
        theta = np.asarray(theta)
        if theta.shape[-1] == 1 and self.center.size == 1:
            return self._formula(theta[..., 0], np)
        return self.eps_bullet * np.sqrt(1.0 + _squared_norms(theta - self.center) / self._sigma_p2)


@dataclass(frozen=True)
class ObjectiveActiveGain(ExplorationGain):
    """Active gain growing with the objective value above a known floor.

    eps(theta) = eps_bullet * sqrt(1 + objective(theta) - floor); requires
    objective(theta) >= floor everywhere, which is checked per evaluation.
    At a float the objective runs its own float form (``Objective.at_float``).
    """

    eps_bullet: float
    objective: Objective
    floor: float

    def __post_init__(self):
        _check_scale(self)
        eps, floor, objective_at = self.eps_bullet, self.floor, self.objective.at_float

        def formula(vals, lib):
            return eps * lib.sqrt(1.0 + vals - floor)

        root = float_form(formula)

        def at_float(x, n=0):
            val = objective_at(x)
            if val < floor:
                raise self.below_floor(x)
            return root(val)

        object.__setattr__(self, "_formula", formula)
        object.__setattr__(self, "at_float", at_float)

    def below_floor(self, theta) -> GainFloorError:
        """The error for the objective below ``floor`` at ``theta``, a float or a (d,) point."""
        return GainFloorError(f"objective below declared floor {self.floor} at theta={np.atleast_1d(theta)}")

    def value(self, theta, n: int = 0):
        rows = np.asarray(theta, dtype=float)
        vals = self.objective.value_batch(rows)
        below = vals < self.floor
        if below.any():
            raise self.below_floor(rows[below][0])
        return self._formula(vals, np)
