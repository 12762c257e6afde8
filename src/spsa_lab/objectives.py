"""Objective functions with closed-form or finite-difference derivatives.

Built-ins cover the two desk problems: a pure quadratic and a quadratic
with trigonometric terms that break its symmetry, plus a general
positive-definite quadratic form.  An `Objective` is evaluated on (m, d)
batches of points; each built-in states its value and gradient once.

A 1-d formula (an objective's ``fn_1d``, an active gain's) is written
once, as an element-wise expression of the coordinate that takes its
library as an argument: ``formula(x, lib)``, for example
``x * x - lib.cos(x) - lib.sin(5.0 * x) / 5.0 + 4.0``.

- On an (m,) column it runs with ``lib`` = ``numpy`` and gives an (m,)
  array.
- At a Python float it runs with ``lib`` = ``math`` and gives a float,
  with no NumPy call.  Each objective and active gain binds this float
  form once, at construction, through ``float_form``.

The two agree bit for bit, by three rules.  NumPy's sin, cos and sqrt on
float64 arrays round as libm's do.  A non-finite argument gives NaN on a
float as on a column: ``math.cos(inf)`` and ``math.sqrt(-1.0)`` raise
``ValueError`` where NumPy returns NaN.  ``float_form`` hands ``math`` to a
formula and catches that error, once per call; the one other place that
does so is the mean field's two-point binding (``meanflow``), which runs an
objective's formula twice per field value, each in its own ``try``.  A
formula is an arithmetic expression, so one NaN term makes the whole value
NaN.  Squares are written ``x * x``: on a float ``x**2`` calls libm
``pow``, which can differ from ``x * x`` in the last bit, while NumPy
computes an array's ``x**2`` as ``x * x``.  Any other single point,
and every point that ``Objective.value`` takes, is a 1-row batch.  User
objectives are supplied the same way; there is no expression parser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Objective",
    "quadratic_1d",
    "trig_quadratic_1d",
    "quadratic_nd",
    "builtin_objective",
    "grad_check",
    "central_difference",
    "bisect_root",
    "opposite_signs",
]


_FLOAT64 = np.dtype(np.float64)
BISECT_MAX_ITER = 200


def _fd_step(theta: np.ndarray) -> float:
    # balances truncation and rounding for smooth objectives in double precision
    return 1e-4 * (1.0 + float(np.linalg.norm(theta)))


@dataclass(frozen=True)
class Objective:
    """Scalar objective on R^d, evaluated on (m, d) batches of points.

    ``fn_batch`` maps an (m, d) batch to m values and ``grad_batch_fn`` to m
    gradient rows; ``grad`` falls back to central finite differences when no
    closed form is given.  A 1-d objective may give ``fn_1d(x, lib)``
    instead, the element-wise formula of its coordinate; ``fn_batch`` then
    defaults to ``fn_1d`` applied to ``ts[..., 0]`` with ``lib`` = ``numpy``
    (see the module docstring), and an objective given neither raises
    ``ValueError``.  ``value_batch`` and ``grad_batch`` also take an
    (s, m, d) stack of batches, a window statistic's input
    (``core.WindowStatistic``): the built-in forms and the default
    ``fn_batch`` index the last axis, and the finite-difference fallback
    walks the rows.  ``at_float``, bound at construction, is the objective
    at a float point: ``fn_1d`` on ``math`` through ``float_form``, with the
    floor check of ``value_batch``, or a 1-row batch when there is no
    ``fn_1d``; the fields are frozen, so it cannot go stale.  Metadata
    fields record a known stationary point and a known lower bound when
    available.  A value below ``floor_threshold`` raises
    ``below_floor(theta, value)``, in ``value_batch``, in the float form and
    in the mean field's two-point binding alike.
    """

    dim: int
    fn_batch: Callable[[np.ndarray], np.ndarray] | None = None
    grad_batch_fn: Callable[[np.ndarray], np.ndarray] | None = None
    known_optimum: np.ndarray | None = None
    known_floor: float | None = None
    name: str = "custom"
    fn_1d: Callable | None = None

    def __post_init__(self):
        # the floor less a rounding allowance, taken once; -inf without a floor
        object.__setattr__(self, "floor_threshold", -math.inf if self.known_floor is None else self.known_floor - 1e-12)
        fn_1d = self.fn_1d
        if fn_1d is None:
            if self.fn_batch is None:
                raise ValueError("an objective needs fn_batch or fn_1d")
            object.__setattr__(self, "at_float", self.value)
            return
        if self.dim != 1:
            raise ValueError(f"fn_1d needs a 1-dimensional objective, got dim {self.dim}")
        if self.fn_batch is None:
            object.__setattr__(self, "fn_batch", lambda ts: fn_1d(ts[..., 0], np))
        object.__setattr__(self, "at_float", float_form(fn_1d, self.floor_threshold, self.below_floor))

    def below_floor(self, theta, val) -> ValueError:
        """The error for ``val`` below the declared floor at ``theta``, a float or a (d,) point."""
        return ValueError(f"objective {val} below declared floor {self.known_floor} at theta={np.atleast_1d(theta)}")

    def value(self, theta) -> float:
        """Objective at one (d,) point (at d = 1 a float is a 1-element point), a 1-row ``value_batch``."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != (self.dim,):
            raise ValueError(f"theta has shape {theta.shape}, expected ({self.dim},)")
        return float(self.value_batch(theta[None, :])[0])

    def value_batch(self, thetas: np.ndarray) -> np.ndarray:
        """Objective on an (m, d) batch, or an (s, m, d) stack; a value below the declared floor raises (NaN rows are skipped)."""
        thetas = np.asarray(thetas, dtype=float)
        vals = self.fn_batch(thetas)
        # a float64 array, the usual result, needs no coercion
        if vals.__class__ is not np.ndarray or vals.dtype is not _FLOAT64:
            vals = np.asarray(vals, dtype=float)
        if self.known_floor is not None:
            low = np.fmin.reduce(vals, axis=None, initial=np.inf)
            if low < self.floor_threshold:
                raise self.below_floor(thetas[vals == low][0], low)
        return vals

    def grad(self, theta) -> np.ndarray:
        """Gradient at one (d,) point: a 1-row ``grad_batch``, or central differences without a closed form."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.grad_batch_fn is not None:
            return self.grad_batch(theta[None, :])[0]
        return central_difference(self.value_batch, theta, _fd_step(theta))

    def grad_batch(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        if self.grad_batch_fn is not None:
            out = self.grad_batch_fn(thetas)
            if out.__class__ is not np.ndarray or out.dtype is not _FLOAT64:
                out = np.asarray(out, dtype=float)
            return out
        rows = thetas.reshape(-1, thetas.shape[-1])
        return np.stack([self.grad(row) for row in rows]).reshape(thetas.shape)


def central_difference(fn_batch, theta, h: float) -> np.ndarray:
    """Central differences of a batch map at ``theta``.

    ``fn_batch`` maps a (k, d) batch of points to k values or k rows of
    values.  Column i of the result is
    (fn(theta + h e_i) - fn(theta - h e_i)) / (2 h), so a scalar map gives
    its (d,) gradient and a vector map its (p, d) Jacobian.  All 2d points
    go through one call.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    d = theta.size
    shifts = h * np.eye(d)
    vals = np.asarray(fn_batch(np.concatenate([theta + shifts, theta - shifts])), dtype=float)
    return ((vals[:d] - vals[d:]) / (2.0 * h)).T


def grad_check(obj: Objective, theta_grid, h: float = 1e-4) -> float:
    """Max sup-norm gap between closed-form and central-difference gradients.

    Returns 0 for an empty grid.  ``h`` must lie in [1e-6, 1e-2]; the
    central difference has O(h^2) truncation on smooth objectives.
    """
    if not 1e-6 <= h <= 1e-2:
        raise ValueError(f"h must lie in [1e-6, 1e-2], got {h}")
    worst = 0.0
    for theta in theta_grid:
        gap = obj.grad(theta) - central_difference(obj.value_batch, theta, h)
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def opposite_signs(a: float, b: float) -> bool:
    """Whether one of ``a`` and ``b`` is below 0 and the other above; a NaN has no sign.

    Two comparisons, not a product, so tiny values cannot underflow to 0.
    """
    return (a < 0.0 < b) or (b < 0.0 < a)


def bisect_root(fn, lo: float, hi: float, tol: float = 1e-14) -> float:
    """Plain interval bisection; requires a sign change on [lo, hi] (``opposite_signs``)."""
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if not opposite_signs(flo, fhi):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0 or hi - lo < tol:
            return mid
        if opposite_signs(flo, fmid):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def float_form(formula, floor: float = -math.inf, below=None):
    """The float form of a 1-d formula: ``formula(x, math)`` at a Python float ``x``.

    This and the mean field's two-point binding are the two places that
    hand ``math`` to a formula.  Where ``math`` raises ``ValueError``
    (``cos(inf)``, ``sqrt(-1.0)``) NumPy gives NaN, so the form returns NaN.
    A value below ``floor`` raises ``below(x, value)``; that check sits
    outside the ``try``, so its error is not taken for a domain error, and
    NaN passes it, as in a batch.  The form also takes an iteration index
    ``n`` and ignores it, so that a gain's float form has the signature of
    its ``value``.
    """

    def at(x, n=0):
        try:
            val = formula(x, math)
        except ValueError:
            val = math.nan
        if val < floor:
            raise below(x, val)
        return val

    return at


def _square(x, lib):
    return x * x


def quadratic_1d() -> Objective:
    """1-d quadratic, value theta^2, minimum 0 at the origin."""
    return Objective(
        dim=1,
        grad_batch_fn=lambda ts: 2.0 * ts[..., :1],
        known_optimum=np.array([0.0]),
        known_floor=0.0,
        name="quadratic1d",
        fn_1d=_square,
    )


def trig_quadratic_1d() -> Objective:
    """Quadratic with trigonometric terms breaking its symmetry.

    value(t) = t^2 - cos(t) - sin(5 t)/5 + 4, bounded below by 2.8.  The
    stationary point (near 0.19) is located by bisection on the
    closed-form derivative at construction and stored as the known
    optimum.
    """

    def f(x, lib):
        return x * x - lib.cos(x) - lib.sin(5.0 * x) / 5.0 + 4.0

    def gb(ts):
        x = ts[..., 0]
        return (2.0 * x + np.sin(x) - np.cos(5.0 * x))[..., None]

    stationary = bisect_root(lambda x: gb(np.array([[x]]))[0, 0], 0.0, 0.5)
    return Objective(
        dim=1,
        grad_batch_fn=gb,
        known_optimum=np.array([stationary]),
        known_floor=2.8,
        name="trig_quadratic1d",
        fn_1d=f,
    )


def quadratic_nd(q: np.ndarray) -> Objective:
    """Quadratic form value(t) = t' Q t / 2 for symmetric positive-definite Q."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"Q must be square, got shape {q.shape}")
    if not np.allclose(q, q.T, atol=1e-12):
        raise ValueError("Q must be symmetric")
    eigs = np.linalg.eigvalsh(q)
    if eigs.min() <= 0:
        raise ValueError(f"Q must be positive definite, min eigenvalue {eigs.min()}")
    d = q.shape[0]
    return Objective(
        dim=d,
        fn_batch=lambda ts: 0.5 * np.einsum("...i,ij,...j->...", ts, q, ts),
        grad_batch_fn=lambda ts: ts @ q.T,
        known_optimum=np.zeros(d),
        known_floor=0.0,
        name="quadratic_nd",
    )


def builtin_objective(kind: str, q=None) -> Objective:
    """Look up a built-in objective by config name."""
    if kind == "quadratic1d":
        return quadratic_1d()
    if kind == "trig_quadratic1d":
        return trig_quadratic_1d()
    if kind == "quadratic_nd":
        if q is None:
            raise ValueError("quadratic_nd requires objective.Q")
        return quadratic_nd(q)
    raise ValueError(f"unknown objective kind {kind!r}")
