"""Objective functions with closed-form or finite-difference derivatives.

Built-ins cover the two desk problems: a pure quadratic and a quadratic
with trigonometric terms that break its symmetry, plus a general
positive-definite quadratic form.  An `Objective` is evaluated on batches
of points; each built-in states its value and gradient once.  A 1-d
built-in states its value as an element-wise formula of the coordinate,
which runs on an (m,) column for a batch and on a Python float at a
point; any other single point is a 1-row batch.  User objectives are
supplied the same way; there is no expression parser.
"""

from __future__ import annotations

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
]


_FLOAT64 = np.dtype(np.float64)


def _fd_step(theta: np.ndarray, h: float | None) -> float:
    # balances truncation and rounding for smooth objectives in double precision
    if h is not None:
        return h
    return 1e-4 * (1.0 + float(np.linalg.norm(theta)))


@dataclass
class Objective:
    """Scalar objective on R^d, evaluated on (m, d) batches of points.

    ``fn_batch`` maps an (m, d) batch to m values and ``grad_batch_fn`` to
    m gradient rows; ``grad`` falls back to central finite differences
    when no closed form is given.  A 1-d objective may also give
    ``fn_1d``, the element-wise formula of its coordinate that
    ``fn_batch`` applies to ``ts[:, 0]``; ``value`` then runs it at a
    float point.  Metadata fields record a known stationary point and a
    known lower bound when available.
    """

    dim: int
    fn_batch: Callable[[np.ndarray], np.ndarray]
    grad_batch_fn: Callable[[np.ndarray], np.ndarray] | None = None
    known_optimum: np.ndarray | None = None
    known_floor: float | None = None
    name: str = "custom"
    fn_1d: Callable | None = None

    def __post_init__(self):
        if self.fn_1d is not None and self.dim != 1:
            raise ValueError(f"fn_1d needs a 1-dimensional objective, got dim {self.dim}")

    def value(self, theta) -> float:
        """Objective at one point, a (d,) array or (for d = 1) a float.

        A float runs through ``fn_1d`` on Python floats when the objective
        gives it, with the same floor check as ``value_batch``; any other
        point is a 1-row ``value_batch``.
        """
        if self.fn_1d is not None and isinstance(theta, float):
            val = float(self.fn_1d(theta))
            if self.known_floor is not None and val < self.known_floor - 1e-12:
                raise ValueError(
                    f"objective {val} below declared floor {self.known_floor} at theta={np.array([theta])}"
                )
            return val
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != (self.dim,):
            raise ValueError(f"theta has shape {theta.shape}, expected ({self.dim},)")
        return float(self.value_batch(theta[None, :])[0])

    def value_batch(self, thetas: np.ndarray) -> np.ndarray:
        """Objective on an (m, d) batch; a value below the declared floor raises (NaN rows are skipped)."""
        thetas = np.asarray(thetas, dtype=float)
        vals = self.fn_batch(thetas)
        # a float64 array, the usual result, needs no coercion
        if vals.__class__ is not np.ndarray or vals.dtype is not _FLOAT64:
            vals = np.asarray(vals, dtype=float)
        if self.known_floor is not None:
            low = np.fmin.reduce(vals, initial=np.inf)
            if low < self.known_floor - 1e-12:
                raise ValueError(
                    f"objective {low} below declared floor {self.known_floor} at theta={thetas[vals == low][0]}"
                )
        return vals

    def grad(self, theta, h: float | None = None) -> np.ndarray:
        """Gradient at one (d,) point: a 1-row ``grad_batch``, or central differences without a closed form."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.grad_batch_fn is not None:
            return self.grad_batch(theta[None, :])[0]
        return central_difference(self.value_batch, theta, _fd_step(theta, h))

    def grad_batch(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        if self.grad_batch_fn is not None:
            out = self.grad_batch_fn(thetas)
            if out.__class__ is not np.ndarray or out.dtype is not _FLOAT64:
                out = np.asarray(out, dtype=float)
            return out
        return np.stack([self.grad(row) for row in thetas])


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


def bisect_root(fn, lo: float, hi: float, tol: float = 1e-14, max_iter: int = 200) -> float:
    """Plain interval bisection; requires a sign change on [lo, hi]."""
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0 or hi - lo < tol:
            return mid
        if flo * fmid < 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _on_column(fn_1d):
    """The batch form of a 1-d element-wise formula: ``fn_1d`` applied to ``ts[:, 0]``."""
    return lambda ts: fn_1d(ts[:, 0])


# The element-wise formulas run on floats too, so squares are written x * x:
# on a Python float x**2 calls libm pow, which can differ from x * x in the
# last bit, while on an array NumPy computes x**2 as x * x.
def _square(x):
    return x * x


def quadratic_1d() -> Objective:
    """1-d quadratic, value theta^2, minimum 0 at the origin."""
    return Objective(
        dim=1,
        fn_batch=_on_column(_square),
        grad_batch_fn=lambda ts: 2.0 * ts[:, :1],
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

    def f(x):
        return x * x - np.cos(x) - np.sin(5.0 * x) / 5.0 + 4.0

    def gb(ts):
        x = ts[:, 0]
        return (2.0 * x + np.sin(x) - np.cos(5.0 * x))[:, None]

    stationary = bisect_root(lambda x: gb(np.array([[x]]))[0, 0], 0.0, 0.5)
    return Objective(
        dim=1,
        fn_batch=_on_column(f),
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
        fn_batch=lambda ts: 0.5 * np.einsum("mi,ij,mj->m", ts, q, ts),
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
