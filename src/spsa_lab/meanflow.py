"""Mean field of the single-sample update, its flow, and its equilibrium.

The update direction at a frozen iterate, averaged over the probe law,
defines a field whose flow governs the recursion's long-run behavior.
``MeanFieldEvaluator.evaluate`` computes that field in dimension 1 with
one node/weight rule against the probe law, which the base noise picks:
the probe atoms (rademacher, exact) or Gauss-Legendre nodes (uniform).
``monte_carlo_field`` samples the field as an independent reference.  The
flow (classical RK4), the equilibrium search and the bias sweep (one
evaluator, its gain rescaled) run on Python floats, through ``at_float``:
the field at a float, bound once at construction.  They keep no copy of a
shared numerical rule: the equilibrium's Jacobian is
``objectives.central_difference``, its bracket search uses
``objectives.opposite_signs`` and ``bisect_root``, the bias sweep's
slope is ``ensemble.scaling_fit``'s, and ``monte_carlo_field`` samples the
engine's update rule, ``core._increment``.

The field has two forms, with the same floating-point operations in
each, so a float's field equals its entry in a column bit for bit:

- ``evaluate`` on an (m,) column of points, giving an (m,) array: one
  expression on ``numpy`` for both rules, summing the weighted nodes in
  node order.
- ``at_float`` at a Python float, giving a float.  The two-point rule on
  an objective with a 1-d formula is one closure over the gain's float
  form and that formula, which it runs on ``math`` itself
  (``_two_point_field``): it catches libm's domain errors per value and
  gives NaN, as ``objectives.float_form`` does, and checks the objective's
  floor.  No NumPy call is made, and squares are written ``x * x`` (see
  ``objectives``).  Every other field (the quadrature rule, or an
  objective without ``fn_1d``) is the column form on a 1-entry column.

A non-finite or overflowing point gives inf or NaN, never an exception or
a warning: the float forms map libm's domain errors to NaN, and the
array work runs with NumPy's overflow and invalid-value warnings off
(``evaluate`` enters ``np.errstate``; the flow and the equilibrium search
hold one over all their calls to ``at_float``).  Callers judge the result
(a NaN residual fails the equilibrium search, a non-finite state ends the
flow).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import _increment
from .ensemble import scaling_fit
from .exploration import DEFAULT_VARSIGMA, BaseNoise
from .objectives import Objective, bisect_root, central_difference, opposite_signs
from .schedules import ExplorationGain

__all__ = [
    "MeanFieldEvaluator",
    "FlowTrajectory",
    "EquilibriumReport",
    "SolverError",
    "monte_carlo_field",
    "integrate_flow",
    "gradient_flow_field",
    "find_equilibrium",
    "bias_sweep",
]

QUADRATURE_NODES = 64
NEWTON_MAX_ITER = 200
DEFAULT_TOL = 1e-10


class SolverError(RuntimeError):
    """Equilibrium search failed to converge; carries the last iterate."""

    def __init__(self, message: str, last_iterate: float):
        super().__init__(message)
        self.last_iterate = last_iterate


@dataclass(frozen=True)
class MeanFieldEvaluator:
    """Averaged update direction of the single-sample recursion in dimension 1.

    One node/weight rule against the marginal probe law gives
    fbar(theta) = -sum_k w_k xi_k f(theta + eps xi_k) / eps, with eps the
    gain at theta.  The base noise picks the rule: rademacher takes the
    nonzero atoms of the probe law as nodes (two-point, exact), uniform a
    Gauss-Legendre rule against the uniform base law (for zigzag probes,
    one rule per half of the triangular marginal).  The probe mode enters
    only through the marginal probe law (iid base draws versus scaled
    differences of independent draws).  ``evaluate(x)`` is the field on an
    (m,) column, and ``at_float(x)`` the field at a float, bound at
    construction: the two-point closure on ``math`` or the column form on
    one point (see the module docstring).
    """

    objective: Objective
    gain: ExplorationGain
    base: BaseNoise
    mode: str = "iid"
    varsigma: float = DEFAULT_VARSIGMA

    def __post_init__(self):
        if self.mode not in ("iid", "zigzag"):
            raise ValueError(f"unknown probe mode {self.mode!r}")
        if self.base.dim != 1:
            raise ValueError("the mean field is implemented for dimension 1")
        nodes, weights = self._rule()
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_weighted_nodes", weights * nodes)
        # the field at a float, bound once (the fields are frozen, so it stays current)
        object.__setattr__(self, "at_float", self._bind_at_float())

    def _bind_at_float(self):
        """The field at a float: ``_two_point_field`` for the two-point rule on an objective's 1-d formula.

        Every other field (quadrature, or an objective without ``fn_1d``) is
        ``_field`` on a 1-entry column, under its caller's ``np.errstate``.
        """
        if self.base.kind == "rademacher" and self.objective.fn_1d is not None:
            # (node, weighted node) pairs as floats: the two-point closure's terms
            rule = tuple(zip(self._nodes.tolist(), self._weighted_nodes.tolist()))
            return _two_point_field(self.gain.at_float, self.objective, rule)
        field = self._field
        return lambda x: float(field(np.array([x]))[0])

    def _rule(self):
        """Nodes and weights integrating against the marginal probe law.

        Rademacher base noise: the nonzero atoms of the probe law (the
        zigzag atom at the origin adds nothing to the field).  Uniform base
        noise on [-a, a]: the iid probe is uniform there; the differenced
        probe has a triangular marginal on [-2*varsigma*a, 2*varsigma*a]
        with a kink at the origin, so each half gets its own Gauss-Legendre
        rule.
        """
        if self.base.kind == "rademacher":
            if self.mode == "iid":
                return np.array([-1.0, 1.0]), np.array([0.5, 0.5])
            two = 2.0 * self.varsigma
            return np.array([-two, two]), np.array([0.25, 0.25])
        t, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
        a = self.base.support
        if self.mode == "iid":
            return a * t, w / 2.0
        b = 2.0 * self.varsigma * a
        half_nodes = 0.5 * b * (t + 1.0)  # [0, b]
        half_w = w * (0.5 * b) * (b - half_nodes) / b**2
        nodes = np.concatenate([-half_nodes[::-1], half_nodes])
        weights = np.concatenate([half_w[::-1], half_w])
        return nodes, weights

    def evaluate(self, x):
        """Mean field on an (m,) column ``x``, as an (m,) array, under an ``np.errstate`` entered here.

        An (s, m) stack of columns, as a window statistic passes, gives an
        (s, m) array, each column as it would alone.

        A float goes through ``at_float``; a loop over floats holds one
        ``np.errstate`` of its own, as the flow and the equilibrium search do.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            return self._field(x)

    def _field(self, x):
        """The field on an (m,) column, or on an (s, m) stack of columns."""
        eps = self.gain.value(x[..., None])
        pts = x[..., None] + eps[..., None] * self._nodes
        values = self.objective.value_batch(pts.reshape(-1, 1)).reshape(pts.shape)
        return -np.add.reduce(values * self._weighted_nodes, axis=-1) / eps


def _two_point_field(gain_at, objective: Objective, rule):
    """The two-point field at a float, on the gain's float form and the objective's 1-d formula.

    With ``objectives.float_form`` this is one of the two places that hand
    ``math`` to a formula.  Each of the two objective values is
    ``fn_1d(point, math)`` in its own ``try``: where ``math`` raises
    ``ValueError`` NumPy gives NaN, so the value is NaN.  The floor check
    sits outside the ``try``, and a value below the objective's
    ``floor_threshold`` raises its ``below_floor(point, value)``, as the
    objective's float form and ``value_batch`` do.  With the center-active
    gain one call takes five Python frames: this field, the gain's form and
    formula, and the objective's formula twice.
    """
    formula, floor, below = objective.fn_1d, objective.floor_threshold, objective.below_floor
    (n0, w0), (n1, w1) = rule

    def field(x):
        eps = gain_at(x)
        x0 = x + eps * n0
        try:
            f0 = formula(x0, math)
        except ValueError:
            f0 = math.nan
        if f0 < floor:
            raise below(x0, f0)
        x1 = x + eps * n1
        try:
            f1 = formula(x1, math)
        except ValueError:
            f1 = math.nan
        if f1 < floor:
            raise below(x1, f1)
        return -(f0 * w0 + f1 * w1) / eps

    return field


def monte_carlo_field(evaluator: MeanFieldEvaluator, x: float, n_samples: int, rng: np.random.Generator):
    """Sampled mean field at a float ``x`` and its standard error, as two floats.

    The sample mean of the update direction (the engine's 1SPSA increment,
    ``core._increment``, at step size 1) over ``n_samples`` fresh probes
    from the stationary probe law of ``evaluator``, drawn from ``rng``: an
    independent reference for the node/weight rules.
    """
    eps = evaluator.gain.at_float(x)
    if evaluator.mode == "iid":
        xi = evaluator.base.sample(rng, n_samples)
    else:
        w = evaluator.base.sample(rng, 2 * n_samples)
        xi = evaluator.varsigma * (w[:n_samples] - w[n_samples:])
    draws = _increment(lambda pts: evaluator.objective.value_batch(pts)[:, None], "1spsa", x, xi, eps, 1.0)
    stderr = draws.std(axis=0, ddof=1) / np.sqrt(n_samples)
    return float(draws.mean(axis=0)[0]), float(stderr[0])


@dataclass
class FlowTrajectory:
    """Fixed-step flow trajectory: times from 0, and the state at each time."""

    times: np.ndarray
    states: np.ndarray

    @property
    def final(self) -> float:
        return float(self.states[-1])


def gradient_flow_field(objective: Objective):
    """Right-hand side of the steepest-descent flow of a 1-d objective, on floats."""

    def field(x: float) -> float:
        return -float(objective.grad(x)[0])

    return field


def integrate_flow(field, x0: float, t_end: float, dt: float) -> FlowTrajectory:
    """Classical 4th-order Runge-Kutta with a fixed step, on Python floats.

    ``field`` maps a float state to its float derivative, for example a
    ``MeanFieldEvaluator``'s ``at_float``.  The whole loop runs under one
    ``np.errstate``, so a field with array work (the column form) needs no guard
    of its own.  A non-finite state aborts integration and the partial
    trajectory is returned; the overflow that produces it is not reported
    as a warning.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    x = float(x0)
    n_steps = int(round(t_end / dt)) if t_end > 0 else 0
    half, sixth = 0.5 * dt, dt / 6.0
    states = [x]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            k1 = field(x)
            k2 = field(x + half * k1)
            k3 = field(x + half * k2)
            k4 = field(x + dt * k3)
            x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not math.isfinite(x):
                break
            states.append(x)
        # the time of state k is k * dt, taken after the loop
        times = np.arange(len(states)) * dt
    return FlowTrajectory(times, np.asarray(states))


@dataclass
class EquilibriumReport:
    """Root of the mean field with its Jacobian, which in dimension 1 is the one eigenvalue."""

    theta_star: float
    residual_norm: float
    jacobian: float
    bias_to_opt: float | None = None
    bias_to_origin: float | None = None


def _jacobian(field, x: float) -> float:
    """The float field's derivative at ``x`` by ``objectives.central_difference``, under the caller's errstate."""
    # the field is deterministic, so truncation dominates and a small step is safe
    h = 1e-5 * (1.0 + abs(x))
    return float(central_difference(lambda pts: [field(p) for p in pts[:, 0].tolist()], x, h)[0])


def find_equilibrium(evaluator: MeanFieldEvaluator, theta_init: float, tol: float = DEFAULT_TOL) -> EquilibriumReport:
    """Damped Newton root search on the mean field, from a float start.

    Newton steps are halved (up to 60 times) until |field| decreases; if
    Newton stalls, a sign-change bracket is grown around the iterate and
    ``objectives.bisect_root`` finishes the job.  The Jacobian is
    ``objectives.central_difference`` with step 1e-5 * (1 + |x|).  The
    field runs on floats, through ``evaluator.at_float``, under one
    ``np.errstate``.  Raises SolverError with the last iterate if no root
    is found within the budget.
    """
    if not 1e-12 <= tol <= 1e-6:
        raise ValueError(f"tol must lie in [1e-12, 1e-6], got {tol}")
    field = evaluator.at_float
    x = float(theta_init)
    with np.errstate(over="ignore", invalid="ignore"):
        fval = field(x)
        fnorm = abs(fval)
        for _ in range(NEWTON_MAX_ITER):
            if fnorm <= tol:
                break
            jac = _jacobian(field, x)
            step = -fval if jac == 0.0 else -fval / jac
            for _ in range(60):
                cand = x + step
                cval = field(cand)
                if abs(cval) < fnorm:
                    x, fval, fnorm = cand, cval, abs(cval)
                    break
                step *= 0.5
            else:
                break
        # "not <=" also holds for a NaN residual, which is a failure too
        if not fnorm <= tol:
            root = _bisect_equilibrium(field, x, tol)
            if root is not None:
                x = root
                fnorm = abs(field(x))
        if not fnorm <= tol:
            raise SolverError(f"equilibrium search stalled at residual {fnorm:.3e} (tol {tol:.1e})", x)
        jacobian = _jacobian(field, x)
    opt = evaluator.objective.known_optimum
    return EquilibriumReport(
        theta_star=x,
        residual_norm=fnorm,
        jacobian=jacobian,
        bias_to_opt=None if opt is None else abs(x - float(opt[0])),
        bias_to_origin=abs(x),
    )


def _bisect_equilibrium(field, center: float, tol: float):
    """Grow a bracket around ``center`` and bisect; None if no sign change."""
    for radius in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        lo, hi = center - radius, center + radius
        if opposite_signs(field(lo), field(hi)):
            root = bisect_root(field, lo, hi, tol=1e-15)
            if abs(field(root)) <= tol:
                return root
    return None


def bias_sweep(evaluator: MeanFieldEvaluator, eps_grid, theta_ref: float, tol: float = DEFAULT_TOL):
    """Equilibrium offset versus gain scale, with a log-log slope fit.

    Each gain scale of ``eps_grid`` rescales ``evaluator``'s gain
    (``gain.scaled``); ``theta_ref`` is the zero-gain reference point
    (the objective's own stationary point), and each equilibrium search
    starts there.  Returns (biases, slope).  The slope is
    ``ensemble.scaling_fit``'s, which rejects a grid of fewer than 3
    distinct gains.  It is None when a bias is not positive, where the
    logarithm is undefined: on a quadratic the two-point field is the
    exact gradient and every bias is 0.
    """
    eps_grid, theta_ref = [float(e) for e in eps_grid], float(theta_ref)
    biases = []
    for eb in eps_grid:
        rescaled = dataclasses.replace(evaluator, gain=evaluator.gain.scaled(eb))
        biases.append(abs(find_equilibrium(rescaled, theta_ref, tol=tol).theta_star - theta_ref))
    slope = scaling_fit(eps_grid, biases).loglog_slope if all(b > 0.0 for b in biases) else None
    return np.asarray(biases), slope
