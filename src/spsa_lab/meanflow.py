"""Mean vector field of the single-sample update, flows, and equilibria.

The update direction at a frozen iterate, averaged over the probe law,
defines a vector field whose flow governs the recursion's long-run
behavior.  This module evaluates that field on a batch of points with
one node/weight rule against the probe law, whose nodes are the probe
atoms (exact, finite probe support) or Gauss-Legendre nodes (uniform base
noise); a single point is a 1-row batch, and a Monte Carlo estimate is
kept as an independent reference.  It integrates the associated flow and
the plain gradient flow with classical RK4, and locates the field's
equilibrium together with its Jacobian spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exploration import BaseNoise, derive_seed
from .objectives import Objective, bisect_root, central_difference
from .schedules import ExplorationGain

__all__ = [
    "MeanFieldEvaluator",
    "FlowTrajectory",
    "EquilibriumReport",
    "SolverError",
    "integrate_flow",
    "gradient_flow_field",
    "find_equilibrium",
    "bias_sweep",
]

QUADRATURE_NODES = 64


class SolverError(RuntimeError):
    """Equilibrium search failed to converge; carries the last iterate."""

    def __init__(self, message: str, last_iterate: np.ndarray):
        super().__init__(message)
        self.last_iterate = last_iterate


@dataclass
class MeanFieldEvaluator:
    """Averaged update direction of the single-sample recursion.

    The deterministic methods share one node/weight rule against the
    marginal probe law, fbar(theta) = -sum_k w_k xi_k f(theta + eps xi_k) / eps:
    method "two_point" takes the nonzero atoms of the probe law as nodes
    (exact; requires rademacher base noise), method "quadrature" a
    Gauss-Legendre rule against the uniform base law (for zigzag probes,
    one rule per half of the triangular marginal); both are implemented
    for dimension 1.
    method "monte_carlo": sample mean over fresh probes from the
    stationary probe law, any base law and dimension; returns a standard
    error alongside the value.

    The probe mode enters only through the marginal probe law (iid base
    draws versus scaled differences of independent draws).
    """

    objective: Objective
    gain: ExplorationGain
    base: BaseNoise
    mode: str = "iid"
    varsigma: float = 1.0 / np.sqrt(2.0)
    method: str = "two_point"
    mc_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("iid", "zigzag"):
            raise ValueError(f"unknown probe mode {self.mode!r}")
        if self.method not in ("two_point", "quadrature", "monte_carlo"):
            raise ValueError(f"unknown mean-field method {self.method!r}")
        if self.method == "two_point" and self.base.kind != "rademacher":
            raise ValueError("two_point method requires rademacher base noise")
        if self.method == "quadrature" and self.base.kind != "uniform":
            raise ValueError("quadrature method requires uniform base noise")
        if self.deterministic and self.base.dim != 1:
            raise ValueError("deterministic methods are implemented for dimension 1")
        self._rng = np.random.Generator(
            np.random.Philox(key=derive_seed(self.seed, "meanfield-mc"))
        )
        if self.deterministic:
            self._nodes, weights = self._rule()
            self._weighted_nodes = weights * self._nodes

    @property
    def deterministic(self) -> bool:
        return self.method in ("two_point", "quadrature")

    def _rule(self):
        """Nodes and weights integrating against the marginal probe law.

        two_point: the nonzero atoms of the probe law (the zigzag atom at
        the origin adds nothing to the field).  quadrature: the iid probe
        is uniform on [-a, a]; the differenced probe has a triangular
        marginal on [-2*varsigma*a, 2*varsigma*a] with a kink at the
        origin, so each half gets its own Gauss-Legendre rule.
        """
        if self.method == "two_point":
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

    def value(self, theta) -> np.ndarray:
        """Mean field at one point (value only)."""
        return self.evaluate(theta)[0]

    def evaluate(self, theta):
        """Mean field and its standard error at one point.

        Deterministic methods are a 1-row ``value_batch`` with a zero
        standard error.
        """
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.deterministic:
            return self.value_batch(theta[None, :])[0], np.zeros(1)
        eps = float(self.gain.value(theta))
        xi = self._sample_probes(self.mc_samples)
        perturbed = theta[None, :] + eps * xi
        vals = self.objective.value_batch(perturbed)
        draws = -(xi / eps) * vals[:, None]
        mean = draws.mean(axis=0)
        stderr = draws.std(axis=0, ddof=1) / np.sqrt(self.mc_samples)
        return mean, stderr

    def _sample_probes(self, n: int) -> np.ndarray:
        if self.mode == "iid":
            return self.base.sample(self._rng, n)
        w = self.base.sample(self._rng, 2 * n)
        return self.varsigma * (w[:n] - w[n:])

    def value_batch(self, thetas: np.ndarray) -> np.ndarray:
        """Mean field on an (m, 1) batch of points; deterministic methods only."""
        if not self.deterministic:
            raise ValueError("batch evaluation requires a deterministic method")
        thetas = np.asarray(thetas, dtype=float)
        eps = np.asarray(self.gain.value(thetas), dtype=float)
        # one row of perturbed points theta + eps * xi_k per iterate (d = 1)
        pts = thetas + eps[:, None] * self._nodes
        vals = self.objective.value_batch(pts.reshape(-1, 1)).reshape(pts.shape)
        return (-(vals * self._weighted_nodes).sum(axis=1) / eps)[:, None]


@dataclass
class FlowTrajectory:
    """Fixed-step flow trajectory: times from 0, states per time."""

    times: np.ndarray
    states: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def gradient_flow_field(objective: Objective):
    """Right-hand side of the steepest-descent flow."""

    def field(theta: np.ndarray) -> np.ndarray:
        return -objective.grad(theta)

    return field


def integrate_flow(field, theta0, t_end: float, dt: float) -> FlowTrajectory:
    """Classical 4th-order Runge-Kutta with a fixed step.

    ``field`` is a callable theta -> dtheta/dt or a deterministic
    MeanFieldEvaluator.  A non-finite state aborts integration and the
    partial trajectory is returned.
    """
    if isinstance(field, MeanFieldEvaluator):
        if not field.deterministic:
            raise ValueError("flow integration requires a deterministic mean-field method")
        evaluator = field
        field = lambda th: evaluator.value_batch(th[None, :])[0]  # noqa: E731
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    # each state is a new array, never written to, so states holds no copies
    theta = np.atleast_1d(np.asarray(theta0, dtype=float))
    n_steps = int(round(t_end / dt)) if t_end > 0 else 0
    times = [0.0]
    states = [theta]
    for k in range(n_steps):
        k1 = field(theta)
        k2 = field(theta + 0.5 * dt * k1)
        k3 = field(theta + 0.5 * dt * k2)
        k4 = field(theta + dt * k3)
        theta = theta + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(theta)):
            break
        times.append((k + 1) * dt)
        states.append(theta)
    return FlowTrajectory(np.asarray(times), np.stack(states))


@dataclass
class EquilibriumReport:
    """Root of the mean field with local linearization data."""

    theta_star: np.ndarray
    residual_norm: float
    jacobian: np.ndarray
    eigen_real_parts: np.ndarray
    bias_to_opt: float | None = None
    bias_to_origin: float | None = None


def _fd_jacobian(evaluator: MeanFieldEvaluator, theta: np.ndarray) -> np.ndarray:
    # the field is deterministic, so truncation dominates and a small step is safe
    return central_difference(evaluator.value_batch, theta, 1e-5 * (1.0 + float(np.linalg.norm(theta))))


def find_equilibrium(
    evaluator: MeanFieldEvaluator,
    theta_init,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> EquilibriumReport:
    """Damped Newton root search on the mean field.

    Newton steps are halved (up to 60 times) until the field norm
    decreases; if Newton stalls in dimension 1, a sign-change bracket is
    grown around the iterate and plain bisection finishes the job.
    Raises SolverError with the last iterate if no root is found within
    the budget.
    """
    if not evaluator.deterministic:
        raise ValueError("equilibrium search requires a deterministic mean-field method")
    if not 1e-12 <= tol <= 1e-6:
        raise ValueError(f"tol must lie in [1e-12, 1e-6], got {tol}")
    theta = np.atleast_1d(np.asarray(theta_init, dtype=float)).copy()
    fval = evaluator.value(theta)
    fnorm = float(np.linalg.norm(fval))
    converged = False
    for _ in range(max_iter):
        if fnorm <= tol:
            converged = True
            break
        jac = _fd_jacobian(evaluator, theta)
        try:
            step = np.linalg.solve(jac, -fval)
        except np.linalg.LinAlgError:
            step = -fval
        improved = False
        for _ in range(60):
            cand = theta + step
            cval = evaluator.value(cand)
            cnorm = float(np.linalg.norm(cval))
            if cnorm < fnorm:
                theta, fval, fnorm = cand, cval, cnorm
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    if not converged and fnorm > tol and theta.size == 1:
        theta_b = _bisect_equilibrium(evaluator, float(theta[0]), tol)
        if theta_b is not None:
            theta = np.array([theta_b])
            fval = evaluator.value(theta)
            fnorm = float(np.linalg.norm(fval))
    if fnorm > tol:
        raise SolverError(
            f"equilibrium search stalled at residual {fnorm:.3e} (tol {tol:.1e})", theta
        )
    jac = _fd_jacobian(evaluator, theta)
    eigs = np.linalg.eigvals(jac)
    opt = evaluator.objective.known_optimum
    return EquilibriumReport(
        theta_star=theta,
        residual_norm=fnorm,
        jacobian=jac,
        eigen_real_parts=np.sort(eigs.real),
        bias_to_opt=None if opt is None else float(np.linalg.norm(theta - opt)),
        bias_to_origin=float(np.linalg.norm(theta)),
    )


def _bisect_equilibrium(evaluator: MeanFieldEvaluator, center: float, tol: float):
    """Grow a bracket around ``center`` and bisect; None if no sign change."""

    def f(x: float) -> float:
        return float(evaluator.value(np.array([x]))[0])

    for radius in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        lo, hi = center - radius, center + radius
        if f(lo) * f(hi) < 0:
            root = bisect_root(f, lo, hi, tol=1e-15)
            if abs(f(root)) <= tol:
                return root
    return None


def bias_sweep(
    make_evaluator,
    eps_grid,
    theta_ref: np.ndarray,
    tol: float = 1e-10,
):
    """Equilibrium offset versus gain scale, with a log-log slope fit.

    ``make_evaluator(eps_bullet)`` builds the mean-field evaluator at
    each gain scale; ``theta_ref`` is the zero-gain reference point
    (the objective's own stationary point), and each equilibrium search
    starts there.  Returns (biases, slope).  The slope is None when a
    bias is not positive, where the logarithm is undefined: on a
    quadratic the two-point field is the exact gradient and every bias
    is 0.
    """
    eps_grid = np.asarray(list(eps_grid), dtype=float)
    if eps_grid.size < 3:
        raise ValueError("bias sweep needs at least 3 gain values")
    theta_ref = np.atleast_1d(np.asarray(theta_ref, dtype=float))
    biases = []
    for eb in eps_grid:
        report = find_equilibrium(make_evaluator(float(eb)), theta_ref, tol=tol)
        biases.append(float(np.linalg.norm(report.theta_star - theta_ref)))
    if min(biases) <= 0.0:
        return np.asarray(biases), None
    slope = float(np.polyfit(np.log(eps_grid), np.log(biases), 1)[0])
    return np.asarray(biases), slope
