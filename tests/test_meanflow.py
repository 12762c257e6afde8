import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from spsa_lab import (
    BaseNoise,
    CenterActiveGain,
    ConstantGain,
    DecayingGain,
    MeanFieldEvaluator,
    ObjectiveActiveGain,
    SolverError,
    bias_sweep,
    find_equilibrium,
    gradient_flow_field,
    integrate_flow,
    quadratic_1d,
    trig_quadratic_1d,
)
from spsa_lab.exploration import probe_covariance
from spsa_lab.objectives import Objective

RAD = BaseNoise("rademacher", 1)
UNI = BaseNoise("uniform", 1, 1.0)
VS = 1.0 / np.sqrt(2.0)


def active_gain(eps):
    return CenterActiveGain(eps, np.array([0.0]), 1.0)


def taylor_gap(ev, theta):
    # distance between the mean field and its leading term -Sigma_xi grad f
    theta = np.array([theta])
    lead = probe_covariance(ev.base, ev.mode, ev.varsigma) @ ev.objective.grad(theta)
    return float(np.linalg.norm(ev.value(theta) + lead))


def test_two_point_on_quadratic_is_exact_gradient():
    # the symmetric difference of a quadratic recovers the gradient for
    # any gain value, including iterate-dependent ones
    ev = MeanFieldEvaluator(objective=quadratic_1d(), gain=active_gain(0.37), base=RAD)
    for theta in np.linspace(-4, 4, 21):
        val, err = ev.evaluate(np.array([theta]))
        assert val[0] == pytest.approx(-2.0 * theta, abs=1e-12)
        assert err[0] == 0.0


def test_two_point_zigzag_support_enumeration():
    # differenced sign probes take values {-2v, 0, +2v}; variance matching
    # at v = 1/sqrt(2) reproduces the iid field on quadratics
    ev = MeanFieldEvaluator(
        objective=quadratic_1d(), gain=active_gain(0.2), base=RAD, mode="zigzag", varsigma=VS
    )
    val, _ = ev.evaluate(np.array([1.7]))
    assert val[0] == pytest.approx(-2.0 * 1.7, abs=1e-12)


def test_two_point_requires_rademacher():
    with pytest.raises(ValueError):
        MeanFieldEvaluator(objective=quadratic_1d(), gain=active_gain(0.1), base=UNI, method="two_point")


def test_quadrature_requires_uniform():
    with pytest.raises(ValueError):
        MeanFieldEvaluator(objective=quadratic_1d(), gain=active_gain(0.1), base=RAD, method="quadrature")


def test_quadrature_on_quadratic_matches_closed_form():
    # probe second moment is 1/3 either way (variance-matched differencing)
    for mode in ("iid", "zigzag"):
        ev = MeanFieldEvaluator(
            objective=quadratic_1d(), gain=active_gain(0.08), base=UNI, mode=mode, varsigma=VS, method="quadrature"
        )
        val, _ = ev.evaluate(np.array([1.5]))
        assert val[0] == pytest.approx(-3.0 / 3.0, abs=1e-12)


def test_monte_carlo_agrees_with_two_point():
    ev_exact = MeanFieldEvaluator(objective=trig_quadratic_1d(), gain=active_gain(0.1), base=RAD)
    ev_mc = MeanFieldEvaluator(
        objective=trig_quadratic_1d(), gain=active_gain(0.1), base=RAD, method="monte_carlo",
        mc_samples=200_000, seed=42,
    )
    for theta in np.linspace(-2, 2, 9):
        exact, _ = ev_exact.evaluate(np.array([theta]))
        mc, se = ev_mc.evaluate(np.array([theta]))
        assert abs(mc[0] - exact[0]) <= 3.0 * se[0] + 1e-12


def test_monte_carlo_zigzag_matches_quadrature():
    ev_q = MeanFieldEvaluator(
        objective=trig_quadratic_1d(), gain=active_gain(0.1), base=UNI, mode="zigzag", varsigma=VS, method="quadrature"
    )
    ev_mc = MeanFieldEvaluator(
        objective=trig_quadratic_1d(), gain=active_gain(0.1), base=UNI, mode="zigzag", varsigma=VS,
        method="monte_carlo", mc_samples=500_000, seed=7,
    )
    for theta in (-1.0, 0.3, 2.0):
        vq, _ = ev_q.evaluate(np.array([theta]))
        vm, se = ev_mc.evaluate(np.array([theta]))
        assert abs(vm[0] - vq[0]) <= 3.0 * se[0] + 1e-12


def make_gain(kind, eps):
    if kind == "center_active":
        return CenterActiveGain(eps, np.array([0.3]), 0.7)
    if kind == "objective_active":
        return ObjectiveActiveGain(eps, trig_quadratic_1d(), -2.0)
    if kind == "constant":
        return ConstantGain(eps)
    return DecayingGain(eps, 0.6)


def as_bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("mode", ["iid", "zigzag"])
@pytest.mark.parametrize("method", ["two_point", "quadrature"])
def test_value_batch_matches_pointwise(method, mode):
    # for every gain kind, value_at at a float point takes the floating-point
    # operations of a value_batch row, so they agree bit for bit on a dense
    # grid (a float formula written with x**2, which calls libm pow, fails
    # here); evaluate and value are value_at calls, and rows do not interact.
    # Quadrature's node evaluation is an array expression at a point too, so
    # it is checked on a tenth of the grid.
    base = RAD if method == "two_point" else UNI
    grid = np.linspace(-3, 3, 20_001 if method == "two_point" else 2_001)
    for gain_kind in ("center_active", "objective_active", "constant", "decaying"):
        ev = MeanFieldEvaluator(
            objective=trig_quadratic_1d(), gain=make_gain(gain_kind, 0.05), base=base, mode=mode, varsigma=VS,
            method=method,
        )
        batch = ev.value_batch(grid[:, None])
        assert batch.shape == (grid.size, 1) and batch.dtype == np.float64
        points = [ev.value_at(x) for x in grid.tolist()]
        assert all(type(p) is float for p in points), gain_kind
        assert np.array_equal(as_bits(points), as_bits(batch[:, 0])), gain_kind
        for i in range(0, grid.size, 500):
            theta = np.array([grid[i]])
            val, err = ev.evaluate(theta)
            assert val.shape == (1,) and np.array_equal(as_bits(val), as_bits(batch[i]))
            assert np.array_equal(as_bits(ev.value(theta)), as_bits(batch[i]))
            assert err[0] == 0.0


def test_value_batch_takes_batches_only():
    ev = MeanFieldEvaluator(objective=quadratic_1d(), gain=active_gain(0.1), base=RAD)
    with pytest.raises(ValueError, match="batch"):
        ev.value_batch(np.array([0.5]))


def test_value_batch_rejects_monte_carlo():
    ev = MeanFieldEvaluator(
        objective=quadratic_1d(), gain=active_gain(0.1), base=RAD, method="monte_carlo", mc_samples=1000
    )
    with pytest.raises(ValueError):
        ev.value_batch(np.zeros((3, 1)))


def test_taylor_law_exact_on_quadratic():
    ev = MeanFieldEvaluator(objective=quadratic_1d(), gain=active_gain(0.3), base=RAD)
    for theta in (-3.0, 0.5, 2.0):
        assert taylor_gap(ev, theta) < 1e-12


def test_taylor_law_gap_decays_quadratically_in_gain_scale():
    # the residual of the leading-gradient approximation shrinks like the
    # squared gain scale on the trigonometric objective
    eps_grid = np.array([0.05, 0.1, 0.2])
    residuals = []
    for eps in eps_grid:
        ev = MeanFieldEvaluator(objective=trig_quadratic_1d(), gain=active_gain(eps), base=RAD)
        residuals.append(taylor_gap(ev, 0.5))
    slope = np.polyfit(np.log(eps_grid), np.log(residuals), 1)[0]
    assert 1.7 <= slope <= 2.3


def test_taylor_law_gap_vanishes_at_tiny_gain():
    ev = MeanFieldEvaluator(objective=trig_quadratic_1d(), gain=active_gain(1e-4), base=RAD)
    assert taylor_gap(ev, 0.5) < 1e-6


def test_rk4_gradient_flow_against_exponential():
    flow = integrate_flow(gradient_flow_field(quadratic_1d()), [1.0], 1.0, 1e-3)
    assert flow.times[-1] == pytest.approx(1.0)
    assert abs(flow.final[0] - np.exp(-2.0)) < 1e-6


def test_rk4_is_fourth_order():
    # halving the step shrinks the endpoint error by about 2^4
    errs = []
    for dt in (0.1, 0.05):
        flow = integrate_flow(gradient_flow_field(quadratic_1d()), [1.0], 2.0, dt)
        errs.append(abs(flow.final[0] - np.exp(-4.0)))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_mean_flow_matches_gradient_flow_on_quadratic():
    ev = MeanFieldEvaluator(objective=quadratic_1d(), gain=active_gain(0.1), base=RAD)
    mean = integrate_flow(ev, [1.0], 1.0, 1e-3)
    grad = integrate_flow(gradient_flow_field(quadratic_1d()), [1.0], 1.0, 1e-3)
    assert np.max(np.abs(mean.states - grad.states)) < 1e-9


def test_integrate_flow_zero_horizon():
    flow = integrate_flow(gradient_flow_field(quadratic_1d()), [0.7], 0.0, 0.1)
    assert len(flow.times) == 1
    assert flow.states[0, 0] == 0.7


def test_integrate_flow_aborts_on_blowup():
    # dx/dt = x^2 from 1 escapes before t=2; the partial trajectory is
    # kept, and the overflow it handles itself is not reported as a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flow = integrate_flow(lambda th: th * th, [1.0], 2.0, 0.01)
    assert flow.times[-1] < 2.0
    assert np.all(np.isfinite(flow.states))


def quartic_objective():
    # value -x^4, written with products only: on floats they overflow to inf
    # silently, where x**4 would raise OverflowError
    def f(x):
        sq = x * x
        return -(sq * sq)

    return Objective(dim=1, fn_batch=lambda ts: f(ts[:, 0]), fn_1d=f)


@pytest.mark.parametrize("mode", ["iid", "zigzag"])
def test_mean_flow_on_floats_stops_at_its_first_non_finite_state(mode):
    # the two-point field of -x^4 is about 4 x^3, whose flow escapes in finite
    # time (the active gain grows with |x|, so x +- eps stays apart from x);
    # the float flow returns the finite prefix of the 1-row reference, ending
    # just before its first non-finite state, with no warning and no exception
    ev = MeanFieldEvaluator(
        objective=quartic_objective(), gain=make_gain("center_active", 0.1), base=RAD, mode=mode, varsigma=VS
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flow = integrate_flow(ev, [1.0], 1.0, 0.01)
    with np.errstate(all="ignore"):
        want = rk4_on_rows(ev, [1.0], 1.0, 0.01)
    first_bad = int(np.argmin(np.isfinite(want[:, 0])))
    assert 0 < first_bad < 50
    assert flow.states.shape == (first_bad, 1) and flow.times.shape == (first_bad,)
    assert np.array_equal(as_bits(flow.states), as_bits(want[:first_bad]))


def rk4_on_rows(ev, theta0, t_end, dt):
    # the reference driver: classical RK4 with each field call a 1-row batch
    def field(th):
        return ev.value_batch(th[None, :])[0]

    theta = np.atleast_1d(np.asarray(theta0, dtype=float))
    states = [theta]
    for _ in range(int(round(t_end / dt))):
        k1 = field(theta)
        k2 = field(theta + 0.5 * dt * k1)
        k3 = field(theta + 0.5 * dt * k2)
        k4 = field(theta + dt * k3)
        theta = theta + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(theta)
    return np.stack(states)


@pytest.mark.parametrize("mode", ["iid", "zigzag"])
@pytest.mark.parametrize("method", ["two_point", "quadrature"])
def test_integrate_flow_matches_rk4_on_rows(method, mode):
    # the flow runs on Python floats; its states equal those of 1-row batch
    # calls bit for bit
    base = RAD if method == "two_point" else UNI
    ev = MeanFieldEvaluator(
        objective=trig_quadratic_1d(), gain=active_gain(0.1), base=base, mode=mode, varsigma=VS, method=method
    )
    flow = integrate_flow(ev, [2.5], 0.5, 1e-2)
    want = rk4_on_rows(ev, [2.5], 0.5, 1e-2)
    assert flow.states.shape == want.shape == (51, 1)
    assert np.array_equal(as_bits(flow.states), as_bits(want))


def test_flow_and_equilibrium_reject_a_start_of_the_wrong_dimension():
    ev = MeanFieldEvaluator(objective=trig_quadratic_1d(), gain=active_gain(0.1), base=RAD)
    with pytest.raises(ValueError, match="shape"):
        integrate_flow(ev, [1.0, 2.0], 1.0, 0.1)
    with pytest.raises(ValueError, match="shape"):
        find_equilibrium(ev, np.array([0.2, 0.1]))


def test_integrate_flow_rejects_monte_carlo_field():
    ev = MeanFieldEvaluator(
        objective=quadratic_1d(), gain=active_gain(0.1), base=RAD, method="monte_carlo", mc_samples=1000
    )
    with pytest.raises(ValueError):
        integrate_flow(ev, [1.0], 1.0, 0.1)


def test_find_equilibrium_quadratic():
    ev = MeanFieldEvaluator(objective=quadratic_1d(), gain=active_gain(0.1), base=RAD)
    report = find_equilibrium(ev, np.array([1.0]), tol=1e-10)
    assert abs(report.theta_star[0]) < 1e-9
    assert report.jacobian[0, 0] == pytest.approx(-2.0, abs=1e-5)
    assert np.all(report.eigen_real_parts < 0)
    assert report.bias_to_opt < 1e-9


def test_find_equilibrium_trig_against_bisection_oracle():
    eps = 0.05
    ev = MeanFieldEvaluator(objective=trig_quadratic_1d(), gain=active_gain(eps), base=RAD)

    def field(x):
        return ev.value(np.array([x]))[0]

    oracle = brentq(field, 0.0, 0.5, xtol=1e-14)
    report = find_equilibrium(ev, np.array([0.3]), tol=1e-10)
    assert abs(report.theta_star[0] - oracle) < 1e-8
    assert report.residual_norm <= 1e-10


@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_equilibrium_jacobian_is_hurwitz_for_builtins(eps):
    for obj in (quadratic_1d(), trig_quadratic_1d()):
        ev = MeanFieldEvaluator(objective=obj, gain=active_gain(eps), base=RAD)
        report = find_equilibrium(ev, obj.known_optimum, tol=1e-10)
        assert np.all(report.eigen_real_parts < 0)


def test_mean_flow_converges_exponentially_to_equilibrium():
    ev = MeanFieldEvaluator(objective=trig_quadratic_1d(), gain=active_gain(0.1), base=RAD)
    report = find_equilibrium(ev, np.array([0.2]), tol=1e-10)
    flow = integrate_flow(ev, [8.0], 4.0, 1e-3)
    dist = np.abs(flow.states[:, 0] - report.theta_star[0])
    sel = dist > 1e-9
    slope = np.polyfit(flow.times[sel][200:], np.log(dist[sel][200:]), 1)[0]
    assert slope < -1.0
    assert dist[-1] < 1e-3


def test_find_equilibrium_failure_is_explicit():
    # a field with no root: constant slope objective
    linear = Objective(dim=1, fn_batch=lambda ts: ts[:, 0])
    ev = MeanFieldEvaluator(objective=linear, gain=active_gain(0.1), base=RAD)
    with pytest.raises(SolverError) as info:
        find_equilibrium(ev, np.array([0.0]), tol=1e-10)
    assert info.value.last_iterate is not None


def test_find_equilibrium_validates_tolerance():
    ev = MeanFieldEvaluator(objective=quadratic_1d(), gain=active_gain(0.1), base=RAD)
    with pytest.raises(ValueError):
        find_equilibrium(ev, np.array([1.0]), tol=1e-3)


def test_bias_sweep_slope_on_trig():
    obj = trig_quadratic_1d()
    ref = brentq(lambda x: 2 * x + np.sin(x) - np.cos(5 * x), 0.0, 0.5, xtol=1e-14)
    biases, slope = bias_sweep(
        lambda eb: MeanFieldEvaluator(objective=trig_quadratic_1d(), gain=active_gain(eb), base=RAD),
        [0.025, 0.05, 0.1, 0.2],
        np.array([ref]),
    )
    assert np.all(np.diff(biases) > 0)
    assert 1.7 <= slope <= 2.3


def test_bias_sweep_slope_is_none_when_biases_vanish():
    # the two-point field of a quadratic is its exact gradient, so every
    # equilibrium sits on the optimum and the log-log slope is undefined
    biases, slope = bias_sweep(
        lambda eb: MeanFieldEvaluator(objective=quadratic_1d(), gain=active_gain(eb), base=RAD),
        [0.025, 0.05, 0.1],
        np.array([0.0]),
    )
    assert np.all(biases == 0.0)
    assert slope is None
