import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from spsa_lab.exploration import BaseNoise, ProbeGenerator, derive_seed
from spsa_lab.meanflow import (
    MeanFieldEvaluator,
    SolverError,
    bias_sweep,
    find_equilibrium,
    gradient_flow_field,
    integrate_flow,
    monte_carlo_field,
)
from spsa_lab.objectives import Objective, quadratic_1d, trig_quadratic_1d
from spsa_lab.schedules import CenterActiveGain, ConstantGain, DecayingGain, ObjectiveActiveGain

RAD = BaseNoise("rademacher", 1)
UNI = BaseNoise("uniform", 1, 1.0)
VS = 1.0 / np.sqrt(2.0)


def active_gain(eps):
    return CenterActiveGain(eps, np.array([0.0]), 1.0)


def taylor_gap(ev, theta):
    # distance between the mean field and its leading term -Sigma_xi grad f
    lead = ProbeGenerator(ev.base, ev.mode, ev.varsigma).probe_covariance() @ ev.objective.grad(theta)
    return abs(ev.at_float(theta) + float(lead[0]))


def mc_stream(seed):
    return np.random.Generator(np.random.Philox(key=derive_seed(seed, "meanfield-mc")))


def test_two_point_on_quadratic_is_exact_gradient():
    # the symmetric difference of a quadratic recovers the gradient for
    # any gain value, including iterate-dependent ones
    ev = MeanFieldEvaluator(objective=quadratic_1d(), gain=active_gain(0.37), base=RAD)
    for theta in np.linspace(-4, 4, 21).tolist():
        assert ev.at_float(theta) == pytest.approx(-2.0 * theta, abs=1e-12)


def test_two_point_zigzag_support_enumeration():
    # differenced sign probes take values {-2v, 0, +2v}; variance matching
    # at v = 1/sqrt(2) reproduces the iid field on quadratics
    ev = MeanFieldEvaluator(
        objective=quadratic_1d(), gain=active_gain(0.2), base=RAD, mode="zigzag", varsigma=VS
    )
    assert ev.at_float(1.7) == pytest.approx(-2.0 * 1.7, abs=1e-12)


def test_quadrature_on_quadratic_matches_closed_form():
    # probe second moment is 1/3 either way (variance-matched differencing)
    for mode in ("iid", "zigzag"):
        ev = MeanFieldEvaluator(
            objective=quadratic_1d(), gain=active_gain(0.08), base=UNI, mode=mode, varsigma=VS
        )
        assert ev.at_float(1.5) == pytest.approx(-3.0 / 3.0, abs=1e-12)


def test_monte_carlo_agrees_with_two_point():
    ev = MeanFieldEvaluator(objective=trig_quadratic_1d(), gain=active_gain(0.1), base=RAD)
    rng = mc_stream(42)
    for theta in np.linspace(-2, 2, 9).tolist():
        mc, se = monte_carlo_field(ev, theta, 200_000, rng)
        assert abs(mc - ev.at_float(theta)) <= 3.0 * se + 1e-12


def test_monte_carlo_zigzag_matches_quadrature():
    ev = MeanFieldEvaluator(
        objective=trig_quadratic_1d(), gain=active_gain(0.1), base=UNI, mode="zigzag", varsigma=VS
    )
    rng = mc_stream(7)
    for theta in (-1.0, 0.3, 2.0):
        mc, se = monte_carlo_field(ev, theta, 500_000, rng)
        assert abs(mc - ev.at_float(theta)) <= 3.0 * se + 1e-12


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
    # for every gain kind, the field at a float takes the floating-point
    # operations of its entry on an (m,) column, so they agree bit for bit on
    # a dense grid (a float formula written with x**2, which calls libm pow,
    # fails here), and the entries of a column do not interact: a 1-element
    # column gives the same bits.  Quadrature's node evaluation is an array
    # expression at a float too, so it is checked on a tenth of the grid.
    base = RAD if method == "two_point" else UNI
    grid = np.linspace(-3, 3, 20_001 if method == "two_point" else 2_001)
    for gain_kind in ("center_active", "objective_active", "constant", "decaying"):
        ev = MeanFieldEvaluator(
            objective=trig_quadratic_1d(), gain=make_gain(gain_kind, 0.05), base=base, mode=mode, varsigma=VS
        )
        column = ev.evaluate(grid)
        assert column.shape == grid.shape and column.dtype == np.float64
        points = [ev.at_float(x) for x in grid.tolist()]
        assert all(type(p) is float for p in points), gain_kind
        assert np.array_equal(as_bits(points), as_bits(column)), gain_kind
        for i in range(0, grid.size, 500):
            assert np.array_equal(as_bits(ev.evaluate(grid[i : i + 1])), as_bits(column[i : i + 1]))


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
    flow = integrate_flow(gradient_flow_field(quadratic_1d()), 1.0, 1.0, 1e-3)
    assert flow.times[-1] == pytest.approx(1.0)
    assert abs(flow.final - np.exp(-2.0)) < 1e-6


def test_rk4_is_fourth_order():
    # halving the step shrinks the endpoint error by about 2^4
    errs = []
    for dt in (0.1, 0.05):
        flow = integrate_flow(gradient_flow_field(quadratic_1d()), 1.0, 2.0, dt)
        errs.append(abs(flow.final - np.exp(-4.0)))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_mean_flow_matches_gradient_flow_on_quadratic():
    ev = MeanFieldEvaluator(objective=quadratic_1d(), gain=active_gain(0.1), base=RAD)
    mean = integrate_flow(ev.at_float, 1.0, 1.0, 1e-3)
    grad = integrate_flow(gradient_flow_field(quadratic_1d()), 1.0, 1.0, 1e-3)
    assert np.max(np.abs(mean.states - grad.states)) < 1e-9


def test_integrate_flow_zero_horizon():
    flow = integrate_flow(gradient_flow_field(quadratic_1d()), 0.7, 0.0, 0.1)
    assert len(flow.times) == 1
    assert flow.states[0] == 0.7


def test_integrate_flow_aborts_on_blowup():
    # dx/dt = x^2 from 1 escapes before t=2; the partial trajectory is
    # kept, and the overflow it handles itself is not reported as a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flow = integrate_flow(lambda x: x * x, 1.0, 2.0, 0.01)
    assert flow.times[-1] < 2.0
    assert np.all(np.isfinite(flow.states))


def quartic_objective():
    # value -x^4, written with products only: on floats they overflow to inf
    # silently, where x**4 would raise OverflowError
    def f(x, lib):
        sq = x * x
        return -(sq * sq)

    return Objective(dim=1, fn_batch=lambda ts: f(ts[:, 0], np), fn_1d=f)


@pytest.mark.parametrize("mode", ["iid", "zigzag"])
def test_mean_flow_on_floats_stops_at_its_first_non_finite_state(mode):
    # the two-point field of -x^4 is about 4 x^3, whose flow escapes in finite
    # time (the active gain grows with |x|, so x +- eps stays apart from x);
    # the float flow returns the finite prefix of the column reference, ending
    # just before its first non-finite state, with no warning and no exception
    ev = MeanFieldEvaluator(
        objective=quartic_objective(), gain=make_gain("center_active", 0.1), base=RAD, mode=mode, varsigma=VS
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flow = integrate_flow(ev.at_float, 1.0, 1.0, 0.01)
    with np.errstate(all="ignore"):
        want = rk4_on_columns(ev, 1.0, 1.0, 0.01)
    first_bad = int(np.argmin(np.isfinite(want)))
    assert 0 < first_bad < 50
    assert flow.states.shape == (first_bad,) and flow.times.shape == (first_bad,)
    assert np.array_equal(as_bits(flow.states), as_bits(want[:first_bad]))


def rk4_on_columns(ev, theta0, t_end, dt):
    # the reference driver: classical RK4 on 1-element arrays, each field
    # call a 1-element column
    theta = np.array([theta0])
    states = [theta]
    field = ev.evaluate
    for _ in range(int(round(t_end / dt))):
        k1 = field(theta)
        k2 = field(theta + 0.5 * dt * k1)
        k3 = field(theta + 0.5 * dt * k2)
        k4 = field(theta + dt * k3)
        theta = theta + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(theta)
    return np.concatenate(states)


@pytest.mark.parametrize("mode", ["iid", "zigzag"])
@pytest.mark.parametrize("method", ["two_point", "quadrature"])
def test_integrate_flow_matches_rk4_on_rows(method, mode):
    # the flow runs on Python floats; its states equal those of RK4 on
    # 1-element columns bit for bit
    base = RAD if method == "two_point" else UNI
    ev = MeanFieldEvaluator(
        objective=trig_quadratic_1d(), gain=active_gain(0.1), base=base, mode=mode, varsigma=VS
    )
    flow = integrate_flow(ev.at_float, 2.5, 0.5, 1e-2)
    want = rk4_on_columns(ev, 2.5, 0.5, 1e-2)
    assert flow.states.shape == want.shape == (51,)
    assert np.array_equal(as_bits(flow.states), as_bits(want))


def errstate_entries(fn) -> int:
    """The times ``fn()`` enters ``np.errstate``, counted with ``sys.setprofile``."""
    enter, entries = np.errstate.__enter__.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is enter:
            entries.append(frame)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return len(entries)


@pytest.mark.parametrize("mode", ["iid", "zigzag"])
def test_quadrature_flow_on_the_bound_field_holds_one_errstate(mode):
    # the bound quadrature field does its node-array work under the flow's
    # one guard: the same states as RK4 on columns through evaluate, which
    # enters a guard per call, no warning where the field overflows, and a
    # number of guard entries that does not grow with the step count
    ev = MeanFieldEvaluator(
        objective=trig_quadratic_1d(), gain=active_gain(0.1), base=UNI, mode=mode, varsigma=VS
    )
    flow = integrate_flow(ev.at_float, 2.5, 0.5, 1e-3)
    want = rk4_on_columns(ev, 2.5, 0.5, 1e-3)
    assert flow.states.shape == (501,)
    assert np.array_equal(as_bits(flow.states), as_bits(want))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for start in (1e160, 1e300, -1.7e308):
            assert integrate_flow(ev.at_float, start, 0.5, 1e-3).states.tolist() == [start]
    counts = [errstate_entries(lambda n=n: integrate_flow(ev.at_float, 2.5, n * 1e-3, 1e-3)) for n in (50, 500)]
    assert counts[0] == counts[1] <= 2, counts


def test_flow_and_equilibrium_reject_a_start_of_the_wrong_dimension():
    # both take a float start; two coordinates are not one
    ev = MeanFieldEvaluator(objective=trig_quadratic_1d(), gain=active_gain(0.1), base=RAD)
    with pytest.raises(TypeError):
        integrate_flow(ev.at_float, [1.0, 2.0], 1.0, 0.1)
    with pytest.raises(TypeError):
        find_equilibrium(ev, np.array([0.2, 0.1]))


def test_find_equilibrium_quadratic():
    ev = MeanFieldEvaluator(objective=quadratic_1d(), gain=active_gain(0.1), base=RAD)
    report = find_equilibrium(ev, 1.0, tol=1e-10)
    assert abs(report.theta_star) < 1e-9
    assert report.jacobian == pytest.approx(-2.0, abs=1e-5)
    assert report.bias_to_opt < 1e-9


def test_find_equilibrium_trig_against_bisection_oracle():
    eps = 0.05
    ev = MeanFieldEvaluator(objective=trig_quadratic_1d(), gain=active_gain(eps), base=RAD)
    oracle = brentq(ev.at_float, 0.0, 0.5, xtol=1e-14)
    report = find_equilibrium(ev, 0.3, tol=1e-10)
    assert abs(report.theta_star - oracle) < 1e-8
    assert report.residual_norm <= 1e-10


@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_equilibrium_jacobian_is_hurwitz_for_builtins(eps):
    for obj in (quadratic_1d(), trig_quadratic_1d()):
        ev = MeanFieldEvaluator(objective=obj, gain=active_gain(eps), base=RAD)
        report = find_equilibrium(ev, float(obj.known_optimum[0]), tol=1e-10)
        assert report.jacobian < 0


def test_mean_flow_converges_exponentially_to_equilibrium():
    ev = MeanFieldEvaluator(objective=trig_quadratic_1d(), gain=active_gain(0.1), base=RAD)
    report = find_equilibrium(ev, 0.2, tol=1e-10)
    flow = integrate_flow(ev.at_float, 8.0, 4.0, 1e-3)
    dist = np.abs(flow.states - report.theta_star)
    sel = dist > 1e-9
    slope = np.polyfit(flow.times[sel][200:], np.log(dist[sel][200:]), 1)[0]
    assert slope < -1.0
    assert dist[-1] < 1e-3


def test_find_equilibrium_failure_is_explicit():
    # a field with no root (constant slope objective) and a field that is NaN
    # everywhere, whose NaN residual must not pass for a small one
    linear = Objective(dim=1, fn_batch=lambda ts: ts[:, 0])
    nowhere = Objective(dim=1, fn_batch=lambda ts: np.full(ts.shape[0], np.nan))
    for objective in (linear, nowhere):
        ev = MeanFieldEvaluator(objective=objective, gain=active_gain(0.1), base=RAD)
        with pytest.raises(SolverError) as info:
            find_equilibrium(ev, 0.0, tol=1e-10)
        assert info.value.last_iterate is not None


def test_find_equilibrium_validates_tolerance():
    ev = MeanFieldEvaluator(objective=quadratic_1d(), gain=active_gain(0.1), base=RAD)
    with pytest.raises(ValueError):
        find_equilibrium(ev, 1.0, tol=1e-3)


def test_bias_sweep_slope_on_trig():
    obj = trig_quadratic_1d()
    ref = brentq(lambda x: 2 * x + np.sin(x) - np.cos(5 * x), 0.0, 0.5, xtol=1e-14)
    ev = MeanFieldEvaluator(objective=trig_quadratic_1d(), gain=active_gain(0.05), base=RAD)
    biases, slope = bias_sweep(ev, [0.025, 0.05, 0.1, 0.2], ref)
    assert np.all(np.diff(biases) > 0)
    assert 1.7 <= slope <= 2.3


def test_bias_sweep_rejects_a_grid_of_fewer_than_three_distinct_gains():
    ev = MeanFieldEvaluator(objective=trig_quadratic_1d(), gain=active_gain(0.05), base=RAD)
    with pytest.raises(ValueError, match="distinct"):
        bias_sweep(ev, [0.05, 0.05, 0.05], 0.19)


def test_bias_sweep_slope_is_none_when_biases_vanish():
    # the two-point field of a quadratic is its exact gradient, so every
    # equilibrium sits on the optimum and the log-log slope is undefined
    ev = MeanFieldEvaluator(objective=quadratic_1d(), gain=active_gain(0.05), base=RAD)
    biases, slope = bias_sweep(ev, [0.025, 0.05, 0.1], 0.0)
    assert np.all(biases == 0.0)
    assert slope is None
