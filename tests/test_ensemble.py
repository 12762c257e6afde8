import warnings

import numpy as np
import pytest

from spsa_lab import ensemble
from spsa_lab.core import DivergenceGuard
from spsa_lab.ensemble import (
    batch_means_covariance,
    batch_means_cross_covariance,
    delta_decompose,
    run_ensemble_matrix,
    scaled_covariance,
    scaling_fit,
)
from spsa_lab.exploration import BaseNoise, ProbeGenerator
from spsa_lab.meanflow import MeanFieldEvaluator
from spsa_lab.objectives import quadratic_1d, trig_quadratic_1d
from spsa_lab.schedules import CenterActiveGain, ConstantGain, StepSizeSchedule

VS = 1.0 / np.sqrt(2.0)


def test_scaled_covariance_identical_values():
    assert scaled_covariance(np.full((6, 1), 2.5), 100) == 0.0


def test_scaled_covariance_two_point_example():
    # unbiased variance of {+a, -a} is 2 a^2
    assert scaled_covariance(np.array([[0.4], [-0.4]]), 10) == pytest.approx(10 * 2 * 0.16)


def test_scaled_covariance_consistency_on_gaussians():
    rng = np.random.default_rng(1234)
    values = rng.normal(size=(10_000, 1))
    assert scaled_covariance(values, 1) == pytest.approx(1.0, abs=0.05)


def test_scaled_covariance_needs_two_runs():
    with pytest.raises(ValueError):
        scaled_covariance(np.ones((1, 1)), 5)


def test_scaling_fit_exact_power_law():
    eps = np.array([0.02, 0.05, 0.1, 0.3])
    fit = scaling_fit(eps, 3.7 / eps**2)
    assert fit.loglog_slope == pytest.approx(-2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    fit2 = scaling_fit(eps, 0.8 * eps**2)
    assert fit2.loglog_slope == pytest.approx(2.0, abs=1e-12)


def test_scaling_fit_validation():
    with pytest.raises(ValueError):
        scaling_fit([0.1, 0.2], [1.0, 2.0])
    with pytest.raises(ValueError):
        scaling_fit([0.1, 0.2, 0.3], [1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        scaling_fit([0.1, 0.2, 0.3], [1.0, 2.0])
    # three grid points but fewer than three distinct gains
    for grid in ([0.1, 0.1, 0.1], [0.1, 0.1, 0.2]):
        with pytest.raises(ValueError, match="distinct"):
            scaling_fit(grid, [1.0, 2.0, 3.0])
    # a NaN or inf variance, or a NaN gain, is no point of a power law: a NaN
    # fails every comparison, so it is rejected as not finite, before the
    # logarithms and the least-squares solve
    for grid, variances in (
        ([0.1, 0.2, 0.3], [1.0, np.nan, 2.0]),
        ([0.1, 0.2, 0.3], [1.0, np.inf, 2.0]),
        ([0.1, np.nan, 0.3], [1.0, 1.5, 2.0]),
    ):
        with pytest.raises(ValueError, match="finite"):
            scaling_fit(grid, variances)


def test_delta_decomposition_identity_and_terms():
    # at the origin of the pure quadratic both the level and gradient
    # terms vanish for sign probes
    obj = quadratic_1d()
    gen = ProbeGenerator(BaseNoise("rademacher", 1), "iid", seed=5)
    xi = gen.take(500)
    dec = delta_decompose(np.array([0.0]), xi, obj, 0.1, gen.probe_covariance())
    assert np.allclose(dec.nu, 0.0)
    assert np.allclose(dec.omega, 0.0)
    assert np.allclose(dec.nu + dec.omega + dec.psi, dec.delta)


def test_delta_decomposition_closed_forms():
    obj = trig_quadratic_1d()
    theta = np.array([0.3])
    eps = 0.08
    gen = ProbeGenerator(BaseNoise("uniform", 1), "zigzag", varsigma=VS, seed=9)
    xi = gen.take(200)
    sigma = gen.probe_covariance()
    dec = delta_decompose(theta, xi, obj, eps, sigma)
    level = obj.value(theta)
    grad = obj.grad(theta)
    assert np.allclose(dec.nu, -(level / eps) * xi)
    assert np.allclose(dec.omega, (sigma[0, 0] - xi**2) * grad[0])
    assert np.max(np.abs(dec.nu + dec.omega + dec.psi - dec.delta)) < 1e-14


def test_delta_nu_telescopes_for_zigzag():
    obj = trig_quadratic_1d()
    gen = ProbeGenerator(BaseNoise("uniform", 1), "zigzag", varsigma=VS, seed=11)
    xi = gen.take(10_000)
    eps = 0.1
    dec = delta_decompose(np.array([0.2]), xi, obj, eps, gen.probe_covariance())
    level = obj.value(np.array([0.2]))
    # partial sums of the level term collapse to the probe-sum boundary,
    # which the telescope bounds by one probe span regardless of length
    assert abs(dec.nu.sum() + (level / eps) * xi.sum()) < 1e-9
    assert abs(dec.nu.sum()) <= (level / eps) * 2 * VS * 2 + 1e-9

    # the residual is curvature-scale, orders below the level term's scale
    assert np.max(np.abs(dec.psi)) < 0.05 * np.max(np.abs(dec.nu))


def test_batch_means_constant_sequence_is_zero():
    assert batch_means_covariance(np.ones(5000), 100)[0, 0] == 0.0


def test_batch_means_iid_matches_variance():
    rng = np.random.default_rng(8)
    x = rng.normal(size=300_000)
    est = batch_means_covariance(x, 1000)[0, 0]
    assert est == pytest.approx(1.0, rel=0.2)


def test_batch_means_needs_twenty_batches():
    with pytest.raises(ValueError):
        batch_means_covariance(np.ones(1000), 100)


def test_batch_means_covariance_sum_rule():
    # the estimator is bilinear, so the decomposition over two summands
    # holds exactly batch by batch
    rng = np.random.default_rng(2)
    x = rng.normal(size=400_000)
    y = 0.5 * x + rng.normal(size=400_000)
    b = 500
    lhs = batch_means_covariance(x + y, b)
    rhs = (
        batch_means_covariance(x, b)
        + batch_means_covariance(y, b)
        + batch_means_cross_covariance(x, y, b)
        + batch_means_cross_covariance(y, x, b)
    )
    assert np.allclose(lhs, rhs, atol=1e-10)
    # and the cross term tracks the true covariance of the summands
    assert batch_means_cross_covariance(x, y, b)[0, 0] == pytest.approx(0.5, abs=0.15)


def test_omega_lag_structure_under_zigzag():
    # the gradient-weighted probe-covariance fluctuation is one-dependent:
    # lags beyond one vanish
    obj = trig_quadratic_1d()
    theta = np.array([1.0])
    gen = ProbeGenerator(BaseNoise("uniform", 1), "zigzag", varsigma=VS, seed=31)
    xi = gen.take(400_000)
    dec = delta_decompose(theta, xi, obj, 0.15, gen.probe_covariance())
    c = dec.omega[:, 0] - dec.omega[:, 0].mean()

    def lag_cov(lag):
        return float(c[: c.size - lag] @ c[lag:]) / (c.size - lag)

    lag0 = lag_cov(0)
    for lag in (2, 3, 5):
        assert abs(lag_cov(lag)) < 0.02 * lag0
    assert abs(lag_cov(1)) > 0.05 * lag0


def test_omega_asymptotic_covariance_bound():
    # one-dependence bounds the asymptotic covariance by three times the
    # instantaneous second moment
    obj = trig_quadratic_1d()
    gen = ProbeGenerator(BaseNoise("uniform", 1), "zigzag", varsigma=VS, seed=33)
    xi = gen.take(400_000)
    dec = delta_decompose(np.array([1.0]), xi, obj, 0.15, gen.probe_covariance())
    omega = dec.omega[:, 0]
    bm = batch_means_covariance(omega, 1000)[0, 0]
    instantaneous = float(np.mean(omega**2))
    assert bm <= 3.0 * instantaneous * 1.2  # 20% statistical headroom


@pytest.mark.parametrize("survivors", [0, 1, 2])
def test_ensemble_cell_statistics_need_two_surviving_runs(survivors):
    # a diverged run's window average is NaN; the survivors hold +-0.5
    diverged = np.arange(4) >= survivors
    values = np.where(diverged, np.nan, [0.5, -0.5, 0.5, -0.5])[:, None]
    cell = ensemble.EnsembleCell(bias_values=values, diverged=diverged, m_total=4, window=100)
    assert cell.m_effective == survivors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled_var, bias = cell.scaled_var_trace, cell.mean_bias_norm
    if survivors < 2:
        assert np.isnan(scaled_var) and np.isnan(bias)
    else:
        # unbiased variance of {+0.5, -0.5} is 0.5, and their mean is 0
        assert scaled_var == pytest.approx(100 * 0.5) and bias == 0.0


def test_one_cell_matrix_accounting_and_determinism():
    obj = quadratic_1d()
    args = (obj, StepSizeSchedule(0.1, 0.6), BaseNoise("rademacher", 1), ["iid"], VS,
            CenterActiveGain(0.1, np.array([0.0]), 1.0), [0.1], 8, 3000, 1000, [-5, 5],
            lambda mode, gain: obj.grad_batch, 99)
    cell_a = run_ensemble_matrix(*args, eps_indices=[0])[("iid", 0)]
    cell_b = run_ensemble_matrix(*args, eps_indices=[0])[("iid", 0)]
    assert cell_a.m_effective == 8
    assert np.array_equal(cell_a.bias_values, cell_b.bias_values)
    assert cell_a.seeds == cell_b.seeds
    assert cell_a.window == 2000
    # different gain index reseeds every run
    cell_c = run_ensemble_matrix(*args, eps_indices=[1])[("iid", 1)]
    assert not np.array_equal(cell_a.bias_values, cell_c.bias_values)


def test_one_cell_matrix_flags_divergence():
    # unstabilized constant gain from far-out initial points trips the guard
    obj = quadratic_1d()
    cell = run_ensemble_matrix(
        obj, StepSizeSchedule(1.0, 0.6), BaseNoise("rademacher", 1), ["iid"], VS, ConstantGain(0.1), [0.1],
        6, 2000, 500, [5, 10], lambda mode, gain: obj.grad_batch, 4,
    )[("iid", 0)]
    assert cell.m_effective < cell.m_total
    assert cell.diverged.any()
    finite_rows = cell.bias_values[~cell.diverged]
    assert np.all(np.isfinite(finite_rows))


def test_window_statistic_matches_record_mean_of_grad():
    # the on-the-fly window average equals the mean of grad_batch over
    # the window of a stride-1 record of the same run
    obj = quadratic_1d()
    sched = StepSizeSchedule(0.1, 0.6)
    base = BaseNoise("rademacher", 1)
    gain = CenterActiveGain(0.1, np.array([0.0]), 1.0)
    cell = run_ensemble_matrix(
        obj, sched, base, ["iid"], VS, gain, [0.1], 3, 400, 100, [-2, 2], lambda mode, g: obj.grad_batch, 123
    )[("iid", 0)]
    from spsa_lab.core import run_batch, theta0_box
    from spsa_lab.exploration import derive_seed

    for i in range(3):
        seed = derive_seed(123, "iid", 0, i)
        theta0, probe = ensemble.lane_stream(seed, base, "iid", VS, theta0_box([-2, 2], 1))
        result = run_batch(obj, sched, gain, [probe], theta0, 400, stride=1)
        assert not result.diverged[0]
        expected = obj.grad_batch(result.thetas[0, result.record_indices >= 100]).mean(axis=0)
        assert np.allclose(cell.bias_values[i], expected, atol=1e-12)


@pytest.mark.parametrize("statistic", ["grad", "fbar"])
def test_ensemble_matrix_cells_equal_single_cells(monkeypatch, statistic):
    # five-lane blocks straddle cells and modes; the guard (1e3) trips on
    # every lane of one cell (so the first block ends early) and on some
    # lanes of two others, with a live lane on each side of the mode change
    obj = trig_quadratic_1d()
    base = BaseNoise("uniform", 1)
    sched = StepSizeSchedule(0.2, 0.6)
    guard = DivergenceGuard(1e3)
    grid = [0.05, 0.1, 0.2]

    def stat_for(mode, gain):
        if statistic == "grad":
            return obj.grad_batch
        ev = MeanFieldEvaluator(obj, gain, base, mode=mode, varsigma=VS)
        return lambda theta: ev.evaluate(theta[..., 0])[..., None]

    def gain_at(eps):
        return CenterActiveGain(eps, np.array([0.0]), 1.0)

    monkeypatch.setattr(ensemble, "LANE_BLOCK", 5)
    cells = run_ensemble_matrix(
        obj, sched, base, ("iid", "zigzag"), VS, gain_at(1.0), grid, 6, 600, 200, [-10, 10], stat_for, 3, guard=guard
    )
    assert sorted(cells) == [(mode, k) for mode in ("iid", "zigzag") for k in range(3)]
    assert [int(cells[key].diverged.sum()) for key in sorted(cells)] == [6, 1, 0, 3, 0, 0]
    assert not cells[("iid", 2)].diverged[-1] and not cells[("zigzag", 0)].diverged[1]
    monkeypatch.undo()  # each single cell runs as one block
    for (mode, k), got in cells.items():
        stat = stat_for(mode, gain_at(grid[k]))
        want = run_ensemble_matrix(
            obj, sched, base, [mode], VS, gain_at(grid[k]), [grid[k]], 6, 600, 200, [-10, 10],
            lambda mode, gain: stat, 3, eps_indices=[k], guard=guard,
        )[(mode, k)]
        assert got.m_total == want.m_total and got.window == want.window
        assert np.array_equal(got.bias_values, want.bias_values, equal_nan=True)
        assert np.array_equal(got.diverged, want.diverged)
        assert got.seeds == want.seeds
        assert np.isnan(got.bias_values[got.diverged]).all()
        assert np.isfinite(got.bias_values[~got.diverged]).all()


def test_ensemble_matrix_grad_statistic_is_one_call_per_stack(monkeypatch):
    # both modes' lanes share a block; the bound methods obj.grad_batch
    # handed out per mode compare equal, so the block makes one call per
    # stack of the iterate indices in [n_burn, n_steps], over all its lanes.
    # The default stack holds 682 steps of 24 lanes at d = 1, so the 251
    # window steps take one call; a stack of 100 steps takes three
    import dataclasses

    from spsa_lab import core

    trig = trig_quadratic_1d()
    n_steps, n_burn, grid, m = 400, 150, [0.05, 0.1, 0.2], 4
    lanes = 2 * len(grid) * m
    for stack_bytes, calls in [(core.STACK_BYTES, [251]), (8 * lanes * 100, [100, 100, 51])]:
        monkeypatch.setattr(core, "STACK_BYTES", stack_bytes)
        shapes = []

        def grad_batch_fn(ts):
            shapes.append(ts.shape)
            return trig.grad_batch_fn(ts)

        obj = dataclasses.replace(trig, grad_batch_fn=grad_batch_fn)
        cells = run_ensemble_matrix(
            obj, StepSizeSchedule(0.1, 0.6), BaseNoise("uniform", 1), ("iid", "zigzag"), VS,
            CenterActiveGain(1.0, np.array([0.0]), 1.0), grid, m, n_steps, n_burn, [-2, 2],
            lambda mode, gain: obj.grad_batch, 11,
        )
        assert shapes == [(s, lanes, 1) for s in calls]
        assert not any(cell.diverged.any() for cell in cells.values())


def test_ensemble_matrix_validation():
    obj = quadratic_1d()
    args = (obj, StepSizeSchedule(0.1, 0.6), BaseNoise("rademacher", 1))
    with pytest.raises(ValueError):
        run_ensemble_matrix(*args, ["iid"], VS, ConstantGain(0.1), [0.1, 0.2], 4, 100, 50, [-1, 1],
                            lambda mode, gain: obj.grad_batch, 0, eps_indices=[0])
    with pytest.raises(ValueError):
        run_ensemble_matrix(*args, [], VS, ConstantGain(0.1), [0.1], 4, 100, 50, [-1, 1],
                            lambda mode, gain: obj.grad_batch, 0)


def test_run_ensemble_matrix_validation():
    # one-cell matrix calls: a single run, and burn-in at the horizon
    obj = quadratic_1d()
    args = (obj, StepSizeSchedule(0.1, 0.6), BaseNoise("rademacher", 1), ["iid"], VS, ConstantGain(0.1), [0.1])
    with pytest.raises(ValueError, match="at least 2 runs"):
        run_ensemble_matrix(*args, 1, 100, 50, [-1, 1], lambda mode, gain: obj.grad_batch, 0, eps_indices=[0])
    with pytest.raises(ValueError, match="burn-in"):
        run_ensemble_matrix(*args, 4, 100, 100, [-1, 1], lambda mode, gain: obj.grad_batch, 0, eps_indices=[0])
