import numpy as np
import pytest

from spsa_lab import (
    BaseNoise,
    CenterActiveGain,
    ConstantGain,
    DivergenceGuard,
    OptimizerState,
    ProbeGenerator,
    StepSizeSchedule,
    quadratic_1d,
    run,
    run_batch,
    step_1spsa,
    step_2spsa,
    trig_quadratic_1d,
)
from spsa_lab.core import sample_theta0
from spsa_lab.objectives import Objective


class FixedProbe:
    """Probe stub emitting a scripted sequence of directions."""

    def __init__(self, values):
        self.values = [np.atleast_1d(np.asarray(v, dtype=float)) for v in values]
        self.seed = 0

    def next_probe(self):
        return self.values.pop(0)

    def take(self, n):
        return np.stack([self.next_probe() for _ in range(n)])


def make_state(theta, probes):
    return OptimizerState(theta=np.atleast_1d(np.asarray(theta, dtype=float)), probe=FixedProbe(probes))


def counting_quadratic():
    calls = {"n": 0}

    def fn_batch(ts):
        calls["n"] += 1
        return ts[:, 0] ** 2

    return Objective(dim=1, fn_batch=fn_batch), calls


def test_step_1spsa_substitution_example():
    # theta1 = 1 - 0.5 * (1/0.1) * (1 + 0.1)^2 = -5.05
    obj = quadratic_1d()
    state = make_state([1.0], [[1.0]])
    step_1spsa(state, obj, StepSizeSchedule(0.5, 0.6), ConstantGain(0.1))
    assert state.theta[0] == pytest.approx(-5.05, abs=1e-12)
    assert state.n == 1
    assert state.last_gain == 0.1
    assert state.last_probe[0] == 1.0


def test_step_1spsa_noise_at_origin():
    # from the exact minimizer the probe term alone moves the iterate
    obj = quadratic_1d()
    state = make_state([0.0], [[1.0]])
    step_1spsa(state, obj, StepSizeSchedule(0.5, 0.6), ConstantGain(0.1))
    assert state.theta[0] == pytest.approx(-0.05, abs=1e-15)


def test_step_1spsa_active_gain_substitution():
    # eps = 0.1*sqrt(2); theta1 = 1 - 0.5*(1/eps)*(1+eps)^2, evaluated
    # independently at high precision
    obj = quadratic_1d()
    state = make_state([1.0], [[1.0]])
    step_1spsa(state, obj, StepSizeSchedule(0.5, 0.6), CenterActiveGain(0.1, np.array([0.0]), 1.0))
    assert state.last_gain == pytest.approx(0.1 * np.sqrt(2.0), rel=1e-15)
    assert state.theta[0] == pytest.approx(-3.6062445840513924, abs=1e-12)


def test_step_2spsa_symmetric_cancellation():
    obj = quadratic_1d()
    state = make_state([0.0], [[1.0]])
    step_2spsa(state, obj, StepSizeSchedule(0.5, 0.6), ConstantGain(0.1))
    assert state.theta[0] == 0.0


@pytest.mark.parametrize("xi", [1.0, -1.0])
def test_step_2spsa_exact_on_quadratic(xi):
    # central differences are exact on quadratics, so one step with
    # alpha=0.5 lands exactly on the minimizer regardless of probe sign
    obj = quadratic_1d()
    state = make_state([1.0], [[xi]])
    step_2spsa(state, obj, StepSizeSchedule(0.5, 0.6), ConstantGain(0.1))
    assert state.theta[0] == pytest.approx(0.0, abs=1e-14)


def test_evaluation_count_contract():
    obj1, calls1 = counting_quadratic()
    state = make_state([1.0], [[1.0]] * 10)
    for _ in range(10):
        step_1spsa(state, obj1, StepSizeSchedule(0.1, 0.6), ConstantGain(0.1))
    assert calls1["n"] == 10

    obj2, calls2 = counting_quadratic()
    state = make_state([1.0], [[1.0]] * 10)
    for _ in range(10):
        step_2spsa(state, obj2, StepSizeSchedule(0.1, 0.6), ConstantGain(0.1))
    assert calls2["n"] == 20


def test_batch_engine_evaluation_count():
    batch_calls = {"n": 0}

    def fn_batch(ts):
        batch_calls["n"] += 1
        return ts[:, 0] ** 2

    obj = Objective(dim=1, fn_batch=fn_batch)
    base = BaseNoise("rademacher", 1)
    probes = [ProbeGenerator(base, "iid", seed=i) for i in range(3)]
    run_batch(obj, StepSizeSchedule(0.1, 0.6), ConstantGain(0.1), probes, np.zeros((3, 1)), 50)
    assert batch_calls["n"] == 50

    batch_calls["n"] = 0
    probes = [ProbeGenerator(base, "iid", seed=i) for i in range(3)]
    run_batch(
        obj, StepSizeSchedule(0.1, 0.6), ConstantGain(0.1), probes, np.zeros((3, 1)), 50, algorithm="2spsa"
    )
    assert batch_calls["n"] == 100


def test_run_zero_steps_records_initial_point_only():
    obj = quadratic_1d()
    probe = ProbeGenerator(BaseNoise("rademacher", 1), "iid", seed=3)
    record = run(obj, StepSizeSchedule(0.5, 0.6), ConstantGain(0.1), probe, [2.0], 0)
    assert record.n_steps == 0
    assert record.diverged_at is None
    assert list(record.record_indices) == [0]
    assert record.thetas[0, 0] == 2.0
    assert record.theta_final[0] == 2.0


@pytest.mark.parametrize("mode", ["iid", "zigzag"])
@pytest.mark.parametrize("algorithm", ["1spsa", "2spsa"])
def test_run_matches_per_step_api_bitwise(algorithm, mode):
    # the batch engine and the per-step API must produce the same
    # trajectory from the same probe stream
    step = {"1spsa": step_1spsa, "2spsa": step_2spsa}[algorithm]
    obj = trig_quadratic_1d()
    sched = StepSizeSchedule(0.1, 0.6)
    gain = CenterActiveGain(0.1, np.array([0.0]), 1.0)
    base = BaseNoise("rademacher", 1)

    record = run(obj, sched, gain, ProbeGenerator(base, mode, seed=17), [1.0], 500, algorithm=algorithm)

    state = OptimizerState(theta=np.array([1.0]), probe=ProbeGenerator(base, mode, seed=17))
    manual, gains = [state.theta.copy()], []
    for _ in range(500):
        step(state, obj, sched, gain)
        manual.append(state.theta.copy())
        gains.append(state.last_gain)
    assert np.array_equal(record.thetas, np.stack(manual))
    # a step's gain is the one at its pre-update iterate
    assert np.array_equal(record.gain_trace[:-1], gains)


def test_divergence_guard_validation():
    with pytest.raises(ValueError):
        DivergenceGuard(100.0)


def test_divergence_guard_freezes_run():
    obj = quadratic_1d()
    probe = ProbeGenerator(BaseNoise("rademacher", 1), "iid", seed=2)
    record = run(
        obj,
        StepSizeSchedule(1.0, 0.6),
        ConstantGain(0.1),
        probe,
        [8.0],
        10_000,
        guard=DivergenceGuard(1e6),
    )
    assert record.diverged
    assert record.diverged_at is not None
    # no recorded entries beyond the divergence index
    assert np.all(record.record_indices <= record.diverged_at)
    assert np.isfinite(record.theta_final[0])


def test_batch_engine_freezes_only_diverged_lanes():
    obj = quadratic_1d()
    base = BaseNoise("rademacher", 1)
    probes = [ProbeGenerator(base, "iid", seed=s) for s in (1, 2)]
    theta0 = np.array([[8.0], [0.001]])  # second lane stays near the optimum
    result = run_batch(
        obj,
        StepSizeSchedule(1.0, 0.6),
        ConstantGain(0.1),
        probes,
        theta0,
        5000,
        guard=DivergenceGuard(1e6),
    )
    assert result.diverged[0] and not result.diverged[1]
    assert abs(result.theta_final[1, 0]) < 1.0


def test_guard_trip_rule_nan_inf_and_threshold():
    # in a five-lane run the objective returns NaN on lane 0 and +inf on
    # lane 1 at its 50th call, which makes iterate 50, so those iterates
    # become NaN and infinite; it returns 0 on lane 2, which starts on the
    # threshold and so never moves; lanes 3 and 4 see the plain quadratic,
    # as in a run of those two lanes alone
    from spsa_lab.core import WindowStatistic

    threshold, trip_at = 1e3, 50
    calls = {"n": 0}

    def fn_batch(ts):
        vals = ts[:, 0] ** 2
        if ts.shape[0] == 5:
            calls["n"] += 1
            vals[2] = 0.0
            if calls["n"] == trip_at:
                vals[0], vals[1] = np.nan, np.inf
        return vals

    obj = Objective(dim=1, fn_batch=fn_batch)
    base = BaseNoise("rademacher", 1)

    def go(seeds, theta0):
        return run_batch(
            obj,
            StepSizeSchedule(0.01, 0.6),
            ConstantGain(1.0),
            [ProbeGenerator(base, "iid", seed=s) for s in seeds],
            np.array(theta0)[:, None],
            200,
            guard=DivergenceGuard(threshold),
            stride=1,
            statistics=[WindowStatistic("mean_theta", 0, lambda th: th)],
        )

    full = go(range(5), [0.5, -0.5, threshold, 0.3, -0.2])
    assert list(full.diverged_at) == [trip_at, trip_at, -1, -1, -1]
    assert np.isnan(full.theta_final[0, 0]) and np.isinf(full.theta_final[1, 0])
    assert np.all(full.thetas[2] == threshold)
    alone = go([3, 4], [0.3, -0.2])
    assert np.array_equal(full.theta_final[3:], alone.theta_final)
    assert np.array_equal(full.statistics["mean_theta"][3:], alone.statistics["mean_theta"])
    for name in ("thetas", "gain_trace"):
        assert np.array_equal(getattr(full, name)[3:], getattr(alone, name)), name


def test_noisy_euler_residual_mean_vanishes():
    # increments decompose as alpha * (mean field + residual); over a
    # stationary stretch the residual averages out while its spread stays
    # order one
    obj = quadratic_1d()
    sched = StepSizeSchedule(0.1, 0.6)
    gain = CenterActiveGain(0.1, np.array([0.0]), 1.0)
    state = OptimizerState(theta=np.array([1.0]), probe=ProbeGenerator(BaseNoise("rademacher", 1), "iid", seed=6))
    deltas = []
    for k in range(20_000):
        theta_before = state.theta.copy()
        step_1spsa(state, obj, sched, gain)
        alpha = sched(k + 1)
        fbar = -2.0 * theta_before[0]  # exact mean field for this configuration
        deltas.append((state.theta[0] - theta_before[0]) / alpha - fbar)
    deltas = np.array(deltas[2000:])
    assert abs(deltas.mean()) < 0.01
    assert abs(deltas.mean()) < 0.05 * deltas.std()


def test_stabilized_runs_stay_bounded():
    obj = quadratic_1d()
    sched = StepSizeSchedule(0.1, 0.6)
    gain = CenterActiveGain(0.1, np.array([0.0]), 1.0)
    base = BaseNoise("rademacher", 1)
    rng = np.random.default_rng(12)
    probes = [ProbeGenerator(base, "iid", seed=100 + i) for i in range(5)]
    theta0 = rng.uniform(-10, 10, (5, 1))
    result = run_batch(obj, sched, gain, probes, theta0, 20_000, guard=DivergenceGuard(1e6))
    assert not result.diverged.any()
    assert np.all(np.abs(result.theta_final) <= 1.0)


def test_sample_theta0_respects_box():
    rng = np.random.default_rng(0)
    draws = np.stack([sample_theta0([-2.0, 3.0], rng, 2) for _ in range(200)])
    assert draws.shape == (200, 2)
    assert np.all(draws >= -2.0) and np.all(draws <= 3.0)
    with pytest.raises(ValueError):
        sample_theta0([3.0, -2.0], rng, 1)


def test_window_statistic_accumulates_expected_mean():
    from spsa_lab.core import WindowStatistic

    obj = quadratic_1d()
    probe = ProbeGenerator(BaseNoise("rademacher", 1), "iid", seed=9)
    result = run_batch(
        obj,
        StepSizeSchedule(0.1, 0.6),
        ConstantGain(0.1),
        [probe],
        np.array([[0.5]]),
        200,
        stride=1,
        statistics=[WindowStatistic("mean_theta", 100, lambda th: th)],
    )
    expected = result.thetas[0, 100:, 0].mean()
    assert result.statistics["mean_theta"][0, 0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("chunk", [1, 7])
def test_run_batch_is_independent_of_chunk_width(chunk):
    # zigzag probes carry their differencing memory across chunk
    # boundaries; three of the four lanes trip the guard
    from spsa_lab.core import ENGINE_CHUNK, WindowStatistic

    obj = quadratic_1d()
    base = BaseNoise("uniform", 1)
    theta0 = np.array([[8.0], [0.001], [0.5], [-0.3]])

    def go(width):
        return run_batch(
            obj,
            StepSizeSchedule(1.0, 0.6),
            ConstantGain(0.1),
            [ProbeGenerator(base, "zigzag", seed=s) for s in range(4)],
            theta0,
            3000,
            guard=DivergenceGuard(1e6),
            stride=1,
            record_objective=True,
            statistics=[WindowStatistic("mean_theta", 1000, lambda th: th)],
            chunk=width,
        )

    ref, got = go(ENGINE_CHUNK), go(chunk)
    assert ENGINE_CHUNK < 3000  # the reference run crosses a chunk boundary too
    assert list(ref.diverged) == [True, False, True, True]
    assert np.array_equal(got.theta_final, ref.theta_final)
    assert np.array_equal(got.diverged_at, ref.diverged_at)
    assert np.array_equal(got.statistics["mean_theta"], ref.statistics["mean_theta"], equal_nan=True)
    for name in ("record_indices", "thetas", "alpha_trace", "gain_trace", "objective_trace"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


def test_window_statistic_is_nan_for_diverged_lanes():
    from spsa_lab.core import WindowStatistic

    obj = quadratic_1d()
    base = BaseNoise("rademacher", 1)
    result = run_batch(
        obj,
        StepSizeSchedule(1.0, 0.6),
        ConstantGain(0.1),
        [ProbeGenerator(base, "iid", seed=s) for s in (1, 2)],
        np.array([[8.0], [0.001]]),
        2000,
        guard=DivergenceGuard(1e6),
        statistics=[WindowStatistic("mean_theta", 1000, lambda th: th)],
    )
    assert list(result.diverged) == [True, False]
    assert np.isnan(result.statistics["mean_theta"][0, 0])
    assert np.isfinite(result.statistics["mean_theta"][1, 0])


def test_run_batch_records_alpha_and_gain_per_index():
    # the recorded step size is alpha(n) and the recorded gain is the gain
    # at the recorded iterate, one gain evaluation per step
    calls = {"n": 0}

    class CountingGain(CenterActiveGain):
        def value(self, theta, n=0):
            calls["n"] += 1
            return super().value(theta, n)

    sched = StepSizeSchedule(0.1, 0.6)
    gain = CountingGain(0.1, np.array([0.0]), 1.0)
    probe = ProbeGenerator(BaseNoise("rademacher", 1), "iid", seed=5)
    record = run(quadratic_1d(), sched, gain, probe, [2.0], 300, stride=7)
    assert calls["n"] == 301
    assert np.array_equal(record.alpha_trace, [sched(int(k)) for k in record.record_indices])
    want = [CenterActiveGain(0.1, np.array([0.0]), 1.0).value(t) for t in record.thetas]
    assert np.array_equal(record.gain_trace, want)
