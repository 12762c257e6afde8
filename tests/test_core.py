import numpy as np
import pytest

from spsa_lab.core import DivergenceGuard, run_batch, theta0_box
from spsa_lab.ensemble import lane_stream
from spsa_lab.exploration import BaseNoise, ProbeGenerator
from spsa_lab.objectives import Objective, quadratic_1d, quadratic_nd, trig_quadratic_1d
from spsa_lab.schedules import CenterActiveGain, ConstantGain, StepSizeSchedule


class FixedProbe:
    """Probe stub emitting a scripted sequence of directions."""

    def __init__(self, values):
        self.values = [np.atleast_1d(np.asarray(v, dtype=float)) for v in values]

    def take(self, n):
        taken, self.values = self.values[:n], self.values[n:]
        return np.stack(taken)


def one_step(theta, xi, gain, algorithm="1spsa"):
    """A recorded one-step, one-lane run on the quadratic from ``theta`` along the scripted probe ``xi``."""
    return run_batch(
        quadratic_1d(),
        StepSizeSchedule(0.5, 0.6),
        gain,
        [FixedProbe([xi])],
        np.array([[theta]]),
        1,
        algorithm=algorithm,
        stride=1,
    )


def test_step_1spsa_substitution_example():
    # theta1 = 1 - 0.5 * (1/0.1) * (1 + 0.1)^2 = -5.05
    result = one_step(1.0, 1.0, ConstantGain(0.1))
    assert result.thetas[0, 1, 0] == pytest.approx(-5.05, abs=1e-12)
    assert list(result.record_indices) == [0, 1]
    assert result.gain_trace[0, 0] == 0.1


def test_step_1spsa_noise_at_origin():
    # from the exact minimizer the probe term alone moves the iterate
    result = one_step(0.0, 1.0, ConstantGain(0.1))
    assert result.thetas[0, 1, 0] == pytest.approx(-0.05, abs=1e-15)


def test_step_1spsa_active_gain_substitution():
    # eps = 0.1*sqrt(2); theta1 = 1 - 0.5*(1/eps)*(1+eps)^2, evaluated
    # independently at high precision
    result = one_step(1.0, 1.0, CenterActiveGain(0.1, np.array([0.0]), 1.0))
    assert result.gain_trace[0, 0] == pytest.approx(0.1 * np.sqrt(2.0), rel=1e-15)
    assert result.thetas[0, 1, 0] == pytest.approx(-3.6062445840513924, abs=1e-12)


def test_step_2spsa_symmetric_cancellation():
    result = one_step(0.0, 1.0, ConstantGain(0.1), "2spsa")
    assert result.thetas[0, 1, 0] == 0.0


@pytest.mark.parametrize("xi", [1.0, -1.0])
def test_step_2spsa_exact_on_quadratic(xi):
    # central differences are exact on quadratics, so one step with
    # alpha=0.5 lands exactly on the minimizer regardless of probe sign
    result = one_step(1.0, xi, ConstantGain(0.1), "2spsa")
    assert result.thetas[0, 1, 0] == pytest.approx(0.0, abs=1e-14)


def counting_quadratic():
    calls = {"n": 0, "rows": 0}

    def fn_batch(ts):
        calls["n"] += 1
        calls["rows"] += ts.shape[0]
        return ts[:, 0] ** 2

    return Objective(dim=1, fn_batch=fn_batch), calls


def test_evaluation_count_contract():
    # a one-lane run: one objective call per 1SPSA step, two per 2SPSA step
    for algorithm, want in (("1spsa", 10), ("2spsa", 20)):
        obj, calls = counting_quadratic()
        run_batch(
            obj,
            StepSizeSchedule(0.1, 0.6),
            ConstantGain(0.1),
            [FixedProbe([[1.0]] * 10)],
            np.array([[1.0]]),
            10,
            algorithm=algorithm,
        )
        assert calls["n"] == want, algorithm


def test_batch_engine_evaluation_count():
    # one objective call per step for a whole lane block, one row per lane
    # for 1SPSA and two for 2SPSA
    obj, calls = counting_quadratic()
    base = BaseNoise("rademacher", 1)
    for algorithm, per_step in (("1spsa", 1), ("2spsa", 2)):
        calls.update(n=0, rows=0)
        probes = [ProbeGenerator(base, "iid", seed=i) for i in range(3)]
        run_batch(
            obj, StepSizeSchedule(0.1, 0.6), ConstantGain(0.1), probes, np.zeros((3, 1)), 50, algorithm=algorithm
        )
        assert calls == {"n": 50 * per_step, "rows": 50 * per_step * 3}, algorithm


def test_run_zero_steps_records_initial_point_only():
    obj = quadratic_1d()
    probe = ProbeGenerator(BaseNoise("rademacher", 1), "iid", seed=3)
    result = run_batch(obj, StepSizeSchedule(0.5, 0.6), ConstantGain(0.1), [probe], np.array([[2.0]]), 0, stride=1)
    assert list(result.diverged_at) == [-1]
    assert list(result.record_indices) == [0]
    assert result.thetas[0, 0, 0] == 2.0
    assert result.theta_final[0, 0] == 2.0


@pytest.mark.parametrize("mode", ["iid", "zigzag"])
@pytest.mark.parametrize("algorithm", ["1spsa", "2spsa"])
def test_run_matches_per_step_api_bitwise(algorithm, mode):
    # a one-lane run must produce the same trajectory as the update rule
    # written out one step at a time on the same probe stream
    obj = trig_quadratic_1d()
    sched = StepSizeSchedule(0.1, 0.6)
    gain = CenterActiveGain(0.1, np.array([0.0]), 1.0)
    base = BaseNoise("rademacher", 1)

    result = run_batch(
        obj, sched, gain, [ProbeGenerator(base, mode, seed=17)], np.array([[1.0]]), 500, algorithm=algorithm, stride=1
    )

    probe = ProbeGenerator(base, mode, seed=17)
    theta = 1.0
    manual, gains = [theta], []
    for k in range(1, 501):
        xi = float(probe.take(1)[0, 0])
        eps = float(gain.value(np.array([[theta]]))[0])
        y = obj.value([theta + eps * xi])
        if algorithm == "1spsa":
            theta = theta + -(sched(k) / eps) * xi * y
        else:
            theta = theta + -(sched(k) / (2.0 * eps)) * xi * (y - obj.value([theta - eps * xi]))
        manual.append(theta)
        gains.append(eps)
    assert np.array_equal(result.thetas[0, :, 0], manual)
    # a step's gain is the one at its pre-update iterate
    assert np.array_equal(result.gain_trace[0, :-1], gains)


def test_divergence_guard_validation():
    with pytest.raises(ValueError):
        DivergenceGuard(100.0)


def test_divergence_guard_freezes_run():
    obj = quadratic_1d()
    probe = ProbeGenerator(BaseNoise("rademacher", 1), "iid", seed=2)
    result = run_batch(
        obj,
        StepSizeSchedule(1.0, 0.6),
        ConstantGain(0.1),
        [probe],
        np.array([[8.0]]),
        10_000,
        guard=DivergenceGuard(1e6),
        stride=1,
    )
    diverged_at = int(result.diverged_at[0])
    assert result.diverged[0]
    # the run ends at the trip: its record stops there, on the frozen iterate
    assert np.array_equal(result.record_indices, np.arange(diverged_at + 1))
    assert np.isfinite(result.theta_final[0, 0])
    assert result.theta_final[0, 0] == result.thetas[0, -1, 0]


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
    # lane 1 at its 100th call, which makes iterate 50 (a stride-1 run calls
    # it for the record at index 0, then for each step and its record), so
    # those iterates become NaN and infinite; it returns 0 on lane 2, which
    # starts on the threshold and so never moves; lanes 3 and 4 see the
    # plain quadratic, as in a run of those two lanes alone
    from spsa_lab.core import WindowStatistic

    threshold, trip_at = 1e3, 50
    calls = {"n": 0}

    def fn_batch(ts):
        vals = ts[:, 0] ** 2
        if ts.shape[0] == 5:
            calls["n"] += 1
            vals[2] = 0.0
            if calls["n"] == 2 * trip_at:
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
            statistic=WindowStatistic(0, lambda th: th),
        )

    full = go(range(5), [0.5, -0.5, threshold, 0.3, -0.2])
    assert list(full.diverged_at) == [trip_at, trip_at, -1, -1, -1]
    assert np.isnan(full.theta_final[0, 0]) and np.isinf(full.theta_final[1, 0])
    assert np.all(full.thetas[2] == threshold)
    alone = go([3, 4], [0.3, -0.2])
    assert np.array_equal(full.theta_final[3:], alone.theta_final)
    assert np.array_equal(full.window_mean[3:], alone.window_mean)
    for name in ("thetas", "gain_trace"):
        assert np.array_equal(getattr(full, name)[3:], getattr(alone, name)), name


@pytest.mark.parametrize(
    "q_scale, theta0, threshold, diverged_at",
    [
        # (1e200, 0) sits within 1e300; its squared coordinate, 1e400, would
        # overflow to inf, so a guard that squared coordinates would trip
        (1e-300, [[1e200, 0.0]], 1e300, [-1]),
        # (8e5, 8e5) sits within 1e6 though its Euclidean norm is 1.13e6, and
        # a lane with one coordinate past 1e6 trips at the first step
        (1e-12, [[8e5, 8e5], [8e5, -1.1e6]], 1e6, [-1, 1]),
    ],
    ids=["large_coordinate", "sup_norm"],
)
def test_guard_bounds_the_largest_coordinate(q_scale, theta0, threshold, diverged_at):
    # d = 2 lanes on a flat quadratic, so a lane that does not trip moves
    # little from its start
    base = BaseNoise("rademacher", 2)
    result = run_batch(
        quadratic_nd(q_scale * np.eye(2)),
        StepSizeSchedule(0.1, 0.6),
        ConstantGain(1.0),
        [ProbeGenerator(base, "iid", seed=s) for s in range(len(theta0))],
        np.array(theta0),
        50,
        guard=DivergenceGuard(threshold),
    )
    assert list(result.diverged_at) == diverged_at
    start = np.array(theta0[0])
    assert np.max(np.abs(result.theta_final[0] - start)) < 1e-6 * np.max(np.abs(start))


def test_noisy_euler_residual_mean_vanishes():
    # increments decompose as alpha * (mean field + residual); over a
    # stationary stretch the residual averages out while its spread stays
    # order one
    obj = quadratic_1d()
    sched = StepSizeSchedule(0.1, 0.6)
    gain = CenterActiveGain(0.1, np.array([0.0]), 1.0)
    probe = ProbeGenerator(BaseNoise("rademacher", 1), "iid", seed=6)
    result = run_batch(obj, sched, gain, [probe], np.array([[1.0]]), 20_000, stride=1)
    theta = result.thetas[0, :, 0]
    fbar = -2.0 * theta[:-1]  # exact mean field for this configuration
    # the step into index k uses alpha(k), the step size recorded at k
    deltas = (theta[1:] - theta[:-1]) / result.alpha_trace[1:] - fbar
    deltas = deltas[2000:]
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


def test_lane_stream_draws_theta0_in_box():
    # each lane's stream draws its theta0 from the checked box, one
    # coordinate per row, before it feeds the lane's probes
    base = BaseNoise("rademacher", 2)
    box = theta0_box([[-2.0, 3.0], [10.0, 11.0]], 2)
    draws = np.stack([lane_stream(seed, base, "iid", 1.0, box)[0] for seed in range(200)])
    assert draws.shape == (200, 2)
    assert np.all((draws[:, 0] >= -2.0) & (draws[:, 0] <= 3.0))
    assert np.all((draws[:, 1] >= 10.0) & (draws[:, 1] <= 11.0))
    assert np.unique(draws[:, 0]).size == 200
    theta0, _ = lane_stream(7, base, "iid", 1.0)
    assert theta0 is None
    with pytest.raises(ValueError):
        theta0_box([3.0, -2.0], 1)


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
        statistic=WindowStatistic(100, lambda th: th),
    )
    expected = result.thetas[0, 100:, 0].mean()
    assert result.window_mean[0, 0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("chunk", [1, 7])
def test_run_batch_is_independent_of_chunk_width(chunk):
    # zigzag probes carry their differencing memory across chunk
    # boundaries.  1SPSA leaves the quadratic from a far start; 2SPSA is
    # exact on it and contracts, so it meets the guard on a quartic.  In
    # the first batch some lanes trip; in the second every lane trips,
    # and the run ends on the step of the last trip at every chunk width
    from spsa_lab.core import ENGINE_CHUNK, WindowStatistic

    calls = {"n": 0}

    def go(algorithm, base, mode, theta0, width):
        power = 2 if algorithm == "1spsa" else 4

        def fn_batch(ts):
            calls["n"] += 1
            return ts[:, 0] ** power

        calls["n"] = 0
        return run_batch(
            Objective(dim=1, fn_batch=fn_batch),
            StepSizeSchedule(1.0, 0.6),
            ConstantGain(0.1),
            [ProbeGenerator(BaseNoise(base, 1), mode, seed=s) for s in range(len(theta0))],
            np.array(theta0)[:, None],
            3000,
            algorithm=algorithm,
            guard=DivergenceGuard(1e6),
            stride=1,
            statistic=WindowStatistic(1000, lambda th: th),
            chunk=width,
        )

    assert ENGINE_CHUNK < 3000  # the reference run crosses a chunk boundary too
    for algorithm in ("1spsa", "2spsa"):
        evals_per_step = 1 if algorithm == "1spsa" else 2
        for base, mode in (("rademacher", "iid"), ("uniform", "zigzag")):
            for theta0 in ([8.0, 0.001, 0.5, -0.3], [8.0, 9.0]):
                case = (algorithm, base, mode, theta0)
                ref = go(*case, ENGINE_CHUNK)
                ref_calls = calls["n"]
                got = go(*case, chunk)
                assert calls["n"] == ref_calls, case
                assert np.array_equal(got.theta_final, ref.theta_final, equal_nan=True), case
                assert np.array_equal(got.diverged_at, ref.diverged_at), case
                assert np.array_equal(got.window_mean, ref.window_mean, equal_nan=True), case
                for name in ("record_indices", "thetas", "alpha_trace", "gain_trace", "objective_trace"):
                    assert np.array_equal(getattr(got, name), getattr(ref, name), equal_nan=True), (case, name)
                if len(theta0) == 4:
                    assert 0 < ref.diverged.sum() < 4, case
                    assert list(ref.record_indices) == list(range(3001)), case
                else:
                    # no step after the last trip: the record ends there, and
                    # the objective was called for its steps and records only
                    last = int(ref.diverged_at.max())
                    assert ref.diverged.all(), case
                    assert list(ref.record_indices) == list(range(last + 1)), case
                    assert ref_calls == evals_per_step * last + last + 1, case


def test_run_batch_probe_chunk_is_bounded_in_bytes():
    # 600 lanes at d = 16 over 2,048 steps: an uncut chunk of 2,048 steps
    # would hold 150 MiB of probes.  The chunk is cut to PROBE_BYTES, and
    # the rest of the peak is per-step (m, d) arrays and one chunk's draws
    import tracemalloc

    from spsa_lab.core import PROBE_BYTES

    m, d, n_steps = 600, 16, 2048
    probes = [ProbeGenerator(BaseNoise("rademacher", d), "iid", seed=i) for i in range(m)]
    tracemalloc.start()
    try:
        result = run_batch(quadratic_nd(np.eye(d)), StepSizeSchedule(0.001, 0.6), ConstantGain(1.0), probes,
                           np.zeros((m, d)), n_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.diverged.any()
    assert PROBE_BYTES < 8 * m * n_steps * d
    assert peak <= PROBE_BYTES + 32 * (8 * m * d)


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
        statistic=WindowStatistic(1000, lambda th: th),
    )
    assert list(result.diverged) == [True, False]
    assert np.isnan(result.window_mean[0, 0])
    assert np.isfinite(result.window_mean[1, 0])


def test_run_batch_records_alpha_and_gain_per_index():
    # the recorded step size is alpha(n) and the recorded gain is the gain
    # at the recorded iterate, one gain evaluation per step; a one-lane d = 1
    # run evaluates the gain through its float form
    calls = {"n": 0}

    class CountingGain(CenterActiveGain):
        def __post_init__(self):
            super().__post_init__()
            at_float = self.at_float

            def counted(x, n=0):
                calls["n"] += 1
                return at_float(x, n)

            object.__setattr__(self, "at_float", counted)

    sched = StepSizeSchedule(0.1, 0.6)
    gain = CountingGain(0.1, np.array([0.0]), 1.0)
    probe = ProbeGenerator(BaseNoise("rademacher", 1), "iid", seed=5)
    result = run_batch(quadratic_1d(), sched, gain, [probe], np.array([[2.0]]), 300, stride=7)
    assert calls["n"] == 301
    assert np.array_equal(result.alpha_trace, [sched(int(k)) for k in result.record_indices])
    want = CenterActiveGain(0.1, np.array([0.0]), 1.0).value(result.thetas[0])
    assert np.array_equal(result.gain_trace[0], want)


@pytest.mark.parametrize("kind", ["rademacher", "uniform"])
@pytest.mark.parametrize("algorithm", ["1spsa", "2spsa"])
def test_lane_mean_follows_the_mean_recursion_at_d4(algorithm, kind):
    # on f(t) = t'Qt/2 with a constant gain and iid probes, the probe is
    # independent of theta_n, has mean 0, covariance Sigma and no third
    # moments, so both algorithms give E theta_{n+1} = (I - alpha_{n+1}
    # Sigma Q) E theta_n exactly, from E theta_0 = the box's centre.  The
    # lane mean must lie within 4 standard errors of it, per coordinate
    m, n_steps, support = 2000, 300, 1.0
    q = np.array([[2.0, 0.4, 0.0, 0.1], [0.4, 1.5, 0.3, 0.0], [0.0, 0.3, 1.0, 0.2], [0.1, 0.0, 0.2, 0.8]])
    box = np.array([[0.5, 1.5], [-1.2, -0.4], [0.2, 0.8], [-0.3, 0.9]])
    base = BaseNoise(kind, 4, support)
    sigma = 1.0 if kind == "rademacher" else support * support / 3.0
    schedule = StepSizeSchedule(0.01, 0.6)
    seed = 2 * (algorithm == "2spsa") + (kind == "uniform")
    theta0 = np.random.default_rng(seed).uniform(box[:, 0], box[:, 1], (m, 4))
    probes = [ProbeGenerator(base, "iid", seed=1000 * seed + i) for i in range(m)]
    result = run_batch(quadratic_nd(q), schedule, ConstantGain(1.0), probes, theta0, n_steps, algorithm, stride=50)
    assert not result.diverged.any()
    expected = [box.mean(axis=1)]
    for k in range(1, n_steps + 1):
        expected.append(expected[-1] - schedule(k) * sigma * (q @ expected[-1]))
    for i, n in enumerate(result.record_indices.tolist()):
        lanes = result.thetas[:, i]
        stderr = lanes.std(axis=0, ddof=1) / np.sqrt(m)
        gap = np.abs(lanes.mean(axis=0) - expected[n])
        assert np.all(gap <= 4.0 * stderr), (n, gap / stderr)
