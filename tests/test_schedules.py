import numpy as np
import pytest

from spsa_lab.objectives import Objective, quadratic_1d, trig_quadratic_1d
from spsa_lab.schedules import (
    CenterActiveGain,
    ConstantGain,
    DecayingGain,
    GainFloorError,
    ObjectiveActiveGain,
    StepSizeSchedule,
    _squared_norms,
)


def test_step_size_clamps_at_small_n():
    assert StepSizeSchedule(0.5, 0.6)(1) == 0.5
    assert StepSizeSchedule(1.0, 0.6)(1) == 1.0


def test_step_size_polynomial_decay():
    # 2**-0.6, evaluated independently at high precision
    assert StepSizeSchedule(1.0, 0.6)(2) == pytest.approx(0.6597539553864471, abs=1e-15)


def test_step_size_at_zero_is_clamp():
    assert StepSizeSchedule(0.25, 0.75)(0) == 0.25


def test_step_size_vectorized_matches_scalar():
    sched = StepSizeSchedule(0.3, 0.7)
    ns = np.arange(0, 50)
    vals = sched(ns)
    assert vals.shape == ns.shape
    for n in ns:
        assert vals[n] == sched(int(n))


def test_step_size_monotone_and_positive():
    sched = StepSizeSchedule(0.8, 0.51)
    grid = np.unique(np.concatenate([np.arange(0, 100), np.logspace(2, 6, 40).astype(int)]))
    vals = sched(grid)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) <= 0)


@pytest.mark.parametrize("alpha0,rho", [(0.0, 0.6), (-1.0, 0.6), (1.0, 0.5), (1.0, 1.0), (1.0, 1.2)])
def test_step_size_rejects_bad_parameters(alpha0, rho):
    with pytest.raises(ValueError):
        StepSizeSchedule(alpha0, rho)


def test_robbins_monro_partial_sum_trends():
    # partial sums of alpha grow without bound while those of alpha^2 level off
    sched = StepSizeSchedule(1.0, 0.6)
    n = np.arange(1, 1_000_001)
    alpha = sched(n)
    s1 = np.cumsum(alpha)
    s2 = np.cumsum(alpha**2)
    checkpoints = [10_000, 100_000, 1_000_000]
    inc1 = np.diff([s1[c - 1] for c in checkpoints])
    inc2 = np.diff([s2[c - 1] for c in checkpoints])
    assert inc1[1] > inc1[0] > 1.0  # increments of the alpha-sum keep growing
    assert inc2[1] < inc2[0] < 0.1 * s2[checkpoints[0] - 1]  # alpha^2 tail shrinks


def test_constant_gain_ignores_iterate_and_index():
    g = ConstantGain(0.1)
    assert g.value(np.array([[0.0]]), 0).tolist() == [0.1]
    assert g.value(np.array([[123.0]]), 999).tolist() == [0.1]


def test_decaying_gain_values():
    g = DecayingGain(0.1, 0.3)
    # 1024**0.3 == 2**3
    assert g.value(np.array([[0.0]]), 1024)[0] == pytest.approx(0.0125, abs=1e-15)
    assert g.value(np.array([[5.0]]), 0).tolist() == [0.1]
    assert g.value(np.array([[5.0]]), 1).tolist() == [0.1]


def test_center_active_gain_examples():
    g = CenterActiveGain(0.1, np.array([0.0]), 1.0)
    got = g.value(np.array([[0.0], [np.sqrt(3.0)]]))
    assert got[0] == pytest.approx(0.1, abs=1e-15)
    assert got[1] == pytest.approx(0.2, abs=1e-12)


def test_objective_active_gain_matches_center_gain_on_quadratic():
    # value(theta)=theta^2 with floor 0 coincides with the centered form at
    # unit scale: sqrt(1 + theta^2) either way
    obj = quadratic_1d()
    g_obj = ObjectiveActiveGain(0.1, obj, 0.0)
    g_ctr = CenterActiveGain(0.1, np.array([0.0]), 1.0)
    thetas = np.linspace(-5, 5, 41)[:, None]
    assert g_obj.value(thetas) == pytest.approx(g_ctr.value(thetas), rel=1e-14)


def test_active_gains_bounded_below_by_scale():
    rng = np.random.default_rng(3)
    thetas = rng.uniform(-20, 20, (200, 1))
    g_ctr = CenterActiveGain(0.05, np.array([1.0]), 2.0)
    g_obj = ObjectiveActiveGain(0.05, quadratic_1d(), 0.0)
    assert np.all(g_ctr.value(thetas) >= 0.05)
    assert np.all(g_obj.value(thetas) >= 0.05)


def test_gain_batch_shapes():
    thetas = np.zeros((7, 1))
    assert ConstantGain(0.2).value(thetas).shape == (7,)
    assert CenterActiveGain(0.2, np.array([0.0])).value(thetas).shape == (7,)
    assert DecayingGain(0.2, 0.5).value(thetas, 4).shape == (7,)


@pytest.mark.parametrize(
    "gain",
    [
        ConstantGain(0.1),
        DecayingGain(0.1, 0.6),
        CenterActiveGain(0.1, np.array([0.3]), 0.7),
        ObjectiveActiveGain(0.1, trig_quadratic_1d(), -2.0),
    ],
    ids=["constant", "decaying", "center_active", "objective_active"],
)
def test_gain_at_a_float_point_is_a_float_equal_to_the_batch_row(gain):
    # a float is a 1-d point: the gain's float form runs on Python floats
    # through the batch row's expression, so the two agree bit for bit on a
    # dense grid, and a 1-row batch gives its row's bits
    grid = np.linspace(-3.0, 3.0, 20_001)
    for n in (0, 7):
        batch = gain.value(grid[:, None], n)
        points = [gain.at_float(x, n) for x in grid.tolist()]
        assert all(type(p) is float for p in points)
        assert np.array_equal(np.asarray(points).view(np.uint64), batch.view(np.uint64))
        assert gain.value(grid[123:124, None], n).tolist() == [points[123]]


def test_objective_active_gain_floor_violation_identifies_theta():
    # declare a floor above the actual objective values
    obj = Objective(dim=1, fn_batch=lambda ts: ts[:, 0] ** 2)
    g = ObjectiveActiveGain(0.1, obj, 1.0)
    with pytest.raises(GainFloorError, match="theta"):
        g.value(np.array([[0.5]]))
    with pytest.raises(GainFloorError, match="theta"):
        g.at_float(0.5)
    with pytest.raises(GainFloorError, match="theta"):
        ObjectiveActiveGain(0.1, quadratic_1d(), 1.0).at_float(0.5)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ConstantGain(0.0),
        lambda: ConstantGain(-0.1),
        lambda: DecayingGain(0.1, -0.5),
        lambda: CenterActiveGain(0.1, np.array([0.0]), 0.0),
        lambda: ObjectiveActiveGain(-0.2, quadratic_1d(), 0.0),
    ],
)
def test_gain_rejects_bad_parameters(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda eps: ConstantGain(eps),
        lambda eps: DecayingGain(eps, 0.5),
        lambda eps: CenterActiveGain(eps, np.array([1.0]), 2.0),
        lambda eps: ObjectiveActiveGain(eps, quadratic_1d(), 0.0),
    ],
)
def test_per_row_gain_scale_matches_scalar_gains(make):
    # a gain carrying one scale per row equals, row by row, the gain at that scale
    scales = np.array([0.05, 0.1, 0.2, 0.1])
    thetas = np.array([[-3.0], [0.5], [2.0], [7.0]])
    got = make(scales).value(thetas, 9)
    want = [make(float(e)).value(thetas[i : i + 1], 9)[0] for i, e in enumerate(scales)]
    assert np.array_equal(got, want)
    assert np.array_equal(make(0.1).scaled(scales).value(thetas, 9), got)


@pytest.mark.parametrize("scales", [[0.1, 0.0], [0.1, -0.2], [np.nan, 0.1]])
def test_gain_rejects_nonpositive_row_scales(scales):
    with pytest.raises(ValueError):
        CenterActiveGain(np.array(scales), np.array([0.0]))
    with pytest.raises(ValueError):
        ConstantGain(0.1).scaled(np.array(scales))


@pytest.mark.parametrize("shape", [(3,), (1,), (5, 1), (5, 4)])
def test_squared_norms_bitwise_equal_to_reduce(shape):
    # every shape, d = 1 included, matches np.add.reduce bit for bit
    theta = np.random.default_rng(3).normal(scale=7.0, size=shape)
    got = _squared_norms(theta)
    want = np.add.reduce(theta * theta, axis=-1)
    assert np.shape(got) == want.shape
    assert np.array_equal(np.asarray(got).view(np.uint64), want.view(np.uint64))
