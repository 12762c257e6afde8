import numpy as np
import pytest

from spsa_lab import builtin_objective, grad_check, quadratic_1d, quadratic_nd, trig_quadratic_1d
from spsa_lab.objectives import Objective, bisect_root


def test_quadratic_values_and_grad():
    obj = quadratic_1d()
    assert obj.value(np.array([1.1])) == pytest.approx(1.21, abs=1e-15)
    assert obj.grad(np.array([3.0]))[0] == pytest.approx(6.0, abs=1e-15)
    assert obj.known_floor == 0.0
    assert obj.known_optimum[0] == 0.0


def test_trig_quadratic_values():
    obj = trig_quadratic_1d()
    assert obj.value(np.array([0.0])) == pytest.approx(3.0, abs=1e-15)
    assert obj.grad(np.array([0.0]))[0] == pytest.approx(-1.0, abs=1e-15)


def test_trig_quadratic_stationary_point_against_bisection_oracle():
    obj = trig_quadratic_1d()
    # independent oracle: bisect the closed-form derivative over [0, 0.5]
    def deriv(x):
        return 2.0 * x + np.sin(x) - np.cos(5.0 * x)

    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if deriv(lo) * deriv(mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert obj.known_optimum[0] == pytest.approx(root, abs=1e-12)
    assert abs(obj.grad(obj.known_optimum)[0]) < 1e-10


def test_trig_quadratic_floor():
    obj = trig_quadratic_1d()
    grid = np.linspace(-20, 20, 2001)
    vals = obj.value_batch(grid[:, None])
    assert np.all(vals >= 2.8)
    assert obj.known_floor == 2.8


def test_quadratic_nd_value():
    obj = quadratic_nd(np.eye(2))
    assert obj.value(np.array([3.0, 4.0])) == pytest.approx(12.5, abs=1e-12)
    assert np.allclose(obj.grad(np.array([3.0, 4.0])), [3.0, 4.0])


def test_quadratic_nd_rejects_bad_matrices():
    with pytest.raises(ValueError):
        quadratic_nd(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        quadratic_nd(np.array([[1.0, 0.0], [0.0, -1.0]]))  # not positive definite
    with pytest.raises(ValueError):
        quadratic_nd(np.ones((2, 3)))


def test_grad_check_quadratic_is_exact():
    obj = quadratic_1d()
    err = grad_check(obj, [np.array([-2.0]), np.array([0.0]), np.array([2.0])], h=1e-4)
    assert err < 1e-7


def test_grad_check_trig_quadratic():
    obj = trig_quadratic_1d()
    grid = [np.array([x]) for x in np.linspace(-3, 3, 50)]
    assert grad_check(obj, grid, h=1e-4) < 1e-6


def test_grad_check_empty_grid_is_zero():
    assert grad_check(quadratic_1d(), [], h=1e-4) == 0.0


def test_grad_check_validates_step():
    with pytest.raises(ValueError):
        grad_check(quadratic_1d(), [np.array([1.0])], h=1e-7)
    with pytest.raises(ValueError):
        grad_check(quadratic_1d(), [np.array([1.0])], h=0.1)


def test_finite_difference_fallbacks():
    # no closed form supplied: the gradient comes from central differences
    obj = Objective(dim=2, fn_batch=lambda ts: ts[:, 0] ** 2 + 3.0 * ts[:, 0] * ts[:, 1] + 2.0 * ts[:, 1] ** 2)
    theta = np.array([0.7, -0.4])
    assert np.allclose(obj.grad(theta), [2 * 0.7 + 3 * (-0.4), 3 * 0.7 + 4 * (-0.4)], atol=1e-6)


def test_value_checks_declared_floor():
    bad = Objective(dim=1, fn_batch=lambda ts: ts[:, 0], known_floor=10.0)
    with pytest.raises(ValueError):
        bad.value(np.array([0.0]))


@pytest.mark.parametrize("obj", [quadratic_1d(), trig_quadratic_1d()], ids=["quadratic1d", "trig_quadratic1d"])
def test_value_at_a_float_runs_the_batch_formula_on_floats(obj):
    # a 1-d built-in states its value once, as an element-wise formula of the
    # coordinate; at a float it returns a float equal to the batch value bit
    # for bit (a formula written with x**2 would call libm pow on floats)
    grid = np.linspace(-3.0, 3.0, 20_001)
    points = [obj.at_float(x) for x in grid.tolist()]
    assert all(type(p) is float for p in points)
    assert np.array_equal(np.asarray(points).view(np.uint64), obj.value_batch(grid[:, None]).view(np.uint64))


def test_value_at_a_float_checks_declared_floor():
    # the formula's floor check is a scalar compare; NaN passes it, as in a
    # batch, and an objective without fn_1d takes a 1-row batch at a float
    bad = Objective(dim=1, fn_batch=lambda ts: ts[:, 0], known_floor=10.0, fn_1d=lambda x, lib: x)
    with pytest.raises(ValueError, match="floor"):
        bad.at_float(9.0)
    assert bad.at_float(12.0) == 12.0
    assert np.isnan(bad.at_float(float("nan")))
    batch_only = Objective(dim=1, fn_batch=lambda ts: ts[:, 0], known_floor=10.0)
    with pytest.raises(ValueError, match="floor"):
        batch_only.at_float(9.0)
    assert batch_only.at_float(12.0) == 12.0
    with pytest.raises(ValueError, match="fn_1d"):
        Objective(dim=2, fn_batch=lambda ts: ts[:, 0], fn_1d=lambda x, lib: x)
    with pytest.raises(ValueError, match="fn_batch or fn_1d"):
        Objective(dim=1)


def test_value_batch_checks_declared_floor():
    # rows that are NaN are skipped
    bad = Objective(dim=1, fn_batch=lambda ts: ts[:, 0], known_floor=10.0)
    with pytest.raises(ValueError, match="floor"):
        bad.value_batch(np.array([[12.0], [np.nan], [9.0]]))
    assert np.array_equal(bad.value_batch(np.array([[12.0], [np.nan]])), [12.0, np.nan], equal_nan=True)


def test_value_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        quadratic_1d().value(np.array([1.0, 2.0]))


def test_builtin_objective_lookup():
    assert builtin_objective("quadratic1d").name == "quadratic1d"
    assert builtin_objective("trig_quadratic1d").name == "trig_quadratic1d"
    assert builtin_objective("quadratic_nd", [[2.0, 0.0], [0.0, 1.0]]).dim == 2
    with pytest.raises(ValueError):
        builtin_objective("rosenbrock")
    with pytest.raises(ValueError):
        builtin_objective("quadratic_nd")


def test_bisect_root_requires_sign_change():
    assert bisect_root(lambda x: x - 0.25, 0.0, 1.0) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError):
        bisect_root(lambda x: x + 2.0, 0.0, 1.0)


def test_bisect_root_sign_test_does_not_underflow():
    # the product of two values near 1e-200 underflows to 0, so a product
    # sign test took every midpoint as the low end and returned near 3
    assert bisect_root(lambda x: 1e-200 * (x - 0.5), -1.0, 3.0) == pytest.approx(0.5, abs=1e-12)


def test_bisect_root_nan_endpoint_is_no_sign_change():
    with pytest.raises(ValueError, match="no sign change"):
        bisect_root(lambda x: float("nan") if x < 0 else x - 0.5, -1.0, 3.0)


@pytest.mark.parametrize(
    "obj",
    [quadratic_1d(), trig_quadratic_1d(), quadratic_nd(np.diag([1.0, 2.0, 3.0, 4.0]) + 0.25)],
    ids=["quadratic1d", "trig_quadratic1d", "quadratic_nd_4d"],
)
def test_builtin_has_one_formula_per_quantity(obj):
    # the single-point value and gradient are 1-row batch calls, so they
    # agree with the batch formulas bit for bit
    rng = np.random.default_rng(17)
    for theta in rng.uniform(-3.0, 3.0, (25, obj.dim)):
        assert obj.value(theta) == obj.value_batch(theta[None, :])[0]
        assert np.array_equal(obj.grad(theta), obj.grad_batch(theta[None, :])[0])
    if obj.name == "trig_quadratic1d":
        assert abs(obj.grad_batch(obj.known_optimum[None, :])[0, 0]) <= 1e-12
