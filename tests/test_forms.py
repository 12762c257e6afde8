"""A float gives the same bits as an array, in every 1-d formula and in the engine.

Every 1-d formula of the package is one element-wise expression that takes
its library and runs on a Python float (with ``math``) and on an (m,)
column (with NumPy).  The float forms (``at_float``) of the objectives,
the gains and both mean-field rules must give a float equal to its
column entry bit for bit (NaN for NaN), on about 10**5 points in
[-1e3, 1e3] and at the non-finite and overflowing points.  The engine runs
one lane on floats and a d = 1 batch on (m, 1) rows; both must reproduce
a reference recursion on (m, 1) rows written out here, guard trips
included.

A libm or NumPy change can move last bits, so a mismatch names the Python
and NumPy versions.
"""

from __future__ import annotations

import platform

import numpy as np
import pytest

from spsa_lab.cli import _write_csv
from spsa_lab.core import DivergenceGuard, run_batch
from spsa_lab.exploration import BaseNoise, ProbeGenerator
from spsa_lab.meanflow import MeanFieldEvaluator, integrate_flow
from spsa_lab.objectives import Objective, quadratic_1d, trig_quadratic_1d
from spsa_lab.schedules import (
    CenterActiveGain,
    ConstantGain,
    DecayingGain,
    ExplorationGain,
    GainFloorError,
    ObjectiveActiveGain,
    StepSizeSchedule,
)

VERSIONS = f"Python {platform.python_version()}, NumPy {np.__version__}"

SPECIAL = [0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, np.nan]
POINTS = np.concatenate([np.random.default_rng(20260419).uniform(-1e3, 1e3, 100_000), SPECIAL])

OBJECTIVES = {"quadratic1d": quadratic_1d(), "trig_quadratic1d": trig_quadratic_1d()}
GAIN_KINDS = ("constant", "decaying", "center_active", "objective_active")


def make_gain(kind: str, objective, eps: float = 0.05):
    if kind == "constant":
        return ConstantGain(eps)
    if kind == "decaying":
        return DecayingGain(eps, 0.6)
    if kind == "center_active":
        return CenterActiveGain(eps, np.array([0.3]), 0.7)
    return ObjectiveActiveGain(eps, objective, objective.known_floor - 0.5)


def assert_same_bits(floats: list, column: np.ndarray, what: str) -> None:
    """Each float equals its column entry bit for bit, or both are NaN."""
    got = np.asarray(floats, dtype=np.float64)
    want = np.asarray(column, dtype=np.float64)
    assert got.shape == want.shape, what
    same = (got.view(np.uint64) == want.view(np.uint64)) | (np.isnan(got) & np.isnan(want))
    bad = np.flatnonzero(~same)
    assert bad.size == 0, (
        f"{what}: {bad.size} floats differ from their column entries, first at index {bad[0]} "
        f"({got[bad[0]]!r} != {want[bad[0]]!r}); {VERSIONS}"
    )


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_objective_float_equals_column(name):
    # the float form bound at construction
    obj = OBJECTIVES[name]
    with np.errstate(all="ignore"):  # the column overflows where the floats give inf silently
        column = obj.value_batch(POINTS[:, None])
    floats = [obj.at_float(x) for x in POINTS.tolist()]
    assert all(type(v) is float for v in floats)
    assert_same_bits(floats, column, f"{name} at_float")


@pytest.mark.parametrize("kind", GAIN_KINDS)
@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_gain_float_equals_column(name, kind):
    gain = make_gain(kind, OBJECTIVES[name])
    for n in (0, 7):
        with np.errstate(all="ignore"):
            column = gain.value(POINTS[:, None], n)
        floats = [gain.at_float(x, n) for x in POINTS.tolist()]
        assert all(type(v) is float for v in floats), kind
        assert_same_bits(floats, column, f"{kind} gain at_float at n={n} on {name}")


def raised(fn, *args) -> tuple:
    """The type and message of the exception ``fn(*args)`` raises."""
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_float_form_raises_below_the_floor_as_the_batch_does():
    # the floor check sits outside the float form's NaN catch, so it raises
    # the batch's exception, with the same message; NaN passes it in both
    obj = Objective(dim=1, fn_batch=lambda ts: ts[:, 0], known_floor=10.0, fn_1d=lambda x, lib: x)
    assert raised(obj.at_float, 9.0) == raised(obj.value_batch, np.array([[9.0]]))
    assert raised(obj.at_float, 9.0)[0] is ValueError
    assert np.isnan(obj.at_float(np.nan)) and np.isnan(obj.value_batch(np.array([[np.nan]]))[0])
    # an objective-active gain whose floor lies above the objective's values
    gain = ObjectiveActiveGain(0.1, quadratic_1d(), 1.0)
    assert raised(gain.at_float, 0.5) == raised(gain.value, np.array([[0.5]]))
    assert raised(gain.at_float, 0.5)[0] is GainFloorError


@pytest.mark.parametrize("mode", ["iid", "zigzag"])
@pytest.mark.parametrize("method", ["two_point", "quadrature"])
@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_mean_field_float_equals_column(name, method, mode):
    # quadrature's node values are an array per point at a float too, so it
    # is checked on a 25th of the points, under its caller's guard; the
    # two-point closure makes no NumPy call and needs none, and the column
    # runs without warnings
    objective = OBJECTIVES[name]
    base = BaseNoise("rademacher" if method == "two_point" else "uniform")
    step = 4 if method == "two_point" else 100
    for i, kind in enumerate(GAIN_KINDS):
        points = np.concatenate([POINTS[i:-len(SPECIAL):step], SPECIAL])
        ev = MeanFieldEvaluator(objective, make_gain(kind, objective), base, mode=mode)
        if method == "two_point":
            floats = [ev.at_float(x) for x in points.tolist()]
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                floats = [ev.at_float(x) for x in points.tolist()]
        assert all(type(v) is float for v in floats), kind
        assert_same_bits(floats, ev.evaluate(points), f"{method} {mode} field, {kind} gain, on {name}")


@pytest.mark.parametrize("mode", ["iid", "zigzag"])
@pytest.mark.parametrize("method", ["two_point", "quadrature"])
@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_bound_field_equals_evaluate_and_column(name, method, mode):
    # the field at a float bound at construction (two-point: one closure that
    # runs the objective's formula on math itself) equals the column entry
    # of evaluate bit for bit, on every point for two-point and a 100th of
    # them for quadrature, whose array work runs under its caller's guard
    objective = OBJECTIVES[name]
    base = BaseNoise("rademacher" if method == "two_point" else "uniform")
    points = POINTS if method == "two_point" else np.concatenate([POINTS[:-len(SPECIAL):100], SPECIAL])
    for kind in GAIN_KINDS:
        ev = MeanFieldEvaluator(objective, make_gain(kind, objective), base, mode=mode)
        column = ev.evaluate(points)
        with np.errstate(over="ignore", invalid="ignore"):
            bound = [ev.at_float(x) for x in points.tolist()]
        assert all(type(v) is float for v in bound), kind
        assert_same_bits(bound, column, f"bound {method} {mode} field, {kind} gain, on {name}")


def test_bound_field_raises_below_the_floor_as_the_batch_does():
    # an objective whose declared floor is wrong: the bound field checks each
    # node value outside its NaN catch and raises value_batch's exception,
    # with its message, at the first node below the floor
    for sign, floor in ((1.0, 10.0), (-1.0, -10.0)):
        obj = Objective(
            dim=1, fn_batch=lambda ts, s=sign: s * ts[:, 0], known_floor=floor, fn_1d=lambda x, lib, s=sign: s * x
        )
        ev = MeanFieldEvaluator(obj, ConstantGain(0.05), BaseNoise("rademacher"))
        x = 10.0
        node = x + 0.05 * -1.0 if sign > 0 else x + 0.05 * 1.0
        want = raised(obj.value_batch, np.array([[node]]))
        assert want[0] is ValueError
        assert raised(ev.at_float, x) == raised(ev.evaluate, np.array([x])) == want
        assert np.isnan(ev.at_float(np.nan))


# --- the engine: a float lane and a batch against (m, 1) rows -----------------


def reference_rows(objective, schedule, gain, probes, theta0, n_steps, algorithm, threshold):
    """The recursion on (m, 1) rows, one step at a time, with every index recorded.

    The arithmetic of the engine's (m, d) rows at d = 1, written out: the
    increment of the whole batch, a masked update once a lane has tripped,
    and the guard on |theta|.  It stops after the step on which the last
    live lane trips.  Returns the iterates (m, k, 1), the gains and the
    objective values (m, k), and the trip indices.
    """
    theta = np.asarray(theta0, dtype=float)[:, None]
    m = theta.shape[0]
    active = np.ones(m, dtype=bool)
    diverged_at = np.full(m, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        eps = np.asarray(gain.value(theta, 0), dtype=float)
        thetas, gains, values = [theta], [eps], [objective.value_batch(theta)]
        for k in range(1, n_steps + 1):
            xi = np.concatenate([g.take(1) for g in probes])
            alpha = schedule(k)
            y = objective.value_batch(theta + eps[:, None] * xi)
            if algorithm == "1spsa":
                incr = -(alpha / eps)[:, None] * xi * y[:, None]
            else:
                y_minus = objective.value_batch(theta - eps[:, None] * xi)
                incr = -(alpha / (2.0 * eps))[:, None] * xi * (y - y_minus)[:, None]
            theta = np.where(active[:, None], theta + incr, theta)
            newly = active & ~(np.abs(theta[:, 0]) <= threshold)
            diverged_at[newly] = k
            active &= ~newly
            eps = np.asarray(gain.value(theta, k), dtype=float)
            thetas.append(theta)
            gains.append(eps)
            values.append(objective.value_batch(theta))
            if not active.any():
                break
    return np.stack(thetas, axis=1), np.stack(gains, axis=1), np.stack(values, axis=1), diverged_at


def case(seed: int) -> dict:
    """A random 1-d run: objective, gain, probes, algorithm and starts; a large step size makes lanes trip."""
    rng = np.random.default_rng(seed)
    objective = OBJECTIVES[rng.choice(sorted(OBJECTIVES))]
    base = BaseNoise(str(rng.choice(["rademacher", "uniform"])))
    return {
        "objective": objective,
        "schedule": StepSizeSchedule(float(rng.choice([0.1, 1.0])), 0.6),
        "gain": make_gain(str(rng.choice(GAIN_KINDS)), objective, float(rng.choice([0.05, 0.1]))),
        "base": base,
        "mode": str(rng.choice(["iid", "zigzag"])),
        "algorithm": str(rng.choice(["1spsa", "2spsa"])),
        "theta0": rng.uniform(-12.0, 12.0, 5).tolist(),
        "chunk": int(rng.choice([64, 2048])),
    }


N_STEPS = 200
THRESHOLD = 1e3


def probes_for(c: dict, seeds):
    return [ProbeGenerator(c["base"], c["mode"], seed=1000 + s) for s in seeds]


def engine(c: dict, lanes) -> object:
    return run_batch(
        c["objective"],
        c["schedule"],
        c["gain"],
        probes_for(c, lanes),
        np.array([c["theta0"][i] for i in lanes])[:, None],
        N_STEPS,
        algorithm=c["algorithm"],
        guard=DivergenceGuard(THRESHOLD),
        stride=1,
        chunk=c["chunk"],
    )


def assert_run_matches(got, ref, rows, what: str) -> None:
    """The engine's records equal the reference rows ``rows`` over the engine's indices."""
    thetas, gains, values, diverged_at = ref
    k = got.record_indices.size
    assert np.array_equal(got.record_indices, np.arange(k)), what
    assert np.array_equal(got.diverged_at, diverged_at[rows]), f"{what}: trip indices; {VERSIONS}"
    assert_same_bits(got.thetas.ravel().tolist(), thetas[rows, :k].ravel(), f"{what}: iterates")
    assert_same_bits(got.gain_trace.ravel().tolist(), gains[rows, :k].ravel(), f"{what}: gains")
    assert_same_bits(got.objective_trace.ravel().tolist(), values[rows, :k].ravel(), f"{what}: objective values")
    assert_same_bits(got.theta_final.ravel().tolist(), thetas[rows, k - 1].ravel(), f"{what}: final iterates")


def test_float_lane_and_batch_match_rows_over_many_seeds():
    tripped = finished = 0
    for seed in range(40):
        c = case(seed)
        lanes = range(len(c["theta0"]))
        ref = reference_rows(
            c["objective"], c["schedule"], c["gain"], probes_for(c, lanes), c["theta0"], N_STEPS, c["algorithm"],
            THRESHOLD,
        )
        assert_run_matches(engine(c, lanes), ref, slice(None), f"seed {seed}, batch")
        # each lane alone runs on floats; it ends at its own trip
        for i in lanes:
            assert_run_matches(engine(c, [i]), ref, [i], f"seed {seed}, float lane {i}")
        tripped += int((ref[3] >= 0).sum())
        finished += int((ref[3] < 0).sum())
    assert tripped >= 20 and finished >= 20, (tripped, finished)


def test_float_lane_with_a_zero_gain_raises():
    # at the minimum of the quadratic a tiny gain leaves the iterate at 0
    # (the objective at eps * xi underflows to 0), until the decaying gain
    # itself underflows to 0.0 at n = 2.  Rows divide by it to inf * 0 = NaN,
    # with NumPy's warning, and trip at index 3; a float lane raises on the
    # division, as Python does (the CLI rejects this gain in its config)
    c = {
        "objective": quadratic_1d(),
        "schedule": StepSizeSchedule(0.1, 0.6),
        "gain": DecayingGain(1e-200, 1000.0),
        "base": BaseNoise("rademacher"),
        "mode": "iid",
        "algorithm": "1spsa",
        "theta0": [0.0, 0.0],
        "chunk": 2048,
    }
    with np.errstate(divide="ignore"):
        ref = reference_rows(
            c["objective"], c["schedule"], c["gain"], probes_for(c, [0, 1]), c["theta0"], N_STEPS, "1spsa", THRESHOLD
        )
    assert list(ref[3]) == [3, 3]
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        got = engine(c, [0, 1])
    assert_run_matches(got, ref, [0, 1], "batch")
    with pytest.raises(ZeroDivisionError):
        engine(c, [0])


def test_objective_without_a_formula_runs_on_one_row_batches():
    # a user objective that gives only fn_batch has a float form that is a
    # 1-row batch: the mean flow and a one-lane run still work, and NumPy's
    # cos and sin round as libm's do, so both match the built-in bit for bit
    trig = OBJECTIVES["trig_quadratic1d"]
    batch_only = Objective(dim=1, fn_batch=trig.fn_batch, known_floor=trig.known_floor)
    assert batch_only.at_float(0.3) == trig.at_float(0.3)
    gain, base = make_gain("center_active", trig), BaseNoise("rademacher")
    flows = [integrate_flow(MeanFieldEvaluator(obj, gain, base).at_float, 2.0, 0.2, 1e-3) for obj in (batch_only, trig)]
    assert_same_bits(flows[0].states.tolist(), flows[1].states, "flow")
    c = case(0)
    c.update(objective=batch_only, gain=gain, base=base, theta0=[1.5])
    got = engine(c, [0])
    c["objective"] = trig
    assert_same_bits(got.thetas.ravel().tolist(), engine(c, [0]).thetas.ravel(), "one-lane run")


def test_gain_without_a_float_form_runs_through_value():
    # a user gain that implements only value: its float form defaults to
    # value on a 1-row batch, so the float lane and the float field still
    # run, and match a built-in gain with the same value bit for bit
    class Scaled(ExplorationGain):
        eps_bullet = 0.05

        def value(self, theta, n=0):
            return make_gain("constant", None).value(theta, n)

    trig, base = OBJECTIVES["trig_quadratic1d"], BaseNoise("rademacher")
    user, builtin = Scaled(), make_gain("constant", trig)
    assert user.at_float(0.3, 5) == builtin.at_float(0.3, 5) == 0.05
    fields = [MeanFieldEvaluator(trig, g, base).at_float(0.3) for g in (user, builtin)]
    assert fields[0] == fields[1]
    c = case(1)
    c.update(objective=trig, gain=user, base=base, theta0=[1.5])
    got = engine(c, [0])
    c["gain"] = builtin
    assert_same_bits(got.thetas.ravel().tolist(), engine(c, [0]).thetas.ravel(), "one-lane run")


# --- the CSV writer: columns give the bytes rows gave --------------------------


def rowwise_csv_text(header: list, rows: list) -> str:
    """The CSV text written row by row: one ``%`` format per row, ``%s`` for a string cell."""
    line = ",".join("%s" if isinstance(c, str) else "%.17g" for c in rows[0]) + "\r\n"
    return ",".join(header) + "\r\n" + "".join(line % tuple(row) for row in rows)


def test_csv_from_columns_equals_csv_from_rows(tmp_path):
    # a str, a float, an int and a constant column: the constant is written
    # verbatim, and "0" is the bytes of 0.0 at 17 digits
    rng = np.random.default_rng(3)
    floats = rng.standard_normal(500).tolist() + [0.0, -0.0, 1e300, -1e-300, np.inf, -np.inf, np.nan, 2.0**60]
    n = len(floats)
    strs = [str(rng.choice(["iid", "zigzag", "a%b"])) for _ in range(n)]
    ints = rng.integers(-(10**12), 10**12, n).tolist()
    _write_csv(tmp_path / "cols.csv", ["s", "f", "i", "zero"], [strs, floats, ints, "0"])
    want = rowwise_csv_text(["s", "f", "i", "zero"], [[s, f, i, 0.0] for s, f, i in zip(strs, floats, ints)])
    assert (tmp_path / "cols.csv").read_bytes() == want.encode("utf-8")
