"""The window statistic's stacks keep every bit of a sum taken step by step.

``core.run_batch`` copies the window's iterates into a stack, calls the
statistic once per stack, and adds the rows one step at a time.  The
oracle is the same batch run with every iterate recorded and no
statistic: the statistic applied to each recorded (m, d) step with index
>= start, summed one index at a time.  Lanes trip the guard mid-stack,
and in some examples every lane trips; the stack length is the default
one or is cut to a few steps, so stacks fill, flush and start again at
every place relative to the probe chunks.  The package's own statistic
functions, the objectives' value and gradient and the mean field, give
each step of a stack the bits it gets alone.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spsa_lab import core
from spsa_lab.core import DivergenceGuard, WindowStatistic, run_batch
from spsa_lab.exploration import BaseNoise, ProbeGenerator
from spsa_lab.meanflow import MeanFieldEvaluator
from spsa_lab.objectives import Objective, quadratic_1d, quadratic_nd, trig_quadratic_1d
from spsa_lab.schedules import CenterActiveGain, ConstantGain, DecayingGain, ObjectiveActiveGain, StepSizeSchedule

Q4 = np.eye(4) + 0.25 * np.ones((4, 4))


def objective(d: int):
    # at d > 1 the closed-form gradient is a matmul, whose bits would move
    # if the stack were flattened to (s m, d) rows
    return trig_quadratic_1d() if d == 1 else quadratic_nd(Q4[:d, :d])


def same_bits(a, b) -> bool:
    """Equal shapes, NaN at the same entries, and equal bits everywhere else."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    keep = ~np.isnan(a)
    return np.array_equal(a[keep].view(np.uint64), b[keep].view(np.uint64))


def window_runs(m, d, n_steps, start, chunk, stack_steps, alpha0, spread, identity, seed):
    """The stacked run and the recorded oracle run of one case, and the oracle's window mean."""
    obj = objective(d)
    fn = (lambda th: th) if identity else obj.grad_batch
    theta0 = np.random.default_rng(seed).uniform(-spread, spread, (m, d))

    def run(**kw):
        probes = [ProbeGenerator(BaseNoise("uniform", d), "iid", seed=seed + i) for i in range(m)]
        gain = CenterActiveGain(0.1, np.zeros(d), 1.0)
        return run_batch(obj, StepSizeSchedule(alpha0, 0.6), gain, probes, theta0, n_steps,
                         guard=DivergenceGuard(1e3), **kw)

    stack_bytes = core.STACK_BYTES if stack_steps is None else 8 * m * d * stack_steps
    with mock.patch.object(core, "STACK_BYTES", stack_bytes):
        got = run(statistic=WindowStatistic(start, fn), chunk=chunk)
    ref = run(stride=1)
    total, count = 0.0, 0
    for i in np.flatnonzero(ref.record_indices >= start).tolist():
        total = total + fn(np.ascontiguousarray(ref.thetas[:, i]))
        count += 1
    want = np.full((m, 1), np.nan) if count == 0 else total / count
    want[ref.diverged] = np.nan
    return got, ref, want


# m = 1 at d = 4, where a flattened stack would change the matmul's bits;
# runs shorter than the default stack; a 5-step stack with lanes tripping
# mid-stack; and a run in which every lane trips before its end
FIXED = {
    "m1_d4": dict(m=1, d=4, n_steps=300, start=0, chunk=300, stack_steps=None, alpha0=0.05, spread=5.0,
                  identity=False, seed=7),
    "m1_d4_stack3": dict(m=1, d=4, n_steps=200, start=17, chunk=64, stack_steps=3, alpha0=0.05, spread=0.5,
                         identity=False, seed=3),
    "short_run": dict(m=40, d=1, n_steps=30, start=4, chunk=7, stack_steps=None, alpha0=0.2, spread=5.0,
                      identity=False, seed=11),
    "some_trip": dict(m=30, d=4, n_steps=300, start=50, chunk=64, stack_steps=5, alpha0=0.05, spread=40.0,
                      identity=False, seed=1),
    "all_trip": dict(m=30, d=4, n_steps=300, start=6, chunk=13, stack_steps=4, alpha0=0.2, spread=5.0,
                     identity=True, seed=1),
}


def test_fixed_window_cases_cover_their_shapes():
    for name in ("short_run", "m1_d4"):
        case = FIXED[name]
        assert case["n_steps"] < core.STACK_BYTES // (8 * case["m"] * case["d"]), name
    _, ref, _ = window_runs(**FIXED["some_trip"])
    trips = ref.diverged_at[ref.diverged]
    assert 0 < len(trips) < 30 and (trips > FIXED["some_trip"]["start"]).any()
    assert ((trips - FIXED["some_trip"]["start"]) % 5 != 4).any()  # not on a stack's last step
    _, ref, _ = window_runs(**FIXED["all_trip"])
    assert ref.diverged.all() and ref.record_indices[-1] == ref.diverged_at.max() < 300


def with_fixed_examples(test):
    for case in FIXED.values():
        test = example(**case)(test)
    return test


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@with_fixed_examples
@given(
    m=st.integers(1, 40),
    d=st.sampled_from([1, 2, 4]),
    n_steps=st.integers(0, 300),
    start=st.integers(0, 301),
    chunk=st.integers(1, 300),
    stack_steps=st.one_of(st.none(), st.integers(1, 64)),
    alpha0=st.sampled_from([0.05, 0.2, 0.5]),
    spread=st.sampled_from([0.5, 5.0, 40.0]),
    identity=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_window_mean_is_bit_equal_to_a_step_by_step_sum(m, d, n_steps, start, chunk, stack_steps, alpha0, spread,
                                                       identity, seed):
    start = min(start, n_steps + 1)
    got, ref, want = window_runs(m, d, n_steps, start, chunk, stack_steps, alpha0, spread, identity, seed)
    assert np.array_equal(got.diverged_at, ref.diverged_at)
    assert same_bits(got.theta_final, ref.theta_final)
    assert same_bits(got.window_mean, want)


@pytest.mark.parametrize("d", [1, 4])
def test_statistic_stack_holds_at_most_its_bytes(d):
    # a statistic sees (s, m, d) stacks of at most STACK_BYTES, one step at least
    shapes = []

    def fn(th):
        shapes.append(th.shape)
        return th

    m = 300
    probes = [ProbeGenerator(BaseNoise("rademacher", d), "iid", seed=i) for i in range(m)]
    run_batch(objective(d), StepSizeSchedule(0.01, 0.6), CenterActiveGain(0.1, np.zeros(d), 1.0), probes,
              np.zeros((m, d)), 200, statistic=WindowStatistic(0, fn))
    steps = max(1, core.STACK_BYTES // (8 * m * d))
    assert [s for s, _, _ in shapes] == [steps] * (201 // steps) + [201 % steps] * (201 % steps > 0)
    assert all(shape[1:] == (m, d) for shape in shapes)


def test_package_statistics_take_stacks_step_by_step():
    # the objectives' value and gradient, the finite-difference fallback,
    # and the mean field under every gain kind with one scale per lane:
    # on an (s, m, d) stack each step gives the bits it gives alone
    rng = np.random.default_rng(4)
    q3 = Q4[:3, :3]
    fd = Objective(dim=2, fn_batch=lambda ts: np.einsum("...i,...i->...", ts, ts))
    for obj in (trig_quadratic_1d(), quadratic_1d(), quadratic_nd(q3), fd):
        stack = rng.uniform(-2.0, 2.0, (5, 7, obj.dim))
        for fn in (obj.value_batch, obj.grad_batch):
            assert same_bits(fn(stack), np.stack([fn(step) for step in stack])), (obj.name, fn.__name__)
    trig, eps = trig_quadratic_1d(), np.linspace(0.05, 0.2, 7)
    gains = (ConstantGain(1.0), DecayingGain(1.0, 0.3), CenterActiveGain(1.0, np.array([0.0]), 1.0),
             ObjectiveActiveGain(1.0, trig, 2.8))
    stack = rng.uniform(-2.0, 2.0, (5, 7))
    for gain in gains:
        for base in ("rademacher", "uniform"):
            ev = MeanFieldEvaluator(trig, gain.scaled(eps), BaseNoise(base), "zigzag", 1.0 / np.sqrt(2.0))
            got = ev.evaluate(stack)
            assert same_bits(got, np.stack([ev.evaluate(step) for step in stack])), (type(gain).__name__, base)
