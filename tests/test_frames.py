"""Python frames per call on the float paths, counted with ``sys.setprofile``.

At a float, the mean field is one closure bound at construction: it calls
the gain's float form and runs the objective's 1-d formula on ``math``
itself, one frame per formula call, with no helper frame per sin, cos or
sqrt and no frame for the objective's float form.  The one-lane engine
calls each float form bound at construction and makes no statistic pass
when it has no statistic.  The counts are deterministic; a change that
puts a helper call back into a float path raises them.

A step on (m, d) rows is counted over the package's own frames only, so
that NumPy's Python wrappers (``count_nonzero``, ``einsum``) do not tie
the budgets to a NumPy version.  A window statistic runs once per stack
of steps, so it adds no frame per step.
"""

import os
import sys

import numpy as np
import pytest

import spsa_lab
from spsa_lab import (
    BaseNoise,
    CenterActiveGain,
    MeanFieldEvaluator,
    ProbeGenerator,
    StepSizeSchedule,
    integrate_flow,
    quadratic_nd,
    run_batch,
    trig_quadratic_1d,
)
from spsa_lab.core import WindowStatistic

PACKAGE = os.path.dirname(spsa_lab.__file__) + os.sep


def python_calls(fn, package_only: bool = False) -> int:
    """The Python function calls ``fn()`` makes, ``fn`` itself not counted.

    With ``package_only``, only calls of code in the package are counted.
    """
    calls = []

    def profile(frame, event, arg):
        if event == "call" and (not package_only or frame.f_code.co_filename.startswith(PACKAGE)):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return len(calls) - (not package_only)


def evaluator() -> MeanFieldEvaluator:
    gain = CenterActiveGain(0.05, np.array([0.0]), 1.0)
    return MeanFieldEvaluator(trig_quadratic_1d(), gain, BaseNoise("rademacher"))


def test_float_two_point_field_takes_five_frames():
    # the bound field, the gain's form and formula, and the objective's
    # formula at each node
    ev = evaluator()
    ev.at_float(0.3)
    assert python_calls(lambda: ev.at_float(0.3)) <= 5


def test_rk4_step_on_the_bound_field_takes_twenty_one_frames():
    # four field calls of 5 frames, plus integrate_flow itself; the
    # setup and the trajectory arrays fit in the 100 frames of slack
    ev = evaluator()
    n_steps = 1000
    assert python_calls(lambda: integrate_flow(ev.at_float, 2.0, n_steps * 1e-3, 1e-3)) <= 21 * n_steps + 100


def test_float_lane_step_takes_five_frames():
    # per step: the increment, the objective's form and formula, and the
    # gain's form and formula; plus a fixed setup.  With no statistic the
    # engine makes no statistic pass
    n_steps = 1000
    objective, schedule = trig_quadratic_1d(), StepSizeSchedule(0.01, 0.6)
    gain, probes = CenterActiveGain(0.1, np.array([0.0]), 1.0), [ProbeGenerator(BaseNoise("rademacher"), "iid", seed=1)]

    def run():
        result = run_batch(objective, schedule, gain, probes, np.array([[1.0]]), n_steps)
        assert not result.diverged[0]

    assert python_calls(run) <= 5 * n_steps + 100


@pytest.mark.parametrize(
    "dim, grad_statistic, per_step",
    [(1, True, 8), (1, False, 8), (4, True, 7), (4, False, 7)],
    ids=["d1_grad_statistic", "d1", "d4_grad_statistic", "d4"],
)
def test_rows_step_frame_budget(dim, grad_statistic, per_step):
    # six lanes on rows with the center-active gain.  Per step at d = 1: the
    # engine's gain wrapper, the gain's value and formula; the engine's
    # objective wrapper, value_batch, the batch form and the formula; and
    # the increment (the guard is inline).  The grad statistic adds no frame
    # per step: its stack of iterates goes through grad_batch and its closed
    # form once per stack.  At d = 4 the gain calls _squared_norms in place
    # of its formula, and the batch form is one einsum with no 1-d formula
    n_steps, m = 1000, 6
    objective = trig_quadratic_1d() if dim == 1 else quadratic_nd(np.eye(dim))
    schedule, gain = StepSizeSchedule(0.01, 0.6), CenterActiveGain(0.1, np.zeros(dim), 1.0)
    probes = [ProbeGenerator(BaseNoise("rademacher", dim), "iid", seed=s) for s in range(m)]
    statistic = WindowStatistic(0, objective.grad_batch) if grad_statistic else None

    def run():
        result = run_batch(objective, schedule, gain, probes, np.ones((m, dim)), n_steps, statistic=statistic)
        assert not result.diverged.any()

    assert python_calls(run, package_only=True) <= per_step * n_steps + 100
