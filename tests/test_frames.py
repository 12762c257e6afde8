"""Python frames per call on the float paths, counted with ``sys.setprofile``.

At a float, the mean field is one closure bound at construction: it calls
the gain's float form and runs the objective's 1-d formula on ``math``
itself, one frame per formula call, with no helper frame per sin, cos or
sqrt and no frame for the objective's float form.  The one-lane engine
calls each float form bound at construction and makes no statistic pass
when it has no statistic.  The counts are deterministic; a change that
puts a helper call back into a float path raises them.
"""

import sys

import numpy as np

from spsa_lab import (
    BaseNoise,
    CenterActiveGain,
    MeanFieldEvaluator,
    ProbeGenerator,
    StepSizeSchedule,
    integrate_flow,
    run_batch,
    trig_quadratic_1d,
)


def python_calls(fn) -> int:
    """The Python function calls ``fn()`` makes, ``fn`` itself not counted."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return len(calls) - 1


def evaluator() -> MeanFieldEvaluator:
    gain = CenterActiveGain(0.05, np.array([0.0]), 1.0)
    return MeanFieldEvaluator(trig_quadratic_1d(), gain, BaseNoise("rademacher"))


def test_float_two_point_field_takes_five_frames():
    # the bound field, the gain's form and formula, and the objective's
    # formula at each node; evaluate adds its own frame
    ev = evaluator()
    ev.evaluate(0.3)
    assert python_calls(lambda: ev.at_float(0.3)) <= 5
    assert python_calls(lambda: ev.evaluate(0.3)) <= 6


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
