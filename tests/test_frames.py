"""Python frames per call on the float paths, counted with ``sys.setprofile``.

At a float, the mean field and the one-lane engine call each 1-d formula
through the float form bound at construction, one frame for the form and
one for the formula, with no helper frame per sin, cos or sqrt.  The
counts are deterministic; a change that puts a helper call back into a
float path raises them.
"""

import sys

import numpy as np

from spsa_lab import (
    BaseNoise,
    CenterActiveGain,
    MeanFieldEvaluator,
    ProbeGenerator,
    StepSizeSchedule,
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


def test_float_two_point_field_takes_seven_frames():
    # evaluate, the gain's form and formula, and per node the objective's
    # form and formula
    ev = MeanFieldEvaluator(trig_quadratic_1d(), CenterActiveGain(0.05, np.array([0.0]), 1.0), BaseNoise("rademacher"))
    ev.evaluate(0.3)
    assert python_calls(lambda: ev.evaluate(0.3)) <= 7


def test_float_lane_step_takes_six_frames():
    # per step: the increment, the objective's form and formula, the gain's
    # form and formula, and the statistic pass; plus a fixed setup
    n_steps = 1000
    objective, schedule = trig_quadratic_1d(), StepSizeSchedule(0.01, 0.6)
    gain, probes = CenterActiveGain(0.1, np.array([0.0]), 1.0), [ProbeGenerator(BaseNoise("rademacher"), "iid", seed=1)]

    def run():
        result = run_batch(objective, schedule, gain, probes, np.array([[1.0]]), n_steps)
        assert not result.diverged[0]

    assert python_calls(run) <= 6 * n_steps + 100
