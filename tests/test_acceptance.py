"""Acceptance suite.

Each test prints one pass/fail line with the measured values before
asserting, so a red criterion still reports its evidence.  All checks
are seeded and deterministic; statistical tolerances are fixed here.

The step-size schedule is clamped at 0.1 throughout.  With the clamp
at 1.0 the first active-gain steps multiply the iterate by roughly
alpha/eps_bullet per step, so every run from the [-10, 10] box
transiently exceeds the 1e6 divergence guard even though the recursion
is ultimately bounded; the 0.1 clamp keeps transients inside the guard
while leaving the asymptotic schedule unchanged.

The decay exponent is 0.6, except in criterion 3, which uses 0.8.  The
differenced noise -(f/eps)*xi telescopes, but it still leaves the
iterate with a jitter of order alpha_N*f/eps, and terms evaluated at the
jittered iterate add noise that does not telescope.  That finite-step
excess shrinks with alpha_N and grows as eps falls; at the criterion's
horizon it must be small next to the O(eps^2) zigzag variance on the
whole grid.  Decay 0.6 (alpha_N = 6.6e-4 at N = 2e5) does not give
that at the small end of the grid; decay 0.8 (alpha_N = 5.7e-5) does.
The asymptotic covariance does not depend on the decay exponent within
(1/2, 1).  The grid spans a factor of 4: with 50 runs per cell each
scaled variance carries about 20% relative error, which puts the
standard error of the fitted slope near 0.2 (near 0.4 over a factor
of 2), against a band half-width of 0.6.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from spsa_lab.core import DivergenceGuard, WindowStatistic, run_batch, theta0_box
from spsa_lab.ensemble import batch_means_covariance, delta_decompose, lane_stream, run_ensemble_matrix, scaling_fit
from spsa_lab.exploration import BaseNoise, ProbeGenerator, derive_seed, regeneration_test
from spsa_lab.meanflow import (
    MeanFieldEvaluator,
    bias_sweep,
    find_equilibrium,
    gradient_flow_field,
    integrate_flow,
    monte_carlo_field,
)
from spsa_lab.objectives import quadratic_1d, trig_quadratic_1d
from spsa_lab.schedules import CenterActiveGain, ConstantGain, StepSizeSchedule

MASTER = 4
VS = 1.0 / np.sqrt(2.0)
SCHEDULE = StepSizeSchedule(0.1, 0.6)
SCALING_SCHEDULE = StepSizeSchedule(0.1, 0.8)
GUARD = DivergenceGuard(1e6)


def report(num, name, passed, detail):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if passed else 'FAIL'} {detail}")


def _seeded_runs(label, count, base, mode, box=(-10.0, 10.0)):
    seeds = [derive_seed(MASTER, label, i) for i in range(count)]
    theta0, box = np.empty((count, 1)), theta0_box(list(box), 1)
    probes = []
    for i, seed in enumerate(seeds):
        theta0[i], probe = lane_stream(seed, base, mode, VS, box)
        probes.append(probe)
    return theta0, probes


def test_criterion_1_divergence_without_stabilization():
    # quadratic objective, sign probes, constant exploration gain 0.1:
    # a substantial fraction of runs from the [-10, 10] box escapes
    base = BaseNoise("rademacher", 1)
    theta0, probes = _seeded_runs("fig1", 20, base, "iid")
    result = run_batch(
        quadratic_1d(), SCHEDULE, ConstantGain(0.1), probes, theta0, 10_000, guard=GUARD
    )
    trips = int(result.diverged.sum())
    passed = trips >= 5
    report(1, "divergence without active gain", passed, f"trips={trips}/20 (need >= 5)")
    assert passed


def test_criterion_2_stabilization_by_active_gain():
    # identical runs with the iterate-dependent gain: no guard trips, all
    # endpoints inside the unit ball, and averaged iterates near the root
    base = BaseNoise("rademacher", 1)
    n_steps = 100_000
    burn = 30_000
    theta0, probes = _seeded_runs("fig1", 100, base, "iid")
    result = run_batch(
        quadratic_1d(),
        SCHEDULE,
        CenterActiveGain(0.1, np.array([0.0]), 1.0),
        probes,
        theta0,
        n_steps,
        guard=GUARD,
        statistic=WindowStatistic(burn + 1, lambda th: th),
    )
    trips20 = int(result.diverged[:20].sum())
    final_ok = bool(np.all(np.abs(result.theta_final[:20, 0]) <= 1.0))
    pr = result.window_mean[:, 0]
    pr_hits = int((np.abs(pr) <= 0.1).sum())
    passed = trips20 == 0 and final_ok and pr_hits >= 95 and not result.diverged.any()
    report(
        2,
        "stabilization by active gain",
        passed,
        f"trips={trips20}/20, max|theta_N|={np.abs(result.theta_final[:20, 0]).max():.4f}, "
        f"averaged within 0.1: {pr_hits}/100 (need >= 95)",
    )
    assert passed


def test_criterion_3_variance_scaling_exponents():
    # scaled across-run covariance of the window-averaged gradient versus
    # the gain scale, for independent and differenced probes
    trig = trig_quadratic_1d()
    base = BaseNoise("uniform", 1, 1.0)
    eps_grid = [0.05, 0.1, 0.2]
    cells = run_ensemble_matrix(
        trig,
        SCALING_SCHEDULE,
        base,
        ("iid", "zigzag"),
        VS,
        CenterActiveGain(eps_grid[0], np.array([0.0]), 1.0),
        eps_grid,
        50,
        200_000,
        60_000,
        [-10.0, 10.0],
        lambda mode, gain: trig.grad_batch,
        MASTER,
        guard=GUARD,
    )
    complete = all(c.m_effective == c.m_total for c in cells.values())
    iid_vars = [cells[("iid", k)].scaled_var_trace for k in range(3)]
    zz_vars = [cells[("zigzag", k)].scaled_var_trace for k in range(3)]
    iid_slope = scaling_fit(eps_grid, iid_vars).loglog_slope
    zz_slope = scaling_fit(eps_grid, zz_vars).loglog_slope
    ratios = [i / z for i, z in zip(iid_vars, zz_vars)]
    iid_ok = -2.6 <= iid_slope <= -1.4
    zz_ok = 1.4 <= zz_slope <= 2.6
    ratio_ok = min(ratios) >= 10.0
    passed = complete and iid_ok and zz_ok and ratio_ok
    report(
        3,
        "variance-scaling exponents",
        passed,
        f"iid slope={iid_slope:.2f} (band [-2.6,-1.4]), zigzag slope={zz_slope:.2f} (band [1.4,2.6]), "
        f"min variance ratio={min(ratios):.0f} (need >= 10), all cells complete={complete}; "
        f"iid vars={[f'{v:.4g}' for v in iid_vars]}, zigzag vars={[f'{v:.4g}' for v in zz_vars]}; "
        f"rho={SCALING_SCHEDULE.rho}, eps grid={eps_grid}",
    )
    assert complete, "a run tripped the guard, invalidating its cell"
    assert ratio_ok, f"zigzag/iid separation too small: {min(ratios):.1f}x"
    assert iid_ok, f"iid slope {iid_slope:.2f} outside [-2.6, -1.4]"
    assert zz_ok, f"zigzag slope {zz_slope:.2f} outside [1.4, 2.6]"


def test_criterion_4_meanfield_oracle_equivalence():
    # the sampled mean field must agree with the exact two-point form, and
    # the quadratic's field is the exact scaled gradient
    base = BaseNoise("rademacher", 1)
    grid = np.linspace(-3.0, 3.0, 20)
    worst_sigma = 0.0
    for obj in (quadratic_1d(), trig_quadratic_1d()):
        exact = MeanFieldEvaluator(objective=obj, gain=CenterActiveGain(0.1, np.array([0.0]), 1.0), base=base)
        seed = derive_seed(MASTER, "oracle", obj.name)
        rng = np.random.Generator(np.random.Philox(key=derive_seed(seed, "meanfield-mc")))
        for theta in grid.tolist():
            vm, se = monte_carlo_field(exact, theta, 1_000_000, rng)
            worst_sigma = max(worst_sigma, abs(vm - exact.at_float(theta)) / se)
    quad_exact = MeanFieldEvaluator(
        objective=quadratic_1d(), gain=CenterActiveGain(0.1, np.array([0.0]), 1.0), base=base
    )
    worst_quad = max(abs(quad_exact.at_float(t) + 2.0 * t) for t in grid.tolist())
    passed = worst_sigma <= 3.0 and worst_quad < 1e-12
    report(
        4,
        "mean-field oracle equivalence",
        passed,
        f"max |mc-exact|/stderr={worst_sigma:.2f} (need <= 3), max quadratic defect={worst_quad:.2e} (need < 1e-12)",
    )
    assert passed


def test_criterion_5_equilibrium_bias_order():
    # equilibrium offset from the zero-gain stationary point scales
    # quadratically in the gain scale
    ref = brentq(lambda x: 2.0 * x + np.sin(x) - np.cos(5.0 * x), 0.0, 0.5, xtol=1e-14)
    evaluator = MeanFieldEvaluator(
        objective=trig_quadratic_1d(),
        gain=CenterActiveGain(0.025, np.array([0.0]), 1.0),
        base=BaseNoise("rademacher", 1),
    )
    biases, slope = bias_sweep(evaluator, [0.025, 0.05, 0.1, 0.2], ref)
    passed = 1.7 <= slope <= 2.3
    report(5, "equilibrium bias order", passed, f"log-log slope={slope:.3f} (band [1.7, 2.3])")
    assert passed


def test_criterion_6_telescoping_and_decomposition_identities():
    base = BaseNoise("uniform", 1, 1.0)
    seed = derive_seed(MASTER, "telescope")
    gen = ProbeGenerator(base, "zigzag", varsigma=VS, seed=seed)
    w0 = gen.initial_memory.copy()
    n = 1_000_000
    total = gen.take(n).sum()
    replay = np.random.Generator(np.random.Philox(key=seed))
    base.sample(replay, 1)
    w_last = base.sample(replay, n)[-1]
    expected = VS * (w_last[0] - w0[0])
    tel_err = abs(total - expected) / max(1.0, abs(expected))

    trig = trig_quadratic_1d()
    ev = MeanFieldEvaluator(
        objective=trig, gain=CenterActiveGain(0.1, np.array([0.0]), 1.0), base=BaseNoise("rademacher", 1)
    )
    rep = find_equilibrium(ev, 0.2, tol=1e-10)
    gen2 = ProbeGenerator(BaseNoise("rademacher", 1), "zigzag", varsigma=VS, seed=derive_seed(MASTER, "delta"))
    xi = gen2.take(10_000)
    eps_star = CenterActiveGain(0.1, np.array([0.0]), 1.0).at_float(rep.theta_star)
    dec = delta_decompose(rep.theta_star, xi, trig, eps_star, gen2.probe_covariance())
    dec_err = float(np.max(np.abs(dec.nu + dec.omega + dec.psi - dec.delta)))

    passed = tel_err < 1e-10 and dec_err < 1e-12
    report(
        6,
        "telescoping and decomposition identities",
        passed,
        f"telescoping rel err={tel_err:.2e} (need < 1e-10), decomposition defect={dec_err:.2e} (need < 1e-12)",
    )
    assert passed


def test_criterion_7_batch_means_estimator_sanity():
    # level-over-gain noise: independent probes keep its variance; the
    # differenced stream's long-run covariance collapses
    trig = trig_quadratic_1d()
    gain = CenterActiveGain(0.1, np.array([0.0]), 1.0)
    base = BaseNoise("rademacher", 1)
    ev = MeanFieldEvaluator(objective=trig, gain=gain, base=base)
    rep = find_equilibrium(ev, 0.2, tol=1e-10)
    level = trig.at_float(rep.theta_star)
    eps_star = gain.at_float(rep.theta_star)
    n = 1_000_000

    xi_iid = ProbeGenerator(base, "iid", seed=derive_seed(MASTER, "bm-iid")).take(n)
    nu_iid = -(level / eps_star) * xi_iid[:, 0]
    bm_iid = batch_means_covariance(nu_iid, 1000)[0, 0]
    target = level**2 / eps_star**2  # probe second moment is 1 for sign probes

    xi_zz = ProbeGenerator(base, "zigzag", varsigma=VS, seed=derive_seed(MASTER, "bm-zz")).take(n)
    nu_zz = -(level / eps_star) * xi_zz[:, 0]
    bm_zz = batch_means_covariance(nu_zz, 1000)[0, 0]

    iid_ok = abs(bm_iid - target) <= 0.2 * target
    zz_ok = bm_zz < 0.05 * bm_iid
    passed = iid_ok and zz_ok
    report(
        7,
        "asymptotic-covariance estimator sanity",
        passed,
        f"iid batch-means={bm_iid:.1f} vs closed form {target:.1f} (within 20%), "
        f"zigzag/iid={bm_zz / bm_iid:.4f} (need < 0.05)",
    )
    assert passed


def test_criterion_8_hurwitz_and_flow_checks():
    base = BaseNoise("rademacher", 1)
    hurwitz_ok = True
    eigs = {}
    for obj in (quadratic_1d(), trig_quadratic_1d()):
        for eb in (0.05, 0.1):
            ev = MeanFieldEvaluator(objective=obj, gain=CenterActiveGain(eb, np.array([0.0]), 1.0), base=base)
            rep = find_equilibrium(ev, float(obj.known_optimum[0]), tol=1e-10)
            eigs[(obj.name, eb)] = rep.jacobian
            hurwitz_ok &= rep.jacobian < 0

    flow = integrate_flow(gradient_flow_field(quadratic_1d()), 1.0, 1.0, 1e-3)
    rk4_err = abs(flow.final - np.exp(-2.0))

    ev_q = MeanFieldEvaluator(
        objective=quadratic_1d(), gain=CenterActiveGain(0.1, np.array([0.0]), 1.0), base=base
    )
    mean_flow = integrate_flow(ev_q.at_float, 1.0, 1.0, 1e-3)
    agree = float(np.max(np.abs(mean_flow.states - flow.states)))

    passed = hurwitz_ok and rk4_err < 1e-6 and agree < 1e-9
    report(
        8,
        "Hurwitz linearization and flow checks",
        passed,
        f"max eig real part={max(eigs.values()):.3f} (need < 0), rk4 err={rk4_err:.2e} (need < 1e-6), "
        f"flow agreement={agree:.2e} (need < 1e-9)",
    )
    assert passed


def test_criterion_9_probe_law_diagnostics():
    checks = []
    for kind, mode, base in (
        ("rademacher", "iid", BaseNoise("rademacher", 1)),
        ("uniform", "zigzag", BaseNoise("uniform", 1, 1.0)),
    ):
        gen = ProbeGenerator(base, mode, varsigma=VS, seed=derive_seed(MASTER, "probes", kind, mode))
        rep = gen.moment_diagnostics(100_000)
        checks.append(rep.third_moment_max_abs < 0.02 and rep.covariance_error < 0.02)
    gen = ProbeGenerator(BaseNoise("rademacher", 1), "zigzag", varsigma=VS, seed=derive_seed(MASTER, "regen"))
    p = regeneration_test(gen, np.array([1.0]), np.array([-1.0]), 10_000, step=2)
    passed = all(checks) and p > 0.01
    report(
        9,
        "probe-law diagnostics",
        passed,
        f"moment checks={'ok' if all(checks) else 'FAIL'}, two-step regeneration p={p:.3f} (need > 0.01)",
    )
    assert passed
