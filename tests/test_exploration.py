import numpy as np
import pytest

from spsa_lab.ensemble import batch_means_covariance
from spsa_lab.exploration import BaseNoise, ProbeGenerator, derive_seed, regeneration_test

VS = 1.0 / np.sqrt(2.0)


class ScriptedNoise:
    """Base-noise stand-in replaying a fixed sequence of draws."""

    def __init__(self, values):
        self.values = list(values)
        self.dim = 1
        self.kind = "scripted"
        self.bound = max(abs(v) for v in self.values)

    def sample(self, rng, n):
        out = np.array(self.values[:n], dtype=float).reshape(n, 1)
        del self.values[:n]
        return out


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(1, "iid", 0, 3) == derive_seed(1, "iid", 0, 3)
    assert derive_seed(1, "iid", 0, 3) != derive_seed(1, "iid", 0, 4)
    assert derive_seed(1, "iid", 0, 3) != derive_seed(1, "zigzag", 0, 3)


def test_base_noise_validation():
    with pytest.raises(ValueError):
        BaseNoise("gaussian", 1)
    with pytest.raises(ValueError):
        BaseNoise("uniform", 0)
    with pytest.raises(ValueError):
        BaseNoise("uniform", 1, support=0.0)


def test_rademacher_support_and_covariance():
    base = BaseNoise("rademacher", 2)
    rng = np.random.default_rng(0)
    w = base.sample(rng, 5000)
    assert set(np.unique(w)) == {-1.0, 1.0}
    assert np.allclose(base.covariance(), np.eye(2))


def test_uniform_support_and_covariance():
    base = BaseNoise("uniform", 2, support=1.0)
    rng = np.random.default_rng(0)
    w = base.sample(rng, 5000)
    assert np.all(np.abs(w) <= 1.0)
    assert np.allclose(base.covariance(), np.eye(2) / 3.0)


def test_zigzag_probe_arithmetic_exact():
    # memory 1, then draws -1, +1: probes are varsigma * (-2) and varsigma * (+2)
    gen = ProbeGenerator(ScriptedNoise([-1.0, 1.0]), mode="zigzag", varsigma=VS, initial_memory=[1.0])
    xi1 = gen.take(1)[0]
    xi2 = gen.take(1)[0]
    assert xi1[0] == pytest.approx(-np.sqrt(2.0), abs=1e-15)
    assert xi2[0] == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_iid_probes_pass_base_noise_through():
    gen = ProbeGenerator(BaseNoise("rademacher", 1), mode="iid", seed=11)
    xi = gen.take(100)
    assert set(np.unique(xi)) <= {-1.0, 1.0}


def test_take_matches_repeated_next_probe():
    # one generator consumed in a block, the other one probe at a time
    for mode in ("iid", "zigzag"):
        for kind in ("rademacher", "uniform"):
            base = BaseNoise(kind, 2)
            g1 = ProbeGenerator(base, mode=mode, varsigma=VS, seed=99)
            g2 = ProbeGenerator(base, mode=mode, varsigma=VS, seed=99)
            block = g1.take(257)
            singles = np.concatenate([g2.take(1) for _ in range(257)])
            assert np.array_equal(block, singles), (mode, kind)


def test_identical_seeds_give_identical_streams():
    base = BaseNoise("uniform", 1)
    a = ProbeGenerator(base, mode="zigzag", varsigma=VS, seed=5).take(1000)
    b = ProbeGenerator(base, mode="zigzag", varsigma=VS, seed=5).take(1000)
    c = ProbeGenerator(base, mode="zigzag", varsigma=VS, seed=6).take(1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_zigzag_partial_sums_telescope():
    base = BaseNoise("uniform", 1)
    seed = 314
    gen = ProbeGenerator(base, mode="zigzag", varsigma=VS, seed=seed)
    w0 = gen.initial_memory.copy()
    n = 100_000
    probes = gen.take(n)
    # replay the same base stream to recover the final draw
    replay = np.random.Generator(np.random.Philox(key=seed))
    base.sample(replay, 1)  # the initial memory draw
    w = base.sample(replay, n)
    expected = VS * (w[-1] - w0)
    assert abs(probes.sum() - expected[0]) < 1e-10


def test_probe_boundedness():
    for kind, a in (("rademacher", 1.0), ("uniform", 0.5)):
        base = BaseNoise(kind, 1, support=a)
        bound = 1.0 if kind == "rademacher" else a
        assert np.max(np.abs(ProbeGenerator(base, "iid", seed=1).take(20000))) <= bound
        zz = ProbeGenerator(base, "zigzag", varsigma=VS, seed=1)
        assert zz.probe_bound == pytest.approx(2 * VS * bound)
        assert np.max(np.abs(zz.take(20000))) <= zz.probe_bound + 1e-15


def test_probe_covariance_closed_forms():
    rad = BaseNoise("rademacher", 1)
    assert np.allclose(ProbeGenerator(rad, "iid", seed=0).probe_covariance(), [[1.0]])
    zz = ProbeGenerator(rad, "zigzag", varsigma=VS, seed=0)
    # variance matching: 2 * varsigma^2 * 1 == 1
    assert np.allclose(zz.probe_covariance(), [[1.0]])
    uni2 = BaseNoise("uniform", 2, support=1.0)
    assert np.allclose(ProbeGenerator(uni2, "iid", seed=0).probe_covariance(), np.eye(2) / 3.0)


def test_moment_diagnostics_iid_rademacher():
    gen = ProbeGenerator(BaseNoise("rademacher", 1), "iid", seed=123)
    report = gen.moment_diagnostics(100_000)
    assert report.sample_count == 100_000
    assert report.third_moment_max_abs < 0.02
    assert report.covariance_error < 0.02
    assert np.all(np.abs(report.mean_vec) < 0.02)


def test_moment_diagnostics_zigzag_matches_closed_form():
    gen = ProbeGenerator(BaseNoise("rademacher", 1), "zigzag", varsigma=VS, seed=321)
    report = gen.moment_diagnostics(100_000)
    assert report.covariance_error < 0.02
    assert report.third_moment_max_abs < 0.02


def test_moment_diagnostics_rejects_small_samples():
    gen = ProbeGenerator(BaseNoise("rademacher", 1), "iid", seed=0)
    with pytest.raises(ValueError):
        gen.moment_diagnostics(0)
    with pytest.raises(ValueError):
        gen.moment_diagnostics(999)


def test_regeneration_two_step_probe_law_matches():
    gen = ProbeGenerator(BaseNoise("rademacher", 1), "zigzag", varsigma=VS, seed=777)
    p = regeneration_test(gen, np.array([1.0]), np.array([-1.0]), 10_000, step=2)
    assert p > 0.01


def test_regeneration_first_step_depends_on_memory():
    # the first probe reads the initial memory directly, so opposite
    # memories give visibly different laws
    gen = ProbeGenerator(BaseNoise("rademacher", 1), "zigzag", varsigma=VS, seed=777)
    p = regeneration_test(gen, np.array([1.0]), np.array([-1.0]), 10_000, step=1)
    assert p < 0.01


def test_regeneration_rejects_iid_mode():
    gen = ProbeGenerator(BaseNoise("rademacher", 1), "iid", seed=0)
    with pytest.raises(ValueError):
        regeneration_test(gen, np.array([1.0]), np.array([-1.0]), 1000)


def test_batch_means_of_probe_streams():
    # the iid stream keeps its variance; the differenced stream's
    # batch-means estimate collapses as batches grow
    base = BaseNoise("rademacher", 1)
    iid = ProbeGenerator(base, "iid", seed=42).take(200_000)
    zz = ProbeGenerator(base, "zigzag", varsigma=VS, seed=42).take(200_000)
    bm_iid = batch_means_covariance(iid, 1000)[0, 0]
    bm_zz = batch_means_covariance(zz, 1000)[0, 0]
    assert bm_iid == pytest.approx(1.0, rel=0.2)
    assert bm_zz < 0.05 * bm_iid
