"""Exploration probe generation.

Probes are built from an i.i.d. zero-mean base-noise sequence with
compact support and vanishing mixed third moments.  Two constructions
are supported: passing the base noise through unchanged ("iid"), and
differencing consecutive draws ("zigzag"), whose partial sums telescope
and therefore carry zero asymptotic covariance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

__all__ = [
    "BaseNoise",
    "ProbeGenerator",
    "ProbeMomentReport",
    "derive_seed",
    "regeneration_test",
]

DEFAULT_VARSIGMA = 1.0 / np.sqrt(2.0)  # matches the iid probe variance


def derive_seed(*parts) -> int:
    """Derive a 128-bit stream key from heterogeneous parts.

    Stable across platforms and processes, so per-run streams are
    reproducible no matter how work is scheduled.
    """
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


@dataclass(frozen=True)
class BaseNoise:
    """I.i.d. zero-mean base noise on a compact set.

    kind "rademacher" takes values in {-1, +1} equiprobably per
    component; kind "uniform" is uniform on [-support, support] per
    component.  Both are componentwise independent and symmetric, so all
    mixed third moments vanish.
    """

    kind: str
    dim: int = 1
    support: float = 1.0

    def __post_init__(self):
        if self.kind not in ("rademacher", "uniform"):
            raise ValueError(f"unknown base-noise kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not self.support > 0:
            raise ValueError(f"support must be positive, got {self.support}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` samples, shape (n, dim).

        Each variate consumes exactly one double from the stream, so
        chunked draws concatenate to the same sequence as one big draw.
        """
        if self.kind == "rademacher":
            return np.where(rng.random((n, self.dim)) < 0.5, -1.0, 1.0)
        return rng.uniform(-self.support, self.support, (n, self.dim))

    def covariance(self) -> np.ndarray:
        if self.kind == "rademacher":
            return np.eye(self.dim)
        return (self.support**2 / 3.0) * np.eye(self.dim)

    @property
    def bound(self) -> float:
        """Sup-norm bound on a single draw."""
        return 1.0 if self.kind == "rademacher" else self.support


@dataclass
class ProbeMomentReport:
    """Empirical moment diagnostics for a probe stream."""

    sample_count: int
    mean_vec: np.ndarray
    third_moment_max_abs: float
    covariance: np.ndarray
    covariance_error: float  # operator-norm distance to the closed form


class ProbeGenerator:
    """Seeded, single-owner stream of exploration probes.

    In "iid" mode each probe is a fresh base-noise draw.  In "zigzag"
    mode the probe is ``varsigma`` times the difference of consecutive
    draws; the initial memory is drawn from the base law at construction
    unless supplied explicitly.  Not safe to share between concurrent
    trajectories; create one generator per trajectory instead.
    """

    def __init__(
        self,
        base: BaseNoise,
        mode: str = "iid",
        varsigma: float = DEFAULT_VARSIGMA,
        seed: int = 0,
        initial_memory=None,
        rng: np.random.Generator | None = None,
    ):
        if mode not in ("iid", "zigzag"):
            raise ValueError(f"unknown probe mode {mode!r}")
        if mode == "zigzag" and not varsigma > 0:
            raise ValueError(f"varsigma must be positive, got {varsigma}")
        self.base = base
        self.mode = mode
        self.varsigma = float(varsigma)
        self.seed = seed
        self.rng = rng if rng is not None else np.random.Generator(np.random.Philox(key=seed))
        self._prev_w = None
        if mode == "zigzag":
            if initial_memory is not None:
                w0 = np.asarray(initial_memory, dtype=float).reshape(base.dim)
            else:
                w0 = self.base.sample(self.rng, 1)[0]
            self._prev_w = w0

    @property
    def initial_memory(self):
        return self._prev_w

    def take(self, n: int) -> np.ndarray:
        """Next ``n`` probes as an (n, dim) array."""
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        if n == 0:
            return np.empty((0, self.base.dim))
        w = self.base.sample(self.rng, n)
        if self.mode == "iid":
            return w
        stacked = np.vstack([self._prev_w[None, :], w])
        self._prev_w = w[-1]
        return self.varsigma * np.diff(stacked, axis=0)

    def probe_covariance(self) -> np.ndarray:
        """Closed-form stationary probe covariance: the base covariance, times 2 varsigma^2 for zigzag probes."""
        cov = self.base.covariance()
        return cov if self.mode == "iid" else 2.0 * self.varsigma**2 * cov

    @property
    def probe_bound(self) -> float:
        """Sup-norm bound on a single probe."""
        if self.mode == "iid":
            return self.base.bound
        return 2.0 * self.varsigma * self.base.bound

    def moment_diagnostics(self, n_samples: int) -> ProbeMomentReport:
        """Empirical mean, third moments and covariance over fresh probes.

        All estimates carry statistical error on the 1/sqrt(n_samples)
        scale, hence the minimum sample count.
        """
        if n_samples < 1000:
            raise ValueError(f"n_samples must be >= 1000, got {n_samples}")
        xi = self.take(n_samples)
        mean = xi.mean(axis=0)
        d = self.base.dim
        third_max = 0.0
        for i, j, k in combinations_with_replacement(range(d), 3):
            third_max = max(third_max, abs(np.mean(xi[:, i] * xi[:, j] * xi[:, k])))
        cov = (xi.T @ xi) / n_samples
        err = float(np.linalg.norm(cov - self.probe_covariance(), ord=2))
        return ProbeMomentReport(
            sample_count=n_samples,
            mean_vec=mean,
            third_moment_max_abs=float(third_max),
            covariance=cov,
            covariance_error=err,
        )


def regeneration_test(
    gen: ProbeGenerator,
    init_a,
    init_b,
    n_samples: int,
    step: int = 2,
) -> float:
    """Two-sample KS p-value for the probe law at a given step index.

    Draws ``n_samples`` independent replicas of the differenced chain
    from each of two initial memories and compares the empirical laws of
    the ``step``-th probe.  From step 2 on, the probe depends only on
    draws made after initialization, so the two samples share one law;
    at step 1 the initial memory enters directly and the test may
    reject.  The replicas are drawn from streams keyed by the generator's
    seed.  KS is applied to the first component.
    """
    if gen.mode != "zigzag":
        raise ValueError("regeneration test applies to zigzag probes only")
    if n_samples < 100:
        raise ValueError(f"n_samples must be >= 100, got {n_samples}")
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")

    def sample_probe(init, label):
        rng = np.random.Generator(np.random.Philox(key=derive_seed(gen.seed, "regen", label)))
        w = gen.base.sample(rng, n_samples * step).reshape(n_samples, step, gen.base.dim)
        w0 = np.asarray(init, dtype=float).reshape(gen.base.dim)
        prev = w[:, step - 2, :] if step >= 2 else np.broadcast_to(w0, (n_samples, gen.base.dim))
        return gen.varsigma * (w[:, step - 1, :] - prev)

    from scipy import stats  # imported here: it takes longer to load than the rest of the package

    xi_a = sample_probe(init_a, "a")
    xi_b = sample_probe(init_b, "b")
    return float(stats.ks_2samp(xi_a[:, 0], xi_b[:, 0]).pvalue)
