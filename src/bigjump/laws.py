"""One-dimensional mark, offspring, and waiting-time laws.

Marks, waits and heavy offspring counts are sampled by inverse CDF, one
uniform per value; Poisson counts use the generator's Poisson sampler.
Stream consumption is deterministic, so replications are reproducible
draw-for-draw.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "TailLaw",
    "JointMarkSpec",
    "WaitLaw",
    "empirical_tail_ratio",
]

PARETO = "pareto"
EXPONENTIAL = "exponential"
DETERMINISTIC = "deterministic"

INDEPENDENT_LIGHT_K = "independent_light_k"
COMONOTONE = "comonotone"
HEAVY_K_LIGHT_X = "heavy_k_light_x"


@dataclass(frozen=True)
class TailLaw:
    """Parametric law with closed-form tail and quantile.

    family:
        ``pareto``        P(X > x) = (x/scale)^(-alpha) for x >= scale
        ``exponential``   P(X > x) = exp(-x/scale), scale = mean
        ``deterministic`` point mass at ``scale``
    """

    family: str
    scale: float
    alpha: float | None = None

    def __post_init__(self):
        if self.family not in (PARETO, EXPONENTIAL, DETERMINISTIC):
            raise ConfigurationError(f"unknown law family {self.family!r}")
        if self.scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {self.scale}")
        if self.family == PARETO:
            if self.alpha is None or self.alpha <= 0:
                raise ConfigurationError(f"pareto requires alpha > 0, got {self.alpha}")

    @property
    def heavy(self) -> bool:
        return self.family == PARETO

    def tail(self, x):
        """P(X > x); total on the reals, 1 left of the support."""
        x = np.asarray(x, dtype=float)
        if self.family == PARETO:
            out = np.where(x < self.scale, 1.0, np.power(np.maximum(x, self.scale) / self.scale, -self.alpha))
        elif self.family == EXPONENTIAL:
            out = np.where(x < 0.0, 1.0, np.exp(-np.maximum(x, 0.0) / self.scale))
        else:
            out = np.where(x < self.scale, 1.0, 0.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, u):
        """inf{x : CDF(x) >= u} for u in [0, 1)."""
        u = np.asarray(u, dtype=float)
        if np.any(u < 0.0) or np.any(u >= 1.0):
            raise ValueError("quantile requires 0 <= u < 1")
        if self.family == PARETO:
            out = self.scale * np.power(1.0 - u, -1.0 / self.alpha)
        elif self.family == EXPONENTIAL:
            out = -self.scale * np.log1p(-u)
        else:
            out = np.full_like(u, self.scale)
        return float(out) if out.ndim == 0 else out

    def sample(self, rng: np.random.Generator, size=None):
        """Draw by quantile transform: one uniform per value."""
        u = rng.random(size)
        return self.quantile(u)

    def quantile_below(self, u, level):
        """Quantile at u in [0, 1) of X given X <= level, elementwise;
        requires P(X <= level) > 0.  The conditional CDF is inverted in
        closed form, through expm1/log1p, so it stays exact when
        P(X <= level) is tiny."""
        u = np.asarray(u, dtype=float)
        level = np.asarray(level, dtype=float)
        if self.family == PARETO:
            below = -np.expm1(-self.alpha * np.log(np.maximum(level, self.scale) / self.scale))
            return self.scale * np.exp(-np.log1p(-u * below) / self.alpha)
        if self.family == EXPONENTIAL:
            below = -np.expm1(-np.maximum(level, 0.0) / self.scale)
            return -self.scale * np.log1p(-u * below)
        return np.full_like(u, self.scale)

    def quantile_above(self, u, level):
        """Quantile at u in [0, 1) of X given X > level, elementwise;
        requires P(X > level) > 0.  Pareto and exponential tails restart at
        the level, so no uniform is squeezed into [1 - P(X > level), 1)."""
        u = np.asarray(u, dtype=float)
        level = np.asarray(level, dtype=float)
        if self.family == PARETO:
            return np.maximum(level, self.scale) * np.power(1.0 - u, -1.0 / self.alpha)
        if self.family == EXPONENTIAL:
            return np.maximum(level, 0.0) - self.scale * np.log1p(-u)
        return np.full_like(u, self.scale)

    def mean(self) -> float:
        if self.family == PARETO:
            if self.alpha <= 1:
                return np.inf
            return self.alpha * self.scale / (self.alpha - 1.0)
        return self.scale  # exponential mean and point mass both equal scale


def ceil_count(eta: float, x) -> np.ndarray:
    """ceil(eta * x) as the comonotone offspring count."""
    return np.ceil(eta * np.asarray(x, dtype=float)).astype(np.int64)


@dataclass(frozen=True)
class JointMarkSpec:
    """Joint law of (mark X, offspring budget K, fertility kappa = phi * X).

    dependence:
        ``independent_light_k``  K ~ Poisson(k_param), independent of X
        ``comonotone``           K = ceil(k_param * X)
        ``heavy_k_light_x``      K = floor of a Pareto variable with tail
                                  constant k_param and index k_alpha,
                                  independent of X
    """

    x_law: TailLaw
    dependence: str = INDEPENDENT_LIGHT_K
    k_param: float = 0.0
    phi: float = 0.0
    k_alpha: float | None = None

    def __post_init__(self):
        if self.dependence not in (INDEPENDENT_LIGHT_K, COMONOTONE, HEAVY_K_LIGHT_X):
            raise ConfigurationError(f"unknown dependence {self.dependence!r}")
        if self.k_param < 0:
            raise ConfigurationError(f"k_param must be nonnegative, got {self.k_param}")
        if self.phi < 0:
            raise ConfigurationError(f"phi must be nonnegative, got {self.phi}")
        if self.dependence == HEAVY_K_LIGHT_X:
            if self.k_alpha is None or self.k_alpha <= 1:
                raise ConfigurationError("heavy_k_light_x requires k_alpha > 1")
        if self.phi > 0:
            ex = self.x_law.mean()
            if not self.phi * ex < 1.0:
                raise ConfigurationError(
                    f"supercritical fertility: phi*E[X] = {self.phi * ex:.6g} >= 1"
                )

    @property
    def mean_fertility(self) -> float:
        """E[kappa] = phi * E[X]; branching is subcritical when < 1."""
        return self.phi * self.x_law.mean()

    def mean_offspring(self) -> float:
        """E[K] for the configured dependence."""
        if self.dependence == INDEPENDENT_LIGHT_K:
            return self.k_param
        if self.dependence == COMONOTONE:
            return mean_ceil(self.k_param, self.x_law)
        # heavy K: E[K] = sum_{k>=1} P(K >= k), K = floor(Y), P(Y > y) = min(1, c y^-a)
        c, a = self.k_param, self.k_alpha
        if c == 0.0:
            return 0.0
        from scipy.special import zeta

        k0 = max(1, int(np.ceil(c ** (1.0 / a))))  # below k0 the tail saturates at 1
        return (k0 - 1) + c * float(zeta(a, k0))

    def offspring_counts(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Vectorized K draws given marks ``x``."""
        x = np.asarray(x, dtype=float)
        if self.dependence == COMONOTONE:
            return ceil_count(self.k_param, x)
        if self.dependence == INDEPENDENT_LIGHT_K:
            return rng.poisson(self.k_param, size=x.shape).astype(np.int64)
        return self._heavy_counts(rng.random(x.shape))

    def _heavy_counts(self, u) -> np.ndarray:
        # quantile of floor(Y): P(K > k) = min(1, c (k+1)^-a) for integer k
        c, a = self.k_param, self.k_alpha
        if c == 0.0:
            return np.zeros(np.shape(u), dtype=np.int64)
        y = np.power(c / (1.0 - np.asarray(u, dtype=float)), 1.0 / a)
        return np.floor(y).astype(np.int64)


def mean_ceil(eta: float, law: TailLaw) -> float:
    """E[ceil(eta * X)] in closed form per family."""
    if eta == 0.0:
        return 0.0
    if law.family == DETERMINISTIC:
        return float(np.ceil(eta * law.scale))
    if law.family == EXPONENTIAL:
        # sum_{k>=0} P(X > k/eta) = sum exp(-k/(eta*scale)) = 1/(1-exp(-1/(eta*scale)))
        return 1.0 / -np.expm1(-1.0 / (eta * law.scale))
    # Pareto: E[ceil(eta X)] = sum_{k>=0} P(X > k/eta); tail saturates at 1 for k/eta < scale
    a = law.alpha
    if a <= 1:
        return np.inf
    from scipy.special import zeta

    k0 = max(1, int(np.ceil(eta * law.scale)))  # first k with k/eta >= scale
    head = k0  # terms k = 0..k0-1 have tail equal to 1
    tail = (eta * law.scale) ** a * float(zeta(a, k0))
    return head + tail


# Poisson(rate) pmf, sf and ppf from the formulas scipy.stats.poisson uses, so
# they agree with it to the bit; scipy.special is imported only when they run.


def poisson_pmf(k: np.ndarray, rate: float) -> np.ndarray:
    from scipy.special import gammaln, xlogy

    return np.exp(xlogy(k, rate) - gammaln(k + 1) - rate)


def poisson_sf(m: int, rate: float) -> float:
    """P(N > m)."""
    from scipy.special import pdtrc

    return float(pdtrc(float(m), rate))


def poisson_ppf(q: float, rate: float) -> int:
    """Smallest m with P(N <= m) >= q."""
    from scipy.special import pdtr, pdtrik

    v = float(np.ceil(pdtrik(q, rate)))
    v1 = max(v - 1.0, 0.0)
    return int(v1 if pdtr(v1, rate) >= q else v)


_TILT_AT_TOP = 1e-4  # theta^m, the exponential tilt at the lattice's top cell


def mb_mass_tail_bracket(spec: JointMarkSpec, u: float, m: int, cells=None):
    """(lo, hi, err): lo - err <= P(D > u) <= hi + err for the mass
    D = X_0 + X_1 + ... + X_K of a single-generation cluster with Poisson or
    comonotone counts, from its law on the lattice h{0..m}, h = u/m.  With
    ``cells``, lattice indices in 0..m, lo and hi are arrays of the same
    bracket for P(D > jh) at each j in cells, from the same transforms.

    Every mark is rounded down to the lattice for lo and up for hi; D is
    monotone in the marks, so the two sums bracket it.  A mark above u
    makes D > u >= jh by itself, so only the law below u enters.  The law
    of the lattice sum comes from a tilted transform pair of length 4m
    (Embrechts & Frei 2009): its generating function is phi exp(nu (phi -
    1)) for Poisson(nu) counts; for comonotone counts K = ceil(eta X_0) the
    immigrant's cells are grouped by K, and group k meets the k-fold power
    of phi.  The tilt theta^j, theta^m = 1e-4, damps the wrap-around to
    1e-16.  err adds to that a round-off allowance: eps log2(4m) for each
    of the K + 2 factors of the transform, amplified by the untilt 1e4 and
    accumulated over sqrt(m) cells, times 8.  Marks must be positive."""
    if spec.dependence not in (INDEPENDENT_LIGHT_K, COMONOTONE):
        raise ValueError(f"no lattice law for {spec.dependence} counts")
    levels = np.atleast_1d(np.asarray(m if cells is None else cells, dtype=np.int64))
    edges = np.linspace(0.0, u, m + 1)
    steps = np.empty(0)  # the marks k / eta at which a comonotone count steps up to k + 1
    if spec.dependence == COMONOTONE:
        steps = np.arange(1, int(np.ceil(spec.k_param * u))) / spec.k_param
        steps = steps[steps < u]
    # the pieces (a, b] of (0, u] between lattice edges and count steps: the
    # mark's mass on each, its cell j (the piece lies in (jh, (j+1)h]) and K
    pts = np.sort(np.concatenate((edges, steps)))
    pts = pts[np.concatenate(([True], pts[1:] != pts[:-1]))]
    mass = spec.x_law.tail(pts[:-1]) - spec.x_law.tail(pts[1:])
    cell = np.searchsorted(edges, pts[:-1], side="right") - 1
    count = 1 + np.searchsorted(steps, pts[1:], side="left")
    kmax = spec.k_param if spec.dependence == INDEPENDENT_LIGHT_K else int(count.max())
    n_fft = 4 * m
    untilt = np.power(_TILT_AT_TOP, -np.arange(m + 1) / m)
    bounds = []
    for shift in (0, 1):  # marks rounded down to jh, then up to (j+1)h
        phi = np.fft.rfft(np.bincount(cell + shift, weights=mass, minlength=m + 1) / untilt, n_fft)
        if spec.dependence == INDEPENDENT_LIGHT_K:
            law = np.fft.irfft(phi * np.exp(spec.k_param * (phi - 1.0)), n_fft)[: m + 1]
            below = np.cumsum(law * untilt)[levels]
        else:
            below, power = np.zeros(levels.size), np.ones_like(phi)
            for k in range(1, kmax + 1):
                power *= phi
                group = count == k
                if group.any():
                    cdf = np.cumsum(np.fft.irfft(power, n_fft)[: m + 1] * untilt)
                    for i, level in enumerate(levels):  # an immigrant above the level adds nothing
                        idx = level - shift - cell[group]
                        ok = idx >= 0
                        below[i] += float(mass[group][ok] @ cdf[idx[ok]])
        bounds.append(1.0 - below)
    noise = 8.0 * np.finfo(float).eps * np.log2(n_fft) * (kmax + 2) * untilt[-1] * np.sqrt(m)
    err = float(_TILT_AT_TOP**4 + noise)
    if cells is None:
        return float(bounds[0][0]), float(bounds[1][0]), err
    return bounds[0], bounds[1], err


@dataclass(frozen=True)
class WaitLaw:
    """Offspring waiting-time law; optionally conditioned on the parent mark.

    With ``conditional_on_mark`` set the law must be exponential and the
    conditional mean is scale/(1+mark): a conditionally-i.i.d. family.
    """

    law: TailLaw
    conditional_on_mark: bool = False

    def __post_init__(self):
        if self.conditional_on_mark and self.law.family != EXPONENTIAL:
            raise ConfigurationError("conditional_on_mark requires an exponential wait law")

    @property
    def integrable(self) -> bool:
        """Whether E[W] < infinity (required for admissible experiment laws)."""
        if self.law.family == PARETO:
            return self.law.alpha > 1
        return True

    def mean(self, mark: float | None = None) -> float:
        if self.conditional_on_mark:
            return self.law.scale / (1.0 + mark)
        return self.law.mean()

    def sample(self, rng: np.random.Generator, mark=None, size=None):
        if not self.conditional_on_mark:
            return self.law.sample(rng, size)
        u = rng.random(size)
        scale = self.law.scale / (1.0 + np.asarray(mark, dtype=float))
        out = -scale * np.log1p(-u)
        return float(out) if np.ndim(out) == 0 else out

    def cdf(self, s, mark=None):
        """P(W <= s | mark)."""
        s = np.asarray(s, dtype=float)
        if self.conditional_on_mark:
            scale = self.law.scale / (1.0 + np.asarray(mark, dtype=float))
            out = np.where(s < 0, 0.0, -np.expm1(-np.maximum(s, 0.0) / scale))
            return float(out) if out.ndim == 0 else out
        out = 1.0 - self.law.tail(s)
        return float(out) if np.ndim(out) == 0 else out

    def tail(self, s, mark=None):
        """P(W > s | mark)."""
        return 1.0 - self.cdf(s, mark) if self.conditional_on_mark else self.law.tail(s)


def empirical_tail_ratio(samples: np.ndarray, ref: TailLaw, x_grid) -> np.ndarray:
    """Empirical tail of ``samples`` over the reference tail, per grid point."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("samples must be nonempty")
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    srt = np.sort(samples)
    n = samples.size
    exceed = n - np.searchsorted(srt, x_grid, side="right")
    emp = exceed / n
    return emp / ref.tail(x_grid)
