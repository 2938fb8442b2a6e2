"""One-dimensional mark, offspring, and waiting-time laws.

Marks, waits and heavy offspring counts are sampled by inverse CDF, one
uniform per value; Poisson counts use the generator's Poisson sampler.
Stream consumption is deterministic, so replications are reproducible
draw-for-draw.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "TailLaw",
    "JointMarkSpec",
    "WaitLaw",
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
        k0 = max(1, int(np.ceil(c ** (1.0 / a))))  # below k0 the tail saturates at 1
        return (k0 - 1) + c * hurwitz_zeta(a, k0)

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
    k0 = max(1, int(np.ceil(eta * law.scale)))  # first k with k/eta >= scale
    head = k0  # terms k = 0..k0-1 have tail equal to 1
    tail = (eta * law.scale) ** a * hurwitz_zeta(a, k0)
    return head + tail


# Poisson(rate) pmf, sf and ppf and the Hurwitz zeta in numpy and math, so
# that no run loads scipy for them; each docstring states the relative error
# that tests/test_laws.py enforces against scipy.

_EPS = float(np.finfo(float).eps)


def _log_pmf(k, rate: float):
    """k log(rate) - lgamma(k + 1) - rate, elementwise; rate > 0."""
    k = np.asarray(k, dtype=float)
    lgam = np.array([math.lgamma(v + 1.0) for v in k.ravel().tolist()]).reshape(k.shape)
    return k * math.log(rate) - lgam - rate


def poisson_pmf(k: np.ndarray, rate: float) -> np.ndarray:
    """P(N = k) for N ~ Poisson(rate), elementwise over integers k >= 0.

    exp of the log pmf, whose terms each carry round-off, so the relative
    error is at most 4 eps (|k log rate| + lgamma(k + 1) + rate + 1)."""
    if rate == 0.0:
        return (np.asarray(k) == 0).astype(float)
    return np.exp(_log_pmf(k, rate))


def _series(ratio) -> float:
    """1 + r(1) + r(1) r(2) + ... for ratios 0 <= r(i) < 1 that fall with i,
    summed 256 terms at a time until the rest, at most t r / (1 - r) after
    a term t with ratio r, is below eps/8 of the sum."""
    total, t, i = 1.0, 1.0, 1
    while True:
        r = ratio(np.arange(i, i + 256, dtype=float))
        terms = t * np.cumprod(r)
        total += float(terms.sum())
        t, last = float(terms[-1]), float(r[-1])
        if t * last <= 0.125 * _EPS * total * (1.0 - last):
            return total
        i += 256


def _poisson_cdf_sf(m: int, rate: float) -> tuple[float, float]:
    """(P(N <= m), P(N > m)) for rate > 0.  When m + 1 >= rate, P(N > m)
    is summed term by term from m + 1 upward, otherwise P(N <= m) from m
    downward; each term is the last times a ratio below 1, and the other
    side is 1 minus the sum.  The summed side is accurate relative to
    itself however small, and the other side is at least 1/e."""
    if m + 1 >= rate:
        n = m + 1
        tail = _series(lambda i: rate / (n + i))
        sf = math.exp(float(_log_pmf(n, rate)) + math.log(tail))
        return 1.0 - sf, sf
    cdf = math.exp(float(_log_pmf(m, rate))) * _series(lambda i: np.maximum(m + 1 - i, 0.0) / rate)
    return cdf, 1.0 - cdf


def poisson_sf(m: int, rate: float) -> float:
    """P(N > m).  The relative error is at most the pmf's bound at m + 1
    plus (sqrt(rate) + 8) eps: the summed upper tail is exact relative to
    itself down to the underflow, and below the mode P(N > m) > 0.4."""
    if rate == 0.0:
        return 0.0
    return _poisson_cdf_sf(m, rate)[1]


def poisson_ppf(q: float, rate: float, m_cap: int) -> int:
    """Smallest m with P(N <= m) >= q, for 0 < q < 1, capped at m_cap, by
    bisection on the cdf of `_poisson_cdf_sf` over -1..m_cap; the cap
    bounds the search at large rates.  It can differ from the exact
    quantile only where P(N <= m) lies within the sf's relative bound of q."""
    if rate == 0.0:
        return 0
    lo, hi = -1, m_cap  # P(N <= lo) < q; hi is the answer once P(N <= hi) >= q
    if _poisson_cdf_sf(hi, rate)[0] < q:
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _poisson_cdf_sf(mid, rate)[0] >= q:
            hi = mid
        else:
            lo = mid
    return hi


# B_2, B_4, ..., B_20 over (2j)!: the Euler-Maclaurin coefficients
_EM_COEFFS = tuple(
    b / math.factorial(2 * j)
    for j, b in enumerate(
        (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798, -174611 / 330),
        start=1,
    )
)


def hurwitz_zeta(a: float, q: float) -> float:
    """zeta(a, q) = sum_{n >= 0} (q + n)^-a for a > 1 and q > 0.

    The terms below w = q + n >= max(16, a) are summed directly, and the
    rest by Euler-Maclaurin: w^(1-a)/(a-1) + w^-a/2 and ten Bernoulli
    corrections, whose successive ratio is at most (a + 20)^2/(2 pi w)^2 <
    0.13 there.  Relative error at most 1e-14 for a in (1, 12] and q >= 1."""
    n = max(0, math.ceil(max(16.0, a) - q))
    w = q + n
    head = math.fsum((q + i) ** -a for i in range(n))
    tail = w ** (1.0 - a) / (a - 1.0) + 0.5 * w**-a
    t = a * w ** (-a - 1.0)  # a (a+1) ... (a+2j-2) w^(-a-2j+1) at j = 1
    corrections = []
    for j, c in enumerate(_EM_COEFFS, start=1):
        corrections.append(c * t)
        t *= (a + 2 * j - 1) * (a + 2 * j) / (w * w)
    return head + (tail + math.fsum(corrections))


_TILT_AT_TOP = 1e-4  # theta^m, the exponential tilt at the lattice's top cell
_TRUNCATION = 1e-16  # a sum of powers stops once the bound on its rest is below this
_MAX_POWERS = 128  # or at this power


def mass_tail_bracket(spec: JointMarkSpec, u: float, m: int, cells=None, branching: bool = False):
    """(lo, hi, err): lo - err <= P(D > u) <= hi + err for the mass D of a
    cluster (single-generation, or branching with ``branching``) from its
    law on the lattice h{0..m}, h = u/m.  With ``cells``, lattice indices in
    0..m, lo and hi are arrays of the bracket of P(D > jh) at each j.

    Every mark is rounded down to the lattice for lo and up for hi (rounded
    fertilities give a coupled subtree and supertree); D is monotone in the
    marks, and a mark above u passes every level alone.  With Phi the
    tilted transform, of length 4m, of one mark's lattice law (Embrechts &
    Frei 2009), the lattice law of D is the inverse transform of
    Phi exp(nu (Phi - 1)) for Poisson(nu) counts; of sum_k G_k Phi^k for
    comonotone counts, G_k the immigrant's cells with K = ceil(eta X_0) = k;
    of sum_k P(K = k) Phi^(k+1) for heavy counts; and for branching
    clusters the sum over n of the inverse transform of Phi^n times the
    cell weight (1/n) P(N(phi y) = n - 1), y = jh (the hitting-time
    theorem, Dwass 1969).  The tilt theta^j, theta^m = 1e-4, damps the
    wrap-around to 1e-16.  err adds the bound on the powers left out
    (`_power_sum`) and a round-off allowance: eps log2(4m) for each of K + 2
    factors, times the untilt 1e4, sqrt(m) cells and 8, with K = nu
    (Poisson), the last power (comonotone, heavy) or 1 (branching, whose
    weights times n sum to at most 1).  Marks must be positive."""
    poisson = not branching and spec.dependence == INDEPENDENT_LIGHT_K
    comonotone = not branching and spec.dependence == COMONOTONE
    levels = np.atleast_1d(np.asarray(m if cells is None else cells, dtype=np.int64))
    edges = np.linspace(0.0, u, m + 1)
    steps = np.empty(0)  # the marks k / eta where a comonotone count steps up to k + 1, k <= 128
    if comonotone:
        steps = np.arange(1, min(np.ceil(spec.k_param * u), _MAX_POWERS + 1)) / spec.k_param
        steps = steps[steps < u]
    # the pieces (a, b] of (0, u] between lattice edges and count steps: the
    # mark's mass on each, its cell j (the piece lies in (jh, (j+1)h]) and K
    pts = np.sort(np.concatenate((edges, steps)))
    pts = pts[np.concatenate(([True], pts[1:] != pts[:-1]))]
    mass = spec.x_law.tail(pts[:-1]) - spec.x_law.tail(pts[1:])
    cell = np.searchsorted(edges, pts[:-1], side="right") - 1
    count = 1 + np.searchsorted(steps, pts[1:], side="left")
    n_fft = 4 * m
    untilt = np.power(_TILT_AT_TOP, -np.arange(m + 1) / m)
    kmax, rest, bounds = (spec.k_param if poisson else 1), 0.0, []
    for shift in (0, 1):  # marks rounded down to jh, then up to (j+1)h
        phi = np.fft.rfft(np.bincount(cell + shift, weights=mass, minlength=m + 1) / untilt, n_fft)
        if poisson:
            law = np.fft.irfft(phi * np.exp(spec.k_param * (phi - 1.0)), n_fft)[: m + 1]
        else:
            immigrant = (count, cell + shift, mass) if comonotone else None
            low = shift + np.min(cell[mass > 0], initial=m)  # the lowest cell a rounded mark takes
            law, n, left = _power_sum(spec, u, phi, untilt, low, branching, immigrant)
            kmax, rest = (1 if branching else max(kmax, n)), max(rest, left)
        below = np.cumsum(law * untilt)[levels]
        bounds.append(1.0 - below)
    noise = 8.0 * np.finfo(float).eps * np.log2(n_fft) * (kmax + 2) * untilt[-1] * np.sqrt(m)
    err = float(_TILT_AT_TOP**4 + noise) + rest
    if cells is None:
        return float(bounds[0][0]), float(bounds[1][0]), err
    return bounds[0], bounds[1], err


def _power_sum(spec, u, phi, untilt, low, branching, immigrant):
    """(law, last power, bound on the powers left out): the tilted lattice
    law of D on 0..m from the powers Phi^n, n = 1, 2, ..., of ``phi``
    (`mass_tail_bracket`); ``low`` is the lowest cell of a rounded mark and
    ``immigrant`` the comonotone immigrant's (count, cell, mass) or None.
    The sum stops once that bound is below 1e-16, or at n = 128.  It is the
    weight left (the immigrant's mass with counts above n; P(K >= n); or
    P(N(phi u) >= n)/(n + 1) once n >= phi u, where each weight rises with
    y <= u) times P(S_(n+1) <= u): 0 once n + 1 marks of the lowest cell
    pass u, else at most Phi(0)^(n+1) theta^-m (Chernoff)."""
    m = untilt.size - 1
    n_fft = 2 * (phi.size - 1)
    power, total, law = np.ones_like(phi), np.zeros_like(phi), np.zeros(m + 1)
    rate, lam, tail = spec.phi * u, spec.phi * u * np.arange(m + 1) / m, 1.0  # lam: phi y at each cell
    with np.errstate(divide="ignore"):  # log 0 = -inf: no children at y = 0
        log_lam, log_w = np.log(lam), -lam  # log_w: the log weight of n = 1
    for n in range(1, _MAX_POWERS + 1):
        power *= phi
        if immigrant is not None:
            count, cell, mass = immigrant
            group = count == n
            if group.any():
                g = np.bincount(cell[group], weights=mass[group], minlength=m + 1)
                total += np.fft.rfft(g / untilt, n_fft) * power
            left = float(mass[np.searchsorted(count, n, side="right") :].sum())
        elif branching:
            law += np.exp(log_w) * np.fft.irfft(power, n_fft)[: m + 1]
            log_w = log_w + log_lam - math.log(n + 1)
            left = poisson_sf(n - 1, rate) / (n + 1) if n >= rate else 1.0
        else:  # tail is P(K >= n - 1), left P(K >= n)
            left = min(1.0, spec.k_param * n**-spec.k_alpha)
            total += (tail - left) * power
            tail = left
        below = 0.0 if (n + 1) * low > m else min(1.0, float(phi[0].real) ** (n + 1) * untilt[-1])
        if left * below <= _TRUNCATION:
            break
    if not branching:
        law = np.fft.irfft(total, n_fft)[: m + 1]
    return law, n, float(left * below)


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
