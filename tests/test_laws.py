import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from bigjump import laws
from bigjump.errors import ConfigurationError
from bigjump.harness import _big_count_cap
from bigjump.laws import (
    JointMarkSpec,
    TailLaw,
    WaitLaw,
    hurwitz_zeta,
    mass_tail_bracket,
    mean_ceil,
    poisson_pmf,
    poisson_sf,
    sum_tail_bracket,
)
from bigjump.streams import substream

from .oracles import lattice_cdf_oracle, pareto_pair_tail


def test_pareto_quantile_examples():
    assert TailLaw("pareto", 1.0, 1.0).quantile(0.5) == pytest.approx(2.0)
    assert TailLaw("pareto", 1.0, 1.5).quantile(0.0) == pytest.approx(1.0)


def test_pareto_quantile_matches_bisected_cdf_inverse():
    law = TailLaw("pareto", 1.0, 1.5)
    target = 0.99
    lo, hi = 1.0, 1e9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 1.0 - law.tail(mid) >= target:
            hi = mid
        else:
            lo = mid
    assert law.quantile(target) == pytest.approx(hi, rel=1e-9)
    assert law.tail(law.quantile(target)) == pytest.approx(0.01, rel=1e-9)


def test_tail_examples():
    assert TailLaw("pareto", 1.0, 1.5).tail(4.0) == pytest.approx(0.125)
    assert TailLaw("pareto", 1.0, 1.5).tail(1.0) == 1.0
    assert TailLaw("exponential", 2.0).tail(0.0) == 1.0
    assert TailLaw("pareto", 1.0, 1.5).tail(-3.0) == 1.0


def test_quantile_domain_error():
    law = TailLaw("pareto", 1.0, 1.5)
    with pytest.raises(ValueError):
        law.quantile(1.0)
    with pytest.raises(ValueError):
        law.quantile(-0.1)


def test_tail_quantile_inverse_continuous_families():
    us = np.linspace(0.0, 0.999, 200)
    for law in (TailLaw("pareto", 2.0, 1.5), TailLaw("pareto", 1.0, 3.0), TailLaw("exponential", 0.7)):
        np.testing.assert_allclose(law.tail(law.quantile(us)), 1.0 - us, atol=1e-12)


def test_pareto_homogeneity_exact():
    law = TailLaw("pareto", 1.0, 1.5)
    for x in (1.0, 2.5, 10.0):
        for u in (1.0, 2.0, 7.5):
            assert law.tail(x * u) / law.tail(x) == pytest.approx(u**-1.5, rel=1e-14)


def test_deterministic_sampling():
    law = TailLaw("deterministic", 3.0)
    rng = substream(1, "det")
    assert np.all(law.sample(rng, 100) == 3.0)


def test_sample_reproducible_across_generators():
    law = TailLaw("pareto", 1.0, 1.5)
    a = law.sample(substream(9, "x"), 1000)
    b = law.sample(substream(9, "x"), 1000)
    assert np.array_equal(a, b)
    c = law.sample(substream(10, "x"), 1000)
    assert not np.array_equal(a, c)


def test_pareto_monte_carlo_mean():
    law = TailLaw("pareto", 1.0, 1.5)
    x = law.sample(substream(0, "mean"), 1_000_000)
    se = x.std() / np.sqrt(x.size)
    assert abs(x.mean() - 3.0) < 3 * se


def test_pareto_ks_against_analytic_cdf():
    law = TailLaw("pareto", 1.0, 1.5)
    x = law.sample(substream(3, "ks"), 100_000)
    stat = stats.kstest(x, lambda v: 1.0 - law.tail(v)).statistic
    crit_1pct = 1.63 / np.sqrt(x.size)
    assert stat < crit_1pct


def test_joint_spec_comonotone_rule(pareto15):
    spec = JointMarkSpec(pareto15, "comonotone", k_param=2.0)
    rng = substream(0, "j")
    assert spec.offspring_counts(np.array([1.5, 2.0]), rng).tolist() == [3, 4]


def test_joint_spec_independent(pareto15):
    spec0 = JointMarkSpec(pareto15, "independent_light_k", k_param=0.0)
    rng = substream(0, "k")
    assert np.all(spec0.offspring_counts(pareto15.sample(rng, 50), rng) == 0)
    spec2 = JointMarkSpec(pareto15, "independent_light_k", k_param=2.0)
    ks = spec2.offspring_counts(np.ones(1_000_000), substream(1, "k"))
    se = ks.std() / np.sqrt(ks.size)
    assert abs(ks.mean() - 2.0) < 3 * se


def test_joint_spec_heavy_k(pareto15):
    light = TailLaw("exponential", 1.0)
    spec = JointMarkSpec(light, "heavy_k_light_x", k_param=2.0, k_alpha=1.5)
    ks = spec.offspring_counts(np.ones(200_000), substream(4, "h"))
    # P(K > k) = min(1, 2 (k+1)^-1.5) at integer thresholds
    emp = (ks > 10).mean()
    assert emp == pytest.approx(2.0 * 11.0**-1.5, rel=0.1)
    with pytest.raises(ConfigurationError):
        JointMarkSpec(light, "heavy_k_light_x", k_param=2.0)  # missing index


def test_subcriticality_rejected(pareto15):
    with pytest.raises(ConfigurationError):
        JointMarkSpec(pareto15, "independent_light_k", phi=0.4)  # 0.4 * 3 >= 1
    spec = JointMarkSpec(pareto15, "independent_light_k", phi=0.1)
    assert spec.mean_fertility == pytest.approx(0.3)


def test_kappa_is_phi_times_mark(pareto15, exp_wait):
    from bigjump.clusters import simulate_batch

    spec = JointMarkSpec(pareto15, "comonotone", k_param=1.0, phi=0.05)
    rng = substream(6, "s")
    x = pareto15.sample(rng, 1000)
    assert np.array_equal(spec.offspring_counts(x, rng), np.ceil(x))
    # branching: an event of mark 40 has Poisson(kappa = 0.05 * 40) children
    n = 20_000
    b = simulate_batch("hawkes", n, spec, exp_wait, rng, x0=np.full(n, 40.0), lineage=True)
    kids = np.bincount(b.cid[b.generation == 1], minlength=n)
    assert abs(kids.mean() - 2.0) < 4 * kids.std() / np.sqrt(n)


def test_mean_ceil_matches_monte_carlo(pareto15):
    eta = 1.7
    x = pareto15.sample(substream(7, "mc"), 2_000_000)
    emp = np.ceil(eta * x)
    se = emp.std() / np.sqrt(emp.size)
    assert abs(mean_ceil(eta, pareto15) - emp.mean()) < 4 * se


def test_wait_law_conditional():
    wait = WaitLaw(TailLaw("exponential", 2.0), conditional_on_mark=True)
    assert wait.mean(mark=3.0) == pytest.approx(0.5)
    w = wait.sample(substream(11, "w"), mark=np.full(500_000, 3.0), size=500_000)
    assert abs(w.mean() - 0.5) < 4 * w.std() / np.sqrt(w.size)
    assert wait.cdf(1.0, mark=3.0) == pytest.approx(1.0 - np.exp(-2.0))
    with pytest.raises(ConfigurationError):
        WaitLaw(TailLaw("pareto", 1.0, 2.0), conditional_on_mark=True)


def test_wait_integrability_flag():
    assert WaitLaw(TailLaw("exponential", 1.0)).integrable
    assert not WaitLaw(TailLaw("pareto", 1.0, 0.5)).integrable
    assert WaitLaw(TailLaw("pareto", 1.0, 2.5)).integrable


LATTICE_SPECS = [
    (JointMarkSpec(TailLaw("pareto", 1.0, 1.5), "independent_light_k", k_param=1.0), 34.66),
    (JointMarkSpec(TailLaw("pareto", 1.0, 1.5), "independent_light_k", k_param=2.0), 34.66),
    (JointMarkSpec(TailLaw("exponential", 1.0), "independent_light_k", k_param=2.0), 12.0),
    (JointMarkSpec(TailLaw("pareto", 1.0, 1.5), "comonotone", k_param=0.5), 34.66),
    (JointMarkSpec(TailLaw("exponential", 1.0), "comonotone", k_param=2.0), 9.0),
    # 32 comonotone counts below u
    (JointMarkSpec(TailLaw("exponential", 1.0), "comonotone", k_param=8.0), 4.0),
    (JointMarkSpec(TailLaw("exponential", 2.0), "heavy_k_light_x", k_param=1.0, k_alpha=1.5), 16.9),
    (JointMarkSpec(TailLaw("pareto", 1.0, 1.5), "heavy_k_light_x", k_param=2.0, k_alpha=2.5), 34.66),
]


@pytest.mark.parametrize("spec, u", LATTICE_SPECS)
def test_lattice_bracket_matches_space_domain_oracle(spec, u):
    # the transforms against Panjer's recursion (Poisson counts) or
    # explicit convolution powers (comonotone and heavy counts), rounding
    # by rounding
    for m in (512, 2048):
        lo, hi, err = mass_tail_bracket(spec, u, m)
        want_lo = 1.0 - lattice_cdf_oracle(spec, u, m, up=False)
        want_hi = 1.0 - lattice_cdf_oracle(spec, u, m, up=True)
        assert abs(lo - want_lo) <= 1e-10 and abs(hi - want_hi) <= 1e-10, (m, lo, want_lo, hi, want_hi)
        assert want_lo < want_hi and err < 1e-6


@pytest.mark.parametrize("spec, u", LATTICE_SPECS)
def test_lattice_brackets_nest_as_the_lattice_doubles(spec, u):
    # the lattice of 2m cells refines that of m, so each rounding moves its
    # marks toward the true ones and the brackets nest
    prev = None
    for m in (256, 512, 1024, 2048):
        lo, hi, err = mass_tail_bracket(spec, u, m)
        if prev is not None:
            assert prev[0] - err <= lo <= hi <= prev[1] + err, (m, prev, lo, hi)
        prev = lo, hi
    assert hi - lo < 0.03 * hi


def test_lattice_bracket_contains_closed_forms():
    # exponential marks: given N = n children, D is Gamma(n + 1, scale)
    nu, scale, u = 2.0, 1.5, 20.0
    spec = JointMarkSpec(TailLaw("exponential", scale), "independent_light_k", k_param=nu)
    n = np.arange(200)
    exact = float(stats.poisson.pmf(n, nu) @ stats.gamma.sf(u, n + 1, scale=scale))
    lo, hi, err = mass_tail_bracket(spec, u, 4096)
    assert lo - err <= exact <= hi + err and hi - lo < 0.02 * exact, (lo, exact, hi)
    # point-mass marks: D = 1.3 (N + 1) > 7 iff N >= 5
    spec = JointMarkSpec(TailLaw("deterministic", 1.3), "independent_light_k", k_param=3.0)
    lo, hi, err = mass_tail_bracket(spec, 7.0, 1024)
    assert lo - err <= float(stats.poisson.sf(4, 3.0)) <= hi + err
    # comonotone point masses: D = 1.3 (1 + ceil(2 * 1.3)) = 5.2 exactly
    spec = JointMarkSpec(TailLaw("deterministic", 1.3), "comonotone", k_param=2.0)
    assert mass_tail_bracket(spec, 5.0, 1024)[0] == pytest.approx(1.0, abs=1e-9)
    assert mass_tail_bracket(spec, 5.5, 1024)[1] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("nu", [0.5, 2.0])
@pytest.mark.parametrize(
    "law, u",
    [
        (TailLaw("pareto", 1.0, 1.5), 34.66),
        (TailLaw("exponential", 1.0), 12.0),
        (TailLaw("deterministic", 1.3), 7.0),
    ],
)
def test_lattice_level_tails_match_panjer(law, u, nu):
    # the control variates' tails: P(D > jh) at every cell j of one lattice,
    # as splitting takes them on [0, u] for the small clusters' mean mass and
    # at six cells of [0, 8u] for the big levels; [0, u/4] is a finer lattice
    spec = JointMarkSpec(law, "independent_light_k", k_param=nu)
    m = 1024
    cells = np.arange(m + 1)
    for top in (0.25 * u, u, 8.0 * u):
        lo, hi, err = mass_tail_bracket(spec, top, m, cells)
        want_lo = 1.0 - lattice_cdf_oracle(spec, top, m, up=False, cells=cells)
        want_hi = 1.0 - lattice_cdf_oracle(spec, top, m, up=True, cells=cells)
        np.testing.assert_allclose(lo, want_lo, rtol=0, atol=1e-10)
        np.testing.assert_allclose(hi, want_hi, rtol=0, atol=1e-10)
        assert np.all(lo <= hi + 1e-12) and err < 1e-6
        # the top level is the one-level bracket
        one = mass_tail_bracket(spec, top, m)
        assert abs(lo[-1] - one[0]) <= 1e-14 and abs(hi[-1] - one[1]) <= 1e-14


@pytest.mark.parametrize("c", [6.0, 20.0, 1000.0])
@pytest.mark.parametrize("scale, alpha", [(1.0, 1.5), (0.7, 2.5)])
def test_sum_bracket_contains_adaptive_quadrature(scale, alpha, c):
    exact = pareto_pair_tail(scale, alpha, c)
    [(lo, hi, err)] = sum_tail_bracket(TailLaw("pareto", scale, alpha), [2], c)
    assert lo - err <= exact <= hi + err, (lo, exact, hi, err)


@pytest.mark.parametrize("j", [1, 2, 5])
@pytest.mark.parametrize("law, u", [(TailLaw("pareto", 1.0, 1.5), 20.0), (TailLaw("exponential", 1.0), 6.0)])
def test_sum_bracket_matches_convolution_powers(monkeypatch, law, u, j):
    # rounding by rounding, the transform against the j-th convolution
    # power of the mark's lattice law, on a lattice small enough to convolve
    m = 512
    monkeypatch.setattr(laws, "SUM_CELLS", m)
    e = u * np.arange(m + 1) / m
    q = law.tail(e[:-1]) - law.tail(e[1:])
    [(lo, hi, err)] = sum_tail_bracket(law, [j], u)
    for got, f in ((lo, np.concatenate((q, [0.0]))), (hi, np.concatenate(([0.0], q)))):
        power = f
        for _ in range(j - 1):
            power = np.convolve(power, f)[: m + 1]
        assert abs(got - (1.0 - power.sum())) <= 1e-10, (got, 1.0 - power.sum())
    assert lo <= hi + err and err < 1e-6


def test_sum_bracket_powers_share_one_transform(monkeypatch):
    # every power asked for comes from one transform, each bracket bit for
    # bit the one that power gets when asked for alone
    monkeypatch.setattr(laws, "SUM_CELLS", 4096)
    law, built, tilted = TailLaw("pareto", 0.7, 2.5), [], laws._tilted_transforms
    monkeypatch.setattr(laws, "_tilted_transforms", lambda *a: built.append(a) or tilted(*a))
    together = sum_tail_bracket(law, [2, 5, 3], 20.0)
    assert len(built) == 1
    assert together == [sum_tail_bracket(law, [j], 20.0)[0] for j in (2, 5, 3)]
    assert sum_tail_bracket(law, [], 20.0) == []


BRANCHING_SPECS = [
    (JointMarkSpec(TailLaw("pareto", 1.0, 1.5), phi=1.0 / 6.0), 34.66),
    (JointMarkSpec(TailLaw("exponential", 1.0), phi=0.4), 6.0),
    (JointMarkSpec(TailLaw("pareto", 1.0, 2.5), phi=0.25), 8.0),
]


@pytest.mark.parametrize("spec, u", BRANCHING_SPECS)
def test_branching_lattice_matches_space_domain_oracle(spec, u):
    # the hitting-time sum of powers against explicit convolution powers
    for m in (256, 1024):
        lo, hi, err = mass_tail_bracket(spec, u, m, branching=True)
        want_lo = 1.0 - lattice_cdf_oracle(spec, u, m, up=False, branching=True)
        want_hi = 1.0 - lattice_cdf_oracle(spec, u, m, up=True, branching=True)
        assert abs(lo - want_lo) <= 1e-10 and abs(hi - want_hi) <= 1e-10, (m, lo, want_lo, hi, want_hi)
        assert want_lo < want_hi and err < 1e-6


@pytest.mark.parametrize("x, phi", [(1.0, 0.6), (1.3, 0.3), (0.7, 1.2)])
def test_branching_point_marks_match_borel(x, phi):
    # point marks x: the cluster size is Borel(phi x), P(size = n) =
    # e^(-phi x n) (phi x n)^(n-1) / n!, and D = x size; u/x is no integer,
    # so the exact tail lies inside the bracket
    spec = JointMarkSpec(TailLaw("deterministic", x), phi=phi)
    a = phi * x
    for u in (7.45 * x, 20.5 * x):
        n = np.arange(1, int(u / x) + 1)
        exact = 1.0 - float(np.exp(-a * n + (n - 1) * np.log(a * n) - special.gammaln(n + 1)).sum())
        lo, hi, err = mass_tail_bracket(spec, u, 2**14, branching=True)
        assert lo - err <= exact <= hi + err and hi - lo < 0.05 * exact, (u, lo, exact, hi)


def test_power_sums_bound_what_they_leave_out():
    # 128 powers do not reach below u = 500 for exponential marks: the
    # bound on the rest joins err, which still brackets the closed form
    # (given K = k children, D is Gamma(k + 1, scale))
    c, a, scale, u = 2.0, 1.5, 1.0, 500.0
    spec = JointMarkSpec(TailLaw("exponential", scale), "heavy_k_light_x", k_param=c, k_alpha=a)
    k = np.arange(20_000)
    gt = np.minimum(1.0, c * (k + 1.0) ** -a)  # P(K > k)
    p_k = np.concatenate(([1.0], gt[:-1])) - gt
    exact = float(p_k @ stats.gamma.sf(u, k + 1, scale=scale)) + float(gt[-1])
    lo, hi, err = mass_tail_bracket(spec, u, 4096)
    assert err > 1e-6
    assert lo - err <= exact <= hi + err, (lo, exact, hi, err)


@pytest.mark.parametrize(
    "law, levels",
    [
        (TailLaw("pareto", 1.0, 1.5), [1.0, 1.7, 12.0, 400.0]),
        (TailLaw("exponential", 2.0), [0.3, 2.0, 15.0]),
    ],
)
def test_conditional_quantiles_invert_the_conditional_cdfs(law, levels):
    # the conditional CDFs at the returned quantiles give back u
    u = np.linspace(0.0, 0.999, 37)
    for level in levels:
        p = law.tail(level)
        above = law.quantile_above(u, level)
        assert np.all(above >= level)
        np.testing.assert_allclose(law.tail(above) / p, 1.0 - u, rtol=0, atol=1e-12)
        if p < 1.0:
            below = law.quantile_below(u, level)
            assert np.all(below <= level * (1 + 1e-15))
            np.testing.assert_allclose((1.0 - law.tail(below)) / (1.0 - p), u, rtol=0, atol=1e-12)


def test_conditional_quantiles_stay_exact_in_far_tails():
    # P(X > l) = 1e-20 and P(X <= l) = 1.5e-12, where 1 - p + u p and
    # u (1 - p) lose every digit: the medians of the conditional laws are
    # closed forms (a Pareto or exponential tail restarts at the level; the
    # Pareto CDF is linear in its first 1e-12 of support)
    pareto = TailLaw("pareto", 1.0, 1.5)
    far = 1e20 ** (1.0 / 1.5)
    assert pareto.quantile_above(0.5, far) == pytest.approx(far * 2.0 ** (1.0 / 1.5), rel=1e-14)
    assert TailLaw("exponential", 2.0).quantile_above(0.5, 92.1) == pytest.approx(92.1 + 2.0 * np.log(2.0), rel=1e-14)
    near = 1.0 + 1e-12
    x = pareto.quantile_below(np.array([0.0, 0.5, 0.999999]), near)
    assert x[0] == 1.0 and np.all(np.diff(x) > 0) and x[-1] <= near
    assert (x[1] - 1.0) == pytest.approx(0.5e-12, rel=1e-3)
    point = TailLaw("deterministic", 3.0)
    assert np.all(point.quantile_above(np.array([0.0, 0.7]), 2.0) == 3.0)
    assert np.all(point.quantile_below(np.array([0.0, 0.7]), 5.0) == 3.0)


def test_poisson_helpers_within_stated_bounds_of_scipy():
    # scipy.stats.poisson is the oracle; each helper's docstring bound is
    # 4 eps (|k log rate| + lgamma(k + 1) + rate + 1) for the pmf, that at
    # k = m + 1 plus (sqrt(rate) + 8) eps for the sf.  The scipy pmf has the
    # same cancellation in its exponent, which this bound scales with
    eps = np.finfo(float).eps
    rng = np.random.default_rng(3)

    def pmf_bound(k, rate):
        log_rate = abs(math.log(rate)) if rate > 0.0 else 0.0
        lgam = np.array([math.lgamma(v + 1.0) for v in np.atleast_1d(k)])
        return 4.0 * eps * (np.abs(k) * log_rate + lgam + rate + 1.0)

    for i, rate in enumerate(np.r_[0.0, 1e-9, rng.uniform(0.0, 150.0, 300), 1e3, 1e4]):
        k = np.arange(int(rate + 12.0 * np.sqrt(rate)) + 40)
        want = stats.poisson.pmf(k, rate)
        assert np.all(np.abs(poisson_pmf(k, rate) - want) <= pmf_bound(k, rate) * want), rate
        # sf relative to itself from m = 0 down to the last m with sf >= 1e-300
        ms = np.arange(int(rate + 40.0 * np.sqrt(rate)) + 700)
        sfs = stats.poisson.sf(ms, rate)
        last = int(ms[sfs >= 1e-300].max()) if rate > 0.0 else 0
        grid = np.unique(np.r_[np.linspace(0, last, 60).astype(int), int(rate), int(rate) + 7, last])
        for m in grid.tolist():
            want = float(sfs[m])
            bound = float(pmf_bound(m + 1, rate)[0]) + (np.sqrt(rate) + 8.0) * eps
            assert abs(poisson_sf(m, rate) - want) <= bound * want, (m, rate)
        assert rate == 0.0 or float(sfs[last]) < 1e-290  # the grid reached the far tail
        # the splitting truncation: the first m >= k + 2 with P(N > m) <= 1e-4, at most k + 122
        k = (0, 1, 2, 3, 5, 9)[i % 6]
        got = _big_count_cap(rate, k)
        want = min(max(k + 2, int(stats.poisson.ppf(1.0 - 1e-4, rate))), k + 122)
        m = min(got, want)
        near = abs(stats.poisson.sf(m, rate) - 1e-4) <= (float(pmf_bound(m + 1, rate)[0]) + (np.sqrt(rate) + 8.0) * eps) * 1e-4
        assert got == want or near, (k, rate, got, want)


def test_hurwitz_zeta_within_1e14_of_scipy():
    rng = np.random.default_rng(11)
    for a in np.r_[1.0 + 1e-6, 1.001, 1.5, 2.0, rng.uniform(1.0, 12.0, 40), 12.0]:
        for q in (*range(1, 21), 50, 100, 1000, 12_345, 10**5, 10**6):
            want = float(special.zeta(a, q))
            assert abs(hurwitz_zeta(a, q) - want) <= 1e-14 * want, (a, q)


@pytest.mark.parametrize(
    "law",
    [
        TailLaw("pareto", 1.0, 0.7),
        TailLaw("pareto", 2.0, 1.0),
        TailLaw("pareto", 1.0, 1.5),
        TailLaw("pareto", 0.5, 2.5),
        TailLaw("exponential", 2.0),
        TailLaw("deterministic", 3.0),
    ],
)
def test_truncated_mean_is_the_integrated_tail(law):
    for c in (0.25, 1.0, 2.9, 3.0, 7.5, 400.0):
        kinks = [law.scale] if law.scale < c else None
        want = integrate.quad(law.tail, 0.0, c, points=kinks, limit=200, epsabs=0.0, epsrel=1e-12)[0]
        assert law.truncated_mean(c) == pytest.approx(want, rel=1e-10), c
