import numpy as np
import pytest
from scipy import stats

from bigjump.errors import ConfigurationError
from bigjump.laws import (
    JointMarkSpec,
    TailLaw,
    WaitLaw,
    empirical_tail_ratio,
    mb_mass_tail_bracket,
    mean_ceil,
)
from bigjump.streams import substream

from .oracles import lattice_cdf_oracle


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
    b = simulate_batch("hawkes", n, spec, exp_wait, rng, x0=np.full(n, 40.0))
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


def test_empirical_tail_ratio_self_consistency(pareto15):
    x = pareto15.sample(substream(12, "r"), 400_000)
    grid = np.array([2.0, 4.0, 8.0])
    ratios = empirical_tail_ratio(x, pareto15, grid)
    np.testing.assert_allclose(ratios, 1.0, rtol=0.05)


def test_empirical_tail_ratio_scaling(pareto15):
    x = 2.0 * pareto15.sample(substream(13, "r2"), 400_000)
    grid = np.array([4.0, 8.0])
    ratios = empirical_tail_ratio(x, pareto15, grid)
    np.testing.assert_allclose(ratios, 2.0**1.5, rtol=0.05)


def test_empirical_tail_ratio_below_support(pareto15):
    x = pareto15.sample(substream(14, "r3"), 1000)
    assert empirical_tail_ratio(x, pareto15, [0.5])[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        empirical_tail_ratio(np.array([]), pareto15, [1.0])


LATTICE_SPECS = [
    (JointMarkSpec(TailLaw("pareto", 1.0, 1.5), "independent_light_k", k_param=1.0), 34.66),
    (JointMarkSpec(TailLaw("pareto", 1.0, 1.5), "independent_light_k", k_param=2.0), 34.66),
    (JointMarkSpec(TailLaw("exponential", 1.0), "independent_light_k", k_param=2.0), 12.0),
    (JointMarkSpec(TailLaw("pareto", 1.0, 1.5), "comonotone", k_param=0.5), 34.66),
    (JointMarkSpec(TailLaw("exponential", 1.0), "comonotone", k_param=2.0), 9.0),
]


@pytest.mark.parametrize("spec, u", LATTICE_SPECS)
def test_lattice_bracket_matches_space_domain_oracle(spec, u):
    # the transform pair against Panjer's recursion (Poisson counts) or
    # explicit convolution powers (comonotone counts), rounding by rounding
    for m in (512, 2048):
        lo, hi, err = mb_mass_tail_bracket(spec, u, m)
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
        lo, hi, err = mb_mass_tail_bracket(spec, u, m)
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
    lo, hi, err = mb_mass_tail_bracket(spec, u, 4096)
    assert lo - err <= exact <= hi + err and hi - lo < 0.02 * exact, (lo, exact, hi)
    # point-mass marks: D = 1.3 (N + 1) > 7 iff N >= 5
    spec = JointMarkSpec(TailLaw("deterministic", 1.3), "independent_light_k", k_param=3.0)
    lo, hi, err = mb_mass_tail_bracket(spec, 7.0, 1024)
    assert lo - err <= float(stats.poisson.sf(4, 3.0)) <= hi + err
    # comonotone point masses: D = 1.3 (1 + ceil(2 * 1.3)) = 5.2 exactly
    spec = JointMarkSpec(TailLaw("deterministic", 1.3), "comonotone", k_param=2.0)
    assert mb_mass_tail_bracket(spec, 5.0, 1024)[0] == pytest.approx(1.0, abs=1e-9)
    assert mb_mass_tail_bracket(spec, 5.5, 1024)[1] == pytest.approx(0.0, abs=1e-9)


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
    # the control variates' tails: P(D > f top) at fractions f of the top of
    # one lattice, as splitting takes them on [0, u/4], [0, u] and [0, 8u]
    spec = JointMarkSpec(law, "independent_light_k", k_param=nu)
    m = 1024
    fractions = np.array([0.1875, 0.25, 0.375, 0.5, 0.75, 1.0])
    cells = (m * fractions).astype(np.int64)
    for top in (0.25 * u, u, 8.0 * u):
        lo, hi, err = mb_mass_tail_bracket(spec, top, m, cells)
        want_lo = 1.0 - lattice_cdf_oracle(spec, top, m, up=False, cells=cells)
        want_hi = 1.0 - lattice_cdf_oracle(spec, top, m, up=True, cells=cells)
        np.testing.assert_allclose(lo, want_lo, rtol=0, atol=1e-10)
        np.testing.assert_allclose(hi, want_hi, rtol=0, atol=1e-10)
        assert np.all(lo <= hi + 1e-12) and err < 1e-6
        # the top level is the one-level bracket
        one = mb_mass_tail_bracket(spec, top, m)
        assert abs(lo[-1] - one[0]) <= 1e-14 and abs(hi[-1] - one[1]) <= 1e-14


def test_lattice_bracket_refuses_heavy_counts():
    spec = JointMarkSpec(TailLaw("exponential", 1.0), "heavy_k_light_x", k_param=2.0, k_alpha=1.5)
    with pytest.raises(ValueError, match="heavy_k_light_x"):
        mb_mass_tail_bracket(spec, 10.0, 512)


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
