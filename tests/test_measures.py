import math

import numpy as np
import pytest

from bigjump import measures
from bigjump.errors import ConfigurationError
from bigjump.events import DkProxy, JumpCount, SupExceed, TerminalExceed, ValueAt
from bigjump.laws import JointMarkSpec, TailLaw, mean_ceil
from bigjump.measures import (
    LimitMeasure,
    _excess_mass,
    measure_for_model,
    mu_bar_tail,
    mu_sharp,
    mu_tail,
    order_prefactor,
)
from bigjump.streams import substream

from .oracles import pareto_pair_tail, sobol_excess_mass


def test_constants_per_model(pareto15):
    ind = measure_for_model("mb", JointMarkSpec(pareto15, "independent_light_k", k_param=2.0))
    assert ind.constant == pytest.approx(3.0)
    assert ind.model == "MB-independent"

    halfphi = JointMarkSpec(pareto15, "independent_light_k", phi=1.0 / 6.0)
    hawkes = measure_for_model("hawkes", halfphi)
    assert hawkes.constant == pytest.approx((1.0 / 0.5) * (1.0 + 0.5 / 0.5) ** 1.5)

    como = measure_for_model("mb", JointMarkSpec(pareto15, "comonotone", k_param=1.0))
    assert como.constant == pytest.approx((1.0 + 3.0) ** 1.5 + mean_ceil(1.0, pareto15))


def test_no_constant_for_heavy_k():
    light = TailLaw("exponential", 1.0)
    spec = JointMarkSpec(light, "heavy_k_light_x", k_param=1.0, k_alpha=2.0)
    with pytest.raises(ConfigurationError):
        measure_for_model("mb", spec)
    with pytest.raises(ConfigurationError):
        measure_for_model("mb", JointMarkSpec(light, "independent_light_k", k_param=1.0))


def test_mu_tail_values(pareto15):
    m = measure_for_model("mb", JointMarkSpec(pareto15, "independent_light_k", k_param=0.0))
    assert mu_tail(m, 1.0) == pytest.approx(1.0)
    assert mu_tail(m, 2.0) / mu_tail(m, 1.0) == pytest.approx(2.0**-1.5, rel=1e-14)
    with pytest.raises(ValueError):
        mu_tail(m, 0.0)


def test_mu_bar_k0_closed_form():
    m = LimitMeasure(1.5, 1.0, "MB-independent", 1.0)
    assert mu_bar_tail(m, 1.0, 0, 4.0) == pytest.approx(0.125)
    m3 = LimitMeasure(1.5, 3.0, "MB-independent", 1.0)
    assert mu_bar_tail(m3, 1.0, 0, 1.0) == pytest.approx(3.0)
    assert mu_bar_tail(m3, 2.0, 0, 1.0) == pytest.approx(6.0)


def test_mu_bar_k1_small_c_saturates():
    m = LimitMeasure(1.5, 1.0, "MB-independent", 1.0)
    assert mu_bar_tail(m, 1.0, 1, 1e-9) == pytest.approx(0.5)  # (lam*M0)^2/2


def test_mu_bar_k1_matches_monte_carlo():
    m = LimitMeasure(1.5, 1.0, "MB-independent", 1.0)
    val = mu_bar_tail(m, 1.0, 1, 4.0)
    rng = substream(0, "mc")
    n = 10_000_000
    y1 = (1.0 - rng.random(n)) ** (-1 / 1.5)
    y2 = (1.0 - rng.random(n)) ** (-1 / 1.5)
    ind = y1 + y2 > 4.0
    mc = ind.mean() / 2.0
    se = ind.std() / np.sqrt(n) / 2.0
    assert abs(val - mc) < 3 * se


def test_mu_bar_monotonicity():
    m = LimitMeasure(1.5, 2.0, "MB-independent", 1.0)
    cs = [3.0, 5.0, 9.0, 20.0]
    vals = [mu_bar_tail(m, 1.0, 1, c) for c in cs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert mu_bar_tail(m, 2.0, 1, 5.0) > mu_bar_tail(m, 1.0, 1, 5.0)
    bigger_c = LimitMeasure(1.5, 3.0, "MB-independent", 1.0)
    assert mu_bar_tail(bigger_c, 1.0, 1, 5.0) > mu_bar_tail(m, 1.0, 1, 5.0)


def test_mu_bar_large_c_decay_slope():
    m = LimitMeasure(1.5, 1.0, "MB-independent", 1.0)
    cs = np.array([100.0, 500.0, 2000.0, 10000.0])
    vals = np.array([mu_bar_tail(m, 1.0, 1, c) for c in cs])
    slope = np.polyfit(np.log(cs), np.log(vals), 1)[0]
    assert abs(slope + 1.5) < 0.02 * 1.5


def test_mu_bar_k3_lattice_matches_sobol():
    # the k = 3 bracket's midpoint against scrambled Sobol integration,
    # within 3 of its se plus the reported half-width, prefactor 1/4!
    m = LimitMeasure(1.5, 1.0, "MB-independent", 1.0)
    val = mu_bar_tail(m, 1.0, 3, 6.0)
    [(mass, half)] = _excess_mass(m, [4], 6.0)
    err = half / 24.0
    est, se = sobol_excess_mass(m, 4, 6.0)
    assert abs(val - est / 24.0) <= 3.0 * se / 24.0 + err, (val, est / 24.0, se / 24.0, err)
    assert 0.0 < err < 1e-4 * val
    assert val == mass / 24.0 and mu_bar_tail(m, 1.0, 3, 6.0) == val
    assert _excess_mass(m, [1], 6.0) == [(6.0**-1.5, 0.0)]


@pytest.mark.parametrize("j", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("c", [8.0, 20.0, 1000.0])
def test_excess_mass_lattice_matches_sobol(j, c):
    m = LimitMeasure(1.5, 1.0, "MB-independent", 1.0)
    [(val, half)] = _excess_mass(m, [j], c)
    est, se = sobol_excess_mass(m, j, c)
    assert abs(val - est) <= 3.0 * se + half, (val, half, est, se)
    assert 0.0 < half < 1e-2 * val


@pytest.mark.parametrize("alpha, y0, c", [(3.5, 1.0, 20.0), (2.5, 0.7, 20.0), (2.5, 0.7, 100.0), (1.5, 1.0, 1000.0)])
def test_excess_mass_two_jumps_matches_adaptive_quadrature(alpha, y0, c):
    # far out, the midpoint is within 1e-4 of the exact mass, closer than
    # its half-width (mostly the round-off allowance) says
    m = LimitMeasure(alpha, 1.0, "MB-independent", y0)
    [(val, half)] = _excess_mass(m, [2], c)
    exact = m.total_mass**2 * pareto_pair_tail(y0, alpha, c)
    assert abs(val - exact) <= half, (val, half, exact)
    assert abs(val - exact) <= 1e-4 * exact


def test_excess_mass_saturates_exactly_and_stays_in_range():
    # j coordinates, each >= y0, always sum above c <= j y0
    m = LimitMeasure(2.5, 3.0, "MB-independent", 0.7)
    for j in range(1, 8):
        for c in (1e-9, 0.5 * j * 0.7, j * 0.7):
            assert _excess_mass(m, [j], c) == [(m.total_mass**j, 0.0)]
    [(val, half)] = _excess_mass(m, [5], 5 * 0.7 + 0.1)
    assert 0.0 < val < m.total_mass**5 and half > 0.0
    # far out, round-off (inside the half-width) would take the midpoint below 0
    [(val, half)] = _excess_mass(LimitMeasure(1.5, 1.0, "MB-independent", 1.0), [4], 1e12)
    assert 0.0 <= val <= 4e-18 + half and half < 1e-6


def test_value_at_builds_one_lattice(monkeypatch):
    # value_at's masses of 2..k+1 jumps share one transform; saturated and
    # single-jump masses need none
    m, calls = LimitMeasure(1.5, 1.0, "MB-independent", 1.0), []
    bracket = measures.sum_tail_bracket
    monkeypatch.setattr(measures, "sum_tail_bracket", lambda *a: calls.append(a[1]) or bracket(*a))
    mu_sharp(m, 1.0, 4, ValueAt(0.5, 6.0))
    assert calls == [[2, 3, 4, 5]]
    mu_sharp(m, 1.0, 3, ValueAt(0.5, 2.0))
    mu_sharp(m, 1.0, 0, ValueAt(0.5, 6.0))
    assert calls == [[2, 3, 4, 5]]


def test_order_prefactor_refuses_overflow():
    assert order_prefactor(2.0, 5) == 2.0**6 / 720
    assert order_prefactor(1.0, 169) == 1.0 / math.factorial(170)
    for lam, k in ((1.0, 171), (1e10, 39)):
        with pytest.raises(ValueError, match=f"k={k}$"):
            order_prefactor(lam, k)
    with pytest.raises(ValueError, match="k=171"):
        mu_sharp(LimitMeasure(1.5, 1.0, "MB-independent", 1.0), 1.0, 171, JumpCount(172, 0.5))


def test_mu_sharp_terminal_equals_mu_bar():
    m = LimitMeasure(1.5, 3.0, "MB-independent", 1.0)
    for k in (0, 1, 2):
        assert mu_sharp(m, 1.0, k, TerminalExceed(2.0)) == pytest.approx(
            mu_bar_tail(m, 1.0, k, 2.0)
        )
        # nonnegative jumps: the sup is the terminal value in the limit
        assert mu_sharp(m, 1.0, k, SupExceed(2.0)) == pytest.approx(mu_bar_tail(m, 1.0, k, 2.0))


def test_mu_sharp_value_at_factorizes():
    m = LimitMeasure(1.5, 1.0, "MB-independent", 1.0)
    c = 4.0
    assert mu_sharp(m, 1.0, 0, ValueAt(0.5, c)) == pytest.approx(0.5 * 1.0 * c**-1.5)
    assert mu_sharp(m, 2.0, 0, ValueAt(0.25, c)) == pytest.approx(0.25 * 2.0 * c**-1.5)
    assert mu_sharp(m, 1.0, 0, ValueAt(0.0, c)) == 0.0


def test_mu_sharp_value_at_the_horizon_is_terminal():
    # at s = 1 every limit jump falls before s: only the all-jumps term stays
    m = LimitMeasure(1.5, 1.0, "MB-independent", 1.0)
    for k in (1, 3, 4):
        assert mu_sharp(m, 1.0, k, ValueAt(1.0, 8.0)) == mu_bar_tail(m, 1.0, k, 8.0)
    # one limit jump needs no truncation, below the mark scale y0 = 1 too:
    # value_at:1,0.5 read the saturated mass y0^-alpha = 1 where
    # terminal_exceed:0.5 reads 0.5^-1.5
    for c in (0.5, 1.0, 4.0):
        assert mu_sharp(m, 1.0, 0, ValueAt(1.0, c)) == mu_sharp(m, 1.0, 0, TerminalExceed(c))
        assert mu_sharp(m, 1.0, 0, ValueAt(0.3, c)) == pytest.approx(0.3 * mu_bar_tail(m, 1.0, 0, c), rel=1e-15)


def test_mu_sharp_jump_count_combinatorics():
    m = LimitMeasure(1.5, 1.0, "MB-independent", 1.0)
    r = 2.0
    a = r**-1.5
    assert mu_sharp(m, 1.0, 1, JumpCount(2, r)) == pytest.approx(a**2 / 2.0)
    assert mu_sharp(m, 3.0, 1, JumpCount(2, r)) == pytest.approx(9.0 * a**2 / 2.0)
    # below the truncation level the pinned form still uses the raw tail
    assert mu_sharp(m, 1.0, 1, JumpCount(2, 0.5)) == pytest.approx((0.5**-1.5) ** 2 / 2.0)
    assert mu_sharp(m, 1.0, 1, JumpCount(3, r)) == 0.0


def test_mu_sharp_dk_proxy_reduction():
    m = LimitMeasure(1.5, 1.0, "MB-independent", 1.0)
    assert mu_sharp(m, 1.0, 1, DkProxy(1, 0.25)) == pytest.approx(
        mu_sharp(m, 1.0, 1, JumpCount(2, 0.5))
    )


def test_mu_sharp_jump_count_partial_pin_uses_truncation():
    m = LimitMeasure(1.5, 1.0, "MB-independent", 1.0)
    # one pinned jump out of two: second coordinate carries truncated mass
    val = mu_sharp(m, 1.0, 1, JumpCount(1, 2.0))
    a = 2.0**-1.5
    b = 1.0 - a  # truncated total mass M0 = 1
    assert val == pytest.approx((2 * a * b + a**2) / 2.0)


def test_speed_normalization_identity(pareto15):
    # v(x) * P(X > x*y) = y^-alpha exactly for the pure power tail
    for x in (5.0, 50.0):
        v = 1.0 / pareto15.tail(x)
        for y in (1.0, 2.0, 10.0):
            assert v * pareto15.tail(x * y) == pytest.approx(y**-1.5, rel=1e-12)


def test_mb_independent_tail_constant_monte_carlo(pareto15, mb_spec_nu2, exp_wait):
    # simulated cluster-mass tail over C * mark tail at a high quantile
    from bigjump.clusters import simulate_batch

    rng = substream(1, "t")
    n = 10_000_000
    d = np.empty(n)
    done = 0
    while done < n:
        b = min(n - done, 2_000_000)
        d[done : done + b] = simulate_batch(
            "mb", b, mb_spec_nu2, exp_wait, rng, with_offsets=False
        ).totals()
        done += b
    x = np.quantile(d, 0.9999)
    ratio = (d > x).mean() / (3.0 * pareto15.tail(x))
    assert abs(ratio - 1.0) < 0.15
