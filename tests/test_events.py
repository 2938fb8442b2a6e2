import numpy as np
import pytest

from bigjump.events import (
    SUP_BINS,
    DkProxy,
    InterpCurve,
    JumpCount,
    SupExceed,
    TerminalExceed,
    ValueAt,
    _prefix_sums,
    format_event,
    parse_event,
    rep_time_order,
)
from bigjump.paths import CadlagPath, ScalingRule, build_jump_path, centered_scaled_path

from .oracles import sup_exceed_sorted


def test_parse_format_round_trip():
    for text in (
        "terminal_exceed:1.0",
        "value_at:0.5,2.0",
        "sup_exceed:0.25",
        "jump_count:2,0.5",
        "dk_proxy:1,0.5",
    ):
        ev = parse_event(text)
        assert parse_event(format_event(ev)) == ev


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_event("nope:1")
    with pytest.raises(ValueError):
        parse_event("value_at:0.5")
    with pytest.raises(ValueError):
        parse_event("value_at:1.5,2.0")  # time outside [0,1]
    with pytest.raises(ValueError):
        parse_event("jump_count:0,1.0")
    for text in (
        "terminal_exceed:nan",
        "terminal_exceed:inf",
        "value_at:0.5,nan",
        "value_at:nan,1.0",
        "sup_exceed:nan",
        "sup_exceed:inf",
        "jump_count:2,nan",
        "jump_count:2,inf",
        "dk_proxy:0,nan",
        "dk_proxy:0,inf",
    ):
        with pytest.raises(ValueError, match="finite|lie in"):
            parse_event(text)


def test_decisions_on_simple_paths():
    p = build_jump_path(np.array([0.25, 0.75]), np.array([2.0, 1.0]))
    assert TerminalExceed(2.5).decide(p)
    assert not TerminalExceed(3.0).decide(p)
    assert ValueAt(0.5, 1.5).decide(p)
    assert not ValueAt(0.2, 1.5).decide(p)
    assert SupExceed(2.9).decide(p)
    assert JumpCount(2, 0.5).decide(p)
    assert not JumpCount(2, 1.5).decide(p)
    assert DkProxy(0, 0.9).decide(p)  # largest jump 2 > 1.8
    assert not DkProxy(1, 0.9).decide(p)


def test_continuous_path_never_proxies():
    ramp = CadlagPath(np.array([0.0, 1.0]), np.array([0.0, 5.0]), np.array([0.0, 5.0]))
    for k in (0, 1, 2):
        assert not DkProxy(k, 0.1).decide(ramp)
    assert TerminalExceed(4.0).decide(ramp)


def test_dk_separation_rules():
    assert TerminalExceed(1.0).dk_separation(0) == pytest.approx(0.5)
    assert TerminalExceed(1.0).dk_separation(1) is None
    assert ValueAt(0.5, 1.0).dk_separation(0) == pytest.approx(0.5)
    assert ValueAt(0.5, 1.0).dk_separation(2) is None
    assert SupExceed(1.0).dk_separation(0) == pytest.approx(0.5)
    assert SupExceed(0.0).dk_separation(0) is None
    assert JumpCount(2, 0.5).dk_separation(1) == pytest.approx(0.25)
    assert JumpCount(2, 0.5).dk_separation(2) is None
    assert DkProxy(1, 0.5).dk_separation(1) == pytest.approx(0.5)
    assert DkProxy(0, 0.5).dk_separation(1) is None


def test_rep_time_order_matches_lexsort(monkeypatch):
    rng = np.random.default_rng(0)
    fallbacks = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: fallbacks.append(1) or lexsort(keys))

    def check(rep, t, fallback):
        rep, t = np.asarray(rep, dtype=np.int64), np.asarray(t, dtype=float)
        fallbacks.clear()
        got = rep_time_order(rep, t)
        assert bool(fallbacks) == fallback
        assert np.array_equal(got, lexsort((t, rep)))

    n = 5000
    rep = rng.integers(0, 1024, n)
    check(rep, rng.random(n), fallback=False)
    # the same times in other replications only: keys stay distinct
    t = rng.random(64)
    check(np.repeat(np.arange(50), 64), np.tile(t, 50), fallback=False)
    # exact ties within a replication (and across)
    check(rep, rng.choice([0.0, 0.25, 0.5, 1.0], n), fallback=True)
    check([3, 3, 3, 1, 1], [0.5, 0.5, 0.2, 0.5, 0.5], fallback=True)
    # t exactly 0 and 1 at the edges of neighbouring replications
    check([1, 0, 2, 1, 0, 2], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0], fallback=False)
    # replication indices past 16 bits
    check(rng.integers(65_000, 70_000, n), rng.random(n), fallback=False)
    # near 2**40 a key step is 2**-11, so nearby times tie and fall back
    big = 2**40 + rng.integers(0, 3, n)
    check(big, rng.random(n), fallback=True)
    check([2**40, 2**40], [0.1, 0.1 + 1e-6], fallback=True)
    check([2**62, 2**62 + 1, 2**62 - 1], [0.7, 0.2, 0.9], fallback=True)
    # input already in order, as the anatomy summary passes it, with and without ties
    t = rng.random(n)
    order = lexsort((t, rep))
    check(rep[order], t[order], fallback=False)
    check([0, 0, 1], [0.5, 0.5, 0.1], fallback=True)
    # empty, one element, NaN and out-of-range times
    check([], [], fallback=True)
    check([7], [0.3], fallback=False)
    check([0, 0, 1], [0.5, np.nan, 0.1], fallback=True)
    check([0, 1], [1.5, 0.1], fallback=True)
    check([0, 1], [0.2, -0.1], fallback=True)


def test_sup_exceed_batch_matches_sorted_oracle_at_bin_edges(sup_exact_calls):
    rng = np.random.default_rng(7)
    n, B = 40, SUP_BINS
    counts = rng.poisson(300.0, n)  # dense enough for the bins
    counts[::9] = 0  # replications without jumps
    rep = np.repeat(np.arange(n), counts)
    m = rep.size
    k = rng.integers(0, B, m)
    # t = 0, 1, bin edges k/B, just below the next edge, and anywhere; the
    # discrete choices repeat, so jumps share times within a replication
    t = np.choose(
        rng.integers(0, 5, m),
        [np.zeros(m), np.ones(m), k / B, (k + 1) / B - 2.0**-40, rng.random(m)],
    )
    # dyadic sizes sum exactly in any order, so thresholds may sit on a sup
    size = np.where(rng.random(m) < 0.5, 1.0, rng.integers(1, 64, m) / 16.0)
    grid = np.linspace(0.0, 1.0, 1001)
    trend = 1.5 * 300.0 * grid  # about the mean running sum
    curves = {
        # rises by about two jumps within a bin
        "increasing": InterpCurve(grid, trend),
        # nodes off the bin edges, and dips that the sparser bins miss
        "non_monotone": InterpCurve(grid, trend + 60.0 * np.sin(40.0 * grid) + 30.0 * np.sin(333.0 * grid)),
    }
    for name, cent in curves.items():
        sup = sup_exceed_sorted(rep, t, size, n, cent, 2.0)
        # c = 0, quantiles, and thresholds that sit on a sup
        cs = (0.0, *np.quantile(sup, [0.1, 0.5, 0.9]), *sup[rng.integers(0, n, 5)])
        sup_exact_calls.clear()
        for c in cs:
            got = SupExceed(float(c)).decide_batch(rep, t, size, n, cent, 2.0)
            assert np.array_equal(got, sup > c), (name, c)
        assert sum(r for r, _ in sup_exact_calls) < len(cs) * n, name  # the bins settle some


def test_sup_exceed_lower_bound_needs_a_jump_in_the_bin():
    # a centering dip after the last jump: the bins there hold no path value
    rng = np.random.default_rng(3)
    rep = np.repeat(np.arange(2), SUP_BINS)
    t = rng.uniform(0.0, 0.25, rep.size)
    size = rng.integers(1, 16, rep.size) / 4.0
    cent = InterpCurve(np.array([0.0, 0.5, 0.6, 1.0]), np.array([0.0, 0.0, -1e3, -1e3]))
    sup = sup_exceed_sorted(rep, t, size, 2, cent, 1.0)
    for c in (*(sup - 0.5), *(sup + 0.5), 0.0):
        assert np.array_equal(SupExceed(c).decide_batch(rep, t, size, 2, cent, 1.0), sup > c)


def test_sup_exceed_margin_covers_summation_order():
    # within a bin the bins add sizes in input order, the sorted pass in time
    # order: 1 + 2**-53 + 2**-53 rounds to 1, 2**-53 + 2**-53 + 1 does not;
    # zero sizes later on make the replication dense enough for the bins
    small = 2.0**-53
    pad_t = 0.5 + np.arange(SUP_BINS) / (4 * SUP_BINS)
    rep = np.zeros(3 + SUP_BINS, dtype=np.int64)
    cent = InterpCurve(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    cases = (
        ([small, small, 1.0], [0.002, 0.003, 0.001], 1.0),
        ([1.0, small, small], [0.003, 0.001, 0.002], 1.0 + 2 * small),
    )
    for size, t, want in cases:
        size = np.concatenate([size, np.zeros(SUP_BINS)])
        t = np.concatenate([t, pad_t])
        assert sup_exceed_sorted(rep, t, size, 1, cent, 1.0)[0] == want
        for c in (0.5, 1.0, 1.5):
            assert SupExceed(c).decide_batch(rep, t, size, 1, cent, 1.0)[0] == (want > c)


def test_sup_exceed_fallback_decides_all_replications_exactly(sup_exact_calls):
    rng = np.random.default_rng(11)
    x_T = 2.0
    grid = np.linspace(0.0, 1.0, 65)
    centering = CadlagPath(grid, 3.0 * grid**2, 3.0 * grid**2)
    cent = InterpCurve(centering.t, centering.right)
    scaling = ScalingRule(1.0, x_T)

    def draw(n, m):
        return rng.integers(0, n, m), rng.random(m), rng.normal(0.5, 1.0, m)

    rep, t, signed = draw(2, 3 * SUP_BINS)
    sparse = draw(60, 300)  # fewer than SUP_BINS jumps a replication
    cases = {
        "signed": (rep, t, signed, 2),
        "sparse": (sparse[0], sparse[1], np.abs(sparse[2]), 60),
        "empty": (rep[:0], t[:0], signed[:0], 2),
    }
    for name, (r, ts, sz, n) in cases.items():
        paths = [build_jump_path(ts[r == i], sz[r == i]) for i in range(n)]
        for c in (0.0, 0.4, 1.0):
            sup_exact_calls.clear()
            got = SupExceed(c).decide_batch(r, ts, sz, n, cent, x_T)
            assert sup_exact_calls == [(n, r.size)], name
            want = [SupExceed(c).decide(centered_scaled_path(p, centering, scaling)) for p in paths]
            assert np.array_equal(got, want), (name, c)
    # no path exists past [0, 1] or with an infinite jump; the sorted oracle decides
    outside = np.where(rng.random(t.size) < 0.1, rng.uniform(-0.5, 1.5, t.size), t)
    infinite = np.where(np.arange(t.size) == 7, np.inf, np.abs(signed))
    for ts, sz in ((outside, np.abs(signed)), (t, infinite)):
        for c in (0.0, 0.4, 1.0):
            sup_exact_calls.clear()
            with np.errstate(invalid="ignore"):  # inf - inf in the running sums
                got = SupExceed(c).decide_batch(rep, ts, sz, 2, cent, x_T)
                want = sup_exceed_sorted(rep, ts, sz, 2, cent, x_T) > c
            assert sup_exact_calls == [(2, rep.size)]
            assert np.array_equal(got, want)


def test_decide_strata_equals_prefix_decisions():
    # a splitting chunk's layout: a background, then big jumps by rank, so
    # stratum m is the prefix [:ends[m]]; strata without new jumps, a chunk
    # without background, replications without jumps and jumps at t == s
    rng = np.random.default_rng(17)
    n = 50
    counts = rng.poisson(20.0, n)
    counts[::7] = 0
    bg_rep = np.repeat(np.arange(n), counts)
    ranks = [rng.integers(0, n, k) for k in (30, 0, 25, 0, 0, 40)]
    rep = np.concatenate([bg_rep, *ranks])
    m = rep.size
    t = np.where(rng.random(m) < 0.2, 0.5, rng.random(m))
    # sizes over twenty orders of magnitude, so the order of the additions shows
    size = rng.pareto(1.5, m) * 10.0 ** rng.integers(-10, 10, m)
    sizes = np.cumsum([bg_rep.size] + [r.size for r in ranks])
    grid = np.linspace(0.0, 1.0, 33)
    cent = InterpCurve(grid, 3.0 * np.sin(5.0 * grid))
    big = slice(bg_rep.size, None)
    cases = [
        (rep, t, size, sizes),
        (rep[big], t[big], size[big], sizes - bg_rep.size),
        (rep, t, size, np.zeros(3, dtype=np.int64)),
    ]
    for r, ts, sz, ends in cases:
        for e, col in zip(ends, _prefix_sums(r, sz, ends, n).T):
            assert np.array_equal(col, np.bincount(r[:e], weights=sz[:e], minlength=n))
        totals = np.bincount(r[: ends[-1]], weights=sz[: ends[-1]], minlength=n)
        cs = (*np.quantile(totals, [0.3, 0.7]), *(totals[:5] - cent(1.0)), 1e-9)
        events = [TerminalExceed(c) for c in cs if c > 0] + [ValueAt(0.5, c) for c in cs if c > 0]
        events += [SupExceed(0.0), SupExceed(float(cs[0])), JumpCount(2, 1.0), DkProxy(0, 1.0)]
        for ev in events:
            want = np.column_stack([ev.decide_batch(r[:e], ts[:e], sz[:e], n, cent, 1.0) for e in ends])
            assert np.array_equal(ev.decide_strata(r, ts, sz, ends, n, cent, 1.0), want), ev
