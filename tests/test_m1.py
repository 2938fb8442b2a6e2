import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

import bigjump.m1
from bigjump.m1 import (
    _cheb,
    _discrete_frechet,
    _free_space_reachable,
    _FreeSpace,
    _time_band,
    completed_graph,
    m1_distance,
    m1_distance_bracket,
    uniform_distance,
)
from bigjump.events import DkProxy
from bigjump.paths import CadlagPath, build_jump_path, dk_skeleton, kth_largest_jump, path_sup
from bigjump.streams import substream
from .conftest import edge_jump_lists, random_jump_path
from .oracles import (
    bisection_bracket_plain,
    brute_force_m1,
    completed_graph_loop,
    discrete_frechet_linf,
    free_space_decision,
)


def test_completed_graph_continuous():
    p = CadlagPath(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.5]), np.array([0.0, 1.0, 0.5]))
    g = completed_graph(p)
    np.testing.assert_allclose(g, [[0, 0], [0.5, 1], [1, 0.5]])


def test_completed_graph_single_jump():
    p = build_jump_path(np.array([0.5]), np.array([3.0]))
    g = completed_graph(p)
    np.testing.assert_allclose(g, [[0, 0], [0.5, 0], [0.5, 3], [1, 3]])


def test_completed_graph_matches_node_by_node_loop():
    # the interleaved array build against the loop it replaced, byte for byte
    rng = np.random.default_rng(29)
    for times, sizes in edge_jump_lists(rng):
        p = build_jump_path(times, sizes)
        g, want = completed_graph(p), completed_graph_loop(p)
        assert g.shape == want.shape and g.dtype == want.dtype and g.tobytes() == want.tobytes()


def test_graph_vertex_count_structure():
    rng = substream(0, "g")
    for _ in range(1000):
        p = random_jump_path(rng)
        g = completed_graph(p)
        n_jumps = int(np.count_nonzero(p.jump_sizes()))
        assert len(g) == p.n_nodes + n_jumps


def test_identity_distance_zero():
    rng = substream(1, "id")
    for _ in range(50):
        p = random_jump_path(rng)
        assert m1_distance(p, p) <= 1e-9


def test_equal_time_jumps_height_difference():
    p1 = build_jump_path(np.array([0.5]), np.array([1.0]))
    p2 = build_jump_path(np.array([0.5]), np.array([2.0]))
    assert m1_distance(p1, p2) == pytest.approx(1.0, abs=1e-9)
    d, bound = brute_force_m1(p1, p2)
    assert abs(1.0 - d) <= max(1e-6, bound)


def test_jump_cluster_approximates_single_jump():
    delta = 0.05
    p1 = build_jump_path(np.array([0.3, 0.3 + delta]), np.array([1.0, 1.0]))
    p2 = build_jump_path(np.array([0.3]), np.array([2.0]))
    d = m1_distance(p1, p2)
    assert d <= delta + 1e-9
    oracle, bound = brute_force_m1(p1, p2, h=0.01)
    assert abs(d - oracle) <= max(1e-6, bound)


def test_time_shift_equal_heights():
    rng = substream(2, "shift")
    for _ in range(20):
        a = 1.0 + 2.0 * rng.random()
        t0 = 0.2 + 0.3 * rng.random()
        dt = min(0.9 * a, 0.4) * rng.random()
        p1 = build_jump_path(np.array([t0]), np.array([a]))
        p2 = build_jump_path(np.array([t0 + dt]), np.array([a]))
        d = m1_distance(p1, p2)
        oracle, bound = brute_force_m1(p1, p2, h=0.01)
        assert abs(d - oracle) <= max(1e-6, bound)
        assert d == pytest.approx(dt, abs=2e-9)


def test_oracle_agreement_random_pairs():
    rng = substream(3, "orc")
    for _ in range(40):
        p1 = random_jump_path(rng)
        p2 = random_jump_path(rng)
        d = m1_distance(p1, p2)
        oracle, bound = brute_force_m1(p1, p2, h=0.02)
        assert d <= oracle + 1e-9  # discrete matching can only overshoot
        assert abs(d - oracle) <= max(1e-6, bound)


def test_metric_axioms_sample():
    rng = substream(4, "ax")
    tol = 1e-9
    for _ in range(100):
        p1, p2, p3 = (random_jump_path(rng, max_jumps=5) for _ in range(3))
        d12 = m1_distance(p1, p2, tol)
        d21 = m1_distance(p2, p1, tol)
        assert d12 == d21  # symmetric by construction
        assert m1_distance(p1, p1, tol) <= tol
        d13 = m1_distance(p1, p3, tol)
        d23 = m1_distance(p2, p3, tol)
        assert d13 <= d12 + d23 + 2 * tol


def test_dominated_by_uniform_metric():
    rng = substream(5, "dom")
    for _ in range(200):
        p1 = random_jump_path(rng)
        p2 = random_jump_path(rng)
        assert m1_distance(p1, p2) <= uniform_distance(p1, p2) + 1e-9


def test_bracket_contains_distance():
    p1 = build_jump_path(np.array([0.2]), np.array([1.0]))
    p2 = build_jump_path(np.array([0.6]), np.array([1.2]))
    lo, hi = m1_distance_bracket(p1, p2, 1e-9)
    assert hi - lo <= 1e-9
    assert lo <= m1_distance(p1, p2) <= hi
    with pytest.raises(ValueError):
        m1_distance(p1, p2, tol=0.0)


def test_bracket_rejects_nonfinite_tol():
    # a nan tol skipped the bisection and gave the bracket [0, 1]
    p1 = build_jump_path(np.array([0.2]), np.array([1.0]))
    p2 = build_jump_path(np.array([0.6]), np.array([1.2]))
    for tol in (np.nan, np.inf, -np.inf, -1e-9):
        with pytest.raises(ValueError, match="finite and positive"):
            m1_distance_bracket(p1, p2, tol)


def test_kth_largest_jump():
    p = build_jump_path(np.array([0.2, 0.5, 0.8]), np.array([3.0, 1.0, 2.0]))
    assert kth_largest_jump(p, 1) == 3.0
    assert kth_largest_jump(p, 2) == 2.0
    assert kth_largest_jump(p, 3) == 1.0
    assert kth_largest_jump(p, 4) == 0.0
    continuous = CadlagPath(np.array([0.0, 1.0]), np.array([0.0, 2.0]), np.array([0.0, 2.0]))
    assert kth_largest_jump(continuous, 1) == 0.0
    with pytest.raises(ValueError):
        kth_largest_jump(p, 0)


def test_kth_largest_matches_sorted_scan():
    rng = substream(6, "kth")
    for _ in range(1000):
        p = random_jump_path(rng, max_jumps=6)
        sizes = sorted((abs(s) for s in p.jump_sizes() if s != 0.0), reverse=True)
        want = sizes[0] if sizes else 0.0
        assert kth_largest_jump(p, 1) == pytest.approx(want)


def test_dk_skeleton_selection():
    p = build_jump_path(np.array([0.2, 0.5, 0.8]), np.array([3.0, 1.0, 2.0]))
    s1 = dk_skeleton(p, 1)
    kept = s1.jump_sizes()[s1.jump_sizes() > 0]
    assert sorted(kept.tolist()) == [2.0, 3.0]
    assert s1.t[np.flatnonzero(s1.jump_sizes() > 0)].tolist() == [0.2, 0.8]
    single = build_jump_path(np.array([0.4]), np.array([2.0]))
    s0 = dk_skeleton(single, 0)
    assert np.array_equal(s0.t, single.t)


def test_dk_skeleton_tie_keeps_earlier():
    p = build_jump_path(np.array([0.3, 0.7]), np.array([2.0, 2.0]))
    s = dk_skeleton(p, 0)
    assert s.t[np.flatnonzero(s.jump_sizes() > 0)].tolist() == [0.3]


def test_skeleton_distance_bounded_by_dropped_mass():
    rng = substream(7, "skel")
    for _ in range(1000):
        p = random_jump_path(rng, max_jumps=6)
        for k in (0, 1, 2):
            skel = dk_skeleton(p, k)
            sizes = np.sort(np.abs(p.jump_sizes()))[::-1]
            dropped = sizes[k + 1 :].sum()
            assert m1_distance(p, skel) <= dropped + 1e-8


def test_dk_proxy():
    p = build_jump_path(np.array([0.5]), np.array([5.0]))
    assert DkProxy(0, 2.0).decide(p)  # 5 > 4
    assert not DkProxy(0, 2.6).decide(p)
    continuous = CadlagPath(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    for k in (0, 1, 3):
        assert not DkProxy(k, 0.1).decide(continuous)
    with pytest.raises(ValueError):
        DkProxy(0, 0.0).decide(p)


def test_proxy_consistent_with_skeleton_gap():
    rng = substream(8, "proxy")
    for _ in range(300):
        p = random_jump_path(rng, max_jumps=6)
        for k in (0, 1):
            if DkProxy(k, 0.3).decide(p):
                # more than k+1 meaningful jumps exist, so dropping to k leaves mass
                assert kth_largest_jump(p, k + 1) > 0.6
                assert m1_distance(p, dk_skeleton(p, k)) >= 0.0


def test_constant_paths_distance():
    a = CadlagPath(np.array([0.0, 1.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    b = CadlagPath(np.array([0.0, 1.0]), np.array([2.5, 2.5]), np.array([2.5, 2.5]))
    assert m1_distance(a, b) == pytest.approx(1.5, abs=1e-9)


def test_oracle_agreement_signed_jumps():
    rng = substream(55, "neg")
    for _ in range(30):
        n1, n2 = rng.integers(0, 5, 2)
        p1 = build_jump_path(rng.random(n1), rng.random(n1) * 6.0 - 3.0)
        p2 = build_jump_path(rng.random(n2), rng.random(n2) * 6.0 - 3.0)
        d = m1_distance(p1, p2)
        oracle, bound = brute_force_m1(p1, p2, h=0.02)
        assert d <= oracle + 1e-9
        assert abs(d - oracle) <= max(1e-6, bound)


def _nearby_pair(seed: int = 2024, jumps: int = 100):
    """Two centered jump paths of 500 and 480 graph vertices: the second
    re-times and rescales the jumps of the first by a little."""
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.01, 0.99, jumps)
    sizes = 1.0 + rng.pareto(1.5, jumps)
    times2 = times + 3e-4 * rng.standard_normal(jumps)
    sizes2 = sizes * (1.0 + 1e-2 * rng.standard_normal(jumps))

    def path(jt, js, grid):
        order = np.argsort(jt)
        jt, js = jt[order], js[order]
        t = np.union1d(np.linspace(0.0, 1.0, grid + 1), jt)
        cum = np.r_[0.0, np.cumsum(js)]
        drift = js.sum() * (0.7 * t + 0.3 * np.sin(0.5 * np.pi * t))
        left = cum[np.searchsorted(jt, t, side="left")] - drift
        right = cum[np.searchsorted(jt, t, side="right")] - drift
        return CadlagPath(t, left, right)

    return path(times, sizes, 299), path(times2, sizes2, 279)


# m1_distance_bracket of _nearby_pair() at tol 1e-9, recorded before the
# free-space decision became array code
GOLDEN_NEARBY_BRACKET = "(0.2888385507753685, 0.2888385512787425)"


def test_bracket_golden_on_nearby_pair():
    p1, p2 = _nearby_pair()
    assert (len(completed_graph(p1)), len(completed_graph(p2))) == (500, 480)
    assert repr(m1_distance_bracket(p1, p2, 1e-9)) == GOLDEN_NEARBY_BRACKET


def _just_below(x: float) -> float:
    return float(np.nextafter(x, -np.inf))


def test_decision_one_vertex_graph():
    point = np.array([[0.5, 1.0]])
    line = np.array([[0.0, 0.0], [0.3, 1.5], [1.0, 2.0]])
    # the single vertex is matched with the whole polyline: the decision is
    # the farthest vertex, here (1, 2) at max(0.5, 1) = 1
    for g1, g2 in ((point, line), (line, point)):
        assert _free_space_reachable(g1, g2, 1.0)
        assert not _free_space_reachable(g1, g2, _just_below(1.0))
    assert _free_space_reachable(point, point, 0.0)


def test_decision_vertical_against_horizontal_only():
    vertical = np.array([[0.5, 0.0], [0.5, 0.4], [0.5, 1.0]])
    horizontal = np.array([[0.0, 0.5], [0.6, 0.5], [1.0, 0.5]])
    # (0.5, s) matched with (s, 0.5) stays within 0.5, which the endpoints
    # already need: every edge of the free space is flat in one coordinate
    for g1, g2 in ((vertical, horizontal), (horizontal, vertical)):
        assert _free_space_reachable(g1, g2, 0.5)
        assert not _free_space_reachable(g1, g2, _just_below(0.5))


def test_decision_at_endpoint_distance():
    a = CadlagPath(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0]))
    b = CadlagPath(np.array([0.0, 1.0]), np.array([1.5, 1.5]), np.array([1.5, 1.5]))
    g1, g2 = completed_graph(a), completed_graph(b)
    # eps equal to the endpoint gap is free on every edge, boundaries included
    assert _free_space_reachable(g1, g2, 1.5)
    assert not _free_space_reachable(g1, g2, _just_below(1.5))
    # a path that leaves the band only in the interior: endpoints 1.5 apart,
    # a dip 2 apart
    c = CadlagPath(np.array([0.0, 0.5, 1.0]), np.array([0.0, -0.5, 0.0]), np.array([0.0, -0.5, 0.0]))
    assert not _free_space_reachable(completed_graph(c), g2, 1.5)
    assert _free_space_reachable(completed_graph(c), g2, 2.0)
    assert m1_distance_bracket(a, b) == (1.5, 1.5)


def _random_graph(rng: np.random.Generator) -> np.ndarray:
    """Polyline with nondecreasing times on a coarse grid, so that vertical
    and horizontal segments, repeated vertices and exact ties all occur."""
    k = int(rng.integers(1, 9))
    t = np.sort(rng.integers(0, 6, k)) / 5.0
    z = rng.integers(-4, 5, k) / 4.0
    return np.column_stack([t, z])


def _check_corridors(g1: np.ndarray, g2: np.ndarray, epss: np.ndarray, expect: dict) -> int:
    """Seed a space at each eps that decides "yes", then decide every lower
    eps in it, cutting it to the cells each "yes" entered as the bracket
    does; every answer must be the reference's, and so must every answer
    of one sweep over all the lower eps in each cut space.  Then the
    bracket's batched way: one sweep over every lower eps, in a space wider
    than the eps it decides, and a cut from the smallest "yes" among them.
    Returns how many decisions ran in a space cut at least twice."""
    epss = sorted(set(epss.tolist()), reverse=True)
    twice = 0
    for k, top in enumerate(epss):
        space = _FreeSpace(g1, g2)
        if not _free_space_reachable(g1, g2, top, space):
            continue
        cuts, last = 0, True
        for at in range(k + 1, len(epss)):
            eps, below = epss[at], epss[at:]
            rows = space.entered_rows() if last else None
            if rows is not None:
                space, cuts = _FreeSpace(g1, g2, rows), cuts + 1
                got = _free_space_reachable(g1, g2, np.array(below), _FreeSpace(g1, g2, rows, len(below)))
                assert got.tolist() == [expect[e] for e in below], (g1, g2, top, below, cuts)
            last = _free_space_reachable(g1, g2, eps, space)
            assert last == expect[eps], (g1, g2, top, eps, cuts)
            twice += cuts >= 2
        space, below = _FreeSpace(g1, g2, width=len(epss) + 2), epss[k + 1 :]
        while below:
            answers = _free_space_reachable(g1, g2, np.array(below), space).tolist()
            assert answers == [expect[e] for e in below], (g1, g2, top, below)
            if True not in answers:
                break
            e = len(answers) - 1 - answers[::-1].index(True)  # the smallest "yes"
            rows, below = space.entered_rows(e), below[e + 1 :]
            if rows is None:
                break
            space = _FreeSpace(g1, g2, rows, len(below) + 2)
    return twice


def test_decision_matches_cell_by_cell_reference():
    rng = np.random.default_rng(31)
    twice = 0
    for _ in range(600):
        g1, g2 = _random_graph(rng), _random_graph(rng)
        gaps = np.abs(g1[:, None, :] - g2[None, :, :]).ravel()
        epss = np.r_[rng.choice(gaps, 4), rng.random(3) * 2.0, 1e-3]
        expect = {eps: free_space_decision(g1, g2, eps) for eps in epss.tolist()}
        for eps in epss:
            assert _free_space_reachable(g1, g2, eps) == expect[eps], (g1, g2, eps)
        # one sweep decides the whole set as the scalar decisions do, also
        # in the time band of its largest eps
        want = [expect[eps] for eps in epss.tolist()]
        assert _free_space_reachable(g1, g2, epss).tolist() == want, (g1, g2)
        if min(len(g1), len(g2)) > 1 and max(_cheb(g1[0], g2[0]), _cheb(g1[-1], g2[-1])) <= epss.max():
            band = _FreeSpace(g1, g2, _time_band(g1, g2, epss.max()), len(epss))
            assert _free_space_reachable(g1, g2, epss, band).tolist() == want, (g1, g2)
        # the discrete Frechet bound is the oracle's DP, and the M1 decision holds at it
        bound = _discrete_frechet(g1, g2)
        assert bound == discrete_frechet_linf(g1, g2), (g1, g2)
        assert free_space_decision(g1, g2, bound), (g1, g2, bound)
        if min(len(g1), len(g2)) > 1:
            twice += _check_corridors(g1, g2, epss, expect)
    assert twice > 100  # spaces cut twice or more did occur


def test_time_band_keeps_the_cells_close_in_time():
    rng = np.random.default_rng(37)
    for _ in range(300):
        g1, g2 = _random_graph(rng), _random_graph(rng)
        n, m = len(g1) - 1, len(g2) - 1
        if min(n, m) < 1:
            continue
        eps = float(rng.choice([0.0, 0.1, 0.2, 0.5, 2.0]))
        first, stop = _time_band(g1, g2, eps)
        for k in range(n + m - 1):
            close = [i for i in range(max(0, k - m + 1), min(k, n - 1) + 1)
                     if max(g2[k - i, 0] - g1[i + 1, 0], g1[i, 0] - g2[k - i + 1, 0]) <= eps + 1e-9]
            assert close == list(range(first[k], stop[k])), (g1, g2, eps, k)


def test_decision_refuses_more_eps_than_its_space_holds():
    g = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="2 eps for a space of width 1"):
        _free_space_reachable(g, g, np.array([0.5, 1.0]), _FreeSpace(g, g))


def _spy_decisions(monkeypatch) -> list:
    """Record (g1, g2, eps, answer, space, sweep) of every eps the bracket
    decides; ``sweep`` numbers the calls, each of which decides one eps or
    an array of them in one sweep."""
    calls, sweeps = [], itertools.count()
    decide = bigjump.m1._free_space_reachable

    def spy(g1, g2, eps, space=None):
        answer, sweep = decide(g1, g2, eps, space), next(sweeps)
        calls.extend((g1, g2, e, a, space, sweep) for e, a in zip(np.atleast_1d(eps), np.atleast_1d(answer)))
        if sweep >= 500:
            raise RuntimeError("the bisection does not end")
        return answer

    monkeypatch.setattr(bigjump.m1, "_free_space_reachable", spy)
    return calls


def test_bracket_decisions_match_reference(monkeypatch):
    # every decision in a corridor cut by the bracket is the full decision
    calls = _spy_decisions(monkeypatch)
    rng = substream(101, "c1-pairs")
    for _ in range(200):
        p1 = random_jump_path(rng, max_jumps=4, height=5.0)
        p2 = random_jump_path(rng, max_jumps=4, height=5.0)
        m1_distance_bracket(p1, p2, 1e-9)
    assert sum(space.cells < (len(g1) - 1) * (len(g2) - 1) for g1, g2, *_, space, _ in calls) > 50
    for g1, g2, eps, answer, *_ in calls:
        assert answer == free_space_decision(g1, g2, eps), (g1, g2, eps)


def test_bracket_settles_at_lower_bound(monkeypatch):
    # the distance is the endpoint gap 0.2 while the uniform distance is 1:
    # the first decision, a "yes" at the lower bound, settles it
    calls = _spy_decisions(monkeypatch)
    p1 = build_jump_path(np.array([0.5]), np.array([1.0]))
    p2 = build_jump_path(np.array([0.52]), np.array([1.2]))
    lo, hi = m1_distance_bracket(p1, p2, 1e-9)
    assert lo == hi == abs(1.2 - 1.0)
    assert [eps for _, _, eps, *_ in calls] == [lo]


def test_bracket_ends_below_float_spacing(monkeypatch):
    # a tol below the spacing of floats at the distance used to bisect forever
    calls = _spy_decisions(monkeypatch)
    flat = CadlagPath(np.array([0.0, 0.5, 1.0]), np.zeros(3), np.zeros(3))
    tent = CadlagPath(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.1, 0.0]), np.array([0.0, 0.1, 0.0]))
    for tol in (1e-20, 1e-300):
        calls.clear()
        lo, hi = m1_distance_bracket(flat, tent, tol)
        assert lo < hi == 0.1 and np.nextafter(lo, np.inf) == hi
        assert len(calls) < 100


def _c1_pairs() -> list:
    """The 200 random pairs of the c1 check, then _nearby_pair()."""
    rng = substream(101, "c1-pairs")
    pairs = [(random_jump_path(rng, max_jumps=4, height=5.0), random_jump_path(rng, max_jumps=4, height=5.0))
             for _ in range(200)]
    return pairs + [_nearby_pair()]


def test_frechet_bound_leaves_brackets_unchanged(monkeypatch):
    # settling every eps at or above the bound changes no bracket: the same
    # brackets come out with the bound disabled (inf, the bisection alone)
    pairs = _c1_pairs()
    with_bound = [m1_distance_bracket(p1, p2, 1e-9) for p1, p2 in pairs]
    monkeypatch.setattr(bigjump.m1, "_discrete_frechet", lambda g1, g2: np.inf)
    assert [m1_distance_bracket(p1, p2, 1e-9) for p1, p2 in pairs] == with_bound


def test_bracket_equals_plain_bisection():
    # the bound, the corridors and the batched sweeps change no bracket: each
    # is the one of a sequential bisection with scalar full-space decisions
    for p1, p2 in _c1_pairs():
        got, want = m1_distance_bracket(p1, p2, 1e-9), bisection_bracket_plain(p1, p2, 1e-9)
        assert repr(got) == repr(want), (p1, p2)


def test_bracket_sweeps_fewer_than_half_its_eps(monkeypatch):
    # one corridor sweep decides the midpoints of several bisection levels
    calls = _spy_decisions(monkeypatch)
    assert repr(m1_distance_bracket(*_nearby_pair(), 1e-9)) == GOLDEN_NEARBY_BRACKET
    sweeps = {sweep for *_, sweep in calls}
    assert 2 * len(sweeps) < len(calls)


def test_bracket_leaves_the_time_band_after_a_no_at_the_bound(monkeypatch):
    # a bound deciding "no" settles nothing, and the eps above it need the
    # cells outside its time band: the bisection goes on in the full space
    monkeypatch.setattr(bigjump.m1, "_discrete_frechet", lambda g1, g2: 0.1)
    calls = _spy_decisions(monkeypatch)
    assert repr(m1_distance_bracket(*_nearby_pair(), 1e-9)) == GOLDEN_NEARBY_BRACKET
    (g1, g2, eps, answer, band, _), (*_, lo, _, full, _) = calls[:2]
    assert (eps, answer) == (0.1, False) and band.cells < full.cells == (len(g1) - 1) * (len(g2) - 1)
    assert lo < 0.1


# m1_distance_bracket at tol 1e-9 on perfbench/m1_reference.make_pair(seed),
# the inputs of the benchmark's m1-pair workload, recorded before one sweep
# decided several eps
M1_PAIR_BRACKETS = {
    1: "(0.014127586968243122, 0.014127587899565697)",
    2: "(0.009792285971343517, 0.009792286902666092)",
    903: "(0.012567526660859583, 0.012567527592182158)",
}


def test_m1_pair_workload_brackets_pinned():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "m1_reference.py"
    spec = importlib.util.spec_from_file_location("m1_reference", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    for seed, want in M1_PAIR_BRACKETS.items():
        p1, p2 = (CadlagPath(*table) for table in reference.make_pair(seed))
        assert repr(m1_distance_bracket(p1, p2, 1e-9)) == want, seed


def test_frechet_bound_settles_decisions_above_it(monkeypatch):
    events = []
    frechet, init = bigjump.m1._discrete_frechet, _FreeSpace.__init__

    def bound_spy(g1, g2):
        events.append(("bound", frechet(g1, g2)))
        return events[-1][1]

    def init_spy(self, *args, **kwargs):
        events.append(("space", None))
        init(self, *args, **kwargs)

    monkeypatch.setattr(bigjump.m1, "_discrete_frechet", bound_spy)
    monkeypatch.setattr(_FreeSpace, "__init__", init_spy)
    calls = _spy_decisions(monkeypatch)
    p1, p2 = _nearby_pair()
    m1_distance_bracket(p1, p2, 1e-9)
    # the bound's table is freed before the first space is built
    assert [kind for kind, _ in events[:2]] == ["bound", "space"]
    assert [kind for kind, _ in events].count("bound") == 1
    bound = events[0][1]
    above = [eps for _, _, eps, *_ in calls if eps >= bound]
    assert above == [bound]  # one real decision at the bound, then none above it
    decisions = len(calls)
    calls.clear()
    monkeypatch.setattr(bigjump.m1, "_discrete_frechet", lambda g1, g2: np.inf)
    m1_distance_bracket(p1, p2, 1e-9)
    assert decisions < len(calls)


def test_uniform_distance_refuses_values_near_float_max():
    # +/-1e308 differ by more than the largest float: the difference
    # overflowed; both public distances now refuse such paths in one line
    up, down = (build_jump_path(np.array([0.5]), np.array([v])) for v in (1e308, -1e308))
    for distance in (uniform_distance, m1_distance_bracket):
        with pytest.raises(ValueError) as info:
            distance(up, down)
        assert str(info.value) == "path values must lie within +/-4.4942e+307, a quarter of the largest float"
    limit = bigjump.m1._VALUE_LIMIT
    at_limit = build_jump_path(np.array([0.5]), np.array([limit]))
    assert uniform_distance(at_limit, build_jump_path(np.array([0.5]), np.array([-limit]))) == 2 * limit
