import io
from dataclasses import replace

import numpy as np
import pytest

from bigjump.clusters import BatchClusters
from bigjump.errors import ConfigurationError
from bigjump.events import TerminalExceed
from bigjump.harness import ExperimentConfig, draw_clusters, replication_path
from bigjump.laws import JointMarkSpec, TailLaw, WaitLaw
from bigjump.paths import (
    CadlagPath,
    ScalingRule,
    build_jump_path,
    centered_scaled_path,
    centering_hawkes,
    centering_mb,
    hawkes_centering_values_exact,
    mb_centering_values,
    path_sup,
    path_value,
    read_path_csv,
    terminal,
    write_path_csv,
)
from bigjump.streams import substream
from .oracles import quadrature_centering_oracle


ZERO = CadlagPath(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2))


def uncentered_config(spec, wait, T):
    # eta = 1: the replication path is the uncentered jump path divided by T
    return ExperimentConfig(
        model="mb", lam=1.0, T=T, eta=1.0, spec=spec, wait=wait, k=0,
        event=TerminalExceed(1.0), n_reps=100, seed=0,
    )


def one_cluster(offsets_marks):
    """Batch holding one single-generation cluster; the first (offset, mark)
    pair is the immigrant."""
    off, mark = np.array(offsets_marks, dtype=float).T
    gen = np.minimum(np.arange(off.size), 1).astype(np.int16)
    zero = np.zeros(off.size, dtype=np.int64)
    return BatchClusters(1, zero, zero, off, mark, gen, np.zeros(1, dtype=bool), mark[:1])


def test_empty_build_is_zero(mb_spec_nu0, exp_wait):
    p = build_jump_path(np.empty(0), np.empty(0))
    assert terminal(p) == 0.0 and path_sup(p) == 0.0
    assert p.n_nodes == 2
    cfg = uncentered_config(mb_spec_nu0, exp_wait, 10.0)
    _, gammas, batch = draw_clusters(replace(cfg, lam=0.0), 1, substream(0, "e"))
    q = replication_path(cfg, gammas, batch, ZERO)
    assert terminal(q) == 0.0 and path_sup(q) == 0.0
    assert q.n_nodes == 2


def test_single_jump_build(mb_spec_nu0, exp_wait):
    cfg = uncentered_config(mb_spec_nu0, exp_wait, 10.0)
    p = replication_path(cfg, np.array([5.0]), one_cluster([(0.0, 3.0)]), ZERO)
    assert path_value(p, 0.499) == 0.0
    assert path_value(p, 0.5) == pytest.approx(3.0 / 10.0)
    assert terminal(p) == pytest.approx(3.0 / 10.0)


def test_events_after_horizon_excluded(mb_spec_nu0, exp_wait):
    cfg = uncentered_config(mb_spec_nu0, exp_wait, 10.0)
    c = one_cluster([(0.0, 3.0), (100.0, 7.0), (1.0, 2.0)])
    p = replication_path(cfg, np.array([5.0]), c, ZERO)
    assert terminal(p) == pytest.approx(5.0 / 10.0)
    assert p.jump_sizes()[p.jump_sizes() > 0].tolist() == pytest.approx([0.3, 0.2])


def test_equal_times_merge():
    p = build_jump_path(np.array([0.5, 0.5, 0.2]), np.array([1.0, 2.0, 0.5]))
    sizes = p.jump_sizes()
    assert sizes[sizes > 0].tolist() == [0.5, 3.0]


def test_right_continuity_and_interpolation():
    p = build_jump_path(np.array([0.5]), np.array([2.0]))
    ts = np.array([0.0, 0.25, 0.4999999, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(p.values_at(ts), [0, 0, 0, 2, 2, 2])
    with pytest.raises(ValueError):
        path_value(p, 1.5)


def test_path_sup_matches_dense_grid():
    rng = substream(0, "sup")
    for _ in range(100):
        n = int(rng.integers(0, 5))
        p = build_jump_path(rng.random(n), rng.random(n) * 5.0 - 1.0)
        dense = p.values_at(np.linspace(0, 1, 100_001))
        assert path_sup(p) >= dense.max() - 1e-12


def test_scaling_rule_speeds(pareto15):
    s = ScalingRule(0.8, 200.0)
    assert s.x_T == pytest.approx(200.0**0.8)
    assert s.speed(pareto15) == pytest.approx(s.x_T**1.5)
    assert s.speed_prime(pareto15) == pytest.approx(s.x_T**1.5 / 200.0)
    with pytest.raises(ConfigurationError):
        ScalingRule(0.6, 200.0).validate(pareto15)  # 0.6 < 1/1.5
    ScalingRule(0.7, 200.0).validate(pareto15)


def test_centering_mb_closed_form_values(mb_spec_nu2, exp_wait):
    # independent offspring, unconditional exponential waits: exact curve
    ts = np.linspace(0, 1, 9)
    lam, T = 1.3, 40.0
    vals = mb_centering_values(lam, T, mb_spec_nu2, exp_wait, ts)
    expected = lam * ts * T * 3.0 * 3.0 - lam * 3.0 * 2.0 * 1.0 * (1.0 - np.exp(-ts * T))
    np.testing.assert_allclose(vals, expected, rtol=1e-12)
    assert vals[0] == 0.0


def test_centering_mb_zero_offspring_is_linear(mb_spec_nu0, exp_wait):
    ts = np.linspace(0, 1, 5)
    vals = mb_centering_values(2.0, 10.0, mb_spec_nu0, exp_wait, ts)
    np.testing.assert_allclose(vals, 2.0 * ts * 10.0 * 3.0, rtol=1e-12)


def test_centering_mb_against_quadrature_oracle(mb_spec_nu2, exp_wait):
    ts = np.linspace(0.0, 1.0, 2**14 + 1)
    vals = mb_centering_values(1.0, 50.0, mb_spec_nu2, exp_wait, ts)
    oracle = quadrature_centering_oracle(
        1.0, 50.0, 3.0, 2.0, lambda s: 1.0 - np.exp(-s), ts
    )
    assert np.abs(vals - oracle).max() < 1e-8


def test_centering_mb_comonotone_against_crude_mc(pareto15, exp_wait):
    # m(1) = lam*T * E[retained mass of one cluster with a uniform arrival]
    spec = JointMarkSpec(pareto15, "comonotone", k_param=0.5)
    lam, T = 1.0, 5.0
    val = mb_centering_values(lam, T, spec, exp_wait, np.array([1.0]))[0]
    rng = substream(1, "cmc")
    n = 200_000
    x0 = pareto15.sample(rng, n)
    k = np.ceil(0.5 * x0).astype(np.int64)
    cid = np.repeat(np.arange(n), k)
    marks = pareto15.sample(rng, cid.size)
    waits = exp_wait.sample(rng, size=cid.size)
    gam = rng.random(n) * T
    kept = marks * (gam[cid] + waits <= T)
    totals = x0 + np.bincount(cid, weights=kept, minlength=n)
    est = lam * T * totals.mean()
    se = lam * T * totals.std() / np.sqrt(n)
    assert abs(val - est) < 4 * se


def test_centering_grid_path_nondecreasing(mb_spec_nu2, exp_wait):
    path = centering_mb(1.0, 20.0, mb_spec_nu2, exp_wait, grid_n=64)
    assert np.all(np.diff(path.right) >= -1e-12)
    assert path.right[0] == 0.0


def test_centering_hawkes_matches_exact(hawkes_spec_half, exp_wait):
    path, se = centering_hawkes(1.0, 50.0, hawkes_spec_half, exp_wait, 120_000, 16, substream(2, "hc"))
    exact = hawkes_centering_values_exact(1.0, 50.0, hawkes_spec_half, exp_wait, path.t)
    z = (path.right[1:] - exact[1:]) / se[1:]
    assert np.abs(z).max() < 4.0
    assert path.right[0] == 0.0


def test_centering_hawkes_zero_fertility_linear(pareto15, exp_wait):
    spec = JointMarkSpec(pareto15, "independent_light_k", phi=0.0)
    path, se = centering_hawkes(2.0, 10.0, spec, exp_wait, 1000, 8, substream(3, "hz"))
    np.testing.assert_allclose(path.right, 2.0 * path.t * 10.0 * 3.0, rtol=1e-12)
    assert np.all(se == 0.0)


def test_centered_scaled_path_identities(mb_spec_nu0, exp_wait):
    jumps = build_jump_path(np.array([0.2, 0.7]), np.array([1.0, 4.0]))
    zero = CadlagPath(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2))
    s1 = ScalingRule(1.0, 1.0)  # x_T = 1
    out = centered_scaled_path(jumps, zero, s1)
    np.testing.assert_allclose(out.values_at(np.linspace(0, 1, 11)), jumps.values_at(np.linspace(0, 1, 11)))
    same = centered_scaled_path(jumps, jumps, s1)
    assert path_sup(same) == 0.0 and terminal(same) == 0.0


def test_centered_scaled_jump_sizes_divided(mb_spec_nu0):
    rng = substream(4, "cs")
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        p = build_jump_path(rng.random(n), rng.random(n) * 3.0)
        cent = CadlagPath(np.array([0.0, 1.0]), np.array([0.0, 0.0]), np.array([0.0, 5.0 * rng.random()]))
        for x_T in (2.0, 8.0):
            out = centered_scaled_path(p, cent, ScalingRule(1.0, x_T))
            got = np.sort(out.jump_sizes()[out.jump_sizes() > 0])
            want = np.sort(p.jump_sizes()[p.jump_sizes() > 0]) / x_T
            np.testing.assert_allclose(got, want, rtol=1e-12)


def test_scaling_homogeneity_factor_two():
    p = build_jump_path(np.array([0.3, 0.6]), np.array([2.0, 1.0]))
    cent = CadlagPath(np.array([0.0, 1.0]), np.array([0.0, 0.0]), np.array([0.0, 1.5]))
    a = centered_scaled_path(p, cent, ScalingRule(1.0, 3.0))  # x_T = 3
    b = centered_scaled_path(p, cent, ScalingRule(1.0, 6.0))  # x_T = 6
    ts = np.linspace(0, 1, 50)
    np.testing.assert_allclose(a.values_at(ts), 2.0 * b.values_at(ts), rtol=1e-12)


def test_terminal_equals_retained_mass(mb_spec_nu2, exp_wait):
    cfg = uncentered_config(mb_spec_nu2, exp_wait, 10.0)
    rng = substream(5, "cons")
    for _ in range(1000):
        T = 5.0 + 10.0 * rng.random()
        cfg = replace(cfg, T=T)
        _, gammas, batch = draw_clusters(cfg, 1, rng)
        p = replication_path(cfg, gammas, batch, ZERO)
        retained, _ = batch.remainder_totals(gammas[batch.cid] + batch.offset <= T)
        assert terminal(p) * T == pytest.approx(retained.sum(), rel=1e-12, abs=1e-12)


def test_path_rejects_nonfinite_and_ragged_values():
    t = np.array([0.0, 0.5, 1.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            CadlagPath(t, np.array([0.0, bad, 1.0]), np.ones(3))
        with pytest.raises(ValueError, match="finite"):
            CadlagPath(t, np.ones(3), np.array([0.0, 1.0, bad]))
    with pytest.raises(ValueError, match="finite"):
        CadlagPath(np.array([0.0, np.nan, 1.0]), np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="one value per node"):
        CadlagPath(t, np.ones(2), np.ones(3))
    with pytest.raises(ValueError, match="one value per node"):
        CadlagPath(t, np.ones(3), np.ones(4))


def test_csv_round_trip():
    p = build_jump_path(np.array([0.25, 0.5]), np.array([1.0, 2.5]))
    buf = io.StringIO()
    write_path_csv(p, buf)
    buf.seek(0)
    q = read_path_csv(buf)
    assert np.array_equal(p.t, q.t)
    assert np.array_equal(p.left, q.left)
    assert np.array_equal(p.right, q.right)


def test_read_path_csv_rejects_empty_tables():
    with pytest.raises(ValueError, match="no nodes"):
        read_path_csv(io.StringIO("t,left,right\n"))
    with pytest.raises(ValueError, match="header"):
        read_path_csv(io.StringIO(""))
