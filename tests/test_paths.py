import io
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, signal

from bigjump.clusters import BatchClusters
from bigjump.errors import ConfigurationError
from bigjump.events import TerminalExceed
from bigjump.harness import ExperimentConfig, draw_clusters, replication_path
from bigjump.laws import JointMarkSpec, TailLaw, WaitLaw, mean_ceil
from bigjump.paths import (
    CadlagPath,
    _convolve,
    ScalingRule,
    build_jump_path,
    centered_scaled_path,
    centering_hawkes,
    centering_mb,
    mb_centering_values,
    path_sup,
    path_value,
    read_path_csv,
    terminal,
    write_path_csv,
)
from bigjump.streams import substream
from .oracles import branching_path_mean, quadrature_centering_oracle


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


def test_centering_mb_comonotone_closed_form(pareto15, exp_wait):
    # unconditional waits: m(T) = lam E[X] (T + E[ceil(eta X)] (T - G(T))), with
    # G(T) = 1 - exp(-T) for Exp(1) waits; the 256-node mark quadrature would
    # miss about 1.3% of E[ceil(eta X)] at the singular end of Pareto(1, 1.5)
    spec = JointMarkSpec(pareto15, "comonotone", k_param=0.5)
    lam, T = 1.0, 200.0
    val = mb_centering_values(lam, T, spec, exp_wait, np.array([1.0]))[0]
    exact = lam * 3.0 * (T + mean_ceil(0.5, pareto15) * (T + np.expm1(-T)))
    assert abs(val - exact) <= 1e-12 * exact


def test_centering_mb_comonotone_mark_conditional_waits(pareto15):
    # waits of mean 1 / (1 + X) <= 1 bring mass earlier than Exp(1) waits (the
    # closed form above), and no wait law brings more than lam E[X] (1 + E[K]) u
    spec = JointMarkSpec(pareto15, "comonotone", k_param=0.5)
    lam, T, kmean = 1.0, 200.0, mean_ceil(0.5, pareto15)
    u = np.array([0.01, 0.1, 1.0]) * T
    cond = mb_centering_values(lam, T, spec, WaitLaw(TailLaw("exponential", 1.0), True), u / T)
    assert np.all(lam * 3.0 * (u + kmean * (u + np.expm1(-u))) < cond)
    assert np.all(cond < lam * 3.0 * (1.0 + kmean) * u)


def test_centering_grid_path_nondecreasing(mb_spec_nu2, exp_wait):
    path = centering_mb(1.0, 20.0, mb_spec_nu2, exp_wait, grid_n=64)
    assert np.all(np.diff(path.right) >= -1e-12)
    assert path.right[0] == 0.0


def exponential_wait_mean_path(lam, ex, kappa, s, u):
    """Branching mean path for Exp(mean s) waits: the renewal density of
    kappa * Exp is (kappa / s) exp(-(1 - kappa) w / s)."""
    r = (1.0 - kappa) / s
    return lam * ex * (u + kappa / (1.0 - kappa) * (u + np.expm1(-r * u) / r))


def test_centering_hawkes_exponential_closed_form(hawkes_spec_half):
    lam, T = 1.3, 200.0
    wait = WaitLaw(TailLaw("exponential", 2.0))
    path = centering_hawkes(lam, T, hawkes_spec_half, wait, 1024)
    exact = exponential_wait_mean_path(lam, 3.0, 0.5, 2.0, path.t * T)
    assert np.abs(path.right - exact).max() < 1e-7 * exact[-1]
    assert path.right[0] == 0.0 and np.array_equal(path.left, path.right)


@pytest.mark.parametrize("s", [256 * 50.0 / 8192, 0.7371])  # on and off the lag grid
def test_centering_hawkes_deterministic_waits(hawkes_spec_half, s):
    # generation g arrives exactly g*s after its immigrant: m(u) = lam E[X] sum_g kappa^g (u - g s)+
    T = 50.0
    path = centering_hawkes(1.0, T, hawkes_spec_half, WaitLaw(TailLaw("deterministic", s)), 1024)
    u = path.t * T
    exact = 3.0 * sum(0.5**g * np.maximum(u - g * s, 0.0) for g in range(int(T / s) + 1))
    assert np.abs(path.right - exact).max() < 1e-5 * exact[-1]


@pytest.mark.parametrize("y", [0.5, 2.0])
def test_centering_hawkes_mark_conditional_point_mass(y):
    # a point-mass mark y makes mark-conditional waits Exp(mean s / (1 + y)) with kappa = phi y
    lam, T, s, phi = 0.7, 100.0, 2.0, 0.2
    spec = JointMarkSpec(TailLaw("deterministic", y), phi=phi)
    wait = WaitLaw(TailLaw("exponential", s), conditional_on_mark=True)
    path = centering_hawkes(lam, T, spec, wait, 1024)
    exact = exponential_wait_mean_path(lam, y, phi * y, s / (1.0 + y), path.t * T)
    assert np.abs(path.right - exact).max() < 1e-7 * exact[-1]


def test_centering_hawkes_mark_conditional_pareto_marks(pareto15):
    # Pareto(1, 1.5) marks, whose singular tail the mark quadrature misses.  For
    # large u, m(u) = lam E[X] / (1 - kappa) * (u - M1 / (1 - kappa)) up to terms
    # decaying exponentially in u, with M1 = phi E[X E[W | X]] = phi E[X / (1 + X)].
    lam, T, phi = 1.0, 200.0, 1.0 / 6.0
    spec = JointMarkSpec(pareto15, phi=phi)
    kappa, ex = phi * 3.0, 3.0
    cond = centering_hawkes(lam, T, spec, WaitLaw(TailLaw("exponential", 1.0), True), 1024).right[-1]
    uncond = centering_hawkes(lam, T, spec, WaitLaw(TailLaw("exponential", 1.0)), 1024).right[-1]
    # waits of mean 1 / (1 + X) <= 1 bring mass earlier than Exp(1) waits
    assert uncond < cond < lam * ex * T / (1.0 - kappa)
    m1 = phi * integrate.quad(lambda x: x / (1.0 + x) * 1.5 * x**-2.5, 1.0, np.inf, epsrel=1e-12)[0]
    exact = lam * ex / (1.0 - kappa) * (T - m1 / (1.0 - kappa))
    assert abs(cond - exact) < 1e-9 * exact


def test_convolve_bit_identical_to_fftconvolve():
    # the numpy convolution behind the branching centering repeats scipy's
    # arithmetic exactly, the one-element shortcut included
    rng = np.random.default_rng(7)
    sizes = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 500), (700, 2), (8192, 8192)]
    sizes += [tuple(rng.integers(1, 5000, 2)) for _ in range(120)]
    for na, nb in sizes:
        a, b = rng.standard_normal(na), rng.standard_normal(nb)
        assert np.array_equal(_convolve(a, b), signal.fftconvolve(a, b)), (na, nb)


def test_centering_hawkes_zero_fertility_linear(pareto15, exp_wait):
    spec = JointMarkSpec(pareto15, "independent_light_k", phi=0.0)
    path = centering_hawkes(2.0, 10.0, spec, exp_wait, 8)
    np.testing.assert_allclose(path.right, 2.0 * path.t * 10.0 * 3.0, rtol=1e-12)
    assert path.right[0] == 0.0


@pytest.mark.parametrize(
    "spec, wait",
    [
        (JointMarkSpec(TailLaw("deterministic", 3.0), phi=1.0 / 6.0), WaitLaw(TailLaw("exponential", 1.0))),
        (JointMarkSpec(TailLaw("exponential", 2.0), phi=0.3), WaitLaw(TailLaw("pareto", 0.5, 1.5))),
        (JointMarkSpec(TailLaw("exponential", 2.0), phi=0.3), WaitLaw(TailLaw("exponential", 2.0), True)),
    ],
    ids=["deterministic-marks", "pareto-waits", "mark-conditional-waits"],
)
def test_centering_hawkes_matches_simulated_path_mean(spec, wait):
    # light marks keep the brute force's variance finite
    lam, T, ts = 1.0, 20.0, np.array([0.25, 0.5, 1.0])
    mean, se = branching_path_mean(lam, T, spec, wait, ts, 400_000, substream(5, "hpm"))
    z = (centering_hawkes(lam, T, spec, wait, 1024).values_at(ts) - mean) / se
    assert np.abs(z).max() < 3.0, z


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
