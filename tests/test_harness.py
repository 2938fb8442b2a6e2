import io
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from bigjump import harness
from bigjump.clusters import BatchClusters, _superset_count_law, superset_batch, superset_probability
from bigjump.errors import ConfigurationError
from bigjump.events import DkProxy, InterpCurve, JumpCount, SupExceed, TerminalExceed, ValueAt
from bigjump.harness import (
    _CV_BIG,
    ExperimentConfig,
    _conditional_pool,
    _cv_means,
    _estimate_p_big,
    _poisson_weights,
    _wilson_interval,
    _eval_event_chunk,
    _simulate_jump_arrays,
    _stratum_chunk,
    big_jump_anatomy,
    centering_curve,
    check_assumption6,
    check_remainder,
    check_tail_equivalence,
    crude_estimate,
    ldp_ratio,
    simulate_replication,
    splitting_estimate,
)
from bigjump.laws import JointMarkSpec, TailLaw, WaitLaw
from bigjump.measures import measure_for_model, mu_sharp
from bigjump.paths import build_jump_path, centered_scaled_path, read_path_csv, terminal, write_path_csv
from bigjump.streams import substream

from .oracles import anatomy_summary_loop, big_pool_plain, remainder_share_plain, sup_exceed_sorted


def base_config(spec, wait, **kw):
    defaults = dict(
        model="mb",
        lam=1.0,
        T=50.0,
        eta=0.8,
        spec=spec,
        wait=wait,
        k=0,
        event=TerminalExceed(1.0),
        n_reps=2000,
        seed=1234,
        n_strata=1000,
        n_pbig=100_000,
        n_centering=50_000,
        grid_n=512,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_config_validation(pareto15, exp_wait):
    spec = JointMarkSpec(pareto15, "independent_light_k", k_param=0.0)
    with pytest.raises(ConfigurationError):
        base_config(spec, exp_wait, eta=0.6)  # below 1/alpha
    with pytest.raises(ConfigurationError):
        base_config(spec, exp_wait, delta=0.0)
    with pytest.raises(ConfigurationError):
        base_config(spec, exp_wait, estimator="magic")
    heavy_wait = WaitLaw(TailLaw("pareto", 1.0, 0.5))
    cfg = base_config(spec, heavy_wait)  # diagnostics may use it
    with pytest.raises(ConfigurationError):
        cfg.validate_strict()  # ratio runs may not


def test_zero_rate_replication(mb_spec_nu0, exp_wait):
    cfg = base_config(mb_spec_nu0, exp_wait, lam=0.0)
    path, hit = simulate_replication(cfg, substream(0, "z"))
    assert terminal(path) == 0.0
    assert not hit


def test_dk_proxy_hit_matches_jump_rank(mb_spec_nu2, exp_wait):
    cfg = base_config(mb_spec_nu2, exp_wait, event=DkProxy(0, 0.2), T=20.0)
    cent = centering_curve(cfg)
    rng = substream(1, "p")
    from bigjump.paths import kth_largest_jump

    for _ in range(50):
        path, hit = simulate_replication(cfg, rng, cent)
        assert hit == (kth_largest_jump(path, 1) > 0.4)


def test_replication_round_trip_through_csv(mb_spec_nu2, exp_wait):
    cfg = base_config(mb_spec_nu2, exp_wait, T=20.0, event=TerminalExceed(0.3))
    cent = centering_curve(cfg)
    rng = substream(2, "rt")
    for _ in range(1000):
        path, hit = simulate_replication(cfg, rng, cent)
        buf = io.StringIO()
        write_path_csv(path, buf)
        buf.seek(0)
        again = read_path_csv(buf)
        assert (terminal(again) > 0.3) == hit


def test_fast_lane_matches_path_objects(mb_spec_nu2, hawkes_spec_half, exp_wait):
    # point-mass marks and waits: a cluster's offspring share one jump time
    point_mass = JointMarkSpec(TailLaw("deterministic", 3.0), "independent_light_k", k_param=2.0)
    configs = {
        "mb": base_config(mb_spec_nu2, exp_wait, T=20.0),
        "branching": base_config(hawkes_spec_half, exp_wait, model="hawkes", T=20.0),
        "point_mass": base_config(point_mass, WaitLaw(TailLaw("deterministic", 1.0)), T=20.0),
    }
    events = [
        TerminalExceed(0.3),
        ValueAt(0.6, 0.2),
        ValueAt(1.0, 0.3),
        SupExceed(0.4),
        SupExceed(0.0),
        JumpCount(2, 0.15),
        JumpCount(1, 0.15),
        DkProxy(0, 0.2),
        DkProxy(1, 0.1),
    ]
    for name, cfg in configs.items():
        cent = centering_curve(cfg)
        scaling = cfg.scaling()
        rng = substream(3, "fl")
        rep, t, size, _ = _simulate_jump_arrays(cfg, 150, rng)
        paths = []
        for i in range(150):
            mask = rep == i
            paths.append(build_jump_path(t[mask], size[mask]))
        for ev in events:
            fast = _eval_event_chunk(rep, t, size, 150, ev, cent, scaling.x_T)
            slow = np.array([ev.decide(centered_scaled_path(p, cent, scaling)) for p in paths])
            assert np.array_equal(fast, slow), f"mismatch for {ev} on {name}"


def _branching_chunk(spec, wait, c=1.0):
    """One 1024-replication T=200 branching chunk as the crude lane draws it,
    with its centering and x_T."""
    cfg = base_config(spec, wait, model="hawkes", T=200.0, event=SupExceed(c), grid_n=1024)
    rep, t, size, _ = _simulate_jump_arrays(cfg, 1024, substream(cfg.seed, "crude", 0))
    return cfg, rep, t, size, centering_curve(cfg), cfg.scaling().x_T


def test_sup_exceed_matches_sorted_oracle_on_branching_chunks(hawkes_spec_half, exp_wait):
    # point-mass marks and waits: offspring share jump times with their parent
    point_mass = JointMarkSpec(TailLaw("deterministic", 3.0), "independent_light_k", phi=1.0 / 6.0)
    det_wait = WaitLaw(TailLaw("deterministic", 1.0))
    for spec, wait in ((hawkes_spec_half, exp_wait), (point_mass, det_wait)):
        _, rep, t, size, centering, x_T = _branching_chunk(spec, wait)
        sup = sup_exceed_sorted(rep, t, size, 1024, InterpCurve(centering.t, centering.right), x_T)
        # thresholds where many replications straddle the bins' bounds
        for c in (0.0, *np.quantile(sup, [0.1, 0.5, 0.9])):
            hits = _eval_event_chunk(rep, t, size, 1024, SupExceed(float(c)), centering, x_T)
            assert np.array_equal(hits, sup > c), (spec, c)


def test_sup_exceed_sorts_only_unsettled_replications(hawkes_spec_half, exp_wait, sup_exact_calls):
    cfg, rep, t, size, centering, x_T = _branching_chunk(hawkes_spec_half, exp_wait, c=1.0)
    hits = _eval_event_chunk(rep, t, size, 1024, cfg.event, centering, x_T)
    sup = sup_exceed_sorted(rep, t, size, 1024, InterpCurve(centering.t, centering.right), x_T)
    assert np.array_equal(hits, sup > 1.0)
    sorted_reps = sum(n for n, _ in sup_exact_calls)
    assert sorted_reps <= 0.10 * 1024, sorted_reps


def test_crude_poisson_void_oracle(exp_wait):
    # sparse regime with point-mass marks: sup > 0 iff any immigrant arrived
    det = TailLaw("deterministic", 3.0)
    spec = JointMarkSpec(det, "independent_light_k", k_param=0.0)
    cfg = base_config(spec, exp_wait, lam=0.05, T=10.0, event=SupExceed(0.0), n_reps=20_000)
    est = crude_estimate(cfg)
    want = 1.0 - np.exp(-0.5)
    assert abs(est.value - want) < 3 * est.stderr
    wilson = stats.binomtest(est.detail["hits"], est.n).proportion_ci(method="wilson")
    assert _wilson_interval(est.detail["hits"], est.n) == (wilson.low, wilson.high)
    # the control variates apply, and with them the symmetric interval
    assert est.detail["control_variates"]["applied"]
    assert est.ci95 == (est.value - 1.96 * est.stderr, est.value + 1.96 * est.stderr)


def test_wilson_interval_bit_identical_to_binomtest():
    for n in (100, 1000, 20_000, 12_345):
        for hits in (0, 1, n // 2, n - 1, n):
            ci = stats.binomtest(hits, n).proportion_ci(method="wilson")
            assert _wilson_interval(hits, n) == (ci.low, ci.high), (hits, n)


def test_crude_impossible_event(exp_wait):
    det = TailLaw("deterministic", 3.0)
    spec = JointMarkSpec(det, "independent_light_k", k_param=0.0)
    # terminal mass is 3N with N ~ Poisson(0.5); the threshold needs N >= 40
    cfg = base_config(spec, exp_wait, lam=0.05, T=10.0, event=TerminalExceed(115.0 / 10.0**0.8), n_reps=5000)
    est = crude_estimate(cfg)
    assert est.value == 0.0
    assert est.detail["hits"] == 0


def test_reported_intervals_are_never_negative(mb_spec_nu0, exp_wait):
    # zero crude hits: the Wilson interval starts at 0 and keeps a positive upper end
    cfg = base_config(mb_spec_nu0, exp_wait, event=TerminalExceed(200.0), n_reps=1000, estimator="crude")
    prob = crude_estimate(cfg)
    assert prob.detail["hits"] == 0
    assert prob.ci95[0] == 0.0 and prob.ci95[1] > 0.0
    ratio, limit = ldp_ratio(cfg)
    vp = ratio.detail["v_prime_power"]
    assert ratio.ci95 == tuple(vp * end / limit for end in prob.ci95)
    # a rare splitting event whose value - 1.96 se falls below 0
    split = splitting_estimate(replace(cfg, event=TerminalExceed(20.0), n_strata=100))
    assert split.value - 1.96 * split.stderr < 0.0
    assert split.ci95 == (0.0, split.value + 1.96 * split.stderr)


def test_splitting_without_hits_reports_an_upper_bound(mb_spec_nu0, exp_wait):
    # every Y_r is 0, so sd(Y) and the rate term are 0; the interval was [0, 0]
    cfg = base_config(mb_spec_nu0, exp_wait, event=TerminalExceed(200.0), n_strata=100)
    split = splitting_estimate(cfg)
    assert split.value == 0.0 and split.stderr == 0.0
    assert all(p == 0.0 for p in split.detail["strata"].values())
    assert split.ci95 == (0.0, 1.0 - 0.025 ** (1.0 / 100))


def test_crude_stderr_scales(mb_spec_nu0, exp_wait):
    cfg1 = base_config(mb_spec_nu0, exp_wait, T=20.0, event=TerminalExceed(0.5), n_reps=4000)
    cfg2 = replace(cfg1, n_reps=16000)
    e1 = crude_estimate(cfg1)
    e2 = crude_estimate(cfg2)
    assert abs(e2.stderr / e1.stderr - 0.5) < 0.2 * 0.5
    with pytest.raises(ConfigurationError):
        crude_estimate(replace(cfg1, n_reps=50))


def test_crude_deterministic_and_worker_invariant(mb_spec_nu0, exp_wait):
    cfg = base_config(mb_spec_nu0, exp_wait, n_reps=3000)
    a = crude_estimate(cfg)
    b = crude_estimate(cfg)
    assert a.value == b.value and a.stderr == b.stderr
    c = crude_estimate(replace(cfg, workers=3))
    assert a.value == c.value


def test_crude_rows_identical_across_workers(hawkes_spec_half, exp_wait):
    # three chunks, the last of odd size: the parity folds follow the
    # replication index, not the chunks a worker gets
    cfg = base_config(
        hawkes_spec_half, exp_wait, model="hawkes", event=SupExceed(1.0), n_reps=2500, estimator="crude"
    )
    rows = [crude_estimate(replace(cfg, workers=w)) for w in (1, 2, 3)]
    assert rows[0].detail["control_variates"]["applied"]
    first = (rows[0].value, rows[0].stderr, rows[0].ci95, rows[0].detail)
    assert all((e.value, e.stderr, e.ci95, e.detail) == first for e in rows[1:])


# crude rows without control variates, as the plain estimator gave them
# before the control variates existed: (value, stderr, ci95), Wilson
# interval included, and the reason the control variates are off
PLAIN_CRUDE_ROWS = {
    "below-floor": (
        dict(T=20.0, event=TerminalExceed(0.5), n_reps=300),
        (0.25666666666666665, 0.02521830610812239, (0.2105333372257937, 0.308952908770152)),
        "below the fold floor",
    ),
    "zero-hits": (
        dict(event=TerminalExceed(200.0), n_reps=1000),
        (0.0, 0.0, (0.0, 0.0038267584855551234)),
        "constant scores",
    ),
    # 24 hits, each from one immigrant of mark 3: every covariate is linear
    # in the hit, and a fit would report a stderr of 1e-17
    "few-hits": (
        dict(
            spec=JointMarkSpec(TailLaw("deterministic", 3.0), "independent_light_k", k_param=0.0),
            lam=0.001,
            T=10.0,
            event=SupExceed(0.0),
        ),
        (0.012, 0.002434748446965312, (0.008077154276022638, 0.01779388387048023)),
        "below the fold floor",
    ),
}


@pytest.mark.parametrize("case", sorted(PLAIN_CRUDE_ROWS))
def test_crude_rows_without_control_variates_stay_plain(mb_spec_nu0, exp_wait, case):
    edits, row, reason = PLAIN_CRUDE_ROWS[case]
    kw = {"spec": mb_spec_nu0, "wait": exp_wait, "estimator": "crude", **edits}
    est = crude_estimate(base_config(**kw))
    assert (est.value, est.stderr, est.ci95) == row
    cv = est.detail["control_variates"]
    assert not cv["applied"] and cv["off_reason"] == reason


def test_crude_stderr_matches_seed_spread(hawkes_spec_half, exp_wait):
    ests = [
        crude_estimate(
            base_config(hawkes_spec_half, exp_wait, model="hawkes", event=SupExceed(1.0), n_reps=2000, seed=s)
        )
        for s in range(20)
    ]
    assert all(e.detail["control_variates"]["applied"] for e in ests)
    sd = float(np.std([e.value for e in ests], ddof=1))
    se = float(np.mean([e.stderr for e in ests]))
    assert 0.7 * se <= sd <= 1.4 * se, (sd, se)


def test_crude_mb_stderr_matches_seed_spread(mb_spec_nu2, exp_wait):
    # MB clusters with Poisson(2) counts: two thirds of the events are
    # descendants, whose centred marks carry most of the control variates
    ests = [
        crude_estimate(base_config(mb_spec_nu2, exp_wait, n_reps=4000, seed=s, estimator="crude"))
        for s in range(20)
    ]
    assert all(e.detail["control_variates"]["applied"] for e in ests)
    sd = float(np.std([e.value for e in ests], ddof=1))
    se = float(np.mean([e.stderr for e in ests]))
    assert 0.7 * se <= sd <= 1.4 * se, (sd, se)


def test_immigrant_covariates_match_a_loop(hawkes_spec_half, exp_wait):
    # lam T = 2.5: some replications have no immigrant.  The covariates sum
    # over every event in [0, T], each descendant's term less its mean
    cfg = base_config(hawkes_spec_half, exp_wait, model="hawkes", lam=0.05)
    _, _, _, (_, got) = _simulate_jump_arrays(cfg, 2000, substream(8, "cv-loop"))
    counts, gammas, batch = harness.draw_clusters(cfg, 2000, substream(8, "cv-loop"), lineage=True)
    x_T, law = cfg.scaling().x_T, cfg.spec.x_law
    time = gammas[batch.cid] + batch.offset
    assert (counts == 0).any() and batch.generation.max() >= 3 and (time > cfg.T).any()
    assert (batch.mark > 2.0 * x_T).any()
    rep = harness._rep_of_cluster(counts)[batch.cid]
    for r in range(counts.size):
        events = (rep == r) & (time <= cfg.T)
        x, weight, desc = batch.mark[events], 1.0 - time[events] / cfg.T, batch.generation[events] > 0
        truncated = [np.minimum(x, c * x_T) - desc * law.truncated_mean(c * x_T) for c in harness._CRUDE_CV_MIN]
        want = [m.sum() for m in truncated] + [(weight * m).sum() for m in truncated]
        want += [((x > c * x_T) - desc * law.tail(c * x_T)).sum() for c in harness._CRUDE_CV_COUNT]
        assert got[r] == pytest.approx(want, rel=1e-12, abs=1e-12), r


def test_crude_covariate_means_are_exact(pareto15, mb_spec_nu2, hawkes_spec_half, exp_wait):
    # the descendants' centred terms add mean 0 whatever decides their
    # existence and arrival: a cap of 3 events truncates branching clusters
    # a generation at a time (never on a child's own mark, and drops no
    # immigrant); Poisson, comonotone and heavy MB counts; waits that read
    # the parent's mark, long enough that T cuts many clusters
    mark_waits = WaitLaw(TailLaw("exponential", 20.0), conditional_on_mark=True)
    cases = {
        "branching-cap-3": base_config(hawkes_spec_half, exp_wait, model="hawkes", cap=3),
        "mb-poisson-2": base_config(mb_spec_nu2, exp_wait),
        "mb-comonotone": base_config(JointMarkSpec(pareto15, "comonotone", k_param=0.5), exp_wait),
        "mb-heavy-counts": base_config(
            JointMarkSpec(pareto15, "heavy_k_light_x", k_param=1.0, k_alpha=1.5), exp_wait
        ),
        "branching-mark-waits": base_config(hawkes_spec_half, mark_waits, model="hawkes"),
    }
    for name, cfg in cases.items():
        _, _, _, (trunc, x) = _simulate_jump_arrays(cfg, 20_000, substream(9, "cv-means"))
        assert (trunc > 0) == (name == "branching-cap-3"), name
        z = (x.mean(axis=0) - harness._crude_cv_means(cfg)) / (x.std(axis=0, ddof=1) / np.sqrt(x.shape[0]))
        assert np.all(np.abs(z) < 4.0), (name, z)


def test_splitting_aligned_proxy_counts_bigs(mb_spec_nu0, exp_wait):
    # single-event clusters and delta = event radius: hit iff at least one big
    from scipy import stats as sps

    cfg = base_config(
        mb_spec_nu0, exp_wait, T=100.0, event=DkProxy(0, 0.25), delta=0.5, n_strata=600
    )
    est = splitting_estimate(cfg)
    u = 0.5 * cfg.scaling().x_T
    rate = cfg.lam * cfg.T * cfg.spec.x_law.tail(u)
    want = float(sps.poisson.sf(0, rate))
    assert est.value == pytest.approx(want, rel=0.02)
    assert est.detail["strata"][0] == 0.0
    assert est.detail["strata"][1] == 1.0


def test_splitting_crude_agreement_random_configs(pareto15, exp_wait):
    rng = np.random.default_rng(7)
    for trial in range(10):
        nu = float(rng.choice([0.0, 1.0, 2.0]))
        spec = JointMarkSpec(pareto15, "independent_light_k", k_param=nu)
        T = float(rng.choice([25.0, 50.0]))
        c = float(rng.uniform(0.8, 2.0))
        cfg = base_config(
            spec,
            exp_wait,
            T=T,
            event=TerminalExceed(c),
            n_reps=8000,
            n_strata=1500,
            seed=1000 + trial,
        )
        ce = crude_estimate(cfg)
        se_ = splitting_estimate(cfg)
        tol = 3.0 * np.hypot(ce.stderr, se_.stderr) + 1e-4
        assert abs(ce.value - se_.value) < tol, (trial, ce.value, se_.value)


def test_splitting_terminal_strata_nondecreasing(mb_spec_nu2, exp_wait):
    # stratum m + 1 adds one big cluster to the replications of stratum m, so
    # no replication loses terminal mass and no hit is lost
    cfg = base_config(mb_spec_nu2, exp_wait, T=100.0, n_strata=1500)
    strata = splitting_estimate(cfg).detail["strata"]
    vals = [strata[m] for m in range(len(strata))]
    assert all(b >= a for a, b in zip(vals, vals[1:])), vals
    u = cfg.delta * cfg.scaling().x_T
    hits = _stratum_chunk(cfg, 0, 500, u, 0.02, 6, centering_curve(cfg))[0]
    assert np.all(hits[:, 1:] >= hits[:, :-1])


def test_splitting_worker_invariant(mb_spec_nu0, exp_wait):
    cfg = base_config(mb_spec_nu0, exp_wait, n_strata=2500)  # three chunks
    a = splitting_estimate(cfg)
    b = splitting_estimate(replace(cfg, workers=3))
    assert (a.value, a.stderr, a.ci95, a.n) == (b.value, b.stderr, b.ci95, b.n)
    assert a.detail == b.detail


def test_splitting_stderr_matches_seed_spread(mb_spec_nu0, exp_wait):
    ests = [
        splitting_estimate(base_config(mb_spec_nu0, exp_wait, n_strata=800, n_pbig=80_000, seed=s))
        for s in range(20)
    ]
    sd = float(np.std([e.value for e in ests], ddof=1))
    se = float(np.mean([e.stderr for e in ests]))
    assert 0.7 * se <= sd <= 1.4 * se, (sd, se)


def test_splitting_reports_pool_counts(mb_spec_nu0, exp_wait):
    cfg = base_config(mb_spec_nu0, exp_wait, T=100.0, n_strata=1500)
    d = splitting_estimate(cfg).detail
    pools = d["pools"]
    assert pools["big"]["accepted"] == d["m_max"] * cfg.n_strata
    for pool in pools.values():
        assert pool["drawn"] >= pool["accepted"] > 0
    assert d["truncated_clusters"] == pools["small"]["truncated"] + pools["big"]["truncated"]


# (model, spec, u), with P(D > u) between 2% and 6%
SIMULATED_P_BIG = {
    "hawkes-pareto": ("hawkes", JointMarkSpec(TailLaw("pareto", 1.0, 1.5), phi=1.0 / 6.0), 34.66),
    "hawkes-exponential": ("hawkes", JointMarkSpec(TailLaw("exponential", 1.0), phi=0.4), 6.0),
    "heavy": (
        "mb", JointMarkSpec(TailLaw("exponential", 2.0), "heavy_k_light_x", k_param=1.0, k_alpha=1.5), 16.9
    ),
}


@pytest.mark.parametrize("case", sorted(SIMULATED_P_BIG))
def test_lattice_p_big_matches_simulation(exp_wait, case):
    # the lattice P(D > u) of branching and heavy-count clusters against
    # 400k simulated clusters of one fixed substream
    model, spec, u = SIMULATED_P_BIG[case]
    cfg = base_config(spec, exp_wait, model=model)
    p, half_width, d = _estimate_p_big(cfg, u)
    assert half_width < 1e-3 * p and d["p_big_bracket"][0] <= p <= d["p_big_bracket"][1]
    n = 400_000
    batches = harness._offsetless_batches(cfg, substream(5, "p-big-check"), n)
    freq = sum(int((b.totals() > u).sum()) for b in batches) / n
    assert abs(freq - p) <= 3.0 * np.sqrt(p * (1.0 - p) / n), (freq, p)


def test_cluster_cap_lowers_the_branching_bracket(exp_wait):
    # clusters of more than cap events lose mass: the lower end drops by
    # Markov's bound 1/((1 - kappa) cap), and the truncated clusters the
    # pools draw stay inside the bracket
    model, spec, u = SIMULATED_P_BIG["hawkes-pareto"]
    full = _estimate_p_big(base_config(spec, exp_wait, model=model, cap=10**12), u)[2]["p_big_bracket"]
    cfg = base_config(spec, exp_wait, model=model, cap=2000)
    lo, hi = _estimate_p_big(cfg, u)[2]["p_big_bracket"]
    drop = 1.0 / ((1.0 - spec.mean_fertility) * 2000)
    assert hi == full[1] and lo == pytest.approx(full[0] - drop, abs=1e-11)  # cap 1e12 drops 2e-12
    n = 400_000
    batches = harness._offsetless_batches(cfg, substream(6, "p-big-check"), n)
    freq = sum(int((b.totals() > u).sum()) for b in batches) / n
    assert lo - 3.0 * np.sqrt(lo / n) <= freq <= hi + 3.0 * np.sqrt(hi / n), (lo, freq, hi)


@pytest.mark.parametrize("u", [4480.0, 46400.0])
def test_lattice_p_big_stops_when_round_off_dominates(pareto15, exp_wait, monkeypatch, u):
    # P(D > u) about 1e-5 and 3e-7: the round-off allowance already passes
    # the 1e-3 target at 2^14 cells and grows with the lattice, so the
    # bracket stops after the first level that does not narrow it, is no
    # wider than the 2^14 one and is not refused
    spec = JointMarkSpec(pareto15, "independent_light_k", k_param=2.0)
    cfg = base_config(spec, exp_wait)
    bracket = harness.mass_tail_bracket
    a, b, err = bracket(spec, u, 2**14)
    cells = []

    def spy(spec, u, m, *levels, **kw):
        cells.append(m)
        return bracket(spec, u, m, *levels, **kw)

    monkeypatch.setattr(harness, "mass_tail_bracket", spy)
    p, half_width, detail = _estimate_p_big(cfg, u)
    assert cells == [2**14, 2**15]
    assert half_width <= 0.5 * ((b + err) - (a - err))
    assert detail["p_big_bracket"][0] > 0.0 and 0.9e-7 < p < 2e-5


def test_splitting_needs_two_replications(mb_spec_nu0, exp_wait):
    cfg = base_config(mb_spec_nu0, exp_wait, n_strata=1)
    with pytest.raises(ConfigurationError, match="n_strata"):
        splitting_estimate(cfg)


def test_splitting_threshold_validation(mb_spec_nu0, exp_wait):
    cfg = base_config(mb_spec_nu0, exp_wait, T=2.0, eta=0.8, delta=0.5)
    # delta * x_T = 0.87 < mark scale 1.0
    with pytest.raises(ConfigurationError):
        splitting_estimate(cfg)


def test_splitting_refuses_unreachable_threshold(exp_wait):
    det = TailLaw("deterministic", 0.2)
    spec = JointMarkSpec(det, "independent_light_k", k_param=0.0)
    cfg = base_config(spec, exp_wait, T=400.0, delta=1.0, n_pbig=50_000)
    with pytest.raises(ConfigurationError, match="refusing|not observed"):
        splitting_estimate(cfg)


def test_monotone_proxy_hierarchy(mb_spec_nu2, exp_wait):
    base = base_config(mb_spec_nu2, exp_wait, T=30.0, n_reps=4000)
    for r in (0.1, 0.3):
        vals = []
        for k in (0, 1, 2):
            cfg = replace(base, k=k, event=DkProxy(k, r))
            vals.append(crude_estimate(cfg).value)
        assert vals[0] >= vals[1] >= vals[2]


def test_ldp_ratio_requires_separated_event(mb_spec_nu0, exp_wait):
    cfg = base_config(mb_spec_nu0, exp_wait, k=1, event=TerminalExceed(1.0))
    with pytest.raises(ConfigurationError, match="bounded away"):
        ldp_ratio(cfg)
    cfg0 = base_config(mb_spec_nu0, exp_wait, k=0, event=JumpCount(2, 0.5))
    with pytest.raises(ConfigurationError, match="zero limit mass"):
        ldp_ratio(cfg0)
    heavy_wait = WaitLaw(TailLaw("pareto", 1.0, 0.5))
    cfg_w = base_config(mb_spec_nu0, heavy_wait)
    with pytest.raises(ConfigurationError, match="finite mean"):
        ldp_ratio(cfg_w)


def test_ldp_ratio_trend_pure_compound_poisson(mb_spec_nu0, exp_wait):
    ratios = []
    for T in (50.0, 100.0, 200.0):
        cfg = base_config(
            mb_spec_nu0, exp_wait, T=T, estimator="crude", n_reps=20_000, seed=99
        )
        est, limit = ldp_ratio(cfg)
        assert limit == pytest.approx(1.0)
        ratios.append(est.value)
    assert ratios[0] < ratios[1] < ratios[2] < 1.0


def test_ldp_ratio_value_at_uses_time_factor(mb_spec_nu0, exp_wait):
    cfg = base_config(mb_spec_nu0, exp_wait, event=ValueAt(0.5, 1.0), estimator="crude", n_reps=4000)
    est, limit = ldp_ratio(cfg)
    assert limit == pytest.approx(0.5)


def test_ldp_limit_scales_with_offspring_mean(pareto15, exp_wait, mb_spec_nu0, mb_spec_nu2):
    cfg0 = base_config(mb_spec_nu0, exp_wait, estimator="crude", n_reps=200)
    cfg2 = base_config(mb_spec_nu2, exp_wait, estimator="crude", n_reps=200)
    _, lim0 = ldp_ratio(cfg0)
    _, lim2 = ldp_ratio(cfg2)
    assert lim2 / lim0 == pytest.approx(3.0)


def test_ratio_scale_equivariance(mb_spec_nu0, exp_wait):
    # the limit-value transformation under c -> u*c is exact; the estimated
    # ratio at the new threshold stays within its own confidence band when
    # re-estimated on an independent stream
    m = measure_for_model("mb", mb_spec_nu0)
    u = 1.7
    lim1 = mu_sharp(m, 1.0, 0, TerminalExceed(1.0))
    lim2 = mu_sharp(m, 1.0, 0, TerminalExceed(u))
    assert lim2 / lim1 == pytest.approx(u**-1.5, rel=1e-12)
    cfg = base_config(
        mb_spec_nu0, exp_wait, T=100.0, estimator="crude", n_reps=30_000, event=TerminalExceed(u)
    )
    r1, _ = ldp_ratio(cfg)
    r2, _ = ldp_ratio(replace(cfg, seed=cfg.seed + 1))
    assert abs(r1.value - r2.value) < 3 * np.hypot(r1.stderr, r2.stderr)


def test_check_remainder_zero_offsets(mb_spec_nu2):
    wait0 = WaitLaw(TailLaw("deterministic", 1e-9))
    cfg = base_config(mb_spec_nu2, wait0)
    rows = check_remainder(cfg, [10.0, 20.0], n_accept_target=500)
    assert all(r["estimate"] == 0.0 for r in rows)


def test_check_remainder_decreasing_trend(mb_spec_nu2, exp_wait):
    from scipy import stats as sps

    cfg = base_config(mb_spec_nu2, exp_wait)
    grid = [10.0, 20.0, 40.0, 80.0, 160.0]
    rows = check_remainder(cfg, grid, n_accept_target=3000)
    ests = [r["estimate"] for r in rows]
    rho = sps.spearmanr(grid, ests).statistic
    assert rho <= -0.9
    assert not any(r["low_confidence"] for r in rows)


def test_check_remainder_batches_expect_at_most_the_event_bound(mb_spec_nu2, exp_wait, monkeypatch):
    # with the bound at 2e4 events, clusters of mean size 3 come at most
    # 6666 a batch, where the pool's rejection grows batches to ~2e4
    cfg = base_config(mb_spec_nu2, exp_wait, seed=78)
    rows = check_remainder(cfg, [50.0], n_accept_target=500)
    calls = []
    real = harness.simulate_batch

    def spy(model, n, *args, **kwargs):
        calls.append(n)
        return real(model, n, *args, **kwargs)

    monkeypatch.setattr(harness, "simulate_batch", spy)
    monkeypatch.setattr(harness, "_MAX_DRAW_EVENTS", 2e4)
    capped = check_remainder(cfg, [50.0], n_accept_target=500)
    assert max(calls) == 6666 and capped[0]["n_accepted"] == rows[0]["n_accepted"] == 500
    assert capped[0]["estimate"] == pytest.approx(rows[0]["estimate"], abs=4 * rows[0]["stderr"] + 0.01)
    monkeypatch.setattr(harness, "_MAX_DRAW_EVENTS", 3000.0)  # 1024 clusters expect 3072 events
    with pytest.raises(ConfigurationError, match="smallest batch of 1024 clusters"):
        check_remainder(cfg, [50.0], n_accept_target=500)


def test_check_remainder_comonotone_boost_consistent(pareto15, exp_wait):
    spec = JointMarkSpec(pareto15, "comonotone", k_param=1.0)
    cfg = base_config(spec, exp_wait, seed=21)
    rows = check_remainder(cfg, [15.0], n_accept_target=4000)
    est_boost = rows[0]["estimate"]
    # plain-rejection reference: the same comonotone config, untilted draws
    # from another seed, until as many clusters are accepted
    est_plain, got = remainder_share_plain(cfg, 15.0, 4000, substream(22, "remainder", 0))
    se_plain = np.sqrt(est_plain * (1 - est_plain) / got)
    assert est_boost == pytest.approx(est_plain, abs=4 * (rows[0]["stderr"] + se_plain))


def test_check_assumption6_cases(exp_wait):
    grid = [25.0, 50.0, 100.0, 200.0]
    rows, verdict = check_assumption6(exp_wait, 0.8, 0.1, grid)
    assert verdict == "holds"
    # wait index above eta: power counting decays, verdict holds once the
    # grid reaches the 1e-2 level
    rows, verdict = check_assumption6(WaitLaw(TailLaw("pareto", 1.0, 3.0)), 0.8, 0.1, grid)
    assert verdict == "holds"
    vals = [r["value"] for r in rows]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    rows, verdict = check_assumption6(WaitLaw(TailLaw("pareto", 1.0, 0.5)), 0.8, 0.1, grid)
    assert verdict == "violated"
    vals = [r["value"] for r in rows]
    assert vals[-1] > vals[0]


def test_check_tail_equivalence_nu0(mb_spec_nu0, exp_wait):
    cfg = base_config(mb_spec_nu0, exp_wait, n_reps=400_000)
    rows = check_tail_equivalence(cfg, [0.995])
    assert rows[0]["k_over_d"] == 0.0
    assert rows[0]["k_over_d_limit"] == 0.0
    assert rows[0]["mark_over_d"] == pytest.approx(1.0, rel=0.1)


def test_check_tail_equivalence_comonotone(pareto15, exp_wait):
    spec = JointMarkSpec(pareto15, "comonotone", k_param=1.0)
    cfg = base_config(spec, exp_wait, n_reps=10_000_000, seed=301)
    r = check_tail_equivalence(cfg, [0.999])[0]
    assert r["k_over_d"] == pytest.approx(r["k_over_d_limit"], rel=0.2)
    assert r["mark_over_d"] == pytest.approx(r["mark_over_d_limit"], rel=0.2)


def test_check_tail_equivalence_hawkes(pareto15, exp_wait, hawkes_spec_half):
    cfg = base_config(hawkes_spec_half, exp_wait, model="hawkes", n_reps=10_000_000, seed=302)
    r = check_tail_equivalence(cfg, [0.999])[0]
    assert r["mark_over_d"] == pytest.approx(r["mark_over_d_limit"], rel=0.2)
    assert r["k_over_d"] == pytest.approx(r["k_over_d_limit"], rel=0.2)


def test_big_jump_anatomy_degenerate(exp_wait):
    det = TailLaw("deterministic", 3.0)
    spec = JointMarkSpec(det, "independent_light_k", k_param=0.0)
    cfg = base_config(spec, exp_wait, lam=0.05, T=20.0, event=TerminalExceed(0.5), n_strata=2000, seed=9)
    out = big_jump_anatomy(cfg)
    assert out["n_hits"] > 50
    assert out["median_top1_share"] == pytest.approx(1.0 / 3.0, abs=0.15)


def test_big_jump_anatomy_branching(pareto15, exp_wait):
    # branching clusters tilt their immigrant mark by the branching multiplier
    spec = JointMarkSpec(pareto15, "independent_light_k", phi=0.2)
    cfg = base_config(
        spec, exp_wait, model="hawkes", T=100.0, k=1, event=JumpCount(2, 2.0), seed=109, n_strata=4000
    )
    out = big_jump_anatomy(cfg)
    assert out["n_hits"] == 943
    for key in ("median_top_share", "q10_top_share", "q90_top_share", "median_top1_share"):
        assert 0.0 < out[key] <= 1.0, key
    assert out["q10_top_share"] <= out["median_top_share"] <= out["q90_top_share"]
    assert 0.0 <= out["median_time_spread"] <= 1.0


def test_big_jump_anatomy_without_hits(exp_wait):
    # point-mass marks of 3 cannot carry the path to 100 x_T: no summary
    spec = JointMarkSpec(TailLaw("deterministic", 3.0), "independent_light_k", k_param=0.0)
    cfg = base_config(spec, exp_wait, lam=0.05, T=20.0, event=TerminalExceed(100.0), n_strata=500, seed=9)
    out = big_jump_anatomy(cfg)
    assert out["n_hits"] == 0
    keys = ("median_top_share", "q10_top_share", "q90_top_share", "median_top1_share", "median_time_spread")
    assert all(np.isnan(out[key]) for key in keys)


def test_anatomy_summary_matches_hit_by_hit_loop():
    # segment sums round in another order than np.sum: shares agree to 64 eps
    rng = np.random.default_rng(28)
    for trial in range(200):
        n, m = int(rng.integers(1, 30)), int(rng.choice([1, 2, 3, 9, 12]))
        counts = rng.integers(0, 40, n) * (rng.random(n) < 0.8)  # some replications have no jumps
        rep = np.repeat(np.arange(n), counts)
        t = np.sort(rng.random(rep.size) + 2.0 * rep) - 2.0 * rep  # ordered by (replication, time)
        size = rng.choice([1.0, 2.0, 4.0], rep.size) if trial % 2 else rng.pareto(1.5, rep.size) + 1.0
        hits = rng.random(n) < (0.0 if trial % 10 == 0 else 0.6)
        weight = rng.uniform(0.5, 2.0, n)
        got = harness._anatomy_summary(rep, t, size, hits, weight, m)
        want = anatomy_summary_loop(rep, t, size, hits, weight, m)
        assert got == pytest.approx(want, rel=64 * np.finfo(float).eps, nan_ok=True), trial


def test_big_jump_anatomy_requires_proxy(mb_spec_nu0, exp_wait):
    cfg = base_config(mb_spec_nu0, exp_wait, k=1, event=TerminalExceed(1.0))
    with pytest.raises(ConfigurationError):
        big_jump_anatomy(cfg)


def test_merge_by_time_sums_colliding_jumps():
    from bigjump.events import _merge_by_time

    rep = np.array([0, 0, 0, 1, 1])
    t = np.array([0.5, 0.5, 0.2, 0.5, 0.5])
    size = np.array([1.0, 2.0, 0.5, 3.0, 4.0])
    r2, t2, s2 = _merge_by_time(rep, t, size)
    assert r2.tolist() == [0, 0, 1]
    assert t2.tolist() == [0.2, 0.5, 0.5]
    assert s2.tolist() == [0.5, 3.0, 7.0]
    r0, t0, s0 = _merge_by_time(np.empty(0, np.int64), np.empty(0), np.empty(0))
    assert r0.size == 0


def test_check_remainder_low_confidence_flag(mb_spec_nu2, exp_wait):
    cfg = base_config(mb_spec_nu2, exp_wait, seed=77)
    rows = check_remainder(cfg, [200.0], n_accept_target=50_000, max_sims=4000)
    assert rows[0]["low_confidence"]
    assert rows[0]["n_simulated"] <= 4000


def test_splitting_detail_reports_truncation_bounds(mb_spec_nu0, exp_wait):
    cfg = base_config(mb_spec_nu0, exp_wait, T=100.0, n_strata=500)
    est = splitting_estimate(cfg)
    d = est.detail
    assert d["m_max"] >= cfg.k + 2
    assert 0.0 <= d["neglected_default_truncation"] <= 1.0
    assert 0.0 <= d["tail_closure_prob"] <= 1e-3
    lo, hi = d["p_big_bracket"]
    assert lo <= d["p_big"] <= hi
    assert "bias_probe_k_plus_2" in d
    assert est.seed_lineage.startswith("seed=1234/")
    # branching, heavy-count and many-count comonotone clusters take the
    # lattice P(D > u) too
    light = TailLaw("exponential", 2.0)
    for cfg in (
        base_config(JointMarkSpec(mb_spec_nu0.x_law, phi=1.0 / 6.0), exp_wait, model="hawkes"),
        base_config(JointMarkSpec(light, "heavy_k_light_x", k_param=1.0, k_alpha=1.5), exp_wait, eta=0.9),
        base_config(JointMarkSpec(mb_spec_nu0.x_law, "comonotone", k_param=8.0), exp_wait),
    ):
        p, _, extra = _estimate_p_big(cfg, cfg.delta * cfg.scaling().x_T)
        lo, hi = extra["p_big_bracket"]
        assert 0.0 < lo <= p <= hi and "p_big_raw_hits" not in extra


# (mark law, nu, threshold u), fixed before any run: P(D > u) between 1.4% and
# 5%, except for point marks without offspring, where D = 1 > u always
SUPERSET_CASES = [
    (TailLaw("pareto", 1.0, 1.5), 0.0, 7.0),
    (TailLaw("pareto", 1.0, 1.5), 0.5, 12.0),
    (TailLaw("pareto", 1.0, 1.5), 2.0, 22.0),
    (TailLaw("pareto", 1.0, 1.5), 50.0, 250.0),
    (TailLaw("exponential", 2.0), 0.0, 6.0),
    (TailLaw("exponential", 2.0), 0.5, 8.5),
    (TailLaw("exponential", 2.0), 2.0, 14.5),
    (TailLaw("exponential", 2.0), 50.0, 135.0),
    (TailLaw("deterministic", 1.0), 0.0, 0.5),
    (TailLaw("deterministic", 1.0), 0.5, 3.5),
    (TailLaw("deterministic", 1.0), 2.0, 6.5),
    (TailLaw("deterministic", 1.0), 50.0, 63.5),
]
SUPERSET_IDS = [f"{law.family}-nu{nu:g}" for law, nu, _ in SUPERSET_CASES]


@pytest.mark.parametrize("law, nu, u", SUPERSET_CASES, ids=SUPERSET_IDS)
def test_superset_pool_matches_plain_rejection(exp_wait, law, nu, u):
    # the big pool's clusters against plain rejection on simulate_batch: K,
    # D, the immigrant mark and the largest mark, by two-sample KS tests
    spec = JointMarkSpec(law, "independent_light_k", k_param=nu)
    cfg = base_config(spec, exp_wait)
    n = 3000
    cid, off, mark, w, counts = _conditional_pool(cfg, substream(5, "superset"), n, u, superset=True)
    assert w is None and counts["accepted"] == n and counts["drawn"] >= n
    first_row = np.unique(cid, return_index=True)[1]  # a cluster's first row is its immigrant
    assert np.all(off[first_row] == 0.0)
    k = np.bincount(cid, minlength=n) - 1
    d = np.bincount(cid, weights=mark, minlength=n)
    x0 = mark[first_row]
    top = np.full(n, -np.inf)
    np.maximum.at(top, cid, mark)
    assert np.all(d > u)
    plain = big_pool_plain(spec, exp_wait, u, n, substream(6, "plain"), chunk=100_000)
    for name, a, b in zip(("K", "D", "X0", "max"), (k, d, x0, top), plain[:4]):
        assert stats.ks_2samp(a, b).pvalue > 1e-3, name


@pytest.mark.parametrize("law, nu, u", SUPERSET_CASES, ids=SUPERSET_IDS)
def test_superset_acceptance_is_p_big_over_superset_probability(exp_wait, law, nu, u):
    # D > u inside the superset event: the share of candidates kept is
    # P(D > u) / P(superset), with P(D > u) from the exact lattice bracket
    spec = JointMarkSpec(law, "independent_light_k", k_param=nu)
    p_big, half_width, _ = _estimate_p_big(base_config(spec, exp_wait), u)
    z = _superset_count_law(spec, u)[0][-1]
    n = 40_000
    kept = superset_batch(n, spec, exp_wait, substream(7, "superset"), u)
    want = min(p_big / z, 1.0)  # point marks: the superset event can be D > u itself
    se = np.hypot(np.sqrt(want * (1.0 - want) / n), half_width / z)
    assert abs(kept.n / n - want) <= 4.0 * se + 1e-12, (kept.n / n, want, se)
    assert np.all(kept.totals() > u)


def test_superset_pool_keeps_every_draw_without_offspring(mb_spec_nu0, exp_wait):
    # nu = 0: the superset event is X_0 > u itself
    d = splitting_estimate(base_config(mb_spec_nu0, exp_wait, n_strata=1500)).detail
    assert d["pools"]["big"]["drawn"] == d["pools"]["big"]["accepted"] == d["m_max"] * 1500


def test_superset_pool_refuses_an_unreachable_threshold_at_once(exp_wait):
    # point marks 0.2 with Poisson(2) counts: D > 100 needs K >= 500, whose
    # Poisson mass underflows; rejection gave up only after 50M draws
    spec = JointMarkSpec(TailLaw("deterministic", 0.2), "independent_light_k", k_param=2.0)
    with pytest.raises(ConfigurationError, match="outside the reachable range"):
        _conditional_pool(base_config(spec, exp_wait), substream(8, "superset"), 10, 100.0, superset=True)


def test_splitting_runs_at_a_thousand_offspring(pareto15, exp_wait):
    # a 1001-event cluster always passes u = 11.4, so one batch of 1024
    # candidates fills the pool; the tilted count table stays near nu
    spec = JointMarkSpec(pareto15, "independent_light_k", k_param=1000.0)
    cfg = base_config(spec, exp_wait, lam=0.02, n_strata=2)
    est = splitting_estimate(cfg)
    big = est.detail["pools"]["big"]
    assert big["accepted"] == 2 * est.detail["m_max"] and big["drawn"] == 1024
    assert 0.0 <= est.value <= 1.0
    assert _superset_count_law(spec, 0.5 * cfg.scaling().x_T)[0].size < 2000


@pytest.mark.parametrize("counts", ["independent_light_k", "comonotone"])
def test_splitting_refuses_threshold_beyond_reach_in_range(pareto15, exp_wait, counts):
    # T = 1e12 keeps lam T and the speed in range, so the refusal comes from
    # P(D > u) at u = 2e9: under the lattice's round-off or truncation bound
    spec = JointMarkSpec(pareto15, counts, k_param=2.0)
    cfg = base_config(spec, exp_wait, T=1e12, n_pbig=20_000)
    with pytest.raises(ConfigurationError, match="refusing to extrapolate"):
        splitting_estimate(cfg)


@pytest.mark.parametrize("nu", [0.0, 2.0])
def test_control_variate_means_match_the_covariates(pareto15, exp_wait, nu):
    # the exact means against the covariates of 8192 replications: guards
    # the small clusters' summed mass, the P(M > rank) weights and the
    # conditional tails P(D > b u)/p
    spec = JointMarkSpec(pareto15, "independent_light_k", k_param=nu)
    cfg = base_config(spec, exp_wait, T=100.0)
    u = cfg.delta * cfg.scaling().x_T
    p_big, _, d = _estimate_p_big(cfg, u)
    m_max = 6
    weights = np.cumsum(_poisson_weights(cfg.lam * cfg.T * p_big, m_max)[::-1])[::-1][1:]
    levels = (np.array(_CV_BIG) * u, weights)
    centering = centering_curve(cfg)
    x = np.concatenate([_stratum_chunk(cfg, i, 1024, u, p_big, m_max, centering, levels)[1] for i in range(8)])
    means, half_widths = _cv_means(cfg, u, p_big, d["p_big_bracket"], weights)
    assert x.shape == (8192, 7) and np.all(half_widths < 1e-2 * means)
    se = x.std(axis=0, ddof=1) / np.sqrt(x.shape[0])
    assert np.all(np.abs(x.mean(axis=0) - means) <= 4.0 * se + half_widths), (x.mean(axis=0), means, se)


# (mark law, nu, threshold u), fixed before any run: exponential marks, where
# D given K = n is Gamma(n + 1, scale), and point marks 1.3, where D = 1.3 (K + 1)
MASS_MEAN_CASES = [
    (TailLaw("exponential", 2.0), 0.0, 6.0),
    (TailLaw("exponential", 2.0), 2.0, 14.5),
    (TailLaw("deterministic", 1.3), 0.5, 3.0),
    (TailLaw("deterministic", 1.3), 2.0, 5.5),
    (TailLaw("deterministic", 1.3), 2.0, 7.0),
]
MASS_MEAN_IDS = [f"{law.family}-nu{nu:g}-u{u:g}" for law, nu, u in MASS_MEAN_CASES]


@pytest.mark.parametrize("law, nu, u", MASS_MEAN_CASES, ids=MASS_MEAN_IDS)
def test_small_mass_mean_brackets_the_closed_form(exp_wait, law, nu, u):
    # lam T (1 - p_big) (I - u p)/(1 - p), with p = P(D > u) and I = E[min(D, u)]
    # exact, inside the first mean of _cv_means plus or minus its half-width
    spec = JointMarkSpec(law, "independent_light_k", k_param=nu)
    cfg = base_config(spec, exp_wait)
    p_big, _, d = _estimate_p_big(cfg, u)
    n = np.arange(200)
    pk = stats.poisson.pmf(n, nu)
    if law.family == "exponential":
        s = law.scale
        tail = stats.gamma.sf(u, n + 1, scale=s)
        p = float(pk @ tail)
        i = float(pk @ ((n + 1) * s * stats.gamma.cdf(u, n + 2, scale=s) + u * tail))
    else:
        mass = law.scale * (n + 1)
        p = float(pk @ (mass > u))
        i = float(pk @ np.minimum(mass, u))
    want = cfg.lam * cfg.T * (1.0 - p_big) * (i - u * p) / (1.0 - p)
    means, half_widths = _cv_means(cfg, u, p_big, d["p_big_bracket"], np.ones(3))
    assert abs(means[0] - want) <= half_widths[0], (means[0], want, half_widths[0])
    assert half_widths[0] <= 1e-3 * means[0]


# (value, stderr, ci95) of the parent estimator, which had no control
# variates: branching, comonotone and heavy-count clusters are outside their
# scope, and MB runs below the fold floor keep the plain mean; without
# offspring the superset pool's first batch is sized as before.  Re-recorded
# when the Poisson weights and the Hurwitz zeta left scipy for numpy: all but
# "heavy" moved in their last bits (|change| <= 2.3e-16), and over seeds
# 5000-5019 of these five configs and an MB nu = 2 one with control variates
# the old and new estimates, stderrs and interval ends differed by at most
# 2.8e-16.  "hawkes", "heavy" and "comonotone" re-recorded again when their
# P(D > u) became a lattice bracket: over seeds 6000-6019 the Monte Carlo
# and lattice means agree within 0.37 and 0.15 combined se ("hawkes",
# "heavy"; se 0.0100 -> 0.0087 and 0.0103 -> 0.0081), and "comonotone",
# whose lattice now sums its count powers in the transform domain, moved in
# its last bits (|change| <= 2e-14)
PLAIN_ROWS = {
    "hawkes": (0.24142642738473338, 0.008874156626496087, (0.22403308039680106, 0.25881977437266573)),
    "comonotone": (0.25405151076858257, 0.00897248616310636, (0.2364654378888941, 0.271637583648271)),
    "heavy": (0.23168889952560906, 0.008189078341699553, (0.21563830597587794, 0.24773949307534018)),
    "nu0-terminal-319": (0.19346079499770397, 0.011745727526613783, (0.17043916904554096, 0.21648242094986697)),
    "nu0-sup-300": (0.3254693630751768, 0.01552484047663799, (0.2950406757409664, 0.35589805040938727)),
}


def test_splitting_rows_without_control_variates_are_unchanged(pareto15, exp_wait):
    cases = {
        "hawkes": base_config(JointMarkSpec(pareto15, phi=1.0 / 6.0), exp_wait, model="hawkes", n_pbig=50_000),
        "comonotone": base_config(JointMarkSpec(pareto15, "comonotone", k_param=0.5), exp_wait),
        "heavy": base_config(
            JointMarkSpec(TailLaw("exponential", 2.0), "heavy_k_light_x", k_param=1.0, k_alpha=1.5),
            exp_wait, eta=0.9, n_pbig=50_000,
        ),
        "nu0-terminal-319": base_config(JointMarkSpec(pareto15), exp_wait, n_strata=319),
        "nu0-sup-300": base_config(JointMarkSpec(pareto15), exp_wait, event=SupExceed(1.0), n_strata=300),
    }
    for name, cfg in cases.items():
        est = splitting_estimate(cfg)
        assert (est.value, est.stderr, est.ci95) == PLAIN_ROWS[name], name
        cv = est.detail.get("control_variates")
        if name.startswith("nu0"):
            assert not cv["applied"] and cv["off_reason"] == "below the fold floor", name
        else:
            assert cv is None, name


def test_control_variates_report_the_plain_mean_outside_the_unit_interval(
    mb_spec_nu2, exp_wait, monkeypatch
):
    cfg = base_config(mb_spec_nu2, exp_wait, n_strata=600)
    plain = splitting_estimate(cfg)
    assert plain.detail["control_variates"]["applied"]
    fit = harness._cross_fit

    def shifted(y, x, means):
        adj, betas = fit(y, x, means)
        return adj + 2.0, betas

    monkeypatch.setattr(harness, "_cross_fit", shifted)
    est = splitting_estimate(cfg)
    d = est.detail
    cv = d["control_variates"]
    assert not cv["applied"] and cv["off_reason"] == "adjusted mean outside [0, 1]"
    assert cv["adjusted_estimate"] == pytest.approx(plain.value + 2.0)
    mean = _poisson_weights(d["rate"], d["m_max"]) @ np.array([d["strata"][m] for m in range(d["m_max"] + 1)])
    assert est.value == pytest.approx(mean, rel=1e-12) and est.stderr > plain.stderr
    assert 0.0 <= est.ci95[0] < est.value < est.ci95[1]


def test_control_variates_keep_the_exact_bound_without_hits(mb_spec_nu2, exp_wait):
    # every Y_r is 0 above the fold floor too: the plain mean and its exact bound
    split = splitting_estimate(base_config(mb_spec_nu2, exp_wait, event=TerminalExceed(200.0), n_strata=500))
    assert split.detail["control_variates"]["off_reason"] == "constant scores"
    assert split.value == 0.0 and split.ci95 == (0.0, 1.0 - 0.025 ** (1.0 / 500))


@pytest.mark.parametrize("model", ["mb", "hawkes"])
@pytest.mark.parametrize("xq", [None, 3.0])
def test_mean_cluster_size_matches_sampled_clusters(exp_wait, model, xq):
    # the size that bounds a draw's events, with the immigrant's mark plain
    # or from the defensive mixture tilted above xq, against 200,000 clusters
    law = TailLaw("pareto", 1.0, 3.0)
    spec = JointMarkSpec(law, "comonotone", k_param=1.0) if model == "mb" else JointMarkSpec(law, phi=1.0 / 3.0)
    cfg = base_config(spec, exp_wait, model=model)
    n, rng = 200_000, substream(31, "cluster-size", model)
    x0 = None
    if xq is not None:
        x0, _ = harness._tilted_marks(law, xq, rng.random(n), rng.random(n) < 0.5)
    b = harness.simulate_batch(model, n, spec, exp_wait, rng, cfg.cap, x0=x0, with_offsets=False)
    size, _ = harness._mean_cluster_size(cfg, xq)
    assert b.mark.size / n == pytest.approx(size, rel=0.02)


def test_pool_size_is_bounded_by_tasks_and_cpus(recording_pool, monkeypatch):
    # a pool starts every process it is asked for at the first submit
    sizes = recording_pool
    tasks = [(i,) for i in range(9766)]  # n_reps = 1e7 in 1024-replication chunks
    for workers, n_tasks, cpus, want in [(10_000, 9766, 2, 2), (10_000, 5, 64, 5), (3, 9766, 64, 3)]:
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        assert harness._run_tasks(abs, tasks[:n_tasks], workers) == list(range(n_tasks))
        assert sizes.pop() == want
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    assert harness._run_tasks(abs, tasks[:5], 10_000) == list(range(5)) and not sizes  # serial
    monkeypatch.undo()
    assert 1 <= harness._usable_cpus() <= (os.cpu_count() or 1)


def test_control_variate_fold_floor_follows_the_covariate_count(mb_spec_nu2, exp_wait):
    # 20 informative replications per coefficient (the slopes and an
    # intercept) in each parity fold: 400 for crude's nine columns and 320
    # for splitting's seven
    cfg = base_config(mb_spec_nu2, exp_wait, n_reps=200, estimator="crude")
    crude = crude_estimate(cfg)
    split = splitting_estimate(base_config(mb_spec_nu2, exp_wait, n_strata=100))
    _, crude_columns, _ = harness._crude_chunk(cfg, 0, 200, centering_curve(cfg))
    columns = [crude_columns.shape[1], 1 + len(_CV_BIG)]  # the small mass and each big level
    for est, k in zip((crude, split), columns):
        cv = est.detail["control_variates"]
        assert len(cv["means"]) == k and cv["fold_floor"] == 40 * (k + 1)
    assert [crude.detail["control_variates"]["fold_floor"], split.detail["control_variates"]["fold_floor"]] == [400, 320]


def test_splitting_constant_scores_below_the_fold_floor(mb_spec_nu2, exp_wait):
    # every score is 0 on fewer replications than the floor: the scores are
    # checked first, as the crude estimator checks them
    n = 300
    split = splitting_estimate(base_config(mb_spec_nu2, exp_wait, event=TerminalExceed(200.0), n_strata=n))
    cv = split.detail["control_variates"]
    assert not cv["applied"] and cv["off_reason"] == "constant scores"
    assert split.value == 0.0 and split.ci95 == (0.0, 1.0 - 0.025 ** (1.0 / n))


def test_superset_pool_sizes_its_first_batch_from_the_acceptance(pareto15, exp_wait, monkeypatch):
    # P(D > u) / P(superset) is known, so the first batch draws n / accept
    # candidates instead of n
    spec = JointMarkSpec(pareto15, "independent_light_k", k_param=2.0)
    calls = []
    real = harness.superset_batch

    def spy(n, *args):
        calls.append(n)
        return real(n, *args)

    monkeypatch.setattr(harness, "superset_batch", spy)
    d = splitting_estimate(base_config(spec, exp_wait, n_strata=600)).detail
    accept = d["p_big"] / superset_probability(spec, d["threshold"])
    assert 0.1 < accept < 0.5
    assert calls[0] == int(d["m_max"] * 600 / accept)
    assert d["pools"]["big"]["drawn"] == sum(calls)


def test_crude_chunk_memory_per_event(hawkes_spec_half, exp_wait):
    # perfbench's hawkes config: a 1024-replication chunk holds about 410k
    # events; with the jump arrays built in the batch's own memory and no
    # lineage, its traced peak stays within 52 bytes an event (about 43)
    import tracemalloc

    cfg = base_config(
        hawkes_spec_half, exp_wait, model="hawkes", T=200.0, event=SupExceed(1.0), grid_n=1024, estimator="crude"
    )
    centering = centering_curve(cfg)
    _, _, batch = harness.draw_clusters(cfg, 1024, substream(cfg.seed, "crude", 0))
    events = batch.cid.size
    del batch
    tracemalloc.start()
    try:
        harness._crude_chunk(cfg, 0, 1024, centering)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert events > 300_000 and peak / events <= 52.0, (events, peak / events)


def test_pool_batches_expect_at_most_the_event_bound(mb_spec_nu2, hawkes_spec_half, exp_wait, monkeypatch):
    # with the bound at 3e4 events every pool batch holds at most 3e4 over
    # the mean cluster size: the small and big rejection pools, the tilted
    # one (anatomy, remainder) and the superset one.  The stand-in samplers
    # record each batch's size and return immigrant-only clusters that all
    # pass the pool's test, so nothing is drawn at the unbounded size
    monkeypatch.setattr(harness, "_MAX_DRAW_EVENTS", 3e4)
    calls = []

    def clusters(n, mark):
        calls.append(n)
        cid = np.arange(n, dtype=np.int64)
        return BatchClusters(n, cid, None, np.zeros(n), np.full(n, mark), None, np.zeros(n, dtype=bool))

    u = 10.0
    mark = {True: 2.0 * u, False: 0.5 * u}
    for model, spec in (("mb", mb_spec_nu2), ("hawkes", hawkes_spec_half)):
        cfg = base_config(spec, exp_wait, model=model)
        pools = [{"big": False}, {"big": True}, {"big": True, "xq": 3.0}]
        if model == "mb":
            pools.append({"big": True, "superset": True, "accept": 0.01})
        for kw in pools:
            big = kw["big"]
            monkeypatch.setattr(harness, "simulate_batch", lambda model, n, *a, **k: clusters(n, mark[big]))
            monkeypatch.setattr(harness, "superset_batch", lambda n, *a: clusters(n, mark[True]))
            want = int(3e4 / harness._mean_cluster_size(cfg, kw.get("xq"))[0])
            calls.clear()
            counts = _conditional_pool(cfg, substream(36, "pool-bound"), 5 * want, u, **kw)[-1]
            assert counts["accepted"] == 5 * want and calls == [want] * 5, (model, kw, calls)
