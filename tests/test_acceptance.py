"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance is pinned here.  Statistical checks run on fixed seeds so
verdicts are reproducible run to run.
"""
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from bigjump.clusters import simulate_batch
from bigjump.events import JumpCount, TerminalExceed
from bigjump.harness import (
    ExperimentConfig,
    big_jump_anatomy,
    centering_curve,
    check_assumption6,
    check_remainder,
    crude_estimate,
    splitting_estimate,
)
from bigjump.laws import JointMarkSpec, TailLaw, WaitLaw
from bigjump.m1 import m1_distance
from bigjump.measures import measure_for_model, mu_bar_tail, mu_sharp
from bigjump.paths import centering_hawkes, centering_mb
from bigjump.streams import substream

from .conftest import random_jump_path
from .oracles import branching_path_mean, brute_force_m1, quadrature_centering_oracle

PARETO = TailLaw("pareto", 1.0, 1.5)
EXP_WAIT = WaitLaw(TailLaw("exponential", 1.0))
SPEC_NU2 = JointMarkSpec(PARETO, "independent_light_k", k_param=2.0)
SPEC_NU0 = JointMarkSpec(PARETO, "independent_light_k", k_param=0.0)
SPEC_HAWKES = JointMarkSpec(PARETO, "independent_light_k", phi=1.0 / 6.0)  # E[kappa] = 0.5


def _verdict(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_c1_m1_oracle_equivalence():
    """Exact metric vs dense parametrization search, plus metric axioms."""
    rng = substream(101, "c1-pairs")
    worst = 0.0
    bound = 1e-6
    for _ in range(200):
        p1 = random_jump_path(rng, max_jumps=4, height=5.0)
        p2 = random_jump_path(rng, max_jumps=4, height=5.0)
        d = m1_distance(p1, p2, tol=1e-9)
        oracle, spacing = brute_force_m1(p1, p2, h=0.02)
        gap = abs(d - oracle)
        bound = max(1e-6, spacing)
        worst = max(worst, gap)
        assert gap <= bound, (gap, bound)

    rng = substream(101, "c1-triples")
    tol = 1e-9
    axiom_ok = True
    for _ in range(1000):
        p1, p2, p3 = (random_jump_path(rng, max_jumps=5, height=5.0) for _ in range(3))
        d12 = m1_distance(p1, p2, tol)
        axiom_ok &= d12 == m1_distance(p2, p1, tol)
        axiom_ok &= m1_distance(p1, p1, tol) <= tol
        axiom_ok &= d12 <= m1_distance(p1, p3, tol) + m1_distance(p3, p2, tol) + 2 * tol
    ok = _verdict(
        "1",
        axiom_ok,
        f"200 oracle pairs within the grid bound (worst gap {worst:.2e}, bound {bound:.2e}); "
        "metric axioms on 1000 triples",
    )
    assert ok


def test_c2_cluster_law_sanity():
    b_mb = simulate_batch("mb", 100_000, SPEC_NU2, EXP_WAIT, substream(102, "c2-mb"))
    s_mb = np.bincount(b_mb.cid, minlength=b_mb.n)
    se_mb = s_mb.std() / np.sqrt(s_mb.size)
    mb_ok = abs(s_mb.mean() - 3.0) < 3 * se_mb

    b_h = simulate_batch("hawkes", 100_000, SPEC_HAWKES, EXP_WAIT, substream(102, "c2-h"))
    s_h = np.bincount(b_h.cid, minlength=b_h.n)
    se_h = s_h.std() / np.sqrt(s_h.size)
    h_ok = abs(s_h.mean() - 2.0) < 3 * se_h

    ok = _verdict(
        "2",
        mb_ok and h_ok,
        f"MB mean size {s_mb.mean():.4f} vs 3 (3se={3*se_mb:.4f}); "
        f"branching mean size {s_h.mean():.4f} vs 2 (3se={3*se_h:.4f})",
    )
    assert ok


def _tail_ratio(model: str, spec: JointMarkSpec, constant: float, seed_label: str) -> float:
    rng = substream(103, seed_label)
    n = 10_000_000
    d = np.empty(n)
    done = 0
    while done < n:
        b = min(n - done, 2_000_000)
        batch = simulate_batch(model, b, spec, EXP_WAIT, rng, with_offsets=False)
        d[done : done + b] = batch.totals()
        done += b
    x = float(np.quantile(d, 0.999))
    p = float((d > x).mean())
    return p / (constant * float(PARETO.tail(x)))


def test_c3_tail_equivalence_constants():
    r_mb = _tail_ratio("mb", SPEC_NU2, 3.0, "c3-mb")
    c_h = measure_for_model("hawkes", SPEC_HAWKES).constant
    r_h = _tail_ratio("hawkes", SPEC_HAWKES, c_h, "c3-h")
    ok = _verdict(
        "3",
        0.85 <= r_mb <= 1.15 and 0.85 <= r_h <= 1.15,
        f"1e7-cluster tail ratios at the 99.9% quantile: MB-independent {r_mb:.4f}, "
        f"branching-comonotone {r_h:.4f} (C_H={c_h:.4f}), band [0.85, 1.15]",
    )
    assert ok


def _c4_config(T: float) -> ExperimentConfig:
    return ExperimentConfig(
        model="mb",
        lam=1.0,
        T=T,
        eta=0.8,
        spec=SPEC_NU2,
        wait=EXP_WAIT,
        k=0,
        event=TerminalExceed(1.0),
        n_reps=20_000,
        seed=104,
        delta=0.5,
        grid_n=8192,
        n_pbig=400_000,
        n_strata=4000,
    )


def _c4_ratio(cfg: ExperimentConfig, measure) -> tuple[float, float]:
    """(v'(x_T) * P / limit, limit / v'(x_T)) for one k=0 terminal run."""
    limit = mu_bar_tail(measure, cfg.lam, 0, cfg.event.c)
    vp = cfg.scaling().speed_prime(PARETO)
    return vp * splitting_estimate(cfg).value / limit, limit / vp


def test_c4_ldp_k0_ratio():
    # Two parts.  The pinned horizons (lam=1, T=50/100/200) are the trend
    # check: the ratio must rise strictly toward 1 from below.  They cannot
    # carry the band, because there x_T = T^0.8 (69.3 at T=200) sits at the
    # stable-bulk scale (lam*T*C)^(1/alpha) = 71.1 of the centered mass sum:
    # the one-jump approximation of the probability itself, limit / v', is
    # lam*T*C*P(X > x_T) = 1.04 > 1, so the asymptote cannot describe P yet.
    # At T=200 the program's splitting estimate (0.2688 +- 0.0013, the mean
    # of seeds 1000-1019 at se 0.006 each), its crude estimate at 100k reps
    # (0.2703 +- 0.0014) and a separate numpy Monte Carlo with exact
    # centering 1794 at 400k reps (0.2694 +- 0.0007) agree, so the low ratio
    # is the true pre-asymptotic value, not an estimator fault.
    # The band [0.5, 2] is asserted on a companion run in the big-jump domain
    # x_T >> (lam*T*C)^(1/alpha) (Denisov, Dieker & Shneer 2008): the same
    # config at T=200 with lam=0.1, where limit / v' = 0.104 and the ratio
    # is about 1.07.  lam=0.1 also exercises the lam^(k+1) factor of
    # mu_bar_tail, which no ratio at lam=1 can see.
    measure = measure_for_model("mb", SPEC_NU2)
    ratios = [_c4_ratio(_c4_config(T), measure)[0] for T in (50.0, 100.0, 200.0)]
    trend_ok = ratios[0] < ratios[1] < ratios[2] <= 1.0

    companion = replace(_c4_config(200.0), lam=0.1)
    ratio_big, one_jump = _c4_ratio(companion, measure)
    band_ok = 0.5 <= ratio_big <= 2.0
    _verdict(
        "4",
        trend_ok and band_ok and one_jump <= 0.15,
        f"trend (asserted at lam=1): splitting ratios v'*P/limit at T=50,100,200: "
        f"{ratios[0]:.4f}, {ratios[1]:.4f}, {ratios[2]:.4f} "
        f"{'rise toward 1' if trend_ok else 'BROKEN'}; band (asserted at lam=0.1, "
        f"T=200, limit/v'={one_jump:.3f}): ratio {ratio_big:.4f} "
        f"{'in' if band_ok else 'OUTSIDE'} [0.5, 2]",
    )
    assert trend_ok, f"ratio sequence {ratios} is not monotone toward 1"
    assert one_jump <= 0.15, (
        f"companion run is not in the big-jump domain: limit/v' = {one_jump:.4f} > 0.15"
    )
    assert band_ok, f"big-jump-domain ratio {ratio_big:.4f} outside [0.5, 2]"


def _c5_config(estimator: str, n_reps: int = 30_000) -> ExperimentConfig:
    return ExperimentConfig(
        model="mb",
        lam=1.0,
        T=200.0,
        eta=0.8,
        spec=SPEC_NU0,
        wait=EXP_WAIT,
        k=1,
        event=JumpCount(2, 0.5),
        n_reps=n_reps,
        seed=105,
        delta=0.5,
        grid_n=4096,
        n_pbig=400_000,
        n_strata=4000,
        estimator=estimator,
    )


def test_c5_hidden_rv_k1():
    cfg = _c5_config("splitting")
    measure = measure_for_model("mb", SPEC_NU0)
    limit = mu_sharp(measure, 1.0, 1, cfg.event)
    split = splitting_estimate(cfg)
    vp2 = cfg.scaling().speed_prime(PARETO) ** 2
    ratio = vp2 * split.value / limit
    factor_ok = 1.0 / 3.0 <= ratio <= 3.0

    crude = crude_estimate(_c5_config("crude"))
    gap = abs(crude.value - split.value)
    band = 3.0 * float(np.hypot(crude.stderr, split.stderr)) + 1e-6
    agree_ok = gap <= band
    ok = _verdict(
        "5",
        factor_ok and agree_ok,
        f"v'^2 * P / mu#_2 = {ratio:.4f} (limit mass {limit}); "
        f"crude {crude.value:.5f} vs splitting {split.value:.5f}, |diff| {gap:.2e} <= {band:.2e}",
    )
    assert ok


def test_c6_remainder_negligibility():
    grid = [25.0, 50.0, 100.0, 200.0]
    cfg_exp = ExperimentConfig(
        model="mb", lam=1.0, T=200.0, eta=0.8, spec=SPEC_NU2, wait=EXP_WAIT,
        k=0, event=TerminalExceed(1.0), n_reps=1000, seed=106,
    )
    rows = check_remainder(cfg_exp, grid, n_accept_target=10_000)
    ests = [r["estimate"] for r in rows]
    rho = float(stats.spearmanr(grid, ests).statistic)
    exp_ok = rho <= -0.9 and ests[-1] < 0.05

    heavy_wait = WaitLaw(TailLaw("pareto", 1.0, 0.5))
    tab, verdict = check_assumption6(heavy_wait, 0.8, 0.1, grid)
    cfg_heavy = replace(cfg_exp, wait=heavy_wait)
    rows_h = check_remainder(cfg_heavy, grid, n_accept_target=10_000)
    ests_h = [r["estimate"] for r in rows_h]
    heavy_ok = verdict == "violated" and ests_h[-1] >= 0.05

    ok = _verdict(
        "6",
        exp_ok and heavy_ok,
        f"exp waits: spearman {rho:.2f}, final {ests[-1]:.4f} (<0.05); "
        f"heavy waits: assumption verdict '{verdict}', final {ests_h[-1]:.4f} (>=0.05, no decay below)",
    )
    assert ok


def test_c7_centering_correctness():
    path = centering_mb(1.0, 50.0, SPEC_NU2, EXP_WAIT, 2**14)
    closed = path.right
    oracle = quadrature_centering_oracle(1.0, 50.0, 3.0, 2.0, lambda s: 1.0 - np.exp(-s), path.t)
    sup_gap = float(np.abs(closed - oracle).max())
    mb_ok = sup_gap < 1e-8

    # branching: fertility 1/2, Exp(1) waits, T=200, with marks at their mean
    # 3 so the brute force has finite variance; early times separate
    # generations booked at their own offsets from subtrees booked at their
    # roots' waits (1194 vs 1197 at the terminal)
    spec = JointMarkSpec(TailLaw("deterministic", 3.0), phi=1.0 / 6.0)
    lam, T, ts = 1.0, 200.0, np.array([0.05, 0.25, 1.0])
    exact = centering_hawkes(lam, T, spec, EXP_WAIT, 1024).values_at(ts)
    bf, bf_se = branching_path_mean(lam, T, spec, EXP_WAIT, ts, 1_000_000, substream(107, "c7-b"))
    z = float(np.abs((exact - bf) / bf_se).max())
    h_ok = z < 3.0
    ok = _verdict(
        "7",
        mb_ok and h_ok,
        f"MB centering vs quadrature sup gap {sup_gap:.2e} (<1e-8); "
        f"branching centering terminal {exact[-1]:.1f} vs all-generation brute force "
        f"{bf[-1]:.1f} (max z={z:.2f} < 3 over 3 times at 1e6 clusters)",
    )
    assert ok


CFG_TEXT = """
model = mb
lambda_rate = 1.0
T_horizon = 50.0
eta_exponent = 0.8
mark_family = pareto
mark_alpha = 1.5
mark_scale = 1.0
dependence = independent_light_k
k_param = 0.0
event = terminal_exceed:1.0
n_reps = 3000
seed_root = 108
n_strata = 800
n_pbig = 80000
grid_n = 512
estimator = splitting
"""


# frozen ldp row (wall_seconds excluded) of the run below under its fixed seed;
# re-recorded when the big pool moved to the superset sampler: over seeds
# 3000-3019 the old and new estimators averaged 0.18549 and 0.18710 (gap 0.72
# combined se), and the new seed-to-seed sd 0.00692 matches its mean se 0.00763;
# re-recorded when splitting gained its control variates: over seeds
# 6000-6019 the plain and adjusted estimators averaged 0.18418 and 0.18454
# (gap 0.22 combined se), and the adjusted seed-to-seed sd 0.00295 matches
# its mean se 0.00349; re-recorded when the small-cluster covariates became
# the summed small mass: over the same seeds the old and new adjusted
# estimators averaged 0.18454 and 0.18450 (gap 0.03 combined se), and the
# new seed-to-seed sd 0.00302 matches its mean se 0.00344
GOLDEN_C8 = {
    "config_hash": "051606de2e070445",
    "T": "50.0",
    "eta": "0.8",
    "k": "0",
    "event": "terminal_exceed:1.0",
    "estimate": "0.18333302168293814",
    "stderr": "0.00332119067717632",
    "limit_value": "1.0",
    "ratio": "0.4008987456190905",
    "n_reps": "3000",
    "seed": "108",
}


def test_c8_worker_determinism(tmp_path):
    from bigjump.cli import main

    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CFG_TEXT)
    rows = []
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}"
        assert main(["ldp", "--config", str(cfg_file), "--out", str(out), "--workers", str(workers)]) == 0
        with open(os.path.join(out, "results.csv")) as fh:
            header, row = fh.read().strip().split("\n")
        rows.append((header.split(","), row.split(",")))
    headers = [h for h, _ in rows]
    assert headers[0] == headers[1] == headers[2]
    idx_wall = headers[0].index("wall_seconds")
    stripped = [tuple(v for i, v in enumerate(r) if i != idx_wall) for _, r in rows]
    ok = stripped[0] == stripped[1] == stripped[2]
    golden_ok = dict(zip([h for h in headers[0] if h != "wall_seconds"], stripped[0])) == GOLDEN_C8
    _verdict(
        "8",
        ok and golden_ok,
        "ldp result rows byte-identical for workers 1/2/8 "
        "(wall_seconds excluded: timing is inherently nondeterministic); golden row reproduced",
    )
    assert ok and golden_ok


# frozen outputs of the two anatomy runs below under their fixed seeds;
# re-recorded when the big clusters left the immigrant-mark tilt for the
# unweighted superset sampler: over seeds 200-209 the old and new means of
# every summary agree within 0.5 combined seed-to-seed sd (k=0 median top-1
# share 0.95944 +- 0.00050 against 0.95919 +- 0.00033; k=1 top-1 0.58841 +-
# 0.00219 against 0.58906 +- 0.00314, top-2 0.96440 against 0.96415)
GOLDEN_K0 = {"median_top1_share": 0.9592543540311148, "n_hits": 2884}
GOLDEN_K1 = {
    "median_top_share": 0.9644282253110217,
    "median_top1_share": 0.5924785719804609,
    "n_hits": 2024,
}


def test_c9_big_jump_anatomy():
    cfg0 = ExperimentConfig(
        model="mb", lam=1.0, T=100.0, eta=0.8, spec=SPEC_NU0, wait=EXP_WAIT,
        k=0, event=TerminalExceed(100.0), n_reps=1000, seed=109, n_strata=4000,
    )
    out0 = big_jump_anatomy(cfg0)
    k0_ok = out0["median_top1_share"] >= 0.9

    cfg1 = replace(cfg0, k=1, event=JumpCount(2, 50.0))
    out1 = big_jump_anatomy(cfg1)
    k1_ok = out1["median_top_share"] >= 0.9 and out1["median_top1_share"] <= 0.85

    golden_ok = (
        out0["median_top1_share"] == pytest.approx(GOLDEN_K0["median_top1_share"], rel=1e-12)
        and out0["n_hits"] == GOLDEN_K0["n_hits"]
        and out1["median_top_share"] == pytest.approx(GOLDEN_K1["median_top_share"], rel=1e-12)
        and out1["median_top1_share"] == pytest.approx(GOLDEN_K1["median_top1_share"], rel=1e-12)
        and out1["n_hits"] == GOLDEN_K1["n_hits"]
    )
    ok = _verdict(
        "9",
        k0_ok and k1_ok and golden_ok,
        f"k=0 extreme-threshold median top-1 share {out0['median_top1_share']:.4f} (>=0.9, "
        f"{out0['n_hits']} hits); k=1 two-jump shares: top-2 {out1['median_top_share']:.4f} "
        f">= 0.9, top-1 {out1['median_top1_share']:.4f} <= 0.85; golden values reproduced",
    )
    assert ok
