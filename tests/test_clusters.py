import hashlib

import numpy as np
import pytest
from scipy import stats

from bigjump import clusters
from bigjump.clusters import DEFAULT_CAP, _superset_count_law, simulate_batch, superset_batch
from bigjump.errors import ConfigurationError
from bigjump.events import TerminalExceed
from bigjump.harness import ExperimentConfig, draw_clusters, replication_path
from bigjump.laws import JointMarkSpec, TailLaw, WaitLaw
from bigjump.paths import CadlagPath
from bigjump.streams import substream

from .oracles import superset_batch_plain


def arrivals_config(x_law, lam, T):
    return ExperimentConfig(
        model="mb",
        lam=lam,
        T=T,
        eta=0.8,
        spec=JointMarkSpec(x_law),
        wait=WaitLaw(TailLaw("exponential", 1.0)),
        k=0,
        event=TerminalExceed(1.0),
        n_reps=100,
        seed=0,
    )


def check_parent_invariants(b):
    """Every event's parent row precedes it, belongs to the same cluster, is
    one generation earlier and has an earlier offset; immigrants are their
    own parents at offset 0."""
    rows = np.arange(b.cid.size)
    imm = rows < b.n
    assert np.array_equal(b.cid[imm], rows[imm])
    assert np.array_equal(b.parent[imm], rows[imm])
    assert np.all(b.generation[imm] == 0) and np.all(b.offset[imm] == 0.0)
    child, par = rows[~imm], b.parent[~imm]
    assert np.all(par < child)
    assert np.array_equal(b.cid[par], b.cid[child])
    assert np.array_equal(b.generation[par] + 1, b.generation[child])
    assert np.all(b.offset[child] > b.offset[par])


def test_no_immigrants_at_zero_rate(pareto15):
    counts, gammas, batch = draw_clusters(arrivals_config(pareto15, 0.0, 10.0), 5, substream(0, "i"))
    assert np.all(counts == 0)
    assert gammas.size == 0 and batch.n == 0 and batch.cid.size == 0


def test_immigrant_count_mean(pareto15):
    cfg = arrivals_config(pareto15, 2.0, 50.0)
    rng = substream(1, "i")
    counts = np.concatenate([draw_clusters(cfg, 10_000, rng)[0] for _ in range(10)]).astype(float)
    se = counts.std() / np.sqrt(counts.size)
    assert abs(counts.mean() - 100.0) < 3 * se


def test_immigrants_sorted_in_window(pareto15):
    cfg = arrivals_config(pareto15, 3.0, 20.0)
    counts, gammas, batch = draw_clusters(cfg, 50, substream(2, "i"))
    assert gammas.size == batch.n == counts.sum() > 0
    assert np.all((0 <= gammas) & (gammas <= 20.0))
    # clusters keep draw order; the path of a replication of immigrant-only
    # clusters jumps at their sorted arrival times
    _, gammas, batch = draw_clusters(cfg, 1, substream(2, "p"))
    zero = CadlagPath(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2))
    path = replication_path(cfg, gammas, batch, zero)
    assert np.array_equal(path.t[path.jump_sizes() > 0], np.sort(gammas) / 20.0)


def test_mb_cluster_immigrant_only(pareto15, exp_wait):
    spec = JointMarkSpec(pareto15, "independent_light_k", k_param=0.0)
    b = simulate_batch("mb", 1, spec, exp_wait, substream(3, "c"), x0=np.array([2.5]))
    assert np.bincount(b.cid, minlength=b.n).tolist() == [1]
    assert b.totals().tolist() == [2.5]


def test_mb_cluster_mean_size(mb_spec_nu2, exp_wait):
    n = 100_000
    b = simulate_batch("mb", n, mb_spec_nu2, exp_wait, substream(4, "c"), x0=np.ones(n))
    sizes = np.bincount(b.cid, minlength=n)
    se = sizes.std() / np.sqrt(sizes.size)
    assert abs(sizes.mean() - 3.0) < 3 * se


def test_mb_comonotone_size_given_mark(pareto15, exp_wait):
    spec = JointMarkSpec(pareto15, "comonotone", k_param=1.0)
    b = simulate_batch("mb", 1, spec, exp_wait, substream(5, "c"), x0=np.array([2.4]))
    assert np.bincount(b.cid, minlength=b.n).tolist() == [1 + 3]  # 1 + ceil(2.4)


def test_mb_size_distribution_matches_poisson(mb_spec_nu2, exp_wait):
    n = 100_000
    b = simulate_batch("mb", n, mb_spec_nu2, exp_wait, substream(6, "chi"), x0=np.ones(n))
    sizes = np.bincount(b.cid, minlength=b.n) - 1
    kmax = 10
    observed = np.bincount(np.minimum(sizes, kmax), minlength=kmax + 1)
    probs = stats.poisson.pmf(np.arange(kmax), 2.0)
    probs = np.append(probs, 1.0 - probs.sum())
    res = stats.chisquare(observed, probs * sizes.size)
    assert res.pvalue > 0.01


def test_hawkes_zero_fertility_is_immigrant_only(pareto15, exp_wait):
    spec = JointMarkSpec(pareto15, "independent_light_k", phi=0.0)
    b = simulate_batch("hawkes", 100, spec, exp_wait, substream(7, "h"))
    assert np.all(np.bincount(b.cid, minlength=b.n) == 1) and not b.truncated.any()


def test_hawkes_mean_size(hawkes_spec_half, exp_wait):
    b = simulate_batch("hawkes", 20_000, hawkes_spec_half, exp_wait, substream(8, "h"))
    sizes = np.bincount(b.cid, minlength=b.n)
    se = sizes.std() / np.sqrt(sizes.size)
    assert abs(sizes.mean() - 2.0) < 3.5 * se


def test_hawkes_structure_invariants(hawkes_spec_half, mb_spec_nu2, exp_wait):
    b = simulate_batch("hawkes", 2000, hawkes_spec_half, exp_wait, substream(9, "h"), x0=np.ones(2000), lineage=True)
    assert b.generation.max() >= 2
    check_parent_invariants(b)
    mb = simulate_batch("mb", 2000, mb_spec_nu2, exp_wait, substream(9, "m"), lineage=True)
    check_parent_invariants(mb)
    assert mb.parent is mb.cid  # one generation: every child's parent row is its cluster id


def test_hawkes_supercritical_refused(pareto15, exp_wait):
    spec = JointMarkSpec(pareto15, "independent_light_k", phi=0.0)
    object.__setattr__(spec, "phi", 0.5)  # bypass the constructor guard
    with pytest.raises(ConfigurationError):
        simulate_batch("hawkes", 10, spec, exp_wait, substream(10, "h"))


def test_hawkes_cap_truncates(pareto15, exp_wait):
    spec = JointMarkSpec(pareto15, "independent_light_k", phi=0.3)
    b = simulate_batch("hawkes", 50, spec, exp_wait, substream(11, "h"), cap=10, x0=np.full(50, 100.0), lineage=True)
    assert b.truncated.any()
    assert np.all(np.bincount(b.cid, minlength=b.n) <= 10)
    check_parent_invariants(b)


def test_mb_cap_does_not_truncate(mb_spec_nu2, exp_wait):
    # the cap binds branching clusters only, so the lattice P(D > u) of the
    # splitting estimator is the law of the MB clusters its pools draw
    capped = simulate_batch("mb", 2000, mb_spec_nu2, exp_wait, substream(14, "m"), cap=1)
    free = simulate_batch("mb", 2000, mb_spec_nu2, exp_wait, substream(14, "m"))
    assert not capped.truncated.any() and np.bincount(capped.cid, minlength=capped.n).max() > 1
    np.testing.assert_array_equal(capped.mark, free.mark)
    np.testing.assert_array_equal(capped.cid, free.cid)


def test_generation_decay_matches_mean_fertility(hawkes_spec_half, exp_wait):
    batch = simulate_batch("hawkes", 1_000_000, hawkes_spec_half, exp_wait, substream(12, "g"), lineage=True)
    counts = np.bincount(batch.generation)
    gens = np.arange(3, min(11, counts.size))
    slope = np.polyfit(gens, np.log(counts[gens]), 1)[0]
    assert abs(slope - np.log(0.5)) < 0.1 * abs(np.log(0.5))


def test_truncation_frequency_reported(pareto15, exp_wait):
    # mean fertility 0.9; frequencies only reported, sanity-bounded here
    spec = JointMarkSpec(pareto15, "independent_light_k", phi=0.3)
    batch = simulate_batch("hawkes", 100_000, spec, exp_wait, substream(13, "t"), cap=1_000_000)
    freq = batch.truncated.mean()
    print(f"truncation frequency at cap 1e6, mean fertility 0.9: {freq:.2e}")
    assert freq < 1e-2


def test_cluster_generation_deterministic(mb_spec_nu2, hawkes_spec_half, exp_wait):
    for model, spec in (("mb", mb_spec_nu2), ("hawkes", hawkes_spec_half)):
        a = simulate_batch(model, 500, spec, exp_wait, substream(17, "d"), lineage=True)
        b = simulate_batch(model, 500, spec, exp_wait, substream(17, "d"), lineage=True)
        for name in ("cid", "parent", "offset", "mark", "generation", "truncated"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_batch_matches_model_moments(mb_spec_nu2, hawkes_spec_half, exp_wait):
    b1 = simulate_batch("mb", 100_000, mb_spec_nu2, exp_wait, substream(18, "b"))
    s1 = np.bincount(b1.cid, minlength=b1.n)
    assert abs(s1.mean() - 3.0) < 3 * s1.std() / np.sqrt(s1.size)
    b2 = simulate_batch("hawkes", 100_000, hawkes_spec_half, exp_wait, substream(19, "b"))
    s2 = np.bincount(b2.cid, minlength=b2.n)
    assert abs(s2.mean() - 2.0) < 3.5 * s2.std() / np.sqrt(s2.size)


def test_batch_forced_immigrant_marks(mb_spec_nu2, exp_wait):
    x0 = np.full(1000, 7.0)
    b = simulate_batch("mb", 1000, mb_spec_nu2, exp_wait, substream(20, "f"), x0=x0)
    assert np.array_equal(b.mark[: b.n], x0)
    assert np.all(b.totals() >= 7.0)


# sha256 prefixes of the six BatchClusters arrays, branching batches of 20
# and 200 clusters at x0 = 10, phi = 0.3, seeds 0-3; caps 50-1000 are first
# crossed only after generation 2
CAP_GOLDEN = {
    1: "ffef275e24bf0e23",
    2: "aaeaf4f01830f33c",
    5: "4160f5249633331a",
    10: "1888c319bced9127",
    50: "c64425a9b2ee6103",
    60: "42c741595feb037f",
    80: "c0b5a0cf1c40fd81",
    120: "a0e873a20c9a69a9",
    1000: "f0c70ef66593711b",
    1_000_000: "c834d73f0e9b97b6",
}


def _golden_prefix(x_law, wait, cap) -> str:
    spec = JointMarkSpec(x_law, "independent_light_k", phi=0.3)
    h = hashlib.sha256()
    for seed in range(4):
        for n in (20, 200):
            rng = substream(seed, "cap-golden")
            b = simulate_batch("hawkes", n, spec, wait, rng, cap=cap, x0=np.full(n, 10.0), lineage=True)
            for name in ("cid", "parent", "offset", "mark", "generation", "truncated"):
                h.update(getattr(b, name).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("cap", sorted(CAP_GOLDEN))
def test_hawkes_cap_truncation_golden(pareto15, exp_wait, cap):
    assert _golden_prefix(pareto15, exp_wait, cap) == CAP_GOLDEN[cap]


# the same batches with mark-conditional exponential waits, the one path on
# which the parent marks reach the wait sampler; cap 10 also drops children
CONDITIONAL_WAIT_GOLDEN = {10: "4c2148f3ce7cade4", 1_000_000: "b58681f2401560ae"}


@pytest.mark.parametrize("cap", sorted(CONDITIONAL_WAIT_GOLDEN))
def test_hawkes_conditional_wait_golden(pareto15, cap):
    wait = WaitLaw(TailLaw("exponential", 1.0), conditional_on_mark=True)
    assert _golden_prefix(pareto15, wait, cap) == CONDITIONAL_WAIT_GOLDEN[cap]


# sha256 prefixes of the six BatchClusters arrays, MB batches of 20 and 200
# clusters at seeds 0-3, one per count law and wait law; each prefix covers
# drawn and forced (x0 = 3) immigrant marks, with offsets and without;
# recorded while MB clusters still had a sampling branch of their own
MB_COUNTS = {
    "poisson-0": JointMarkSpec(TailLaw("pareto", 1.0, 1.5), "independent_light_k", k_param=0.0),
    "poisson-2": JointMarkSpec(TailLaw("pareto", 1.0, 1.5), "independent_light_k", k_param=2.0),
    "comonotone-0.5": JointMarkSpec(TailLaw("pareto", 1.0, 1.5), "comonotone", k_param=0.5),
    "heavy-1.5": JointMarkSpec(TailLaw("exponential", 1.0), "heavy_k_light_x", k_param=1.0, k_alpha=1.5),
}
MB_GOLDEN = {
    ("poisson-0", False): "8f7346305c5bffb5",
    ("poisson-0", True): "8f7346305c5bffb5",
    ("poisson-2", False): "c2c001e92b6e48f6",
    ("poisson-2", True): "fee135fa841f522b",
    ("comonotone-0.5", False): "3dd9173eef034cfc",
    ("comonotone-0.5", True): "e0faffaee7120d19",
    ("heavy-1.5", False): "9a2b3b77b743a7a5",
    ("heavy-1.5", True): "dbd909d9866d81d0",
}


def _mb_golden_prefix(counts: str, conditional: bool) -> str:
    wait = WaitLaw(TailLaw("exponential", 1.0), conditional_on_mark=conditional)
    h = hashlib.sha256()
    for seed in range(4):
        for n in (20, 200):
            for x0 in (None, np.full(n, 3.0)):
                for with_offsets in (True, False):
                    rng = substream(seed, "mb-golden")
                    b = simulate_batch(
                        "mb", n, MB_COUNTS[counts], wait, rng, with_offsets=with_offsets, x0=x0, lineage=True
                    )
                    for name in ("cid", "parent", "offset", "mark", "generation", "truncated"):
                        h.update(getattr(b, name).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("counts, conditional", sorted(MB_GOLDEN))
def test_mb_batch_golden(counts, conditional):
    assert _mb_golden_prefix(counts, conditional) == MB_GOLDEN[counts, conditional]


# draws with and without lineage, one per count law, and branching ones with
# and without a cap of 3 events, with plain and with mark-conditional waits
MARK_WAITS = WaitLaw(TailLaw("exponential", 1.0), conditional_on_mark=True)
HAWKES_HALF = JointMarkSpec(TailLaw("pareto", 1.0, 1.5), "independent_light_k", phi=1.0 / 6.0)
LINEAGE_CASES = {
    "mb-poisson": ("mb", MB_COUNTS["poisson-2"], None, DEFAULT_CAP),
    "mb-comonotone": ("mb", MB_COUNTS["comonotone-0.5"], None, DEFAULT_CAP),
    "mb-heavy-counts": ("mb", MB_COUNTS["heavy-1.5"], None, DEFAULT_CAP),
    "branching": ("hawkes", HAWKES_HALF, None, DEFAULT_CAP),
    "branching-cap-3": ("hawkes", HAWKES_HALF, None, 3),
    "branching-mark-waits": ("hawkes", HAWKES_HALF, MARK_WAITS, DEFAULT_CAP),
    "branching-mark-waits-cap-3": ("hawkes", HAWKES_HALF, MARK_WAITS, 3),
}


@pytest.mark.parametrize("case", sorted(LINEAGE_CASES))
def test_lineage_changes_no_draw(exp_wait, case):
    # the lineage is built from positions the draw has already made: the
    # sampled arrays are the same bytes with it and without it
    model, spec, wait, cap = LINEAGE_CASES[case]
    wait = wait or exp_wait
    plain = simulate_batch(model, 3000, spec, wait, substream(36, "lineage", case), cap=cap)
    full = simulate_batch(model, 3000, spec, wait, substream(36, "lineage", case), cap=cap, lineage=True)
    assert plain.parent is None and plain.generation is None
    check_parent_invariants(full)
    assert full.generation.max() >= (2 if model == "hawkes" and cap > 3 else 1)
    assert plain.truncated.any() == (cap == 3)
    for name in ("cid", "offset", "mark", "truncated"):
        a, b = getattr(plain, name), getattr(full, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


SUPERSET_LAWS = {
    "pareto0.8": (TailLaw("pareto", 1.0, 0.8), 20.0),
    "pareto1.5": (TailLaw("pareto", 1.0, 1.5), 20.0),
    "pareto2.5": (TailLaw("pareto", 1.0, 2.5), 20.0),
    "exponential": (TailLaw("exponential", 1.0), 6.0),
    "deterministic": (TailLaw("deterministic", 1.0), 2.5),
}


def superset_marks(n, spec, u, seed):
    """The marks the superset sampler draws for n candidates from seed:
    K + 1 each, K from its first uniforms."""
    cdf = _superset_count_law(spec, u)[0]
    k = np.searchsorted(cdf, np.random.default_rng(seed).random(n) * cdf[-1], side="right")
    return int((k + 1).sum())


def assert_superset_matches_plain(n, spec, wait, u, seed):
    rng, rng_plain = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = superset_batch(n, spec, wait, rng, u), superset_batch_plain(n, spec, wait, rng_plain, u)
    assert got.n == want.n
    for name in ("cid", "offset", "mark", "truncated"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
    assert rng.bit_generator.state == rng_plain.bit_generator.state


@pytest.mark.parametrize("conditional", [False, True])
@pytest.mark.parametrize("nu", [0.0, 0.5, 2.0, 8.0])
@pytest.mark.parametrize("law", list(SUPERSET_LAWS))
def test_superset_batch_blocks_match_one_pass(monkeypatch, law, nu, conditional):
    # the blocked sampler draws, keeps and lays out exactly what one pass
    # over every candidate mark does: blocks ending below, exactly at and
    # across the batch's last mark, and blocks smaller than one candidate
    x_law, u = SUPERSET_LAWS[law]
    if law == "deterministic" and nu == 0.0:
        u = 0.5  # D = X_0 = 1
    spec = JointMarkSpec(x_law, "independent_light_k", k_param=nu)
    wait = WaitLaw(TailLaw("exponential", 1.0), conditional_on_mark=conditional)
    n, seed = 400, 17
    total = superset_marks(n, spec, u, seed)
    for block in (clusters._SUPERSET_BLOCK, 1, 3, total // 3, total - 1, total, total + 1):
        monkeypatch.setattr(clusters, "_SUPERSET_BLOCK", block)
        assert_superset_matches_plain(n, spec, wait, u, seed)


@pytest.mark.parametrize("u", [3.0, 20.0])
def test_superset_batch_blocks_match_one_pass_at_scale(exp_wait, u):
    # many default blocks; at u = 3 every candidate with K >= 3 has its
    # level u/(K+1) below the mark scale, so P(X > l) = 1 and log_miss = -inf
    spec = JointMarkSpec(TailLaw("pareto", 1.0, 1.5), "independent_light_k", k_param=8.0)
    p_table = _superset_count_law(spec, u)[1]
    assert (u / 4.0 < 1.0) == (u == 3.0) and (p_table[3] == 1.0) == (u == 3.0)
    assert superset_marks(20_000, spec, u, 29) > 5 * clusters._SUPERSET_BLOCK
    assert_superset_matches_plain(20_000, spec, exp_wait, u, 29)
    assert_superset_matches_plain(0, spec, exp_wait, u, 29)
