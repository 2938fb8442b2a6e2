"""Rare-event Monte Carlo over cluster-process paths.

Estimators never share streams: every task (replication chunk, conditioning
run) derives its generator from the root seed and a label, so results are
bit-identical for any worker count.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .clusters import (
    DEFAULT_CAP,
    HAWKES,
    MB,
    BatchClusters,
    simulate_batch,
    superset_batch,
    superset_probability,
)
from .errors import ConfigurationError
from .events import InterpCurve, PathEvent, format_event, rep_time_order
from .laws import (
    COMONOTONE,
    INDEPENDENT_LIGHT_K,
    PARETO,
    JointMarkSpec,
    TailLaw,
    WaitLaw,
    mass_tail_bracket,
    mean_ceil,
    poisson_pmf,
    poisson_sf,
)
from .measures import measure_for_model, mu_sharp
from .paths import (
    DEFAULT_GRID_N,
    CadlagPath,
    ScalingRule,
    build_jump_path,
    centered_scaled_path,
    centering_hawkes,
    centering_mb,
)
from .streams import lineage, substream

__all__ = [
    "Estimate",
    "ExperimentConfig",
    "draw_clusters",
    "replication_path",
    "simulate_replication",
    "crude_estimate",
    "splitting_estimate",
    "ldp_ratio",
    "check_remainder",
    "check_assumption6",
    "check_tail_equivalence",
    "big_jump_anatomy",
]

CRUDE_CHUNK = 1024
# numpy's Generator.poisson refuses a mean above int64 max - 10 sqrt(int64 max)
_POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max))
# the most events one draw of replications may expect (`_refuse_oversized_draw`),
# and one pool batch (`_conditional_pool`): a 1024-replication crude chunk
# peaks at about 43 bytes an event (38 and 43 by tracemalloc on the
# benchmark's MB and branching configs), so 5e7 events take about 2.2 GB
_MAX_DRAW_EVENTS = 5e7


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float
    n: int
    ci95: tuple[float, float]
    seed_lineage: str
    detail: dict = field(default_factory=dict, compare=False)


def _estimate(
    value: float, stderr: float, n: int, lin: str, detail: dict | None = None, ci95=None
) -> Estimate:
    """Estimate with the given 95% interval, by default value +- 1.96 stderr
    with its lower end clipped at 0 (every estimate here is nonnegative)."""
    if ci95 is None:
        ci95 = (max(value - 1.96 * stderr, 0.0), value + 1.96 * stderr)
    return Estimate(
        value=float(value),
        stderr=float(stderr),
        n=int(n),
        ci95=(float(ci95[0]), float(ci95[1])),
        seed_lineage=lin,
        detail=detail or {},
    )


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    lam: float
    T: float
    eta: float
    spec: JointMarkSpec
    wait: WaitLaw
    k: int
    event: PathEvent
    n_reps: int
    seed: int
    delta: float = 0.5
    grid_n: int = DEFAULT_GRID_N
    cap: int = DEFAULT_CAP
    n_centering: int = 200_000  # accepted and hashed, unused: the centering is exact
    n_pbig: int = 400_000  # accepted and hashed, unused: P(D > u) is a lattice bracket
    n_strata: int = 4000
    estimator: str = "splitting"
    workers: int = 1

    def __post_init__(self):
        if self.model not in (MB, HAWKES):
            raise ConfigurationError(f"unknown model {self.model!r}")
        if self.lam < 0 or self.T <= 0:
            raise ConfigurationError("need lam >= 0 and T > 0")
        if not 0.0 < self.delta <= 1.0:
            raise ConfigurationError(f"delta must lie in (0, 1], got {self.delta}")
        if self.k < 0:
            raise ConfigurationError("k must be >= 0")
        if self.grid_n < 2:
            raise ConfigurationError(f"grid_n must be >= 2, got {self.grid_n}")
        if self.cap < 1:
            raise ConfigurationError(f"cluster_cap must be >= 1, got {self.cap}")
        if self.seed < 0:
            raise ConfigurationError(f"seed_root must be >= 0, got {self.seed}")
        if self.n_pbig < 1:
            raise ConfigurationError(f"n_pbig must be >= 1, got {self.n_pbig}")
        if self.estimator not in ("crude", "splitting"):
            raise ConfigurationError(f"unknown estimator {self.estimator!r}")
        if not self.lam * self.T <= _POISSON_MEAN_MAX:  # also catches inf and nan
            raise ConfigurationError(
                f"refusing lambda_rate * T_horizon = {self.lam * self.T:.6g}: the Poisson "
                f"cluster count needs a finite mean of at most {_POISSON_MEAN_MAX:.6g}"
            )
        self.scaling().validate(self.spec.x_law)

    def scaling(self) -> ScalingRule:
        return ScalingRule(self.eta, self.T)

    def validate_strict(self) -> None:
        """Extra admissibility for limit-ratio runs (diagnostics may relax)."""
        if not self.wait.integrable:
            raise ConfigurationError("wait law must have a finite mean for ratio experiments")


def centering_curve(config: ExperimentConfig) -> CadlagPath:
    """Deterministic mean path of the configured model on its grid."""
    centering = centering_mb if config.model == MB else centering_hawkes
    return centering(config.lam, config.T, config.spec, config.wait, config.grid_n)


def _mean_cluster_size(config: ExperimentConfig, xq: float | None = None) -> tuple[float, str]:
    """Mean events of a cluster, 1 + E[K] for MB clusters and 1/(1 - phi
    E[X]) for branching ones, and the keys behind it.  With ``xq`` the
    immigrant's mark comes from the defensive mixture tilted above xq
    (`_tilted_marks`), whose tilted half is the law's tail above xq: that
    raises comonotone counts and a branching immigrant's fertility."""
    spec = config.spec
    tilted = None if xq is None else TailLaw(PARETO, xq, spec.x_law.alpha)  # only heavy marks are tilted
    if config.model == MB:
        k = spec.mean_offspring()
        if tilted is not None and spec.dependence == COMONOTONE:
            k = 0.5 * k + 0.5 * mean_ceil(spec.k_param, tilted)
        size, why = 1.0 + k, f"1 + E[K] = {1.0 + k:.6g} (k_param = {spec.k_param:.6g})"
    else:
        size = 1.0 / (1.0 - spec.mean_fertility)
        why = f"1/(1 - phi_fertility E[X]) = {size:.6g} (phi_fertility = {spec.phi:.6g})"
        if tilted is not None:  # the immigrant's extra children each bring size events
            size += 0.5 * spec.phi * (tilted.mean() - spec.x_law.mean()) * size
    return size, why if xq is None else f"{size:.6g} from {why}, the immigrant's mark tilted above {xq:.6g}"


def _refuse_oversized(config: ExperimentConfig, clusters: float, what: str, per: str, xq=None) -> None:
    """Refuse, before anything is drawn, ``what``: a draw of ``clusters``
    clusters (``per`` says how many and why), from marks tilted above
    ``xq`` when it is given, that expects more than _MAX_DRAW_EVENTS events,
    the clusters times the mean cluster size (`_mean_cluster_size`)."""
    size, why = _mean_cluster_size(config, xq)
    events = clusters * size
    if not events <= _MAX_DRAW_EVENTS:  # also catches inf and nan
        raise ConfigurationError(
            f"refusing {what} expecting {events:.3g} events, more than "
            f"{_MAX_DRAW_EVENTS:.3g}: {per}, times the mean cluster size {why}"
        )


def _refuse_oversized_draw(config: ExperimentConfig, n_reps: int) -> None:
    """`_refuse_oversized` for a draw of n_reps replications: lam T n_reps clusters."""
    per = f"lambda_rate * T_horizon = {config.lam * config.T:.6g} clusters a replication"
    _refuse_oversized(config, config.lam * config.T * n_reps, f"a chunk of {n_reps} replications", per)


def draw_clusters(
    config: ExperimentConfig, n_reps: int, rng: np.random.Generator, lineage: bool = False
) -> tuple[np.ndarray, np.ndarray, BatchClusters]:
    """Clusters of n_reps independent replications: the Poisson(lam T) cluster
    count of each replication, uniform arrival times on [0, T] and the
    clusters themselves, replication-major, with their lineage when
    ``lineage`` is set.  Refuses a draw that expects more than
    _MAX_DRAW_EVENTS events."""
    _refuse_oversized_draw(config, n_reps)
    counts = rng.poisson(config.lam * config.T, n_reps)
    gammas = rng.random(int(counts.sum())) * config.T
    batch = simulate_batch(config.model, gammas.size, config.spec, config.wait, rng, config.cap, lineage=lineage)
    return counts, gammas, batch


def replication_path(
    config: ExperimentConfig, gammas: np.ndarray, batch: BatchClusters, centering: CadlagPath
) -> CadlagPath:
    """Centered scaled path of one replication's events landing in [0, T];
    the batch is left as it is."""
    rep_of_cluster = np.zeros(gammas.size, np.int64)
    events = [batch.cid, batch.offset.copy(), batch.mark]
    _, t, size = _flat_jumps(config.T, rep_of_cluster, gammas, events, batch.n)
    return centered_scaled_path(build_jump_path(t, size), centering, config.scaling())


def simulate_replication(
    config: ExperimentConfig, rng: np.random.Generator, centering: CadlagPath | None = None
) -> tuple[CadlagPath, bool]:
    """One full draw: clusters -> centered scaled path -> event."""
    if centering is None:
        centering = centering_curve(config)
    _, gammas, batch = draw_clusters(config, 1, rng)
    path = replication_path(config, gammas, batch, centering)
    return path, config.event.decide(path)


# ---------------------------------------------------------------------------
# vectorized event evaluation


def _rep_of_cluster(counts) -> np.ndarray:
    """The replication of each cluster, from the clusters per replication."""
    return np.repeat(np.arange(len(counts), dtype=np.int64), counts)


def _flat_jumps(
    T: float, rep_of_cluster, gammas, events: list, n_lead: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat (rep, scaled time, mark) arrays of the events landing in [0, T],
    from the replication and the arrival of each cluster and ``events``,
    the list [cid, offset, mark] of the events' arrays.

    It consumes ``events``: the list is emptied, the arrival times are
    added into the offset array in place (offset + gamma, which is
    gamma + offset bit for bit), and each array is dropped as soon as its
    in-window copy exists.  So when the caller holds no other reference to
    them, the jump arrays are built in the events' own memory; the crude
    lane's memory peaks here.  The first ``n_lead`` rows are the immigrants
    of clusters 0..n_lead-1, as `simulate_batch` lays them out: their
    offset is 0.0 and gamma + 0.0 = gamma, so their times need no gather."""
    cid, t, mark = events
    events.clear()
    t[:n_lead] = gammas[:n_lead]
    t[n_lead:] += gammas.take(cid[n_lead:])
    keep = t <= T
    cid = cid[keep]
    rep = rep_of_cluster.take(cid)
    del cid
    t = t[keep]
    t /= T
    return rep, t, mark[keep]


def _eval_event_chunk(
    rep: np.ndarray,
    t: np.ndarray,
    size: np.ndarray,
    n: int,
    event: PathEvent,
    centering: CadlagPath,
    x_T: float,
    ends: np.ndarray | None = None,
) -> np.ndarray:
    """Event indicator per replication from flat jump arrays; with ``ends``,
    one column per prefix [:e] of the arrays (`PathEvent.decide_strata`).

    Semantics match deciding the event on the materialized centered scaled
    path: centering values interpolate the same grid curve.
    """
    cent = InterpCurve(centering.t, centering.right)
    if ends is None:
        return event.decide_batch(rep, t, size, n, cent, x_T)
    return event.decide_strata(rep, t, size, ends, n, cent, x_T)


def _simulate_jump_arrays(config: ExperimentConfig, n_reps: int, rng: np.random.Generator):
    """Flat (rep, scaled time, mark) arrays for n_reps independent
    replications, then the draw's truncated-cluster count and the control
    variates of each replication (`_crude_covariates`)."""
    counts, gammas, batch = draw_clusters(config, n_reps, rng)
    trunc = int(batch.truncated.sum())
    events = [batch.cid, batch.offset, batch.mark]
    del batch  # `_flat_jumps` frees each array of the batch as it goes
    rep, t, size = _flat_jumps(config.T, _rep_of_cluster(counts), gammas, events, gammas.size)
    del gammas  # the covariates' temporaries reuse its memory
    covariates = _crude_covariates(rep, t, size, counts, config.spec.x_law, config.scaling().x_T)
    return rep, t, size, (trunc, covariates)


# Control variates of the crude score, sums over a replication's events in
# [0, T]: sum min(X, c) and sum (1 - t/T) min(X, c) for c in _CRUDE_CV_MIN
# x_T, and #{X > c} for c in _CRUDE_CV_COUNT x_T, each descendant's term
# less its mean
_CRUDE_CV_MIN = (0.25, 0.5, 1.0)
_CRUDE_CV_COUNT = (0.5, 1.0, 2.0)


def _crude_covariates(rep, t, mark, counts, law, x_T: float) -> np.ndarray:
    """Control variates of each replication from the flat (rep, scaled time
    t, mark) arrays of its events in [0, T], one column each: sum min(X, c),
    then sum (1 - t) min(X, c), for c in _CRUDE_CV_MIN x_T, then sum
    1{X > c} for c in _CRUDE_CV_COUNT x_T.  An immigrant's term enters as it
    is, a descendant's less its mean: E[min(X, c)] or P(X > c), times 1 - t
    in the weighted sums.

    The descendants' terms add mean exactly 0 for every model, wait law and
    cap, so the means of the immigrants' terms (`_crude_cv_means`) stay
    exact: these are martingale control variates (Henderson & Glynn 2002).
    A descendant's mark is independent of whether it exists and of when it
    arrives.  `simulate_batch` draws a whole generation's marks after its
    counts and before the cap's ``k_keep``, which reads the counts only,
    and then its waits; a mark-conditional wait reads the parent's mark,
    never the child's.  So given its existence and its time t <= 1, the
    descendant's centred term has mean 0.

    The first counts.sum() rows are the immigrants, counts[r] of them for
    replication r; after them each generation's rows come sorted by
    replication, as `simulate_batch` and `_flat_jumps` lay them out.  The
    whole sums are run-segment sums (np.add.reduceat over the runs of one
    replication: the immigrants' from their counts, the descendants' where
    the replication changes), then one bincount over the runs.  Each
    truncated sum is the whole sum less max(X - c, 0) over the few marks
    above the lowest level, which alone go to bincount."""
    n, n_imm = counts.size, int(counts.sum())
    if rep.size == 0:
        return np.zeros((n, 2 * len(_CRUDE_CV_MIN) + len(_CRUDE_CV_COUNT)))
    imm_starts = (np.cumsum(counts) - counts)[counts > 0]
    desc = rep[n_imm:]
    d_starts = np.flatnonzero(desc[1:] != desc[:-1]) + 1
    d_starts = np.concatenate(([0], d_starts)) if desc.size else d_starts
    starts = np.concatenate((imm_starts, n_imm + d_starts))
    run_rep = rep[starts]
    whole = np.bincount(run_rep, weights=np.add.reduceat(mark, starts), minlength=n)
    tx = t * mark
    whole_weighted = whole - np.bincount(run_rep, weights=np.add.reduceat(tx, starts), minlength=n)
    del tx
    d_rep = run_rep[imm_starts.size :]
    d_count = np.bincount(d_rep, weights=np.diff(np.append(d_starts, desc.size)), minlength=n)
    d_weight = d_count - np.bincount(d_rep, weights=np.add.reduceat(t[n_imm:], d_starts), minlength=n)
    big = np.flatnonzero(mark > _CRUDE_CV_MIN[0] * x_T)
    r, x, w = rep[big], mark[big], 1.0 - t[big]
    excess = [np.maximum(x - c * x_T, 0.0) for c in _CRUDE_CV_MIN]
    means = [law.truncated_mean(c * x_T) for c in _CRUDE_CV_MIN]
    return np.column_stack(
        [whole - np.bincount(r, weights=e, minlength=n) - m * d_count for e, m in zip(excess, means)]
        + [
            whole_weighted - np.bincount(r, weights=w * e, minlength=n) - m * d_weight
            for e, m in zip(excess, means)
        ]
        + [np.bincount(r[x > c * x_T], minlength=n) - law.tail(c * x_T) * d_count for c in _CRUDE_CV_COUNT]
    )


def _crude_cv_means(config: ExperimentConfig) -> np.ndarray:
    """Exact means of `_crude_covariates`, which are the immigrants' own:
    the descendants' centred terms add mean 0.  The immigrant count is
    Poisson(lam T), the arrivals uniform on [0, T] and the marks free of
    both, and `cluster_cap` drops no immigrant; so lam T E[min(X, c)], half
    of it with the weight 1 - gamma/T, and lam T P(X > c)."""
    law, x_T, lam_t = config.spec.x_law, config.scaling().x_T, config.lam * config.T
    truncated = [lam_t * law.truncated_mean(c * x_T) for c in _CRUDE_CV_MIN]
    counted = [lam_t * law.tail(c * x_T) for c in _CRUDE_CV_COUNT]
    return np.array(truncated + [0.5 * m for m in truncated] + counted)


def _crude_chunk(config: ExperimentConfig, chunk_index: int, chunk_size: int, centering: CadlagPath):
    """Event indicators of chunk_size replications, their control variates
    and the chunk's truncated-cluster count."""
    rng = substream(config.seed, "crude", chunk_index)
    rep, t, size, (trunc, covariates) = _simulate_jump_arrays(config, chunk_size, rng)
    hits = _eval_event_chunk(rep, t, size, chunk_size, config.event, centering, config.scaling().x_T)
    return hits, covariates, trunc


def _chunk_sizes(n: int) -> list[int]:
    """Replications per task: fixed CRUDE_CHUNK-sized chunks, one substream each."""
    sizes = [CRUDE_CHUNK] * (n // CRUDE_CHUNK)
    if n % CRUDE_CHUNK:
        sizes.append(n % CRUDE_CHUNK)
    return sizes


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_tasks(fn, tasks, workers: int):
    """fn(*task) for every task, in order.  A pool starts all its processes
    at the first submit, so at most one per task and per usable CPU are
    asked for; results do not depend on the count."""
    workers = min(workers, len(tasks), _usable_cpus())
    if workers <= 1:
        return [fn(*t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # only a fan-out loads the pool

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *t) for t in tasks]
        return [f.result() for f in futures]


def crude_estimate(config: ExperimentConfig) -> Estimate:
    """Hit frequency, adjusted by control variates whose means are exact.

    The covariates are nine sums over each replication's events in [0, T],
    each descendant's term centred by its own mean (`_crude_covariates`),
    with closed-form means (`_crude_cv_means`), fitted and applied by
    `_control_variates` with the rarer outcome, hits or misses, as the
    informative count.  Where they are off the estimate is the plain hit
    frequency with binomial error and the Wilson interval, which keeps a
    positive upper end when no replication hits.  ``detail["hits"]`` counts
    the hits.
    """
    if config.n_reps < 100:
        raise ConfigurationError("crude estimation needs n_reps >= 100")
    _refuse_oversized_draw(config, min(config.n_reps, CRUDE_CHUNK))
    centering = centering_curve(config)
    tasks = [(config, i, s, centering) for i, s in enumerate(_chunk_sizes(config.n_reps))]
    hits, covariates, trunc = zip(*_run_tasks(_crude_chunk, tasks, config.workers))
    y = np.concatenate(hits).astype(float)
    n_hits = int(np.count_nonzero(y))
    n = config.n_reps
    x_T = config.scaling().x_T
    levels = {"truncated": [c * x_T for c in _CRUDE_CV_MIN], "count": [c * x_T for c in _CRUDE_CV_COUNT]}
    cv, fit = _control_variates(y, covariates, _crude_cv_means(config), levels, min(n_hits, n - n_hits))
    if fit is None:
        p = n_hits / n
        se, ci95 = np.sqrt(p * (1.0 - p) / n), _wilson_interval(n_hits, n)
    else:
        p, var, _ = fit
        se, ci95 = np.sqrt(var), None
    detail = {"hits": n_hits, "truncated_clusters": sum(trunc), "control_variates": cv}
    return _estimate(p, se, n, lineage(config.seed, "crude"), detail, ci95)


_Z975 = 1.959963984540054  # ndtri(0.975), the two-sided 95% normal quantile


def _wilson_interval(hits: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval in Newcombe's (1998) form, as
    scipy.stats.binomtest(hits, n).proportion_ci("wilson") computes it."""
    p = hits / n
    q = 1 - p
    z = _Z975
    denom = 2 * (n + z**2)
    center = (2 * n * p + z**2) / denom
    delta = z / denom * np.sqrt(4 * n * p * q + z**2)
    return (0.0 if hits == 0 else center - delta, 1.0 if hits == n else center + delta)


# ---------------------------------------------------------------------------
# exceedance splitting


# the fewest and the most clusters one batch of `_conditional_pool` draws
_POOL_BATCH_MIN, _POOL_BATCH_MAX = 1024, 4_000_000


def _conditional_pool(
    config: ExperimentConfig,
    rng: np.random.Generator,
    n_needed: int,
    u: float,
    big: bool = True,
    xq: float | None = None,
    max_draws: int | None = None,
    superset: bool = False,
    accept: float | None = None,
):
    """Events of n_needed i.i.d. clusters conditioned on D > u (or D <= u).

    Rejection: generate batches, keep qualifying clusters in draw order.
    Without ``xq`` the immigrant marks are drawn inside the batch and there
    are no weights.  With ``xq`` they come from the defensive mixture tilted
    above ``xq`` (`_tilted_marks`) and each kept cluster carries its
    likelihood ratio.  With ``superset`` (D > u, no ``xq``, MB clusters with
    Poisson counts) the candidates come from the exact, unweighted superset
    sampler `superset_batch`, which returns only its clusters with D > u.
    The remainder check and anatomy keep rejection.  ``accept``, the known
    share of draws kept, sizes the first batch; without it the first batch
    guesses.  Later batches follow the share kept so far.  None draws more
    than _POOL_BATCH_MAX clusters, nor more than expect _MAX_DRAW_EVENTS
    events at the mean cluster size (`_mean_cluster_size`, tilted above
    ``xq``), unless _POOL_BATCH_MIN does.  At most ``max_draws`` clusters
    are simulated when it is given; the pool then holds fewer than
    n_needed clusters if the budget runs out first.
    Returns flat arrays with cluster ids remapped to 0..accepted-1, the
    weights (None when untilted) and the counts
    {"drawn", "accepted", "truncated"}: clusters simulated (superset
    candidates, and the unused end of the last batch, included), clusters
    kept, and truncated clusters kept.
    """
    if accept is None:
        accept = 1.0 if xq is None else 0.25  # a guess
    max_batch = int(min(_POOL_BATCH_MAX, _MAX_DRAW_EVENTS / _mean_cluster_size(config, xq)[0]))
    got = tried = accepted = trunc = 0
    cids, offs, marks = [], [], []
    weights = None if xq is None else np.empty(n_needed)
    x0 = None
    while got < n_needed and (max_draws is None or tried < max_draws):
        if tried >= 50_000_000 and accepted == 0:
            raise ConfigurationError(
                f"conditioning event D {'>' if big else '<='} {u:.6g} not observed "
                f"in {tried} draws; threshold is outside the reachable range"
            )
        if tried == 0:
            batch_n = int(max(min(n_needed / accept, max_batch), _POOL_BATCH_MIN))
        else:
            p_guess = max(accepted / tried, 1e-6)
            batch_n = int(min(max_batch, max(_POOL_BATCH_MIN, 1.2 * (n_needed - got) / p_guess)))
        if max_draws is not None:
            batch_n = min(batch_n, max_draws - tried)
        if xq is not None:
            uu = rng.random(batch_n)
            tilt = rng.random(batch_n) < 0.5
            x0, w = _tilted_marks(config.spec.x_law, xq, uu, tilt)
        if superset:
            b = superset_batch(batch_n, config.spec, config.wait, rng, u)
        else:
            b = simulate_batch(config.model, batch_n, config.spec, config.wait, rng, config.cap, x0=x0)
        tot = b.totals()
        ok = tot > u if big else tot <= u
        tried += batch_n
        accepted += int(ok.sum())
        take = np.flatnonzero(ok)[: n_needed - got]
        if take.size:
            ok[take[-1] + 1 :] = False  # clusters past the last one taken stay out
            sel = ok[b.cid]
            remap = np.full(b.n, -1, dtype=np.int64)
            remap[take] = got + np.arange(take.size)
            cids.append(remap[b.cid[sel]])
            offs.append(b.offset[sel])
            marks.append(b.mark[sel])
            if weights is not None:
                weights[got : got + take.size] = w[take]
            trunc += int(b.truncated[take].sum())
            got += take.size
    counts = {"drawn": tried, "accepted": got, "truncated": trunc}
    if weights is not None:
        weights = weights[:got]
    if cids:
        return np.concatenate(cids), np.concatenate(offs), np.concatenate(marks), weights, counts
    return np.empty(0, np.int64), np.empty(0), np.empty(0), weights, counts


def _tilted_marks(law, xq: float, u: np.ndarray, tilt: np.ndarray):
    """Defensive mixture for Pareto immigrant marks: where ``tilt`` is set
    the mark is drawn from the law's tail above ``xq``, elsewhere from the
    law itself, both from the uniforms ``u``.  Returns the marks and their
    likelihood ratios (law over mixture), which keep estimates unbiased."""
    pq = float(law.tail(xq))
    x0 = np.where(tilt, law.quantile_above(u, xq), law.quantile(u))
    w = 1.0 / (0.5 + 0.5 * (x0 > xq).astype(float) / pq)
    return x0, w


def _stratum_chunk(
    config: ExperimentConfig,
    chunk_index: int,
    n_reps: int,
    u: float,
    p_big: float,
    m_max: int,
    centering: CadlagPath,
    cv_levels=None,
):
    """Event indicators H[r, m] of n_reps replications for every big-cluster
    count m = 0..m_max.  Each replication draws one background of small
    clusters (D <= u) and m_max big ones (D > u); stratum m adds the first m
    big clusters to the background.  Big MB clusters with Poisson counts
    come from the superset sampler.  Returns H, the control variates of
    each replication (`_covariates`: its small clusters' summed mass and its
    big-cluster levels; None without ``cv_levels``) and the two pools'
    counts."""
    rng = substream(config.seed, "stratum", chunk_index)
    small_counts = rng.poisson(config.lam * config.T * (1.0 - p_big), n_reps)
    total_small = int(small_counts.sum())
    s_cid, s_off, s_mark, _, small = _conditional_pool(config, rng, total_small, u, big=False)
    superset = _superset_scope(config)
    accept = min(p_big / superset_probability(config.spec, u), 1.0) if superset else None
    b_cid, b_off, b_mark, _, big = _conditional_pool(
        config, rng, m_max * n_reps, u, superset=superset, accept=accept
    )

    covariates = None
    if cv_levels is not None:
        covariates = _covariates(cv_levels, small_counts, s_cid, s_mark, b_cid, b_mark)

    gam_small = rng.random(total_small) * config.T
    gam_big = rng.random(m_max * n_reps) * config.T
    rep_s, t_s, size_s = _flat_jumps(config.T, _rep_of_cluster(small_counts), gam_small, [s_cid, s_off, s_mark])
    # one cluster per "replication", so the returned index is the big cluster's id
    cid, t_b, size_b = _flat_jumps(config.T, np.arange(m_max * n_reps), gam_big, [b_cid, b_off, b_mark])
    # the concatenation below is the chunk's memory peak: free its inputs first
    del s_cid, s_off, s_mark, b_cid, b_off, b_mark, gam_small, gam_big
    rep_b, rank = np.divmod(cid, m_max)
    order = np.argsort(rank, kind="stable")
    # background first, then big events by rank: stratum m is a prefix
    rep = np.concatenate([rep_s, rep_b[order]])
    t = np.concatenate([t_s, t_b[order]])
    size = np.concatenate([size_s, size_b[order]])
    ends = rep_s.size + np.searchsorted(rank[order], np.arange(m_max + 1))
    x_T = config.scaling().x_T
    hits = _eval_event_chunk(rep, t, size, n_reps, config.event, centering, x_T, ends)
    return hits, covariates, small, big


def _covariates(cv_levels, small_counts, s_cid, s_mark, b_cid, b_mark) -> np.ndarray:
    """Control variates per replication from its clusters' masses D, with
    ``cv_levels`` = (big levels, rank weights): the summed mass of its small
    clusters, and for each big level the rank weights summed over its big
    clusters above it (`_cv_means` gives their means).  Small clusters come
    replication by replication, big ones m_max = len(rank weights) a
    replication in rank order."""
    big_levels, rank_weights = cv_levels
    n_reps = small_counts.size
    rep_small = np.repeat(np.arange(n_reps), small_counts)
    d_big = np.bincount(b_cid, weights=b_mark, minlength=n_reps * rank_weights.size)
    d_big = d_big.reshape(n_reps, -1)
    return np.column_stack(
        [np.bincount(rep_small[s_cid], weights=s_mark, minlength=n_reps)]
        # summed without BLAS, whose order may differ in forked workers
        + [((d_big > b) * rank_weights).sum(axis=1) for b in big_levels]
    )


def _offsetless_batches(config: ExperimentConfig, rng: np.random.Generator, n: int):
    """n unconditioned clusters without event offsets, with their lineage,
    in batches of at most 2M clusters drawn in turn from rng."""
    for start in range(0, n, 2_000_000):
        b = min(n - start, 2_000_000)
        yield simulate_batch(
            config.model, b, config.spec, config.wait, rng, config.cap, with_offsets=False, lineage=True
        )


_LATTICE_CELLS = 2**14  # the first lattice of the exact P(D > u)
_LATTICE_CAP = 2**18  # the finest


def _estimate_p_big(config: ExperimentConfig, u: float) -> tuple[float, float, dict]:
    """P(D > u), its standard error and the detail behind it.

    The lattice brackets `mass_tail_bracket`, each widened by its error
    bound and intersected, give the midpoint and, as the error, the
    half-width.  The lattice starts at 2^14 cells and doubles until the
    width is at most 1e-3 of the midpoint, the widened width stops
    shrinking (round-off grows with the lattice) or it has 2^18 cells.
    Without offspring D = X, and the mark tail is exact.  `cluster_cap`
    lowers the mass of branching clusters of more than cap events, so the
    lower end drops by Markov's P(size > cap) <= 1/((1 - kappa) cap).
    """
    spec = config.spec
    branching = config.model == HAWKES
    if (spec.phi if branching else spec.k_param) == 0.0:
        lo = hi = float(spec.x_law.tail(u))
    else:
        lo, hi, width, m = 0.0, 1.0, np.inf, _LATTICE_CELLS
        while True:
            a, b, err = mass_tail_bracket(spec, u, m, branching=branching)
            lo, hi = max(lo, a - err), min(hi, b + err)
            done = hi - lo <= 0.5e-3 * (lo + hi) or 2 * m > _LATTICE_CAP
            if done or b - a + 2 * err >= width:  # round-off outgrows what the finer lattice gains
                break
            width = b - a + 2 * err
            m *= 2
    if lo <= 0.0:  # nothing is known above 0, or nothing clears the round-off
        raise ConfigurationError(
            f"no cluster reached the splitting threshold {u:.6g}; refusing to extrapolate"
        )
    if branching:
        lo = max(lo - 1.0 / ((1.0 - spec.mean_fertility) * config.cap), 0.0)
    return 0.5 * (lo + hi), 0.5 * (hi - lo), {"p_big_bracket": (lo, hi)}


# Control variates of the splitting score (MB clusters with Poisson counts):
# a replication's summed small-cluster mass, and for each b in _CV_BIG its
# big clusters with D > b u, weighted by P(M > rank), M the Poisson big count
_CV_BIG = (1.5, 2.0, 3.0, 4.0, 6.0, 8.0)


def _superset_scope(config: ExperimentConfig) -> bool:
    """MB clusters with Poisson counts: the superset sampler draws their big
    pool, and their cluster-mass law gives the control variates' means."""
    return config.model == MB and config.spec.dependence == INDEPENDENT_LIGHT_K


def _cv_means(
    config: ExperimentConfig, u: float, p_big: float, p_bracket, rank_weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Means of the control variates of `_stratum_chunk` and the
    half-widths of their brackets.  The small count is Poisson(lam T (1 -
    p_big)), exactly as drawn, and a small cluster's mean mass is (I - u
    p)/(1 - p), p = P(D > u), I = E[min(D, u)].  With every mark rounded
    down, then up, to the lattice h{0..m} of [0, u], I lies between h
    sum_{j<m} P(D > jh) of the two sums.  A big cluster has D > b u with
    probability P(D > b u)/p, from one lattice on [0, 8u].  Every tail is
    widened by its lattice's error bound, and each mean is bracketed from
    the brackets of its tails and of p."""
    spec = config.spec
    p_lo, p_hi = p_bracket
    m = 2 * _LATTICE_CELLS
    a, b, err = mass_tail_bracket(spec, u, m, np.arange(m))
    i_lo, i_hi = (u / m * np.clip(t, 0.0, 1.0).sum() for t in (a - err, b + err))
    n_small = config.lam * config.T * (1.0 - p_big)
    # (I - u p)/(1 - p) rises with I and falls with p, as I <= u
    mass_lo = n_small * (i_lo - u * p_hi) / max(1.0 - p_hi, 1e-300)
    mass_hi = n_small * (i_hi - u * p_lo) / max(1.0 - p_lo, 1e-300)
    cells = (_LATTICE_CELLS * np.array(_CV_BIG) / _CV_BIG[-1]).astype(np.int64)
    a, b, err = mass_tail_bracket(spec, _CV_BIG[-1] * u, _LATTICE_CELLS, cells)
    big_lo = rank_weights.sum() * np.clip(np.maximum(a - err, 0.0) / p_hi, 0.0, 1.0)
    big_hi = rank_weights.sum() * np.clip(np.minimum(b + err, 1.0) / p_lo, 0.0, 1.0)
    lo = np.concatenate(([mass_lo], big_lo))
    hi = np.concatenate(([mass_hi], big_hi))
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def _cross_fit(y: np.ndarray, x: np.ndarray, means: np.ndarray):
    """Control-variate scores y - (x - means) beta, with beta fitted by least
    squares with an intercept on the other parity fold of the replications
    (index mod 2), so each adjusted score is unbiased when the means are
    exact (Avramidis & Wilson 1993).  Returns the adjusted scores and the
    fold's coefficients, fold 0 first."""
    fold = np.arange(y.size) % 2
    betas = []
    for f in (0, 1):
        xf, yf = x[fold == f], y[fold == f]
        betas.append(np.linalg.lstsq(xf - xf.mean(axis=0), yf - yf.mean(), rcond=None)[0])
    other = np.array(betas)[1 - fold]
    return y - ((x - means) * other).sum(axis=1), betas


def _control_variates(y, covariates, means, levels, informative: int, half_widths=None):
    """Cross-fitted control variates of the scores y for both estimators:
    the report for ``detail["control_variates"]`` and, when they apply,
    (mean, variance of the mean, bias bound) of the adjusted scores
    (`_cross_fit`), else None.  ``covariates`` holds each task's rows, one
    column per control variate with mean ``means``; the bias bound is
    sum_k |beta_k| times ``half_widths[k]``, the half-width of a bracketed
    mean, and 0 without them.  The fold floor is 40 (columns + 1), 20
    ``informative`` replications per coefficient in each parity fold: the
    rarer outcome of a 0/1 score (a few hits can fit exactly in sample, with
    a stderr of 1e-17), every replication of a graded one.  They are off
    when every score is the same, below the floor, or when the adjusted
    mean leaves [0, 1]."""
    cv = {"levels": levels, "means": means.tolist()}
    if half_widths is not None:
        cv["mean_half_widths"] = half_widths.tolist()
    cv.update(fold_floor=40 * (means.size + 1), applied=False, off_reason=None)
    if not y.min() < y.max():
        cv["off_reason"] = "constant scores"
        return cv, None
    if informative < cv["fold_floor"]:
        cv["off_reason"] = "below the fold floor"
        return cv, None
    adj, betas = _cross_fit(y, np.concatenate(covariates), means)
    cv["beta"] = [b.tolist() for b in betas]
    cv["variance_ratio"] = float(y.var(ddof=1) / adj.var(ddof=1))
    cv["adjusted_estimate"] = float(adj.mean())
    if not 0.0 <= adj.mean() <= 1.0:
        cv["off_reason"] = "adjusted mean outside [0, 1]"
        return cv, None
    cv["applied"] = True
    n = y.size
    bias_bound = 0.0
    if half_widths is not None:
        n_odd = n // 2  # fold 1; fold 0 is adjusted with betas[1]
        beta_mean = (betas[1] * (n - n_odd) + betas[0] * n_odd) / n
        bias_bound = float(np.abs(beta_mean) @ half_widths)
    return cv, (float(adj.mean()), float(adj.var(ddof=1)) / n, bias_bound)


def _poisson_weights(rate: float, m_max: int) -> np.ndarray:
    """Poisson(rate) pmf on 0..m_max with the tail beyond m_max added to m_max."""
    w = poisson_pmf(np.arange(m_max + 1), rate)
    w[-1] += poisson_sf(m_max, rate)
    return w


def _big_count_cap(rate: float, k: int) -> int:
    """The first m >= k + 2 with P(N > m) <= 1e-4, N ~ Poisson(rate), or
    k + 122 if none is smaller."""
    m = k + 2
    while m < k + 122 and poisson_sf(m, rate) > 1e-4:
        m += 1
    return m


def splitting_estimate(config: ExperimentConfig) -> Estimate:
    """Conditional Monte Carlo over the count of big clusters.

    A cluster is big when its total mass D exceeds u = delta * x_T; the big
    count is Poisson(rate), rate = lam T P(D > u).  Each replication r draws
    one background of small clusters and m_max big clusters, and decides the
    event H[r, m] with the first m big ones for every m = 0..m_max (nested
    strata, in the spirit of Chen, Blanchet, Rhee & Zwart 2019).  Its score
    is Y_r = sum_m w[m] H[r, m] with the Poisson(rate) weights, the tail mass
    beyond m_max on m_max; events only gain from extra big clusters, so that
    closes the tail monotonically.  m_max is at least k+2 and grows until the
    remaining tail is negligible.  Big MB clusters with Poisson counts come
    from the exact superset sampler (`superset_batch`), other clusters from
    rejection in `_conditional_pool`.  P(D > u) comes from `_estimate_p_big`,
    a lattice bracket of the cluster-mass law for every model (the exact
    tail without offspring).  The estimate is mean(Y); its stderr adds
    sd(Y)/sqrt(n) in quadrature to the delta-method error of the rate,
    which takes the bracket's half-width as the error of P(D > u).

    MB clusters with Poisson counts subtract control variates with
    bracketed means from Y (`_stratum_chunk`, `_cv_means`): the summed mass
    of the small clusters, and for b = 1.5, 2, 3, 4, 6, 8 the big clusters
    with D > b u weighted by P(M > rank).  `_control_variates` fits and
    applies them, every replication informative; the stderr then takes sd
    of the adjusted scores and adds its bias bound in quadrature.  When no
    replication hits, the interval is [0, 1 - 0.025^(1/n)], the exact 97.5%
    upper bound on P(Y > 0), which bounds E[Y] as 0 <= Y <= 1.
    """
    u = config.delta * config.scaling().x_T
    if u <= config.spec.x_law.scale:
        raise ConfigurationError(
            f"splitting threshold {u:.6g} must exceed the mark scale {config.spec.x_law.scale}"
        )
    if config.n_strata < 2:
        raise ConfigurationError(f"splitting needs n_strata >= 2, got {config.n_strata}")
    scope = _superset_scope(config)
    p_big, se_p, p_big_detail = _estimate_p_big(config, u)  # a lattice: nothing is drawn yet
    _refuse_oversized_draw(config, min(config.n_strata, CRUDE_CHUNK))
    rate = config.lam * config.T * p_big
    m_max = _big_count_cap(rate, config.k)
    centering = centering_curve(config)
    cv_levels = None
    if scope:
        rank_weights = np.cumsum(_poisson_weights(rate, m_max)[::-1])[::-1][1:]  # P(M > j), j < m_max
        cv_levels = (np.array(_CV_BIG) * u, rank_weights)

    sizes = _chunk_sizes(config.n_strata)
    tasks = [(config, i, s, u, p_big, m_max, centering, cv_levels) for i, s in enumerate(sizes)]
    hits, covariates, small, big = zip(*_run_tasks(_stratum_chunk, tasks, config.workers))
    hits = np.concatenate(hits)
    pools = {
        name: {key: sum(c[key] for c in counts) for key in counts[0]}
        for name, counts in (("small", small), ("big", big))
    }
    p_m = hits.mean(axis=0)

    def mixture(r: float) -> float:
        return float(_poisson_weights(r, m_max) @ p_m)

    tail = poisson_sf(m_max, rate)
    y = hits @ _poisson_weights(rate, m_max)
    n = config.n_strata
    value = float(y.mean())
    var_reps = float(y.var(ddof=1)) / n
    h = max(config.lam * config.T * se_p, 1e-12)
    dvalue = (mixture(rate + h) - mixture(max(rate - h, 0.0))) / (2 * h)
    var_rate = (dvalue * config.lam * config.T * se_p) ** 2
    bias_bound = 0.0
    cv = None
    if scope:
        means, half_widths = _cv_means(config, u, p_big, p_big_detail["p_big_bracket"], rank_weights)
        cv, fit = _control_variates(y, covariates, means, {"big": cv_levels[0].tolist()}, n, half_widths)
        if fit is not None:
            value, var_reps, bias_bound = fit
    se = float(np.sqrt(var_reps + var_rate + bias_bound**2))

    detail = {
        "p_big": p_big,
        "p_big_se": se_p,
        **p_big_detail,
        "threshold": u,
        "rate": rate,
        "m_max": m_max,
        "strata": {m: float(p_m[m]) for m in range(m_max + 1)},
        "bias_probe_k_plus_2": float(p_m[min(config.k + 2, m_max)]),
        "neglected_default_truncation": poisson_sf(config.k + 2, rate),
        "tail_closure_prob": tail,
        "tail_bound_width": tail * float(1.0 - p_m[-1]),
        "truncated_clusters": pools["small"]["truncated"] + pools["big"]["truncated"],
        "pools": pools,
    }
    if cv is not None:
        detail["control_variates"] = cv
    ci95 = None if y.any() else (0.0, 1.0 - 0.025 ** (1.0 / n))
    return _estimate(value, se, n, lineage(config.seed, "splitting"), detail, ci95)


def ldp_ratio(config: ExperimentConfig) -> tuple[Estimate, float]:
    """Normalized probability against the limit mass of the event.

    The event must pin all k+1 limit jumps away from zero; otherwise the
    order-k limit diverges and the run is refused.
    """
    config.validate_strict()
    sep = config.event.dk_separation(config.k)
    if sep is None:
        raise ConfigurationError(
            f"event {config.event!r} is not bounded away from the {config.k}-jump cone: "
            "its order-k limit mass diverges (pick an event forcing k+1 jumps)"
        )
    measure = measure_for_model(config.model, config.spec)
    try:
        limit_value = mu_sharp(measure, config.lam, config.k, config.event)
    except ValueError as exc:
        raise ConfigurationError(f"event {format_event(config.event)} at k={config.k}: {exc}") from None
    if limit_value <= 0.0:
        raise ConfigurationError(
            "event has zero limit mass at this order; it lives at a higher k"
        )
    est = splitting_estimate(config) if config.estimator == "splitting" else crude_estimate(config)
    vp = config.scaling().speed_prime(config.spec.x_law) ** (config.k + 1)
    ratio = vp * est.value / limit_value
    se = vp * est.stderr / limit_value
    ci = tuple(vp * end / limit_value for end in est.ci95)
    detail = dict(est.detail)
    detail.update({"probability": est.value, "probability_se": est.stderr, "v_prime_power": vp})
    return _estimate(ratio, se, est.n, est.seed_lineage, detail, ci), limit_value


# ---------------------------------------------------------------------------
# assumption checks


def check_remainder(
    config: ExperimentConfig, T_grid, n_accept_target: int = 4000, max_sims: int = 20_000_000
) -> list[dict]:
    """Conditional probability that post-horizon mass itself crosses x_T.

    For each horizon: P(D_after > x_T | D > x_T) over n_accept_target
    clusters conditioned on D > x_T by `_conditional_pool`, each given a
    uniform arrival on [0, T]; at most max_sims clusters are simulated, in
    the pool's batches, which expect at most _MAX_DRAW_EVENTS events (a
    horizon whose smallest batch expects more is refused before anything
    is drawn).
    Comonotone specs tilt the immigrant mark (`_tilt_level`) and the share is
    weight-normalised.  Other specs use plain rejection: their big clusters
    are often child-driven, and those carry the remainder, so a tilt on the
    immigrant alone would under-represent them.
    """
    tilt = config.spec.dependence == COMONOTONE
    x_Ts = [ScalingRule(config.eta, T).x_T for T in T_grid]
    xqs = [_tilt_level(config, x_T) if tilt else None for x_T in x_Ts]
    least = min(_POOL_BATCH_MIN, max_sims)
    for T, xq in zip(T_grid, xqs):  # every horizon before the first draw
        what = f"check remainder at T = {float(T):.6g}"
        _refuse_oversized(config, least, what, f"its smallest batch of {least} clusters", xq)
    rows = []
    for idx, (T, x_T, xq) in enumerate(zip(T_grid, x_Ts, xqs)):
        rng = substream(config.seed, "remainder", idx)
        cid, off, mark, w, counts = _conditional_pool(config, rng, n_accept_target, x_T, xq=xq, max_draws=max_sims)
        got = counts["accepted"]
        late = rng.random(got)[cid] * T + off > T
        hit = np.bincount(cid[late], weights=mark[late], minlength=got) > x_T
        est = float(np.average(hit, weights=w)) if got else np.nan
        se = float(np.sqrt(est * (1 - est) / got)) if got else np.nan
        rows.append(
            {
                "T": float(T),
                "x_T": x_T,
                "estimate": est,
                "stderr": se,
                "n_accepted": int(got),
                "n_simulated": int(counts["drawn"]),
                "low_confidence": bool(got < 100),
            }
        )
    return rows


def check_assumption6(wait: WaitLaw, eta: float, epsilon: float, T_grid) -> tuple[list[dict], str]:
    """Analytic decay of x_T P(W > eps T) along the horizon grid."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rows = []
    for T in T_grid:
        val = ScalingRule(eta, T).x_T * float(wait.law.tail(epsilon * float(T)))
        rows.append({"T": float(T), "value": val})
    vals = [r["value"] for r in rows]
    decreasing = all(b <= a for a, b in zip(vals, vals[1:]))
    verdict = "holds" if decreasing and vals[-1] < 1e-2 else "violated"
    return rows, verdict


def check_tail_equivalence(config: ExperimentConfig, quantile_levels) -> list[dict]:
    """Empirical offspring/mark tails against the cluster-mass tail.

    Simulates config.n_reps clusters and reports, at each empirical
    quantile of the total mass D, the ratios P(K > x)/P(D > x) and
    P(X > x)/P(D > x) next to their closed-form limits.
    """
    for q in quantile_levels:
        if not 0.9 < q < 1.0:
            raise ValueError("quantile levels must lie in (0.9, 1)")
    measure = measure_for_model(config.model, config.spec)  # reads no stream: refuse before drawing
    n = config.n_reps
    _refuse_oversized(config, n, "check tails' draw", f"n_reps = {n} clusters")
    d_all = np.empty(n)
    k_all = np.empty(n)
    done = 0
    trunc = 0
    for batch in _offsetless_batches(config, substream(config.seed, "tails"), n):
        b = batch.n
        d_all[done : done + b] = batch.totals()
        k_all[done : done + b] = np.bincount(batch.cid[batch.generation == 1], minlength=b)
        trunc += int(batch.truncated.sum())
        done += b
    law = config.spec.x_law
    # K ~ (children per unit of parent mark) * X: phi, or eta for comonotone counts
    if config.model == HAWKES:
        per_mark = config.spec.phi
    else:
        per_mark = config.spec.k_param if config.spec.dependence == COMONOTONE else 0.0
    k_limit = per_mark**law.alpha / measure.constant
    mark_limit = 1.0 / measure.constant
    d_sorted = np.sort(d_all)
    k_sorted = np.sort(k_all)
    rows = []
    for q in quantile_levels:
        x = float(np.quantile(d_sorted, q))
        p_d = float((n - np.searchsorted(d_sorted, x, side="right")) / n)
        p_k = float((n - np.searchsorted(k_sorted, x, side="right")) / n)
        p_x = float(law.tail(x))
        rows.append(
            {
                "level": q,
                "x": x,
                "p_d": p_d,
                "k_over_d": p_k / p_d if p_d else np.nan,
                "k_over_d_limit": k_limit,
                "mark_over_d": p_x / p_d if p_d else np.nan,
                "mark_over_d_limit": mark_limit,
                "truncated_clusters": trunc,
            }
        )
    return rows


def _tilt_level(config: ExperimentConfig, u: float) -> float | None:
    """Tilt level of the immigrant mark for conditioning on D > u: 0.7 times
    the mark at which a cluster's asymptotic mass multiplier reaches u.
    None unless the mark law is heavy; plain rejection is used then."""
    spec = config.spec
    law = spec.x_law
    if not law.heavy:
        return None
    if config.model == HAWKES:
        mult = 1.0 + spec.phi * law.mean() / (1.0 - spec.mean_fertility)
        target = u / mult
    elif spec.dependence == COMONOTONE:
        target = u / (1.0 + spec.k_param * law.mean())
    else:
        target = u - spec.mean_offspring() * law.mean()
    return max(0.7 * target, law.scale * 1.0000001)


def _weighted_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    order = np.argsort(values)
    v, w = values[order], weights[order]
    cum = np.cumsum(w)
    cum /= cum[-1]
    return float(v[np.searchsorted(cum, q, side="left")])


def _anatomy_summary(rep, t, size, hits, weight, m: int) -> dict:
    """Weighted quantiles of the top-m share, the top-1 share and the time
    spread of the top m over the hit replications with at least one jump,
    from jump arrays in (replication, time) order; NaN when there are none.
    Of equal jumps the earlier ranks higher."""
    keys = ("median_top_share", "q10_top_share", "q90_top_share", "median_top1_share", "median_time_spread")
    summary = dict.fromkeys(keys, np.nan)
    hit = hits[rep]  # the jumps of the hit replications, a segment each
    rep, t, size = rep[hit], t[hit], size[hit]
    if rep.size:
        starts = np.flatnonzero(np.r_[True, rep[1:] != rep[:-1]])
        lens = np.diff(np.r_[starts, rep.size])
        ranked = np.lexsort((-size, rep))  # each segment by size, largest first, ties by time
        top = ranked[np.arange(rep.size) - np.repeat(starts, lens) < m]
        top_starts = np.r_[0, np.cumsum(np.minimum(lens, m))[:-1]]
        total = np.add.reduceat(size, starts)
        shares = np.add.reduceat(size[top], top_starts) / total
        top1 = size[ranked[starts]] / total
        spreads = np.maximum.reduceat(t[top], top_starts) - np.minimum.reduceat(t[top], top_starts)
        wts = weight[rep[starts]]
        quantiles = [(shares, 0.5), (shares, 0.1), (shares, 0.9), (top1, 0.5), (spreads, 0.5)]
        summary.update((key, _weighted_quantile(v, wts, q)) for key, (v, q) in zip(keys, quantiles))
    return summary


def big_jump_anatomy(config: ExperimentConfig) -> dict:
    """Structure of conditioned hit paths: share of the top k+1 jumps in the
    total uncentered mass, and the spread of their times.

    Samples the dominant scenario (exactly k+1 clusters conditioned above
    the event scale, plus an unconditional-rate background), filters to
    actual hits, and reports importance-weighted distribution summaries
    (`_anatomy_summary`).
    """
    sep = config.event.dk_separation(config.k)
    if sep is None:
        raise ConfigurationError("event must imply a jump-count proxy at this order")
    _refuse_oversized_draw(config, config.n_strata)
    x_T = config.scaling().x_T
    u = 0.8 * config.event.scale() * x_T
    rng = substream(config.seed, "anatomy")
    if not config.spec.x_law.heavy:
        # bounded-support models: keep the conditioning level reachable
        pilot = simulate_batch(
            config.model, 20_000, config.spec, config.wait, rng, config.cap, with_offsets=False
        ).totals()
        u = min(u, float(np.quantile(pilot, 0.995)) * (1.0 - 1e-9))
        u = max(u, float(pilot.min()) * (1.0 - 1e-9))
    centering = centering_curve(config)
    m = config.k + 1
    n = config.n_strata

    # unconditional background at the full rate; the forced big clusters carry
    # the event, so double-counting mass above u is immaterial here
    small_counts = rng.poisson(config.lam * config.T, n)
    total_small = int(small_counts.sum())
    bg = simulate_batch(config.model, total_small, config.spec, config.wait, rng, config.cap)
    b_cid, b_off, b_mark, b_w, _ = _conditional_pool(config, rng, m * n, u, xq=_tilt_level(config, u))
    rep_weight = np.ones(n) if b_w is None else np.prod(b_w.reshape(n, m), axis=1)

    gam_small = rng.random(total_small) * config.T
    gam_big = rng.random(m * n) * config.T
    rep_small = _rep_of_cluster(small_counts)
    rep_s, t_s, size_s = _flat_jumps(config.T, rep_small, gam_small, [bg.cid, bg.offset, bg.mark], bg.n)
    rep_b, t_b, size_b = _flat_jumps(config.T, _rep_of_cluster(np.full(n, m)), gam_big, [b_cid, b_off, b_mark])
    rep = np.concatenate([rep_s, rep_b])
    t = np.concatenate([t_s, t_b])
    size = np.concatenate([size_s, size_b])
    # one sort serves the summary; the decision's own sorts see ordered input
    order = rep_time_order(rep, t)
    rep, t, size = rep[order], t[order], size[order]
    hits = _eval_event_chunk(rep, t, size, n, config.event, centering, x_T)
    summary = _anatomy_summary(rep, t, size, hits, rep_weight, m)
    summary["n_hits"] = int(hits.sum())
    summary["conditioning_threshold"] = u
    summary["seed_lineage"] = lineage(config.seed, "anatomy")
    return summary
