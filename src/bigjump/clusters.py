"""Marked cluster generation in flat arrays.

`simulate_batch` generates many clusters at once, one row per event,
generation by generation; every sampler in the package draws its clusters
there, except the splitting pool of big MB clusters with Poisson counts,
which draws them from `superset_batch`.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .laws import INDEPENDENT_LIGHT_K, JointMarkSpec, WaitLaw, poisson_pmf, poisson_sf

__all__ = [
    "BatchClusters",
    "simulate_batch",
    "superset_batch",
    "superset_probability",
    "write_clusters_csv",
]

DEFAULT_CAP = 1_000_000

MB = "mb"
HAWKES = "hawkes"


@dataclass
class BatchClusters:
    """Flat-array view of ``n`` clusters: one row per event.

    ``cid`` maps events to clusters and ``parent`` to the row of the parent
    event; row ``i < n`` is the immigrant of cluster ``i`` and is its own
    parent.  Offsets are times since the cluster's immigrant.  Event order
    within the batch is generation-major, so a parent precedes its children.
    """

    n: int
    cid: np.ndarray
    parent: np.ndarray
    offset: np.ndarray
    mark: np.ndarray
    generation: np.ndarray
    truncated: np.ndarray  # bool per cluster
    immigrant_mark: np.ndarray = field(default=None)

    def totals(self) -> np.ndarray:
        return np.bincount(self.cid, weights=self.mark, minlength=self.n)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.cid, minlength=self.n)


def simulate_batch(
    model: str,
    n: int,
    spec: JointMarkSpec,
    wait: WaitLaw,
    rng: np.random.Generator,
    cap: int = DEFAULT_CAP,
    with_offsets: bool = True,
    x0: np.ndarray | None = None,
) -> BatchClusters:
    """Generate ``n`` clusters into flat arrays.

    Counts use the generator's Poisson sampler (vectorized); marks and waits
    are quantile transforms of uniforms.  ``x0`` forces the immigrant marks
    (importance proposals); by default they are drawn.  A branching cluster
    that would pass ``cap`` events loses the whole generation that crosses
    it and is flagged truncated.
    """
    if model not in (MB, HAWKES):
        raise ConfigurationError(f"unknown model {model!r}")
    if model == HAWKES and spec.phi > 0 and not spec.mean_fertility < 1.0:
        raise ConfigurationError("supercritical fertility")
    if x0 is None:
        x0 = np.asarray(spec.x_law.sample(rng, n), dtype=float)
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (n,):
            raise ValueError("x0 must have one mark per cluster")
    cids = [np.arange(n, dtype=np.int64)]
    offsets = [np.zeros(n)] if with_offsets else None
    marks = [x0]
    gens = [np.zeros(n, dtype=np.int16)]
    truncated = np.zeros(n, dtype=bool)

    if model == MB:
        k = spec.offspring_counts(x0, rng)
        total = int(k.sum())
        if total:
            cid = np.repeat(np.arange(n, dtype=np.int64), k)
            child_marks = np.asarray(spec.x_law.sample(rng, total), dtype=float)
            cids.append(cid)
            marks.append(child_marks)
            gens.append(np.ones(total, dtype=np.int16))
            if with_offsets:
                w = wait.sample(rng, mark=x0[cid], size=total)
                offsets.append(np.asarray(w, dtype=float))
        parent = cid = np.concatenate(cids)  # children point at their immigrant's row
    else:
        parents = [cids[0]]
        # no cluster holds more events than the batch's rows, candidate
        # generations included; the per-cluster counts are built only once
        # that row count passes the cap
        rows = n
        counts = None
        row0 = 0  # first row of the current parent generation
        parent_cid = cids[0]
        parent_mark = x0
        parent_off = np.zeros(n) if with_offsets else None
        gen = 0
        while parent_cid.size:
            gen += 1
            lam = spec.phi * parent_mark
            k = rng.poisson(lam).astype(np.int64)
            total = int(k.sum())
            if total == 0:
                break
            cid = np.repeat(parent_cid, k)
            prow = np.repeat(np.arange(row0, row0 + parent_cid.size), k)
            # enforce the per-cluster cap at generation granularity
            rows += total
            k_keep = None
            if counts is not None:
                counts += np.bincount(cid, minlength=n)
            elif rows > cap:
                # nothing was dropped yet: the rows so far are the counts
                counts = np.bincount(np.concatenate(cids + [cid]), minlength=n)
            if counts is not None:
                over = counts > cap
                if over.any():
                    truncated |= over
                    k_keep = ~over[cid]
                    cid = cid[k_keep]
                    prow = prow[k_keep]
            m = cid.size
            if m == 0:
                break
            child_marks = np.asarray(spec.x_law.sample(rng, total), dtype=float)
            if k_keep is not None:
                child_marks = child_marks[k_keep]
            cids.append(cid)
            parents.append(prow)
            marks.append(child_marks)
            gens.append(np.full(m, gen, dtype=np.int16))
            if with_offsets:
                pm = np.repeat(parent_mark, k)
                po = np.repeat(parent_off, k)
                w = np.asarray(wait.sample(rng, mark=pm, size=total), dtype=float)
                if k_keep is not None:
                    pm, po, w = pm[k_keep], po[k_keep], w[k_keep]
                child_off = po + w
                offsets.append(child_off)
                parent_off = child_off
            row0 += parent_cid.size
            parent_cid = cid
            parent_mark = child_marks
        cid = np.concatenate(cids)
        parent = np.concatenate(parents)

    mark = np.concatenate(marks)
    gen_arr = np.concatenate(gens)
    off = np.concatenate(offsets) if with_offsets else np.zeros_like(mark)
    return BatchClusters(
        n=n,
        cid=cid,
        parent=parent,
        offset=off,
        mark=mark,
        generation=gen_arr,
        truncated=truncated,
        immigrant_mark=x0,
    )


def _superset_count_law(spec: JointMarkSpec, u: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The law of the offspring count K ~ Poisson(nu) tilted by
    q_k = P(max_{0<=i<=k} X_i > u/(k+1)) = 1 - (1 - p_k)^(k+1), with
    p_k = P(X > u/(k+1)), over k = 0..k_hi: (cumulative weights pmf(k) q_k,
    p_k, q_k).  The last cumulative weight is the normalizer, the
    probability of the superset event.  k_hi starts near nu + 10 sqrt(nu)
    and doubles until P(K > k_hi) is at most half an ulp of the normalizer,
    so the table drops only mass below the double rounding of its
    normalizer.  A normalizer of 0 (no k can carry D > u) is refused."""
    nu = spec.k_param
    k_hi = int(nu + 10.0 * np.sqrt(nu)) + 16
    while True:
        k = np.arange(k_hi + 1)
        p = spec.x_law.tail(u / (k + 1.0))
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf gives q = 1
            q = -np.expm1((k + 1) * np.log1p(-p))
        cdf = np.cumsum(poisson_pmf(k, nu) * q)
        if poisson_sf(k_hi, nu) <= 0.5 * np.finfo(float).eps * cdf[-1]:
            break
        k_hi *= 2
    if not cdf[-1] > 0.0:
        raise ConfigurationError(
            f"conditioning event D > {u:.6g} has probability 0 in double precision; "
            "threshold is outside the reachable range"
        )
    return cdf, p, q


def superset_probability(spec: JointMarkSpec, u: float) -> float:
    """P(max_{0<=i<=K} X_i > u/(K+1)) for Poisson counts K: the probability
    of the superset event that `superset_batch` draws from."""
    return float(_superset_count_law(spec, u)[0][-1])


def superset_batch(
    n: int, spec: JointMarkSpec, wait: WaitLaw, rng: np.random.Generator, u: float
) -> BatchClusters:
    """The clusters with mass D > u among n MB clusters with Poisson counts
    drawn given the superset event max_{0<=i<=K} X_i > u/(K+1), X_0 the
    immigrant mark, which D > u implies.  Kept clusters follow the law of a
    cluster given D > u exactly, without weights: conditioning on the
    maximum (Asmussen & Kroese 2006).

    Per candidate: K from its tilted law (`_superset_count_law`); the first
    index J with X_J > l = u/(K+1) from P(J = j) proportional to
    (1 - p)^j p on 0..K, p = P(X > l); the marks before J from X given
    X <= l, the mark at J from X given X > l and the later ones freely, one
    uniform each.  Child waits are drawn for the kept clusters only.  The
    batch is laid out as `simulate_batch` lays out MB clusters, and each
    cluster's mass sums its marks in the same order, so its totals are the
    ones the keep decision saw.  With nu = 0 every candidate has X_0 > u
    and is kept.
    """
    if spec.dependence != INDEPENDENT_LIGHT_K:
        raise ValueError(f"no superset sampler for {spec.dependence} counts")
    law = spec.x_law
    cdf, p_table, q_table = _superset_count_law(spec, u)
    k = np.searchsorted(cdf, rng.random(n) * cdf[-1], side="right")
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-p_table[k])  # -inf where every mark exceeds the level
    first = np.floor(np.log1p(-rng.random(n) * q_table[k]) / log_miss)
    first = np.minimum(first, k).astype(np.int64)

    size = k + 1
    start = np.cumsum(size) - size
    cid = np.repeat(np.arange(n, dtype=np.int64), size)
    index = np.arange(cid.size) - start[cid]  # 0 for the immigrant
    level = u / size[cid]
    rel = index - first[cid]
    uu = rng.random(cid.size)
    below, at, free = rel < 0, rel == 0, rel > 0
    mark = np.empty(cid.size)
    mark[below] = law.quantile_below(uu[below], level[below])
    mark[at] = law.quantile_above(uu[at], level[at])
    mark[free] = law.quantile(uu[free])

    keep = np.bincount(cid, weights=mark, minlength=n) > u
    kept = np.flatnonzero(keep)
    m = kept.size
    remap = np.full(n, -1, dtype=np.int64)
    remap[kept] = np.arange(m)
    x0 = mark[start[kept]]
    child = (index > 0) & keep[cid]
    child_cid = remap[cid[child]]
    w = np.asarray(wait.sample(rng, mark=x0[child_cid], size=child_cid.size), dtype=float)
    cids = np.concatenate([np.arange(m, dtype=np.int64), child_cid])
    return BatchClusters(
        n=m,
        cid=cids,
        parent=cids,
        offset=np.concatenate([np.zeros(m), w]),
        mark=np.concatenate([x0, mark[child]]),
        generation=np.concatenate([np.zeros(m, np.int16), np.ones(child_cid.size, np.int16)]),
        truncated=np.zeros(m, dtype=bool),
        immigrant_mark=x0,
    )


def write_clusters_csv(path, batch: BatchClusters) -> None:
    """Debugging dump, one row per event, grouped by cluster.

    Event ids count from 0 within a cluster in generation order; the
    immigrant is event 0 and its own parent.
    """
    order = np.argsort(batch.cid, kind="stable")
    cid = batch.cid[order]
    rank = np.arange(order.size) - np.searchsorted(cid, cid)  # event id of each sorted row
    event_id = np.empty_like(order)
    event_id[order] = rank
    rows = zip(
        cid.tolist(),
        rank.tolist(),
        event_id[batch.parent[order]].tolist(),
        batch.generation[order].tolist(),
        batch.offset[order].tolist(),
        batch.mark[order].tolist(),
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster_id", "event_id", "parent_id", "generation", "offset", "mark"])
        writer.writerows([c, e, p, g, repr(o), repr(m)] for c, e, p, g, o, m in rows)
