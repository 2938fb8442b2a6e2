"""Marked cluster generation in flat arrays.

`simulate_batch` generates many clusters at once, one row per event,
generation by generation; every sampler in the package draws its clusters
there, except the splitting pool of big MB clusters with Poisson counts,
which draws them from `superset_batch`.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

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

    ``cid`` maps events to clusters; row ``i < n`` is the immigrant of
    cluster ``i``.  Offsets are times since the cluster's immigrant.  Event
    order within the batch is generation-major, so a parent precedes its
    children.  The lineage, ``parent`` (the row of each event's parent; an
    immigrant is its own) and ``generation``, is None unless it was asked
    for.
    """

    n: int
    cid: np.ndarray
    parent: np.ndarray | None
    offset: np.ndarray
    mark: np.ndarray
    generation: np.ndarray | None
    truncated: np.ndarray  # bool per cluster

    def totals(self) -> np.ndarray:
        return np.bincount(self.cid, weights=self.mark, minlength=self.n)


def simulate_batch(
    model: str,
    n: int,
    spec: JointMarkSpec,
    wait: WaitLaw,
    rng: np.random.Generator,
    cap: int = DEFAULT_CAP,
    with_offsets: bool = True,
    x0: np.ndarray | None = None,
    lineage: bool = False,
) -> BatchClusters:
    """Generate ``n`` clusters into flat arrays, one generation per pass.

    A pass draws the last generation's offspring counts, then their marks,
    then their waits.  Branching counts are Poisson(phi * parent mark); an
    MB cluster is the first pass alone, its counts from the joint mark law.
    Marks and waits are quantile transforms of uniforms.  ``x0`` forces the
    immigrant marks to given values; by default they are drawn.  The
    cap binds branching clusters only: one that would pass ``cap`` events
    loses the whole generation that crosses it and is flagged truncated.
    ``lineage`` also builds ``parent`` and ``generation``, which only
    `write_clusters_csv` and the tails check read; it draws nothing.
    """
    if model not in (MB, HAWKES):
        raise ConfigurationError(f"unknown model {model!r}")
    branching = model == HAWKES
    if branching and spec.phi > 0 and not spec.mean_fertility < 1.0:
        raise ConfigurationError("supercritical fertility")
    if x0 is None:
        x0 = np.asarray(spec.x_law.sample(rng, n), dtype=float)
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (n,):
            raise ValueError("x0 must have one mark per cluster")
    # one list per column, a generation each; the lists own the arrays
    cols = {"cid": [np.arange(n, dtype=np.int64)], "mark": [x0]}
    if with_offsets:
        cols["offset"] = [np.zeros(n)]
    if lineage:
        cols["parent"] = [cols["cid"][0]]
        cols["generation"] = [np.zeros(n, dtype=np.int16)]
    del x0
    truncated = _add_generations(cols, branching, spec, wait, rng, cap)
    if lineage and len(cols["cid"]) <= 2:
        del cols["parent"]  # up to generation 1 every parent row is the cluster id
    # each generation list goes as soon as it is joined
    joined = {name: np.concatenate(cols.pop(name)) for name in list(cols)}
    return BatchClusters(
        n=n,
        cid=joined["cid"],
        parent=joined.get("parent", joined["cid"] if lineage else None),
        offset=joined["offset"] if with_offsets else np.zeros_like(joined["mark"]),
        mark=joined["mark"],
        generation=joined.get("generation"),
        truncated=truncated,
    )


def _add_generations(cols: dict, branching: bool, spec, wait, rng, cap: int) -> np.ndarray:
    """Append the offspring generations of the clusters in ``cols`` to its
    lists, one pass each (`simulate_batch`), and return the truncated flags.

    Each child's position in its parent generation comes from one repeat,
    and its cluster id, its parent's offset and (for mark-conditional
    waits) its parent's mark are gathered from it."""
    cids, marks, offsets = cols["cid"], cols["mark"], cols.get("offset")
    n = cids[0].size
    truncated = np.zeros(n, dtype=bool)
    # no cluster holds more events than the batch's rows, candidate
    # generations included; the per-cluster counts are built only once
    # that row count passes the cap
    rows = n
    counts = None
    row0 = 0  # first row of the current parent generation
    gen = 0
    while cids[-1].size and (branching or gen == 0):  # an MB cluster is one generation
        gen += 1
        parent_mark = marks[-1]
        if branching:
            k = rng.poisson(spec.phi * parent_mark).astype(np.int64, copy=False)
        else:
            k = spec.offspring_counts(parent_mark, rng)
        total = int(k.sum())
        if total == 0:
            break
        pos = np.repeat(np.arange(k.size, dtype=np.int64), k)
        del k
        # the immigrants' positions are their cluster ids
        cid = pos if gen == 1 else cids[-1].take(pos)
        # enforce the per-cluster cap at generation granularity
        k_keep = None
        if branching:
            rows += total
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
        if cid.size == 0:
            break
        child_marks = np.asarray(spec.x_law.sample(rng, total), dtype=float)
        if k_keep is not None:
            child_marks = child_marks[k_keep]
        if offsets is not None:
            # only mark-conditional waits read the parent marks
            pm = parent_mark.take(pos) if wait.conditional_on_mark else None
            w = np.asarray(wait.sample(rng, mark=pm, size=total), dtype=float)
            del pm
        if k_keep is not None:
            pos = pos[k_keep]
        if offsets is not None:
            child_off = offsets[-1].take(pos)
            child_off += w if k_keep is None else w[k_keep]  # the parent's offset plus the wait
            offsets.append(child_off)
        if "parent" in cols:
            cols["parent"].append(cid if gen == 1 else pos + row0)
            cols["generation"].append(np.full(cid.size, gen, dtype=np.int16))
        row0 += cids[-1].size
        cids.append(cid)
        marks.append(child_marks)
    return truncated


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


# the most marks one block of `superset_batch` draws, unless one candidate holds more
_SUPERSET_BLOCK = 1 << 15


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
    uniform each; the marks are drawn and kept or dropped a block of whole
    candidates at a time, and the blocks draw the uniforms one call would.
    Child waits are drawn for the kept clusters only, after the last block.
    The batch is laid out as `simulate_batch` lays out MB clusters without
    lineage, and each cluster's mass sums its marks in the same order, so
    its totals are the ones the keep decision saw.  With nu = 0 every
    candidate has X_0 > u and is kept.
    """
    if spec.dependence != INDEPENDENT_LIGHT_K:
        raise ValueError(f"no superset sampler for {spec.dependence} counts")
    law = spec.x_law
    cdf, p_table, q_table = _superset_count_law(spec, u)
    k = np.searchsorted(cdf, rng.random(n) * cdf[-1], side="right")
    with np.errstate(divide="ignore"):  # log1p(-p) = -inf where every mark exceeds the level
        first = np.floor(np.log1p(-rng.random(n) * q_table[k]) / np.log1p(-p_table[k]))
    first = np.minimum(first, k).astype(np.int64)

    end = np.cumsum(k + 1)  # one past each candidate's last mark
    x0, kids, n_kids = [], [], []
    c0 = 0
    while c0 < n or not n_kids:  # one empty block without candidates
        row0 = int(end[c0 - 1]) if c0 else 0
        c1 = min(max(int(np.searchsorted(end, row0 + _SUPERSET_BLOCK, side="right")), c0 + 1), n)
        size = k[c0:c1] + 1
        start = end[c0:c1] - size - row0
        at = start + first[c0:c1]
        cid = np.repeat(np.arange(c1 - c0), size)
        mark = rng.random(cid.size)  # each subset's marks replace its uniforms
        rel = np.arange(cid.size) - at.take(cid)
        below, free = np.flatnonzero(rel < 0), np.flatnonzero(rel > 0)
        mark[below] = law.quantile_below(mark[below], u / size.take(cid.take(below)))
        mark[at] = law.quantile_above(mark[at], u / size)
        mark[free] = law._transform(mark[free])
        keep = np.bincount(cid, weights=mark, minlength=c1 - c0) > u
        kept = np.flatnonzero(keep)
        x0.append(mark.take(start.take(kept)))
        child = keep.take(cid)
        child[start] = False
        kids.append(mark[child])
        n_kids.append(size.take(kept) - 1)
        c0 = c1

    n_kids = np.concatenate(n_kids)
    m = n_kids.size
    mark = np.concatenate(x0 + kids)
    del x0, kids
    child_cid = np.repeat(np.arange(m, dtype=np.int64), n_kids)
    pm = mark[:m].take(child_cid) if wait.conditional_on_mark else None
    w = np.asarray(wait.sample(rng, mark=pm, size=child_cid.size), dtype=float)
    return BatchClusters(
        n=m,
        cid=np.concatenate([np.arange(m, dtype=np.int64), child_cid]),
        parent=None,
        offset=np.concatenate([np.zeros(m), w]),
        mark=mark,
        generation=None,
        truncated=np.zeros(m, dtype=bool),
    )


def write_clusters_csv(batch: BatchClusters, file) -> None:
    """Debugging dump of a batch drawn with lineage, one row per event,
    grouped by cluster.

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
    writer = csv.writer(file)
    writer.writerow(["cluster_id", "event_id", "parent_id", "generation", "offset", "mark"])
    writer.writerows([c, e, p, g, repr(o), repr(m)] for c, e, p, g, o, m in rows)
