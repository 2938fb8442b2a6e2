"""Marked cluster generation in flat arrays.

`simulate_batch` generates many clusters at once, one row per event,
generation by generation; every sampler in the package draws its clusters
here.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .laws import JointMarkSpec, WaitLaw

__all__ = [
    "BatchClusters",
    "simulate_batch",
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
