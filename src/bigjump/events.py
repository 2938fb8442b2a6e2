"""Declarative rare-event menu on scaled paths.

Each event kind is one frozen dataclass that defines everything about it:
its name ``kind`` (its finite parameters are the dataclass fields); its
decision on one centered scaled path in one node scan (``decide``) and on n
replications given as flat (replication, time, unscaled size) jump arrays,
centered by an ``InterpCurve`` and scaled by 1/x_T (``decide_batch``), and
on every prefix of such arrays at once (``decide_strata``: sum events keep
one running sum, the others decide prefix by prefix); the positive radius
by which it stays away from the cone of paths with at most k jumps, or None
when its order-k limit diverges and the ratio harness refuses it
(``dk_separation``); its mass under the (k+1)-jump limit measure
(``limit_mass``); and the cluster mass, in x_T units, at which it becomes
likely (``scale``).  ``DkProxy`` answers all but its separation as the
``JumpCount`` event it stands for.

``SupExceed`` decides most replications without sorting their jumps: the
sizes summed into SUP_BINS time bins bound the running sum, and only the
replications whose bounds straddle the threshold are sorted.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from math import comb, inf
from typing import ClassVar

import numpy as np

from .measures import LimitMeasure, _excess_mass, _tail_mass, mu_bar_tail, mu_tail, order_prefactor
from .paths import CadlagPath, kth_largest_jump, path_sup, path_value, terminal

__all__ = [
    "PathEvent",
    "TerminalExceed",
    "ValueAt",
    "SupExceed",
    "JumpCount",
    "DkProxy",
    "parse_event",
    "format_event",
    "rep_time_order",
    "InterpCurve",
]


# Time bins of the sort-free ``sup_exceed`` bounds; a power of two, so that
# floor(t * SUP_BINS) and the bin edges are exact.  On the hawkes perfbench
# config at c = 1 (T = 200, 20 chunks of 1024 replications, ~400k jumps
# each), 32, 64, 128, 256 and 512 bins left 10.2, 4.7, 2.4, 1.2 and 0.5% of
# replications to the sort, in 0.29, 0.24, 0.24, 0.28 and 0.52 s of event
# time (0.93 s all sorted); the n x 128 table is 1 MB a chunk.
SUP_BINS = 128


@dataclass(frozen=True)
class InterpCurve:
    """Centering at scaled times: ``np.interp`` of node values ``v`` at node
    times ``t`` spanning [0, 1]."""

    t: np.ndarray
    v: np.ndarray

    def __call__(self, ts):
        return np.interp(ts, self.t, self.v)

    def bin_range(self, bins: int) -> tuple[np.ndarray, np.ndarray]:
        """Min and max of the curve on each of ``bins`` equal closed bins of
        [0, 1], from its values at the bin edges and at the nodes inside;
        the curve need not be monotone."""
        ends = self(np.arange(bins + 1) / bins)
        lo = np.minimum(ends[:-1], ends[1:])
        hi = np.maximum(ends[:-1], ends[1:])
        k = np.minimum((self.t * bins).astype(np.int64), bins - 1)
        np.minimum.at(lo, k, self.v)
        np.maximum.at(hi, k, self.v)
        return lo, hi


@dataclass(frozen=True)
class PathEvent:
    kind: ClassVar[str]

    def decide(self, path: CadlagPath) -> bool:
        raise NotImplementedError

    def decide_batch(self, rep, t, size, n: int, cent, x_T: float) -> np.ndarray:
        raise NotImplementedError

    def decide_strata(self, rep, t, size, ends, n: int, cent, x_T: float) -> np.ndarray:
        """(n, len(ends)) decisions: column i is ``decide_batch`` on the
        prefix ``[:ends[i]]`` of the jump arrays (ends nondecreasing)."""
        hits = np.empty((n, len(ends)), dtype=bool)
        for i, e in enumerate(ends):
            hits[:, i] = self.decide_batch(rep[:e], t[:e], size[:e], n, cent, x_T)
        return hits

    def dk_separation(self, k: int) -> float | None:
        raise NotImplementedError

    def limit_mass(self, measure: LimitMeasure, lam: float, k: int) -> float:
        raise NotImplementedError

    def scale(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class TerminalExceed(PathEvent):
    kind: ClassVar[str] = "terminal_exceed"
    c: float

    def __post_init__(self):
        if not 0.0 < self.c < inf:
            raise ValueError("threshold must be positive and finite")

    def decide(self, path: CadlagPath) -> bool:
        return terminal(path) > self.c

    def decide_batch(self, rep, t, size, n, cent, x_T):
        totals = np.bincount(rep, weights=size, minlength=n)
        return (totals - cent(1.0)) / x_T > self.c

    def decide_strata(self, rep, t, size, ends, n, cent, x_T):
        return (_prefix_sums(rep, size, ends, n) - cent(1.0)) / x_T > self.c

    def dk_separation(self, k: int) -> float | None:
        # a single limit jump must carry the whole excess; k >= 1 leaves
        # free coordinates and the order-k limit diverges
        return self.c / 2.0 if k == 0 else None

    def limit_mass(self, measure, lam, k):
        return mu_bar_tail(measure, lam, k, self.c)

    def scale(self) -> float:
        return max(self.c, 1e-6)


@dataclass(frozen=True)
class ValueAt(PathEvent):
    kind: ClassVar[str] = "value_at"
    s: float
    c: float

    def __post_init__(self):
        if not 0.0 <= self.s <= 1.0:
            raise ValueError("evaluation time must lie in [0, 1]")
        if not 0.0 < self.c < inf:
            raise ValueError("threshold must be positive and finite")

    def decide(self, path: CadlagPath) -> bool:
        return path_value(path, self.s) > self.c

    def decide_batch(self, rep, t, size, n, cent, x_T):
        mask = t <= self.s
        vals = np.bincount(rep[mask], weights=size[mask], minlength=n)
        return (vals - cent(self.s)) / x_T > self.c

    def decide_strata(self, rep, t, size, ends, n, cent, x_T):
        mask = t <= self.s
        kept = np.concatenate(([0], np.cumsum(mask)))[ends]  # masked jumps in each prefix
        return (_prefix_sums(rep[mask], size[mask], kept, n) - cent(self.s)) / x_T > self.c

    def dk_separation(self, k: int) -> float | None:
        return self.c / 2.0 if k == 0 else None

    def limit_mass(self, measure, lam, k):
        pref = order_prefactor(lam, k)
        if k == 0:  # one limit jump needs no truncation: s times the terminal mass
            return pref * (self.s * mu_tail(measure, self.c))
        M0 = measure.total_mass
        total = 0.0  # j = 0 jumps before s: the value there is 0 < c
        for j, (mass, _) in enumerate(_excess_mass(measure, range(1, k + 2), self.c), start=1):
            w = comb(k + 1, j) * self.s**j * (1.0 - self.s) ** (k + 1 - j)
            total += w * mass * M0 ** (k + 1 - j)
        return pref * total

    def scale(self) -> float:
        return max(self.c, 1e-6)


@dataclass(frozen=True)
class SupExceed(PathEvent):
    kind: ClassVar[str] = "sup_exceed"
    c: float

    def __post_init__(self):
        if not 0.0 <= self.c < inf:
            raise ValueError("threshold must be nonnegative and finite")

    def decide(self, path: CadlagPath) -> bool:
        return path_sup(path) > self.c

    def decide_batch(self, rep, t, size, n, cent, x_T):
        """Bin bounds settle most replications without a sort; the rest go
        through ``_sup_sorted`` on their own jumps.  Signed sizes, t outside
        [0, 1] or NaN, and fewer than SUP_BINS jumps a replication go
        through it whole.

        Every decision is the one ``_sup_sorted`` makes on the whole chunk:
        a settled one by the margin of the bounds, an open one because each
        replication's running sum starts from zero whatever else the chunk
        holds."""
        # sparser input sorts faster (1024 replications of 16 jumps: 2.4 ms
        # sorted, 6.8 ms binned; of 128 jumps: 17 and 7 ms), and its n x
        # SUP_BINS table would outgrow the jump arrays
        dense = rep.size and rep.size >= n * SUP_BINS
        if not (dense and size.min() >= 0.0 and t.min() >= 0.0 and t.max() <= 1.0):
            return _sup_sorted(rep, t, size, n, cent, x_T) > self.c
        hit, open_ = _sup_bin_bounds(rep, t, size, n, cent, x_T, self.c)
        if open_.any():
            sub = open_[rep]
            new_id = np.cumsum(open_) - 1
            sup = _sup_sorted(new_id[rep[sub]], t[sub], size[sub], int(new_id[-1]) + 1, cent, x_T)
            hit[open_] = sup > self.c
        return hit

    def dk_separation(self, k: int) -> float | None:
        return self.c / 2.0 if k == 0 and self.c > 0 else None

    def limit_mass(self, measure, lam, k):
        # nonnegative jumps: the running sum peaks at the terminal value
        return mu_bar_tail(measure, lam, k, self.c)

    def scale(self) -> float:
        return max(self.c, 1e-6)


@dataclass(frozen=True)
class JumpCount(PathEvent):
    kind: ClassVar[str] = "jump_count"
    m: int
    r: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("jump count must be >= 1")
        if not 0.0 < self.r < inf:
            raise ValueError("jump threshold must be positive and finite")

    def decide(self, path: CadlagPath) -> bool:
        return kth_largest_jump(path, self.m) > self.r

    def decide_batch(self, rep, t, size, n, cent, x_T):
        rep, t, size = _merge_by_time(rep, t, size)
        big = np.abs(size) / x_T > self.r
        return np.bincount(rep[big], minlength=n) >= self.m

    def dk_separation(self, k: int) -> float | None:
        # needs all k+1 limit jumps pinned: at least k+1 jumps above r
        return self.r / 2.0 if self.m >= k + 1 else None

    def limit_mass(self, measure, lam, k):
        pref = order_prefactor(lam, k)
        if self.m > k + 1:
            return 0.0
        if self.m == k + 1:
            # every limit jump is pinned above r: exact, no truncation needed
            return _tail_mass(measure, self.r, pref, k + 1)
        # unpinned coordinates would carry infinite mass; use the y0 truncation
        M0 = measure.total_mass
        [(a, _)] = _excess_mass(measure, [1], self.r)
        b = M0 - a
        return pref * sum(comb(k + 1, j) * a**j * b ** (k + 1 - j) for j in range(self.m, k + 2))

    def scale(self) -> float:
        return self.r


@dataclass(frozen=True)
class DkProxy(PathEvent):
    """Conservative event proxy: the (k+1)-th largest jump exceeds 2r."""

    kind: ClassVar[str] = "dk_proxy"
    k: int
    r: float

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("order must be >= 0")
        if not 0.0 < self.r < inf:
            raise ValueError("radius must be positive and finite")

    @property
    def jump_count(self) -> JumpCount:
        return JumpCount(self.k + 1, 2.0 * self.r)

    def decide(self, path: CadlagPath) -> bool:
        return self.jump_count.decide(path)

    def decide_batch(self, rep, t, size, n, cent, x_T):
        return self.jump_count.decide_batch(rep, t, size, n, cent, x_T)

    def dk_separation(self, k: int) -> float | None:
        return self.r if self.k >= k else None

    def limit_mass(self, measure, lam, k):
        return self.jump_count.limit_mass(measure, lam, k)

    def scale(self) -> float:
        return self.jump_count.scale()


def rep_time_order(rep: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Stable order of jumps by replication, then time: the permutation of
    ``np.lexsort((t, rep))``.  It serves the ``jump_count``/``dk_proxy``
    merge of equal times, the anatomy summary, and the ``sup_exceed``
    replications that the time bins leave open.

    With t in [0, 1], replication r owns the interval [2r, 2r + 1], and
    float rounding is monotone, so the one float64 key 2r + t never orders
    two jumps against (replication, time).  When all keys are distinct, one
    argsort of that key is therefore the lexsort order exactly; equal keys
    (shared jump times, or replication indices so large that t is rounded
    away), t outside [0, 1] or NaN, and empty input fall back to lexsort.
    Input already in that order with distinct keys is recognised in one pass
    and not sorted again."""
    if rep.size and t.min() >= 0.0 and t.max() <= 1.0:
        key = rep.astype(np.float64)
        key *= 2.0
        key += t
        if np.all(key[1:] > key[:-1]):
            return np.arange(key.size)
        order = np.argsort(key)
        key = key[order]
        if not np.any(key[1:] == key[:-1]):
            return order
    return np.lexsort((t, rep))


def _prefix_sums(rep, size, ends, n) -> np.ndarray:
    """(n, len(ends)) per-replication sums of ``size`` over each prefix
    ``[:ends[i]]``: one running sum, each jump added in array order, which
    is the order ``np.bincount`` on the prefix adds it, so every column is
    that bincount bit for bit."""
    out = np.empty((n, len(ends)))
    out[:, 0] = np.bincount(rep[: ends[0]], weights=size[: ends[0]], minlength=n)
    acc = out[:, 0].copy()  # float even where an empty bincount is an integer array
    for i in range(1, len(ends)):
        np.add.at(acc, rep[ends[i - 1] : ends[i]], size[ends[i - 1] : ends[i]])
        out[:, i] = acc
    return out


def _sup_bin_bounds(rep, t, size, n, cent, x_T, c):
    """(hit, open): the ``sup > c`` decisions that SUP_BINS time bins settle,
    and the replications they leave open.  Needs sizes >= 0, t in [0, 1].

    With nonnegative sizes the running sum after any jump in bin i is at most
    P_i, the replication's total up to the end of the bin, and the bin's last
    jump brings it to P_i.  With the centering's range [lo_i, hi_i] on the
    bin, every path value in bin i is at most (P_i - lo_i)/x_T, and a nonempty
    bin has one at least (P_i - hi_i)/x_T.  A bound settles the replication
    only when it clears c by ``tol``.  With u = eps/2 and s = (sum of sizes
    + max |centering|)/x_T, ``_sup_sorted`` errs by at most (N + 16) u s,
    since it sums each replication's at most N jumps from zero and summing
    m nonnegative terms errs by at most m u times their sum; the bound errs
    by at most (N + B + 16) u s; tol = 8 (N + B) u s covers both.
    Non-finite sizes leave every replication open."""
    B = SUP_BINS
    key = (t * B).astype(np.int64)
    np.minimum(key, B - 1, out=key)  # t = 1 closes the last bin
    key += rep * B
    sums = np.bincount(key, weights=size, minlength=n * B).reshape(n, B)
    P = np.cumsum(sums, axis=1)
    lo, hi = cent.bin_range(B)
    upper = (P - lo).max(axis=1) / x_T
    # a positive bin sum proves a jump in the bin
    lower = np.where(sums > 0.0, P - hi, -np.inf).max(axis=1) / x_T
    scale = (size.sum() + np.abs(cent.v).max()) / x_T
    tol = 4.0 * (rep.size + B) * np.finfo(float).eps * scale
    hit = lower > c + tol
    return hit, ~hit & ~(upper <= c - tol)


def _sup_sorted(rep, t, size, n, cent, x_T) -> np.ndarray:
    """Per replication, the max of 0 and the centered scaled running sum
    after each of its jumps in (replication, time) order: one sort, each
    replication's cumsum from zero, and a segmented max.  The replications
    with m jumps are summed together as the rows of one (count, m) table."""
    sup = np.zeros(n)  # the path starts at zero
    if rep.size:
        order = rep_time_order(rep, t)
        r, ts, sz = rep[order], t[order], size[order]
        starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
        lens = np.diff(np.r_[starts, r.size])
        cum = np.empty(r.size)
        for m in np.unique(lens).tolist():
            rows = starts[lens == m][:, None] + np.arange(m)
            cum[rows] = np.cumsum(sz[rows], axis=1)
        vals = (cum - cent(ts)) / x_T
        seg_max = np.maximum.reduceat(vals, starts)
        np.maximum.at(sup, r[starts], seg_max)
    return sup


def _merge_by_time(rep: np.ndarray, t: np.ndarray, size: np.ndarray):
    """Sum jump sizes at identical (rep, time) pairs (ties occur with
    deterministic laws; continuous laws never produce them)."""
    if rep.size == 0:
        return rep, t, size
    order = rep_time_order(rep, t)
    rep, t, size = rep[order], t[order], size[order]
    new = np.empty(rep.size, dtype=bool)
    new[0] = True
    new[1:] = (rep[1:] != rep[:-1]) | (t[1:] != t[:-1])
    idx = np.cumsum(new) - 1
    return rep[new], t[new], np.bincount(idx, weights=size)


def parse_event(text: str) -> PathEvent:
    """Parse ``kind:arg[,arg]`` event descriptions."""
    kinds = {cls.kind: cls for cls in PathEvent.__subclasses__()}
    kind, _, rest = text.strip().partition(":")
    if kind not in kinds:
        raise ValueError(f"unknown event kind {kind!r}; choices: {sorted(kinds)}")
    params = fields(kinds[kind])
    if "_" in rest:  # Python's number syntax takes digit separators; events do not
        raise ValueError(f"event {kind!r}: parameters take no '_', got {rest!r}")
    parts = [p for p in rest.split(",") if p != ""]
    if len(parts) != len(params):
        raise ValueError(f"event {kind!r} takes {len(params)} parameters, got {len(parts)}")
    values = []
    for f, raw in zip(params, parts):
        integer = f.type == "int"  # annotations are strings here (postponed evaluation)
        try:
            if not raw.isascii():  # nor the non-ASCII digits that int and float take
                raise ValueError(raw)
            values.append(int(raw) if integer else float(raw))
        except ValueError:
            what = "an integer" if integer else "a number"
            raise ValueError(f"event {kind!r}: parameter {f.name!r} is not {what} ({raw!r})") from None
    return kinds[kind](*values)


def format_event(event: PathEvent) -> str:
    vals = (getattr(event, f.name) for f in fields(event))
    return f"{event.kind}:" + ",".join(repr(v) if isinstance(v, float) else str(v) for v in vals)
