"""Declarative rare-event menu on scaled paths.

Each event kind is one frozen dataclass that defines everything about it:
its name ``kind`` (its finite parameters are the dataclass fields); its
decision on one centered scaled path in one node scan (``decide``) and on n
replications given as flat (replication, time, unscaled size) jump arrays,
centered by ``cent(times)`` and scaled by 1/x_T (``decide_batch``); the
positive radius by which it stays away from the cone of paths with at most
k jumps, or None when its order-k limit diverges and the ratio harness
refuses it (``dk_separation``); its mass under the (k+1)-jump limit measure
(``limit_mass``); and the cluster mass, in x_T units, at which it becomes
likely (``scale``).  ``DkProxy`` answers all but its separation as the
``JumpCount`` event it stands for.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from math import comb, factorial, inf
from typing import ClassVar

import numpy as np

from .m1 import kth_largest_jump
from .measures import LimitMeasure, _excess_mass, mu_bar_tail
from .paths import CadlagPath, path_sup, path_value, terminal

__all__ = [
    "PathEvent",
    "TerminalExceed",
    "ValueAt",
    "SupExceed",
    "JumpCount",
    "DkProxy",
    "parse_event",
    "format_event",
]


@dataclass(frozen=True)
class PathEvent:
    kind: ClassVar[str]

    def decide(self, path: CadlagPath) -> bool:
        raise NotImplementedError

    def decide_batch(self, rep, t, size, n: int, cent, x_T: float) -> np.ndarray:
        raise NotImplementedError

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

    def dk_separation(self, k: int) -> float | None:
        return self.c / 2.0 if k == 0 else None

    def limit_mass(self, measure, lam, k):
        M0 = measure.total_mass
        pref = lam ** (k + 1) / factorial(k + 1)
        total = 0.0
        for j in range(0, k + 2):
            w = comb(k + 1, j) * self.s**j * (1.0 - self.s) ** (k + 1 - j)
            total += w * float(_excess_mass(measure, j, np.array([self.c]))[0]) * M0 ** (k + 1 - j)
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
        sup = np.zeros(n)  # the path starts at zero
        if rep.size:
            order = np.lexsort((t, rep))
            r, ts, sz = rep[order], t[order], size[order]
            cum = np.cumsum(sz)
            starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
            cum = cum - np.repeat(np.r_[0.0, cum[starts[1:] - 1]], np.diff(np.r_[starts, r.size]))
            vals = (cum - cent(ts)) / x_T
            seg_max = np.maximum.reduceat(vals, starts)
            np.maximum.at(sup, r[starts], seg_max)
        return sup > self.c

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
        pref = lam ** (k + 1) / factorial(k + 1)
        if self.m > k + 1:
            return 0.0
        if self.m == k + 1:
            # every limit jump is pinned above r: exact, no truncation needed
            a = measure.constant * self.r ** (-measure.alpha)
            return pref * a ** (k + 1)
        # unpinned coordinates would carry infinite mass; use the y0 truncation
        M0 = measure.total_mass
        a = float(_excess_mass(measure, 1, np.array([self.r]))[0])
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


def _merge_by_time(rep: np.ndarray, t: np.ndarray, size: np.ndarray):
    """Sum jump sizes at identical (rep, time) pairs (ties occur with
    deterministic laws; continuous laws never produce them)."""
    if rep.size == 0:
        return rep, t, size
    order = np.lexsort((t, rep))
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
    parts = [p for p in rest.split(",") if p != ""]
    if len(parts) != len(params):
        raise ValueError(f"event {kind!r} takes {len(params)} parameters, got {len(parts)}")
    # annotations are strings here (postponed evaluation)
    return kinds[kind](*(int(raw) if f.type == "int" else float(raw) for f, raw in zip(params, parts)))


def format_event(event: PathEvent) -> str:
    vals = (getattr(event, f.name) for f in fields(event))
    return f"{event.kind}:" + ",".join(repr(v) if isinstance(v, float) else str(v) for v in vals)
