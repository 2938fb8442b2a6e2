"""Exact M1 distance between piecewise-linear cadlag paths.

The distance is the infimum over monotone parametric representations of the
completed graphs of the max of temporal and spatial sup-discrepancies.  For
polyline graphs this equals the monotone (Frechet-type) matching distance
under the ground metric max(|dt|, |dz|), computed here by the free-space
method of Alt & Godau (1995) for the decision "distance <= eps", wrapped in
bisection down to a caller tolerance; see Whitt (2002), *Stochastic-Process
Limits*, for M1.

Cost per decision is O(#segments of one graph x #segments of the other)
elementwise array work plus a few array operations per anti-diagonal of the
free space (about 30 ms for graphs of 561 and 521 vertices); the bisection
adds a log(initial bracket / tol) factor.
"""
from __future__ import annotations

import numpy as np

from .paths import CadlagPath, _left_right_at, build_jump_path

__all__ = [
    "completed_graph",
    "m1_distance",
    "uniform_distance",
    "kth_largest_jump",
    "dk_skeleton",
]


def completed_graph(path: CadlagPath) -> np.ndarray:
    """Polyline vertices of the graph with jumps filled by vertical segments."""
    verts = []
    for t, l, r in zip(path.t, path.left, path.right):
        if not verts or verts[-1] != (t, l):
            verts.append((float(t), float(l)))
        if r != l:
            verts.append((float(t), float(r)))
    return np.asarray(verts, dtype=float)


def _cheb(p, q) -> float:
    return float(max(abs(p[0] - q[0]), abs(p[1] - q[1])))


class _FreeSpace:
    """Eps-independent geometry of the free space of two polylines, gathered
    once per pair, and the buffers each decision fills.  Cell (i, j) pairs
    segment i of g1 with segment j of g2; its right edge is vertex i+1 of g1
    against segment j of g2, its top edge vertex j+1 of g2 against segment i
    of g1.  Edge columns: right edges, top edges (each by anti-diagonal
    i + j, then by i), the left boundary (g1[0] against g2), the bottom
    boundary (g2[0] against g1).  ``diagonals``: rows [a, b) and views of
    the right and top intervals of every diagonal but the last."""

    def __init__(self, g1: np.ndarray, g2: np.ndarray):
        self.n, self.m = n, m = len(g1) - 1, len(g2) - 1
        diag = np.arange(n + m - 1)
        first = np.maximum(diag - (m - 1), 0)
        sizes = np.minimum(diag, n - 1) - first + 1
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        i = np.arange(offsets[-1]) - np.repeat(offsets[:-1] - first, sizes)
        j = np.repeat(diag, sizes) - i
        d1, d2 = np.diff(g1, axis=0), np.diff(g2, axis=0)
        origins = np.broadcast_to(g1[0], (m, 2)), np.broadcast_to(g2[0], (n, 2))
        self.points = np.concatenate([g1[i + 1], g2[j + 1], *origins]).T.copy()
        self.starts = np.concatenate([g2[j], g1[i], g2[:-1], g1[:-1]]).T.copy()
        self.steps = np.concatenate([d2[j], d1[i], d2, d1]).T.copy()
        # (coordinate, edge) entries of zero step, whose step is stored as 1
        self.flat = np.flatnonzero(self.steps == 0.0)
        self.near = np.abs(self.starts - self.points).ravel()[self.flat]
        self.flat_edge = self.flat % self.steps.shape[1]
        self.steps.ravel()[self.flat] = 1.0
        self.shift, self.s = np.empty((2, 1, 1)), np.empty((2, *self.points.shape))
        self.lo_c = np.empty_like(self.points)
        self.lo, self.hi = lo, hi = np.empty((2, self.steps.shape[1]))
        c = offsets[-1]
        views = lo[:c], hi[:c], lo[c : 2 * c], hi[c : 2 * c]
        spans = zip(first.tolist(), sizes.tolist(), offsets.tolist())
        self.diagonals = [(a, a + size, *(v[s : s + size] for v in views)) for a, size, s in spans][:-1]
        self.boundaries = (lo[2 * c : 2 * c + m], hi[2 * c : 2 * c + m]), (lo[2 * c + m :], hi[2 * c + m :])

    def fill(self, eps: float) -> list[int]:
        """Free interval [lo, hi] of s in [0, 1] on each segment starts +
        s * steps within eps of its point (max norm), lo inf where empty; and
        how many leading left and bottom boundary edges the origin reaches
        (each free at its start, every edge before it free throughout)."""
        s, lo_c, lo, hi = self.s, self.lo_c, self.lo, self.hi
        self.shift[:, 0, 0] = eps, -eps  # (points -/+ eps - starts) / steps
        np.subtract(self.points, self.shift, out=s)
        s -= self.starts
        s /= self.steps
        np.minimum(s[0], s[1], out=lo_c)
        hi_c = np.maximum(s[0], s[1], out=s[1])
        # a zero step leaves its coordinate free, or blocks the whole edge
        np.put(lo_c, self.flat, -np.inf)
        np.put(hi_c, self.flat, np.inf)
        np.maximum(np.maximum(lo_c[0], lo_c[1], out=lo), 0.0, out=lo)
        np.minimum(np.minimum(hi_c[0], hi_c[1], out=hi), 1.0, out=hi)
        lo[lo > hi] = np.inf
        lo[self.flat_edge[self.near > eps]] = np.inf
        reach = []
        for b_lo, b_hi in self.boundaries:
            free = b_lo <= 0.0
            full = free & (b_hi >= 1.0)
            f = int(full.argmin())
            reach.append(full.size if full[f] else f + int(free[f]))
        return reach


def _free_space_reachable(g1: np.ndarray, g2: np.ndarray, eps: float, space: _FreeSpace | None = None) -> bool:
    """Monotone matching of the two polylines within eps (decision form).

    The free space within a cell is convex, so reachability propagates
    through the cell edges: a reached edge keeps the upper end of its free
    interval and is stored by its lower end, inf when unreached.  Cell (i, j)
    is entered from (i-1, j) and (i, j-1), on the previous anti-diagonal.
    The final corner is reachable iff it is free and the last cell can be
    entered (convexity closes the gap).  ``space``: the pair's _FreeSpace.
    """
    if _cheb(g1[0], g2[0]) > eps or _cheb(g1[-1], g2[-1]) > eps:
        return False
    if len(g1) == 1 or len(g2) == 1:
        pts, other = (g1, g2) if len(g1) == 1 else (g2, g1)
        return bool(np.abs(other - pts[0]).max() <= eps)
    space = _FreeSpace(g1, g2) if space is None else space
    left_reach, bottom_reach = space.fill(eps)
    n, m = space.n, space.m
    # entries of the cell in row i on the current diagonal; a right exit moves up a row
    left, bottom = np.full((2, n + 1), np.inf)
    bottom[:bottom_reach] = left[: min(left_reach, 1)] = 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        for k, (a, b, r_lo, r_hi, t_lo, t_hi) in enumerate(space.diagonals):
            if k == left_reach:
                left[0] = np.inf
            if k % 32 == 31 and not ((left[a:n] < np.inf).any() or (bottom[a:n] < np.inf).any()):
                return False  # the front died and no boundary entry is left
            lft, bot = left[a:b], bottom[a:b]
            # entered from below, the right exit may use its whole free interval (from
            # the left, the top exit); x - x is 0 if x is reached, else nan, which fmin skips
            gate_r, gate_t = np.fmin(lft, bot - bot), np.fmin(bot, lft - lft)
            right = np.maximum(r_lo, gate_r, out=left[a + 1 : b + 1])
            top = np.maximum(t_lo, gate_t, out=bot)
            # an exit above its free interval is not reached: x / 0 is inf
            right /= right <= r_hi
            top /= top <= t_hi
    left[0] = 0.0 if n + m - 2 < left_reach else np.inf
    return bool(left[n - 1] < np.inf or bottom[n - 1] < np.inf)


def kth_largest_jump(path: CadlagPath, k: int) -> float:
    """k-th largest |jump| over the nodes; 0 when fewer than k jumps exist."""
    if k < 1:
        raise ValueError("k must be >= 1")
    sizes = np.abs(path.jump_sizes())
    sizes = sizes[sizes > 0.0]
    if sizes.size < k:
        return 0.0
    return float(np.partition(sizes, sizes.size - k)[sizes.size - k])


def dk_skeleton(path: CadlagPath, k: int) -> CadlagPath:
    """Pure-jump path keeping the min(k+1, count) largest jumps in place."""
    if k < 0:
        raise ValueError("k must be >= 0")
    sizes = path.jump_sizes()
    mask = sizes != 0.0
    t = path.t[mask]
    s = sizes[mask]
    if t.size > k + 1:
        order = np.lexsort((t, -np.abs(s)))[: k + 1]  # ties keep the earlier time
        t, s = t[order], s[order]
    return build_jump_path(t, s)


def uniform_distance(p1: CadlagPath, p2: CadlagPath) -> float:
    """sup_t |p1(t) - p2(t)|; both paths are linear between merged nodes."""
    ts = np.union1d(p1.t, p2.t)
    l1, r1 = _left_right_at(p1, ts)
    l2, r2 = _left_right_at(p2, ts)
    return float(max(np.abs(l1 - l2).max(), np.abs(r1 - r2).max()))


def m1_distance_bracket(p1: CadlagPath, p2: CadlagPath, tol: float = 1e-9) -> tuple[float, float]:
    """Bracket [lo, hi] with hi - lo <= tol containing the M1 distance."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    g1, g2 = completed_graph(p1), completed_graph(p2)
    if g2.tobytes() < g1.tobytes():
        g1, g2 = g2, g1  # canonical order makes the result exactly symmetric
    lo = max(_cheb(g1[0], g2[0]), _cheb(g1[-1], g2[-1]))
    hi = uniform_distance(p1, p2)  # the M1 infimum never exceeds the uniform metric
    if hi < lo:
        hi = lo
    if hi - lo <= tol:
        return lo, hi
    space = _FreeSpace(g1, g2)  # a path's graph has at least two vertices
    # guard against boundary effects of the decision at exactly hi
    while not _free_space_reachable(g1, g2, hi, space):
        hi = max(hi * (1.0 + 1e-12), hi + 1e-15)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _free_space_reachable(g1, g2, mid, space):
            hi = mid
        else:
            lo = mid
    return lo, hi


def m1_distance(p1: CadlagPath, p2: CadlagPath, tol: float = 1e-9) -> float:
    """M1 distance with guaranteed error <= tol/2 (bracket midpoint)."""
    lo, hi = m1_distance_bracket(p1, p2, tol)
    return 0.5 * (lo + hi)
