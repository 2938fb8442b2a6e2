"""Exact M1 distance between piecewise-linear cadlag paths.

The distance is the infimum over monotone parametric representations of the
completed graphs of the max of temporal and spatial sup-discrepancies.  For
polyline graphs this equals the monotone (Frechet-type) matching distance
under the ground metric max(|dt|, |dz|), computed here by the free-space
method of Alt & Godau (1995) for the decision "distance <= eps", wrapped in
bisection down to a caller tolerance; see Whitt (2002), *Stochastic-Process
Limits*, for M1.

A decision fills the free interval of every cell edge at once (elementwise
work in the number of cells, #segments of one graph x #segments of the
other) and then sweeps the free space one anti-diagonal at a time with a
few array operations each.  The sweep has a floor of about 12 us per
anti-diagonal however few cells it holds: about 13 ms over the 1,080
anti-diagonals of graphs of 561 and 521 vertices.  The free space grows with
eps, so a decision below a "yes" can only reach cells that "yes" entered;
after each "yes" the bisection cuts the space to the rows those cells span
on each anti-diagonal (the corridor).

A bracket starts from [endpoint gap, uniform distance] and first decides at
its lower bound on the full space: a "yes" there settles the pair before
any corridor is built.  Otherwise it decides once at the discrete Frechet
distance of the two vertex sequences (Eiter & Mannila 1994), an upper bound
computed by a coupling DP in about 16 ms at 561 x 521 vertices, before the
space is built so that its table is freed first.  The smallest eps that has
answered "yes" settles every eps at or above it without a sweep.  That
changes no answer: every free-interval end is a monotone function of eps
under IEEE rounding, and the sweep only takes min, max and compares, so
the decision is monotone in eps.  The bisection keeps its start and its
midpoints, so every bracket is bit-identical to the bisection's without the
bound.  On two nearby centered paths of 561 and 521 vertices, whose uniform
distance is about 1 and M1 distance about 0.01, a bracket at tol 1e-9
makes 13-29 decisions in place of 32 and takes a median 0.31 s in place of
0.41 s.  The corridor after the bound's "yes" holds about 2,200 cells, and
each decision in it costs 7-10 ms, nearly all of it the per-anti-diagonal
floor.  The bisection adds a log(initial bracket / tol) factor.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .paths import CadlagPath, _common_nodes

__all__ = [
    "completed_graph",
    "m1_distance",
    "uniform_distance",
]


def completed_graph(path: CadlagPath) -> np.ndarray:
    """Polyline vertices of the graph with jumps filled by vertical segments:
    each node's (t, left), then its (t, right) where the path jumps there."""
    t, left, right = (np.asarray(a, dtype=float) for a in (path.t, path.left, path.right))
    verts = np.stack((t, left, t, right), axis=1).reshape(-1, 2)
    return verts[np.stack((np.ones(t.size, dtype=bool), right != left), axis=1).ravel()]


def _cheb(p, q) -> float:
    return float(max(abs(p[0] - q[0]), abs(p[1] - q[1])))


_CHUNK = 1 << 15  # edges per step of a fill, which bounds its scratch


class _FreeSpace:
    """Eps-independent geometry of the free space of two polylines, gathered
    once per pair (and again per corridor), and the buffers each decision
    fills.  Cell (i, j) pairs segment i of g1 with segment j of g2; its right
    edge is vertex i+1 of g1 against segment j of g2, its top edge vertex j+1
    of g2 against segment i of g1.  ``rows``: the rows [first[k], stop[k])
    kept on each anti-diagonal k = i + j, by default all of them; cells
    outside are treated as unreachable.  Edge columns: right edges, top
    edges (each by anti-diagonal, then by i), the left boundary (g1[0]
    against g2), the bottom boundary (g2[0] against g1).  ``entries``: the
    left entries of rows 0..n, then the bottom entries of rows 0..n.
    ``diagonals``: for every diagonal but the last, the two entries to reset
    after it and views of its entries, those swapped, its exits, its right
    and top intervals and its gates (the bound the entries put on each
    exit, inf on the cells the decision did not enter).  The bottom entry of row n,
    which no cell reads, absorbs the resets a diagonal does not need."""

    def __init__(self, g1: np.ndarray, g2: np.ndarray, rows: tuple[np.ndarray, np.ndarray] | None = None):
        self.n, self.m = n, m = len(g1) - 1, len(g2) - 1
        diag = np.arange(n + m - 1)
        if rows is None:
            rows = np.maximum(diag - (m - 1), 0), np.minimum(diag, n - 1) + 1
        self.first, stop = rows
        sizes = stop - self.first
        self.offsets = offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.cells = c = int(offsets[-1])
        i = np.arange(c) - np.repeat(offsets[:-1] - self.first, sizes)
        j = np.repeat(diag, sizes) - i
        # per coordinate, the point, segment start and segment step of each edge
        g1, g2 = np.ascontiguousarray(g1.T), np.ascontiguousarray(g2.T)
        d1, d2 = np.diff(g1), np.diff(g2)
        self.points, self.starts, self.steps = geometry = np.empty((3, 2, 2 * c + m + n))
        columns = ((g1, i + 1), (g2, j + 1)), ((g2, j), (g1, i)), ((d2, j), (d1, i))
        for array, sources in zip(geometry, columns):
            for r in (0, 1):
                for half, (source, at) in enumerate(sources):
                    np.take(source[r], at, out=array[r, half * c : (half + 1) * c], mode="clip")
        self.points[:, 2 * c :] = np.repeat([g1[:, 0], g2[:, 0]], [m, n], axis=0).T
        self.starts[:, 2 * c :] = np.concatenate([g2[:, :-1], g1[:, :-1]], axis=1)
        self.steps[:, 2 * c :] = np.concatenate([d2, d1], axis=1)
        # (coordinate, edge) entries of zero step, whose step is stored as 1
        self.zero = self.steps == 0.0
        flat = np.flatnonzero(self.zero)
        self.near = np.abs(self.starts.ravel()[flat] - self.points.ravel()[flat])
        self.flat_edge = flat % self.steps.shape[1]
        self.steps[self.zero] = 1.0
        width = min(self.steps.shape[1], _CHUNK)
        self.shift, self.s, self.lo_c = np.empty((2, 1, 1)), np.empty((2, 2, width)), np.empty((2, width))
        self.lo, self.hi = lo, hi = np.empty((2, self.steps.shape[1]))
        self.entries = np.empty(2 * n + 2)
        self.gates = np.empty((2, c))
        # a cell's entries (left, bottom); its exits are the left entry one
        # row up and the bottom entry of its own row
        pairs = self.entries.reshape(2, n + 1)
        step = self.entries.strides[0]
        exits = as_strided(self.entries[1:], (2, n + 1), (n * step, step))
        lo_2, hi_2, gates = lo[: 2 * c].reshape(2, c), hi[: 2 * c].reshape(2, c), self.gates
        spans = zip(self.first.tolist(), stop.tolist(), offsets.tolist(), offsets[1:-1].tolist())
        self.diagonals = [
            (a if a else -1, n + 1 + b if b <= k else -1, pairs[:, a:b], pairs[::-1, a:b], exits[:, a:b],
             lo_2[:, s:e], hi_2[:, s:e], gates[:, s:e])
            for k, (a, b, s, e) in enumerate(spans)
        ]
        self.boundaries = (lo[2 * c : 2 * c + m], hi[2 * c : 2 * c + m]), (lo[2 * c + m :], hi[2 * c + m :])

    def fill(self, eps: float) -> list[int]:
        """Free interval [lo, hi] of s in [0, 1] on each segment starts +
        s * steps within eps of its point (max norm), lo inf where empty; and
        how many leading left and bottom boundary edges the origin reaches
        (each free at its start, every edge before it free throughout)."""
        lo, hi = self.lo, self.hi
        self.shift[:, 0, 0] = eps, -eps  # (points -/+ eps - starts) / steps
        for at in range(0, lo.size, _CHUNK):
            part = slice(at, at + _CHUNK)
            lo_p, hi_p = lo[part], hi[part]
            s, lo_c = self.s[:, :, : lo_p.size], self.lo_c[:, : lo_p.size]
            np.subtract(self.points[:, part], self.shift, out=s)
            s -= self.starts[:, part]
            s /= self.steps[:, part]
            np.minimum(s[0], s[1], out=lo_c)
            hi_c = np.maximum(s[0], s[1], out=s[1])
            # a zero step leaves its coordinate free, or blocks the whole edge
            np.copyto(lo_c, -np.inf, where=self.zero[:, part])
            np.copyto(hi_c, np.inf, where=self.zero[:, part])
            np.maximum(np.maximum(lo_c[0], lo_c[1], out=lo_p), 0.0, out=lo_p)
            np.minimum(np.minimum(hi_c[0], hi_c[1], out=hi_p), 1.0, out=hi_p)
            np.copyto(lo_p, np.inf, where=lo_p > hi_p)
        lo[self.flat_edge[self.near > eps]] = np.inf
        reach = []
        for b_lo, b_hi in self.boundaries:
            free = b_lo <= 0.0
            full = free & (b_hi >= 1.0)
            f = int(full.argmin())
            reach.append(full.size if full[f] else f + int(free[f]))
        return reach

    def entered_rows(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Rows [first, stop) spanning the cells the last decision entered on
        each anti-diagonal, or None when they are not fewer cells than the
        space has.  Call only after a decision that reached the far corner:
        it entered a cell on every anti-diagonal."""
        if self.cells == 1:
            return None  # one anti-diagonal: nothing to cut
        at = np.flatnonzero(self.gates[0, : self.offsets[-2]] < np.inf)
        k = np.searchsorted(self.offsets, at, side="right") - 1
        row = at - self.offsets[k] + self.first[k]
        new = np.flatnonzero(np.diff(k)) + 1
        first = np.concatenate(([row[0]], row[new], [self.n - 1]))
        stop = np.concatenate((row[new - 1], [row[-1], self.n - 1])) + 1
        if (stop - first).sum() >= self.cells:
            return None
        return first, stop


def _free_space_reachable(g1: np.ndarray, g2: np.ndarray, eps: float, space: _FreeSpace | None = None) -> bool:
    """Monotone matching of the two polylines within eps (decision form).

    The free space within a cell is convex, so reachability propagates
    through the cell edges: a reached edge keeps the upper end of its free
    interval and is stored by its lower end, inf when unreached.  Cell (i, j)
    is entered from (i-1, j) and (i, j-1), on the previous anti-diagonal.
    The final corner is reachable iff it is free and the last cell can be
    entered (convexity closes the gap).  ``space``: the pair's _FreeSpace,
    possibly cut to a corridor; its gates record the cells entered.
    """
    if _cheb(g1[0], g2[0]) > eps or _cheb(g1[-1], g2[-1]) > eps:
        return False
    if len(g1) == 1 or len(g2) == 1:
        pts, other = (g1, g2) if len(g1) == 1 else (g2, g1)
        return bool(np.abs(other - pts[0]).max() <= eps)
    space = _FreeSpace(g1, g2) if space is None else space
    left_reach, bottom_reach = space.fill(eps)
    n, m, entries = space.n, space.m, space.entries
    left, bottom = entries.reshape(2, n + 1)
    entries.fill(np.inf)
    bottom[:bottom_reach] = left[: min(left_reach, 1)] = 0.0
    with np.errstate(invalid="ignore"):
        for k, (reset_l, reset_b, into, swapped, out, lo, hi, gate) in enumerate(space.diagonals):
            if k == left_reach:
                left[0] = np.inf
            if k % 32 == 31 and bottom_reach <= k and into.min() == np.inf:
                return False  # the front died and no boundary entry is left
            # entered from below, the right exit may use its whole free interval (from
            # the left, the top exit); x - x is 0 if x is reached, else nan, which fmin skips
            np.fmin(into, np.subtract(swapped, swapped, out=gate), out=gate)
            np.maximum(lo, gate, out=out)
            np.copyto(out, np.inf, where=out > hi)  # an exit above its free interval is not reached
            # the next diagonal may read the left entry below these exits and the bottom
            # entry above them: unreached, unless they are the boundary's
            entries[reset_l] = entries[reset_b] = np.inf
    left[0] = 0.0 if n + m - 2 < left_reach else np.inf
    return bool(left[n - 1] < np.inf or bottom[n - 1] < np.inf)


def uniform_distance(p1: CadlagPath, p2: CadlagPath) -> float:
    """sup_t |p1(t) - p2(t)|; both paths are linear between merged nodes.
    Paths with a value beyond a quarter of the largest float are refused."""
    if max(float(np.abs(v).max()) for p in (p1, p2) for v in (p.left, p.right)) > _VALUE_LIMIT:
        raise ValueError(f"path values must lie within +/-{_VALUE_LIMIT:.5g}, a quarter of the largest float")
    _, (l1, r1), (l2, r2) = _common_nodes(p1, p2)
    return float(max(np.abs(l1 - l2).max(), np.abs(r1 - r2).max()))


def _discrete_frechet(g1: np.ndarray, g2: np.ndarray) -> float:
    """Discrete Frechet distance of the two vertex sequences under the max
    norm (Eiter & Mannila 1994): the coupling DP D[i, j] = max(cost(i, j),
    min(D[i-1, j], D[i, j-1], D[i-1, j-1])), run one anti-diagonal at a
    time on strided views of one table padded by a row and a column of inf.
    Linear interpolation between coupled vertices is a monotone matching
    whose gap is convex on each step, so this bounds the M1 distance of the
    graphs from above."""
    n1, n2 = len(g1), len(g2)
    cols = n2 + 1
    table = np.full((n1 + 1, cols), np.inf)
    cost = table[1:, 1:]
    np.abs(np.subtract.outer(g1[:, 0], g2[:, 0], out=cost), out=cost)
    np.maximum(cost, np.abs(np.subtract.outer(g1[:, 1], g2[:, 1])), out=cost)
    table[0, 0] = -np.inf  # so that D[0, 0] is its own cost
    flat, step, low = table.ravel(), cols - 1, np.empty(min(n1, n2))
    for k in range(2, n1 + n2 + 1):  # padded rows r and columns k - r
        r0, r1 = max(1, k - n2), min(n1, k - 1)
        at = r0 * cols + k - r0
        end = at + (r1 - r0) * step + 1
        best = low[: r1 - r0 + 1]
        np.minimum(flat[at - cols : end - cols : step], flat[at - 1 : end - 1 : step], out=best)
        np.minimum(best, flat[at - cols - 1 : end - cols - 1 : step], out=best)
        np.maximum(flat[at:end:step], best, out=flat[at:end:step])
    return float(table[n1, n2])


# Largest |path value| accepted: every point +/- eps - start and every
# vertex gap then stays finite
_VALUE_LIMIT = np.finfo(float).max / 4


def m1_distance_bracket(p1: CadlagPath, p2: CadlagPath, tol: float = 1e-9) -> tuple[float, float]:
    """Bracket [lo, hi] with hi - lo <= tol containing the M1 distance.

    lo starts at the gap between the endpoints, a lower bound, and hi at
    the uniform distance, an upper bound.  The first decision, at lo on the
    full free space, settles a pair whose distance is that bound as
    [lo, lo].  Otherwise one decision at the discrete Frechet bound, when
    it lies inside the bracket, settles every eps at or above it, and the
    bisection runs from [lo, hi] as it would without the bound.  When tol
    is below the spacing of floats at the distance, the bisection stops at
    two adjacent floats, wider than tol.  Paths with a value beyond a
    quarter of the largest float are refused.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    g1, g2 = completed_graph(p1), completed_graph(p2)
    if g2.tobytes() < g1.tobytes():
        g1, g2 = g2, g1  # canonical order makes the result exactly symmetric
    hi = uniform_distance(p1, p2)  # M1 never exceeds it; taken first, as it refuses huge values
    lo = max(_cheb(g1[0], g2[0]), _cheb(g1[-1], g2[-1]))
    if hi < lo:
        hi = lo
    if hi - lo <= tol:
        return lo, hi
    bound = _discrete_frechet(g1, g2)  # before the space, so its table is freed first
    space = _FreeSpace(g1, g2)  # a path's graph has at least two vertices
    settled = np.inf  # the smallest eps decided "yes"

    def decide(eps: float) -> bool:
        nonlocal space, settled
        if eps >= settled:
            return True  # the decision is monotone in eps, rounding included
        if not _free_space_reachable(g1, g2, eps, space):
            return False
        settled = eps
        # a decision below eps can only reach cells this one entered; a
        # corridor keeping more than 7/8 of the cells saves less than its build
        rows = space.entered_rows()
        if rows is not None and 8 * int((rows[1] - rows[0]).sum()) <= 7 * space.cells:
            space = None  # free the wider space before the narrower one is built
            space = _FreeSpace(g1, g2, rows)
        return True

    # a pair whose distance is the endpoint gap settles before any corridor is
    # built; a "no" at lo is the same on the full space as in a corridor
    if _free_space_reachable(g1, g2, lo, space):
        return lo, lo
    if lo < bound < hi:
        decide(bound)
    # guard against boundary effects of the decision at exactly hi
    while not decide(hi):
        hi = max(hi * (1.0 + 1e-12), hi + 1e-15)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats
        if decide(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def m1_distance(p1: CadlagPath, p2: CadlagPath, tol: float = 1e-9) -> float:
    """M1 distance with guaranteed error <= tol/2 (bracket midpoint)."""
    lo, hi = m1_distance_bracket(p1, p2, tol)
    return 0.5 * (lo + hi)
