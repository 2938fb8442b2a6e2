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
other) and then sweeps the free space one anti-diagonal at a time with
five array operations each.  Those cost about 6 us per anti-diagonal
however few cells it holds, about 6.5 ms over the 1,080 anti-diagonals of
graphs of 561 and 521 vertices, so one sweep decides several eps at once,
along the trailing axis of its buffers.  The free space grows with eps, so
a decision below a "yes" can only reach cells that "yes" entered; after a
sweep with a "yes" the bisection cuts the space to the rows the smallest
"yes" entered on each anti-diagonal (the corridor).

A bracket starts from [endpoint gap, uniform distance] and first decides
at the discrete Frechet distance of the two vertex sequences (Eiter &
Mannila 1994) when it lies inside: an upper bound computed by a coupling DP
in about 16 ms at 561 x 521 vertices, before the space is built so that its
table is freed first.  That decision runs on the cells whose two segments
come within the bound in time (the time band), as no other cell holds a
free point at or below it.  When the bound is not inside the bracket, or
answers "no", the lower bound is decided next on the full space, and a
"yes" there settles the pair; otherwise the lower bound goes into the
first corridor sweep.  The smallest eps that has answered "yes" settles
every eps at or above it without a sweep.  That changes no answer: every
free-interval end is a monotone function of eps under IEEE rounding, and
the sweep only takes min, max and compares, so the decision is monotone in
eps.  Each sweep decides the midpoints below that eps of the next d levels
of the bisection, 2^d - 1 of them, where d grows as the corridor holds fewer
cells per anti-diagonal; the bisection then takes its steps through those
levels.  It keeps its start and its midpoints, so every bracket is
bit-identical to that of a plain bisection with one decision per step.  On
two nearby centered paths of 561 and 521 vertices, whose uniform distance
is about 1 and M1 distance about 0.01 (12 pairs, 2-vCPU host), the
time band holds 8,000-43,000 of the 292,000 cells and the corridor mostly
2,000-2,300; a sweep of 15 eps in the corridor takes 8-12 ms where one
decision took 5-9 ms.  A bracket at tol 1e-9 makes 6-13 sweeps deciding
61-94 eps, in place of 13-29 decisions on the full space and in
corridors, and takes a median 0.10 s in place of 0.25 s.  The bisection
adds a log(initial bracket / tol) factor.
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


_CHUNK = 1 << 15  # edge-eps pairs per step of a fill, which bounds its scratch


class _FreeSpace:
    """Eps-independent geometry of the free space of two polylines, gathered
    once per pair (and again per corridor), and the buffers in which one
    sweep decides ``width`` eps at once (the trailing axis of each buffer).
    Cell (i, j) pairs segment i of g1 with segment j of g2; its right edge is
    vertex i+1 of g1 against segment j of g2, its top edge vertex j+1 of g2
    against segment i of g1.  ``rows``: the rows [first[k], stop[k]) kept on
    each anti-diagonal k = i + j, by default all of them; cells outside are
    treated as unreachable.  Edge columns: right edges, top edges (each by
    anti-diagonal, then by i), then as many edges of the left boundary (g1[0]
    against g2) and of the bottom boundary (g2[0] against g1) as the kept
    cells touch.  ``exits``: the right (row 0) and top (row 1) exits of the
    cells of each anti-diagonal but the last, a block of columns per
    anti-diagonal with a column before each block.  A cell's entries are the
    right exit one row down and the top exit of its own row on the previous
    anti-diagonal, so the entries of an anti-diagonal are one skewed view of
    the previous block and the columns on either side of it; those hold the
    boundary's entries on an anti-diagonal with a boundary cell, else inf
    (not reached).  ``diagonals``: for every anti-diagonal but the last, flat
    views of its entries, those swapped, its exits and its right and top
    intervals; ``last``: the entries of the last cell."""

    def __init__(self, g1: np.ndarray, g2: np.ndarray, rows: tuple[np.ndarray, np.ndarray] | None = None,
                 width: int = 1):
        n, m = len(g1) - 1, len(g2) - 1
        self.n, self.width = n, width
        diag = np.arange(n + m - 1)
        if rows is None:
            rows = np.maximum(diag - (m - 1), 0), np.minimum(diag, n - 1) + 1
        self.first, stop = rows
        self.sizes = sizes = stop - self.first
        self.offsets = offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.cells = c = int(offsets[-1])
        i = np.arange(c) - np.repeat(offsets[:-1] - self.first, sizes)
        j = np.repeat(diag, sizes) - i
        # the anti-diagonals with a cell on the left and on the bottom
        # boundary, which need that many boundary edges
        left, bottom = diag[self.first == 0], diag[stop == diag + 1]
        nl, nb = int(left[-1]) + 1, int(bottom[-1]) + 1
        # per coordinate, the point, segment start and segment step of each edge
        g1, g2 = np.ascontiguousarray(g1.T), np.ascontiguousarray(g2.T)
        d1, d2 = np.diff(g1), np.diff(g2)
        self.points, self.starts, self.steps = geometry = np.empty((3, 2, 2 * c + nl + nb))
        columns = ((g1, i + 1), (g2, j + 1)), ((g2, j), (g1, i)), ((d2, j), (d1, i))
        for array, sources in zip(geometry, columns):
            for r in (0, 1):
                for half, (source, at) in enumerate(sources):
                    np.take(source[r], at, out=array[r, half * c : (half + 1) * c], mode="clip")
        self.points[:, 2 * c :] = np.repeat([g1[:, 0], g2[:, 0]], [nl, nb], axis=0).T
        self.starts[:, 2 * c :] = np.concatenate([g2[:, :nl], g1[:, :nb]], axis=1)
        self.steps[:, 2 * c :] = np.concatenate([d2[:, :nl], d1[:, :nb]], axis=1)
        # (coordinate, edge) entries of zero step, whose step is stored as 1
        zero = self.steps == 0.0
        flat = np.flatnonzero(zero)
        self.near = np.abs(self.starts.ravel()[flat] - self.points.ravel()[flat])
        self.flat_edge = flat % self.steps.shape[1]
        self.steps[zero] = 1.0
        edges = self.steps.shape[1]
        self.chunk = max(1, _CHUNK // width)
        # per step of a fill, the (coordinate, edge) indices of its zero steps
        self.zero_at = [np.nonzero(zero[:, at : at + self.chunk]) for at in range(0, edges, self.chunk)]
        part = min(edges, self.chunk)
        self.shift, self.s = np.empty((2, width, 1, 1)), np.empty((2, width, 2, part))
        self.lo_c = np.empty((width, 2, part))
        self.lo, self.hi = lo, hi = np.empty((2, edges, width))
        self.boundaries = (lo[2 * c : 2 * c + nl], hi[2 * c : 2 * c + nl]), (lo[2 * c + nl :], hi[2 * c + nl :])
        # block k of exits starts at column start[k]; the column before it
        # holds the left boundary's entry to anti-diagonal k + 1 and the
        # column after it the bottom boundary's
        start = offsets[:-1] + diag + 2
        before = np.concatenate(([1], start[:-1]))  # where the previous block starts
        prev_first, prev_stop = np.concatenate(([0], self.first[:-1])), np.concatenate(([0], stop[:-1]))
        self.lead = before + self.first - 1 - prev_first  # the right exit one row below row first[k]
        self.pads = (left, (before - 1)[left]), (bottom, (before + prev_stop - prev_first)[bottom])
        self.exits = exits = np.empty((2, int(offsets[-2]) + n + m, width))
        exits[:, before - 1] = exits[:, -1] = np.inf  # a sweep writes every other column before reading it
        # entries (row 0: right exits, row 1: top exits one column on) are one
        # skewed view; in each row a cell's eps are contiguous, and so are the
        # cells of an anti-diagonal, whose views are therefore flat
        skew = as_strided(exits, (2, exits.shape[1] - 1, width), (sum(exits.strides[:2]), *exits.strides[1:]))
        self.last = skew[:, self.lead[-1]]
        skew, exits, lo, hi = (a.reshape(2, -1) for a in (skew, exits, lo[: 2 * c], hi[: 2 * c]))
        spans = zip(*((x * width).tolist() for x in (self.lead, start, offsets[:-1], sizes[:-1])))
        self.diagonals = [
            (skew[:, a : a + w], skew[::-1, a : a + w], exits[:, s : s + w], lo[:, o : o + w], hi[:, o : o + w])
            for a, s, o, w in spans
        ]

    def fill(self, eps: np.ndarray) -> None:
        """Free interval [lo, hi] of s in [0, 1] on each segment starts +
        s * steps within each eps of its point (max norm), lo inf where
        empty; and the boundary entries: 0 on the leading left and bottom
        boundary edges the origin reaches (each free at its start, every
        edge before it free throughout), inf on the others."""
        lo, hi = self.lo, self.hi
        self.shift[..., 0, 0] = eps, -eps  # (points -/+ eps - starts) / steps
        for at, (zr, ze) in zip(range(0, lo.shape[0], self.chunk), self.zero_at):
            part = slice(at, at + self.chunk)
            lo_p, hi_p = lo[part], hi[part]
            # s: (sign, eps, coordinate, edge), then (eps, edge) into lo and hi
            s, lo_c = self.s[..., : lo_p.shape[0]], self.lo_c[..., : lo_p.shape[0]]
            np.subtract(self.points[:, part], self.shift, out=s)
            s -= self.starts[:, part]
            s /= self.steps[:, part]
            np.minimum(s[0], s[1], out=lo_c)
            hi_c = np.maximum(s[0], s[1], out=s[1])
            # a zero step leaves its coordinate free, or blocks the whole edge
            lo_c[:, zr, ze] = -np.inf
            hi_c[:, zr, ze] = np.inf
            np.maximum(lo_c[:, 0], lo_c[:, 1], out=lo_p.T)
            np.minimum(hi_c[:, 0], hi_c[:, 1], out=hi_p.T)
            np.maximum(lo_p, 0.0, out=lo_p)
            np.minimum(hi_p, 1.0, out=hi_p)
            np.copyto(lo_p, np.inf, where=lo_p > hi_p)
        edge, col = np.nonzero(self.near[:, None] > eps)
        lo[self.flat_edge[edge], col] = np.inf
        cols = np.arange(self.width)
        for row, (b_lo, b_hi), (k, at) in zip((0, 1), self.boundaries, self.pads):
            free = b_lo <= 0.0
            full = free & (b_hi >= 1.0)
            f = full.argmin(axis=0)
            reach = np.where(full[f, cols], len(full), f + free[f, cols])
            self.exits[row, at] = np.where(k[:, None] < reach, 0.0, np.inf)

    def entered_rows(self, e: int = 0) -> tuple[np.ndarray, np.ndarray] | None:
        """Rows [first, stop) spanning the cells the last sweep entered at
        its eps number e on each anti-diagonal, or None when they are not
        fewer cells than the space has.  Call only after a sweep in which
        that eps reached the far corner: it entered a cell on every
        anti-diagonal."""
        if self.cells == 1:
            return None  # one anti-diagonal: nothing to cut
        cols = np.arange(self.offsets[-2]) + np.repeat(self.lead[:-1] - self.offsets[:-2], self.sizes[:-1])
        right, top = self.exits[:, :, e]  # a cell's entries: right[col], top[col + 1]
        at = np.flatnonzero(np.minimum(right[cols], top[cols + 1]) < np.inf)
        k = np.searchsorted(self.offsets, at, side="right") - 1
        row = at - self.offsets[k] + self.first[k]
        new = np.flatnonzero(np.diff(k)) + 1
        first = np.concatenate(([row[0]], row[new], [self.n - 1]))
        stop = np.concatenate((row[new - 1], [row[-1], self.n - 1])) + 1
        if (stop - first).sum() >= self.cells:
            return None
        return first, stop


def _free_space_reachable(g1: np.ndarray, g2: np.ndarray, eps, space: _FreeSpace | None = None):
    """Monotone matching of the two polylines within eps (decision form):
    a bool for a float eps, one bool per eps for a 1-D array of them, which
    one sweep decides together.

    The free space within a cell is convex, so reachability propagates
    through the cell edges: a reached edge keeps the upper end of its free
    interval and is stored by its lower end, inf when unreached.  Cell (i, j)
    is entered from (i-1, j) and (i, j-1), on the previous anti-diagonal.
    The final corner is reachable iff it is free and the last cell can be
    entered (convexity closes the gap).  ``space``: the pair's _FreeSpace,
    possibly cut to a corridor, of width at least the number of eps (they
    repeat to fill it); its exits record the cells each eps entered.
    """
    epss = np.atleast_1d(np.asarray(eps, dtype=float))
    answers = max(_cheb(g1[0], g2[0]), _cheb(g1[-1], g2[-1])) <= epss
    if len(g1) == 1 or len(g2) == 1:
        pts, other = (g1, g2) if len(g1) == 1 else (g2, g1)
        answers &= np.abs(other - pts[0]).max() <= epss
    elif answers.any():
        space = _FreeSpace(g1, g2, width=epss.size) if space is None else space
        if epss.size > space.width:
            raise ValueError(f"{epss.size} eps for a space of width {space.width}")
        space.fill(np.resize(epss, space.width))
        diagonals = space.diagonals
        with np.errstate(invalid="ignore"):
            for at in range(0, len(diagonals), 32):
                # a boundary entry is read on its own anti-diagonal, and no
                # later one is reached unless it is: every front died
                if diagonals[at][0].min() == np.inf:
                    return np.zeros_like(answers) if np.ndim(eps) else False
                for into, swapped, out, lo, hi in diagonals[at : at + 32]:
                    # entered from below, the right exit may use its whole free interval (from
                    # the left, the top exit); x - x is 0 if x is reached, else nan, which fmin skips
                    np.subtract(swapped, swapped, out=out)
                    np.fmin(into, out, out=out)
                    np.maximum(lo, out, out=out)
                    np.copyto(out, np.inf, where=out > hi)  # an exit above its free interval is not reached
        answers &= space.last.min(axis=0)[: epss.size] < np.inf
    return answers if np.ndim(eps) else bool(answers[0])


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

# Cells per anti-diagonal, summed over its eps, that one corridor sweep
# handles: each anti-diagonal costs a few numpy calls whatever its width, so
# a sweep decides as many eps as keep that fixed cost the larger part
_SWEEP_CELLS = 40


def _sweep_width(cells: int, diagonals: int) -> int:
    """2^d - 1 eps per sweep of a corridor, the midpoints of d bisection levels."""
    d = max(1, (_SWEEP_CELLS * diagonals // cells + 1).bit_length() - 1)
    return (1 << d) - 1


def _undecided(lo: float, hi: float, tol: float, settled: float, room: int) -> list[float]:
    """Up to ``room`` midpoints below settled that the bisection of [lo, hi]
    can reach next, level by level.  A midpoint at or above settled is a
    "yes", so only its lower half is searched further."""
    todo, level = [], [(lo, hi)]
    while level:
        halves = []
        for a, b in level:
            mid = 0.5 * (a + b)
            if b - a <= tol or not a < mid < b:
                continue
            if mid >= settled:
                halves.append((a, mid))
            elif len(todo) == room:
                return todo
            else:
                todo.append(mid)
                halves += [(a, mid), (mid, b)]
        level = halves
    return todo


def _time_band(g1: np.ndarray, g2: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows [first, stop) on each anti-diagonal of the cells whose two
    segments come within eps + 1e-9 in time.  No other cell holds a point
    of the free space at eps or below: the fill's rounding moves an edge's
    free interval by a few ulps of its times, which lie in [0, 1].  Times
    are nondecreasing along both graphs, so row i keeps the columns
    [low[i], high[i]], both nondecreasing; when eps is at least the gaps
    between the first and between the last vertices, the band holds a cell
    on every anti-diagonal."""
    t1, t2 = g1[:, 0], g2[:, 0]
    reach, rows = eps + 1e-9, np.arange(len(t1) - 1)
    low = np.searchsorted(t2[1:], t1[:-1] - reach)
    high = np.searchsorted(t2[:-1], t1[1:] + reach, side="right") - 1
    diag = np.arange(len(t1) + len(t2) - 3)
    # row i is on anti-diagonal k when i + low[i] <= k <= i + high[i]
    return np.searchsorted(rows + high, diag), np.searchsorted(rows + low, diag, side="right")


def m1_distance_bracket(p1: CadlagPath, p2: CadlagPath, tol: float = 1e-9) -> tuple[float, float]:
    """Bracket [lo, hi] with hi - lo <= tol containing the M1 distance.

    lo starts at the gap between the endpoints, a lower bound, and hi at
    the uniform distance, an upper bound.  One decision at the discrete
    Frechet bound, when it lies inside the bracket, settles every eps at or
    above it.  The bisection then runs from [lo, hi] as it would without
    the bound, deciding the midpoints of several levels in one sweep, and a
    "yes" at lo settles the pair as [lo, lo].  When tol is below the spacing
    of floats at the distance, the bisection stops at two adjacent floats,
    wider than tol.  Paths with a value beyond a quarter of the largest
    float are refused.
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
    inside = lo < bound < hi
    # a path's graph has at least two vertices; at the bound, only the cells
    # whose segments come that close in time can be entered
    space = _FreeSpace(g1, g2, _time_band(g1, g2, bound) if inside else None)
    settled = np.inf  # the smallest eps decided "yes"

    def decide(epss: list[float]) -> dict[float, bool]:
        """Decide eps below settled in one sweep, then cut the space to the
        cells the smallest "yes" entered: a decision below it can reach no
        other cell.  A corridor keeping more than 7/8 of the cells saves less
        than its build."""
        nonlocal space, settled
        answers = _free_space_reachable(g1, g2, np.array(epss), space)
        if answers.any():
            e = min(np.flatnonzero(answers), key=epss.__getitem__)
            settled = epss[e]
            rows = space.entered_rows(e)
            cells = space.cells if rows is None else int((rows[1] - rows[0]).sum())
            if 8 * cells <= 7 * space.cells:
                space = None  # free the wider space before the narrower one is built
                space = _FreeSpace(g1, g2, rows, _sweep_width(cells, len(rows[0])))
        return dict(zip(epss, answers.tolist()))

    # after the bound's "yes", lo is decided in the first corridor sweep: a
    # corridor decides any eps below the "yes" that cut it as the full space does
    if inside and decide([bound])[bound]:
        pending = [lo]
    else:
        if inside:
            space = None  # eps above the bound need the cells outside its band
            space = _FreeSpace(g1, g2)
        if _free_space_reachable(g1, g2, lo, space):
            return lo, lo
        pending = []
    # guard against boundary effects of the decision at exactly hi; the
    # decision is monotone in eps, rounding included, so eps >= settled is a "yes"
    while not (hi >= settled or decide([hi])[hi]):
        hi = max(hi * (1.0 + 1e-12), hi + 1e-15)
    while hi - lo > tol:
        answers = decide(pending + _undecided(lo, hi, tol, settled, space.width - len(pending)))
        if pending and answers[lo]:
            return lo, lo
        pending = []
        while hi - lo > tol:  # the bisection's own steps, as far as the sweep decided them
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                return lo, hi  # lo and hi are adjacent floats
            if mid < settled and mid not in answers:
                break
            if mid >= settled or answers[mid]:
                hi = mid
            else:
                lo = mid
    return lo, hi


def m1_distance(p1: CadlagPath, p2: CadlagPath, tol: float = 1e-9) -> float:
    """M1 distance with guaranteed error <= tol/2 (bracket midpoint)."""
    lo, hi = m1_distance_bracket(p1, p2, tol)
    return 0.5 * (lo + hi)
