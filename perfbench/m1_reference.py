"""Inputs and an independent output check for the ``m1-pair`` workload.

The pair is built with numpy's own generator, never with bigjump's
samplers, so a change to the package's sampling lanes cannot alter it.  The
check re-decides "M1 distance <= eps" with a row-vectorised free-space
sweep (Alt & Godau 1995) written here from the definition, sharing no code
with ``bigjump.m1``.
"""
from __future__ import annotations

import numpy as np

# Grid intervals of the two paths and their common number of jumps; the
# completed graphs have grid + 1 + 2 * jumps vertices, 561 x 521 here.
GRIDS = (400, 360)
JUMPS = 80
# the second path re-times each jump by N(0, TIME_JITTER^2) and rescales it
# by 1 + N(0, SIZE_JITTER^2): two nearby paths, as when a path is compared
# with an approximation of itself
TIME_JITTER = 3e-4
SIZE_JITTER = 1e-2
# Jump sizes are the JUMPS evenly spaced quantiles of a Pareto(1.5) law,
# scaled so the largest is MAX_JUMP, in random order: every seed has the
# same sizes, total and sup-norm scale, so the work per pair varies little
MAX_JUMP = 20.0


def _path(jt, js, grid: int, total: float):
    """Jumps js at times jt minus a nonlinear drift reaching ``total`` at 1,
    with nodes on a grid."""
    t = np.union1d(np.arange(grid + 1) / grid, jt)
    before = np.searchsorted(jt, t, side="left")
    at_or_before = np.searchsorted(jt, t, side="right")
    cum = np.r_[0.0, np.cumsum(js)]
    drift = total * (0.7 * t + 0.3 * np.sin(0.5 * np.pi * t))
    return t, cum[before] - drift, cum[at_or_before] - drift


def _limits(t, left, right, s):
    """(left limit, value) of a node-table path at the times ``s``."""
    i = np.searchsorted(t, s, side="right") - 1
    i = np.minimum(i, t.size - 1)
    node = t[i] == s
    j = np.minimum(i + 1, t.size - 1)
    w = np.where(node, 0.0, (s - t[i]) / np.where(node, 1.0, t[j] - t[i]))
    between = right[i] + w * (left[j] - right[i])
    return np.where(node, left[i], between), np.where(node, right[i], between)


def make_pair(seed: int):
    """Two (t, left, right) tables that start at 0, end level and lie one
    unit apart in sup norm, so the bisection always runs 30 halvings."""
    rng = np.random.default_rng([seed, 0x3131])
    sizes = (1.0 - (np.arange(JUMPS) + 0.5) / JUMPS) ** (-1.0 / 1.5)
    js = rng.permutation(sizes * (MAX_JUMP / sizes.max()))
    jt = rng.uniform(0.01, 0.99, JUMPS)
    jt2 = jt + TIME_JITTER * rng.standard_normal(JUMPS)
    js2 = js * (1.0 + SIZE_JITTER * rng.standard_normal(JUMPS))
    o1, o2 = np.argsort(jt), np.argsort(jt2)
    a = _path(jt[o1], js[o1], GRIDS[0], js.sum())
    tb, lb, rb = _path(jt2[o2], js2[o2], GRIDS[1], js.sum())
    shift = (a[2][-1] - rb[-1]) * tb
    b = (tb, lb + shift, rb + shift)
    s = np.union1d(a[0], b[0])
    gaps = [np.abs(x - y).max() for x, y in zip(_limits(*a, s), _limits(*b, s))]
    scale = 1.0 / max(gaps)
    return [(t, left * scale, right * scale) for t, left, right in (a, b)]


def write_csv(table, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("t,left,right\n")
        for row in zip(*table):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_csv(path: str):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2]


def completed_graph(t, left, right) -> np.ndarray:
    """Polyline of the graph with each jump filled by a vertical segment."""
    pts: list[tuple[float, float]] = []
    for ti, lo, hi in zip(t.tolist(), left.tolist(), right.tolist()):
        if not pts or pts[-1] != (ti, lo):
            pts.append((ti, lo))
        if hi != lo:
            pts.append((ti, hi))
    return np.asarray(pts)


def _free(points, seg_a, seg_b, eps):
    """Parameter interval [lo, hi] on each segment within eps of each point
    (max norm); rows are points, columns segments, empty when lo > hi."""
    lo = np.zeros((len(points), len(seg_a)))
    hi = np.ones_like(lo)
    for c in (0, 1):
        p, a = points[:, None, c], seg_a[None, :, c]
        d = np.broadcast_to((seg_b - seg_a)[None, :, c], (len(points), len(seg_a)))
        moving = d != 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            s1, s2 = (p - eps - a) / d, (p + eps - a) / d
        near = np.abs(a - p) <= eps
        lo = np.maximum(lo, np.where(moving, np.minimum(s1, s2), np.where(near, -np.inf, np.inf)))
        hi = np.minimum(hi, np.where(moving, np.maximum(s1, s2), np.where(near, np.inf, -np.inf)))
    return lo, hi


_DEAD = 3.0  # any lower bound above 1 marks an unreachable edge


def _segmented_cummax(values: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Running max of ``values`` restarting where ``seg`` increases; exact,
    as it accumulates integer keys built from ranks."""
    uniq, rank = np.unique(values, return_inverse=True)
    base = seg * uniq.size
    return uniq[np.maximum.accumulate(base + rank) - base]


def _boundary(lo, hi) -> np.ndarray:
    """Lower bounds (0 or dead) of the edges reachable along a boundary."""
    open_from_origin = lo <= 0.0
    full = open_from_origin & (hi >= 1.0)
    prefix_full = np.r_[True, np.cumprod(full[:-1]).astype(bool)]
    return np.where(open_from_origin & (lo <= hi) & prefix_full, 0.0, _DEAD)


def decide(g1: np.ndarray, g2: np.ndarray, eps: float) -> bool:
    """Whether a monotone matching of the two polylines stays within eps."""
    cheb = lambda p, q: max(abs(p[0] - q[0]), abs(p[1] - q[1]))  # noqa: E731
    if cheb(g1[0], g2[0]) > eps or cheb(g1[-1], g2[-1]) > eps:
        return False
    n, m = len(g1), len(g2)
    if n == 1 or m == 1:
        pts, other = (g1, g2) if n == 1 else (g2, g1)
        return all(cheb(pts[0], q) <= eps for q in other)
    # vertical edges: vertex i of g1 against segment j of g2, shape (n, m-1)
    vlo, vhi = _free(g1, g2[:-1], g2[1:], eps)
    # horizontal edges: vertex j of g2 against segment i of g1, shape (m, n-1)
    hlo, hhi = _free(g2, g1[:-1], g1[1:], eps)
    vlo = np.where(vlo <= vhi, vlo, _DEAD)
    hlo = np.where(hlo <= hhi, hlo, _DEAD)
    left_col = _boundary(vlo[0], vhi[0])
    bottom = _boundary(hlo[0], hhi[0])
    for j in range(m - 1):
        # left entries along row j: a segmented running max of the lower
        # bounds, restarting after every cell entered from below and dead
        # from the first edge whose upper bound it passes
        start = np.r_[True, bottom[:-1] < _DEAD]
        seg = np.cumsum(start) - 1
        run = _segmented_cummax(np.r_[left_col[j], vlo[1 : n - 1, j]], seg)
        dead = _segmented_cummax(run > np.r_[1.0, vhi[1 : n - 1, j]], seg)
        left = np.where(dead, _DEAD, run)
        if j == m - 2:
            return bool(left[-1] < _DEAD or bottom[-1] < _DEAD)
        up = np.where(left < _DEAD, hlo[j + 1], np.where(bottom < _DEAD, np.maximum(hlo[j + 1], bottom), _DEAD))
        bottom = np.where(up <= hhi[j + 1], up, _DEAD)
    raise AssertionError("unreachable")
