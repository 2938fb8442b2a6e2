"""Piecewise-linear cadlag paths on [0,1] and centered cumulative builds.

A path is an ordered node table ``(t, left, right)``: right-continuous at
nodes, linear between the right value of one node and the left value of the
next.  Jump paths, centering curves, and their scaled differences all live
in this one representation.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError
from .laws import (
    COMONOTONE,
    DETERMINISTIC,
    EXPONENTIAL,
    JointMarkSpec,
    TailLaw,
    WaitLaw,
    ceil_count,
)

__all__ = [
    "CadlagPath",
    "ScalingRule",
    "build_jump_path",
    "kth_largest_jump",
    "centering_mb",
    "centering_hawkes",
    "centered_scaled_path",
    "path_value",
    "path_sup",
    "terminal",
    "write_path_csv",
    "read_path_csv",
]

DEFAULT_GRID_N = 1024


@dataclass(frozen=True)
class CadlagPath:
    """Node table (t, left, right) of finite values, t strictly increasing over [0, 1]."""

    t: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        t, left, right = (np.asarray(a, dtype=float) for a in (self.t, self.left, self.right))
        if left.shape != t.shape or right.shape != t.shape:
            raise ValueError("left and right need one value per node time")
        if not (np.isfinite(t).all() and np.isfinite(left).all() and np.isfinite(right).all()):
            raise ValueError("path values must be finite")
        if t.size < 2 or t[0] != 0.0 or t[-1] != 1.0:
            raise ValueError("path nodes must span [0, 1]")
        if np.any(np.diff(t) <= 0):
            raise ValueError("node times must be strictly increasing")
        # stored as float arrays, so that a path built from lists works like any other
        for name, value in (("t", t), ("left", left), ("right", right)):
            object.__setattr__(self, name, value)

    @property
    def n_nodes(self) -> int:
        return self.t.size

    def jump_sizes(self) -> np.ndarray:
        return self.right - self.left

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        """Right-continuous evaluation, vectorized."""
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < 0.0) or np.any(ts > 1.0):
            raise ValueError("evaluation time outside [0, 1]")
        idx = np.searchsorted(self.t, ts, side="right") - 1
        idx = np.clip(idx, 0, self.n_nodes - 1)
        at_node = self.t[idx] == ts
        out = np.empty_like(ts, dtype=float)
        out[at_node] = self.right[idx[at_node]]
        seg = ~at_node
        if np.any(seg):
            i = idx[seg]
            t0, t1 = self.t[i], self.t[i + 1]
            v0, v1 = self.right[i], self.left[i + 1]
            w = (ts[seg] - t0) / (t1 - t0)
            out[seg] = v0 + w * (v1 - v0)
        return out


def build_jump_path(times: np.ndarray, sizes: np.ndarray) -> CadlagPath:
    """Pure-jump path from raw jump lists; equal times merge by summation.
    A jump at 0 sets the first node's right value."""
    times = np.asarray(times, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    if times.size:
        order = np.argsort(times, kind="stable")
        times, inv = np.unique(times[order], return_inverse=True)
        sizes = np.bincount(inv, weights=sizes[order])
    cum = np.cumsum(sizes)
    at0 = int(times.size > 0 and times[0] == 0.0)
    t = np.concatenate(([0.0], times[at0:]))
    left = np.concatenate(([0.0], (cum - sizes)[at0:]))
    right = np.concatenate((cum[:1] if at0 else [0.0], cum[at0:]))
    if t[-1] != 1.0:
        total = cum[-1] if cum.size else 0.0
        t, left, right = np.append(t, 1.0), np.append(left, total), np.append(right, total)
    return CadlagPath(t, left, right)


def kth_largest_jump(path: CadlagPath, k: int) -> float:
    """k-th largest |jump| over the nodes; 0 when fewer than k jumps exist."""
    if k < 1:
        raise ValueError("k must be >= 1")
    sizes = np.abs(path.jump_sizes())
    sizes = sizes[sizes > 0.0]
    if sizes.size < k:
        return 0.0
    return float(np.partition(sizes, sizes.size - k)[sizes.size - k])


@dataclass(frozen=True)
class ScalingRule:
    """Space scaling x_T = T**eta and the induced speeds."""

    eta: float
    T: float

    @property
    def x_T(self) -> float:
        try:
            return float(self.T) ** self.eta
        except OverflowError:
            raise ConfigurationError(
                f"x_T = T^eta_exponent overflows a float at T={self.T!r}, eta_exponent={self.eta!r}"
            ) from None

    def speed(self, law: TailLaw) -> float:
        """v(x_T) = 1 / P(X > x_T)."""
        return 1.0 / law.tail(self.x_T)

    def speed_prime(self, law: TailLaw) -> float:
        """v'(x_T) = v(x_T) / T."""
        return self.speed(law) / self.T

    def validate(self, law: TailLaw) -> None:
        bound = max(1.0 / law.alpha, 0.5) if law.heavy else 0.5
        if not self.eta > bound:
            raise ConfigurationError(
                f"eta={self.eta} must exceed max(1/alpha, 1/2) = {bound:.6g}"
            )
        if law.heavy and not law.tail(self.x_T) > 1.0 / np.finfo(float).max:
            raise ConfigurationError(
                f"refusing mark_alpha = {law.alpha}: P(X > x_T) = {law.tail(self.x_T):.6g} at x_T = "
                f"{self.x_T:.6g}, so the speed v(x_T) = 1/P(X > x_T) is not a finite double"
            )


# ---------------------------------------------------------------------------
# centering curves


def _wait_tail_integral(wait: WaitLaw, u, mark=None):
    """G(u) = integral_0^u P(W > s | mark) ds, closed form per family."""
    u = np.asarray(u, dtype=float)
    law = wait.law
    if wait.conditional_on_mark or law.family == EXPONENTIAL:
        sc = law.scale / (1.0 + np.asarray(mark, dtype=float)) if wait.conditional_on_mark else law.scale
        return sc * -np.expm1(-u / sc)
    if law.family == DETERMINISTIC:
        return np.minimum(u, law.scale)
    # Pareto: min(u, s0) + s0/(a-1) * (1 - (u/s0)^(1-a)) on u > s0
    s0, a = law.scale, law.alpha
    v = np.maximum(u, s0) / s0
    far = s0 + (s0 / (a - 1.0)) * (1.0 - np.power(v, 1.0 - a)) if a != 1.0 else s0 * (1.0 + np.log(v))
    return np.where(u <= s0, u, far)


_GL_NODES = 256


def _offspring_tail(spec: JointMarkSpec, wait: WaitLaw, u: np.ndarray, per_mark, mean: float):
    """Mean number of children born after lag u, and its integral over [0, u],
    to a parent of mark x with per_mark(x) children on average, mean in all.
    Mark-conditional waits take E[per_mark(X) P(W > u | X)] by Gauss-Legendre
    on the quantile scale; the marks it misses (a Pareto law's singular end)
    bear children at lag ~ 0: tail(0) is all of mean."""
    if wait.conditional_on_mark:
        g, w = np.polynomial.legendre.leggauss(_GL_NODES)
        xs = spec.x_law.quantile(0.5 * (g + 1.0))
        u, rate = u[:, None], per_mark(xs) * (0.5 * w)
        tail = np.r_[mean, wait.tail(u[1:], xs) @ rate]
        return tail, _wait_tail_integral(wait, u, xs) @ rate
    return mean * wait.tail(u), mean * _wait_tail_integral(wait, u)


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer 2^a 3^b 5^c >= n."""
    best, p5 = 1 << max(n - 1, 0).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # the least power-of-two multiple of 3^b 5^c reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two 1-d float arrays by a real FFT padded to
    a 5-smooth length; the same arithmetic as scipy.signal.fftconvolve, which
    also multiplies directly when an input has one element."""
    if a.size == 1 or b.size == 1:
        return a * b
    n = a.size + b.size - 1
    m = _fast_len(n)
    return np.fft.irfft(np.fft.rfft(a, m) * np.fft.rfft(b, m), m)[:n]


def _series_divide(f: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Coefficients of f(z) / d(z) up to the degree of d, 1/d by Newton's iteration
    r <- r (2 - d r)."""
    r = np.array([1.0 / d[0]])
    while r.size < d.size:
        k = min(2 * r.size, d.size)
        e = -_convolve(d[:k], r)[:k]
        e[0] += 2.0
        r = _convolve(r, e)[:k]
    return _convolve(f, r)[: d.size]


_LAG_STEPS = 8192


def _mean_path(lam, T, spec, wait, grid_n, per_mark, mean, branching) -> CadlagPath:
    """Mean cumulative mass on a uniform grid by the renewal equation of the
    cluster representation (Hawkes & Oakes 1974): m = f + k * m for branching
    clusters, m = f + k * f for single-generation ones, with f(u) = lam E[X] u
    and k(dw) the mean children born at lag w (`_offspring_tail`).  Product
    integration on a lag grid of at least _LAG_STEPS cells, a multiple of
    grid_n, integrates k exactly against the curve taken linear on each cell,
    so f + k * f is exact up to rounding; m = f + c * m is solved as f / (1 - c)."""
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    step = -(-_LAG_STEPS // grid_n)
    u = np.linspace(0.0, T, grid_n * step + 1)
    tail, tail_int = _offspring_tail(spec, wait, u, per_mark, mean)
    cell_tail = np.diff(tail_int) / (T / (u.size - 1))  # mean of the tail over each cell
    # weight of m(u_n - u_j): near end of cell j plus far end of cell j - 1
    c = np.r_[tail[:-1] - cell_tail, 0.0] + np.r_[0.0, cell_tail - tail[1:]]
    f = lam * spec.x_law.mean() * u
    if branching:
        c[0] -= 1.0
        vals = _series_divide(f, -c)[::step]
    else:
        vals = (f + _convolve(c, f)[: f.size])[::step]
    vals[0] = 0.0
    return CadlagPath(np.linspace(0.0, 1.0, grid_n + 1), vals, vals)


def centering_mb(
    lam: float, T: float, spec: JointMarkSpec, wait: WaitLaw, grid_n: int = DEFAULT_GRID_N
) -> CadlagPath:
    """Mean path of the single-generation model: a parent of mark x bears
    ceil(k_param x) children for comonotone counts, E[K] on average otherwise."""
    kmean = spec.mean_offspring()
    per_mark = partial(ceil_count, spec.k_param) if spec.dependence == COMONOTONE else lambda x: kmean
    return _mean_path(lam, T, spec, wait, grid_n, per_mark, kmean, branching=False)


def centering_hawkes(
    lam: float, T: float, spec: JointMarkSpec, wait: WaitLaw, grid_n: int = DEFAULT_GRID_N
) -> CadlagPath:
    """Mean path of the branching model: a parent of mark x bears phi x
    children on average, every generation counted at its cumulative offset."""
    return _mean_path(lam, T, spec, wait, grid_n, lambda x: spec.phi * x, spec.mean_fertility, branching=True)


def centered_scaled_path(uncentered: CadlagPath, centering: CadlagPath, scaling: ScalingRule) -> CadlagPath:
    """(uncentered - centering) / x_T on the merged node set.

    Interior nodes that fall exactly on the segment between their neighbors
    are dropped, so flat stretches collapse to their endpoints.
    """
    x_T = scaling.x_T
    t, (ul, ur), (cl, cr) = _common_nodes(uncentered, centering)
    left = (ul - cl) / x_T
    right = (ur - cr) / x_T
    if t.size > 2:
        w = (t[1:-1] - t[:-2]) / (t[2:] - t[:-2])
        lin = right[:-2] + w * (left[2:] - right[:-2])
        drop = (left[1:-1] == right[1:-1]) & (left[1:-1] == lin)
        keep = np.r_[True, ~drop, True]
        t, left, right = t[keep], left[keep], right[keep]
    return CadlagPath(t, left, right)


def _common_nodes(p1: CadlagPath, p2: CadlagPath):
    """The merged node times of two paths, and the (left, right) values of
    each path there.  The sort-and-mask of np.union1d, which would import
    numpy.ma."""
    t = np.sort(np.concatenate((p1.t, p2.t)))
    t = t[np.concatenate(([True], t[1:] != t[:-1]))]
    return t, _left_right_at(p1, t), _left_right_at(p2, t)


def _left_right_at(path: CadlagPath, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    right = path.values_at(ts)
    left = right.copy()
    pos = np.searchsorted(path.t, ts)
    at_node = (pos < path.n_nodes) & (path.t[np.minimum(pos, path.n_nodes - 1)] == ts)
    left[at_node] = path.left[pos[at_node]]
    return left, right


def path_value(path: CadlagPath, t: float) -> float:
    """Right-continuous value at t in [0, 1]."""
    return float(path.values_at(np.array([t]))[0])


def path_sup(path: CadlagPath) -> float:
    """Supremum over [0, 1]; attained at a node for piecewise-linear paths."""
    return float(max(path.left.max(), path.right.max()))


def terminal(path: CadlagPath) -> float:
    return float(path.right[-1])


def write_path_csv(path_obj: CadlagPath, file) -> None:
    writer = csv.writer(file)
    writer.writerow(["t", "left", "right"])
    for t, l, r in zip(path_obj.t, path_obj.left, path_obj.right):
        writer.writerow([repr(float(t)), repr(float(l)), repr(float(r))])


def read_path_csv(file) -> CadlagPath:
    """Read a path CSV; errors name the file (when it has a name) and the row."""
    name = getattr(file, "name", "path CSV")
    reader = csv.reader(file)
    header = next(reader, None)
    if header != ["t", "left", "right"]:
        raise ValueError(f"{name}: not a path CSV, header was {header}")
    rows = []
    for row in reader:
        if len(row) != 3:
            raise ValueError(f"{name} row {reader.line_num}: expected 3 fields, got {len(row)}")
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise ValueError(f"{name} row {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{name}: path CSV has no nodes")
    arr = np.array(rows)
    return CadlagPath(arr[:, 0], arr[:, 1], arr[:, 2])
