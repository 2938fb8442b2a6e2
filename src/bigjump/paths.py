"""Piecewise-linear cadlag paths on [0,1] and centered cumulative builds.

A path is an ordered node table ``(t, left, right)``: right-continuous at
nodes, linear between the right value of one node and the left value of the
next.  Jump paths, centering curves, and their scaled differences all live
in this one representation.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

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
    "centering_mb",
    "mb_centering_values",
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
        t = np.asarray(self.t, dtype=float)
        if np.shape(self.left) != t.shape or np.shape(self.right) != t.shape:
            raise ValueError("left and right need one value per node time")
        if not (np.isfinite(t).all() and np.isfinite(self.left).all() and np.isfinite(self.right).all()):
            raise ValueError("path values must be finite")
        if t.size < 2 or t[0] != 0.0 or t[-1] != 1.0:
            raise ValueError("path nodes must span [0, 1]")
        if np.any(np.diff(t) <= 0):
            raise ValueError("node times must be strictly increasing")

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
    """Pure-jump path from raw jump lists; equal times merge by summation."""
    times = np.asarray(times, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    if times.size:
        order = np.argsort(times, kind="stable")
        times, sizes = times[order], sizes[order]
        uniq, inv = np.unique(times, return_inverse=True)
        merged = np.bincount(inv, weights=sizes)
        times, sizes = uniq, merged
    cum = np.cumsum(sizes) if sizes.size else np.empty(0)
    t_nodes = [0.0]
    left = [0.0]
    right = [0.0]
    if times.size and times[0] == 0.0:
        right[0] = cum[0]
    for j, tj in enumerate(times):
        if tj == 0.0:
            continue
        t_nodes.append(float(tj))
        left.append(float(cum[j] - sizes[j]))
        right.append(float(cum[j]))
    if t_nodes[-1] != 1.0:
        total = float(cum[-1]) if cum.size else 0.0
        t_nodes.append(1.0)
        left.append(total)
        right.append(total)
    return CadlagPath(np.array(t_nodes), np.array(left), np.array(right))


@dataclass(frozen=True)
class ScalingRule:
    """Space scaling x_T = T**eta and the induced speeds."""

    eta: float
    T: float

    @property
    def x_T(self) -> float:
        return self.T**self.eta

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
    return np.where(
        u <= s0,
        u,
        s0 + (s0 / (a - 1.0)) * (1.0 - np.power(np.maximum(u, s0) / s0, 1.0 - a))
        if a != 1.0
        else s0 * (1.0 + np.log(np.maximum(u, s0) / s0)),
    )


_GL_NODES = 256


def _mark_quadrature(law: TailLaw, n: int = _GL_NODES):
    """Gauss-Legendre nodes/weights for E[g(X)] via the quantile transform."""
    u, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (u + 1.0)
    w = 0.5 * w
    return law.quantile(u), w


def mb_centering_values(
    lam: float, T: float, spec: JointMarkSpec, wait: WaitLaw, ts: np.ndarray
) -> np.ndarray:
    """Mean cumulative mass m(t) for the single-generation model.

    Exact when the wait law is unconditional: the mark expectation then
    factorises into E[K].  Mark-conditional waits take it by 256-point
    Gauss-Legendre on the quantile scale; the offspring the quadrature
    misses (a Pareto law's singular end, whose children wait ~ 0) are
    booked at lag 0.
    """
    ts = np.asarray(ts, dtype=float)
    ex = spec.x_law.mean()
    u = ts * T
    kmean = spec.mean_offspring()
    if not wait.conditional_on_mark:
        return lam * ex * (u + kmean * (u - _wait_tail_integral(wait, u)))
    xs, ws = _mark_quadrature(spec.x_law)
    kx = ceil_count(spec.k_param, xs) if spec.dependence == COMONOTONE else np.full_like(xs, kmean)
    h = u[:, None] - _wait_tail_integral(wait, u[:, None], mark=xs[None, :])
    return lam * ex * (u + h @ (kx * ws) + u * (kmean - kx @ ws))


def _uniform_grid(grid_n: int) -> np.ndarray:
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    return np.linspace(0.0, 1.0, grid_n + 1)


def centering_mb(
    lam: float, T: float, spec: JointMarkSpec, wait: WaitLaw, grid_n: int = DEFAULT_GRID_N
) -> CadlagPath:
    """Continuous nondecreasing centering curve on a uniform grid."""
    ts = _uniform_grid(grid_n)
    vals = mb_centering_values(lam, T, spec, wait, ts)
    return CadlagPath(ts, vals, vals)


def _fertility_tail(spec: JointMarkSpec, wait: WaitLaw, u: np.ndarray):
    """Mean number of children born after lag u, and its integral over [0, u]:
    kappa P(W > u) for unconditional waits, E[phi X P(W > u | X)] by mark
    quadrature for mark-conditional ones.  The marks the quadrature misses (a
    Pareto law's singular end) bear children at lag ~ 0: tail(0) is all kappa."""
    if wait.conditional_on_mark:
        xs, ws = _mark_quadrature(spec.x_law)
        u, rate = u[:, None], spec.phi * xs * ws
        tail = np.r_[spec.mean_fertility, wait.tail(u[1:], xs) @ rate]
        return tail, _wait_tail_integral(wait, u, xs) @ rate
    kappa = spec.mean_fertility
    return kappa * wait.tail(u), kappa * _wait_tail_integral(wait, u)


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer 2^a 3^b 5^c >= n."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
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


def centering_hawkes(
    lam: float, T: float, spec: JointMarkSpec, wait: WaitLaw, grid_n: int = DEFAULT_GRID_N
) -> CadlagPath:
    """Mean cumulative mass of the branching model on a uniform grid.

    Every generation counts at its cumulative offset.  By the cluster
    representation of Hawkes & Oakes (1974) the mean solves the renewal
    equation m(u) = lam E[X] u + int_0^u m(u - w) k(dw), where k(dw) is the
    mean number of children born at lag w (`_fertility_tail`).  Product
    integration on a lag grid of at least _LAG_STEPS cells, a multiple of
    grid_n, takes m linear on each cell and integrates k exactly against it;
    the resulting lower-triangular Toeplitz system m = f + c * m is solved
    as the power series m = f / (1 - c) (`_series_divide`).
    """
    ts = _uniform_grid(grid_n)
    step = -(-_LAG_STEPS // grid_n)
    u = np.linspace(0.0, T, grid_n * step + 1)
    tail, tail_int = _fertility_tail(spec, wait, u)
    cell_tail = np.diff(tail_int) / (T / (u.size - 1))  # mean of the tail over each cell
    # weight of m(u_n - u_j): near end of cell j plus far end of cell j - 1
    c = np.r_[tail[:-1] - cell_tail, 0.0] + np.r_[0.0, cell_tail - tail[1:]]
    c[0] -= 1.0
    vals = _series_divide(lam * spec.x_law.mean() * u, -c)[::step]
    vals[0] = 0.0
    return CadlagPath(ts, vals, vals)


def centered_scaled_path(uncentered: CadlagPath, centering: CadlagPath, scaling: ScalingRule) -> CadlagPath:
    """(uncentered - centering) / x_T on the merged node set.

    Interior nodes that fall exactly on the segment between their neighbors
    are dropped, so flat stretches collapse to their endpoints.
    """
    x_T = scaling.x_T
    t = np.union1d(uncentered.t, centering.t)
    ul, ur = _left_right_at(uncentered, t)
    cl, cr = _left_right_at(centering, t)
    left = (ul - cl) / x_T
    right = (ur - cr) / x_T
    if t.size > 2:
        w = (t[1:-1] - t[:-2]) / (t[2:] - t[:-2])
        lin = right[:-2] + w * (left[2:] - right[:-2])
        drop = (left[1:-1] == right[1:-1]) & (left[1:-1] == lin)
        keep = np.r_[True, ~drop, True]
        t, left, right = t[keep], left[keep], right[keep]
    return CadlagPath(t, left, right)


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
