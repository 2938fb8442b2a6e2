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
    HEAVY_K_LIGHT_X,
    INDEPENDENT_LIGHT_K,
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
    "hawkes_centering_values_exact",
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


def _integrated_wait_cdf(wait: WaitLaw, u, mark=None):
    """H(u) = integral_0^u P(W <= s | mark) ds, closed form per family."""
    u = np.asarray(u, dtype=float)
    law = wait.law
    if wait.conditional_on_mark or law.family == EXPONENTIAL:
        sc = law.scale / (1.0 + np.asarray(mark, dtype=float)) if wait.conditional_on_mark else law.scale
        return u - sc * -np.expm1(-u / sc)
    if law.family == DETERMINISTIC:
        return np.maximum(u - law.scale, 0.0)
    # Pareto tail integral: int_0^u tail = min(u, s0) + s0/(a-1) * (1 - (u/s0)^(1-a)) on u > s0
    s0, a = law.scale, law.alpha
    tail_int = np.where(
        u <= s0,
        u,
        s0 + (s0 / (a - 1.0)) * (1.0 - np.power(np.maximum(u, s0) / s0, 1.0 - a))
        if a != 1.0
        else s0 * (1.0 + np.log(np.maximum(u, s0) / s0)),
    )
    return u - tail_int


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

    Exact when the offspring count is independent of the mark and the wait
    law is unconditional; otherwise the mark expectation is evaluated by
    256-point Gauss-Legendre on the quantile scale.
    """
    ts = np.asarray(ts, dtype=float)
    ex = spec.x_law.mean()
    u = ts * T
    if spec.dependence in (INDEPENDENT_LIGHT_K, HEAVY_K_LIGHT_X) and not wait.conditional_on_mark:
        kmean = spec.mean_offspring()
        return lam * ex * (u + kmean * _integrated_wait_cdf(wait, u))
    xs, ws = _mark_quadrature(spec.x_law)
    if spec.dependence == COMONOTONE:
        kx = ceil_count(spec.k_param, xs).astype(float)
    else:
        kx = np.full_like(xs, spec.mean_offspring())
    if wait.conditional_on_mark:
        h = _integrated_wait_cdf(wait, u[:, None], mark=xs[None, :])
    else:
        h = np.broadcast_to(_integrated_wait_cdf(wait, u)[:, None], (u.size, xs.size))
    inner = h @ (kx * ws)
    return lam * ex * (u + inner)


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


def hawkes_centering_values_exact(
    lam: float, T: float, spec: JointMarkSpec, wait: WaitLaw, ts: np.ndarray
) -> np.ndarray:
    """Closed-form branching centering (unconditional waits only)."""
    if wait.conditional_on_mark:
        raise ConfigurationError("closed form requires an unconditional wait law")
    ts = np.asarray(ts, dtype=float)
    u = ts * T
    ex = spec.x_law.mean()
    kbar = spec.mean_fertility
    sub_mean = ex / (1.0 - kbar)
    return lam * (u * ex + kbar * sub_mean * _integrated_wait_cdf(wait, u))


def centering_hawkes(
    lam: float,
    T: float,
    spec: JointMarkSpec,
    wait: WaitLaw,
    n_mc: int,
    grid_n: int,
    rng: np.random.Generator,
) -> tuple[CadlagPath, np.ndarray]:
    """Monte Carlo centering curve for the branching model, with stderr band.

    Averages, over ``n_mc`` simulated immigrants, the expected mass of
    first-generation subtrees whose roots enter before each grid time; the
    arrival integral over the immigrant time is done analytically, leaving
    sum_j D_j (tT - W_j)+ as the per-cluster statistic.
    """
    from .clusters import HAWKES, simulate_batch  # local to keep deps one-way

    if spec.phi > 0 and not spec.mean_fertility < 1.0:
        raise ConfigurationError("supercritical fertility")
    ts = _uniform_grid(grid_n)
    ex = spec.x_law.mean()
    x0 = np.asarray(spec.x_law.sample(rng, n_mc), dtype=float)
    n_children = rng.poisson(spec.phi * x0).astype(np.int64)
    total = int(n_children.sum())
    owner = np.repeat(np.arange(n_mc, dtype=np.int64), n_children)
    if total:
        waits = np.asarray(wait.sample(rng, mark=x0[owner], size=total), dtype=float)
        subtrees = simulate_batch(HAWKES, total, spec, wait, rng, with_offsets=False)
        d = subtrees.totals()
    else:
        waits = np.empty(0)
        d = np.empty(0)
    vals = np.empty(ts.size)
    ses = np.empty(ts.size)
    chunk = max(1, 8_000_000 // max(total, n_mc, 1))
    for lo in range(0, ts.size, chunk):
        hi = min(lo + chunk, ts.size)
        u = ts[lo:hi] * T
        contrib = d[None, :] * np.maximum(u[:, None] - waits[None, :], 0.0)
        per_cluster = np.zeros((hi - lo, n_mc))
        for r in range(hi - lo):
            per_cluster[r] = np.bincount(owner, weights=contrib[r], minlength=n_mc)
        mean = per_cluster.mean(axis=1)
        sd = per_cluster.std(axis=1, ddof=1) if n_mc > 1 else np.zeros(hi - lo)
        vals[lo:hi] = lam * (u * ex + mean)
        ses[lo:hi] = lam * sd / np.sqrt(n_mc)
    return CadlagPath(ts, vals, vals), ses


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
    reader = csv.reader(file)
    header = next(reader, None)
    if header != ["t", "left", "right"]:
        raise ValueError(f"not a path CSV, header was {header}")
    rows = [(float(a), float(b), float(c)) for a, b, c in reader]
    if not rows:
        raise ValueError("path CSV has no nodes")
    arr = np.array(rows)
    return CadlagPath(arr[:, 0], arr[:, 1], arr[:, 2])
