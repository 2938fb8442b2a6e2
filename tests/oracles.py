"""Independent brute-force oracles used only by the tests."""
from __future__ import annotations

import numpy as np


def densify(polyline: np.ndarray, h: float) -> np.ndarray:
    """Subdivide segments so consecutive samples are within h (max norm)."""
    pts = [polyline[0]]
    for a, b in zip(polyline[:-1], polyline[1:]):
        length = max(abs(b[0] - a[0]), abs(b[1] - a[1]))
        steps = max(1, int(np.ceil(length / h)))
        for s in range(1, steps + 1):
            pts.append(a + (b - a) * (s / steps))
    return np.asarray(pts)


def discrete_frechet_linf(P: np.ndarray, Q: np.ndarray) -> float:
    """Discrete Frechet distance (coupling DP) under max(|dt|, |dz|).

    Runs the dynamic program over anti-diagonals so each wavefront is a
    vectorized update; suitable as a dense-parametrization search oracle.
    """
    n, m = len(P), len(Q)
    px, py = P[:, 0], P[:, 1]
    qx, qy = Q[:, 0], Q[:, 1]
    prev1 = np.full(n, np.inf)
    prev2 = np.full(n, np.inf)
    for d in range(n + m - 1):
        cur = np.full(n, np.inf)
        i_lo = max(0, d - (m - 1))
        i_hi = min(n - 1, d)
        i = np.arange(i_lo, i_hi + 1)
        j = d - i
        cost = np.maximum(np.abs(px[i] - qx[j]), np.abs(py[i] - qy[j]))
        if d == 0:
            cur[0] = cost[0]
        else:
            up = prev1[i]
            left = np.full(i.size, np.inf)
            diag = np.full(i.size, np.inf)
            valid = i - 1 >= 0
            left[valid] = prev1[i[valid] - 1]
            diag[valid] = prev2[i[valid] - 1]
            cur[i] = np.maximum(cost, np.minimum(np.minimum(up, left), diag))
        prev2, prev1 = prev1, cur
    return float(prev1[n - 1])


def brute_force_m1(p1, p2, h: float = 0.02) -> tuple[float, float]:
    """(distance, error bound) from densified discrete Frechet matching."""
    from bigjump.m1 import completed_graph

    g1 = densify(completed_graph(p1), h)
    g2 = densify(completed_graph(p2), h)
    spacing = 0.0
    for g in (g1, g2):
        if len(g) > 1:
            d = np.maximum(np.abs(np.diff(g[:, 0])), np.abs(np.diff(g[:, 1])))
            if d.size:
                spacing = max(spacing, float(d.max()))
    return discrete_frechet_linf(g1, g2), spacing


def free_space_decision(g1: np.ndarray, g2: np.ndarray, eps: float) -> bool:
    """Alt & Godau's decision "a monotone matching of the polylines stays
    within eps" (max norm), cell by cell in plain Python."""

    def cheb(p, q):
        return max(abs(p[0] - q[0]), abs(p[1] - q[1]))

    def free(p, a, b):
        """[lo, hi] of the s in [0, 1] with a + s (b - a) within eps of p."""
        lo, hi = 0.0, 1.0
        for c in (0, 1):
            d = b[c] - a[c]
            if d == 0.0:
                if abs(a[c] - p[c]) > eps:
                    return None
                continue
            s0, s1 = (p[c] - eps - a[c]) / d, (p[c] + eps - a[c]) / d
            lo, hi = max(lo, min(s0, s1)), min(hi, max(s0, s1))
        return (lo, hi) if lo <= hi else None

    def reached(point, line):
        """Number of leading boundary edges reached from the origin."""
        count = 0
        for a, b in zip(line[:-1], line[1:]):
            iv = free(point, a, b)
            if iv is None or iv[0] > 0.0:
                break
            count += 1
            if iv[1] < 1.0:
                break
        return count

    if cheb(g1[0], g2[0]) > eps or cheb(g1[-1], g2[-1]) > eps:
        return False
    if len(g1) == 1 or len(g2) == 1:
        point, other = (g1[0], g2) if len(g1) == 1 else (g2[0], g1)
        return all(cheb(point, q) <= eps for q in other)
    n, m = len(g1) - 1, len(g2) - 1
    # lower ends of the reached parts of the left and bottom edges of cell (i, j)
    left = [[None] * m for _ in range(n + 1)]
    bottom = [[None] * (m + 1) for _ in range(n)]
    for j in range(reached(g1[0], g2)):
        left[0][j] = 0.0
    for i in range(reached(g2[0], g1)):
        bottom[i][0] = 0.0
    for i in range(n):
        for j in range(m):
            lft, bot = left[i][j], bottom[i][j]
            if lft is None and bot is None:
                continue
            right = free(g1[i + 1], g2[j], g2[j + 1])
            if right is not None:
                lo = right[0] if bot is not None else max(right[0], lft)
                left[i + 1][j] = lo if lo <= right[1] else None
            top = free(g2[j + 1], g1[i], g1[i + 1])
            if top is not None:
                lo = top[0] if lft is not None else max(top[0], bot)
                bottom[i][j + 1] = lo if lo <= top[1] else None
    return left[n - 1][m - 1] is not None or bottom[n - 1][m - 1] is not None


def bisection_bracket_plain(p1, p2, tol: float) -> tuple[float, float]:
    """M1 bracket by sequential bisection with one scalar decision per step,
    each on the full free space: no upper bound, no corridor and no batch.
    The start, the guard at hi and the stops are those of
    ``m1_distance_bracket``, so its bracket must be this one bit for bit."""
    from bigjump.m1 import _free_space_reachable, completed_graph, uniform_distance

    g1, g2 = completed_graph(p1), completed_graph(p2)
    if g2.tobytes() < g1.tobytes():
        g1, g2 = g2, g1
    hi = uniform_distance(p1, p2)
    lo = max(float(np.abs(g1[0] - g2[0]).max()), float(np.abs(g1[-1] - g2[-1]).max()))
    hi = max(hi, lo)
    if hi - lo <= tol:
        return lo, hi
    if _free_space_reachable(g1, g2, lo):
        return lo, lo
    while not _free_space_reachable(g1, g2, hi):
        hi = max(hi * (1.0 + 1e-12), hi + 1e-15)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _free_space_reachable(g1, g2, mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def quadrature_centering_oracle(lam, T, ex, nu, wait_cdf, ts, points: int = 5) -> np.ndarray:
    """Cumulative Gauss-Legendre integration of lam*ex*(1 + nu*F_W(s))."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(points)
    edges = np.asarray(ts) * T
    acc = np.zeros(len(edges))
    for i in range(len(edges) - 1):
        mid = 0.5 * (edges[i] + edges[i + 1])
        half = 0.5 * (edges[i + 1] - edges[i])
        s = mid + half * gl_x
        acc[i + 1] = acc[i] + half * float(np.dot(gl_w, lam * ex * (1.0 + nu * wait_cdf(s))))
    return acc


def branching_path_mean(lam, T, spec, wait, ts, n, rng, chunk: int = 250_000):
    """Mean of the uncentered branching path at times ts, with its standard
    error, by brute force over n clusters.

    `simulate_batch` places every generation at its cumulative offset from
    the immigrant.  The immigrants' arrivals at rate lam on [0, T] are
    integrated exactly, so a cluster contributes lam * sum mark * (tT - offset)+
    over its events.
    """
    from bigjump.clusters import simulate_batch

    u = np.asarray(ts, dtype=float) * T
    s1 = np.zeros(u.size)
    s2 = np.zeros(u.size)
    done = 0
    while done < n:
        b = min(chunk, n - done)
        batch = simulate_batch("hawkes", b, spec, wait, rng)
        for i, ui in enumerate(u):
            mass = batch.mark * np.maximum(ui - batch.offset, 0.0)
            per_cluster = lam * np.bincount(batch.cid, weights=mass, minlength=b)
            s1[i] += per_cluster.sum()
            s2[i] += per_cluster @ per_cluster
        done += b
    mean = s1 / n
    return mean, np.sqrt(np.maximum(s2 / n - mean**2, 0.0) / (n - 1))


def lattice_cdf_oracle(spec, u, m, up: bool, cells=None, branching: bool = False):
    """P(S <= m) for the cluster mass of a spec on the lattice h{0..m},
    h = u/m, with every mark rounded down (up=False) or up to the lattice
    and marks above u dropped, by direct recursion in the space domain:
    Panjer's (1981) recursion for Poisson(nu) counts, explicit convolution
    powers otherwise.  Comonotone counts K = ceil(eta X_0) sum the powers
    over the immigrant's cells, heavy counts weigh power k + 1 by
    P(K = k), and branching clusters (``branching``) weigh power n at cell
    j by (1/n) P(N(phi jh) = n - 1), from scipy.  Powers stop once their
    mass below u is under 1e-18.  O(m^2) per power.  With ``cells``
    (Poisson counts), the array of P(S <= j) for j in cells."""
    from scipy import stats

    law = spec.x_law
    e = u * np.arange(m + 1) / m
    q = law.tail(e[:-1]) - law.tail(e[1:])  # mass of (jh, (j+1)h]
    f = np.concatenate(([0.0], q)) if up else np.concatenate((q, [0.0]))
    if branching or spec.dependence == "heavy_k_light_x":
        total, power, n = np.zeros(m + 1), f, 1
        while power.sum() > 1e-18:
            if branching:
                weight = stats.poisson.pmf(n - 1, spec.phi * e) / n
            else:
                c, a = spec.k_param, spec.k_alpha
                weight = min(1.0, c * (n - 1) ** -a) if n > 1 else 1.0
                weight -= min(1.0, c * n**-a)  # P(K = n - 1) of K = floor(Y), P(Y > y) = c y^-a
            total += weight * power
            power = np.convolve(power, f)[: m + 1]
            n += 1
        return float(total.sum())
    if spec.dependence == "independent_light_k":
        nu = spec.k_param
        g = np.empty(m + 1)  # Poisson(nu) sum of marks
        g[0] = np.exp(nu * (f[0] - 1.0))
        j = np.arange(1, m + 1)
        for k in range(1, m + 1):
            g[k] = nu / k * np.dot(j[:k] * f[1 : k + 1], g[k - 1 :: -1])
        law = np.convolve(f, g)[: m + 1]
        return float(law.sum()) if cells is None else np.cumsum(law)[cells]
    eta = spec.k_param
    total = 0.0
    power = np.zeros(m + 1)
    power[0] = 1.0  # law of the sum of k child marks, k = 0 first
    for k in range(1, int(np.ceil(eta * u)) + 1):
        power = np.convolve(power, f)[: m + 1]
        lo, hi = (k - 1) / eta, k / eta  # ceil(eta x) = k on (lo, hi]
        a, b = np.maximum(e[:-1], lo), np.minimum(e[1:], hi)
        x0 = np.where(a < b, law.tail(a) - law.tail(b), 0.0)  # immigrant in cell j with K = k
        cells = np.arange(m) + (1 if up else 0)
        total += float(x0 @ np.cumsum(power)[m - cells])
    return total


def sup_exceed_sorted(rep, t, size, n, cent, x_T) -> np.ndarray:
    """Per-replication sup of flat jump arrays, by sorting; ``sup_exceed:c``
    holds where it exceeds c.  Lexsort by (replication, time), one cumsum over
    all jumps minus the replication's earlier total, and the max of 0 and the
    centered scaled value after each jump."""
    sup = np.zeros(n)
    if rep.size:
        order = np.lexsort((t, rep))
        r, ts, sz = rep[order], t[order], size[order]
        cum = np.cumsum(sz)
        starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
        cum = cum - np.repeat(np.r_[0.0, cum[starts[1:] - 1]], np.diff(np.r_[starts, r.size]))
        vals = (cum - cent(ts)) / x_T
        np.maximum.at(sup, r[starts], np.maximum.reduceat(vals, starts))
    return sup


def big_pool_plain(spec, wait, u, n_accept, rng, chunk: int = 200_000):
    """Clusters conditioned on D > u by plain rejection straight on
    `simulate_batch`: whole MB chunks until n_accept clusters have D > u.
    Returns the kept clusters' (K, D, immigrant mark, largest mark) in draw
    order, cut to n_accept, and the number of clusters drawn."""
    from bigjump.clusters import simulate_batch

    kept, drawn = [], 0
    got = 0
    while got < n_accept:
        batch = simulate_batch("mb", chunk, spec, wait, rng)
        drawn += chunk
        total = batch.totals()
        largest = np.full(chunk, -np.inf)
        np.maximum.at(largest, batch.cid, batch.mark)
        ok = total > u
        size = np.bincount(batch.cid, minlength=chunk)
        kept.append(np.stack([size[ok] - 1, total[ok], batch.mark[: batch.n][ok], largest[ok]]))
        got += int(ok.sum())
    k, d, x0, top = np.concatenate(kept, axis=1)[:, :n_accept]
    return k.astype(np.int64), d, x0, top, drawn


def sobol_excess_mass(measure, j: int, c: float, n_pow: int = 17, reps: int = 8) -> tuple[float, float]:
    """(estimate, se) of the mass of j coordinates of the y0-truncated
    limit measure with sum > c: the first j - 1 coordinates at 2^n_pow
    scrambled Sobol points (scipy.stats.qmc) on the tail-mass scale, the
    last one exactly; the se is the spread over ``reps`` scramblings."""
    from scipy.stats import qmc

    C, a, y0, M0 = measure.constant, measure.alpha, measure.y0, measure.total_mass
    estimates = []
    for rep in range(reps):
        u = qmc.Sobol(d=j - 1, scramble=True, seed=rep).random(2**n_pow) * M0
        rest = c - ((C / np.maximum(u, 1e-300)) ** (1.0 / a)).sum(axis=1)
        inner = np.where(rest <= y0, M0, C * np.maximum(rest, y0) ** -a)
        estimates.append(M0 ** (j - 1) * inner.mean())
    return float(np.mean(estimates)), float(np.std(estimates, ddof=1) / np.sqrt(reps))


def pareto_pair_tail(scale: float, alpha: float, c: float) -> float:
    """P(X_1 + X_2 > c), X_i i.i.d. Pareto(scale, alpha), c > 2 scale:
    P(X_1 > c - scale) + int_scale^(c - scale) f(x) P(X_2 > c - x) dx by
    scipy's adaptive quadrature, split at c/2, an oracle independent of
    the lattice."""
    from scipy import integrate

    tail = lambda x: (x / scale) ** -alpha
    density = lambda x: alpha / scale * (x / scale) ** (-alpha - 1.0)
    inner, _ = integrate.quad(
        lambda x: density(x) * tail(c - x), scale, c - scale,
        points=[0.5 * c], limit=500, epsabs=1e-15, epsrel=1e-13,
    )
    return tail(c - scale) + inner


def dk_skeleton(path, k: int):
    """Pure-jump path keeping the min(k+1, count) largest jumps in place."""
    from bigjump.paths import build_jump_path

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


def jump_path_loop(times, sizes):
    """Node table (t, left, right) of the pure-jump path, one jump at a time;
    equal times merge by summation and a jump at 0 sets the first right value."""
    times = np.asarray(times, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    if times.size:
        order = np.argsort(times, kind="stable")
        times, sizes = times[order], sizes[order]
        uniq, inv = np.unique(times, return_inverse=True)
        times, sizes = uniq, np.bincount(inv, weights=sizes)
    cum = np.cumsum(sizes) if sizes.size else np.empty(0)
    t_nodes, left, right = [0.0], [0.0], [0.0]
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
    return np.array(t_nodes), np.array(left), np.array(right)


def completed_graph_loop(path) -> np.ndarray:
    """Completed-graph vertices, node by node: (t, left), then (t, right)
    where the path jumps."""
    verts = []
    for t, l, r in zip(path.t, path.left, path.right):
        if not verts or verts[-1] != (t, l):
            verts.append((float(t), float(l)))
        if r != l:
            verts.append((float(t), float(r)))
    return np.asarray(verts, dtype=float)


def anatomy_summary_loop(rep, t, size, hits, m: int) -> dict:
    """The anatomy summary one hit replication at a time, from jump arrays
    in (replication, time) order: top-m and top-1 shares of its total, and
    the time spread of its top m (of equal jumps the earlier first); each
    quantile is the first sorted value whose rank i + 1 has (i + 1)/n >= q."""
    bounds = np.searchsorted(rep, np.arange(hits.size + 1))
    shares, top1, spreads = [], [], []
    for rid in np.flatnonzero(hits):
        sizes, times = size[bounds[rid] : bounds[rid + 1]], t[bounds[rid] : bounds[rid + 1]]
        if sizes.size == 0:
            continue
        total = float(sizes.sum())
        top = np.argsort(-sizes, kind="stable")[:m]
        shares.append(float(sizes[top].sum()) / total)
        top1.append(float(sizes.max()) / total)
        spreads.append(float(times[top].max() - times[top].min()))
    keys = ("median_top_share", "q10_top_share", "q90_top_share", "median_top1_share", "median_time_spread")
    if not shares:
        return dict.fromkeys(keys, np.nan)

    def quantile(values, q):
        v = sorted(values)
        return next(x for i, x in enumerate(v) if (i + 1) / len(v) >= q)

    quantiles = [(shares, 0.5), (shares, 0.1), (shares, 0.9), (top1, 0.5), (spreads, 0.5)]
    return {key: quantile(v, q) for key, (v, q) in zip(keys, quantiles)}


def mb_centering_closed_form(lam, T, spec, wait, ts) -> np.ndarray:
    """Mean cumulative mass of the single-generation model at times ts,
    lam E[X] (u + E[K] (u - G(u))) with G(u) = int_0^u P(W > s) ds in closed
    form per wait family.  Mark-conditional waits take the mark expectation by
    256-point Gauss-Legendre on the quantile scale and book the offspring it
    misses (a Pareto law's singular end) at lag 0."""
    u = np.asarray(ts, dtype=float) * T
    ex, kmean, law = spec.x_law.mean(), spec.mean_offspring(), wait.law
    if wait.conditional_on_mark:
        g, w = np.polynomial.legendre.leggauss(256)
        xs, ws = spec.x_law.quantile(0.5 * (g + 1.0)), 0.5 * w
        kx = np.ceil(spec.k_param * xs) if spec.dependence == "comonotone" else np.full_like(xs, kmean)
        sc = law.scale / (1.0 + xs)
        h = u[:, None] - sc * -np.expm1(-u[:, None] / sc)
        return lam * ex * (u + h @ (kx * ws) + u * (kmean - kx @ ws))
    if law.family == "exponential":
        G = law.scale * -np.expm1(-u / law.scale)
    elif law.family == "deterministic":
        G = np.minimum(u, law.scale)
    else:
        s0, a = law.scale, law.alpha
        G = np.where(u <= s0, u, s0 + s0 / (a - 1.0) * (1.0 - np.power(np.maximum(u, s0) / s0, 1.0 - a)))
    return lam * ex * (u + kmean * (u - G))
