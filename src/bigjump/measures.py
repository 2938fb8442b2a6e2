"""Closed-form and quadrature evaluation of the heavy-tail limit measures.

The one-dimensional measure has tail C * y^(-alpha) under the normalization
v(x) = 1/P(X > x) against the mark law, which makes every ratio the
estimators report dimensionless.  Multi-jump quantities integrate the
product measure; coordinates are truncated below at y0 only where the
measure's infinite mass at 0 would otherwise diverge.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import ConfigurationError
from .laws import COMONOTONE, INDEPENDENT_LIGHT_K, JointMarkSpec, mean_ceil

__all__ = [
    "LimitMeasure",
    "measure_for_model",
    "mu_tail",
    "mu_bar_tail",
    "mu_sharp",
]

MB_INDEPENDENT = "MB-independent"
MB_COMONOTONE = "MB-comonotone"
HAWKES_COMONOTONE = "Hawkes-comonotone"


@dataclass(frozen=True)
class LimitMeasure:
    """mu((y, inf)) = constant * y^(-alpha) for y >= y0."""

    alpha: float
    constant: float
    model: str
    y0: float = 1.0

    @property
    def total_mass(self) -> float:
        """Mass of the y0-truncated measure."""
        return self.constant * self.y0 ** (-self.alpha)


def measure_for_model(model: str, spec: JointMarkSpec, y0: float | None = None) -> LimitMeasure:
    """Closed-form limit constant for the configured cluster model."""
    law = spec.x_law
    if not law.heavy:
        raise ConfigurationError("limit measures require a regularly varying mark law")
    alpha = law.alpha
    ex = law.mean()
    if y0 is None:
        y0 = law.scale
    if model == "hawkes":
        kbar = spec.mean_fertility
        if not kbar < 1.0:
            raise ConfigurationError("supercritical fertility")
        mult = 1.0 + spec.phi * ex / (1.0 - kbar)
        c = mult**alpha / (1.0 - kbar)
        return LimitMeasure(alpha, c, HAWKES_COMONOTONE, y0)
    if model == "mb":
        if spec.dependence == INDEPENDENT_LIGHT_K:
            return LimitMeasure(alpha, 1.0 + spec.k_param, MB_INDEPENDENT, y0)
        if spec.dependence == COMONOTONE:
            eta = spec.k_param
            c = (1.0 + eta * ex) ** alpha + mean_ceil(eta, law)
            return LimitMeasure(alpha, c, MB_COMONOTONE, y0)
        raise ConfigurationError(
            "no closed-form limit constant for heavy_k_light_x offspring"
        )
    raise ConfigurationError(f"unknown model {model!r}")


def mu_tail(measure: LimitMeasure, y: float) -> float:
    """mu((y, inf)) = C * y^(-alpha)."""
    if y <= 0:
        raise ValueError("y must be positive")
    return measure.constant * y ** (-measure.alpha)


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (x, w)
    return _GL_CACHE[n]


def _excess_mass(measure: LimitMeasure, j: int, c, n_gl: int = 256) -> np.ndarray:
    """Product-measure mass of j coordinates, each >= y0, with sum > c.

    The innermost coordinate is integrated exactly; outer coordinates use
    Gauss-Legendre on the tail-probability scale, split at the saturation
    kink so the integrand stays smooth.
    """
    C, a, y0 = measure.constant, measure.alpha, measure.y0
    M0 = measure.total_mass
    c = np.asarray(c, dtype=float)
    if j == 0:
        return np.where(c < 0.0, 1.0, 0.0)
    if j == 1:
        return np.where(c <= y0, M0, C * np.maximum(c, y0) ** (-a))
    out = np.empty_like(c)
    sat = c <= j * y0
    out[sat] = M0**j
    rest = ~sat
    if np.any(rest):
        cr = c[rest]
        # coordinates with Q(u) >= c - (j-1) y0 saturate the remaining sum
        ustar = C * (cr - (j - 1) * y0) ** (-a)
        x, w = _gl(n_gl)
        half = 0.5 * (M0 - ustar)
        u = ustar[:, None] + half[:, None] * (x[None, :] + 1.0)
        q = (C / u) ** (1.0 / a)
        inner = _excess_mass(measure, j - 1, (cr[:, None] - q).ravel(), n_gl).reshape(u.shape)
        out[rest] = M0 ** (j - 1) * ustar + half * (inner @ w)
    return out


def _excess_mass_qmc(measure: LimitMeasure, j: int, c: float, n_pow: int = 17) -> tuple[float, float]:
    """Quasi-random fallback for deep products, with an error estimate."""
    from scipy.stats import qmc

    M0 = measure.total_mass
    C, a = measure.constant, measure.alpha
    estimates = []
    for rep in range(8):
        eng = qmc.Sobol(d=j - 1, scramble=True, seed=rep)
        u = eng.random(2**n_pow) * M0
        q = (C / np.maximum(u, 1e-300)) ** (1.0 / a)
        inner = _excess_mass(measure, 1, c - q.sum(axis=1))
        estimates.append(M0 ** (j - 1) * inner.mean())
    est = float(np.mean(estimates))
    err = float(np.std(estimates, ddof=1) / np.sqrt(len(estimates)))
    return est, err


def mu_bar_tail(
    measure: LimitMeasure, lam: float, k: int, c: float, return_error: bool = False
):
    """(lam^(k+1)/(k+1)!) * mass{sum of k+1 coordinates > c}.

    Exact for k = 0 (no truncation); k in {1, 2} by deterministic nested
    quadrature on the y0-truncated measure; k >= 3 by scrambled Sobol
    integration with a reported error estimate.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    if k < 0:
        raise ValueError("k must be >= 0")
    pref = lam ** (k + 1) / factorial(k + 1)
    if k == 0:
        val = pref * measure.constant * c ** (-measure.alpha)
        return (val, 0.0) if return_error else val
    if k <= 2:
        val = pref * float(_excess_mass(measure, k + 1, np.array([c]))[0])
        return (val, None) if return_error else val
    raw, err = _excess_mass_qmc(measure, k + 1, c)
    val = pref * raw
    return (val, pref * err) if return_error else val


def mu_sharp(measure: LimitMeasure, lam: float, k: int, event) -> float:
    """Limit mass of the path event under the (k+1)-jump product measure, as
    computed by the event's ``limit_mass`` (see ``bigjump.events``)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return event.limit_mass(measure, lam, k)
