"""Closed-form and lattice evaluation of the heavy-tail limit measures.

The one-dimensional measure has tail C * y^(-alpha) under the normalization
v(x) = 1/P(X > x) against the mark law, which makes every ratio the
estimators report dimensionless.  Multi-jump quantities are masses of the
product measure, from the lattice law of a sum of Pareto coordinates;
coordinates are truncated below at y0 only where the measure's infinite
mass at 0 would otherwise diverge.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial, inf

from .errors import ConfigurationError
from .laws import COMONOTONE, INDEPENDENT_LIGHT_K, PARETO, JointMarkSpec, TailLaw, mean_ceil, sum_tail_bracket

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
    """mu((y, inf)) = constant * y^(-alpha) for y >= y0.  ``brackets``
    keeps the lattice brackets `_excess_mass` computed, by (j, c), so the
    limit masses of one measure share them."""

    alpha: float
    constant: float
    model: str
    y0: float = 1.0
    brackets: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def total_mass(self) -> float:
        """Mass of the y0-truncated measure."""
        return self.constant * self.y0 ** (-self.alpha)


def measure_for_model(model: str, spec: JointMarkSpec) -> LimitMeasure:
    """Closed-form limit constant for the configured cluster model."""
    law = spec.x_law
    if not law.heavy:
        raise ConfigurationError("limit measures require a regularly varying mark law")
    alpha = law.alpha
    ex = law.mean()
    if model == "hawkes":
        kbar = spec.mean_fertility
        if not kbar < 1.0:
            raise ConfigurationError("supercritical fertility")
        mult = 1.0 + spec.phi * ex / (1.0 - kbar)
        c = mult**alpha / (1.0 - kbar)
        return LimitMeasure(alpha, c, HAWKES_COMONOTONE, law.scale)
    if model == "mb":
        if spec.dependence == INDEPENDENT_LIGHT_K:
            return LimitMeasure(alpha, 1.0 + spec.k_param, MB_INDEPENDENT, law.scale)
        if spec.dependence == COMONOTONE:
            eta = spec.k_param
            c = (1.0 + eta * ex) ** alpha + mean_ceil(eta, law)
            return LimitMeasure(alpha, c, MB_COMONOTONE, law.scale)
        raise ConfigurationError(
            "no closed-form limit constant for heavy_k_light_x offspring"
        )
    raise ConfigurationError(f"unknown model {model!r}")


def _tail_mass(measure: LimitMeasure, y: float, pref: float = 1.0, power: int | None = None) -> float:
    """pref * C * y^(-alpha), or with ``power`` pref * (C * y^(-alpha))^power
    (the two round differently); a ValueError naming y where it overflows a
    float."""
    try:
        if power is None:
            out = pref * measure.constant * y ** (-measure.alpha)
        else:
            out = pref * (measure.constant * y ** (-measure.alpha)) ** power
    except OverflowError:
        out = inf
    if out == inf:
        mass = "C*y^(-alpha)" if power is None else f"(C*y^(-alpha))^{power}"
        raise ValueError(f"the limit mass {mass} overflows a float at y={y!r}")
    return out


def mu_tail(measure: LimitMeasure, y: float) -> float:
    """mu((y, inf)) = C * y^(-alpha)."""
    if y <= 0:
        raise ValueError("y must be positive")
    return _tail_mass(measure, y)


def _excess_mass(measure: LimitMeasure, powers, c: float) -> list[tuple[float, float]]:
    """(mass, half-width) of {sum of j coordinates, each >= y0, > c} for each
    j >= 1 in ``powers``: M0^j for c <= j y0; else C c^(-alpha) for j = 1
    (half-width 0), and for j >= 2 M0^j P(X_1 + ... + X_j > c), X_i i.i.d.
    Pareto(y0, alpha), as the midpoint of `laws.sum_tail_bracket`, whose one
    transform serves every j not yet in ``measure.brackets``, with its
    half-width."""
    C, a, y0, M0 = measure.constant, measure.alpha, measure.y0, measure.total_mass
    brackets = measure.brackets
    lattice = [j for j in powers if j >= 2 and c > j * y0 and (j, c) not in brackets]
    if lattice:
        brackets.update(zip(((j, c) for j in lattice), sum_tail_bracket(TailLaw(PARETO, y0, a), lattice, c)))

    def mass(j):
        if c <= j * y0:
            return M0**j, 0.0
        if j == 1:
            return C * c ** (-a), 0.0
        lo, hi, err = brackets[j, c]
        return M0**j * min(max(0.5 * (lo + hi), 0.0), 1.0), M0**j * (0.5 * (hi - lo) + err)
    return [mass(j) for j in powers]


def order_prefactor(lam: float, k: int) -> float:
    """lam^(k+1)/(k+1)!; a ValueError naming k where it overflows a float."""
    try:
        return lam ** (k + 1) / factorial(k + 1)
    except OverflowError:
        raise ValueError(f"lambda_rate^(k+1)/(k+1)! overflows a float at k={k}") from None


def mu_bar_tail(measure: LimitMeasure, lam: float, k: int, c: float) -> float:
    """(lam^(k+1)/(k+1)!) * mass{sum of k+1 coordinates > c}.

    Exact for k = 0 (no truncation); for k >= 1, on the y0-truncated
    measure, the midpoint of a deterministic lattice bracket, whose
    half-width `_excess_mass` reports.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    if k < 0:
        raise ValueError("k must be >= 0")
    pref = order_prefactor(lam, k)
    if k == 0:
        return _tail_mass(measure, c, pref)
    [(mass, _)] = _excess_mass(measure, [k + 1], c)
    return pref * mass


def mu_sharp(measure: LimitMeasure, lam: float, k: int, event) -> float:
    """Limit mass of the path event under the (k+1)-jump product measure, as
    computed by the event's ``limit_mass`` (see ``bigjump.events``)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return event.limit_mass(measure, lam, k)
