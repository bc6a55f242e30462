"""Aggregator-side profit evaluation and structure checks.

Both aggregators buy exports at their posted wholesale price and resell
at the city retail rate, so profit is margin times the export volume the
communities choose in best response.  Profit in each price is piecewise
smooth and concave piece by piece; probes below mask a small window
around case switches where one-sided kinks live.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from .follower import KktCase, KktSolution, best_response, response_derivative_alpha
from .market import CityMarket, PricePair

# Grid cells skipped on each side of a detected case switch when probing
# curvature or slopes; the response is only piecewise smooth there.
KINK_GUARD_CELLS = 2


def city_responses(city: CityMarket, p: PricePair) -> List[KktSolution]:
    """Best response of every community at prices p, in community order."""
    return [best_response(city.chp, com, p) for com in city.communities]


def profit_e(city: CityMarket, p: PricePair,
             responses: Sequence[KktSolution] = None) -> float:
    """Electricity aggregator's daily margin at prices p."""
    if responses is None:
        responses = city_responses(city, p)
    x = city.chp.elec_capacity
    exc = sum(x * (1.0 - r.dispatch.alpha) for r in responses)
    return (city.r_e - p.p_e) * exc


def profit_h(city: CityMarket, p: PricePair,
             responses: Sequence[KktSolution] = None) -> float:
    """Heat aggregator's daily margin at prices p."""
    if responses is None:
        responses = city_responses(city, p)
    y = city.chp.heat_capacity
    exc = sum(y * (1.0 - r.dispatch.beta) for r in responses)
    return (city.r_h - p.p_h) * exc


def profit_e_derivative(city: CityMarket, p: PricePair) -> float:
    """Analytic d(profit_e)/d(p_e), valid away from case switches.

    Each community contributes its lost margin on current volume plus
    the margin on the volume released as its use fraction slides.
    """
    x = city.chp.elec_capacity
    margin = city.r_e - p.p_e
    total = 0.0
    for com in city.communities:
        sol = best_response(city.chp, com, p)
        slope = response_derivative_alpha(city.chp, com, p, sol.case)
        total += -x * ((1.0 - sol.dispatch.alpha) + margin * slope)
    return total


def decoupled_price_optimum(city: CityMarket, com_index: int = 0) -> float:
    """Closed-form profit-maximising p_e for one unsaturated community.

    Exact when the community has no use floor and its response stays
    interior, which decouples the two price searches.
    """
    com = city.communities[com_index]
    x = city.chp.elec_capacity
    return math.sqrt(city.r_e * com.k_e / (x + 1.0 / com.b_e))


def clamp_optimum(p: float, lo: float, hi: float) -> float:
    """Project an unconstrained optimiser onto the admissible interval."""
    if lo > hi:
        raise ValueError("empty interval")
    return lo if p < lo else hi if p > hi else p


# ============================================================
# curvature probe
# ============================================================


def concavity_probe(city: CityMarket, p_other: float, n_grid: int,
                    side: str = "e") -> Tuple[float, float]:
    """Worst centered second difference of one aggregator's profit.

    Scans n_grid points across the admissible price interval of the
    chosen side ("e" or "h") holding the other price fixed.  Returns
    (worst_second_difference, profit_scale).  Stencils within
    KINK_GUARD_CELLS cells of a case switch in any community are
    excluded; concavity is a per-piece property.
    """
    if n_grid < 3:
        raise ValueError("need at least 3 grid points")
    (lo_e, hi_e), (lo_h, hi_h) = city.price_box()
    if side == "e":
        lo, hi = lo_e, hi_e
    elif side == "h":
        lo, hi = lo_h, hi_h
    else:
        raise ValueError("side must be 'e' or 'h'")
    step = (hi - lo) / (n_grid - 1)

    values: List[float] = []
    tags: List[Tuple[KktCase, ...]] = []
    for i in range(n_grid):
        price = lo + i * step
        p = PricePair(price, p_other) if side == "e" else PricePair(p_other, price)
        responses = city_responses(city, p)
        v = profit_e(city, p, responses) if side == "e" else profit_h(city, p, responses)
        values.append(v)
        tags.append(tuple(r.case for r in responses))

    switch = [i for i in range(1, n_grid) if tags[i] != tags[i - 1]]
    worst = -math.inf
    for i in range(1, n_grid - 1):
        if any(abs(i - s) <= KINK_GUARD_CELLS or abs(i - (s - 1)) <= KINK_GUARD_CELLS
               for s in switch):
            continue
        d2 = values[i - 1] - 2.0 * values[i] + values[i + 1]
        worst = max(worst, d2)
    scale = max(abs(v) for v in values)
    return worst, scale
