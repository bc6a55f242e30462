"""Independent reference computations the unit tests compare against.

Everything here is deliberately naive: dense grids, textbook formulas,
fresh solves.  Nothing imports the solver internals being tested.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from destrade import PricePair, city_responses, profit

# Grid cells skipped on each side of a detected case switch when probing
# curvature; the response is only piecewise smooth there.
KINK_GUARD_CELLS = 2


def profit_at(city, side: str, p: PricePair) -> float:
    """One aggregator's profit at p, solving the responses there."""
    return profit(city, side, p, city_responses(city, p))


def decoupled_price_optimum(city, side: str) -> float:
    """Closed-form profit-maximising price of one side for one community.

    Exact when the community has no use floor and its response stays
    interior, which decouples the two price searches.
    """
    com = city.communities[0]
    if side == "e":
        r, k, cap, b = city.r_e, com.k_e, city.chp.elec_capacity, com.b_e
    else:
        r, k, cap, b = city.r_h, com.k_h, city.chp.heat_capacity, com.b_h
    return math.sqrt(r * k / (cap + 1.0 / b))


def concavity_probe(city, p_other: float, n_grid: int,
                    side: str = "e") -> Tuple[float, float]:
    """Worst centered second difference of one aggregator's profit.

    Scans n_grid points across the side's price interval holding the
    other price fixed.  Returns (worst_second_difference, profit_scale).
    Stencils within KINK_GUARD_CELLS cells of a case switch in any
    community are excluded; concavity is a per-piece property.
    """
    lo, hi = city.price_box()[0 if side == "e" else 1]
    step = (hi - lo) / (n_grid - 1)
    values: List[float] = []
    tags: List[tuple] = []
    for i in range(n_grid):
        price = lo + i * step
        p = PricePair(price, p_other) if side == "e" else PricePair(p_other, price)
        responses = city_responses(city, p)
        values.append(profit(city, side, p, responses))
        tags.append(tuple(r.case for r in responses))

    switch = [i for i in range(1, n_grid) if tags[i] != tags[i - 1]]
    worst = -math.inf
    for i in range(1, n_grid - 1):
        if any(abs(i - s) <= KINK_GUARD_CELLS or abs(i - (s - 1)) <= KINK_GUARD_CELLS
               for s in switch):
            continue
        worst = max(worst, values[i - 1] - 2.0 * values[i] + values[i + 1])
    return worst, max(abs(v) for v in values)


def grid_best_utility(chp, com, p, n: int) -> float:
    """Max community welfare on an (n+1)x(n+1) dispatch grid with the floor.

    Separability lets the 2-D max collapse to a suffix-max sweep: for
    each alpha index the cheapest feasible beta index is computed, and a
    running max of the beta profile from the right gives the best
    feasible beta in O(1).  Exactly equals the literal 2-D scan.
    """
    x, y = chp.elec_capacity, chp.heat_capacity
    alphas = np.linspace(0.0, 1.0, n + 1)
    betas = np.linspace(0.0, 1.0, n + 1)
    f = com.k_e * np.log1p(com.b_e * x * alphas) - p.p_e * x * alphas
    g = com.k_h * np.log1p(com.b_h * y * betas) - p.p_h * y * betas
    const = p.p_e * x + p.p_h * y - chp.fuel_cost
    suffix = np.maximum.accumulate(g[::-1])[::-1]
    if com.m_min == 0.0:
        return float(f.max() + suffix[0] + const)
    need = (com.m_min - x * alphas) / y
    j_min = np.ceil(need * n - 1e-9).astype(int)
    j_min = np.clip(j_min, 0, n + 1)
    feasible = j_min <= n
    if not feasible.any():
        raise ValueError("empty feasible grid")
    best = f[feasible] + suffix[j_min[feasible]]
    return float(best.max() + const)


def grid_best_utility_literal(chp, com, p, n: int) -> float:
    """Plain masked 2-D scan; only sane for small n."""
    x, y = chp.elec_capacity, chp.heat_capacity
    alphas = np.linspace(0.0, 1.0, n + 1)
    betas = np.linspace(0.0, 1.0, n + 1)
    aa, bb = np.meshgrid(alphas, betas, indexing="ij")
    u = (com.k_e * np.log1p(com.b_e * x * aa)
         + com.k_h * np.log1p(com.b_h * y * bb)
         + p.p_e * x * (1.0 - aa) + p.p_h * y * (1.0 - bb)
         - chp.fuel_cost)
    mask = x * aa + y * bb >= com.m_min - 1e-9 * max(com.m_min, 1.0)
    return float(u[mask].max())


def quad_roots_textbook(a: float, b: float, c: float) -> Tuple[float, ...]:
    """Plain quadratic formula, ascending."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    sq = math.sqrt(disc)
    return tuple(sorted(((-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a))))


def scan_argmax(f: Callable[[float], float], lo: float, hi: float,
                n: int) -> Tuple[float, float]:
    """Dense-scan maximiser of a scalar function; returns (x, f(x))."""
    xs = np.linspace(lo, hi, n)
    vals = [f(float(v)) for v in xs]
    i = int(np.argmax(vals))
    return float(xs[i]), vals[i]


def reference_walk(city, start: PricePair, delta0: float, decay: float,
                   max_iters: int) -> Tuple[Optional[PricePair], List[tuple]]:
    """The price walk solving every probe and the trace point afresh.

    Seven city evaluations per iteration: three probes per side (stay,
    up, down) and one trace point.  Returns the fixed point, or None
    when the budget runs out, and the trace rows as
    (iteration, p_e, p_h, v_e, v_h, delta).
    """
    (lo_e, hi_e), (lo_h, hi_h) = city.price_box()

    def step(own, lo, hi, side, at, delta):
        v0 = profit_at(city, side, at(own))
        vp = profit_at(city, side, at(own + delta))
        vm = profit_at(city, side, at(own - delta))
        if vp >= v0 and vp >= vm:
            return min(hi, own + delta)
        if vm >= v0 and vm > vp:
            return max(lo, own - delta)
        return own

    p_e, p_h = start.p_e, start.p_h
    delta = delta0
    rows: List[tuple] = []
    for it in range(max_iters):
        before = (p_e, p_h)
        p_e = step(p_e, lo_e, hi_e, "e", lambda x: PricePair(x, p_h), delta)
        p_h = step(p_h, lo_h, hi_h, "h", lambda x: PricePair(p_e, x), delta)
        pair = PricePair(p_e, p_h)
        responses = city_responses(city, pair)
        rows.append((it, p_e, p_h, profit(city, "e", pair, responses),
                     profit(city, "h", pair, responses), delta))
        if (p_e, p_h) == before:
            return pair, rows
        delta *= decay
    return None, rows
