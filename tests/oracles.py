"""Independent reference computations the unit tests compare against.

Everything here is deliberately naive: dense grids, textbook formulas,
fresh solves.  Nothing imports the solver internals being tested.
"""

from __future__ import annotations

import math
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from destrade import (ChpParams, CommunityParams, Dispatch, FollowerError, KktCase,
                      KktSolution, PricePair, best_response)
from destrade.follower import SATURATION_TOL, SIGN_TOL

# Grid cells skipped on each side of a detected case switch when probing
# curvature; the response is only piecewise smooth there.
KINK_GUARD_CELLS = 2


def city_responses(city, p: PricePair) -> List[KktSolution]:
    """Every community's best response at p, one solve each, in order."""
    return [best_response(city.chp, com, p) for com in city.communities]


def margin_profit(city, side: str, p: PricePair, responses) -> float:
    """One aggregator's margin times the exports in responses at p.

    The exports are added one by one, left to right in community order,
    as the walk adds them; sum() would not pin that order, since from
    Python 3.12 it adds floats with compensation.
    """
    if side == "e":
        cap, margin, i = city.chp.elec_capacity, city.r_e - p.p_e, 0
    elif side == "h":
        cap, margin, i = city.chp.heat_capacity, city.r_h - p.p_h, 1
    else:
        raise ValueError("side must be 'e' or 'h'")
    total = 0.0
    for r in responses:
        total += cap * (1.0 - r[i])
    return margin * total


def profit_at(city, side: str, p: PricePair) -> float:
    """One aggregator's profit at p, solving the responses there."""
    return margin_profit(city, side, p, city_responses(city, p))


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
        values.append(margin_profit(city, side, p, responses))
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
        rows.append((it, p_e, p_h, margin_profit(city, "e", pair, responses),
                     margin_profit(city, "h", pair, responses), delta))
        if (p_e, p_h) == before:
            return pair, rows
        delta *= decay
    return None, rows


# ============================================================
# reference best response
# ============================================================
#
# The KKT case walk as a chain of small helpers building a nested record,
# kept to check that follower's case walk, which inlines all of it on
# plain floats, and the inline cases of export_totals give the same
# floats, case and error at every price.

# The reference builds its dispatches unchecked, like the walk.
_unchecked = tuple.__new__


class ReferenceSolution(NamedTuple):
    """The reference's record: a nested dispatch, the case, the multipliers."""

    dispatch: Dispatch
    case: KktCase
    lam1: float = 0.0
    lam2: float = 0.0
    lam3: float = 0.0

    def fields(self) -> tuple:
        """(alpha, beta, case, lam1, lam2, lam3), KktSolution's field order."""
        return (self.dispatch.alpha, self.dispatch.beta, self.case,
                self.lam1, self.lam2, self.lam3)


def _alpha_stat(chp: ChpParams, com: CommunityParams, p_e: float,
                lam: float = 0.0) -> float:
    """Unclipped stationary use fraction for electricity at shadow price lam."""
    return (com.k_e / (p_e - lam) - 1.0 / com.b_e) / chp.elec_capacity


def _beta_stat(chp: ChpParams, com: CommunityParams, p_h: float,
               lam: float = 0.0) -> float:
    return (com.k_h / (p_h - lam) - 1.0 / com.b_h) / chp.heat_capacity


def interior_stationary(chp: ChpParams, com: CommunityParams,
                        p: PricePair) -> Dispatch:
    """Stationary dispatch ignoring every constraint.

    Raises FollowerError when a fraction leaves (0, 1); with in-range
    satisfaction coefficients and in-box prices that cannot happen, so
    it flags a caller bug.
    """
    a = _alpha_stat(chp, com, p.p_e)
    b = _beta_stat(chp, com, p.p_h)
    if not 0.0 < a < 1.0 or not 0.0 < b < 1.0:
        raise FollowerError(f"stationary dispatch ({a}, {b}) outside (0, 1)")
    return Dispatch(a, b)


def lambda1_quadratic(chp: ChpParams, com: CommunityParams,
                      p: PricePair) -> Tuple[float, float, float]:
    """Coefficients (A, B, C) of the floor multiplier quadratic.

    Derived by substituting both border-stationary fractions into the
    binding floor.  For a binding floor B < 0 and C > 0.
    """
    a_coef = com.m_min + 1.0 / com.b_e + 1.0 / com.b_h
    b_coef = com.k_e + com.k_h - a_coef * (p.p_e + p.p_h)
    c_coef = a_coef * p.p_e * p.p_h - com.k_e * p.p_h - com.k_h * p.p_e
    return a_coef, b_coef, c_coef


def lambda1_roots(chp: ChpParams, com: CommunityParams,
                  p: PricePair) -> Tuple[float, ...]:
    """Real roots of the floor multiplier quadratic, ascending.

    Uses the product-form branch to avoid cancellation in the smaller
    root.  Returns () when the discriminant is negative.
    """
    a, b, c = lambda1_quadratic(chp, com, p)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    if disc == 0.0:
        return (-b / (2.0 * a),)
    sq = math.sqrt(disc)
    q = -0.5 * (b - sq) if b < 0.0 else -0.5 * (b + sq)
    r1, r2 = q / a, c / q
    return (r1, r2) if r1 <= r2 else (r2, r1)


def _border_solution(chp: ChpParams, com: CommunityParams, p: PricePair,
                     ) -> Optional[Tuple[float, float, float]]:
    """(lam1, alpha, beta) with both fractions stationary on the floor.

    The valid multiplier must sit strictly between 0 and both prices;
    returns None when no root qualifies.
    """
    for lam in lambda1_roots(chp, com, p):
        if 0.0 < lam < min(p.p_e, p.p_h):
            a = _alpha_stat(chp, com, p.p_e, lam)
            b = _beta_stat(chp, com, p.p_h, lam)
            return lam, a, b
    return None


def reference_best_response(chp: ChpParams, com: CommunityParams,
                            p: PricePair) -> ReferenceSolution:
    """Globally optimal dispatch for one community at prices p.

    Total for any positive prices near the admissible box, including
    the one-step-outside probes used by equilibrium search.  Cases are
    tried in order: free optimum, floor-bound optimum, then each stream
    saturated (with and without the floor).  Strict concavity makes the
    first case with valid multipliers the unique optimum.
    """
    x, y = chp.elec_capacity, chp.heat_capacity
    m = com.m_min
    # _alpha_stat/_beta_stat at lam = 0, inline: p - 0.0 == p, same float.
    a0 = (com.k_e / p.p_e - 1.0 / com.b_e) / x
    b0 = (com.k_h / p.p_h - 1.0 / com.b_h) / y
    sat_a = a0 >= 1.0 - SATURATION_TOL
    sat_b = b0 >= 1.0 - SATURATION_TOL
    if sat_a and sat_b:
        # Needs both prices below cost by a wide margin; unreachable from
        # admissible coefficients and near-box prices.
        raise FollowerError("both streams saturated; outside modeled envelope")

    if m == 0.0:
        # No floor.  Clip each stream independently; a price far above
        # retail can push a stationary fraction to 0, clip there too.
        if sat_a:
            lam2 = x * (com.k_e * com.b_e / math.e - p.p_e)
            return ReferenceSolution(_unchecked(Dispatch, (1.0, _clip01(b0))),
                                     KktCase.ALPHA_SATURATED, lam2=max(lam2, 0.0))
        if sat_b:
            lam3 = y * (com.k_h * com.b_h / math.e - p.p_h)
            return ReferenceSolution(_unchecked(Dispatch, (_clip01(a0), 1.0)),
                                     KktCase.BETA_SATURATED, lam3=max(lam3, 0.0))
        return ReferenceSolution(_unchecked(Dispatch, (_clip01(a0), _clip01(b0))),
                                 KktCase.INTERIOR)

    # Case 1: both streams unsaturated.
    if not sat_a and not sat_b:
        if a0 > 0.0 and b0 > 0.0 and x * a0 + y * b0 >= m:
            return ReferenceSolution(_unchecked(Dispatch, (a0, b0)), KktCase.INTERIOR)
        border = _border_solution(chp, com, p)
        if border is not None:
            lam, a, b = border
            if (SATURATION_TOL < a < 1.0 - SATURATION_TOL
                    and SATURATION_TOL < b < 1.0 - SATURATION_TOL):
                return ReferenceSolution(_unchecked(Dispatch, (a, b)),
                                         KktCase.INTERIOR_CONSTRAINED, lam1=lam)

    # Case 2: electricity saturated, heat free or on the floor.
    if not sat_b:
        if sat_a and b0 > 0.0 and x + y * b0 >= m:
            lam2 = x * (com.k_e * com.b_e / math.e - p.p_e)
            return ReferenceSolution(_unchecked(Dispatch, (1.0, b0)),
                                     KktCase.ALPHA_SATURATED, lam2=max(lam2, 0.0))
        b_sq = (m - x) / y
        if 0.0 < b_sq < 1.0 - SATURATION_TOL:
            lam1 = p.p_h - com.k_h * com.b_h / (com.b_h * (m - x) + 1.0)
            lam2 = x * (com.k_e * com.b_e / math.e - p.p_e + lam1)
            if lam1 > SIGN_TOL and lam2 >= -SIGN_TOL * x:
                return ReferenceSolution(_unchecked(Dispatch, (1.0, b_sq)),
                                         KktCase.ALPHA_SATURATED_CONSTRAINED,
                                         lam1=lam1, lam2=max(lam2, 0.0))

    # Case 3: heat saturated, electricity free or on the floor.
    if not sat_a:
        if sat_b and a0 > 0.0 and x * a0 + y >= m:
            lam3 = y * (com.k_h * com.b_h / math.e - p.p_h)
            return ReferenceSolution(_unchecked(Dispatch, (a0, 1.0)),
                                     KktCase.BETA_SATURATED, lam3=max(lam3, 0.0))
        a_sq = (m - y) / x
        if 0.0 < a_sq < 1.0 - SATURATION_TOL:
            lam1 = p.p_e - com.k_e * com.b_e / (com.b_e * (m - y) + 1.0)
            lam3 = y * (com.k_h * com.b_h / math.e - p.p_h + lam1)
            if lam1 > SIGN_TOL and lam3 >= -SIGN_TOL * y:
                return ReferenceSolution(_unchecked(Dispatch, (a_sq, 1.0)),
                                         KktCase.BETA_SATURATED_CONSTRAINED,
                                         lam1=lam1, lam3=max(lam3, 0.0))

    raise FollowerError(
        f"no KKT case fits at p=({p.p_e}, {p.p_h}) for k=({com.k_e}, {com.k_h}), "
        f"m_min={com.m_min}")


def _clip01(v: float) -> float:
    return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v

