"""Exact best response of a community to posted wholesale prices.

The community maximises its daily welfare over the dispatch square
[0,1]^2 subject to an optional floor on combined local use.  The
objective is strictly concave and separable, so the optimum is found in
closed form by walking the KKT cases: unsaturated dispatch first, then
each output stream pinned at full local use.  When the use floor binds,
its multiplier solves a quadratic; the root below both prices is the
valid one.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional, Tuple

from .market import ChpParams, CommunityParams, Dispatch, PricePair

# Dispatch fractions within this distance of 1 count as saturated.
SATURATION_TOL = 1e-9

# Dispatch(...) checks its fractions lie in [0, 1].  The case guards in
# best_response already confine every fraction it returns, so it builds
# its dispatches unchecked, with the plain tuple constructor.
_unchecked = tuple.__new__

# Sign cushion for multiplier checks, in price units.  Large enough to
# absorb roundoff at case boundaries, small enough that a misclassified
# boundary point moves the dispatch by well under 1e-6.
SIGN_TOL = 1e-15


class FollowerError(ArithmeticError):
    """No KKT case fits; parameters are outside the modeled envelope."""


class KktCase(Enum):
    INTERIOR = "interior"
    INTERIOR_CONSTRAINED = "interior_constrained"
    ALPHA_SATURATED = "alpha_saturated"
    ALPHA_SATURATED_CONSTRAINED = "alpha_saturated_constrained"
    BETA_SATURATED = "beta_saturated"
    BETA_SATURATED_CONSTRAINED = "beta_saturated_constrained"


class KktSolution(NamedTuple):
    """Optimal dispatch with the active case and its multipliers.

    lam1 prices the local-use floor, lam2 the alpha=1 bound, lam3 the
    beta=1 bound.  Inactive multipliers are zero.  A light tuple record:
    the price walk builds hundreds of thousands of them.
    """

    dispatch: Dispatch
    case: KktCase
    lam1: float = 0.0
    lam2: float = 0.0
    lam3: float = 0.0

    @property
    def multipliers(self) -> Tuple[float, float, float]:
        return self.lam1, self.lam2, self.lam3


# ============================================================
# stationary points and multiplier roots
# ============================================================


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


# ============================================================
# case walk
# ============================================================


def best_response(chp: ChpParams, com: CommunityParams,
                  p: PricePair) -> KktSolution:
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
            return KktSolution(_unchecked(Dispatch, (1.0, _clip01(b0))),
                               KktCase.ALPHA_SATURATED, lam2=max(lam2, 0.0))
        if sat_b:
            lam3 = y * (com.k_h * com.b_h / math.e - p.p_h)
            return KktSolution(_unchecked(Dispatch, (_clip01(a0), 1.0)),
                               KktCase.BETA_SATURATED, lam3=max(lam3, 0.0))
        return KktSolution(_unchecked(Dispatch, (_clip01(a0), _clip01(b0))),
                           KktCase.INTERIOR)

    # Case 1: both streams unsaturated.
    if not sat_a and not sat_b:
        if a0 > 0.0 and b0 > 0.0 and x * a0 + y * b0 >= m:
            return KktSolution(_unchecked(Dispatch, (a0, b0)), KktCase.INTERIOR)
        border = _border_solution(chp, com, p)
        if border is not None:
            lam, a, b = border
            if (SATURATION_TOL < a < 1.0 - SATURATION_TOL
                    and SATURATION_TOL < b < 1.0 - SATURATION_TOL):
                return KktSolution(_unchecked(Dispatch, (a, b)),
                                   KktCase.INTERIOR_CONSTRAINED, lam1=lam)

    # Case 2: electricity saturated, heat free or on the floor.
    if not sat_b:
        if sat_a and b0 > 0.0 and x + y * b0 >= m:
            lam2 = x * (com.k_e * com.b_e / math.e - p.p_e)
            return KktSolution(_unchecked(Dispatch, (1.0, b0)),
                               KktCase.ALPHA_SATURATED, lam2=max(lam2, 0.0))
        b_sq = (m - x) / y
        if 0.0 < b_sq < 1.0 - SATURATION_TOL:
            lam1 = p.p_h - com.k_h * com.b_h / (com.b_h * (m - x) + 1.0)
            lam2 = x * (com.k_e * com.b_e / math.e - p.p_e + lam1)
            if lam1 > SIGN_TOL and lam2 >= -SIGN_TOL * x:
                return KktSolution(_unchecked(Dispatch, (1.0, b_sq)),
                                   KktCase.ALPHA_SATURATED_CONSTRAINED,
                                   lam1=lam1, lam2=max(lam2, 0.0))

    # Case 3: heat saturated, electricity free or on the floor.
    if not sat_a:
        if sat_b and a0 > 0.0 and x * a0 + y >= m:
            lam3 = y * (com.k_h * com.b_h / math.e - p.p_h)
            return KktSolution(_unchecked(Dispatch, (a0, 1.0)),
                               KktCase.BETA_SATURATED, lam3=max(lam3, 0.0))
        a_sq = (m - y) / x
        if 0.0 < a_sq < 1.0 - SATURATION_TOL:
            lam1 = p.p_e - com.k_e * com.b_e / (com.b_e * (m - y) + 1.0)
            lam3 = y * (com.k_h * com.b_h / math.e - p.p_h + lam1)
            if lam1 > SIGN_TOL and lam3 >= -SIGN_TOL * y:
                return KktSolution(_unchecked(Dispatch, (a_sq, 1.0)),
                                   KktCase.BETA_SATURATED_CONSTRAINED,
                                   lam1=lam1, lam3=max(lam3, 0.0))

    raise FollowerError(
        f"no KKT case fits at p=({p.p_e}, {p.p_h}) for k=({com.k_e}, {com.k_h}), "
        f"m_min={com.m_min}")


def _clip01(v: float) -> float:
    return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v

