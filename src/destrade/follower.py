"""Exact best response of a community to posted wholesale prices.

The community maximises its daily welfare over the dispatch square
[0,1]^2 subject to an optional floor on combined local use.  The
objective is strictly concave and separable, so the optimum is found in
closed form by walking the KKT cases: unsaturated dispatch first, then
each output stream pinned at full local use.  When the use floor binds,
its multiplier solves a quadratic; the root below both prices is the
valid one.

_case_walk walks the cases for one community on plain floats.
export_totals returns a city's two export totals, the numbers the
aggregators' profits read; it solves the three cases the price walk
meets (free optimum, free optimum clipped at zero, both fractions on
the floor) inline and sends every other row to _case_walk.
best_response, the per-community solve, is _case_walk's tuple as a
KktSolution.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence, Tuple

from .market import ChpParams, CommunityParams, Dispatch, PricePair, kkt_row

# Dispatch fractions within this distance of 1 count as saturated.
SATURATION_TOL = 1e-9
_SAT = 1.0 - SATURATION_TOL

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
    """Optimal dispatch (alpha, beta) with the active case and its multipliers.

    lam1 prices the local-use floor, lam2 the alpha=1 bound, lam3 the
    beta=1 bound.  Inactive multipliers are zero.  The fields are those
    of the plain tuples _case_walk returns, in their order, so a solution
    equals such a tuple by value.
    """

    alpha: float
    beta: float
    case: KktCase
    lam1: float = 0.0
    lam2: float = 0.0
    lam3: float = 0.0

    @property
    def dispatch(self) -> Dispatch:
        return Dispatch(self.alpha, self.beta)

    @property
    def multipliers(self) -> Tuple[float, float, float]:
        return self.lam1, self.lam2, self.lam3


# ============================================================
# case walk
# ============================================================


def export_totals(chp: ChpParams, rows: Sequence[Tuple[float, ...]],
                  p_e: float, p_h: float) -> Tuple[float, float]:
    """Exports of the communities in rows at prices (p_e, p_h), per stream.

    rows are kkt_row tuples on chp's unit, such as a city's kkt_table.
    Solves each community's globally optimal dispatch and returns (sum
    of X*(1 - alpha), sum of Y*(1 - beta)), added left to right in row
    order.  Total for any positive prices near the admissible box,
    including the one-step-outside probes used by equilibrium search.

    The price walk solves thousands of cities and reads only the two
    totals, and almost every row it meets has both streams unsaturated
    and lands in the free optimum (clipped at 0 when unfloored) or on
    the floor with a valid multiplier.  Those rows are solved inline;
    every other row goes through _case_walk, whose first cases are the
    same expressions, so the floats do not depend on the path taken.
    """
    x, y, inv_b_e, inv_b_h = chp.elec_capacity, chp.heat_capacity, chp.inv_b_e, chp.inv_b_h
    tot_e = tot_h = 0.0
    p_sum = p_e + p_h
    top = p_h if p_h < p_e else p_e
    sqrt, sat, tol = math.sqrt, _SAT, SATURATION_TOL
    for row in rows:
        m, k_e, k_h, qa, k_sum, qa4 = row
        a0 = (k_e / p_e - inv_b_e) / x
        b0 = (k_h / p_h - inv_b_h) / y
        if a0 < sat and b0 < sat:
            if m == 0.0:
                # No floor: clip at 0; both fractions lie below 1 here.
                tot_e += x * (1.0 - (0.0 if a0 < 0.0 else a0))
                tot_h += y * (1.0 - (0.0 if b0 < 0.0 else b0))
                continue
            if a0 > 0.0 and b0 > 0.0 and x * a0 + y * b0 >= m:
                tot_e += x * (1.0 - a0)
                tot_h += y * (1.0 - b0)
                continue
            # On the floor, as in _case_walk; a double root is left to it.
            qb = k_sum - qa * p_sum
            qc = qa * p_e * p_h - k_e * p_h - k_h * p_e
            disc = qb * qb - qa4 * qc
            if disc > 0.0:
                sq = sqrt(disc)
                q = -0.5 * (qb - sq) if qb < 0.0 else -0.5 * (qb + sq)
                r1, r2 = q / qa, qc / q
                if not r1 <= r2:
                    r1, r2 = r2, r1
                lam = r1 if 0.0 < r1 < top else r2
                if 0.0 < lam < top:
                    a = (k_e / (p_e - lam) - inv_b_e) / x
                    b = (k_h / (p_h - lam) - inv_b_h) / y
                    if tol < a < sat and tol < b < sat:
                        tot_e += x * (1.0 - a)
                        tot_h += y * (1.0 - b)
                        continue
        # A saturated stream, a rejected floor case, NaN or an error.
        rec = _case_walk(chp, row, p_e, p_h)
        tot_e += x * (1.0 - rec[0])
        tot_h += y * (1.0 - rec[1])
    return tot_e, tot_h


def _case_walk(chp: ChpParams, row: Tuple[float, ...], p_e: float,
               p_h: float) -> Tuple[float, float, KktCase, float, float, float]:
    """One community's (alpha, beta, case, lam1, lam2, lam3) at (p_e, p_h).

    row is a community's kkt_row on chp's unit, which holds the capacities
    and adaption coefficients.  Cases are tried in order: free optimum,
    floor-bound optimum, then each stream saturated (with and without the
    floor).  Strict concavity makes the
    first case with valid multipliers the unique optimum.
    """
    x, y, b_e, b_h = chp.elec_capacity, chp.heat_capacity, chp.b_e, chp.b_h
    inv_b_e, inv_b_h = chp.inv_b_e, chp.inv_b_h
    m, k_e, k_h, qa, k_sum, qa4 = row
    # Stationary fractions with no constraint active.
    a0 = (k_e / p_e - inv_b_e) / x
    b0 = (k_h / p_h - inv_b_h) / y
    sat_a = a0 >= _SAT
    sat_b = b0 >= _SAT
    if sat_a and sat_b:
        # Needs both prices below cost by a wide margin; unreachable from
        # admissible coefficients and near-box prices.
        raise FollowerError("both streams saturated; outside modeled envelope")

    if m == 0.0:
        # No floor.  Clip each stream independently; a price far above
        # retail can push a stationary fraction to 0, clip there too.
        a = 0.0 if a0 < 0.0 else 1.0 if a0 > 1.0 else a0
        b = 0.0 if b0 < 0.0 else 1.0 if b0 > 1.0 else b0
        if sat_a:
            lam2 = x * (k_e * b_e / math.e - p_e)
            return 1.0, b, KktCase.ALPHA_SATURATED, 0.0, max(lam2, 0.0), 0.0
        if sat_b:
            lam3 = y * (k_h * b_h / math.e - p_h)
            return a, 1.0, KktCase.BETA_SATURATED, 0.0, 0.0, max(lam3, 0.0)
        return a, b, KktCase.INTERIOR, 0.0, 0.0, 0.0

    # Case 1: both streams unsaturated.
    if not sat_a and not sat_b:
        if a0 > 0.0 and b0 > 0.0 and x * a0 + y * b0 >= m:
            return a0, b0, KktCase.INTERIOR, 0.0, 0.0, 0.0
        # Both fractions stationary on the floor.  Substituting them into
        # the binding floor gives a quadratic qa*lam^2 + qb*lam + qc = 0
        # in the floor multiplier lam (qb < 0 and qc > 0 when it binds);
        # qa = m + 1/b_e + 1/b_h and qa4 = 4*qa come with the row.
        qb = k_sum - qa * (p_e + p_h)
        qc = qa * p_e * p_h - k_e * p_h - k_h * p_e
        disc = qb * qb - qa4 * qc
        if disc >= 0.0:
            if disc == 0.0:
                r1 = r2 = -qb / (2.0 * qa)
            else:
                # Product form for the smaller root avoids cancellation.
                sq = math.sqrt(disc)
                q = -0.5 * (qb - sq) if qb < 0.0 else -0.5 * (qb + sq)
                r1, r2 = q / qa, qc / q
                if not r1 <= r2:
                    r1, r2 = r2, r1
            # The valid multiplier is the lower root strictly between 0
            # and both prices.
            top = p_h if p_h < p_e else p_e
            lam = r1 if 0.0 < r1 < top else r2
            if 0.0 < lam < top:
                a = (k_e / (p_e - lam) - inv_b_e) / x
                b = (k_h / (p_h - lam) - inv_b_h) / y
                if SATURATION_TOL < a < _SAT and SATURATION_TOL < b < _SAT:
                    return a, b, KktCase.INTERIOR_CONSTRAINED, lam, 0.0, 0.0

    # Case 2: electricity saturated, heat free or on the floor.
    if not sat_b:
        if sat_a and b0 > 0.0 and x + y * b0 >= m:
            lam2 = x * (k_e * b_e / math.e - p_e)
            return 1.0, b0, KktCase.ALPHA_SATURATED, 0.0, max(lam2, 0.0), 0.0
        b_sq = (m - x) / y
        if 0.0 < b_sq < _SAT:
            l1 = p_h - k_h * b_h / (b_h * (m - x) + 1.0)
            l2 = x * (k_e * b_e / math.e - p_e + l1)
            if l1 > SIGN_TOL and l2 >= -SIGN_TOL * x:
                return (1.0, b_sq, KktCase.ALPHA_SATURATED_CONSTRAINED, l1,
                        max(l2, 0.0), 0.0)

    # Case 3: heat saturated, electricity free or on the floor.
    if not sat_a:
        if sat_b and a0 > 0.0 and x * a0 + y >= m:
            lam3 = y * (k_h * b_h / math.e - p_h)
            return a0, 1.0, KktCase.BETA_SATURATED, 0.0, 0.0, max(lam3, 0.0)
        a_sq = (m - y) / x
        if 0.0 < a_sq < _SAT:
            l1 = p_e - k_e * b_e / (b_e * (m - y) + 1.0)
            l3 = y * (k_h * b_h / math.e - p_h + l1)
            if l1 > SIGN_TOL and l3 >= -SIGN_TOL * y:
                return (a_sq, 1.0, KktCase.BETA_SATURATED_CONSTRAINED, l1, 0.0,
                        max(l3, 0.0))

    raise FollowerError(
        f"no KKT case fits at p=({p_e}, {p_h}) for k=({k_e}, {k_h}), "
        f"m_min={m}")


def best_response(chp: ChpParams, com: CommunityParams,
                  p: PricePair) -> KktSolution:
    """Globally optimal dispatch for one community at prices p."""
    return KktSolution._make(_case_walk(chp, kkt_row(chp, com), p.p_e, p.p_h))
