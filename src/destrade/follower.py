"""Exact best response of a community to posted wholesale prices.

The community maximises its daily welfare over the dispatch square
[0,1]^2 subject to an optional floor on combined local use.  The
objective is strictly concave and separable, so the optimum is found in
closed form by walking the KKT cases: unsaturated dispatch first, then
each output stream pinned at full local use.  When the use floor binds,
its multiplier solves a quadratic; the root below both prices is the
valid one.

One loop walks the cases for every community of a city on plain floats:
export_totals returns the two export totals the aggregators' profits
read, and builds response tuples only when asked.  best_response, the
per-community solve, is that loop over a one-row table.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional, Sequence, Tuple

from .market import ChpParams, CommunityParams, Dispatch, PricePair

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


# The cases as plain names: reading an Enum attribute costs about as much
# as the arithmetic of an interior solve.
(_INTERIOR, _INTERIOR_CONSTRAINED, _ALPHA_SATURATED, _ALPHA_SATURATED_CONSTRAINED,
 _BETA_SATURATED, _BETA_SATURATED_CONSTRAINED) = KktCase


class KktSolution(NamedTuple):
    """Optimal dispatch (alpha, beta) with the active case and its multipliers.

    lam1 prices the local-use floor, lam2 the alpha=1 bound, lam3 the
    beta=1 bound.  Inactive multipliers are zero.  The fields are those
    of the plain tuples export_totals appends, in their order, so a
    record equals such a tuple by value.
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

# A local name: one global read per use instead of two.
_E = math.e


def export_totals(chp: ChpParams, rows: Sequence[Tuple[float, ...]],
                  p_e: float, p_h: float, records: Optional[list] = None,
                  ) -> Tuple[float, float]:
    """Exports of the communities in rows at prices (p_e, p_h), per stream.

    rows are kkt_row tuples (m_min, k_e, k_h, b_e, b_h, 1/b_e, 1/b_h);
    CityMarket.kkt_table holds a city's.  Solves each community's
    globally optimal dispatch and returns (sum of X*(1 - alpha), sum of
    Y*(1 - beta)), added left to right in row order.  When records is a
    list, each community's (alpha, beta, case, lam1, lam2, lam3), the
    fields of KktSolution, is appended to it; the price walk solves
    thousands of cities and reads only the two totals.

    Total for any positive prices near the admissible box, including
    the one-step-outside probes used by equilibrium search.  Cases are
    tried in order: free optimum, floor-bound optimum, then each stream
    saturated (with and without the floor).  Strict concavity makes the
    first case with valid multipliers the unique optimum.
    """
    x, y = chp.elec_capacity, chp.heat_capacity
    tot_e = tot_h = 0.0
    for m, k_e, k_h, b_e, b_h, inv_b_e, inv_b_h in rows:
        # Stationary fractions with no constraint active.
        a0 = (k_e / p_e - inv_b_e) / x
        b0 = (k_h / p_h - inv_b_h) / y
        sat_a = a0 >= _SAT
        sat_b = b0 >= _SAT
        if sat_a and sat_b:
            # Needs both prices below cost by a wide margin; unreachable from
            # admissible coefficients and near-box prices.
            raise FollowerError("both streams saturated; outside modeled envelope")
        lam1 = lam2 = lam3 = 0.0

        if m == 0.0:
            # No floor.  Clip each stream independently; a price far above
            # retail can push a stationary fraction to 0, clip there too.
            a = 0.0 if a0 < 0.0 else 1.0 if a0 > 1.0 else a0
            b = 0.0 if b0 < 0.0 else 1.0 if b0 > 1.0 else b0
            if sat_a:
                a, case = 1.0, _ALPHA_SATURATED
                lam2 = x * (k_e * b_e / _E - p_e)
            elif sat_b:
                b, case = 1.0, _BETA_SATURATED
                lam3 = y * (k_h * b_h / _E - p_h)
            else:
                case = _INTERIOR
        else:
            # Each case below sets case once its multipliers check out;
            # a rejected case leaves it None and the next one is tried.
            case = None

            # Case 1: both streams unsaturated.
            if not sat_a and not sat_b:
                if a0 > 0.0 and b0 > 0.0 and x * a0 + y * b0 >= m:
                    a, b, case = a0, b0, _INTERIOR
                else:
                    # Both fractions stationary on the floor.  Substituting
                    # them into the binding floor gives a quadratic
                    # qa*lam^2 + qb*lam + qc = 0 in the floor multiplier lam
                    # (qb < 0 and qc > 0 when it binds).
                    qa = m + inv_b_e + inv_b_h
                    qb = k_e + k_h - qa * (p_e + p_h)
                    qc = qa * p_e * p_h - k_e * p_h - k_h * p_e
                    disc = qb * qb - 4.0 * qa * qc
                    if disc >= 0.0:
                        if disc == 0.0:
                            r1 = r2 = -qb / (2.0 * qa)
                        else:
                            # Product form for the smaller root avoids
                            # cancellation.
                            sq = math.sqrt(disc)
                            q = -0.5 * (qb - sq) if qb < 0.0 else -0.5 * (qb + sq)
                            r1, r2 = q / qa, qc / q
                            if not r1 <= r2:
                                r1, r2 = r2, r1
                        # The valid multiplier is the lower root strictly
                        # between 0 and both prices.
                        top = p_h if p_h < p_e else p_e
                        lam = r1 if 0.0 < r1 < top else r2
                        if 0.0 < lam < top:
                            a = (k_e / (p_e - lam) - inv_b_e) / x
                            b = (k_h / (p_h - lam) - inv_b_h) / y
                            if SATURATION_TOL < a < _SAT and SATURATION_TOL < b < _SAT:
                                case, lam1 = _INTERIOR_CONSTRAINED, lam

            # Case 2: electricity saturated, heat free or on the floor.
            if case is None and not sat_b:
                if sat_a and b0 > 0.0 and x + y * b0 >= m:
                    a, b, case = 1.0, b0, _ALPHA_SATURATED
                    lam2 = x * (k_e * b_e / _E - p_e)
                else:
                    b_sq = (m - x) / y
                    if 0.0 < b_sq < _SAT:
                        l1 = p_h - k_h * b_h / (b_h * (m - x) + 1.0)
                        l2 = x * (k_e * b_e / _E - p_e + l1)
                        if l1 > SIGN_TOL and l2 >= -SIGN_TOL * x:
                            a, b, case = 1.0, b_sq, _ALPHA_SATURATED_CONSTRAINED
                            lam1, lam2 = l1, l2

            # Case 3: heat saturated, electricity free or on the floor.
            if case is None and not sat_a:
                if sat_b and a0 > 0.0 and x * a0 + y >= m:
                    a, b, case = a0, 1.0, _BETA_SATURATED
                    lam3 = y * (k_h * b_h / _E - p_h)
                else:
                    a_sq = (m - y) / x
                    if 0.0 < a_sq < _SAT:
                        l1 = p_e - k_e * b_e / (b_e * (m - y) + 1.0)
                        l3 = y * (k_h * b_h / _E - p_h + l1)
                        if l1 > SIGN_TOL and l3 >= -SIGN_TOL * y:
                            a, b, case = a_sq, 1.0, _BETA_SATURATED_CONSTRAINED
                            lam1, lam3 = l1, l3

            if case is None:
                raise FollowerError(
                    f"no KKT case fits at p=({p_e}, {p_h}) for k=({k_e}, {k_h}), "
                    f"m_min={m}")

        tot_e += x * (1.0 - a)
        tot_h += y * (1.0 - b)
        if records is not None:
            records.append((a, b, case, lam1, max(lam2, 0.0), max(lam3, 0.0)))
    return tot_e, tot_h


def best_response(chp: ChpParams, com: CommunityParams,
                  p: PricePair) -> KktSolution:
    """Globally optimal dispatch for one community at prices p.

    export_totals on a one-row table, its one record as a KktSolution.
    """
    records: list = []
    export_totals(chp, (com.kkt_row,), p.p_e, p.p_h, records)
    return KktSolution._make(records[0])
