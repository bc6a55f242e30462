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
aggregators' profits read, as a plain loop of _case_walk calls.
probe_totals returns them at both probes of an aggregator's step (its
own price one step up and one step down) from one loop over the rows
for either side, in (p_e, p_h) terms: the held stream's fraction is
shared by the probes, the walk's three common cases are solved inline
and every other row goes to _case_walk.  best_response, the
per-community solve, is _case_walk's tuple as a KktSolution.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence, Tuple

from .market import ChpParams, CommunityParams, PricePair, kkt_row

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


# ============================================================
# case walk
# ============================================================


def export_totals(chp: ChpParams, rows: Sequence[Tuple[float, ...]],
                  p_e: float, p_h: float) -> Tuple[float, float]:
    """Exports of the communities in rows at prices (p_e, p_h), per stream.

    rows are kkt_row tuples on chp's unit, such as a city's kkt_table.
    Solves each community's globally optimal dispatch with _case_walk and
    returns (sum of X*(1 - alpha), sum of Y*(1 - beta)), added left to
    right in row order; total at any positive prices near the box.
    """
    x, y = chp.elec_capacity, chp.heat_capacity
    tot_e = tot_h = 0.0
    for row in rows:
        rec = _case_walk(chp, row, p_e, p_h)
        tot_e += x * (1.0 - rec[0])
        tot_h += y * (1.0 - rec[1])
    return tot_e, tot_h


def probe_totals(chp: ChpParams, rows: Sequence[Tuple[float, ...]], side: str,
                 p_e: float, p_h: float, delta: float,
                 ) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """export_totals at own price + delta and at own price - delta.

    side "e" probes p_e with p_h held, side "h" p_h with p_e held; returns
    the up probe's totals, then the down probe's, from one loop over rows
    for both sides.  Per row the side decides only which stream is held:
    its stationary fraction, free-optimum term and unfloored export are
    shared by the probes.  All else is worked at each probe's own
    (p_e, p_h) in _case_walk's operand order and summed left to right, so
    each total is export_totals' bit for bit.  The walk's three common
    cases (free optimum, clipped at 0, on the floor) are solved inline,
    other rows by _case_walk.  On FollowerError export_totals solves both
    probes again in turn, so the error is the up probe's first one.

    On price_search (paired 55 s runs, shared 2-vCPU host) a loop over the
    two probes ran 8.5% slower (10/10 lost); this loop, against the
    per-side loops it replaced, 1.036x and 1.006x (1/10 and 6/10 won).
    """
    if side not in ("e", "h"):
        raise ValueError("side must be 'e' or 'h'")
    held_h = side == "e"
    pe_up, ph_up, pe_dn, ph_dn = ((p_e + delta, p_h, p_e - delta, p_h) if held_h
                                  else (p_e, p_h + delta, p_e, p_h - delta))
    s_up, s_dn = pe_up + ph_up, pe_dn + ph_dn
    top_up = ph_up if ph_up < pe_up else pe_up
    top_dn = ph_dn if ph_dn < pe_dn else pe_dn
    x, y, inv_b_e, inv_b_h = chp.elec_capacity, chp.heat_capacity, chp.inv_b_e, chp.inv_b_h
    e_up = h_up = e_dn = h_dn = 0.0
    sqrt, sat, tol, walk = math.sqrt, _SAT, SATURATION_TOL, _case_walk
    try:
        for row in rows:
            m, k_e, k_h, qa, k_sum, qa4 = row
            # Unfloored rows clip at 0 only: every fraction lies below 1 there.
            if held_h:
                a_up = (k_e / pe_up - inv_b_e) / x
                a_dn = (k_e / pe_dn - inv_b_e) / x
                b_up = b_dn = (k_h / p_h - inv_b_h) / y
                if m == 0.0 and a_up < sat and a_dn < sat and b_up < sat:
                    held = y * (1.0 - (0.0 if b_up < 0.0 else b_up))
                    e_up += x * (1.0 - (0.0 if a_up < 0.0 else a_up))
                    h_up += held
                    e_dn += x * (1.0 - (0.0 if a_dn < 0.0 else a_dn))
                    h_dn += held
                    continue
                xa_up, xa_dn = x * a_up, x * a_dn
                yb_up = yb_dn = y * b_up
            else:
                a_up = a_dn = (k_e / p_e - inv_b_e) / x
                b_up = (k_h / ph_up - inv_b_h) / y
                b_dn = (k_h / ph_dn - inv_b_h) / y
                if m == 0.0 and a_up < sat and b_up < sat and b_dn < sat:
                    held = x * (1.0 - (0.0 if a_up < 0.0 else a_up))
                    e_up += held
                    h_up += y * (1.0 - (0.0 if b_up < 0.0 else b_up))
                    e_dn += held
                    h_dn += y * (1.0 - (0.0 if b_dn < 0.0 else b_dn))
                    continue
                xa_up = xa_dn = x * a_up
                yb_up, yb_dn = y * b_up, y * b_dn
            # Up probe: free optimum above the floor, else on the floor.
            if xa_up + yb_up >= m and 0.0 < a_up < sat and 0.0 < b_up < sat:
                e_up += x * (1.0 - a_up)
                h_up += y * (1.0 - b_up)
            else:
                a = -1.0
                if m != 0.0 and a_up < sat and b_up < sat:
                    # On the floor, as in _case_walk; a double root is left to it.
                    qb = k_sum - qa * s_up
                    qc = qa * pe_up * ph_up - k_e * ph_up - k_h * pe_up
                    disc = qb * qb - qa4 * qc
                    if disc > 0.0:
                        sq = sqrt(disc)
                        q = -0.5 * (qb - sq) if qb < 0.0 else -0.5 * (qb + sq)
                        r1, r2 = q / qa, qc / q
                        if not r1 <= r2:
                            r1, r2 = r2, r1
                        lam = r1 if 0.0 < r1 < top_up else r2
                        if 0.0 < lam < top_up:
                            a = (k_e / (pe_up - lam) - inv_b_e) / x
                            b = (k_h / (ph_up - lam) - inv_b_h) / y
                if not (tol < a < sat and tol < b < sat):
                    # A saturated stream, a rejected floor case, NaN or an error.
                    a, b = walk(chp, row, pe_up, ph_up)[:2]
                e_up += x * (1.0 - a)
                h_up += y * (1.0 - b)
            # Down probe, the same with the down prices.
            if xa_dn + yb_dn >= m and 0.0 < a_dn < sat and 0.0 < b_dn < sat:
                e_dn += x * (1.0 - a_dn)
                h_dn += y * (1.0 - b_dn)
            else:
                a = -1.0
                if m != 0.0 and a_dn < sat and b_dn < sat:
                    qb = k_sum - qa * s_dn
                    qc = qa * pe_dn * ph_dn - k_e * ph_dn - k_h * pe_dn
                    disc = qb * qb - qa4 * qc
                    if disc > 0.0:
                        sq = sqrt(disc)
                        q = -0.5 * (qb - sq) if qb < 0.0 else -0.5 * (qb + sq)
                        r1, r2 = q / qa, qc / q
                        if not r1 <= r2:
                            r1, r2 = r2, r1
                        lam = r1 if 0.0 < r1 < top_dn else r2
                        if 0.0 < lam < top_dn:
                            a = (k_e / (pe_dn - lam) - inv_b_e) / x
                            b = (k_h / (ph_dn - lam) - inv_b_h) / y
                if not (tol < a < sat and tol < b < sat):
                    a, b = walk(chp, row, pe_dn, ph_dn)[:2]
                e_dn += x * (1.0 - a)
                h_dn += y * (1.0 - b)
    except FollowerError:
        return (export_totals(chp, rows, pe_up, ph_up),
                export_totals(chp, rows, pe_dn, ph_dn))
    return (e_up, h_up), (e_dn, h_dn)


def _case_walk(chp: ChpParams, row: Tuple[float, ...], p_e: float,
               p_h: float) -> Tuple[float, float, KktCase, float, float, float]:
    """One community's (alpha, beta, case, lam1, lam2, lam3) at (p_e, p_h).

    row is a community's kkt_row on chp's unit, which holds the capacities
    and adaption coefficients.  Cases are tried in order: free optimum,
    floor-bound optimum, then each stream saturated (with and without the
    floor).  Strict concavity makes the first case with valid multipliers
    the unique optimum.
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
