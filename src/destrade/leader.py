"""Aggregator-side profit.

Both aggregators buy exports at their posted wholesale price and resell
at the city retail rate, so each one's profit is its margin times the
export volume the communities choose in best response.
"""

from __future__ import annotations

from typing import List, Sequence

from .follower import respond
from .market import CityMarket, PricePair


def city_responses(city: CityMarket, p: PricePair) -> List[tuple]:
    """Best response of every community at prices p, in community order.

    Each is respond's plain tuple (alpha, beta, case, lam1, lam2, lam3).
    """
    chp, p_e, p_h = city.chp, p.p_e, p.p_h
    return [respond(chp, com, p_e, p_h) for com in city.communities]


def profit(city: CityMarket, side: str, p: PricePair,
           responses: Sequence[tuple]) -> float:
    """Daily margin of one aggregator at prices p: side "e" or "h".

    responses are the communities' best responses at p, in community
    order, as respond tuples or KktSolution records (alpha is field 0,
    beta field 1); the exports are summed in that order.
    """
    if side == "e":
        cap, margin, i = city.chp.elec_capacity, city.r_e - p.p_e, 0
    elif side == "h":
        cap, margin, i = city.chp.heat_capacity, city.r_h - p.p_h, 1
    else:
        raise ValueError("side must be 'e' or 'h'")
    return margin * sum(cap * (1.0 - r[i]) for r in responses)
