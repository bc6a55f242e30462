"""Aggregator-side profit.

Both aggregators buy exports at their posted wholesale price and resell
at the city retail rate, so each one's profit is its margin times the
export volume the communities choose in best response: one of the two
totals follower.export_totals returns.
"""

from __future__ import annotations

from typing import Tuple

from .market import CityMarket


def profit(city: CityMarket, side: str, price: float,
           totals: Tuple[float, float]) -> float:
    """Daily margin of one aggregator at its own price: side "e" or "h".

    totals are the city's export totals (electricity, heat) in J at the
    prices posted, as export_totals returns them.
    """
    if side == "e":
        return (city.r_e - price) * totals[0]
    if side == "h":
        return (city.r_h - price) * totals[1]
    raise ValueError("side must be 'e' or 'h'")
