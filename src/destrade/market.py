"""Combined heat-and-power market primitives.

Each community runs a distributed energy station (DES) around a
co-generation unit: a fraction eta_g of the fuel's heat value becomes
electricity, the remainder is recovered as usable heat with efficiency
eta_r.  The station splits each output stream between local use and
export.  Exports are bought by a per-city pair of aggregators (one for
electricity, one for heat) at wholesale prices and resold at fixed
retail rates.

Quantities are joules per day, prices are coin per joule, utilities and
profits are coin per day.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Tuple

# Shape constant of the log utility.  The adaption coefficients below are
# chosen so that consuming the full daily output pushes the log argument
# exactly to E, i.e. each satisfaction term tops out at its k coefficient.
E = math.e

# Open-interval margin for the satisfaction coefficient feasibility check.
K_MARGIN = 1e-9


class MarketError(ValueError):
    """Infeasible or inconsistent market parameters."""


# ============================================================
# parameter records
# ============================================================


def _read_only(record, name, value=None):
    raise AttributeError(f"{type(record).__name__}.{name} is read-only")


def _fill(record, values) -> None:
    """Set a read-only record's slots to values, in __slots__ order."""
    for name, value in zip(type(record).__slots__, values):
        object.__setattr__(record, name, value)


class ChpParams:
    """Co-generation unit parameters shared by every DES in a city.

    q       heat value of fuel, J per unit
    eta_g   fuel-to-electricity conversion efficiency, in (0, 1)
    eta_r   waste-heat recovery efficiency, in (0, 1]
    f_m     daily fuel burn, units of fuel
    c_f     fuel price, coin per unit

    Read-only, so both daily outputs at full burn, in J, are stored with
    the fields: elec_capacity and heat_capacity, read once per city
    evaluation.  Equality and hash see the five fields.
    """

    __slots__ = ("q", "eta_g", "eta_r", "f_m", "c_f", "elec_capacity", "heat_capacity")

    def __init__(self, q: float, eta_g: float, eta_r: float, f_m: float, c_f: float):
        if q <= 0 or f_m <= 0 or c_f <= 0:
            raise MarketError("q, f_m and c_f must be positive")
        if not 0.0 < eta_g < 1.0:
            raise MarketError("eta_g must lie in (0, 1)")
        if not 0.0 < eta_r <= 1.0:
            raise MarketError("eta_r must lie in (0, 1]")
        # Positive inputs can still underflow or overflow what the market
        # derives from them, and a zero or infinite term breaks its sums.
        x, y = eta_g * q * f_m, (1.0 - eta_g) * eta_r * q * f_m
        derived = {"elec_capacity": x, "heat_capacity": y,
                   "b_e": (E - 1.0) / x if x else math.inf,
                   "b_h": (E - 1.0) / y if y else math.inf,
                   "c_e": c_f / q, "c_h": c_f / (q * eta_r) if q * eta_r else math.inf}
        bad = [f"{key} = {v!r}" for key, v in derived.items() if not 0.0 < v < math.inf]
        if bad:
            raise MarketError(f"{', '.join(bad)}: each must be positive and finite")
        _fill(self, (q, eta_g, eta_r, f_m, c_f, x, y))

    __setattr__ = __delattr__ = _read_only

    def _key(self) -> Tuple[float, ...]:
        return self.q, self.eta_g, self.eta_r, self.f_m, self.c_f

    def __eq__(self, other):
        if type(other) is not ChpParams:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def c_e(self) -> float:
        """Generation cost of electricity, coin per J."""
        return self.c_f / self.q

    @property
    def c_h(self) -> float:
        """Generation cost of heat, coin per J; recovery losses included."""
        return self.c_f / (self.q * self.eta_r)

    @property
    def fuel_cost(self) -> float:
        """Total daily fuel bill, coin."""
        return self.c_f * self.f_m


def adaption_coefficients(chp: ChpParams) -> Tuple[float, float]:
    """Log-utility curvature scales (b_e, b_h) for a given unit size."""
    return (E - 1.0) / chp.elec_capacity, (E - 1.0) / chp.heat_capacity


class CommunityParams:
    """Demand-side description of one community.

    k_e, k_h  satisfaction coefficients (coin) weighting local use
    m_min     daily floor on combined local use, J; 0 disables the floor
    b_e, b_h  adaption coefficients, derived from the unit size

    Read-only, so the best response's row is built once, when first read.
    """

    __slots__ = ("k_e", "k_h", "m_min", "b_e", "b_h", "_kkt_row")

    def __init__(self, k_e: float, k_h: float, m_min: float, b_e: float, b_h: float):
        _fill(self, (k_e, k_h, m_min, b_e, b_h, None))

    __setattr__ = __delattr__ = _read_only

    @classmethod
    def for_chp(cls, chp: ChpParams, k_e: float, k_h: float,
                m_min: float = 0.0) -> "CommunityParams":
        b_e, b_h = adaption_coefficients(chp)
        return cls(k_e=k_e, k_h=k_h, m_min=m_min, b_e=b_e, b_h=b_h)

    @property
    def kkt_row(self) -> Tuple[float, ...]:
        """(m_min, k_e, k_h, b_e, b_h, 1/b_e, 1/b_h, qa, k_e + k_h, 4*qa).

        Plain floats.  qa = m_min + 1/b_e + 1/b_h is the leading
        coefficient of the floor multiplier's quadratic, added in that
        order; it does not depend on the prices.  Built on first read,
        not with the record: a city's own checks reject a unit too large
        for the 1/b terms before its rows are built.
        """
        if self._kkt_row is None:
            inv_b_e, inv_b_h = 1.0 / self.b_e, 1.0 / self.b_h
            qa = self.m_min + inv_b_e + inv_b_h
            object.__setattr__(self, "_kkt_row", (
                self.m_min, self.k_e, self.k_h, self.b_e, self.b_h,
                inv_b_e, inv_b_h, qa, self.k_e + self.k_h, 4.0 * qa))
        return self._kkt_row


class PricePair(NamedTuple("PricePair", [("p_e", float), ("p_h", float)])):
    """Wholesale prices (p_e, p_h) offered by the aggregator pair.

    Carries no market context, so the retail/cost box is not checked
    here; equilibrium search deliberately probes one step outside it.
    Use CityMarket.validate_prices for box enforcement.
    """

    __slots__ = ()

    def __new__(cls, p_e: float, p_h: float) -> "PricePair":
        if not (p_e > 0 and p_h > 0):  # NaN is not positive either
            raise MarketError("prices must be positive")
        return tuple.__new__(cls, (p_e, p_h))


class Dispatch(NamedTuple("Dispatch", [("alpha", float), ("beta", float)])):
    """Local-use fractions chosen by a DES: alpha for electricity, beta for heat.

    A light tuple record.  Constructing one checks that both fractions
    lie in [0, 1].
    """

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float) -> "Dispatch":
        if not 0.0 <= alpha <= 1.0 or not 0.0 <= beta <= 1.0:
            raise MarketError("dispatch fractions must lie in [0, 1]")
        return tuple.__new__(cls, (alpha, beta))


# ============================================================
# city assembly and validation
# ============================================================


class CityMarket:
    """One city: a shared unit design, retail rates and the community list.

    Read-only; kkt_table holds every community's kkt_row, in community
    order, built once the city's checks pass.
    """

    __slots__ = ("chp", "r_e", "r_h", "communities", "kkt_table")

    def __init__(self, chp: ChpParams, r_e: float, r_h: float,
                 communities: Sequence[CommunityParams]):
        communities = tuple(communities)
        if not communities:
            raise MarketError("a city needs at least one community")
        c_e, c_h = chp.c_e, chp.c_h
        if not c_e <= r_e < E * c_e:
            raise MarketError("r_e must satisfy c_e <= r_e < e*c_e")
        if not c_h <= r_h < E * c_h:
            raise MarketError("r_h must satisfy c_h <= r_h < e*c_h")
        (lo_e, hi_e), (lo_h, hi_h) = valid_k_intervals(chp, r_e, r_h)
        x, y = chp.elec_capacity, chp.heat_capacity
        for i, com in enumerate(communities):
            if not (lo_e * (1 + K_MARGIN) <= com.k_e <= hi_e * (1 - K_MARGIN)):
                raise MarketError(f"community {i}: k_e={com.k_e} outside ({lo_e}, {hi_e})")
            if not (lo_h * (1 + K_MARGIN) <= com.k_h <= hi_h * (1 - K_MARGIN)):
                raise MarketError(f"community {i}: k_h={com.k_h} outside ({lo_h}, {hi_h})")
            if com.m_min != 0.0 and not max(x, y) < com.m_min < x + y:
                raise MarketError(
                    f"community {i}: m_min={com.m_min} must be 0 or in (max(X,Y), X+Y)")
        _fill(self, (chp, r_e, r_h, communities,
                     tuple(com.kkt_row for com in communities)))

    __setattr__ = __delattr__ = _read_only

    def price_box(self) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        """Admissible wholesale range per stream: cost floor, retail ceiling."""
        return (self.chp.c_e, self.r_e), (self.chp.c_h, self.r_h)

    def validate_prices(self, p: PricePair) -> None:
        (lo_e, hi_e), (lo_h, hi_h) = self.price_box()
        if not lo_e <= p.p_e <= hi_e:
            raise MarketError(f"p_e={p.p_e} outside [{lo_e}, {hi_e}]")
        if not lo_h <= p.p_h <= hi_h:
            raise MarketError(f"p_h={p.p_h} outside [{lo_h}, {hi_h}]")


def valid_k_intervals(chp: ChpParams, r_e: float, r_h: float,
                      ) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """Open intervals the satisfaction coefficients must lie in.

    The lower end keeps local use preferable to selling everything at
    retail; the upper end keeps full local use unprofitable at cost.
    Empty (infeasible) intervals raise MarketError.
    """
    x, y = chp.elec_capacity, chp.heat_capacity
    lo_e = r_e * x / (E - 1.0)
    hi_e = chp.c_e * x / (1.0 - 1.0 / E)
    lo_h = r_h * y / (E - 1.0)
    hi_h = chp.c_h * y / (1.0 - 1.0 / E)
    if lo_e >= hi_e or lo_h >= hi_h:
        raise MarketError("retail rate too high: no feasible satisfaction coefficients")
    return (lo_e, hi_e), (lo_h, hi_h)


# ============================================================
# accounting
# ============================================================


def des_utility(chp: ChpParams, com: CommunityParams, p: PricePair,
                d: Dispatch) -> float:
    """Daily community welfare: log satisfaction plus export revenue minus fuel."""
    x, y = chp.elec_capacity, chp.heat_capacity
    return (com.k_e * math.log1p(com.b_e * (d.alpha * x))
            + com.k_h * math.log1p(com.b_h * (d.beta * y))
            + p.p_e * ((1.0 - d.alpha) * x) + p.p_h * ((1.0 - d.beta) * y)
            - chp.fuel_cost)
