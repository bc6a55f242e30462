"""Equilibrium search over the two wholesale prices.

Both aggregators take turns each iteration: probe one step up and one
step down in their own price at the current step size, keep the better
move (ties prefer up, then down, then stay), clamp the new price to the
cost/retail interval, then shrink the step geometrically.  The search
stops the first iteration neither price changes, which pins the fixed
point to within the final step; a step too small to move a price ends
it without one.

Both aggregators buy exports at their posted wholesale price and resell
at the city retail rate, so each one's profit is its margin times the
export volume the communities choose in best response: one of the two
export totals of the city, and the only numbers the walk carries.  A
step solves its up and down probes together, in one
follower.probe_totals pass over the city; follower.export_totals solves
the start point, and a move the clamp pulls off its probe.  Each
visited price point is solved once: a step hands on the totals at the
point it moved to, so an iteration costs four probe points in two
passes.  The walk's last step is the equilibrium outcome: its prices
are the fixed point, and its profits are both margins there.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple, Union

from .follower import export_totals, probe_totals
from .market import CityMarket, MarketError, PricePair, shown

INIT_CHOICES = ("low", "high", "mid")


class NoFixedPoint(RuntimeError):
    """The walk ended without a fixed point.

    Either the iteration budget ran out before both prices went quiet,
    or the step shrank until it no longer moves a price, so every probe
    ties with staying put.
    """

    def __init__(self, msg: str, trace: "NeTrace"):
        super().__init__(msg)
        self.trace = trace


class NeConfig(NamedTuple("NeConfig", [("delta0", float), ("decay", float),
                                         ("init", Union[str, PricePair]),
                                         ("max_iters", int)])):
    """Search knobs.

    init is one of "low" (cost corner), "high" (retail corner), "mid",
    or an explicit PricePair.
    """

    __slots__ = ()

    def __new__(cls, delta0: float = 1e-10, decay: float = 0.999,
                init: Union[str, PricePair] = "low", max_iters: int = 50000) -> "NeConfig":
        if not delta0 > 0:  # NaN is not positive either
            raise MarketError(f"delta0 = {delta0} must be positive")
        if not 0.0 < decay <= 1.0:
            raise MarketError("decay must lie in (0, 1]")
        if max_iters < 1:
            raise MarketError(f"max_iters = {shown(max_iters)} must be at least 1")
        if isinstance(init, str) and init not in INIT_CHOICES:
            raise MarketError(f"init must be a PricePair or one of {INIT_CHOICES}")
        return tuple.__new__(cls, (delta0, decay, init, max_iters))


NeStep = NamedTuple("NeStep", [("iteration", int), ("p_e", float), ("p_h", float),
                               ("v_e", float), ("v_h", float), ("delta", float)])


class NeTrace:
    """Per-iteration record of the search path: one NeStep per iteration."""

    __slots__ = ("steps",)

    def __init__(self):
        self.steps: List[NeStep] = []

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def delta_final(self) -> float:
        """Step size in force on the terminating iteration."""
        if not self.steps:
            raise ValueError("empty trace")
        return self.steps[-1].delta


def resolve_init(city: CityMarket, init: Union[str, PricePair]) -> PricePair:
    (lo_e, hi_e), (lo_h, hi_h) = city.price_box()
    if isinstance(init, PricePair):
        try:
            city.validate_prices(init)
        except MarketError as exc:
            raise MarketError(f"init: {exc}") from None
        return init
    if init == "low":
        return PricePair(lo_e, lo_h)
    if init == "high":
        return PricePair(hi_e, hi_h)
    if init == "mid":
        return PricePair(0.5 * (lo_e + hi_e), 0.5 * (lo_h + hi_h))
    raise MarketError(f"unknown init {init!r}")


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


def aggregator_step(city: CityMarket, side: str, p_e: float, p_h: float,
                    delta: float, totals: Tuple[float, float],
                    ) -> Tuple[float, Tuple[float, float]]:
    """One aggregator's move on its own price: side "e" moves p_e, "h" p_h.

    Takes the city's export totals at (p_e, p_h) and returns the new
    price with the totals there, solved afresh only when the clamp moves
    the price off the probe.  Probes are unclamped, the move is not;
    both are solved in one probe_totals pass.
    """
    if side == "e":
        (lo, hi), own = city.price_box()[0], p_e
    elif side == "h":
        (lo, hi), own = city.price_box()[1], p_h
    else:
        raise ValueError("side must be 'e' or 'h'")

    up, down = own + delta, own - delta
    t_up, t_down = probe_totals(city.chp, city.kkt_table, side, p_e, p_h, delta)
    v0 = profit(city, side, own, totals)
    vp = profit(city, side, up, t_up)
    vm = profit(city, side, down, t_down)
    if vp >= v0 and vp >= vm:
        probe, new, held = up, min(hi, up), t_up
    elif vm >= v0 and vm > vp:
        probe, new, held = down, max(lo, down), t_down
    else:
        return own, totals
    if new == probe:
        return new, held
    moved = (new, p_h) if side == "e" else (p_e, new)
    return new, export_totals(city.chp, city.kkt_table, *moved)


def _stalls(price: float, delta: float) -> bool:
    """True when a step of delta up or down leaves price where it is."""
    return price + delta == price or price - delta == price


def find_ne(city: CityMarket, cfg: NeConfig = NeConfig(),
            ) -> Tuple[PricePair, NeTrace]:
    """Walk both prices to a joint fixed point of the +/- delta moves.

    Raises MarketError when delta0 reaches the lower unit cost (a down
    probe from the cost floor would then leave the positive prices) or
    is too small to move a start price.  Raises NoFixedPoint when the
    budget runs out, or when the walk stops at a step that no longer
    moves a price: every probe there ties, so the stop proves nothing.
    """
    floor = min(city.chp.c_e, city.chp.c_h)
    if cfg.delta0 >= floor:
        raise MarketError(
            f"delta0 = {cfg.delta0} must be below the cost floor {floor:.6g}")
    start = resolve_init(city, cfg.init)
    p_e, p_h = start.p_e, start.p_h
    if _stalls(p_e, cfg.delta0) or _stalls(p_h, cfg.delta0):
        raise MarketError(
            f"delta0 = {cfg.delta0} is too small to move the start prices "
            f"({p_e}, {p_h})")
    totals = export_totals(city.chp, city.kkt_table, p_e, p_h)
    delta = cfg.delta0
    trace = NeTrace()
    for it in range(cfg.max_iters):
        before = (p_e, p_h)
        p_e, totals = aggregator_step(city, "e", p_e, p_h, delta, totals)
        p_h, totals = aggregator_step(city, "h", p_e, p_h, delta, totals)
        trace.steps.append(NeStep(it, p_e, p_h, profit(city, "e", p_e, totals),
                                  profit(city, "h", p_h, totals), delta))
        if (p_e, p_h) == before:
            if _stalls(p_e, delta) or _stalls(p_h, delta):
                raise NoFixedPoint(
                    f"step {delta} no longer moves the prices ({p_e}, {p_h}) "
                    f"after {it + 1} iterations", trace)
            return PricePair(p_e, p_h), trace
        delta *= cfg.decay
    raise NoFixedPoint(f"no fixed point after {cfg.max_iters} iterations", trace)

