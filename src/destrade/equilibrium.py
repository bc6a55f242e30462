"""Equilibrium search over the two wholesale prices.

Both aggregators take turns each iteration: probe one step up and one
step down in their own price at the current step size, keep the better
move (ties prefer up, then down, then stay), clamp the new price to the
cost/retail interval, then shrink the step geometrically.  The search
stops the first iteration neither price changes, which pins the fixed
point to within the final step.

Each visited price point is solved once: a step hands on the responses
at the point it moved to, so an iteration costs four city evaluations,
and the outcome takes the fixed point's responses from the walk.  The
walk carries the follower's plain response tuples; only the fixed
point's are made into KktSolution records, once per walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

from .follower import KktSolution
from .leader import city_responses, profit
from .market import CityMarket, MarketError, PricePair, des_utility

INIT_CHOICES = ("low", "high", "mid")


class NoFixedPoint(RuntimeError):
    """Iteration budget exhausted before both prices went quiet."""

    def __init__(self, msg: str, trace: "NeTrace"):
        super().__init__(msg)
        self.trace = trace


@dataclass(frozen=True)
class NeConfig:
    """Search knobs.

    init is one of "low" (cost corner), "high" (retail corner), "mid",
    or an explicit PricePair.
    """

    delta0: float = 1e-10
    decay: float = 0.999
    init: Union[str, PricePair] = "low"
    max_iters: int = 50000

    def __post_init__(self):
        if not self.delta0 > 0:  # NaN is not positive either
            raise MarketError(f"delta0 = {self.delta0} must be positive")
        if not 0.0 < self.decay <= 1.0:
            raise MarketError("decay must lie in (0, 1]")
        if self.max_iters < 1:
            raise MarketError(f"max_iters = {self.max_iters} must be at least 1")
        if isinstance(self.init, str) and self.init not in INIT_CHOICES:
            raise MarketError(f"init must be a PricePair or one of {INIT_CHOICES}")


@dataclass(frozen=True)
class NeStep:
    iteration: int
    p_e: float
    p_h: float
    v_e: float
    v_h: float
    delta: float


@dataclass
class NeTrace:
    """Per-iteration record of the search path.

    responses holds the city's responses at the fixed point once the
    walk settles; it stays empty when the budget runs out.
    """

    steps: List[NeStep] = field(default_factory=list)
    iterations: int = 0
    responses: Tuple[KktSolution, ...] = field(default=(), repr=False)

    @property
    def delta_final(self) -> float:
        """Step size in force on the terminating iteration."""
        if not self.steps:
            raise ValueError("empty trace")
        return self.steps[-1].delta


def resolve_init(city: CityMarket, init: Union[str, PricePair]) -> PricePair:
    (lo_e, hi_e), (lo_h, hi_h) = city.price_box()
    if isinstance(init, PricePair):
        city.validate_prices(init)
        return init
    if init == "low":
        return PricePair(lo_e, lo_h)
    if init == "high":
        return PricePair(hi_e, hi_h)
    if init == "mid":
        return PricePair(0.5 * (lo_e + hi_e), 0.5 * (lo_h + hi_h))
    raise MarketError(f"unknown init {init!r}")


def aggregator_step(city: CityMarket, side: str, p_e: float, p_h: float,
                    delta: float, responses: Sequence[tuple],
                    ) -> Tuple[float, Sequence[tuple]]:
    """One aggregator's move on its own price: side "e" moves p_e, "h" p_h.

    Takes the city's responses at (p_e, p_h) and returns the new price
    with the responses there, solved afresh only when the clamp moves
    the price off the probe.  Probes are unclamped, the move is not.
    """
    if side == "e":
        (lo, hi), own = city.price_box()[0], p_e
    elif side == "h":
        (lo, hi), own = city.price_box()[1], p_h
    else:
        raise ValueError("side must be 'e' or 'h'")

    def at(price: float) -> PricePair:
        return PricePair(price, p_h) if side == "e" else PricePair(p_e, price)

    up, down = at(own + delta), at(own - delta)
    r_up, r_down = city_responses(city, up), city_responses(city, down)
    v0 = profit(city, side, at(own), responses)
    vp = profit(city, side, up, r_up)
    vm = profit(city, side, down, r_down)
    if vp >= v0 and vp >= vm:
        probe, new, held = own + delta, min(hi, own + delta), r_up
    elif vm >= v0 and vm > vp:
        probe, new, held = own - delta, max(lo, own - delta), r_down
    else:
        return own, responses
    return new, held if new == probe else city_responses(city, at(new))


def find_ne(city: CityMarket, cfg: NeConfig = NeConfig(),
            ) -> Tuple[PricePair, NeTrace]:
    """Walk both prices to a joint fixed point of the +/- delta moves.

    Raises MarketError when delta0 reaches the lower unit cost: a down
    probe from the cost floor would then leave the positive prices.
    """
    floor = min(city.chp.c_e, city.chp.c_h)
    if cfg.delta0 >= floor:
        raise MarketError(
            f"delta0 = {cfg.delta0} must be below the cost floor {floor:.6g}")
    start = resolve_init(city, cfg.init)
    p_e, p_h = start.p_e, start.p_h
    responses = city_responses(city, start)
    delta = cfg.delta0
    trace = NeTrace()
    for it in range(cfg.max_iters):
        before = (p_e, p_h)
        p_e, responses = aggregator_step(city, "e", p_e, p_h, delta, responses)
        p_h, responses = aggregator_step(city, "h", p_e, p_h, delta, responses)
        trace.iterations = it + 1
        pair = PricePair(p_e, p_h)
        trace.steps.append(NeStep(it, p_e, p_h, profit(city, "e", pair, responses),
                                  profit(city, "h", pair, responses), delta))
        if (p_e, p_h) == before:
            trace.responses = tuple(map(KktSolution._make, responses))
            return pair, trace
        delta *= cfg.decay
    raise NoFixedPoint(f"no fixed point after {cfg.max_iters} iterations", trace)


@dataclass(frozen=True)
class SeOutcome:
    """Equilibrium prices with the induced dispatches and payoffs."""

    prices: PricePair
    responses: Tuple[KktSolution, ...]
    utilities: Tuple[float, ...]
    v_e: float
    v_h: float


def stackelberg_outcome(city: CityMarket, cfg: NeConfig = NeConfig(),
                        ) -> Tuple[SeOutcome, NeTrace]:
    """Run the price search and evaluate everyone at the fixed point."""
    prices, trace = find_ne(city, cfg)
    responses = trace.responses
    utilities = tuple(
        des_utility(city.chp, com, prices, sol.dispatch)
        for com, sol in zip(city.communities, responses))
    return SeOutcome(
        prices=prices,
        responses=responses,
        utilities=utilities,
        v_e=profit(city, "e", prices, responses),
        v_h=profit(city, "h", prices, responses),
    ), trace
