"""Unit tests for the alternating price search and the full outcome bundle."""

from __future__ import annotations

import numpy as np
import pytest

from destrade import (
    Dispatch,
    MarketError,
    NeConfig,
    NoFixedPoint,
    PricePair,
    des_utility,
    find_ne,
    profit_e,
    profit_h,
    stackelberg_outcome,
)
from destrade.equilibrium import aggregator_step, resolve_init
from destrade.leader import decoupled_price_optimum
import oracles


def _heat_optimum(city):
    com = city.communities[0]
    y = city.chp.heat_capacity
    return (city.r_h * com.k_h / (y + 1.0 / com.b_h)) ** 0.5


# ------------------------------------------------------------
# configuration and initialization
# ------------------------------------------------------------


def test_config_validation():
    with pytest.raises(MarketError):
        NeConfig(delta0=0.0)
    with pytest.raises(MarketError):
        NeConfig(decay=0.0)
    with pytest.raises(MarketError):
        NeConfig(init="corner")
    NeConfig(init=PricePair(4.0e-8, 5.0e-8))


def test_resolve_init(city1):
    (lo_e, hi_e), (lo_h, hi_h) = city1.price_box()
    assert resolve_init(city1, "low") == PricePair(lo_e, lo_h)
    assert resolve_init(city1, "high") == PricePair(hi_e, hi_h)
    mid = resolve_init(city1, "mid")
    assert mid.p_e == pytest.approx(0.5 * (lo_e + hi_e))
    assert mid.p_h == pytest.approx(0.5 * (lo_h + hi_h))
    explicit = PricePair(4.0e-8, 5.0e-8)
    assert resolve_init(city1, explicit) == explicit
    with pytest.raises(MarketError):
        resolve_init(city1, PricePair(1.0e-8, 5.0e-8))


# ------------------------------------------------------------
# single steps
# ------------------------------------------------------------


def test_step_stays_at_stationary_point(city1):
    p_star = decoupled_price_optimum(city1)
    assert aggregator_step(city1, "e", p_star, 4.5e-8, 1e-10) == p_star


def test_step_climbs_toward_optimum(city1):
    p_star = decoupled_price_optimum(city1)
    below, above = p_star - 5e-10, p_star + 5e-10
    assert aggregator_step(city1, "e", below, 4.5e-8, 1e-10) == below + 1e-10
    assert aggregator_step(city1, "e", above, 4.5e-8, 1e-10) == above - 1e-10


def test_step_breaks_ties_upward(city1_mid):
    # alpha saturates below the kink, so profit is flat zero and all
    # three probes tie; the walk drifts up and out of the dead zone
    p_e = 3.05e-8
    assert aggregator_step(city1_mid, "e", p_e, 6.25e-8, 1e-10) == p_e + 1e-10


def test_step_clamps_to_box(city1):
    (lo_e, hi_e), (lo_h, hi_h) = city1.price_box()
    # at the cost corner profit rises upward, never below the floor
    assert aggregator_step(city1, "e", lo_e, 4.5e-8, 1e-10) >= lo_e
    assert aggregator_step(city1, "h", 4.5e-8, lo_h, 1e-10) >= lo_h
    with pytest.raises(ValueError):
        aggregator_step(city1, "x", 4.5e-8, 4.5e-8, 1e-10)


def test_step_monotone_improvement(city1_mid):
    rng = np.random.default_rng(17)
    delta = 1e-10
    for _ in range(100):
        p_e = rng.uniform(3.0e-8 + 2 * delta, 5.5e-8 - 2 * delta)
        p_h = rng.uniform(3.75e-8 + 2 * delta, 6.25e-8 - 2 * delta)
        new_e = aggregator_step(city1_mid, "e", p_e, p_h, delta)
        v_old = profit_e(city1_mid, PricePair(p_e, p_h))
        v_new = profit_e(city1_mid, PricePair(new_e, p_h))
        assert v_new >= v_old - 1e-12 * max(1.0, abs(v_old))
        new_h = aggregator_step(city1_mid, "h", new_e, p_h, delta)
        w_old = profit_h(city1_mid, PricePair(new_e, p_h))
        w_new = profit_h(city1_mid, PricePair(new_e, new_h))
        assert w_new >= w_old - 1e-12 * max(1.0, abs(w_old))


# ------------------------------------------------------------
# full search
# ------------------------------------------------------------


def test_decoupled_fixed_point(city1):
    prices, trace = find_ne(city1, NeConfig())
    tol = 2.0 * trace.delta_final
    assert abs(prices.p_e - decoupled_price_optimum(city1)) <= tol
    assert abs(prices.p_h - _heat_optimum(city1)) <= tol


def test_no_unilateral_improvement_at_fixed_point(city1_mid):
    prices, trace = find_ne(city1_mid, NeConfig())
    d = trace.delta_final
    v_e = profit_e(city1_mid, prices)
    v_h = profit_h(city1_mid, prices)
    assert profit_e(city1_mid, PricePair(prices.p_e + d, prices.p_h)) <= v_e
    assert profit_e(city1_mid, PricePair(prices.p_e - d, prices.p_h)) <= v_e
    assert profit_h(city1_mid, PricePair(prices.p_e, prices.p_h + d)) <= v_h
    assert profit_h(city1_mid, PricePair(prices.p_e, prices.p_h - d)) <= v_h


def test_trace_structure(city1):
    cfg = NeConfig()
    prices, trace = find_ne(city1, cfg)
    assert trace.iterations == len(trace.steps)
    (lo_e, hi_e), (lo_h, hi_h) = city1.price_box()
    expect_delta = cfg.delta0
    for t, step in enumerate(trace.steps):
        assert step.iteration == t
        # geometric decay applied once per iteration, by running product
        assert step.delta == expect_delta
        expect_delta *= cfg.decay
        assert lo_e <= step.p_e <= hi_e
        assert lo_h <= step.p_h <= hi_h
    assert trace.delta_final == trace.steps[-1].delta
    last = trace.steps[-1]
    assert (last.p_e, last.p_h) == (prices.p_e, prices.p_h)


def test_inits_agree(city1):
    results = {}
    worst_delta = 0.0
    for init in ("low", "high", "mid"):
        prices, trace = find_ne(city1, NeConfig(init=init))
        results[init] = prices
        worst_delta = max(worst_delta, trace.delta_final)
    tol = 2.0 * worst_delta
    vals = list(results.values())
    for other in vals[1:]:
        assert abs(other.p_e - vals[0].p_e) <= tol
        assert abs(other.p_h - vals[0].p_h) <= tol


def test_high_corner_iteration_count(city5_mid):
    _, trace = find_ne(city5_mid, NeConfig(init="high"))
    assert 50 <= trace.iterations <= 500


def test_larger_step_converges_in_fewer_iterations(city1_mid):
    def iters_to_settle(delta0):
        prices, trace = find_ne(city1_mid, NeConfig(delta0=delta0, init="low"))
        for step in trace.steps:
            if (abs(step.p_e - prices.p_e) <= 1e-9
                    and abs(step.p_h - prices.p_h) <= 1e-9):
                return step.iteration
        raise AssertionError("never settled")

    assert iters_to_settle(1e-9) <= iters_to_settle(1e-10)


def test_exhausted_budget_raises_with_trace(city1):
    with pytest.raises(NoFixedPoint) as exc:
        find_ne(city1, NeConfig(max_iters=3))
    assert exc.value.trace.iterations == 3
    assert len(exc.value.trace.steps) == 3


# ------------------------------------------------------------
# assembled outcome
# ------------------------------------------------------------


def test_outcome_bundles_consistent_values(city1):
    outcome, trace = stackelberg_outcome(city1, NeConfig())
    assert len(outcome.responses) == len(city1.communities)
    assert len(outcome.utilities) == len(city1.communities)
    assert outcome.v_e == profit_e(city1, outcome.prices)
    assert outcome.v_h == profit_h(city1, outcome.prices)
    assert trace.iterations >= 1


def test_zero_profit_at_retail_corner(city1):
    corner = PricePair(city1.r_e, city1.r_h)
    assert profit_e(city1, corner) == 0.0
    assert profit_h(city1, corner) == 0.0


def test_followers_cannot_improve_at_outcome(city1, city1_mid):
    rng = np.random.default_rng(23)
    for city in (city1, city1_mid):
        outcome, _ = stackelberg_outcome(city, NeConfig())
        chp = city.chp
        x, y = chp.elec_capacity, chp.heat_capacity
        com = city.communities[0]
        best = outcome.utilities[0]
        tried = 0
        while tried < 1000:
            a, b = rng.uniform(0.0, 1.0, size=2)
            if x * a + y * b < com.m_min:
                continue
            u = des_utility(chp, com, outcome.prices, Dispatch(float(a), float(b)))
            assert u <= best + 1e-9
            tried += 1


def test_decoupled_outcome_matches_independent_scans(city1):
    outcome, trace = stackelberg_outcome(city1, NeConfig())
    (lo_e, hi_e), (lo_h, hi_h) = city1.price_box()
    n = 4001
    best_e, _ = oracles.scan_argmax(
        lambda pe: profit_e(city1, PricePair(pe, outcome.prices.p_h)),
        lo_e, hi_e, n)
    best_h, _ = oracles.scan_argmax(
        lambda ph: profit_h(city1, PricePair(outcome.prices.p_e, ph)),
        lo_h, hi_h, n)
    slack = 2.0 * trace.delta_final
    assert abs(outcome.prices.p_e - best_e) <= (hi_e - lo_e) / (n - 1) + slack
    assert abs(outcome.prices.p_h - best_h) <= (hi_h - lo_h) / (n - 1) + slack
