"""Unit tests for the alternating price search and the full outcome bundle."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import destrade.equilibrium
from destrade import (
    CityMarket,
    CommunityParams,
    Dispatch,
    KktSolution,
    MarketError,
    NeConfig,
    NoFixedPoint,
    PricePair,
    des_utility,
    export_totals,
    find_ne,
    stackelberg_outcome,
    valid_k_intervals,
)
from destrade.equilibrium import aggregator_step, resolve_init
from destrade.scenario import build_city, build_ne_config, load_scenario
from conftest import RETAIL_E, RETAIL_H, make_city
import oracles
from oracles import city_responses, decoupled_price_optimum, profit_at

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ------------------------------------------------------------
# configuration and initialization
# ------------------------------------------------------------


def test_config_validation():
    with pytest.raises(MarketError):
        NeConfig(delta0=0.0)
    with pytest.raises(MarketError, match="delta0 = nan must be positive"):
        NeConfig(delta0=float("nan"))
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


def test_step_reaching_the_cost_floor_is_rejected(city1):
    # a down probe from the floor would leave the positive prices
    floor = min(city1.chp.c_e, city1.chp.c_h)
    with pytest.raises(MarketError, match="delta0 = .* must be below the cost floor"):
        find_ne(city1, NeConfig(delta0=floor))
    find_ne(city1, NeConfig(delta0=0.5 * floor))


# ------------------------------------------------------------
# single steps
# ------------------------------------------------------------


def _count_city_solves(monkeypatch):
    """Record every city solve the walk and the outcome make."""
    calls = []
    solve = destrade.equilibrium.export_totals

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(destrade.equilibrium, "export_totals", counted)
    return calls


def _totals_at(city, p_e, p_h):
    return export_totals(city.chp, city.kkt_table, p_e, p_h)


def _count_records(monkeypatch):
    """Record every KktSolution built, by its constructor or by _make."""
    built = []
    make, new = KktSolution._make, KktSolution.__new__

    def counted_make(cls, iterable):
        built.append(cls)
        return make(iterable)

    def counted_new(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(KktSolution, "_make", classmethod(counted_make))
    monkeypatch.setattr(KktSolution, "__new__", counted_new)
    return built


def _step(city, side, p_e, p_h, delta):
    """aggregator_step from fresh totals; checks the ones it hands back."""
    new, totals = aggregator_step(city, side, p_e, p_h, delta,
                                  _totals_at(city, p_e, p_h))
    moved = (new, p_h) if side == "e" else (p_e, new)
    assert totals == _totals_at(city, *moved)
    return new


def test_step_stays_at_stationary_point(city1):
    p_star = decoupled_price_optimum(city1, "e")
    assert _step(city1, "e", p_star, 4.5e-8, 1e-10) == p_star


def test_step_climbs_toward_optimum(city1):
    p_star = decoupled_price_optimum(city1, "e")
    below, above = p_star - 5e-10, p_star + 5e-10
    assert _step(city1, "e", below, 4.5e-8, 1e-10) == below + 1e-10
    assert _step(city1, "e", above, 4.5e-8, 1e-10) == above - 1e-10


def test_step_breaks_ties_upward(city1_mid):
    # alpha saturates below the kink, so profit is flat zero and all
    # three probes tie; the walk drifts up and out of the dead zone
    p_e = 3.05e-8
    assert _step(city1_mid, "e", p_e, 6.25e-8, 1e-10) == p_e + 1e-10


def test_step_clamps_to_box(city1):
    (lo_e, hi_e), (lo_h, hi_h) = city1.price_box()
    # at the cost corner profit rises upward, never below the floor
    assert _step(city1, "e", lo_e, 4.5e-8, 1e-10) >= lo_e
    assert _step(city1, "h", 4.5e-8, lo_h, 1e-10) >= lo_h
    with pytest.raises(ValueError):
        _step(city1, "x", 4.5e-8, 4.5e-8, 1e-10)


def test_step_solves_the_clamped_point_afresh(chp, floor_tight, monkeypatch):
    # With heat at retail this community meets its tight floor on
    # electricity alone (alpha = 1): the electricity profit is zero at all three
    # probes, the tie goes up, and the clamp pulls the move back to hi.
    city = make_city(chp, [(170.0, 106.0)], floor_tight)
    (_, hi_e), (_, hi_h) = city.price_box()
    delta = 1e-10
    own = hi_e - 0.5 * delta
    assert own + delta != hi_e
    held = _totals_at(city, own, hi_h)
    calls = _count_city_solves(monkeypatch)
    new, totals = aggregator_step(city, "e", own, hi_h, delta, held)
    assert new == hi_e
    assert len(calls) == 3  # up, down and the clamped point
    assert [args[2:] for args in calls] == [(own + delta, hi_h), (own - delta, hi_h),
                                            (hi_e, hi_h)]
    assert totals == _totals_at(city, hi_e, hi_h)


def test_step_monotone_improvement(city1_mid):
    rng = np.random.default_rng(17)
    delta = 1e-10
    for _ in range(100):
        p_e = rng.uniform(3.0e-8 + 2 * delta, 5.5e-8 - 2 * delta)
        p_h = rng.uniform(3.75e-8 + 2 * delta, 6.25e-8 - 2 * delta)
        new_e = _step(city1_mid, "e", p_e, p_h, delta)
        v_old = profit_at(city1_mid, "e", PricePair(p_e, p_h))
        v_new = profit_at(city1_mid, "e", PricePair(new_e, p_h))
        assert v_new >= v_old - 1e-12 * max(1.0, abs(v_old))
        new_h = _step(city1_mid, "h", new_e, p_h, delta)
        w_old = profit_at(city1_mid, "h", PricePair(new_e, p_h))
        w_new = profit_at(city1_mid, "h", PricePair(new_e, new_h))
        assert w_new >= w_old - 1e-12 * max(1.0, abs(w_old))


# ------------------------------------------------------------
# full search
# ------------------------------------------------------------


def test_decoupled_fixed_point(city1):
    prices, trace = find_ne(city1, NeConfig())
    tol = 2.0 * trace.delta_final
    assert abs(prices.p_e - decoupled_price_optimum(city1, "e")) <= tol
    assert abs(prices.p_h - decoupled_price_optimum(city1, "h")) <= tol


def test_no_unilateral_improvement_at_fixed_point(city1_mid):
    prices, trace = find_ne(city1_mid, NeConfig())
    d = trace.delta_final
    v_e = profit_at(city1_mid, "e", prices)
    v_h = profit_at(city1_mid, "h", prices)
    assert profit_at(city1_mid, "e", PricePair(prices.p_e + d, prices.p_h)) <= v_e
    assert profit_at(city1_mid, "e", PricePair(prices.p_e - d, prices.p_h)) <= v_e
    assert profit_at(city1_mid, "h", PricePair(prices.p_e, prices.p_h + d)) <= v_h
    assert profit_at(city1_mid, "h", PricePair(prices.p_e, prices.p_h - d)) <= v_h


def test_each_visited_point_is_solved_once(monkeypatch):
    # the start point, then two probes per side each iteration; the
    # trace and the next step reuse the totals at the point moved to
    sc = load_scenario(os.path.join(REPO, "scenarios", "city5_floor.scn"))
    city = build_city(sc)
    calls = _count_city_solves(monkeypatch)
    _, trace = find_ne(city, build_ne_config(sc))
    assert len(calls) == 4 * trace.iterations + 1
    # the walk asks for totals only, never for response tuples
    assert all(len(args) == 4 for args in calls)


def test_outcome_reads_its_profits_off_the_walk(monkeypatch):
    # no city solve past the walk: both profits are the last step's, and
    # each community is solved once more at the fixed point for its
    # KktSolution
    sc = load_scenario(os.path.join(REPO, "scenarios", "city5_floor.scn"))
    city = build_city(sc)
    calls = _count_city_solves(monkeypatch)
    built = _count_records(monkeypatch)
    outcome, trace = stackelberg_outcome(city, build_ne_config(sc))
    assert len(calls) == 4 * trace.iterations + 1
    assert len(built) == len(city.communities)
    assert all(isinstance(r, KktSolution) for r in outcome.responses)
    assert outcome.responses == tuple(city_responses(city, outcome.prices))
    last = trace.steps[-1]
    assert (last.p_e, last.p_h) == (outcome.prices.p_e, outcome.prices.p_h)
    assert (outcome.v_e, outcome.v_h) == (last.v_e, last.v_h)
    # a fresh solve at the fixed point gives the same profits
    assert outcome.v_e == profit_at(city, "e", outcome.prices)
    assert outcome.v_h == profit_at(city, "h", outcome.prices)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_walk_matches_the_reference_walk(chp, data):
    # drawn cities mix floored and unfloored communities; walks that run
    # out of budget compare their partial traces
    (k_e_lo, k_e_hi), (k_h_lo, k_h_hi) = valid_k_intervals(chp, RETAIL_E, RETAIL_H)
    x, y = chp.elec_capacity, chp.heat_capacity
    floor = st.one_of(st.just(0.0), st.floats(0.05, 0.95).map(
        lambda w: w * max(x, y) + (1.0 - w) * (x + y)))
    community = st.builds(
        lambda k_e, k_h, m_min: CommunityParams.for_chp(chp, k_e, k_h, m_min),
        st.floats(k_e_lo * 1.001, k_e_hi * 0.999),
        st.floats(k_h_lo * 1.001, k_h_hi * 0.999), floor)
    communities = data.draw(st.lists(community, min_size=1, max_size=8))
    city = CityMarket(chp=chp, r_e=RETAIL_E, r_h=RETAIL_H, communities=communities)
    (lo_e, hi_e), (lo_h, hi_h) = city.price_box()
    init = data.draw(st.one_of(
        st.sampled_from(["low", "high", "mid"]),
        st.builds(PricePair, st.floats(lo_e, hi_e), st.floats(lo_h, hi_h))))
    cfg = NeConfig(delta0=data.draw(st.sampled_from([1e-10, 1e-9, 5e-9])),
                   decay=data.draw(st.sampled_from([0.999, 0.99])),
                   init=init, max_iters=120)
    try:
        prices, trace = find_ne(city, cfg)
    except NoFixedPoint as exc:
        prices, trace = None, exc.trace
    ref_prices, ref_rows = oracles.reference_walk(
        city, resolve_init(city, init), cfg.delta0, cfg.decay, cfg.max_iters)
    assert prices == ref_prices
    assert [(s.iteration, s.p_e, s.p_h, s.v_e, s.v_h, s.delta)
            for s in trace.steps] == ref_rows


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


def test_step_too_small_to_move_a_start_price_is_rejected(city1):
    # a step below half an ulp of the start prices leaves every probe
    # on the start point: no walk at all
    with pytest.raises(MarketError, match="delta0 = 5e-324 is too small to move"):
        find_ne(city1, NeConfig(delta0=5e-324))
    with pytest.raises(MarketError, match="delta0 = 1e-30 is too small to move"):
        find_ne(city1, NeConfig(delta0=1e-30, init="high"))


def test_walk_stopped_by_a_vanished_step_is_no_fixed_point(city1):
    # the step underflows to 0 after the first iteration, so the second
    # one ties every probe and stops without proving anything
    with pytest.raises(NoFixedPoint, match="no longer moves the prices") as exc:
        find_ne(city1, NeConfig(decay=1e-320))
    trace = exc.value.trace
    assert trace.iterations == 2
    assert trace.delta_final == 0.0


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
    assert outcome.v_e == profit_at(city1, "e", outcome.prices)
    assert outcome.v_h == profit_at(city1, "h", outcome.prices)
    assert trace.iterations == len(trace.steps) >= 1


def test_zero_profit_at_retail_corner(city1):
    corner = PricePair(city1.r_e, city1.r_h)
    assert profit_at(city1, "e", corner) == 0.0
    assert profit_at(city1, "h", corner) == 0.0


def test_followers_cannot_improve_at_outcome(city1, city1_mid):
    rng = np.random.default_rng(23)
    for city in (city1, city1_mid):
        outcome, _ = stackelberg_outcome(city, NeConfig())
        chp = city.chp
        x, y = chp.elec_capacity, chp.heat_capacity
        com = city.communities[0]
        best = des_utility(chp, com, outcome.prices, outcome.responses[0].dispatch)
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
        lambda pe: profit_at(city1, "e", PricePair(pe, outcome.prices.p_h)),
        lo_e, hi_e, n)
    best_h, _ = oracles.scan_argmax(
        lambda ph: profit_at(city1, "h", PricePair(outcome.prices.p_e, ph)),
        lo_h, hi_h, n)
    slack = 2.0 * trace.delta_final
    assert abs(outcome.prices.p_e - best_e) <= (hi_e - lo_e) / (n - 1) + slack
    assert abs(outcome.prices.p_h - best_h) <= (hi_h - lo_h) / (n - 1) + slack
