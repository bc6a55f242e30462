"""Unit tests for aggregator profit evaluation and its structure."""

from __future__ import annotations

import numpy as np
import pytest

from destrade import PricePair, best_response, export_totals, profit
import oracles
from conftest import RETAIL_E, RETAIL_H, make_city
from oracles import concavity_probe, decoupled_price_optimum, profit_at


def test_profit_zero_margin_at_retail(city1):
    assert profit_at(city1, "e", PricePair(RETAIL_E, 4.5e-8)) == 0.0


def test_profit_positive_inside_box(city1):
    p = PricePair(4.0e-8, 4.5e-8)
    assert profit_at(city1, "e", p) > 0.0
    assert profit_at(city1, "h", p) > 0.0


def test_profit_is_the_margin_times_the_sides_total(city1):
    x, y = city1.chp.elec_capacity, city1.chp.heat_capacity
    half = (0.5 * x, 0.5 * y)
    assert profit(city1, "e", RETAIL_E, half) == 0.0
    assert profit(city1, "h", RETAIL_H, half) == 0.0
    assert profit(city1, "e", 4.0e-8, (0.0, 0.0)) == 0.0
    assert profit(city1, "h", 4.0e-8, (0.0, 0.0)) == 0.0
    # half of X = 3.6e9 J sold at a 1.5e-8 margin
    assert profit(city1, "e", 4.0e-8, half) == pytest.approx(27.0, rel=1e-12)
    with pytest.raises(ValueError):
        profit(city1, "x", 4.0e-8, half)
    # each side reads its own total only
    assert profit(city1, "e", 4.0e-8, (x, 0.0)) == profit(city1, "e", 4.0e-8, (x, y))
    assert profit(city1, "h", 4.0e-8, (0.0, y)) == profit(city1, "h", 4.0e-8, (x, y))


def test_profit_on_city_totals_matches_the_oracle(city5_mid, city5_tight):
    # the walk's totals against per-community solves added one by one
    for city in (city5_mid, city5_tight):
        for p in (PricePair(3.3e-8, 4.0e-8), PricePair(4.5e-8, 5.5e-8)):
            totals = export_totals(city.chp, city.kkt_table, p.p_e, p.p_h)
            assert profit(city, "e", p.p_e, totals) == profit_at(city, "e", p)
            assert profit(city, "h", p.p_h, totals) == profit_at(city, "h", p)


def test_profit_e_ignores_heat_price_without_floor(city1):
    vals = {profit_at(city1, "e", PricePair(4.0e-8, ph))
            for ph in (3.8e-8, 4.5e-8, 5.5e-8, 6.2e-8)}
    assert len(vals) == 1


def test_profit_e_depends_on_heat_price_with_floor(city1_mid):
    vals = {profit_at(city1_mid, "e", PricePair(4.0e-8, ph))
            for ph in (3.8e-8, 5.5e-8)}
    assert len(vals) == 2


def test_decoupled_optimum_closed_form(city1):
    p_star = decoupled_price_optimum(city1, "e")
    com = city1.communities[0]
    x = city1.chp.elec_capacity
    assert p_star == pytest.approx(
        (RETAIL_E * com.k_e / (x + 1.0 / com.b_e)) ** 0.5, rel=1e-12)
    assert p_star == pytest.approx(3.7168e-8, rel=1e-3)
    assert decoupled_price_optimum(city1, "h") == pytest.approx(4.3479e-8, rel=1e-3)


def test_decoupled_optimum_agrees_with_scan(city1):
    for side, (lo, hi), at in (
            ("e", city1.price_box()[0], lambda pe: PricePair(pe, 4.5e-8)),
            ("h", city1.price_box()[1], lambda ph: PricePair(4.5e-8, ph))):
        p_star = decoupled_price_optimum(city1, side)
        x_best, _ = oracles.scan_argmax(
            lambda v: profit_at(city1, side, at(v)), lo, hi, 2001)
        assert abs(x_best - p_star) <= (hi - lo) / 2000


# ------------------------------------------------------------
# curvature
# ------------------------------------------------------------


def test_concavity_no_floor(city1):
    worst, scale = concavity_probe(city1, 4.5e-8, 101, side="e")
    assert worst <= 1e-9 * scale
    worst_h, scale_h = concavity_probe(city1, 4.5e-8, 101, side="h")
    assert worst_h <= 1e-9 * scale_h


def test_concavity_with_floor_both_sides(city5_mid, city5_tight):
    for city in (city5_mid, city5_tight):
        for p_other in (4.0e-8, 5.0e-8, 6.0e-8):
            worst, scale = concavity_probe(city, p_other, 101, side="e")
            assert worst <= 1e-6 * scale
        for p_other in (3.2e-8, 4.2e-8, 5.2e-8):
            worst, scale = concavity_probe(city, p_other, 101, side="h")
            assert worst <= 1e-6 * scale


def test_linear_tail_second_difference(chp, floor_tight):
    # with heat fully retained and the floor pinning alpha, exports are
    # price-independent, so profit is linear and curvature vanishes
    city = make_city(chp, [(143.05, 137.81)], floor_tight)
    ph = 3.75e-8
    pes = np.linspace(4.3e-8, 5.3e-8, 21)
    tags = [best_response(city.chp, city.communities[0], PricePair(float(pe), ph)).case
            for pe in pes]
    assert len(set(tags)) == 1
    vals = [profit_at(city, "e", PricePair(float(pe), ph)) for pe in pes]
    scale = max(abs(v) for v in vals)
    for i in range(1, len(vals) - 1):
        d2 = vals[i - 1] - 2.0 * vals[i] + vals[i + 1]
        assert abs(d2) <= 1e-9 * scale


def test_constant_region_second_difference_exactly_zero(chp, floor_mid):
    # alpha pinned at 1 leaves no exports: profit identically zero there
    city = make_city(chp, [(143.05, 137.81)], floor_mid)
    ph = 6.25e-8
    pes = np.linspace(3.0e-8, 3.1e-8, 11)
    vals = [profit_at(city, "e", PricePair(float(pe), ph)) for pe in pes]
    assert vals == [0.0] * len(vals)
    for i in range(1, len(vals) - 1):
        assert vals[i - 1] - 2.0 * vals[i] + vals[i + 1] == 0.0


# ------------------------------------------------------------
# competition effect
# ------------------------------------------------------------


def test_argmax_nondecreasing_in_other_price(city1_mid):
    # a rising heat price pushes the community toward electricity for
    # the floor, so the electricity side's best price never moves down
    lo, hi = city1_mid.chp.c_e, city1_mid.r_e
    n_scan = 401
    step = (hi - lo) / (n_scan - 1)
    prev = -1.0
    for ph in np.linspace(3.75e-8, 6.25e-8, 26):
        best, _ = oracles.scan_argmax(
            lambda pe: profit_at(city1_mid, "e", PricePair(pe, float(ph))),
            lo, hi, n_scan)
        assert best >= prev - step
        prev = best


def test_argmax_nondecreasing_five_communities_upper_band(city5_mid):
    # with five communities the low heat-price band mixes case switches
    # across communities and the argmax briefly dips; above that band
    # the competition effect holds cleanly
    lo, hi = city5_mid.chp.c_e, city5_mid.r_e
    n_scan = 401
    step = (hi - lo) / (n_scan - 1)
    prev = -1.0
    for ph in np.linspace(4.25e-8, 6.25e-8, 21):
        best, _ = oracles.scan_argmax(
            lambda pe: profit_at(city5_mid, "e", PricePair(pe, float(ph))),
            lo, hi, n_scan)
        assert best >= prev - step
        prev = best
