"""Unit tests for the market primitives: capacities, costs, splits, utility."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from destrade import (
    Chain,
    ChpParams,
    CityMarket,
    CommunityParams,
    Contract,
    EnergyKind,
    MarketError,
    NeConfig,
    PricePair,
    des_utility,
    make_block,
    valid_k_intervals,
)
from conftest import RETAIL_E, RETAIL_H, make_city


def test_capacities(chp):
    assert chp.elec_capacity == pytest.approx(3.6e9)
    assert chp.heat_capacity == pytest.approx(2.88e9)


def test_stored_capacities_follow_the_fields():
    chp = ChpParams(q=3.6e7, eta_g=0.4, eta_r=0.9, f_m=150.0, c_f=1.2)
    for _ in range(2):  # the stored value on the second read
        assert chp.elec_capacity == 0.4 * 3.6e7 * 150.0
        assert chp.heat_capacity == (1.0 - 0.4) * 0.9 * 3.6e7 * 150.0
    bigger = ChpParams(q=3.6e7, eta_g=0.4, eta_r=0.9, f_m=300.0, c_f=1.2)
    assert bigger.elec_capacity == 0.4 * 3.6e7 * 300.0
    assert bigger.heat_capacity == (1.0 - 0.4) * 0.9 * 3.6e7 * 300.0
    # equality and hash see the fields only, read or unread
    fresh = ChpParams(q=3.6e7, eta_g=0.4, eta_r=0.9, f_m=150.0, c_f=1.2)
    assert fresh == chp and hash(fresh) == hash(chp)
    assert bigger != chp
    assert ChpParams(q=3.6e7, eta_g=0.4, eta_r=0.9, f_m=150.0, c_f=1.2) == chp


# Records that keep digests or rows derived from their fields, and the
# two price records, built from city1: (build, a field, the kept values).
# A contract keeps its digest as its tuple's last item, which no tuple
# lets be assigned (test_ledger.py checks it).
_READ_ONLY = {
    "Contract": (lambda city: Contract("ct-000000", "ea", "des", EnergyKind.HEAT,
                                       1.5, 2.0, 3, 4), "price", ()),
    "Block": (lambda city: make_block("ea", Chain(), 0, []), "signature",
              ("tx_ids", "own_root", "has_duplicate", "header_digest", "sig_ok",
               "block_hash")),
    "ChpParams": (lambda city: city.chp, "f_m", ("elec_capacity", "b_e", "inv_b_e", "c_e")),
    "CommunityParams": (lambda city: city.communities[0], "k_e", ()),
    "CityMarket": (lambda city: city, "r_e", ("kkt_table",)),
    "PricePair": (lambda city: PricePair(4.0e-8, 5.0e-8), "p_e", ()),
    "NeConfig": (lambda city: NeConfig(), "delta0", ()),
}


@pytest.mark.parametrize("name", sorted(_READ_ONLY))
def test_records_refuse_assignment(name, city1):
    build, field, kept = _READ_ONLY[name]
    record = build(city1)
    for attr in (field, *kept):
        before = getattr(record, attr)
        with pytest.raises(AttributeError):
            setattr(record, attr, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, attr)
        assert getattr(record, attr) is before


def test_unit_costs(chp):
    assert chp.c_e == pytest.approx(3.0e-8, rel=1e-12)
    assert chp.c_h == pytest.approx(3.75e-8, rel=1e-12)
    assert chp.fuel_cost == pytest.approx(216.0, rel=1e-12)


def test_cost_identity(chp):
    # fuel cost splits exactly into per-joule costs times capacities
    recomposed = chp.c_e * chp.elec_capacity + chp.c_h * chp.heat_capacity
    assert recomposed == pytest.approx(chp.fuel_cost, rel=1e-12)


def test_adaption_coefficients(chp):
    b_e, b_h = chp.b_e, chp.b_h
    assert b_e == pytest.approx(4.773e-10, rel=1e-3)
    assert b_h == pytest.approx(5.966e-10, rel=1e-3)
    # saturation scaling: log term hits exactly 1 at full retention
    assert math.log1p(b_e * chp.elec_capacity) == pytest.approx(1.0, rel=1e-12)
    assert math.log1p(b_h * chp.heat_capacity) == pytest.approx(1.0, rel=1e-12)


def test_valid_k_intervals(chp):
    (e_lo, e_hi), (h_lo, h_hi) = valid_k_intervals(chp, RETAIL_E, RETAIL_H)
    assert e_lo == pytest.approx(115.24, rel=1e-3)
    assert e_hi == pytest.approx(170.85, rel=1e-3)
    assert h_lo == pytest.approx(104.76, rel=1e-3)
    assert h_hi == pytest.approx(170.85, rel=1e-3)


def test_valid_k_intervals_scale_with_capacity(chp):
    doubled = ChpParams(q=chp.q, eta_g=chp.eta_g, eta_r=chp.eta_r,
                        f_m=2.0 * chp.f_m, c_f=chp.c_f)
    base = valid_k_intervals(chp, RETAIL_E, RETAIL_H)
    big = valid_k_intervals(doubled, RETAIL_E, RETAIL_H)
    for (lo, hi), (lo2, hi2) in zip(base, big):
        assert lo2 == pytest.approx(2.0 * lo, rel=1e-12)
        assert hi2 == pytest.approx(2.0 * hi, rel=1e-12)


def test_valid_k_intervals_infeasible_retail(chp):
    with pytest.raises(MarketError):
        valid_k_intervals(chp, math.e * chp.c_e, RETAIL_H)


def test_des_utility_full_retention(chp):
    com = CommunityParams(143.05, 137.81)
    p = PricePair(4.5e-8, 4.5e-8)
    u = des_utility(chp, com, p, 1.0, 1.0)
    assert u == pytest.approx(143.05 + 137.81 - 216.0, abs=1e-9)
    assert u == pytest.approx(64.86, abs=1e-9)


def test_des_utility_full_export(chp):
    com = CommunityParams(143.05, 137.81)
    p = PricePair(4.5e-8, 4.5e-8)
    u = des_utility(chp, com, p, 0.0, 0.0)
    expected = p.p_e * chp.elec_capacity + p.p_h * chp.heat_capacity - 216.0
    assert u == pytest.approx(expected, rel=1e-12)


@given(alpha=st.floats(0.0, 1.0), beta=st.floats(0.0, 1.0),
       p_e=st.floats(3.0e-8, 5.5e-8), p_h=st.floats(3.75e-8, 6.25e-8))
def test_des_utility_matches_manual_formula(alpha, beta, p_e, p_h):
    chp = ChpParams(q=3.6e7, eta_g=0.5, eta_r=0.8, f_m=200.0, c_f=1.08)
    com = CommunityParams(143.05, 137.81)
    x, y = chp.elec_capacity, chp.heat_capacity
    manual = (com.k_e * math.log(1.0 + chp.b_e * alpha * x)
              + com.k_h * math.log(1.0 + chp.b_h * beta * y)
              + p_e * (1.0 - alpha) * x + p_h * (1.0 - beta) * y
              - chp.fuel_cost)
    got = des_utility(chp, com, PricePair(p_e, p_h), alpha, beta)
    assert got == pytest.approx(manual, rel=1e-12, abs=1e-9)


def test_price_pair_must_be_positive():
    with pytest.raises(MarketError):
        PricePair(0.0, 4.0e-8)
    with pytest.raises(MarketError):
        PricePair(4.0e-8, -1.0e-8)
    with pytest.raises(MarketError):
        PricePair(math.nan, 4.0e-8)


def test_chp_params_validation():
    with pytest.raises(MarketError):
        ChpParams(q=3.6e7, eta_g=0.0, eta_r=0.8, f_m=200.0, c_f=1.08)
    with pytest.raises(MarketError):
        ChpParams(q=3.6e7, eta_g=0.5, eta_r=1.2, f_m=200.0, c_f=1.08)
    with pytest.raises(MarketError):
        ChpParams(q=-1.0, eta_g=0.5, eta_r=0.8, f_m=200.0, c_f=1.08)


def test_city_rejects_retail_out_of_band(chp):
    com = CommunityParams(143.05, 137.81)
    with pytest.raises(MarketError):
        CityMarket(chp=chp, communities=[com], r_e=math.e * chp.c_e, r_h=RETAIL_H)
    with pytest.raises(MarketError):
        CityMarket(chp=chp, communities=[com], r_e=0.5 * chp.c_e, r_h=RETAIL_H)


def test_city_rejects_k_outside_interval(chp):
    with pytest.raises(MarketError):
        make_city(chp, [(115.0, 137.81)])
    with pytest.raises(MarketError):
        make_city(chp, [(171.0, 137.81)])
    with pytest.raises(MarketError):
        make_city(chp, [(143.05, 104.0)])


def test_city_requires_a_community(chp):
    with pytest.raises(MarketError):
        CityMarket(chp=chp, communities=[], r_e=RETAIL_E, r_h=RETAIL_H)


def test_floor_regimes(chp):
    x, y = chp.elec_capacity, chp.heat_capacity
    # inactive sentinel and the open admissible band both construct
    make_city(chp, [(143.05, 137.81)], 0.0)
    make_city(chp, [(143.05, 137.81)], 0.5 * (max(x, y) + x + y))
    # at or below max{X, Y}, or at the total, the floor is rejected
    with pytest.raises(MarketError):
        make_city(chp, [(143.05, 137.81)], max(x, y))
    with pytest.raises(MarketError):
        make_city(chp, [(143.05, 137.81)], x + y)
    with pytest.raises(MarketError):
        make_city(chp, [(143.05, 137.81)], -1.0)


def test_price_box(city1):
    (lo_e, hi_e), (lo_h, hi_h) = city1.price_box()
    assert (lo_e, hi_e) == (city1.chp.c_e, city1.r_e)
    assert (lo_h, hi_h) == (city1.chp.c_h, city1.r_h)
    city1.validate_prices(PricePair(4.0e-8, 5.0e-8))
    with pytest.raises(MarketError):
        city1.validate_prices(PricePair(2.9e-8, 5.0e-8))
    with pytest.raises(MarketError):
        city1.validate_prices(PricePair(4.0e-8, 6.3e-8))
