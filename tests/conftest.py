"""Shared fixtures: the benchmark CHP unit and a few reference cities."""

from __future__ import annotations

import pytest

from destrade import ChpParams, CityMarket, CommunityParams

RETAIL_E = 5.5e-8
RETAIL_H = 6.25e-8

# Floor regimes used throughout: a moderate one and a tight one,
# expressed as blends of max{X, Y} and X + Y.
def _floor(chp: ChpParams, w: float) -> float:
    cap_max = max(chp.elec_capacity, chp.heat_capacity)
    return w * cap_max + (1.0 - w) * (chp.elec_capacity + chp.heat_capacity)


FIVE_K = [
    (115.24, 137.81),
    (129.14, 137.81),
    (143.04, 137.81),
    (156.94, 137.81),
    (170.85, 137.81),
]


@pytest.fixture(scope="session")
def chp() -> ChpParams:
    return ChpParams(q=3.6e7, eta_g=0.5, eta_r=0.8, f_m=200.0, c_f=1.08)


@pytest.fixture(scope="session")
def floor_mid(chp) -> float:
    return _floor(chp, 0.7)


@pytest.fixture(scope="session")
def floor_tight(chp) -> float:
    return _floor(chp, 0.5)


def make_city(chp: ChpParams, ks, m_min: float = 0.0) -> CityMarket:
    coms = [CommunityParams(ke, kh, m_min) for ke, kh in ks]
    return CityMarket(chp=chp, communities=coms, r_e=RETAIL_E, r_h=RETAIL_H)


@pytest.fixture(scope="session")
def city1(chp) -> CityMarket:
    """Single community, no floor; the benchmark decoupled setting."""
    return make_city(chp, [(143.05, 137.81)])


@pytest.fixture(scope="session")
def city1_mid(chp, floor_mid) -> CityMarket:
    return make_city(chp, [(143.05, 137.81)], floor_mid)


@pytest.fixture(scope="session")
def city5_mid(chp, floor_mid) -> CityMarket:
    return make_city(chp, FIVE_K, floor_mid)


@pytest.fixture(scope="session")
def city5_tight(chp, floor_tight) -> CityMarket:
    return make_city(chp, FIVE_K, floor_tight)
