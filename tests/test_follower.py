"""Unit tests for the community best-response solver."""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from destrade import (
    ChpParams,
    CityMarket,
    CommunityParams,
    FollowerError,
    KktCase,
    PricePair,
    best_response,
    des_utility,
    export_totals,
    probe_totals,
    valid_k_intervals,
)
import destrade.equilibrium
import destrade.follower
from destrade.market import kkt_row
from destrade.equilibrium import find_ne
from destrade.scenario import build_city, build_ne_config, load_scenario
import oracles
from oracles import _alpha_stat, interior_stationary, lambda1_quadratic, lambda1_roots
from conftest import FIVE_K, RETAIL_E, RETAIL_H, make_city

BOX_E = (3.0e-8, 5.5e-8)
BOX_H = (3.75e-8, 6.25e-8)
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The default walk step: search probes land this far outside the box.
PROBE_STEP = 1e-10


def _chp():
    return ChpParams(q=3.6e7, eta_g=0.5, eta_r=0.8, f_m=200.0, c_f=1.08)


def _com(k_e=143.05, k_h=137.81, m=0.0):
    return CommunityParams(k_e, k_h, m)


# ------------------------------------------------------------
# stationary point
# ------------------------------------------------------------


def test_interior_stationary_reference_points(chp):
    d = interior_stationary(chp, _com(143.05, 137.81), PricePair(4.5e-8, 4.5e-8))
    assert d.alpha == pytest.approx(0.301, abs=1e-3)
    assert d.beta == pytest.approx(0.481, abs=1e-3)

    d2 = interior_stationary(chp, _com(159.73, 117.98), PricePair(4.5e-8, 4.5e-8))
    assert d2.alpha == pytest.approx(0.404, abs=1e-3)
    assert d2.beta == pytest.approx(0.328, abs=1e-3)


def test_stationary_fraction_zero_at_matching_price(chp):
    # price exactly k_e*b_e makes the raw stationary fraction vanish
    com = _com()
    a = _alpha_stat(chp, com, com.k_e * chp.b_e)
    assert a == pytest.approx(0.0, abs=1e-12)


def test_interior_stationary_rejects_out_of_range(chp):
    com = _com(300.0, 137.81)  # coefficient far above the admissible band
    with pytest.raises(FollowerError):
        interior_stationary(chp, com, PricePair(4.5e-8, 4.5e-8))


# ------------------------------------------------------------
# floor multiplier quadratic
# ------------------------------------------------------------


def test_lambda1_quadratic_signs(chp, floor_mid, floor_tight):
    # C > 0 is equivalent to the floor binding (free optimum below it),
    # which is the only regime in which the quadratic is consulted.
    rng = np.random.default_rng(7)
    x, y = chp.elec_capacity, chp.heat_capacity
    binding = 0
    for _ in range(200):
        k_e = rng.uniform(116.0, 170.0)
        k_h = rng.uniform(105.5, 170.0)
        m = rng.uniform(max(x, y) * 1.001, (x + y) * 0.999)
        com = _com(k_e, k_h, m)
        p = PricePair(rng.uniform(*BOX_E), rng.uniform(*BOX_H))
        a, b, c = lambda1_quadratic(chp, com, p)
        assert a > 0.0
        assert b < 0.0
        # the discriminant never goes negative for admissible parameters
        assert b * b - 4.0 * a * c > 0.0
        free = (x * _alpha_stat(chp, com, p.p_e)
                + (com.k_h / p.p_h - 1.0 / chp.b_h))
        if free < m:
            assert c > 0.0
            binding += 1
    assert binding >= 50


def test_lambda1_roots_match_textbook_oracle(chp, floor_mid):
    p = PricePair(0.5 * sum(BOX_E), 0.5 * sum(BOX_H))
    com = _com(143.05, 137.81, floor_mid)
    roots = lambda1_roots(chp, com, p)
    a, b, c = lambda1_quadratic(chp, com, p)
    expect = oracles.quad_roots_textbook(a, b, c)
    assert len(roots) == len(expect) == 2
    for got, ref in zip(roots, expect):
        assert got == pytest.approx(ref, rel=1e-10)
    # cross-check against an entirely separate solver
    np_roots = sorted(np.roots([a, b, c]).real)
    for got, ref in zip(roots, np_roots):
        assert got == pytest.approx(ref, rel=1e-8)


def _double_root_community(chp):
    """A community whose floor quadratic has an exact double root at 2**-25.

    Zero satisfaction coefficients at equal prices collapse the
    quadratic to A(lam - p)^2.  Nudging m_min until the leading
    coefficient is an exact power of two makes the discriminant an
    exact float zero.
    """
    target_a = 2.0 ** 33
    ib = 1.0 / chp.b_e + 1.0 / chp.b_h
    m = target_a - ib
    for _ in range(400):
        com = _com(0.0, 0.0, m)
        a, _, _ = lambda1_quadratic(chp, com, PricePair(1.0, 1.0))
        if a == target_a:
            return com
        m = math.nextafter(m, math.inf if a < target_a else -math.inf)
    raise AssertionError("could not pin leading coefficient to a power of two")


def test_lambda1_double_root_degenerate(chp):
    # exercises the double-root branch
    com = _double_root_community(chp)
    p = 2.0 ** -25
    roots = lambda1_roots(chp, com, PricePair(p, p))
    assert roots == (p,)


# ------------------------------------------------------------
# best response cases
# ------------------------------------------------------------


def test_case_interior(chp):
    s = best_response(chp, _com(), PricePair(4.5e-8, 4.5e-8))
    assert s.case is KktCase.INTERIOR
    assert s.alpha == pytest.approx(0.301, abs=1e-3)
    assert s.beta == pytest.approx(0.481, abs=1e-3)
    assert (s.lam1, s.lam2, s.lam3) == (0.0, 0.0, 0.0)


def test_case_interior_constrained(chp, floor_mid):
    com = _com(143.05, 137.81, floor_mid)
    s = best_response(chp, com, PricePair(4.5e-8, 4.5e-8))
    assert s.case is KktCase.INTERIOR_CONSTRAINED
    assert s.alpha == pytest.approx(0.58314, abs=1e-4)
    assert s.beta == pytest.approx(0.82107, abs=1e-4)
    assert s.lam1 == pytest.approx(1.0895e-8, rel=1e-3)
    assert 0.0 < s.lam1 < 4.5e-8
    on_floor = chp.elec_capacity * s.alpha + chp.heat_capacity * s.beta
    assert on_floor == pytest.approx(floor_mid, abs=1e-3)


def test_case_alpha_saturated_constrained(chp, floor_mid):
    # cheap electricity, dear heat: pin alpha, meet the floor with beta
    s = best_response(chp, _com(143.05, 137.81, floor_mid),
                      PricePair(3.0e-8, 6.25e-8))
    assert s.case is KktCase.ALPHA_SATURATED_CONSTRAINED
    assert s.alpha == 1.0
    assert s.beta == pytest.approx(0.3, abs=1e-9)
    assert s.lam1 == pytest.approx(8.246e-9, rel=1e-3)
    assert s.lam2 > 0.0


def test_case_beta_saturated_constrained(chp, floor_tight):
    s = best_response(chp, _com(143.05, 137.81, floor_tight),
                      PricePair(4.5e-8, 3.75e-8))
    assert s.case is KktCase.BETA_SATURATED_CONSTRAINED
    assert s.beta == 1.0
    assert s.alpha == pytest.approx(0.6, abs=1e-9)
    assert s.lam1 == pytest.approx(1.1382e-8, rel=1e-3)
    assert s.lam3 > 0.0


def test_case_alpha_saturated_no_floor(chp):
    # below-cost electricity probe: keep everything, heat stays interior
    s = best_response(chp, _com(), PricePair(2.5e-8, 4.5e-8))
    assert s.case is KktCase.ALPHA_SATURATED
    assert s.alpha == 1.0
    assert s.beta == pytest.approx(0.481, abs=1e-3)
    assert s.lam2 > 0.0 and s.lam1 == 0.0


def test_case_beta_saturated_no_floor(chp):
    s = best_response(chp, _com(), PricePair(4.5e-8, 3.0e-8))
    assert s.case is KktCase.BETA_SATURATED
    assert s.beta == 1.0
    assert s.alpha == pytest.approx(0.301, abs=1e-3)
    assert s.lam3 > 0.0 and s.lam1 == 0.0


def test_both_saturated_is_out_of_envelope(chp):
    with pytest.raises(FollowerError):
        best_response(chp, _com(), PricePair(2.5e-8, 3.0e-8))


def test_total_at_search_probes(chp, floor_mid):
    # one step outside every box edge, for all five communities
    delta = PROBE_STEP
    corners = [
        PricePair(BOX_E[1] + delta, BOX_H[1] + delta),
        PricePair(BOX_E[0] - delta, BOX_H[0] - delta),
        PricePair(BOX_E[1] + delta, BOX_H[0] - delta),
        PricePair(BOX_E[0] - delta, BOX_H[1] + delta),
    ]
    for k_e, k_h in FIVE_K:
        for m in (0.0, floor_mid):
            com = _com(k_e, k_h, m)
            for p in corners:
                s = best_response(chp, com, p)
                assert 0.0 <= s.alpha <= 1.0
                assert 0.0 <= s.beta <= 1.0


# ------------------------------------------------------------
# optimality against the grid oracle
# ------------------------------------------------------------


def test_grid_oracle_self_check(chp, floor_mid):
    rng = np.random.default_rng(3)
    for _ in range(5):
        for m in (0.0, floor_mid):
            com = _com(rng.uniform(116.0, 170.0), rng.uniform(105.5, 170.0), m)
            p = PricePair(rng.uniform(*BOX_E), rng.uniform(*BOX_H))
            fast = oracles.grid_best_utility(chp, com, p, 101)
            slow = oracles.grid_best_utility_literal(chp, com, p, 101)
            assert fast == pytest.approx(slow, abs=1e-9)


def test_best_response_dominates_grid(chp, floor_mid):
    rng = np.random.default_rng(11)
    for _ in range(10):
        for m in (0.0, floor_mid):
            com = _com(rng.uniform(116.0, 170.0), rng.uniform(105.5, 170.0), m)
            p = PricePair(rng.uniform(*BOX_E), rng.uniform(*BOX_H))
            s = best_response(chp, com, p)
            mine = des_utility(chp, com, p, s.alpha, s.beta)
            grid = oracles.grid_best_utility(chp, com, p, 301)
            assert mine >= grid - 1e-9


# ------------------------------------------------------------
# KKT certificate properties
# ------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    k_e=st.floats(116.0, 170.0),
    k_h=st.floats(105.5, 170.0),
    p_e=st.floats(*BOX_E),
    p_h=st.floats(*BOX_H),
    floored=st.booleans(),
    frac=st.floats(1e-3, 1.0 - 1e-3),
)
def test_kkt_certificate(k_e, k_h, p_e, p_h, floored, frac):
    chp = _chp()
    x, y = chp.elec_capacity, chp.heat_capacity
    m = (max(x, y) + frac * (x + y - max(x, y))) if floored else 0.0
    com = CommunityParams(k_e, k_h, m)
    p = PricePair(p_e, p_h)
    s = best_response(chp, com, p)
    a, b = s.alpha, s.beta
    lam1, lam2, lam3 = s.lam1, s.lam2, s.lam3

    # never both streams fully retained
    assert not (a == 1.0 and b == 1.0)

    # primal feasibility
    assert x * a + y * b >= m - 1e-2
    assert min(lam1, lam2, lam3) >= 0.0

    # complementary slackness
    assert abs(lam1 * (x * a + y * b - m)) <= 1e-9
    assert lam2 * (1.0 - a) == 0.0
    assert lam3 * (1.0 - b) == 0.0

    # stationarity on unsaturated coordinates, in welfare-per-fraction units
    if a < 1.0:
        grad_a = k_e * chp.b_e * x / (1.0 + chp.b_e * x * a) - p_e * x + lam1 * x
        assert abs(grad_a + lam2) <= 1e-8
    if b < 1.0:
        grad_b = k_h * chp.b_h * y / (1.0 + chp.b_h * y * b) - p_h * y + lam1 * y
        assert abs(grad_b + lam3) <= 1e-8

    # multipliers only on their own case family
    if s.case is KktCase.INTERIOR:
        assert (lam1, lam2, lam3) == (0.0, 0.0, 0.0)
    if s.case in (KktCase.ALPHA_SATURATED, KktCase.ALPHA_SATURATED_CONSTRAINED):
        assert a == 1.0 and lam3 == 0.0
    if s.case in (KktCase.BETA_SATURATED, KktCase.BETA_SATURATED_CONSTRAINED):
        assert b == 1.0 and lam2 == 0.0


@settings(max_examples=300, deadline=None)
@given(
    k_e=st.floats(116.0, 170.0),
    k_h=st.floats(105.5, 170.0),
    p_e=st.floats(BOX_E[0] - PROBE_STEP, BOX_E[1] + PROBE_STEP),
    p_h=st.floats(BOX_H[0] - PROBE_STEP, BOX_H[1] + PROBE_STEP),
    floored=st.booleans(),
    frac=st.floats(1e-3, 1.0 - 1e-3),
)
def test_response_records_pass_the_public_check(k_e, k_h, p_e, p_h, floored, frac):
    # best_response's record holds bare fractions, which no constructor
    # checks; its case guards must keep them in [0, 1], on and just off the box
    chp = _chp()
    x, y = chp.elec_capacity, chp.heat_capacity
    m = (max(x, y) + frac * (x + y - max(x, y))) if floored else 0.0
    com = CommunityParams(k_e, k_h, m)
    s = best_response(chp, com, PricePair(p_e, p_h))
    assert 0.0 <= s.alpha <= 1.0
    assert 0.0 <= s.beta <= 1.0
    assert isinstance(s.case, KktCase)
    again = best_response(chp, com, PricePair(p_e, p_h))
    assert again == s
    assert hash(again) == hash(s)


def test_alpha_monotone_in_own_price(chp):
    com = _com()
    prev = math.inf
    for p_e in np.linspace(*BOX_E, 50):
        a = best_response(chp, com, PricePair(float(p_e), 4.5e-8)).alpha
        assert a <= prev + 1e-15
        prev = a


# ------------------------------------------------------------
# agreement with the reference solver
# ------------------------------------------------------------


def _solve_both(chp, com, p):
    """(best_response's outcome, the reference's), each a field tuple or the error."""
    try:
        got = best_response(chp, com, p)
    except FollowerError as err:
        got = (type(err), str(err))
    try:
        ref = oracles.reference_best_response(chp, com, p).fields()
    except FollowerError as err:
        ref = (type(err), str(err))
    return got, ref


def _assert_same_bits(got, ref):
    assert got == ref
    # == lets 0.0 match -0.0; the bit patterns must agree too
    assert [v.hex() if isinstance(v, float) else v for v in got] \
        == [v.hex() if isinstance(v, float) else v for v in ref]


@settings(max_examples=400, deadline=None)
@given(
    k_e=st.floats(116.0, 170.0),
    k_h=st.floats(105.5, 170.0),
    # wide enough to saturate either stream, or both
    p_e=st.floats(1.5e-8, 7e-8),
    p_h=st.floats(1.5e-8, 7e-8),
    floored=st.booleans(),
    # blends of max(X, Y) and X + Y, a little past either end
    frac=st.floats(-0.2, 1.2),
)
def test_respond_matches_the_reference_bit_for_bit(k_e, k_h, p_e, p_h, floored, frac):
    chp = _chp()
    x, y = chp.elec_capacity, chp.heat_capacity
    m = (max(x, y) + frac * (x + y - max(x, y))) if floored else 0.0
    com = CommunityParams(k_e, k_h, m)
    p = PricePair(p_e, p_h)
    _assert_same_bits(*_solve_both(chp, com, p))


def _every_case_grid(chp, floor_mid, floor_tight):
    """(community, prices) over a fixed grid reaching all six cases and
    both errors, then the double-root branch of the floor quadratic; the
    four saturated cases never occur in a walk inside the box."""
    x, y = chp.elec_capacity, chp.heat_capacity
    for k_e, k_h in FIVE_K:
        for m in (0.0, floor_mid, floor_tight, x + y + 1e8):
            com = _com(k_e, k_h, m)
            for p_e in np.linspace(1.5e-8, 7e-8, 23):
                for p_h in np.linspace(1.5e-8, 7e-8, 23):
                    yield com, PricePair(float(p_e), float(p_h))
    yield _double_root_community(chp), PricePair(2.0 ** -25, 2.0 ** -25)


def test_respond_matches_the_reference_in_every_case(chp, floor_mid, floor_tight):
    reached = set()
    for com, p in _every_case_grid(chp, floor_mid, floor_tight):
        got, ref = _solve_both(chp, com, p)
        _assert_same_bits(got, ref)
        reached.add(got[1][:8] if isinstance(got[0], type) else got[2])
    assert reached == set(KktCase) | {"both str", "no KKT c"}


def _count_case_walks(monkeypatch):
    calls = []
    walk = destrade.follower._case_walk

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(destrade.follower, "_case_walk", counted)
    return calls


def _reference_exports(chp, com, p_e, p_h):
    """The reference dispatch's exports (X*(1 - alpha), Y*(1 - beta))."""
    d = oracles.reference_best_response(chp, com, PricePair(p_e, p_h)).dispatch
    return chp.elec_capacity * (1.0 - d.alpha), chp.heat_capacity * (1.0 - d.beta)


def _probes_both(chp, com, side, p, delta):
    """(probe_totals on com's one-row table, the reference's exports at the
    up probe and then the down probe), each four floats or the first error."""
    try:
        up, down = probe_totals(chp, (kkt_row(chp, com),), side, p.p_e, p.p_h, delta)
        got = up + down
    except FollowerError as err:
        got = (type(err), str(err))
    own = p.p_e if side == "e" else p.p_h
    try:
        ref = ()
        for q in (own + delta, own - delta):
            ref += _reference_exports(chp, com, *((q, p.p_h) if side == "e" else (p.p_e, q)))
    except FollowerError as err:
        ref = (type(err), str(err))
    return got, ref


def test_totals_match_the_reference_in_every_case(monkeypatch, chp, floor_mid,
                                                  floor_tight):
    # probe_totals takes its inline cases where it can; whichever path
    # solved a row, its totals and error text must be the reference's.
    # A zero step probes the grid point itself, both times.
    walks = _count_case_walks(monkeypatch)
    errors, solves = set(), 0
    for com, p in _every_case_grid(chp, floor_mid, floor_tight):
        for side in ("e", "h"):
            for delta in (0.0, PROBE_STEP):
                got, ref = _probes_both(chp, com, side, p, delta)
                _assert_same_bits(got, ref)
                if isinstance(got[0], type):
                    errors.add(got[1][:8])
                solves += 2
    assert errors == {"both str", "no KKT c"}
    assert 0 < len(walks) < solves  # both paths were taken


@pytest.mark.parametrize("name", ["city5_floor.scn", "city40_mixed.scn"])
def test_price_walk_never_leaves_the_inline_cases(monkeypatch, name):
    # every row the shipped walks probe is one of probe_totals' inline
    # cases; a row sent to _case_walk there would slow the walk down
    sc = load_scenario(os.path.join(REPO, "scenarios", name))
    city = build_city(sc)
    calls = _count_case_walks(monkeypatch)
    in_probes = []
    probe = destrade.equilibrium.probe_totals

    def counted(*args):
        before = len(calls)
        result = probe(*args)
        in_probes.extend(calls[before:])
        return result

    monkeypatch.setattr(destrade.equilibrium, "probe_totals", counted)
    prices, trace = find_ne(city, build_ne_config(sc))
    assert trace.iterations > 0 and in_probes == []
    # the counter does see the walk: export_totals solves the start
    # point through it (these walks never clamp a move), and so does a
    # per-community solve
    assert len(calls) == len(city.communities)
    del calls[:]
    for com in city.communities:
        best_response(city.chp, com, prices)
    assert len(calls) == len(city.communities)


# ------------------------------------------------------------
# one loop over a city
# ------------------------------------------------------------


def _hex(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_city_totals_match_per_community_solves_bit_for_bit(chp, data):
    # drawn cities mix floored and unfloored communities; prices lie in
    # the box or one walk step outside it, or far enough out to saturate
    # streams and reach both errors
    (k_e_lo, k_e_hi), (k_h_lo, k_h_hi) = valid_k_intervals(chp, RETAIL_E, RETAIL_H)
    x, y = chp.elec_capacity, chp.heat_capacity
    floor = st.one_of(st.just(0.0), st.floats(0.05, 0.95).map(
        lambda w: w * max(x, y) + (1.0 - w) * (x + y)))
    community = st.builds(
        lambda k_e, k_h, m_min: CommunityParams(k_e, k_h, m_min),
        st.floats(k_e_lo * 1.001, k_e_hi * 0.999),
        st.floats(k_h_lo * 1.001, k_h_hi * 0.999), floor)
    communities = data.draw(st.lists(community, min_size=1, max_size=12))
    city = CityMarket(chp=chp, r_e=RETAIL_E, r_h=RETAIL_H, communities=communities)
    (lo_e, hi_e), (lo_h, hi_h) = city.price_box()
    near = st.tuples(st.floats(lo_e - PROBE_STEP, hi_e + PROBE_STEP),
                     st.floats(lo_h - PROBE_STEP, hi_h + PROBE_STEP))
    wide = st.tuples(st.floats(1.5e-8, 7e-8), st.floats(1.5e-8, 7e-8))
    p_e, p_h = data.draw(st.one_of(near, wide))

    expected, error = [], None
    try:
        for com in communities:
            expected.append(best_response(chp, com, PricePair(p_e, p_h)))
    except FollowerError as err:
        error = str(err)

    if error is not None:
        with pytest.raises(FollowerError) as exc:
            export_totals(chp, city.kkt_table, p_e, p_h)
        assert str(exc.value) == error
        return
    # one add at a time, left to right: the order the walk's totals keep
    tot_e = tot_h = 0.0
    for r in expected:
        tot_e += x * (1.0 - r[0])
        tot_h += y * (1.0 - r[1])
    assert _hex(export_totals(chp, city.kkt_table, p_e, p_h)) == _hex((tot_e, tot_h))


def _sequential_probes(chp, communities, side, p_e, p_h, delta):
    """The up probe's totals, then the down probe's, each summed one add
    at a time from per-community best responses; or the first error of
    that sequence as (type, text)."""
    x, y = chp.elec_capacity, chp.heat_capacity
    own = p_e if side == "e" else p_h
    pairs = []
    try:
        for q in (own + delta, own - delta):
            p = PricePair(q, p_h) if side == "e" else PricePair(p_e, q)
            tot_e = tot_h = 0.0
            for com in communities:
                r = best_response(chp, com, p)
                tot_e += x * (1.0 - r[0])
                tot_h += y * (1.0 - r[1])
            pairs.append((tot_e, tot_h))
    except FollowerError as err:
        return type(err), str(err)
    return _hex(pairs[0] + pairs[1])


def _probe_pair(chp, rows, side, p_e, p_h, delta):
    """probe_totals' four totals as hex, or its error as (type, text)."""
    try:
        up, down = probe_totals(chp, rows, side, p_e, p_h, delta)
    except FollowerError as err:
        return type(err), str(err)
    return _hex(up + down)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_probe_pair_matches_per_community_solves_bit_for_bit(chp, data):
    # drawn tables mix floored and unfloored communities, and some hold a
    # floor past X + Y, which fits no KKT case; either side probes from a
    # point in the box by up to one walk step, so a probe lands up to a
    # step outside it, or from anywhere in a wide square by steps long
    # enough to saturate streams and reach both errors
    (k_e_lo, k_e_hi), (k_h_lo, k_h_hi) = valid_k_intervals(chp, RETAIL_E, RETAIL_H)
    x, y = chp.elec_capacity, chp.heat_capacity
    floor = st.one_of(st.just(0.0), st.floats(0.05, 0.95).map(
        lambda w: w * max(x, y) + (1.0 - w) * (x + y)))
    community = st.builds(
        lambda k_e, k_h, m_min: CommunityParams(k_e, k_h, m_min),
        st.floats(k_e_lo * 1.001, k_e_hi * 0.999),
        st.floats(k_h_lo * 1.001, k_h_hi * 0.999), floor)
    communities = data.draw(st.lists(community, min_size=1, max_size=12))
    if data.draw(st.integers(0, 7)) == 0:
        at = data.draw(st.integers(0, len(communities)))
        broken = data.draw(community)._replace(m_min=x + y + 1e8)
        communities[at:at] = [broken]
    rows = tuple(kkt_row(chp, com) for com in communities)
    near = st.tuples(st.floats(chp.c_e, RETAIL_E), st.floats(chp.c_h, RETAIL_H),
                     st.floats(0.0, PROBE_STEP))
    wide = st.tuples(st.floats(1.5e-8, 7e-8), st.floats(1.5e-8, 7e-8),
                     st.floats(PROBE_STEP, 1e-8))
    p_e, p_h, delta = data.draw(st.one_of(near, wide))
    side = data.draw(st.sampled_from("eh"))

    assert _probe_pair(chp, rows, side, p_e, p_h, delta) \
        == _sequential_probes(chp, communities, side, p_e, p_h, delta)


@pytest.mark.parametrize("side", ["e", "h"])
def test_probe_pair_raises_the_up_probes_first_error(chp, side):
    # An unfloored community whose streams both saturate at the down
    # probe only, ahead of one whose floor lies past X + Y and so fits no
    # case at the up probe.  One pass meets the down probe's error first;
    # the up probe's must still be the one raised, as when the two probes
    # are solved one after the other.
    x, y = chp.elec_capacity, chp.heat_capacity
    k_e, k_h = 143.05, 137.81
    # Each price at which that stream's stationary fraction reaches 1.
    edge_e = k_e / (x * (1.0 - 1e-9) + chp.inv_b_e)
    edge_h = k_h / (y * (1.0 - 1e-9) + chp.inv_b_h)
    coms = (CommunityParams(k_e, k_h, 0.0), CommunityParams(k_e, k_h, x + y + 1e8))
    rows = tuple(kkt_row(chp, com) for com in coms)
    p_e, p_h = (edge_e, 0.9 * edge_h) if side == "e" else (0.9 * edge_e, edge_h)
    delta = 1e-9
    got = _probe_pair(chp, rows, side, p_e, p_h, delta)
    assert got == _sequential_probes(chp, coms, side, p_e, p_h, delta)
    assert got[0] is FollowerError and got[1].startswith("no KKT case fits")
    # the down probe alone raises the other error, at the first community
    down = (p_e - delta, p_h) if side == "e" else (p_e, p_h - delta)
    with pytest.raises(FollowerError, match="both streams saturated"):
        export_totals(chp, rows[:1], *down)
    # with the floored community gone, the pair raises the down probe's error
    assert _probe_pair(chp, rows[:1], side, p_e, p_h, delta) \
        == (FollowerError, "both streams saturated; outside modeled envelope")


@pytest.mark.parametrize("side", ["x", "E", ""])
def test_a_side_other_than_e_or_h_is_refused(city5_mid, side):
    # probe_totals refuses the side before its loop: an empty city, whose
    # totals would be zero on either side, refuses it too.
    city, p_e, p_h = city5_mid, 4.5e-8, 5e-8
    totals = export_totals(city.chp, city.kkt_table, p_e, p_h)
    calls = [lambda: probe_totals(city.chp, city.kkt_table, side, p_e, p_h, PROBE_STEP),
             lambda: probe_totals(city.chp, (), side, p_e, p_h, PROBE_STEP),
             lambda: destrade.equilibrium.aggregator_step(city, side, p_e, p_h,
                                                          PROBE_STEP, totals),
             lambda: destrade.equilibrium.profit(city, side, p_e, totals)]
    for call in calls:
        with pytest.raises(ValueError, match="^side must be 'e' or 'h'$"):
            call()


def test_city_table_holds_each_communitys_row(city5_mid):
    rows = city5_mid.kkt_table
    chp = city5_mid.chp
    assert rows is city5_mid.kkt_table  # built once per city
    assert CommunityParams._fields == ("k_e", "k_h", "m_min")
    for row, com in zip(rows, city5_mid.communities):
        # the derived fields are the walk's own expressions, bit for bit
        qa = com.m_min + 1.0 / chp.b_e + 1.0 / chp.b_h
        assert _hex(row) == _hex((com.m_min, com.k_e, com.k_h,
                                  qa, com.k_e + com.k_h, 4.0 * qa))
        assert _hex(row) == _hex(kkt_row(chp, com))
    assert len(rows) == len(city5_mid.communities)


def test_one_community_solves_on_each_citys_unit(chp, floor_mid, floor_tight):
    # The same community records in cities on two unit sizes: each city's
    # rows and export totals follow its own unit's coefficients.
    coms = (CommunityParams(129.14, 137.81), CommunityParams(143.05, 137.81, floor_mid),
            CommunityParams(156.94, 120.0, floor_tight), CommunityParams(165.0, 150.0))
    bigger = ChpParams(q=chp.q, eta_g=chp.eta_g, eta_r=chp.eta_r, f_m=220.0, c_f=chp.c_f)
    totals = []
    for unit in (chp, bigger):
        city = CityMarket(chp=unit, r_e=RETAIL_E, r_h=RETAIL_H, communities=coms)
        assert all(a is b for a, b in zip(city.communities, coms))
        assert [_hex(row) for row in city.kkt_table] == [_hex(kkt_row(unit, com))
                                                         for com in coms]
        x, y = unit.elec_capacity, unit.heat_capacity
        for p_e in np.linspace(*BOX_E, 6):
            for p_h in np.linspace(*BOX_H, 6):
                p = PricePair(float(p_e), float(p_h))
                tot_e = tot_h = 0.0
                for com in coms:
                    d = oracles.reference_best_response(unit, com, p).dispatch
                    tot_e += x * (1.0 - d.alpha)
                    tot_h += y * (1.0 - d.beta)
                got = export_totals(unit, city.kkt_table, p.p_e, p.p_h)
                assert _hex(got) == _hex((tot_e, tot_h)), (unit.f_m, p)
        totals.append(export_totals(unit, city.kkt_table, 4.0e-8, 5.0e-8))
    assert totals[0] != totals[1]
