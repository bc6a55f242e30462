"""Acceptance gate: the shipped guarantees, one test and one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances here are the contract; the unit suites probe wider.
"""

import os
import random
from contextlib import contextmanager

import pytest

import oracles
from conftest import FIVE_K, RETAIL_E, RETAIL_H, make_city
from destrade.cli import main as cli_main
from destrade.consensus import CREDIT_UNIT, Behavior, FaultProfile
from destrade.equilibrium import NeConfig, find_ne
from destrade.follower import best_response
from oracles import concavity_probe, interior_stationary
from destrade.market import (CommunityParams, PricePair, des_utility,
                             valid_k_intervals)
from destrade.netsim import make_nodes, run_rounds
from destrade.scenario import build_consensus, load_scenario

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {label}: PASS")


def test_c01_unit_constants(chp):
    with criterion(1, "unit constants within 0.1%"):
        assert chp.c_e == pytest.approx(3.00e-8, rel=1e-3)
        assert chp.c_h == pytest.approx(3.75e-8, rel=1e-3)
        b_e, b_h = chp.b_e, chp.b_h
        assert b_e == pytest.approx(4.773e-10, rel=1e-3)
        assert b_h == pytest.approx(5.966e-10, rel=1e-3)
        (lo_e, hi_e), (lo_h, hi_h) = valid_k_intervals(chp, RETAIL_E, RETAIL_H)
        assert lo_e == pytest.approx(115.24, rel=1e-3)
        assert hi_e == pytest.approx(170.85, rel=1e-3)
        assert lo_h == pytest.approx(104.76, rel=1e-3)
        assert hi_h == pytest.approx(170.85, rel=1e-3)


def test_c02_stationary_dispatch(chp):
    with criterion(2, "stationary dispatch at 4.5e-8 both sides"):
        p = PricePair(4.5e-8, 4.5e-8)
        d1 = interior_stationary(
            chp, CommunityParams(143.05, 137.81, 0.0), p)
        assert d1.alpha == pytest.approx(0.301, abs=1e-3)
        assert d1.beta == pytest.approx(0.481, abs=1e-3)
        d2 = interior_stationary(
            chp, CommunityParams(159.73, 117.98, 0.0), p)
        assert d2.alpha == pytest.approx(0.404, abs=1e-3)
        assert d2.beta == pytest.approx(0.328, abs=1e-3)


def test_c03_response_beats_dense_grid(chp, floor_mid, floor_tight):
    with criterion(3, "closed-form response beats a 1001x1001 grid"):
        rng = random.Random(3)
        (klo_e, khi_e), (klo_h, khi_h) = valid_k_intervals(chp, RETAIL_E, RETAIL_H)
        for _ in range(100):
            k_e = rng.uniform(klo_e + 0.01, khi_e - 0.01)
            k_h = rng.uniform(klo_h + 0.01, khi_h - 0.01)
            p = PricePair(rng.uniform(chp.c_e, RETAIL_E),
                          rng.uniform(chp.c_h, RETAIL_H))
            for m_min in (floor_mid, floor_tight):
                com = CommunityParams(k_e, k_h, m_min)
                sol = best_response(chp, com, p)
                mine = des_utility(chp, com, p, sol.alpha, sol.beta)
                assert mine >= oracles.grid_best_utility(chp, com, p, 1000) - 1e-9


def test_c04_full_retention_never_optimal(chp):
    with criterion(4, "full retention never returned over 10000 draws"):
        rng = random.Random(4)
        x, y = chp.elec_capacity, chp.heat_capacity
        (klo_e, khi_e), (klo_h, khi_h) = valid_k_intervals(chp, RETAIL_E, RETAIL_H)
        for _ in range(10000):
            k_e = rng.uniform(klo_e + 1e-6, khi_e - 1e-6)
            k_h = rng.uniform(klo_h + 1e-6, khi_h - 1e-6)
            m_min = 0.0 if rng.random() < 0.5 \
                else rng.uniform(max(x, y) + 1e6, x + y - 1e6)
            com = CommunityParams(k_e, k_h, m_min)
            p = PricePair(rng.uniform(chp.c_e, RETAIL_E),
                          rng.uniform(chp.c_h, RETAIL_H))
            s = best_response(chp, com, p)
            assert not (s.alpha == 1.0 and s.beta == 1.0)


def test_c05_profit_concavity(chp, floor_mid, floor_tight):
    with criterion(5, "electricity profit concave piecewise to 1e-6"):
        rng = random.Random(5)
        (klo_e, khi_e), (klo_h, khi_h) = valid_k_intervals(chp, RETAIL_E, RETAIL_H)
        for _ in range(20):
            ks = [(rng.uniform(klo_e + 0.01, khi_e - 0.01),
                   rng.uniform(klo_h + 0.01, khi_h - 0.01))
                  for _ in range(rng.randint(1, 5))]
            p_h = rng.uniform(chp.c_h, RETAIL_H)
            for m_min in (floor_mid, floor_tight):
                worst, scale = concavity_probe(
                    make_city(chp, ks, m_min), p_h, 101, side="e")
                assert worst <= 1e-6 * scale


def test_c06_decoupled_fixed_point(city1):
    with criterion(6, "decoupled fixed point matches closed form"):
        prices, trace = find_ne(city1, NeConfig())
        tol = 2.0 * trace.delta_final
        assert abs(prices.p_e - 3.7168e-8) <= tol
        assert abs(prices.p_h - 4.3479e-8) <= tol


def test_c07_init_independence(city5_mid):
    with criterion(7, "fixed point independent of initialization"):
        runs = {init: find_ne(city5_mid, NeConfig(init=init))
                for init in ("low", "high", "mid")}
        tol = 2.0 * max(trace.delta_final for _, trace in runs.values())
        base, _ = runs["low"]
        for prices, _trace in runs.values():
            assert abs(prices.p_e - base.p_e) <= tol
            assert abs(prices.p_h - base.p_h) <= tol
        assert 50 <= runs["high"][1].iterations <= 500


def test_c08_coarser_step_settles_sooner(city5_tight):
    with criterion(8, "coarser step settles in fewer iterations"):
        def settle_iteration(delta0):
            prices, trace = find_ne(
                city5_tight, NeConfig(delta0=delta0, init="high"))
            for s in trace.steps:
                if abs(s.p_e - prices.p_e) <= 1e-9 \
                        and abs(s.p_h - prices.p_h) <= 1e-9:
                    return s.iteration
            return trace.iterations

        assert settle_iteration(1e-9) < settle_iteration(1e-10)


NODE_IDS = [f"n{i:02d}" for i in range(20)]
BYZANTINE = {
    "n00": Behavior.DISSENTER,
    "n01": Behavior.DISSENTER,
    "n02": Behavior.DISSENTER,
    "n03": Behavior.SILENT_LEADER,
    "n04": Behavior.SILENT_LEADER,
    "n05": Behavior.EQUIVOCATOR,
}


@pytest.fixture(scope="module")
def byzantine_run():
    profile = FaultProfile(behaviors=dict(BYZANTINE))
    return run_rounds(1000, make_nodes(NODE_IDS), profile, 42)


def test_c09_safety_with_six_byzantine(byzantine_run):
    with criterion(9, "no divergence, 6 of 20 byzantine, 1000 rounds"):
        assert len(byzantine_run.rows) == 1000
        assert byzantine_run.divergence_count == 0
        control = run_rounds(1000, make_nodes(NODE_IDS), FaultProfile(), 42)
        assert control.commit_count == 1000
        assert control.divergence_count == 0


def test_c10_credit_dynamics(byzantine_run):
    with criterion(10, "credits split honest 1.0 / dissenter 0.0"):
        final = byzantine_run.credits
        for i in range(6, 20):
            assert final[f"n{i:02d}"] == CREDIT_UNIT
        for i in range(3):
            assert final[f"n{i:02d}"] == 0
        needed = [row.prepare_needed for row in byzantine_run.rows]
        assert all(b <= a for a, b in zip(needed, needed[1:]))


def test_c11_end_to_end_conservation(tmp_path):
    with criterion(11, "full run conserves coin, executes everything"):
        out = tmp_path / "out"
        rc = cli_main(["full", "--scenario",
                       os.path.join(REPO, "scenarios", "full_2city.scn"),
                       "--out", str(out)])
        assert rc == 0
        with open(out / "balances.csv") as fh:
            balance_rows = fh.read().splitlines()[2:]
        total = sum(float(line.split(",")[3]) for line in balance_rows)
        assert abs(total - 4 * 2000.0) <= 1e-6
        with open(out / "contracts.csv") as fh:
            contract_rows = fh.read().splitlines()[2:]
        assert contract_rows
        assert all(line.endswith(",executed") for line in contract_rows)


def test_c12_credit_commits_more_than_equal_weights():
    # The paper's efficiency claim for credit-weighted consensus:
    # delta1 = delta2 = 0 keeps every credit at 0.5, a plain count quorum.
    setup = build_consensus(load_scenario(
        os.path.join(REPO, "scenarios", "consensus20.scn")))
    with criterion(12, "credit commits more rounds than equal weights"):
        for seed in range(1, 6):
            credit, equal = (run_rounds(200, make_nodes(setup.node_ids),
                                        setup.profile, seed, d1, d2).commit_count
                             for d1, d2 in ((50_000, 20_000), (0, 0)))
            assert credit > equal, (seed, credit, equal)
