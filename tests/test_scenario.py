"""Scenario file parsing and the typed builders on top of it."""

import pytest

from destrade.consensus import Behavior
from destrade.market import MarketError, PricePair
from destrade.scenario import (MAX_CITY_DAYS, MAX_ITERS, MAX_ROUNDS, ScenarioError,
                               build_city, build_consensus, build_faults,
                               build_ne_config, build_run, load_scenario,
                               parse_scenario, read_seed)

VALID = """\
# comment up top
[market]
q = 3.6e7    # inline comment
eta_g = 0.5
eta_r = 0.8
f_m = 200
c_f = 1.08
r_e = 5.5e-8
r_h = 6.25e-8

[communities]
k_e = 143.05
k_h = 137.81
m_min = 0

[communities]
k_e = 129.14
k_h = 137.81

[consensus]
n_nodes = 7
rounds = 10

[faults]
dissenters = 2

[run]
seed = 3
"""


def test_parse_valid():
    sc = parse_scenario(VALID)
    assert sc.market["q"] == "3.6e7"
    assert sc.market["r_h"] == "6.25e-8"
    assert len(sc.communities) == 2
    assert sc.communities[0]["m_min"] == "0"
    assert "m_min" not in sc.communities[1]
    assert sc.consensus == {"n_nodes": "7", "rounds": "10"}
    assert sc.faults == {"dissenters": "2"}
    assert sc.run == {"seed": "3"}


def test_parse_blank_and_comment_lines_ignored():
    sc = parse_scenario("\n# only a comment\n\n[run]\n\nseed = 1  # tail\n")
    assert sc.run == {"seed": "1"}


@pytest.mark.parametrize("text,fragment", [
    ("[market]\nq = 1\n[market]\nq = 2\n", "line 3: duplicate section [market]"),
    ("[weather]\n", "line 1: unknown section [weather]"),
    ("[run]\nseed 1\n", "line 2: expected key = value"),
    ("seed = 1\n", "line 1: entry before any section"),
    ("[run]\nwind = 3\n", "line 2: unknown key 'wind' in section [run]"),
    ("[run]\nseed = 1\nseed = 2\n", "line 3: duplicate key 'seed' in section [run]"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ScenarioError, match="line"):
        parse_scenario(text)
    try:
        parse_scenario(text)
    except ScenarioError as exc:
        assert fragment in str(exc)


def test_communities_section_repeats_without_error():
    sc = parse_scenario("[communities]\nk_e = 1\n[communities]\nk_e = 2\n")
    assert [c["k_e"] for c in sc.communities] == ["1", "2"]


def test_load_scenario_prefixes_path(tmp_path):
    p = tmp_path / "bad.scn"
    p.write_text("[run]\nwind = 1\n")
    with pytest.raises(ScenarioError, match=str(p)):
        load_scenario(str(p))


def test_load_scenario_reads_file(tmp_path):
    p = tmp_path / "ok.scn"
    p.write_text(VALID)
    sc = load_scenario(str(p))
    assert sc.run["seed"] == "3"


def test_load_shipped_scenarios():
    for name in ("city1_nofloor", "city5_floor", "consensus20", "full_2city"):
        sc = load_scenario(f"scenarios/{name}.scn")
        assert sc.market, name


# ============================================================
# build_city
# ============================================================


def test_build_city_from_valid():
    city = build_city(parse_scenario(VALID))
    assert city.chp.elec_capacity == pytest.approx(3.6e9)
    assert len(city.communities) == 2
    assert city.communities[0].k_e == 143.05
    assert city.communities[1].m_min == 0.0


def test_build_city_missing_market_key():
    sc = parse_scenario(VALID)
    del sc.market["eta_r"]
    with pytest.raises(ScenarioError, match="missing 'eta_r'"):
        build_city(sc)


def test_build_city_requires_communities():
    sc = parse_scenario(VALID)
    sc.communities.clear()
    with pytest.raises(ScenarioError, match="at least one"):
        build_city(sc)


def test_build_city_bad_number():
    sc = parse_scenario(VALID)
    sc.market["q"] = "many"
    with pytest.raises(ScenarioError, match="not a number"):
        build_city(sc)


def test_build_city_out_of_band_k_rejected():
    # The builder passes through to market validation; a k below the
    # feasible interval must fail there, not silently build.
    sc = parse_scenario(VALID)
    sc.communities[0]["k_e"] = "50"
    with pytest.raises(MarketError):
        build_city(sc)


# ============================================================
# build_ne_config
# ============================================================


def test_ne_config_defaults():
    cfg = build_ne_config(parse_scenario("[run]\nseed = 1\n"))
    assert cfg.delta0 == 1e-10
    assert cfg.decay == 0.999
    assert cfg.init == "low"
    assert cfg.max_iters == 50000


def test_run_defaults_and_overrides():
    sc = parse_scenario("[market]\nq = 1\n")
    run = build_run(sc)
    assert (read_seed(sc), run.days, run.cities, run.funding) == (0, 3, 2, 10000.0)
    sc = parse_scenario("[run]\nseed = 9\ndays = 4.0\ncities = 3\nfunding = 2.5e3\n")
    run = build_run(sc)
    assert (read_seed(sc), run.days, run.cities, run.funding) == (9, 4, 3, 2500.0)
    assert isinstance(run.days, int)
    # integers stay exact beyond 2**53; float spellings of whole numbers pass
    sc = parse_scenario("[run]\nseed = 9007199254740993\ndays = 2e1\ncities = 20.0\n")
    run = build_run(sc)
    assert (read_seed(sc), run.days, run.cities) == (9007199254740993, 20, 20)
    assert isinstance(run.cities, int)


@pytest.mark.parametrize("cities", [2, 500])
def test_work_bounds_admit_the_bound_itself(cities):
    # The builders run nothing, so the largest admitted work costs nothing here.
    assert (MAX_ROUNDS, MAX_CITY_DAYS, MAX_ITERS) == (100000, 100000, 1000000)
    days = MAX_CITY_DAYS // cities
    sc = parse_scenario(f"[consensus]\nrounds = {MAX_ROUNDS}\n[run]\ndays = {days}\n"
                        f"cities = {cities}\nmax_iters = {MAX_ITERS}\n")
    assert build_consensus(sc).rounds == MAX_ROUNDS
    run = build_run(sc)
    assert run.days * run.cities == MAX_CITY_DAYS
    assert build_ne_config(sc).max_iters == MAX_ITERS


def test_ne_config_keyword_init():
    cfg = build_ne_config(parse_scenario("[run]\ninit = high\n"))
    assert cfg.init == "high"


def test_ne_config_explicit_pair_init():
    cfg = build_ne_config(parse_scenario("[run]\ninit = 4.0e-8 5.0e-8\n"))
    assert cfg.init == PricePair(4.0e-8, 5.0e-8)


def test_ne_config_bad_pair():
    with pytest.raises(ScenarioError, match="expected 'p_e p_h'"):
        build_ne_config(parse_scenario("[run]\ninit = 1 2 3\n"))
    with pytest.raises(ScenarioError, match="must be numbers"):
        build_ne_config(parse_scenario("[run]\ninit = low high\n"))


def test_ne_config_max_iters_must_be_integer():
    with pytest.raises(ScenarioError, match="must be an integer"):
        build_ne_config(parse_scenario("[run]\nmax_iters = 10.5\n"))


# ============================================================
# build_consensus
# ============================================================


def test_consensus_defaults():
    setup = build_consensus(parse_scenario("[run]\nseed = 1\n"))
    assert setup.node_ids == [f"n{i:02d}" for i in range(20)]
    assert setup.rounds == 1000
    assert setup.delta1 == 0.05
    assert setup.delta2 == 0.02
    assert setup.profile.behaviors == {}
    assert setup.profile.drop_prob == 0.0


def test_consensus_fault_assignment_is_front_loaded():
    sc = parse_scenario(
        "[consensus]\nn_nodes = 7\n"
        "[faults]\ndissenters = 2\nsilent_leaders = 1\n"
        "invalid_leaders = 1\nequivocators = 1\n")
    setup = build_consensus(sc)
    assert setup.profile.behaviors == {
        "n00": Behavior.DISSENTER,
        "n01": Behavior.DISSENTER,
        "n02": Behavior.SILENT_LEADER,
        "n03": Behavior.INVALID_BLOCK_LEADER,
        "n04": Behavior.EQUIVOCATOR,
    }


def test_consensus_too_many_faults():
    sc = parse_scenario("[consensus]\nn_nodes = 4\n[faults]\ndissenters = 5\n")
    with pytest.raises(ScenarioError, match="more faulty nodes than nodes"):
        build_consensus(sc)


def test_fault_roles_land_on_the_given_ids():
    sc = parse_scenario("[faults]\ndissenters = 1\nequivocators = 2\n"
                        "drop_prob = 0.1\n")
    profile = build_faults(sc, ["c0.ea", "c0.ha", "c1.ea", "c1.ha"])
    assert profile.behaviors == {
        "c0.ea": Behavior.DISSENTER,
        "c0.ha": Behavior.EQUIVOCATOR,
        "c1.ea": Behavior.EQUIVOCATOR,
    }
    assert profile.drop_prob == 0.1


def test_consensus_reads_overrides():
    sc = parse_scenario(
        "[consensus]\nn_nodes = 7\nrounds = 12\ndelta1 = 0.1\ndelta2 = 0.01\n"
        "[faults]\ndrop_prob = 0.25\n")
    setup = build_consensus(sc)
    assert len(setup.node_ids) == 7
    assert setup.rounds == 12
    assert setup.delta1 == 0.1
    assert setup.delta2 == 0.01
    assert setup.profile.drop_prob == 0.25
