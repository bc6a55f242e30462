"""Unit tests for the credit-weighted agreement protocol."""

from __future__ import annotations

import random

import pytest

from destrade import (
    AllCreditsZero,
    Behavior,
    FaultProfile,
    RoundOutcome,
    TooFewNodes,
    check_quorum,
    elect_leader,
    init_credits,
    make_nodes,
    min_quorum_cardinality,
    quorum_weight,
    run_round,
    run_rounds,
    update_credits,
)
from destrade.consensus import DELTA_LEADER, DELTA_VOTER
from destrade.netsim import PhaseNet, RoundDriver


def _ids(n: int):
    return [f"n{c:02d}" for c in range(n)]


def _net(ids):
    return PhaseNet(ids, drop_prob=0.0, rng=random.Random(99))


# ------------------------------------------------------------
# quorum arithmetic
# ------------------------------------------------------------


def test_quorum_weight_values():
    assert quorum_weight(4) == pytest.approx(3 / 4)
    assert quorum_weight(7) == pytest.approx(5 / 7)
    assert quorum_weight(20) == pytest.approx(13 / 20)


def test_quorum_weight_too_few():
    with pytest.raises(TooFewNodes):
        quorum_weight(3)


def test_check_quorum_equal_credits():
    ids = _ids(4)
    credits = init_credits(ids)
    assert check_quorum(set(ids[:3]), credits, 2.0, 4) is True  # 0.75 meets 0.75
    assert check_quorum(set(ids[:2]), credits, 2.0, 4) is False


def test_check_quorum_skewed_credits():
    credits = {"a": 0.9, "b": 0.9, "c": 0.1, "d": 0.1}
    assert check_quorum({"a", "b"}, credits, 2.0, 4) is True  # 1.8/2.0 = 0.9
    assert check_quorum({"c", "d"}, credits, 2.0, 4) is False
    assert check_quorum({"a", "c", "d"}, credits, 2.0, 4) is False  # 1.1/2.0


def test_check_quorum_zero_total():
    assert check_quorum({"a"}, {"a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0}, 0.0, 4) is False


def test_min_quorum_cardinality():
    assert min_quorum_cardinality(init_credits(_ids(4)), 2.0, 4) == 3
    assert min_quorum_cardinality({"a": 0.9, "b": 0.9, "c": 0.1, "d": 0.1}, 2.0, 4) == 2
    assert min_quorum_cardinality({"a": 1.0, "b": 0.0, "c": 0.0, "d": 0.0}, 1.0, 4) == 1


# ------------------------------------------------------------
# leader election
# ------------------------------------------------------------


def test_elect_leader_deterministic():
    credits = init_credits(_ids(5))
    assert elect_leader(credits, 2.5, 123) == elect_leader(credits, 2.5, 123)


def test_elect_leader_zero_total():
    with pytest.raises(AllCreditsZero):
        elect_leader({"a": 0.0, "b": 0.0}, 0.0, 1)


def test_elect_leader_excludes_zero_credit():
    credits = {"a": 0.0, "b": 0.5, "c": 0.5, "d": 0.5}
    winners = {elect_leader(credits, 1.5, s) for s in range(2000)}
    assert "a" not in winners
    assert winners == {"b", "c", "d"}


def test_elect_leader_uniform_chi_square():
    credits = init_credits(_ids(4))
    counts = {k: 0 for k in credits}
    draws = 10_000
    for s in range(draws):
        counts[elect_leader(credits, 2.0, s)] += 1
    expected = draws / 4
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    # chi-square, 3 degrees of freedom, 1% point
    assert stat < 11.345


def test_elect_leader_skewed_frequencies():
    credits = {"a": 0.8, "b": 0.2}
    draws = 10_000
    hits = sum(elect_leader(credits, 1.0, s) == "a" for s in range(draws))
    assert abs(hits / draws - 0.8) <= 0.02


# ------------------------------------------------------------
# credit updates
# ------------------------------------------------------------


def _outcome(leader="L", committed=True, matched=None):
    return RoundOutcome(leader_id=leader, committed=committed,
                        abort_reason=None if committed else "LeaderSilent",
                        block=None, matched=matched or {}, prepare_needed=3)


def test_update_credits_leader():
    credits = {"L": 0.5, "v": 0.5}
    up = update_credits(credits, _outcome(committed=True), 0.05, 0.02)
    assert up["L"] == pytest.approx(0.55)
    down = update_credits(credits, _outcome(committed=False), 0.05, 0.02)
    assert down["L"] == pytest.approx(0.45)


def test_update_credits_voter_clamps():
    credits = {"L": 0.5, "hi": 0.98, "lo": 0.01}
    out = update_credits(
        credits, _outcome(matched={"hi": True, "lo": False}), 0.05, 0.02)
    assert out["hi"] == 1.0
    assert out["lo"] == 0.0


def test_update_credits_pure():
    credits = {"L": 0.5, "v": 0.5}
    update_credits(credits, _outcome(matched={"v": True}), 0.05, 0.02)
    assert credits == {"L": 0.5, "v": 0.5}


# ------------------------------------------------------------
# single rounds
# ------------------------------------------------------------


def test_round_all_honest_commits():
    ids = _ids(4)
    nodes = make_nodes(ids)
    credits = init_credits(ids)
    outcome = run_round(nodes, credits, FaultProfile(), _net(ids), 0, seed=1)
    assert outcome.committed
    assert outcome.abort_reason is None
    tips = {nodes[k].chain.tip.block_hash() for k in ids}
    assert len(tips) == 1
    assert all(nodes[k].chain.height == 1 for k in ids)
    assert all(outcome.matched[k] for k in ids if k != outcome.leader_id)


def _count_randoms(monkeypatch):
    """Record the seed of every random.Random built from here on."""
    made = []

    class Counted(random.Random):
        def __init__(self, seed):
            made.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(random, "Random", Counted)
    return made


def test_fault_free_round_seeds_only_the_election(monkeypatch):
    ids = _ids(4)
    nodes, credits, net = make_nodes(ids), init_credits(ids), _net(ids)
    made = _count_randoms(monkeypatch)
    assert run_round(nodes, credits, FaultProfile(), net, 0, seed=1).committed
    assert made == [1]


def test_equivocating_voter_seeds_the_round_stream_once(monkeypatch):
    ids = _ids(7)
    credits = init_credits(ids)
    leader = elect_leader(credits, 3.5, 5)
    voters = [k for k in ids if k != leader][:2]
    nodes, net = make_nodes(ids), _net(ids)
    profile = FaultProfile(behaviors={k: Behavior.EQUIVOCATOR for k in voters})
    made = _count_randoms(monkeypatch)
    run_round(nodes, credits, profile, net, 0, seed=5)
    # both equivocators draw from one stream
    assert made == [5, "round:5"]


def test_round_silent_leader_aborts():
    ids = _ids(4)
    credits = init_credits(ids)
    leader = elect_leader(credits, 2.0, 7)
    nodes = make_nodes(ids)
    profile = FaultProfile(behaviors={leader: Behavior.SILENT_LEADER})
    outcome = run_round(nodes, credits, profile, _net(ids), 0, seed=7)
    assert outcome.leader_id == leader
    assert not outcome.committed
    assert outcome.abort_reason == "LeaderSilent"
    assert all(nodes[k].chain.height == 0 for k in ids)
    after = update_credits(credits, outcome, 0.05, 0.02)
    assert after[leader] == pytest.approx(0.45)
    # quiet non-leaders endorsed the abort and gain
    others = [k for k in ids if k != leader]
    assert all(after[k] == pytest.approx(0.52) for k in others)


def test_round_invalid_block_leader_aborts():
    ids = _ids(4)
    credits = init_credits(ids)
    leader = elect_leader(credits, 2.0, 11)
    nodes = make_nodes(ids)
    profile = FaultProfile(behaviors={leader: Behavior.INVALID_BLOCK_LEADER})
    outcome = run_round(nodes, credits, profile, _net(ids), 0, seed=11)
    assert not outcome.committed
    assert outcome.abort_reason == "LeaderInvalidBlock"
    assert all(nodes[k].chain.height == 0 for k in ids)


def test_round_tolerates_f_dissenters():
    # f = floor((7-1)/3) = 2 dissenting voters cannot block the quorum
    ids = _ids(7)
    credits = init_credits(ids)
    leader = elect_leader(credits, 3.5, 5)
    dissenters = [k for k in ids if k != leader][:2]
    nodes = make_nodes(ids)
    profile = FaultProfile(
        behaviors={k: Behavior.DISSENTER for k in dissenters})
    outcome = run_round(nodes, credits, profile, _net(ids), 0, seed=5)
    assert outcome.committed
    # dissenters withheld votes but still see the commit certificate
    assert all(nodes[k].chain.height == 1 for k in ids)
    tips = {nodes[k].chain.tip.block_hash() for k in ids}
    assert len(tips) == 1


def test_round_fails_beyond_f_dissenters():
    # 3 of 7 dissenting leaves 4/7 < 5/7 of the credit mass
    ids = _ids(7)
    credits = init_credits(ids)
    leader = elect_leader(credits, 3.5, 9)
    dissenters = [k for k in ids if k != leader][:3]
    nodes = make_nodes(ids)
    profile = FaultProfile(
        behaviors={k: Behavior.DISSENTER for k in dissenters})
    outcome = run_round(nodes, credits, profile, _net(ids), 0, seed=9)
    assert not outcome.committed
    assert outcome.abort_reason == "PrepareQuorumFailed"


# ------------------------------------------------------------
# multi-round credit dynamics
# ------------------------------------------------------------


def test_single_dissenter_hits_zero_within_bound():
    # every round costs the dissenter credit: committed rounds as a
    # mismatched voter, its own led rounds as a failed leader, so it
    # reaches 0 within ceil(0.5/delta2) = 25 rounds
    ids = _ids(20)
    profile = FaultProfile(behaviors={"n00": Behavior.DISSENTER})
    driver = RoundDriver(make_nodes(ids), profile, seed=3,
                         delta1=DELTA_LEADER, delta2=DELTA_VOTER)
    history = []
    for _ in range(60):
        driver.step()
        history.append(driver.credits)
    trail = [h["n00"] for h in history]
    assert trail[24] == 0.0
    for prev, cur in zip(trail, trail[1:]):
        assert cur <= prev + 1e-12
    honest_trails = [[h[k] for h in history] for k in ids[1:]]
    for trail_h in honest_trails:
        for prev, cur in zip(trail_h, trail_h[1:]):
            assert cur >= prev - 1e-12
        assert trail_h[-1] == 1.0


def test_run_rounds_deterministic():
    def go():
        ids = _ids(8)
        nodes = make_nodes(ids)
        profile = FaultProfile(behaviors={"n01": Behavior.DISSENTER,
                                          "n02": Behavior.EQUIVOCATOR})
        return run_rounds(40, nodes, profile, seed=77)

    a, b = go(), go()
    assert a.rows == b.rows
    assert a.credits == b.credits
    assert a.commit_count == b.commit_count
