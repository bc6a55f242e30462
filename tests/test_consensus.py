"""Unit tests for the credit-weighted agreement protocol."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from destrade import (
    Behavior,
    ConsensusNode,
    Contract,
    EnergyKind,
    FaultProfile,
    RoundOutcome,
    TooFewNodes,
    check_quorum,
    elect_leader,
    init_credits,
    make_block,
    make_nodes,
    min_quorum_cardinality,
    quorum_weight,
    run_round,
    run_rounds,
    update_credits,
)
from destrade import consensus, netsim
from destrade.consensus import CREDIT_UNIT, DELTA_LEADER, DELTA_VOTER, ConsensusError
from destrade.netsim import PhaseNet, RoundDriver
from destrade.scenario import MAX_GROUP
from oracles import loop_commit, reference_round


def _ids(n: int):
    return [f"n{c:02d}" for c in range(n)]


def _net():
    return PhaseNet(drop_prob=0.0, rng=random.Random(99))


# ------------------------------------------------------------
# quorum arithmetic
# ------------------------------------------------------------


def test_quorum_weight_values():
    assert quorum_weight(4) == 3
    assert quorum_weight(7) == 5
    assert quorum_weight(20) == 13


def test_quorum_weight_too_few():
    with pytest.raises(TooFewNodes):
        quorum_weight(3)


def test_check_quorum_equal_credits():
    ids = _ids(4)
    credits = init_credits(ids)
    assert check_quorum(set(ids[:3]), credits, 2_000_000, 4) is True  # 0.75 meets 0.75
    assert check_quorum(set(ids[:2]), credits, 2_000_000, 4) is False


def test_check_quorum_skewed_credits():
    credits = {"a": 900_000, "b": 900_000, "c": 100_000, "d": 100_000}
    assert check_quorum({"a", "b"}, credits, 2_000_000, 4) is True  # 1.8/2.0 = 0.9
    assert check_quorum({"c", "d"}, credits, 2_000_000, 4) is False
    assert check_quorum({"a", "c", "d"}, credits, 2_000_000, 4) is False  # 1.1/2.0


def test_check_quorum_zero_total():
    assert check_quorum({"a"}, dict.fromkeys("abcd", 0), 0, 4) is False


def test_a_quorum_on_the_edge_is_met_in_every_table_order():
    # a + b + c is 600_000, exactly 3/4 of the total 800_000.  As float
    # credits, 0.25 + 0.08 + 0.27 added left to right was 0.6000000000000001.
    credits = {"a": 250_000, "b": 80_000, "c": 270_000, "d": 200_000}
    for order in itertools.permutations(credits):
        table = {k: credits[k] for k in order}
        # A dict's keys are a set that iterates in the order given.
        assert check_quorum(dict.fromkeys(k for k in order if k != "d").keys(),
                            table, 800_000, 4)
        assert not check_quorum(dict.fromkeys(k for k in order if k != "c").keys(),
                                table, 800_000, 4)
    # So a round the dissenter d sits out commits.
    profile = FaultProfile({"d": Behavior.DISSENTER})
    seed = next(s for s in range(100) if elect_leader(credits, 800_000, s) != "d")
    out = run_round(make_nodes(credits), credits, profile, _net(), 0, seed)
    assert out.committed and out.abort_reason is None


# Credits that land on quorum edges often: ties, and round numbers whose
# float sums in credits are inexact, like the edge table above.
_CREDITS = st.one_of(st.integers(0, CREDIT_UNIT), st.sampled_from(
    [0, 80_000, 200_000, 250_000, 270_000, CREDIT_UNIT // 2, CREDIT_UNIT]))


@st.composite
def _quorum_cases(draw):
    """(n, credits by id index, sender index sets, table orders)."""
    n = draw(st.integers(4, 30))
    # A small palette makes ties, and ties put sums on exact edges.
    palette = draw(st.lists(_CREDITS, min_size=1, max_size=n))
    values = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    picks = [draw(st.sets(st.integers(0, n - 1))) for _ in range(3)]
    return n, values, picks, [draw(st.permutations(range(n))) for _ in range(4)]


@settings(max_examples=300, deadline=None)
@given(case=_quorum_cases())
def test_quorums_are_exact_in_any_table_order(case):
    n, values, picks, orders = case
    ids = _ids(n)
    credits = dict(zip(ids, values))
    total = sum(values)
    need = Fraction(2 * ((n - 1) // 3) + 1, n)
    top = sorted(values, reverse=True)
    fewest = 0 if total == 0 else next(
        k for k in range(n + 1) if Fraction(sum(top[:k]), total) >= need)
    for order in orders:
        table = {ids[i]: values[i] for i in order}
        for picked in picks:
            senders = dict.fromkeys(ids[i] for i in order if i in picked).keys()
            want = total > 0 and Fraction(sum(credits[k] for k in senders), total) >= need
            assert check_quorum(senders, table, total, n) is want
        assert min_quorum_cardinality(table, total, n) == fewest


def test_min_quorum_cardinality():
    assert min_quorum_cardinality(init_credits(_ids(4)), 2_000_000, 4) == 3
    assert min_quorum_cardinality(
        {"a": 900_000, "b": 900_000, "c": 100_000, "d": 100_000}, 2_000_000, 4) == 2
    assert min_quorum_cardinality({"a": 1_000_000, "b": 0, "c": 0, "d": 0}, 1_000_000, 4) == 1


# ------------------------------------------------------------
# leader election
# ------------------------------------------------------------


def test_elect_leader_deterministic():
    credits = init_credits(_ids(5))
    assert elect_leader(credits, 2_500_000, 123) == elect_leader(credits, 2_500_000, 123)


def test_elect_leader_zero_total():
    # with every credit drained, the seed alone picks the leader, from the
    # sorted ids with equal odds, whatever order the table holds them in
    credits = dict.fromkeys(reversed(_ids(4)), 0)
    assert elect_leader(credits, 0, 123) == elect_leader(dict(sorted(credits.items())), 0, 123)
    assert elect_leader(credits, 0, 123) == random.Random(123).choice(_ids(4))
    counts = Counter(elect_leader(credits, 0, s) for s in range(10_000))
    assert set(counts) == set(credits)
    expected = 10_000 / 4
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    # chi-square, 3 degrees of freedom, 1% point
    assert stat < 11.345


def test_elect_leader_excludes_zero_credit():
    credits = {"a": 0, "b": CREDIT_UNIT // 2, "c": CREDIT_UNIT // 2, "d": CREDIT_UNIT // 2}
    winners = {elect_leader(credits, 3 * CREDIT_UNIT // 2, s) for s in range(2000)}
    assert "a" not in winners
    assert winners == {"b", "c", "d"}


def test_elect_leader_uniform_chi_square():
    credits = init_credits(_ids(4))
    counts = {k: 0 for k in credits}
    draws = 10_000
    for s in range(draws):
        counts[elect_leader(credits, 2_000_000, s)] += 1
    expected = draws / 4
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    # chi-square, 3 degrees of freedom, 1% point
    assert stat < 11.345


def test_elect_leader_skewed_frequencies():
    credits = {"a": 800_000, "b": 200_000}
    draws = 10_000
    hits = sum(elect_leader(credits, CREDIT_UNIT, s) == "a" for s in range(draws))
    assert abs(hits / draws - 0.8) <= 0.02


# Totals 2**k, each with the last id holding the single credit the walk
# reaches only when the pick lands in the total's last micro-credit.
_POWER_TABLES = [{"a": 2 ** k - 1, "b": 1} for k in range(31)]
_FULL_GROUP = dict.fromkeys(_ids(MAX_GROUP), CREDIT_UNIT)


def test_elect_leader_needs_no_guard():
    for table in _POWER_TABLES + [_FULL_GROUP]:
        total = sum(table.values())
        # random() is at most 1 - 2**-53, and that times an integer
        # total below 2**53 still rounds below the total, so the walk's
        # last positive credit always takes the pick.
        assert (1.0 - 2.0 ** -53) * total < total
        for s in range(300):
            assert random.Random(s).random() * total < total
            assert table[elect_leader(table, total, s)] > 0


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_CREDITS, min_size=1, max_size=40).filter(any),
       seed=st.integers(0, 2 ** 63 - 1))
def test_elect_leader_picks_a_positive_credit(values, seed):
    table = dict(zip(_ids(len(values)), values))
    assert table[elect_leader(table, sum(values), seed)] > 0


# ------------------------------------------------------------
# credit updates
# ------------------------------------------------------------


def _outcome(leader="L", committed=True, voted_full=(), voted_partial=()):
    return RoundOutcome(leader_id=leader, committed=committed,
                        abort_reason=None if committed else "LeaderSilent",
                        block=None, voted_full=set(voted_full),
                        voted_partial=set(voted_partial), prepare_needed=3)


def test_update_credits_leader():
    half = CREDIT_UNIT // 2
    credits = {"L": half, "v": half}
    up = update_credits(credits, _outcome(committed=True, voted_full={"L", "v"}),
                        DELTA_LEADER, DELTA_VOTER)
    assert up == {"L": half + DELTA_LEADER, "v": half + DELTA_VOTER}
    # the leader is judged as leader only, whatever it voted
    down = update_credits(credits, _outcome(committed=False, voted_full={"L", "v"}),
                          DELTA_LEADER, DELTA_VOTER)
    assert down == {"L": half - DELTA_LEADER, "v": half - DELTA_VOTER}


def test_update_credits_voter_clamps():
    # unclamped, hi and lo would leave [0, CREDIT_UNIT] by one micro-credit;
    # mid steps onto the edge
    credits = {"L": CREDIT_UNIT // 2, "hi": CREDIT_UNIT - DELTA_VOTER + 1,
               "lo": DELTA_VOTER - 1, "mid": CREDIT_UNIT - DELTA_VOTER}
    out = update_credits(credits, _outcome(voted_full={"hi", "mid"}),
                         DELTA_LEADER, DELTA_VOTER)
    assert out == {"L": CREDIT_UNIT // 2 + DELTA_LEADER, "hi": CREDIT_UNIT, "lo": 0,
                   "mid": CREDIT_UNIT}


def test_a_partial_vote_always_loses():
    # a prepare that went to some nodes only matches neither outcome; a
    # voter that sent none endorses an abort
    half = CREDIT_UNIT // 2
    credits = {"L": half, "part": half, "none": half}
    for committed in (True, False):
        out = update_credits(credits, _outcome(committed=committed, voted_partial={"part"}),
                             DELTA_LEADER, DELTA_VOTER)
        assert out["part"] == half - DELTA_VOTER
        assert out["none"] == half + (-DELTA_VOTER if committed else DELTA_VOTER)


def test_update_credits_pure():
    credits = {"L": CREDIT_UNIT // 2, "v": CREDIT_UNIT // 2}
    update_credits(credits, _outcome(voted_full={"v"}), DELTA_LEADER, DELTA_VOTER)
    assert credits == {"L": CREDIT_UNIT // 2, "v": CREDIT_UNIT // 2}


# ------------------------------------------------------------
# single rounds
# ------------------------------------------------------------


def test_round_all_honest_commits():
    ids = _ids(4)
    nodes = make_nodes(ids)
    credits = init_credits(ids)
    outcome = run_round(nodes, credits, FaultProfile(), _net(), 0, seed=1)
    assert outcome.committed
    assert outcome.abort_reason is None
    tips = {nodes[k].chain.tip.block_hash for k in ids}
    assert len(tips) == 1
    assert all(nodes[k].chain.height == 1 for k in ids)
    assert outcome.voted_full == set(ids)


def test_a_loss_free_round_checks_one_quorum_per_phase(monkeypatch):
    checked = []
    check = consensus.check_quorum

    def counted(senders, credits, total, n_nodes):
        checked.append(set(senders))
        return check(senders, credits, total, n_nodes)

    monkeypatch.setattr(consensus, "check_quorum", counted)
    ids = _ids(20)
    nodes, credits = make_nodes(ids), init_credits(ids)
    assert run_round(nodes, credits, FaultProfile(), _net(), 0, seed=1).committed
    # every vote landed everywhere, so the nodes share one tally per phase
    assert checked == [set(ids), set(ids)]
    # With every copy dropped only the leader holds the proposal, and
    # its own prepare vote: the empty shared set is checked in each
    # phase, and the leader's own prepare once more.
    checked.clear()
    out = run_round(nodes, credits, FaultProfile(), PhaseNet(drop_prob=1.0), 1, seed=2)
    assert out.abort_reason == "PrepareQuorumFailed"
    assert checked == [set(), {out.leader_id}, set()]


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
    nodes, credits, net = make_nodes(ids), init_credits(ids), _net()
    made = _count_randoms(monkeypatch)
    assert run_round(nodes, credits, FaultProfile(), net, 0, seed=1).committed
    assert made == [1]


def test_equivocating_voter_seeds_the_round_stream_once(monkeypatch):
    ids = _ids(7)
    credits = init_credits(ids)
    leader = elect_leader(credits, 3_500_000, 5)
    voters = [k for k in ids if k != leader][:2]
    nodes, net = make_nodes(ids), _net()
    profile = FaultProfile(behaviors={k: Behavior.EQUIVOCATOR for k in voters})
    made = _count_randoms(monkeypatch)
    run_round(nodes, credits, profile, net, 0, seed=5)
    # both equivocators draw from one stream
    assert made == [5, "round:5"]


def test_commit_drains_only_the_block_ids_from_the_pool():
    txs = [Contract(f"ct-{i:06d}", "b", "s", EnergyKind.HEAT, 1.0, 1.0, 0, 0)
           for i in range(4)]
    # an exact pool, one with an id the block lacks, one lacking block ids
    for held, left in ((txs[:3], {}), (txs, {txs[3].contract_id: txs[3]}),
                       (txs[1:2], {})):
        for commit in (ConsensusNode.commit, loop_commit):
            (node,) = make_nodes(["n00"]).values()
            pool = node.pool
            pool.update((c.contract_id, c) for c in held)
            block = make_block("n00", node.chain, 0, txs[:3])
            commit(node, block)
            assert node.chain.tip is block
            assert node.pool is pool and pool == left


def test_round_silent_leader_aborts():
    ids = _ids(4)
    credits = init_credits(ids)
    leader = elect_leader(credits, 2_000_000, 7)
    nodes = make_nodes(ids)
    profile = FaultProfile(behaviors={leader: Behavior.SILENT_LEADER})
    outcome = run_round(nodes, credits, profile, _net(), 0, seed=7)
    assert outcome.leader_id == leader
    assert not outcome.committed
    assert outcome.abort_reason == "LeaderSilent"
    assert all(nodes[k].chain.height == 0 for k in ids)
    after = update_credits(credits, outcome, 50_000, 20_000)
    assert after[leader] == 450_000
    # quiet non-leaders endorsed the abort and gain
    others = [k for k in ids if k != leader]
    assert all(after[k] == 520_000 for k in others)


def test_round_invalid_block_leader_aborts():
    ids = _ids(4)
    credits = init_credits(ids)
    leader = elect_leader(credits, 2_000_000, 11)
    nodes = make_nodes(ids)
    profile = FaultProfile(behaviors={leader: Behavior.INVALID_BLOCK_LEADER})
    outcome = run_round(nodes, credits, profile, _net(), 0, seed=11)
    assert not outcome.committed
    assert outcome.abort_reason == "LeaderInvalidBlock"
    assert all(nodes[k].chain.height == 0 for k in ids)


def test_round_tolerates_f_dissenters():
    # f = floor((7-1)/3) = 2 dissenting voters cannot block the quorum
    ids = _ids(7)
    credits = init_credits(ids)
    leader = elect_leader(credits, 3_500_000, 5)
    dissenters = [k for k in ids if k != leader][:2]
    nodes = make_nodes(ids)
    profile = FaultProfile(
        behaviors={k: Behavior.DISSENTER for k in dissenters})
    outcome = run_round(nodes, credits, profile, _net(), 0, seed=5)
    assert outcome.committed
    # dissenters withheld votes but still see the commit certificate
    assert all(nodes[k].chain.height == 1 for k in ids)
    tips = {nodes[k].chain.tip.block_hash for k in ids}
    assert len(tips) == 1


def test_round_fails_beyond_f_dissenters():
    # 3 of 7 dissenting leaves 4/7 < 5/7 of the credit mass
    ids = _ids(7)
    credits = init_credits(ids)
    leader = elect_leader(credits, 3_500_000, 9)
    dissenters = [k for k in ids if k != leader][:3]
    nodes = make_nodes(ids)
    profile = FaultProfile(
        behaviors={k: Behavior.DISSENTER for k in dissenters})
    outcome = run_round(nodes, credits, profile, _net(), 0, seed=9)
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
    assert trail[24] == 0
    for prev, cur in zip(trail, trail[1:]):
        assert cur <= prev
    honest_trails = [[h[k] for h in history] for k in ids[1:]]
    for trail_h in honest_trails:
        for prev, cur in zip(trail_h, trail_h[1:]):
            assert cur >= prev
        assert trail_h[-1] == CREDIT_UNIT


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


@pytest.mark.parametrize("seed", [4, 9, 10])
def test_one_equivocator_of_four_never_takes_the_credit(seed):
    # ROADMAP 7(a): while a partial prepare counted as endorsing an abort,
    # each abort it caused moved credit from the honest voters to the
    # equivocator, and these loss-free runs drained every credit (rounds
    # 973, 222 and 822)
    ids = _ids(4)
    driver = run_rounds(1000, make_nodes(ids),
                        FaultProfile(behaviors={"n00": Behavior.EQUIVOCATOR}), seed=seed)
    for row in driver.rows:
        assert row.credit_honest + row.credit_byz > 0
        assert row.credit_honest > row.credit_byz


# ------------------------------------------------------------
# the reference round
# ------------------------------------------------------------

FAULTS = [b for b in Behavior if b is not Behavior.HONEST]
DROPS = (0.0, 0.02, 0.1, 0.3)
REFERENCE_ROUNDS = 30
# Contracts the nodes pool, each node a subset of them: a leader proposes
# its whole pool, so a voter that lacks one of them rejects the block.
POOLED = [Contract(f"ct-{i:06d}", "b", "s", EnergyKind.ELECTRICITY, 1.0, 1.0, 0, 0)
          for i in range(6)]
FULL = 2 ** len(POOLED) - 1  # the pool mask holding every contract


def _drive(round_fn, n, behaviors, drop_prob, pools, seed, rounds=REFERENCE_ROUNDS):
    """rounds rounds through RoundDriver, playing round_fn as netsim's
    round; the run's rows, credits, error, copies, chains and pools."""
    ids = _ids(n)
    nodes = make_nodes(ids)
    for k, mask in zip(ids, pools):
        nodes[k].pool.update((c.contract_id, c) for i, c in enumerate(POOLED)
                             if mask >> i & 1)
    driver = RoundDriver(nodes, FaultProfile(behaviors, drop_prob), seed,
                         DELTA_LEADER, DELTA_VOTER)
    error = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netsim, "run_round", round_fn)
        try:
            for _ in range(rounds):
                driver.step()
        except ConsensusError as exc:  # TooFewNodes: the grid's n = 3 group
            error = repr(exc)
    return (driver.rows, driver.credits, error, driver.net.sent, driver.net.dropped,
            {k: [b.block_hash for b in node.chain.blocks] for k, node in nodes.items()},
            {k: node.pool for k, node in nodes.items()})


@st.composite
def _groups(draw):
    """(n, behaviors, drop_prob, pools, seed): any count of fault roles up
    to n on any ids, and each node's pool a subset of POOLED by bit mask."""
    n = draw(st.integers(4, 30))
    n_faulty = draw(st.integers(0, n))
    faulty = draw(st.lists(st.sampled_from(FAULTS), min_size=n_faulty, max_size=n_faulty))
    order = draw(st.permutations(_ids(n)))
    pools = draw(st.lists(st.integers(0, FULL), min_size=n, max_size=n))
    return (n, dict(zip(order, faulty)), draw(st.sampled_from(DROPS)), pools,
            draw(st.integers(0, 2 ** 32)))


# Groups the grid must reach, run on every pass: pools that differ, so a
# voter rejects a block for a contract it lacks (UnknownTx); lossy runs
# in which a node misses a commit and lags (BadPrevHash); a group too
# small for the quorum rule, which raises before a copy goes out; a
# group without an honest node, whose abort cause is read off its first
# id; a loss-free, fault-free group, whose votes all land everywhere and
# are tallied in one shared set per phase; and a loss-free group whose
# equivocator's subset votes are the only ones tallied per receiver.
GRID_CASES = [
    (4, {}, 0.0, [FULL, FULL - 1, FULL, FULL - 2], 3),
    (7, {"n03": Behavior.DISSENTER}, 0.1, [FULL] * 7, 5),
    (13, {}, 0.3, [FULL, 0] * 6 + [FULL], 8),
    (3, {}, 0.0, [FULL] * 3, 1),
    (6, {k: b for k, b in zip(_ids(6), FAULTS * 2)}, 0.02, [FULL] * 6, 2),
    (20, {}, 0.0, [FULL] * 20, 4),
    (9, {"n02": Behavior.EQUIVOCATOR, "n05": Behavior.DISSENTER}, 0.0, [FULL] * 9, 6),
]


@settings(max_examples=120, deadline=None)
@given(group=_groups())
@example(group=GRID_CASES[0])
@example(group=GRID_CASES[1])
@example(group=GRID_CASES[2])
@example(group=GRID_CASES[3])
@example(group=GRID_CASES[4])
@example(group=GRID_CASES[5])
@example(group=GRID_CASES[6])
def test_run_round_matches_the_reference_round(group):
    assert _drive(run_round, *group) == _drive(reference_round, *group)


def test_run_round_matches_the_reference_round_at_200_nodes():
    # the scale the shared tallies are for: every vote lands everywhere
    group = (200, {}, 0.0, [FULL] * 200, 11)
    assert _drive(run_round, *group, rounds=5) == _drive(reference_round, *group, rounds=5)


class _Scripted:
    """A fabric that is no PhaseNet: it drops the copies at the given send
    indices, counting only copies to another node."""

    def __init__(self, drops):
        self.drops = frozenset(drops)
        self.sent = 0

    def deliver(self, src, targets):
        landed = []
        for dst in targets:
            if dst != src:
                self.sent += 1
                if self.sent - 1 in self.drops:
                    continue
            landed.append(dst)
        return landed


def _scripted_round(round_fn, behaviors, seed, drops):
    """One round of round_fn over a fresh 4-node group with every contract
    pooled; its outcome (block by hash), copies sent, chains and pools."""
    ids = _ids(4)
    nodes = make_nodes(ids)
    for node in nodes.values():
        node.pool.update((c.contract_id, c) for c in POOLED)
    net = _Scripted(drops)
    outcome = round_fn(nodes, init_credits(ids), FaultProfile(behaviors), net, 0, seed)
    block = outcome.block
    return (outcome._replace(block=None if block is None else block.block_hash), net.sent,
            {k: [b.block_hash for b in node.chain.blocks] for k, node in nodes.items()},
            {k: node.pool for k, node in nodes.items()})


@pytest.mark.parametrize("behaviors", [{}, {"n00": Behavior.EQUIVOCATOR}],
                         ids=["no-faults", "one-equivocator"])
def test_the_reference_round_runs_on_a_scripted_fabric(behaviors):
    # every set of one or two copies dropped from one round
    reasons = Counter()
    for seed in range(3):
        copies = _scripted_round(run_round, behaviors, seed, ())[1]
        for drops in itertools.chain.from_iterable(
                itertools.combinations(range(copies), k) for k in (0, 1, 2)):
            got = _scripted_round(run_round, behaviors, seed, drops)
            assert got == _scripted_round(reference_round, behaviors, seed, drops), drops
            reasons[got[0].abort_reason] += 1
    assert None in reasons and len(reasons) > 1  # some drop sets abort the round


@pytest.mark.parametrize("lagging,drops,reason", [
    (("n00", "n02"), (), "LeaderInvalidBlock"),
    (("n02", "n03"), (), "PrepareQuorumFailed"),
    ((), range(15, 27), "CommitQuorumFailed"),
], ids=["first-decider-lags", "half-lag", "commit-copies-drop"])
def test_an_aborted_round_names_its_cause(lagging, drops, reason):
    # Seed 7 elects n01 from equal credits.  Lagging nodes miss an empty
    # height-1 block the others took, so they reject the leader's block
    # as off their tip.  The cause is read off the first deciding node
    # alone: n00's rejection names the block invalid though n01 and n03
    # accept it.  With no lag, the proposal's 3 copies and the prepares'
    # 12 land and every commit copy drops.
    ids = _ids(4)
    for round_fn in (run_round, reference_round):
        nodes = make_nodes(ids)
        missed = make_block("n03", nodes["n03"].chain, 0, [])
        for k in ids:
            if k not in lagging:
                nodes[k].chain.append(missed)
        outcome = round_fn(nodes, init_credits(ids), FaultProfile(), _Scripted(drops), 1, 7)
        assert (outcome.leader_id, outcome.abort_reason) == ("n01", reason)


class _Logged(PhaseNet):
    """PhaseNet that logs each fan-out: its sender and where it landed."""

    def __init__(self, drop_prob, seed):
        super().__init__(drop_prob, random.Random(seed))
        self.log = []

    def deliver(self, src, targets):
        landed = super().deliver(src, targets)
        self.log.append((src, list(landed)))
        return landed


@pytest.mark.parametrize("drop_prob", [0.0, 0.1])
def test_each_tally_holds_the_votes_the_fabric_landed(drop_prob, monkeypatch):
    # fresh nodes with equal pools all accept the proposal, so the
    # fan-outs after the proposal's are one prepare per node it reached,
    # then the commits
    verdicts = []
    tally = consensus._tally

    def recorded(ids, votes, credits, total):
        verdicts.append(tally(ids, votes, credits, total))
        return verdicts[-1]

    monkeypatch.setattr(consensus, "_tally", recorded)
    ids = _ids(9)
    credits = init_credits(ids)
    total = sum(credits.values())
    per_receiver = 0
    for seed in range(12):
        nodes = make_nodes(ids)
        for node in nodes.values():
            node.pool.update((c.contract_id, c) for c in POOLED)
        net = _Logged(drop_prob, seed)
        verdicts.clear()
        run_round(nodes, credits, FaultProfile({"n04": Behavior.EQUIVOCATOR}),
                  net, 0, seed)
        (_leader, saw), *votes = net.log
        prepares, commits = votes[:len(saw)], votes[len(saw):]
        assert [src for src, _ in prepares] == saw
        # each node's verdict is the quorum over the senders that reached it
        assert verdicts == [
            {k: check_quorum({src for src, landed in phase if k in landed},
                             credits, total, len(ids)) for k in ids}
            for phase in (prepares, commits)]
        per_receiver += sum(len(landed) < len(ids) for _, landed in votes)
    assert per_receiver > 0  # some votes missed a node, so extras were tallied



def test_the_reference_grid_reaches_every_verdict(monkeypatch):
    verdicts = Counter()
    validate = consensus.validate_block

    def recorded(block, pool, chain):
        verdict = validate(block, pool, chain)
        verdicts[verdict[1]] += 1
        return verdict

    monkeypatch.setattr(consensus, "validate_block", recorded)
    runs = [_drive(run_round, *case) for case in GRID_CASES]
    assert {"UnknownTx", "BadPrevHash"} <= set(verdicts)
    outcomes = {r.abort_reason or r.decision for run in runs for r in run[0]}
    assert outcomes == {"committed", "LeaderSilent", "LeaderInvalidBlock",
                        "PrepareQuorumFailed", "CommitQuorumFailed"}
    small = [(rows, error.partition("(")[0], sent)
             for (n, *_), (rows, _, error, sent, *_) in zip(GRID_CASES, runs) if n < 4]
    assert small == [([], "TooFewNodes", 0)]
    no_honest = [run for case, run in zip(GRID_CASES, runs) if len(case[1]) == case[0]]
    assert len(no_honest) == 1
    assert {r.abort_reason for r in no_honest[0][0]} - {"", "LeaderSilent"}
