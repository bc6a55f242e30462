"""Unit tests for the deterministic message fabric and the round driver."""

from __future__ import annotations

import os
import random

import pytest

from destrade import (
    Behavior,
    FaultProfile,
    PhaseNet,
    PipelineResult,
    RoundDriver,
    ledger,
    make_block,
    make_nodes,
    run_pipeline,
    run_rounds,
    verify_chain,
)
from destrade.scenario import load_scenario, parse_scenario

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _ids(n: int):
    return [f"n{c:02d}" for c in range(n)]


# ------------------------------------------------------------
# fabric mechanics
# ------------------------------------------------------------


def test_phase_net_broadcast_excludes_sender():
    net = PhaseNet(_ids(4), rng=random.Random(1))
    assert net.broadcast("n00") == ["n01", "n02", "n03"]
    assert net.broadcast("n02") == ["n00", "n01", "n03"]
    assert (net.sent, net.dropped) == (6, 0)


def test_phase_net_drop_all():
    net = PhaseNet(_ids(4), drop_prob=1.0, rng=random.Random(1))
    assert net.broadcast("n00") == []
    assert net.send("n01", "n02") is False
    assert (net.sent, net.dropped) == (4, 4)


def test_phase_net_send_reports_each_copy():
    net = PhaseNet(_ids(3), drop_prob=0.5, rng=random.Random(2))
    landed = [net.send("n00", "n01") for _ in range(40)]
    assert True in landed and False in landed
    assert net.sent == 40
    assert net.dropped == landed.count(False)


def test_phase_net_seed_reproducibility():
    def trace(seed):
        net = PhaseNet(_ids(5), drop_prob=0.3, rng=random.Random(seed))
        reached = [net.broadcast(f"n{r % 5:02d}") for r in range(20)]
        return reached, net.sent, net.dropped

    assert trace(9) == trace(9)
    assert trace(9) != trace(10)


# ------------------------------------------------------------
# multi-round runs
# ------------------------------------------------------------


def test_fault_free_run_commits_every_round():
    nodes = make_nodes(_ids(20))
    result = run_rounds(100, nodes, FaultProfile(), seed=1)
    assert result.commit_count == 100
    assert result.divergence_count == 0
    assert result.abort_reasons == {}
    tips = {nodes[k].chain.tip.block_hash() for k in nodes}
    assert len(tips) == 1
    assert all(nodes[k].chain.height == 100 for k in nodes)
    assert result.net.dropped == 0 and result.net.sent > 0


def test_overwhelmed_quorum_is_safe_but_not_live():
    # 3 dissenters out of 7 exceeds f = 2: no commits, no divergence
    ids = _ids(7)
    nodes = make_nodes(ids)
    profile = FaultProfile(behaviors={k: Behavior.DISSENTER for k in ids[:3]})
    result = run_rounds(50, nodes, profile, seed=2)
    assert result.commit_count == 0
    assert result.divergence_count == 0
    assert all(nodes[k].chain.height == 0 for k in ids)
    tips = {nodes[k].chain.tip.block_hash() for k in ids}
    assert len(tips) == 1


def test_full_drop_aborts_every_round():
    nodes = make_nodes(_ids(4))
    profile = FaultProfile(drop_prob=1.0)
    result = run_rounds(10, nodes, profile, seed=3)
    assert result.commit_count == 0
    assert set(result.abort_reasons) <= {"PrepareQuorumFailed",
                                         "CommitQuorumFailed"}


def test_lossy_network_stays_safe():
    def go():
        nodes = make_nodes(_ids(20))
        return run_rounds(100, nodes, FaultProfile(drop_prob=0.2), seed=4), nodes

    result, nodes = go()
    assert result.divergence_count == 0
    assert result.net.dropped > 0
    # honest chains agree on their common prefix even if lengths differ
    chains = [nodes[k].chain.blocks for k in sorted(nodes)]
    shortest = min(len(c) for c in chains)
    for h in range(shortest):
        assert len({c[h].block_hash() for c in chains}) == 1
    result2, _ = go()
    assert result2.rows == result.rows



def test_lagging_nodes_abstain_under_loss():
    # six byzantine roles and 5% drops: a node that missed a commit can
    # still see a commit quorum for the next block, and must not append
    # it off its own tip; seeds 4-7 used to raise LedgerError
    ids = _ids(20)
    roles = (Behavior.DISSENTER, Behavior.SILENT_LEADER,
             Behavior.INVALID_BLOCK_LEADER, Behavior.EQUIVOCATOR,
             Behavior.DISSENTER, Behavior.EQUIVOCATOR)
    lagged = 0
    for seed in range(1, 21):
        nodes = make_nodes(ids)
        profile = FaultProfile(behaviors=dict(zip(ids, roles)), drop_prob=0.05)
        result = run_rounds(60, nodes, profile, seed=seed)
        assert result.divergence_count == 0
        chains = [[b.block_hash() for b in nodes[k].chain.blocks]
                  for k in sorted(result.honest)]
        longest = max(chains, key=len)
        assert all(c == longest[:len(c)] for c in chains)
        lagged += len({len(c) for c in chains}) > 1
    # until lagging nodes catch up, some runs leave one behind
    assert lagged > 0


def _fork(nodes, ids):
    """Each of ids appends its own block on top of its chain."""
    for round_no, k in enumerate(ids):
        chain = nodes[k].chain
        chain.append(make_block(k, chain, round_no, []))


def test_a_fork_is_counted_and_fails_the_audit():
    # two honest nodes each append a different height-1 block
    nodes = make_nodes(_ids(4))
    driver = RoundDriver(nodes, FaultProfile(), seed=1, delta1=0.05, delta2=0.02)
    _fork(nodes, ["n00", "n01"])
    assert driver.divergence_count == 1
    ref = nodes["n00"].chain
    res = PipelineResult(city_names=[], outcome=None, ledger=ledger.Ledger(),
                         chain=ref, driver=driver, unexecuted=[], refusals=[],
                         drift=0.0, chain_ok=verify_chain(ref))
    assert not res.chains_equal
    assert res.violations == ["divergent chains"]


@pytest.mark.parametrize("n,drop_prob,role,seed,forks", [
    pytest.param(4, 0.1, None, 8, 3, id="n4-no-faults"),
    # every node equivocates, so every chain counts: the honest ones
    # alone would read 0 here
    pytest.param(5, 0.2, Behavior.EQUIVOCATOR, 2, 1, id="n5-all-equivocators"),
])
def test_lossy_runs_count_their_forks(n, drop_prob, role, seed, forks):
    # pinned counts of runs that fork under loss; each fork is a height
    # holding one more distinct block over the deciding group's chains
    ids = _ids(n)
    behaviors = {k: role for k in ids} if role is not None else {}
    result = run_rounds(300, make_nodes(ids),
                        FaultProfile(behaviors=behaviors, drop_prob=drop_prob),
                        seed=seed)
    assert result.divergence_count == forks


# ------------------------------------------------------------
# full pipeline
# ------------------------------------------------------------


def test_pipeline_reads_the_divergence_audit():
    sc = load_scenario(os.path.join(REPO, "scenarios", "full_2city.scn"))
    res = run_pipeline(sc, seed=7)
    assert res.violations == []
    assert res.driver.divergence_count == 0
    assert res.driver.commit_count == len(res.driver.rows) == res.chain.height
    # a NaN drift compares false with any bound, and must still fail
    assert res._replace(drift=float("nan")).violations == ["balance drift"]
    # an honest chain that differs from the exported one fails the audit,
    # whether it runs ahead or forks
    nodes = res.driver.nodes
    _fork(nodes, ["c1.ea"])
    assert res.driver.divergence_count == 0
    assert res.violations == ["divergent chains"]
    _fork(nodes, ["c1.ha"])
    assert res.driver.divergence_count == 1
    assert res.violations == ["divergent chains"]


def test_pipeline_exports_the_first_honest_chain():
    with open(os.path.join(REPO, "scenarios", "full_2city.scn")) as fh:
        text = fh.read().replace("[faults]", "[faults]\ndissenters = 1")
    res = run_pipeline(parse_scenario(text), seed=7)
    # fault roles go onto ids in order, so the first id dissents
    assert res.driver.profile.behaviors == {"c0.ea": Behavior.DISSENTER}
    assert res.chain is res.driver.nodes["c0.ha"].chain
    assert res.violations == []


def test_lagging_dissenter_is_no_divergence():
    # a lossy run in which the dissenter misses a commit: the audit
    # compares the honest chains, which agree
    with open(os.path.join(REPO, "scenarios", "full_2city.scn")) as fh:
        text = fh.read().replace("[faults]\ndrop_prob = 0.0",
                                 "[faults]\ndissenters = 1\ndrop_prob = 0.05")
    res = run_pipeline(parse_scenario(text), seed=7)
    nodes = res.driver.nodes
    assert nodes["c0.ea"].chain.height == 2
    tips = {nodes[k].chain.tip.block_hash() for k in res.driver.honest}
    assert res.driver.honest == {"c0.ha", "c1.ea", "c1.ha"}
    assert len(tips) == 1 and res.chain.height == 3
    assert res.chains_equal
    assert res.violations == []


def _is_hex_digest(s: str) -> bool:
    return len(s) == 64 and all(ch in "0123456789abcdef" for ch in s)


def test_pipeline_hashes_each_contract_and_block_once(monkeypatch):
    inputs = []
    roots = {}  # output -> times a merkle node hash produced it
    sha = ledger._sha

    def counted(data: str) -> str:
        inputs.append(data)
        out = sha(data)
        if len(data) == 128 and _is_hex_digest(data[:64]) and _is_hex_digest(data[64:]):
            roots[out] = roots.get(out, 0) + 1
        return out

    monkeypatch.setattr(ledger, "_sha", counted)
    res = run_pipeline(load_scenario(os.path.join(REPO, "scenarios", "full_2city.scn")),
                       seed=7)
    # every round commits, so every block made is on the chain
    assert res.driver.commit_count == len(res.driver.rows)
    bodies = [d for d in inputs if d.startswith('["ct-')]
    headers = [d for d in inputs if d[:1] == "[" and d[1:2].isdigit()]
    assert len(bodies) == len(set(bodies)) == len(res.ledger.contracts)
    assert len(headers) == len(set(headers)) == len(res.chain.blocks)
    # Each root is built by make_block, whose root all the validators
    # share, and once more by the chain audit; 4 aggregators validate
    # each block.
    assert len(res.driver.ids) == 4
    multi = [b for b in res.chain.blocks if len(b.txs) > 1]
    assert multi
    assert all(roots[b.merkle] == 2 for b in multi)
    # and no merkle node of any block is hashed more than twice
    assert max(roots.values()) == 2


def test_pipeline_checks_each_offer_once(monkeypatch):
    checked, signed = [], []
    check, sign = ledger.Ledger.check_offer, ledger.Ledger.sign_offer

    def counted_check(self, *terms):
        checked.append(terms)
        return check(self, *terms)

    def counted_sign(self, offer, trans_time, stime):
        signed.append((offer, trans_time))
        return sign(self, offer, trans_time, stime)

    monkeypatch.setattr(ledger.Ledger, "check_offer", counted_check)
    monkeypatch.setattr(ledger.Ledger, "sign_offer", counted_sign)
    res = run_pipeline(load_scenario(os.path.join(REPO, "scenarios", "full_2city.scn")),
                       seed=7)
    days = 3
    # two streams for each of 5 communities in each of 2 cities
    assert len(checked) == len(set(checked)) == 20
    assert len(signed) == len(res.ledger.contracts) == days * len(checked)
    # each day signs the same offer objects, in the same order
    assert all(offer is signed[i % 20][0] for i, (offer, _) in enumerate(signed))
    assert [day for _, day in signed] == [d for d in range(days) for _ in range(20)]
