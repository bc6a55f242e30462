"""Unit tests for the deterministic message fabric and the round driver."""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
from collections import Counter
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from destrade import (
    Behavior,
    Block,
    Chain,
    ConsensusNode,
    Contract,
    EnergyKind,
    FaultProfile,
    PhaseNet,
    PipelineResult,
    RoundDriver,
    consensus,
    ledger,
    make_block,
    make_nodes,
    run_pipeline,
    run_rounds,
    verify_chain,
)
from destrade.cli import main
from destrade.consensus import DELTA_LEADER, DELTA_VOTER
from destrade.scenario import build_credit_steps, build_faults, load_scenario, parse_scenario

from oracles import loop_commit, loop_validate_block

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _ids(n: int):
    return [f"n{c:02d}" for c in range(n)]


# ------------------------------------------------------------
# fabric mechanics
# ------------------------------------------------------------


class _Draws(random.Random):
    """A random stream that records every random() it hands out."""

    def __init__(self, seed):
        super().__init__(seed)
        self.drawn = []

    def random(self):
        self.drawn.append(super().random())
        return self.drawn[-1]


def test_deliver_sends_once_to_each_other_target_in_order():
    # the sender's own copy lands without a send, and without loss the
    # fan-out lands whole, with no draw
    net = PhaseNet(rng=_Draws(1))
    assert net.deliver("n02", _ids(4)) == _ids(4)
    assert net.deliver("n00", ["n01", "n03"]) == ["n01", "n03"]
    assert net.deliver("n00", []) == []
    assert (net.sent, net.dropped, net.rng.drawn) == (5, 0, [])
    # with loss each other copy takes one draw, in target order, and
    # lands when the draw is at least drop_prob
    net = PhaseNet(drop_prob=0.5, rng=_Draws(3))
    landed = net.deliver("n02", _ids(6))
    assert len(net.rng.drawn) == 5
    others = [dst for dst in _ids(6) if dst != "n02"]
    assert landed == sorted(["n02"] + [dst for dst, r in zip(others, net.rng.drawn)
                                       if r >= 0.5])
    assert (net.sent, net.dropped) == (5, 6 - len(landed))


def test_phase_net_drop_all():
    net = PhaseNet(drop_prob=1.0, rng=random.Random(1))
    assert net.deliver("n00", _ids(4)) == ["n00"]
    assert net.deliver("n01", ["n02"]) == []
    assert (net.sent, net.dropped) == (4, 4)


def test_phase_net_send_reports_each_copy():
    net = PhaseNet(drop_prob=0.5, rng=random.Random(2))
    landed = [net.deliver("n00", ["n01"]) for _ in range(40)]
    assert [] in landed and ["n01"] in landed
    assert net.sent == 40
    assert net.dropped == landed.count([])


def _naive_deliver(net, src, targets):
    """PhaseNet.deliver as a per-copy loop: each other copy counted, and
    dropped on one draw below drop_prob."""
    landed = []
    for dst in targets:
        if dst != src:
            net.sent += 1
            if net.drop_prob > 0.0 and net.rng.random() < net.drop_prob:
                net.dropped += 1
                continue
        landed.append(dst)
    return landed


@settings(max_examples=150, deadline=None)
@given(drop_prob=st.sampled_from([0.0, 0.02, 0.3, 1.0]), seed=st.integers(0, 2 ** 32),
       fanouts=st.lists(st.tuples(st.integers(0, 9),
                                  st.lists(st.integers(0, 9), unique=True)), max_size=8))
def test_deliver_matches_a_per_copy_loop(drop_prob, seed, fanouts):
    fast = PhaseNet(drop_prob, random.Random(seed))
    slow = PhaseNet(drop_prob, random.Random(seed))
    for src, picks in fanouts:
        targets = [f"n{i:02d}" for i in picks]
        assert fast.deliver(f"n{src:02d}", targets) == _naive_deliver(
            slow, f"n{src:02d}", targets)
    assert (fast.sent, fast.dropped) == (slow.sent, slow.dropped)
    assert fast.rng.random() == slow.rng.random()


def test_phase_net_seed_reproducibility():
    def trace(seed):
        net = PhaseNet(drop_prob=0.3, rng=random.Random(seed))
        reached = [net.deliver(f"n{r % 5:02d}", _ids(5)) for r in range(20)]
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
    tips = {nodes[k].chain.tip.block_hash for k in nodes}
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
    tips = {nodes[k].chain.tip.block_hash for k in ids}
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
        assert len({c[h].block_hash for c in chains}) == 1
    result2, _ = go()
    assert result2.rows == result.rows



def test_credits_stay_whole_micro_credits():
    # The scenario's steps are read in credits; every table and log sum
    # holds integers, on a lossy run with byzantine roles.
    sc = parse_scenario("[consensus]\ndelta1 = 0.1\ndelta2 = 0.000003\n"
                        "[faults]\ndissenters = 1\nequivocators = 1\ndrop_prob = 0.1\n")
    delta1, delta2 = build_credit_steps(sc)
    assert (delta1, delta2) == (100_000, 3)
    driver = run_rounds(60, make_nodes(_ids(7)), build_faults(sc, _ids(7), 7), 5,
                        delta1, delta2)
    assert all(type(c) is int for c in driver.credits.values())
    assert all(type(r.credit_honest) is type(r.credit_byz) is int for r in driver.rows)
    assert len(set(driver.credits.values())) > 1


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
        chains = [[b.block_hash for b in nodes[k].chain.blocks]
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
    driver = RoundDriver(nodes, FaultProfile(), seed=1, delta1=DELTA_LEADER,
                         delta2=DELTA_VOTER)
    _fork(nodes, ["n00", "n01"])
    assert driver.divergence_count == 1
    ref = nodes["n00"].chain
    res = PipelineResult(city_names=[], trace=None, ledger=ledger.Ledger(),
                         chain=ref, driver=driver, unexecuted=[], refusals=[],
                         drift=0.0, chain_ok=verify_chain(ref))
    assert not res.chains_equal
    assert res.violations == ["divergent chains"]


@pytest.mark.parametrize("n,drop_prob,role,seed,forks", [
    pytest.param(4, 0.1, None, 8, 3, id="n4-no-faults"),
    # every node equivocates, so every chain counts: the honest ones
    # alone would read 0 here
    pytest.param(5, 0.2, Behavior.EQUIVOCATOR, 1, 1, id="n5-all-equivocators"),
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


def _scenario_with(name, **values):
    """Text of a shipped scenario with each named key's line set to its value."""
    with open(os.path.join(REPO, "scenarios", name)) as fh:
        text = fh.read()
    for key, value in values.items():
        text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.MULTILINE)
        assert n == 1, key
    return text


def test_pipeline_reads_the_divergence_audit():
    sc = load_scenario(os.path.join(REPO, "scenarios", "full_2city.scn"))
    res = run_pipeline(sc, seed=7)
    assert res.violations == []
    assert res.driver.divergence_count == 0
    assert res.driver.commit_count == len(res.driver.rows) == res.chain.height
    # a NaN drift compares false with any bound, and must still fail
    assert res._replace(drift=float("nan")).violations == ["balance drift"]
    # each other verdict of a finished run, alone
    assert res._replace(chain_ok=False).violations == ["chain audit"]
    assert res._replace(unexecuted=["ct-000000", "ct-000001"]).violations == [
        "2 unexecuted contracts"]
    account = res.ledger.accounts["c0.ea"]
    held, account.balance = account.balance, -1.0
    assert res.violations == ["negative balance"]
    account.balance = held
    # the audit rebuilds each root: a tip re-signed over another root fails it
    blocks, tip = res.chain.blocks, res.chain.tip
    other_root = blocks[1].merkle
    assert tip.txs and other_root != tip.merkle

    def with_rebuilt_tip(**merkle):
        chain = Chain(blocks[0])
        chain.blocks += blocks[1:-1] + [Block(tip.height, tip.prev_hash, tip.leader_id,
                                              tip.round_no, tip.txs, tip.note, **merkle)]
        return chain
    assert verify_chain(res.chain) and verify_chain(with_rebuilt_tip())
    assert not verify_chain(with_rebuilt_tip(merkle=other_root))
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
    text = _scenario_with("full_2city.scn", dissenters=1)
    res = run_pipeline(parse_scenario(text), seed=7)
    # fault roles go onto ids in order, so the first id dissents
    assert res.driver.profile.behaviors == {"c0.ea": Behavior.DISSENTER}
    assert res.chain is res.driver.nodes["c0.ha"].chain
    assert res.violations == []


def test_lagging_dissenter_is_no_divergence():
    # a lossy run in which the dissenter misses a commit: the audit
    # compares the honest chains, which agree
    text = _scenario_with("full_2city.scn", dissenters=1, drop_prob=0.05)
    res = run_pipeline(parse_scenario(text), seed=7)
    nodes = res.driver.nodes
    assert nodes["c0.ea"].chain.height == 2
    tips = {nodes[k].chain.tip.block_hash for k in res.driver.honest}
    assert res.driver.honest == {"c0.ha", "c1.ea", "c1.ha"}
    assert len(tips) == 1 and res.chain.height == 3
    assert res.chains_equal
    assert res.violations == []


@pytest.mark.parametrize("faults", ["drop_prob = 0.0", "dissenters = 1\ndrop_prob = 0.05"])
def test_settlement_follows_the_commits(faults):
    # the contracts settled are those on the exported chain, on a clean
    # run and on the lossy one with a lagging dissenter
    text = _scenario_with("full_2city.scn",
                          **dict(line.split(" = ") for line in faults.split("\n")))
    res = run_pipeline(parse_scenario(text), seed=7)
    on_chain = [cid for b in res.chain.blocks for cid in b.tx_ids]
    assert on_chain and res.ledger.executed == set(on_chain)
    assert res.unexecuted == [cid for cid in res.ledger.contracts if cid not in on_chain]


def _is_hex_digest(s: str) -> bool:
    return len(s) == 64 and all(ch in "0123456789abcdef" for ch in s)


def test_pipeline_hashes_each_contract_and_block_once(monkeypatch):
    inputs = []
    roots = {}  # output -> times a merkle node hash produced it

    def counted(raw: bytes):
        data = raw.decode()
        inputs.append(data)
        digest = sha256(raw)
        out = digest.hexdigest()
        if len(data) == 128 and _is_hex_digest(data[:64]) and _is_hex_digest(data[64:]):
            roots[out] = roots.get(out, 0) + 1
        return digest

    monkeypatch.setattr(ledger, "_sha256", counted)
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
    check, sign = ledger.Ledger.check_offer, ledger.Ledger.sign_offers

    def counted_check(self, *terms):
        checked.append(terms)
        return check(self, *terms)

    def counted_sign(self, offers, trans_time, stime):
        signed.append((list(offers), trans_time, stime))
        return sign(self, offers, trans_time, stime)

    monkeypatch.setattr(ledger.Ledger, "check_offer", counted_check)
    monkeypatch.setattr(ledger.Ledger, "sign_offers", counted_sign)
    res = run_pipeline(load_scenario(os.path.join(REPO, "scenarios", "full_2city.scn")),
                       seed=7)
    days = 3
    # two streams for each of 5 communities in each of 2 cities
    assert len(checked) == len(set(checked)) == 20
    # one signing call a day, over the same offer objects in the same order
    assert [(t, s) for _, t, s in signed] == [(d, d) for d in range(days)]
    first = signed[0][0]
    assert len(first) == 20
    assert all(len(offers) == 20 and all(o is f for o, f in zip(offers, first))
               for offers, _, _ in signed)
    assert len(res.ledger.contracts) == days * len(checked)


# ------------------------------------------------------------
# settlement's fast paths against their plain loops
# ------------------------------------------------------------


def _variant(path, name, **values):
    """Write to path a copy of a shipped scenario with each named key's
    line set to its value; path as a string."""
    path.write_text(_scenario_with(name, **values))
    return str(path)


def _cli_run(argv, out):
    """Exit code, printed text and output files of one CLI run into out."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(argv + ["--out", str(out)])
    return rc, stdout.getvalue(), stderr.getvalue(), {
        p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _group_run():
    """Twelve rounds of four aggregators, one of which pooled a contract
    the others lack: its blocks are refused for that contract, and it
    commits the others' blocks with the contract left in its pool."""
    nodes = make_nodes(_ids(4))
    txs = [Contract(f"ct-{i:06d}", "b", "s", EnergyKind.HEAT, 1.0, 1.0, 0, 0)
           for i in range(3)]
    for k, node in nodes.items():
        node.pool.update((c.contract_id, c) for c in (txs if k == "n01" else txs[:2]))
    driver = RoundDriver(nodes, FaultProfile(), 3, DELTA_LEADER, DELTA_VOTER)
    for _ in range(12):
        driver.step()
    return driver.rows, {k: ([b.block_hash for b in node.chain.blocks], node.pool)
                         for k, node in nodes.items()}


def _count_paths(mp):
    """Which way each pool check and drain goes: "fast" when the pool
    lookups equal the block's txs (validate_block, once its tip, root
    and duplicate checks pass) or the pool's ids equal the block's
    (ConsensusNode.commit), "loop" otherwise."""
    ran = Counter()
    validate, commit = consensus.validate_block, ConsensusNode.commit

    def counted_validate(block, pool, chain):
        if (chain.extends(block) and block.merkle == block.own_root
                and not block.has_duplicate):
            same = tuple(map(pool.get, block.tx_ids)) == block.txs
            ran["validate fast" if same else "validate loop"] += 1
        return validate(block, pool, chain)

    def counted_commit(node, block):
        ran["commit fast" if node.pool.keys() == block.id_set else "commit loop"] += 1
        commit(node, block)

    mp.setattr(consensus, "validate_block", counted_validate)
    mp.setattr(ConsensusNode, "commit", counted_commit)
    return ran


def test_settlement_fast_paths_match_the_plain_loops(tmp_path):
    # Lossy full runs, some of which stall with a lagging aggregator,
    # runs with a leader that forges a contract nobody pooled, and a
    # lossy consensus run.  A lagging node never commits, so no pool
    # that takes a commit holds ids the block lacks in these runs;
    # the group run gives one such a pool.
    lossy = _variant(tmp_path / "lossy.scn", "full_2city.scn", drop_prob=0.05)
    forging = _variant(tmp_path / "forging.scn", "full_2city.scn",
                       invalid_leaders=1, drop_prob=0.05)
    runs = [["full", "--scenario", lossy, "--seed", str(s)] for s in range(1, 11)]
    runs += [["full", "--scenario", forging, "--seed", str(s)] for s in range(1, 4)]
    runs.append(["consensus", "--scenario",
                 _variant(tmp_path / "group.scn", "consensus20.scn", drop_prob=0.05)])

    def outputs(side):
        return ([_cli_run(argv, tmp_path / f"{side}{i}") for i, argv in enumerate(runs)],
                _group_run())

    with pytest.MonkeyPatch.context() as mp:
        ran = _count_paths(mp)
        fast = outputs("fast")
    assert set(ran) == {"validate fast", "validate loop", "commit fast", "commit loop"}
    assert {rc for rc, *_ in fast[0]} == {0, 2}  # some lossy runs stall
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(consensus, "validate_block", loop_validate_block)
        mp.setattr(ConsensusNode, "commit", loop_commit)
        assert outputs("loop") == fast


def test_a_contract_committed_twice_is_a_safety_violation(tmp_path):
    # An equivocator under loss: at seed 6 the honest chains fork at
    # height 3, where two rounds commit blocks that carry the same day's
    # contracts.  Settlement reads only the exported chain, so the fork
    # reaches the audits and exits 3 instead of settling a contract twice.
    path = _variant(tmp_path / "equivocator.scn", "full_2city.scn",
                    equivocators=1, drop_prob=0.05)
    sc = load_scenario(path)
    for seed in range(1, 21):
        rc, _, err, _ = _cli_run(["full", "--scenario", path, "--seed", str(seed)],
                                 tmp_path / f"out{seed}")
        assert "is executed, not created" not in err
        if seed == 6:
            assert rc == 3 and "safety violation: divergent chains" in err
        if rc == 2:
            assert "contract pool not drained" in err
            continue
        res = run_pipeline(sc, seed)
        on_chain = {cid for b in res.chain.blocks for cid in b.tx_ids}
        assert res.ledger.executed == on_chain
