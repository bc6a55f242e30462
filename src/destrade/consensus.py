"""Credit-weighted agreement over contract blocks.

One round: a leader drawn with probability proportional to credit
proposes a block, everyone validates and exchanges prepare votes, then
commit votes; a vote set clears when its senders hold at least
(2*floor((n-1)/3)+1)/n of the total credit.  Leaders gain or lose
delta1 by whether the round commits, voters gain or lose delta2 by
whether their vote matched the outcome, and credits stay clamped to
[0, 1].  Misbehaving nodes therefore lose both influence and election
odds over time.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Set

from .ledger import Block, Chain, Contract, EnergyKind, make_block, validate_block

# Default credit adjustments per round.
DELTA_LEADER = 0.05
DELTA_VOTER = 0.02

# Credits are a plain id -> credit mapping.
CreditTable = Dict[str, float]


class ConsensusError(Exception):
    pass


class AllCreditsZero(ConsensusError):
    """Election impossible: nobody holds credit."""


class TooFewNodes(ConsensusError):
    """The quorum rule needs at least 4 nodes to tolerate one fault."""


class Behavior(Enum):
    HONEST = "honest"
    SILENT_LEADER = "silent_leader"
    INVALID_BLOCK_LEADER = "invalid_block_leader"
    DISSENTER = "dissenter"
    EQUIVOCATOR = "equivocator"


class FaultProfile:
    """Per-node behavior assignment plus the link drop probability."""

    __slots__ = ("behaviors", "drop_prob")

    def __init__(self, behaviors: Optional[Dict[str, Behavior]] = None,
                 drop_prob: float = 0.0):
        self.behaviors = {} if behaviors is None else behaviors
        self.drop_prob = drop_prob

    def behavior_of(self, node_id: str) -> Behavior:
        return self.behaviors.get(node_id, Behavior.HONEST)

    def honest_ids(self, ids) -> List[str]:
        return [k for k in ids if self.behavior_of(k) is Behavior.HONEST]

    def deciding_ids(self, ids) -> List[str]:
        """The nodes whose commits decide a round: the honest ones, or
        every node when none is honest."""
        return self.honest_ids(ids) or list(ids)


class ConsensusNode:
    """Protocol-visible state of one aggregator."""

    __slots__ = ("chain", "pool")

    def __init__(self, chain: Chain):
        self.chain = chain
        self.pool: Dict[str, Contract] = {}


def init_credits(node_ids) -> CreditTable:
    """Everyone starts at the neutral midpoint."""
    return {k: 0.5 for k in node_ids}


# ============================================================
# election and quorum arithmetic
# ============================================================


def elect_leader(credits: CreditTable, total: float, seed: int) -> str:
    """Draw a leader with probability proportional to credit.

    total is sum(credits.values()), summed once per round by the caller.
    """
    if total <= 0.0:
        raise AllCreditsZero("cannot elect a leader from zero total credit")
    pick = random.Random(seed).random() * total
    acc = 0.0
    ids = sorted(credits)
    for k in ids:
        acc += credits[k]
        if pick < acc:
            return k
    return ids[-1]  # guard against accumulated rounding


def max_faulty(n_nodes: int) -> int:
    """Byzantine nodes a group of n_nodes tolerates: f = floor((n-1)/3)."""
    return (n_nodes - 1) // 3


def quorum_weight(n_nodes: int) -> float:
    """Credit fraction a vote set must reach, from the f < n/3 bound."""
    if n_nodes < 4:
        raise TooFewNodes(f"{n_nodes} nodes cannot tolerate any fault")
    return (2 * max_faulty(n_nodes) + 1) / n_nodes


def check_quorum(senders: Set[str], credits: CreditTable, total: float,
                 n_nodes: int) -> bool:
    """True when the senders' credit share of total clears the quorum weight.

    The senders' credit is summed in the table's order, so the share
    does not depend on how the sender set happens to iterate.
    """
    if total <= 0.0:
        return False
    weight = sum(c for k, c in credits.items() if k in senders)
    return weight / total >= quorum_weight(n_nodes)


def min_quorum_cardinality(credits: CreditTable, total: float,
                           n_nodes: int) -> int:
    """Fewest senders that could clear the quorum, best case by credit."""
    if total <= 0.0:
        return 0
    need = quorum_weight(n_nodes)
    acc = 0.0
    for count, c in enumerate(sorted(credits.values(), reverse=True), start=1):
        acc += c
        if acc / total >= need:
            return count
    return len(credits)


# ============================================================
# one round
# ============================================================


RoundOutcome = NamedTuple("RoundOutcome", [
    ("leader_id", str), ("committed", bool), ("abort_reason", Optional[str]),
    ("block", Optional[Block]), ("matched", Dict[str, bool]), ("prepare_needed", int)])


def run_round(nodes: Dict[str, ConsensusNode], credits: CreditTable,
              profile: FaultProfile, net, round_no: int,
              seed: int) -> RoundOutcome:
    """Execute one proposal/prepare/commit exchange over the given fabric.

    The fabric only needs send(src, dst) and broadcast(src), which say
    whether a copy landed and which nodes a copy reached.  Each vote
    joins its receivers' sets as it lands; those sets are read only once
    the phase's votes are all out.  Commit appends to each convinced
    node's own chain when the block extends its tip; a node that lags
    abstains.  The outcome's committed flag reports whether any deciding
    node (FaultProfile.deciding_ids) committed.
    """
    ids = sorted(nodes)
    n = len(ids)
    total = sum(credits.values())
    leader_id = elect_leader(credits, total, seed)
    # Only an equivocating voter draws from the round's stream, so it is
    # seeded on the first such draw.
    rng: Optional[random.Random] = None

    beh_leader = profile.behavior_of(leader_id)
    proposal: Optional[Block] = None
    if beh_leader in (Behavior.HONEST, Behavior.EQUIVOCATOR):
        leader = nodes[leader_id]
        txs = [leader.pool[k] for k in sorted(leader.pool)]
        proposal = make_block(leader_id, leader.chain, round_no, txs)
    elif beh_leader is Behavior.INVALID_BLOCK_LEADER:
        # Properly signed block carrying a contract nobody pooled.
        forged = Contract(contract_id=f"forged-{round_no}", buyer=leader_id,
                          seller=leader_id, kind=EnergyKind.ELECTRICITY,
                          price=1.0, amount=1.0, trans_time=0, stime=0)
        proposal = make_block(leader_id, nodes[leader_id].chain, round_no, [forged])
    # SILENT_LEADER and DISSENTER leaders propose nothing.

    voted_full: Dict[str, bool] = {k: False for k in ids}
    committed_nodes: Set[str] = set()
    prepare_needed = min_quorum_cardinality(credits, total, n)

    if proposal is not None:
        saw = set(net.broadcast(leader_id))
        saw.add(leader_id)

        # Prepare phase.  A node's own vote counts toward its quorum.
        prepares: Dict[str, Set[str]] = {k: set() for k in ids}
        for k in ids:
            if k not in saw:
                continue
            beh = profile.behavior_of(k)
            if beh is Behavior.DISSENTER:
                continue
            ok, _reason = validate_block(proposal, nodes[k].pool, nodes[k].chain)
            if not ok:
                continue
            if beh is Behavior.EQUIVOCATOR:
                if rng is None:
                    rng = random.Random(f"round:{seed}")
                targets = set(rng.sample(ids, rng.randint(0, n)))
                for dst in sorted(targets - {k}):
                    if net.send(k, dst):
                        prepares[dst].add(k)
                if k in targets:
                    prepares[k].add(k)
                voted_full[k] = targets == set(ids)
            else:
                for dst in net.broadcast(k):
                    prepares[dst].add(k)
                prepares[k].add(k)
                voted_full[k] = True

        # Commit phase.
        commits: Dict[str, Set[str]] = {k: set() for k in ids}
        for k in ids:
            if profile.behavior_of(k) is Behavior.DISSENTER:
                continue
            if check_quorum(prepares[k], credits, total, n):
                for dst in net.broadcast(k):
                    commits[dst].add(k)
                commits[k].add(k)

        # A node that missed an earlier commit is not on the block's
        # parent; it abstains rather than append off its tip.
        tx_ids = [c.contract_id for c in proposal.txs]
        for k in ids:
            node = nodes[k]
            if (check_quorum(commits[k], credits, total, n)
                    and node.chain.extends(proposal)):
                committed_nodes.add(k)
                node.chain.append(proposal)
                pop = node.pool.pop
                for cid in tx_ids:
                    pop(cid, None)

    deciding = profile.deciding_ids(ids)
    committed = any(k in committed_nodes for k in deciding)

    abort_reason: Optional[str] = None
    if not committed:
        if proposal is None:
            abort_reason = "LeaderSilent"
        else:
            ref = deciding[0]
            ok, _reason = validate_block(proposal, nodes[ref].pool, nodes[ref].chain)
            if not ok:
                abort_reason = "LeaderInvalidBlock"
            elif not any(check_quorum(prepares[k], credits, total, n)
                         for k in deciding):
                abort_reason = "PrepareQuorumFailed"
            else:
                abort_reason = "CommitQuorumFailed"

    # A voter matched the outcome when its full, consistent endorsement
    # agrees with the decision; abstention endorses an abort.
    matched = {k: voted_full[k] == committed for k in ids if k != leader_id}

    return RoundOutcome(
        leader_id=leader_id,
        committed=committed,
        abort_reason=abort_reason,
        block=proposal if committed else None,
        matched=matched,
        prepare_needed=prepare_needed,
    )


def update_credits(credits: CreditTable, outcome: RoundOutcome,
                   delta1: float = DELTA_LEADER,
                   delta2: float = DELTA_VOTER) -> CreditTable:
    """Post-round credit adjustment, clamped to [0, 1]."""
    out = dict(credits)
    lead = outcome.leader_id
    out[lead] = _clamp01(out[lead] + (delta1 if outcome.committed else -delta1))
    for k, ok in outcome.matched.items():
        out[k] = _clamp01(out[k] + (delta2 if ok else -delta2))
    return out


def _clamp01(v: float) -> float:
    return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v
