"""Credit-weighted agreement over contract blocks.

One round: a leader drawn with probability proportional to credit
proposes a block, everyone validates and exchanges prepare votes, then
commit votes; a vote set clears when its senders hold at least
(2*floor((n-1)/3)+1)/n of the total credit.  Leaders gain or lose
delta1 by whether the round commits, voters gain or lose delta2 by
whether their vote matched the outcome (update_credits; a prepare sent
to only some of the nodes always loses), and credits stay clamped to
[0, 1].  Misbehaving nodes therefore lose both influence and election
odds over time.  Credits are whole micro-credits (CREDIT_UNIT is one
credit), so every credit sum and quorum verdict is exact in any order.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .ledger import Block, Chain, Contract, EnergyKind, make_block, validate_block

# One full credit, in the micro-credits a credit table holds, and the
# default credit adjustments per round: 0.05 and 0.02 credit.
CREDIT_UNIT = 1_000_000
DELTA_LEADER = 50_000
DELTA_VOTER = 20_000

# Credits are a plain id -> micro-credit mapping.
CreditTable = Dict[str, int]


class ConsensusError(Exception):
    pass


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
    """Protocol-visible state of one aggregator: its chain and its
    contract pool.  A round's vote tallies live only inside run_round
    (_tally) and end with it."""

    __slots__ = ("chain", "pool")

    def __init__(self, chain: Chain):
        self.chain = chain
        self.pool: Dict[str, Contract] = {}

    def accepts(self, block: Block) -> bool:
        """This node's verdict on a proposal: valid against its own pool and tip."""
        return validate_block(block, self.pool, self.chain)[0]

    def commit(self, block: Block) -> None:
        """Append block, which extends this node's tip, and drop its
        contracts from the pool: all at once when the pool holds exactly
        the block's ids."""
        self.chain.append(block)
        pool = self.pool
        if pool.keys() == block.id_set:
            pool.clear()
        else:
            pop = pool.pop
            for cid in block.tx_ids:
                pop(cid, None)


def init_credits(node_ids) -> CreditTable:
    """Everyone starts at the neutral midpoint."""
    return {k: CREDIT_UNIT // 2 for k in node_ids}


# ============================================================
# election and quorum arithmetic
# ============================================================


def elect_leader(credits: CreditTable, total: int, seed: int) -> str:
    """Draw a leader with probability proportional to credit.

    total is the table's credit sum, taken once per round by the caller.
    For an integer total below 2**53, random() * total < total, so the
    walk over the ids always returns.  When nobody holds credit, every
    id is drawn with equal odds, so an election never fails.
    """
    if total <= 0:
        return random.Random(seed).choice(sorted(credits))
    pick = random.Random(seed).random() * total
    acc = 0
    for k in sorted(credits):
        acc += credits[k]
        if pick < acc:
            return k


def max_faulty(n_nodes: int) -> int:
    """Byzantine nodes a group of n_nodes tolerates: f = floor((n-1)/3)."""
    return (n_nodes - 1) // 3


def quorum_weight(n_nodes: int) -> int:
    """2f+1: the n_nodes-ths of the total credit a vote set must hold."""
    if n_nodes < 4:
        raise TooFewNodes(f"{n_nodes} nodes cannot tolerate any fault")
    return 2 * max_faulty(n_nodes) + 1


def check_quorum(senders: Set[str], credits: CreditTable, total: int,
                 n_nodes: int) -> bool:
    """True when the senders hold quorum_weight(n_nodes)/n_nodes of total."""
    if total <= 0:
        return False
    weight = sum(map(credits.__getitem__, senders))
    return weight * n_nodes >= quorum_weight(n_nodes) * total


def min_quorum_cardinality(credits: CreditTable, total: int,
                           n_nodes: int) -> int:
    """Fewest senders that could clear the quorum, best case by credit."""
    if total <= 0:
        return 0
    need = quorum_weight(n_nodes) * total
    acc = 0
    for count, c in enumerate(sorted(credits.values(), reverse=True), start=1):
        acc += c
        if acc * n_nodes >= need:
            return count
    return len(credits)


# ============================================================
# one round
# ============================================================


RoundOutcome = NamedTuple("RoundOutcome", [
    ("leader_id", str), ("committed", bool), ("abort_reason", Optional[str]),
    ("block", Optional[Block]), ("voted_full", Set[str]), ("voted_partial", Set[str]),
    ("prepare_needed", int)])


def _tally(ids: List[str], votes: List[Tuple[str, List[str]]], credits: CreditTable,
           total: int) -> Dict[str, bool]:
    """Each node's quorum verdict on one phase's votes.

    votes holds (sender, the ids its copies reached).  A vote that
    reached every node joins one frozenset all nodes share; any other
    vote is an extra at each node it reached, and a node with extras
    tallies the shared set united with them.  check_quorum runs once for
    the shared set and once for each node with extras.  The sender sets
    are dropped once judged.
    """
    n = len(ids)
    everywhere: List[str] = []
    extra: Dict[str, List[str]] = {}
    for k, landed in votes:
        if len(landed) == n:
            everywhere.append(k)
            continue
        if not extra:
            extra = {dst: [] for dst in ids}
            add = {dst: extra[dst].append for dst in ids}
        for dst in landed:
            add[dst](k)
    shared = frozenset(everywhere)
    verdict = check_quorum(shared, credits, total, n)
    if not extra:
        return dict.fromkeys(ids, verdict)
    return {k: check_quorum(shared.union(extra[k]), credits, total, n) if extra[k] else verdict
            for k in ids}


def propose(nodes: Dict[str, ConsensusNode], profile: FaultProfile, leader_id: str,
            round_no: int) -> Optional[Block]:
    """The leader's block on its tip: none if it is silent or dissents, one
    forged contract if it proposes invalid blocks, else its pool, sorted."""
    beh = profile.behavior_of(leader_id)
    if beh is Behavior.SILENT_LEADER or beh is Behavior.DISSENTER:
        return None
    leader = nodes[leader_id]
    txs = ([Contract(f"forged-{round_no}", leader_id, leader_id, EnergyKind.ELECTRICITY,
                     1.0, 1.0, 0, 0)]
           if beh is Behavior.INVALID_BLOCK_LEADER
           else [leader.pool[k] for k in sorted(leader.pool)])
    return make_block(leader_id, leader.chain, round_no, txs)


def decide(nodes: Dict[str, ConsensusNode], profile: FaultProfile, ids: List[str],
           proposal: Optional[Block], prepared: Dict[str, bool]) -> Tuple[bool, Optional[str]]:
    """(committed, abort_reason): committed when a deciding node's tip is
    the proposal, else the first cause that holds: none was proposed, the
    first deciding node rejects it, none of them is prepared, the commits."""
    deciding = profile.deciding_ids(ids)
    committed = any(nodes[k].chain.tip is proposal for k in deciding)
    return committed, (
        None if committed
        else "LeaderSilent" if proposal is None
        else "LeaderInvalidBlock" if not nodes[deciding[0]].accepts(proposal)
        else "PrepareQuorumFailed" if not any(prepared[k] for k in deciding)
        else "CommitQuorumFailed")


def run_round(nodes: Dict[str, ConsensusNode], credits: CreditTable,
              profile: FaultProfile, net, round_no: int,
              seed: int) -> RoundOutcome:
    """Execute one proposal/prepare/commit exchange over the given fabric.

    The fabric only needs deliver(src, targets), which sends one copy to
    each target (src's own lands without a send) and returns the targets
    it reached.  The proposal and every vote go out through it, to every
    node, except an equivocator's prepare vote: a random subset.  A
    phase tallies its votes once they are all out (_tally): a vote that
    reached every node joins one set they share, and only the others
    are added per receiver, so a loss-free round costs per node, not
    per copy.  Prepare: a node the proposal reached votes when it
    accepts the block.  Commit: a node whose prepares clear the quorum
    votes.  Append: a node whose commits clear the quorum takes the
    block when it extends its tip; a node that lags abstains.  propose
    makes the block and decide the round's verdict.
    """
    ids = sorted(nodes)
    n = len(ids)
    total = sum(credits.values())
    leader_id = elect_leader(credits, total, seed)
    prepare_needed = min_quorum_cardinality(credits, total, n)
    # Only an equivocator draws from the round's stream: seeded on its first draw.
    rng: Optional[random.Random] = None
    voted_full: Set[str] = set()  # voters whose prepare went to every node
    voted_partial: Set[str] = set()  # voters whose prepare went to fewer nodes

    proposal = propose(nodes, profile, leader_id, round_no)
    prepared: Dict[str, bool] = {}
    if proposal is not None:
        # A node's own vote counts toward its quorum.
        votes = []
        for k in net.deliver(leader_id, ids):
            beh = profile.behavior_of(k)
            if beh is Behavior.DISSENTER or not nodes[k].accepts(proposal):
                continue
            targets = ids
            if beh is Behavior.EQUIVOCATOR:
                if rng is None:
                    rng = random.Random(f"round:{seed}")
                targets = sorted(rng.sample(ids, rng.randint(0, n)))
            votes.append((k, net.deliver(k, targets)))
            (voted_full if len(targets) == n else voted_partial).add(k)
        prepared = _tally(ids, votes, credits, total)
        votes = [(k, net.deliver(k, ids)) for k in ids
                 if prepared[k] and profile.behavior_of(k) is not Behavior.DISSENTER]
        commit_ready = _tally(ids, votes, credits, total)
        for k, node in nodes.items():
            if commit_ready[k] and node.chain.extends(proposal):
                node.commit(proposal)

    committed, abort_reason = decide(nodes, profile, ids, proposal, prepared)
    return RoundOutcome(leader_id=leader_id, committed=committed, abort_reason=abort_reason,
                        block=proposal if committed else None, voted_full=voted_full,
                        voted_partial=voted_partial, prepare_needed=prepare_needed)


def update_credits(credits: CreditTable, outcome: RoundOutcome,
                   delta1: int = DELTA_LEADER,
                   delta2: int = DELTA_VOTER) -> CreditTable:
    """Post-round credit adjustment, clamped to [0, CREDIT_UNIT]."""
    out = dict(credits)
    lead, committed = outcome.leader_id, outcome.committed
    full, partial = outcome.voted_full, outcome.voted_partial
    out[lead] = _clamp(out[lead] + (delta1 if committed else -delta1))
    # A voter matched the outcome when its full, consistent endorsement
    # agrees with the decision; abstention endorses an abort, and a
    # prepare sent to only some nodes matches nothing.
    for k in credits:
        if k != lead:
            ok = k not in partial and (k in full) == committed
            out[k] = _clamp(out[k] + (delta2 if ok else -delta2))
    return out


def _clamp(v: int) -> int:
    return 0 if v < 0 else CREDIT_UNIT if v > CREDIT_UNIT else v
