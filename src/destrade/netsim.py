"""Deterministic message fabric and run drivers.

Each phase's messages sit in one outbox and all land when the phase
closes; links drop each copy independently.  Receivers only collect
sets, so delivery order carries no meaning.  One round driver owns the
seed streams, so a seeded run is byte-for-byte reproducible.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .consensus import (ConsensusError, ConsensusNode, CreditTable,
                        FaultProfile, RoundOutcome, init_credits, run_round,
                        update_credits)
from .equilibrium import SeOutcome, stackelberg_outcome
from .ledger import (Chain, ContractState, EnergyKind, Ledger, Role,
                     make_genesis, verify_chain)
from .scenario import (Scenario, build_city, build_consensus, build_ne_config,
                       build_run)

# Contracts below this many joules are noise, not trades.
MIN_CONTRACT_JOULES = 1e-9

# Consensus rounds a trading day may take to drain the contract pool.
ROUNDS_PER_DAY_CAP = 50

# Largest balance drift the conservation audit forgives, coin.
DRIFT_TOLERANCE = 1e-6


class PhaseNet:
    """Synchronous-phase outbox for one node set."""

    def __init__(self, node_ids: Iterable[str], drop_prob: float = 0.0,
                 rng: Optional[random.Random] = None):
        self.ids = sorted(node_ids)
        self.drop_prob = drop_prob
        self.rng = rng if rng is not None else random.Random(0)
        self.outbox: List[Tuple[str, str, object]] = []
        self.sent = 0
        self.dropped = 0

    def send(self, src: str, dst: str, msg) -> None:
        self.sent += 1
        if self.drop_prob > 0.0 and self.rng.random() < self.drop_prob:
            self.dropped += 1
            return
        self.outbox.append((dst, src, msg))

    def broadcast(self, src: str, msg) -> None:
        for dst in self.ids:
            if dst != src:
                self.send(src, dst, msg)

    def deliver_phase(self) -> List[Tuple[str, str, object]]:
        """Close the phase: every (dst, src, msg) not dropped lands."""
        landed, self.outbox = self.outbox, []
        return landed


def make_nodes(node_ids: Iterable[str]) -> Dict[str, ConsensusNode]:
    """Fresh nodes sharing one genesis block and empty pools."""
    genesis = make_genesis()
    return {k: ConsensusNode(node_id=k, chain=Chain(genesis))
            for k in sorted(node_ids)}


# ============================================================
# run drivers
# ============================================================


class RoundDriver:
    """Steps consensus rounds over one node group.

    Owns the seed streams (leader seeds from Random(seed), link drops
    from Random(f"net:{seed}")), the fabric, the credits and the round
    counter.
    """

    def __init__(self, nodes: Dict[str, ConsensusNode], profile: FaultProfile,
                 seed: int, delta1: float, delta2: float,
                 credits: Optional[CreditTable] = None):
        ids = sorted(nodes)
        self.nodes = nodes
        self.profile = profile
        self.delta1, self.delta2 = delta1, delta2
        self.credits = dict(credits) if credits is not None else init_credits(ids)
        self.net = PhaseNet(ids, drop_prob=profile.drop_prob,
                            rng=random.Random(f"net:{seed}"))
        self.round_no = 0
        self._seeds = random.Random(seed)

    def step(self) -> RoundOutcome:
        """Run the next round and apply its credit adjustment."""
        outcome = run_round(self.nodes, self.credits, self.profile, self.net,
                            self.round_no, self._seeds.getrandbits(63))
        self.credits = update_credits(self.credits, outcome,
                                      self.delta1, self.delta2)
        self.round_no += 1
        return outcome


@dataclass
class RoundLogRow:
    round_no: int
    leader_id: str
    decision: str
    abort_reason: str
    committed_height: int
    credit_honest: float
    credit_byz: float
    prepare_needed: int


@dataclass
class RunResult:
    outcomes: List[RoundOutcome]
    rows: List[RoundLogRow]
    credit_history: List[CreditTable]
    final_credits: CreditTable
    commit_count: int
    abort_reasons: Dict[str, int]
    divergence_count: int
    sent: int = 0
    dropped: int = 0

    @property
    def n_rounds(self) -> int:
        return len(self.outcomes)


def run_rounds(n_rounds: int, nodes: Dict[str, ConsensusNode],
               profile: FaultProfile, seed: int,
               delta1: float = 0.05, delta2: float = 0.02,
               credits: Optional[CreditTable] = None) -> RunResult:
    """Drive repeated rounds, tracking credits and honest-chain safety.

    Divergence counts heights at which two honest nodes ever committed
    different blocks; any nonzero value is a safety violation.
    """
    ids = sorted(nodes)
    driver = RoundDriver(nodes, profile, seed, delta1, delta2, credits)
    honest = set(profile.honest_ids(ids))

    seen_at_height: Dict[int, set] = {}
    outcomes: List[RoundOutcome] = []
    rows: List[RoundLogRow] = []
    history: List[CreditTable] = []
    commit_count = 0
    abort_reasons: Dict[str, int] = {}
    divergence = 0

    for r in range(n_rounds):
        outcome = driver.step()
        credits = driver.credits
        outcomes.append(outcome)
        history.append(dict(credits))

        if outcome.committed:
            commit_count += 1
        else:
            key = outcome.abort_reason or "Unknown"
            abort_reasons[key] = abort_reasons.get(key, 0) + 1

        if outcome.block is not None:
            h = outcome.block.height
            hashes = seen_at_height.setdefault(h, set())
            for k in outcome.committed_nodes & honest:
                hashes.add(nodes[k].chain.blocks[h].block_hash()
                           if nodes[k].chain.height >= h else None)
            hashes.discard(None)
            if len(hashes) > 1:
                divergence += 1

        rows.append(RoundLogRow(
            round_no=r,
            leader_id=outcome.leader_id,
            decision="committed" if outcome.committed else "aborted",
            abort_reason=outcome.abort_reason or "",
            committed_height=max((nodes[k].chain.height for k in honest),
                                 default=0),
            credit_honest=sum(credits[k] for k in ids if k in honest),
            credit_byz=sum(credits[k] for k in ids if k not in honest),
            prepare_needed=outcome.prepare_needed,
        ))

    return RunResult(
        outcomes=outcomes,
        rows=rows,
        credit_history=history,
        final_credits=driver.credits,
        commit_count=commit_count,
        abort_reasons=abort_reasons,
        divergence_count=divergence,
        sent=driver.net.sent,
        dropped=driver.net.dropped,
    )


def write_round_log(rows: List[RoundLogRow], path: str, seed: int) -> None:
    """CSV round log; the first line records the run seed."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed={seed}\n")
        w = csv.writer(fh)
        w.writerow(["round", "leader", "decision", "abort_reason",
                    "committed_height", "credit_honest", "credit_byz",
                    "prepare_msgs_needed"])
        for row in rows:
            w.writerow([row.round_no, row.leader_id, row.decision,
                        row.abort_reason, row.committed_height,
                        f"{row.credit_honest:.6f}", f"{row.credit_byz:.6f}",
                        row.prepare_needed])


@dataclass
class PipelineResult:
    """Settled ledger, reference chain and audit verdicts of one full run."""

    city_names: List[str]
    outcome: SeOutcome  # every city is a clone, so one equilibrium serves all
    ledger: Ledger
    chain: Chain  # the first aggregator's chain; the one exported and audited
    credits: CreditTable
    unexecuted: List[str]
    drift: float
    chain_ok: bool
    chains_equal: bool

    @property
    def violations(self) -> List[str]:
        """The audits this run failed; empty when it is safe."""
        failed = []
        if self.drift > DRIFT_TOLERANCE:
            failed.append("balance drift")
        if not self.chain_ok:
            failed.append("chain audit")
        if not self.chains_equal:
            failed.append("divergent chains")
        if self.unexecuted:
            failed.append(f"{len(self.unexecuted)} unexecuted contracts")
        return failed


def run_pipeline(sc: Scenario, seed: int) -> PipelineResult:
    """Equilibrium, daily contracts, consensus commits and settlement.

    The scenario's city is cloned [run] cities times.  All aggregators
    form one consensus group and take the [faults] roles in id order.
    Raises ConsensusError when a day's contracts do not all commit
    within ROUNDS_PER_DAY_CAP rounds.
    """
    city = build_city(sc)
    cfg = build_ne_config(sc)
    setup = build_consensus(sc)
    run = build_run(sc)

    names = [f"c{i}" for i in range(run.cities)]
    ledger = Ledger()
    agg_ids: List[str] = []
    for cname in names:
        for side in ("ea", "ha"):
            aid = f"{cname}.{side}"
            ledger.register(aid, Role.AGGREGATOR, cname)
            ledger.deposit(aid, run.funding)
            agg_ids.append(aid)
        for j in range(len(city.communities)):
            ledger.register(f"{cname}.des{j}", Role.DES, cname)

    # Stage 1: the price equilibrium and what each community offers daily.
    outcome, _trace = stackelberg_outcome(city, cfg)
    p = outcome.prices
    x, y = city.chp.elec_capacity, city.chp.heat_capacity
    offers = [((EnergyKind.ELECTRICITY, "ea", p.p_e, (1.0 - sol.dispatch.alpha) * x),
               (EnergyKind.HEAT, "ha", p.p_h, (1.0 - sol.dispatch.beta) * y))
              for sol in outcome.responses]

    # Stage 2: consensus group of all aggregators settling daily contracts.
    profile = setup.profile
    if profile.behaviors:
        listed = [profile.behaviors[k] for k in sorted(profile.behaviors)]
        profile = FaultProfile(behaviors=dict(zip(agg_ids, listed)),
                               drop_prob=profile.drop_prob)
    nodes = make_nodes(agg_ids)
    honest = profile.honest_ids(sorted(nodes))
    # Credits in agg_ids order: the table's order is the float summation
    # order of every election and quorum check.
    driver = RoundDriver(nodes, profile, seed, setup.delta1, setup.delta2,
                         credits=init_credits(agg_ids))

    for day in range(run.days):
        day_ids: List[str] = []
        for cname in names:
            for j, community_offers in enumerate(offers):
                did = f"{cname}.des{j}"
                for kind, side, price, amount in community_offers:
                    ledger.set_capacity(did, kind, amount)
                    if amount > MIN_CONTRACT_JOULES:
                        c = ledger.create_contract(f"{cname}.{side}", did, kind, price,
                                                   amount, trans_time=day, stime=day)
                        day_ids.append(c.contract_id)
        for node in nodes.values():
            for cid in day_ids:
                node.pool[cid] = ledger.contracts[cid]

        committed_today: List[str] = []
        rounds = 0
        while any(nodes[k].pool for k in honest):
            if rounds == ROUNDS_PER_DAY_CAP:
                raise ConsensusError(f"day {day}: contract pool not drained "
                                     f"within {ROUNDS_PER_DAY_CAP} rounds")
            rounds += 1
            block = driver.step().block
            if block is not None:
                committed_today.extend(c.contract_id for c in block.txs)
        ledger.mark_verified(committed_today)
        for cid in sorted(committed_today):
            ledger.execute_contract(cid, meter_ok=True, now=day)

    # Stage 3: audits.
    ref = nodes[sorted(nodes)[0]].chain
    ref_hashes = [b.block_hash() for b in ref.blocks]
    return PipelineResult(
        city_names=names,
        outcome=outcome,
        ledger=ledger,
        chain=ref,
        credits=driver.credits,
        unexecuted=[cid for cid, state in ledger.states.items()
                    if state is not ContractState.EXECUTED],
        drift=ledger.conservation_drift(),
        chain_ok=verify_chain(ref),
        chains_equal=all([b.block_hash() for b in node.chain.blocks] == ref_hashes
                         for node in nodes.values()),
    )
