"""Deterministic message fabric and run drivers.

The fabric carries no payloads: it only says whether each copy landed,
and links drop each copy independently.  Receivers only collect sets,
so the order in which copies land carries no meaning.  One round driver
owns the seed streams, so a seeded run is byte-for-byte reproducible,
and keeps the run record both subcommands read.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .consensus import (DELTA_LEADER, DELTA_VOTER, ConsensusError,
                        ConsensusNode, FaultProfile, RoundOutcome,
                        init_credits, max_faulty, run_round, update_credits)
from .equilibrium import SeOutcome, stackelberg_outcome
from .ledger import (Chain, Contract, ContractState, EnergyKind, InsufficientBalance,
                     Ledger, Role, make_genesis, verify_chain)
from .scenario import (Scenario, ScenarioError, build_city, build_credit_steps,
                       build_faults, build_ne_config, build_run)

# Contracts below this many joules are noise, not trades.
MIN_CONTRACT_JOULES = 1e-9

# Consensus rounds a trading day may take to drain the contract pool.
ROUNDS_PER_DAY_CAP = 50

# Largest balance drift the conservation audit forgives: this many coin,
# or this share of the money deposited, whichever is larger, since the
# rounding in the balance sums grows with the balances.
DRIFT_TOLERANCE = 1e-6
DRIFT_SHARE = 1e-12


class PhaseNet:
    """Lossy links among one node set, counting the copies sent and dropped."""

    def __init__(self, node_ids: Iterable[str], drop_prob: float = 0.0,
                 rng: Optional[random.Random] = None):
        self.ids = sorted(node_ids)
        self.drop_prob = drop_prob
        self.rng = rng if rng is not None else random.Random(0)
        self.sent = 0
        self.dropped = 0

    def send(self, src: str, dst: str) -> bool:
        """Send one copy from src to dst; True when it lands."""
        self.sent += 1
        if self.drop_prob > 0.0 and self.rng.random() < self.drop_prob:
            self.dropped += 1
            return False
        return True

    def broadcast(self, src: str) -> List[str]:
        """Send one copy to every other node, in id order; the ids it reached."""
        return [dst for dst in self.ids if dst != src and self.send(src, dst)]


def make_nodes(node_ids: Iterable[str]) -> Dict[str, ConsensusNode]:
    """Fresh nodes sharing one genesis block and empty pools.

    The nodes keep the given id order, and a driver's credit table
    follows it: that order is the float summation order of each round's
    credit total and of every quorum check.  An election walks the ids
    sorted, whatever the table order.
    """
    genesis = make_genesis()
    return {k: ConsensusNode(Chain(genesis)) for k in node_ids}


# ============================================================
# run drivers
# ============================================================


RoundLogRow = NamedTuple("RoundLogRow", [
    ("round_no", int), ("leader_id", str), ("decision", str), ("abort_reason", str),
    ("committed_height", int), ("credit_honest", float), ("credit_byz", float),
    ("prepare_needed", int)])


class RoundDriver:
    """Steps consensus rounds over one node group and keeps the run record.

    Owns the seed streams (leader seeds from Random(seed), link drops
    from Random(f"net:{seed}")), the fabric and the credits.  Each step
    replaces the credit table and appends a log row; the commit and
    abort tallies are read off the rows, and the fork count off the
    chains.
    """

    def __init__(self, nodes: Dict[str, ConsensusNode], profile: FaultProfile,
                 seed: int, delta1: float, delta2: float):
        self.nodes = nodes
        self.ids = sorted(nodes)
        self.honest = set(profile.honest_ids(self.ids))
        self.deciding = profile.deciding_ids(self.ids)
        self.profile = profile
        self.delta1, self.delta2 = delta1, delta2
        self.credits = init_credits(nodes)
        self.net = PhaseNet(self.ids, drop_prob=profile.drop_prob,
                            rng=random.Random(f"net:{seed}"))
        self._seeds = random.Random(seed)
        self.rows: List[RoundLogRow] = []

    @property
    def commit_count(self) -> int:
        return sum(r.decision == "committed" for r in self.rows)

    @property
    def abort_reasons(self) -> Dict[str, int]:
        """Aborted rounds per abort reason."""
        return Counter(r.abort_reason for r in self.rows if r.decision == "aborted")

    @property
    def divergence_count(self) -> int:
        """Distinct blocks beyond the first at each height, over the chains
        of the nodes whose commits decide a round.  Any fork is a safety
        violation.
        """
        seen: Dict[int, set] = {}
        for k in self.deciding:
            for b in self.nodes[k].chain.blocks:
                seen.setdefault(b.height, set()).add(b.block_hash())
        return sum(len(hashes) - 1 for hashes in seen.values())

    def step(self) -> RoundOutcome:
        """Run the next round, apply its credit adjustment and record it."""
        nodes, honest = self.nodes, self.honest
        outcome = run_round(nodes, self.credits, self.profile, self.net,
                            len(self.rows), self._seeds.getrandbits(63))
        credits = self.credits = update_credits(self.credits, outcome,
                                                self.delta1, self.delta2)
        self.rows.append(RoundLogRow(
            round_no=len(self.rows),
            leader_id=outcome.leader_id,
            decision="committed" if outcome.committed else "aborted",
            abort_reason=outcome.abort_reason or "",
            committed_height=max(nodes[k].chain.height for k in self.deciding),
            credit_honest=sum(credits[k] for k in self.ids if k in honest),
            credit_byz=sum(credits[k] for k in self.ids if k not in honest),
            prepare_needed=outcome.prepare_needed,
        ))
        return outcome


def run_rounds(n_rounds: int, nodes: Dict[str, ConsensusNode],
               profile: FaultProfile, seed: int,
               delta1: float = DELTA_LEADER,
               delta2: float = DELTA_VOTER) -> RoundDriver:
    """Drive n_rounds rounds; the returned driver holds the run record."""
    driver = RoundDriver(nodes, profile, seed, delta1, delta2)
    for _ in range(n_rounds):
        driver.step()
    return driver


class PipelineResult(NamedTuple("PipelineResult", [
        ("city_names", List[str]),
        ("outcome", SeOutcome),  # every city is a clone, so one equilibrium serves all
        ("ledger", Ledger),
        ("chain", Chain),  # the first honest aggregator's chain; exported and audited
        ("driver", RoundDriver),  # the aggregator group's run record
        ("unexecuted", List[str]),
        ("refusals", List[Tuple[int, str, float]]),  # (day, buyer, payment)
        ("drift", float),
        ("chain_ok", bool)])):
    """Settled ledger, reference chain and audit verdicts of one full run."""

    __slots__ = ()

    @property
    def chains_equal(self) -> bool:
        """Every honest aggregator holds the exported chain."""
        ref = [b.block_hash() for b in self.chain.blocks]
        nodes = self.driver.nodes
        return all([b.block_hash() for b in nodes[k].chain.blocks] == ref
                   for k in self.driver.honest)

    @property
    def violations(self) -> List[str]:
        """The audits this run failed; empty when it is safe."""
        failed = []
        # Written so that a NaN drift fails the audit too.
        if not self.drift <= max(DRIFT_TOLERANCE,
                                 DRIFT_SHARE * self.ledger.total_deposited):
            failed.append("balance drift")
        if not self.chain_ok:
            failed.append("chain audit")
        if not self.chains_equal:
            failed.append("divergent chains")
        if any(a.balance < 0.0 for a in self.ledger.accounts.values()):
            failed.append("negative balance")
        if self.unexecuted:
            failed.append(f"{len(self.unexecuted)} unexecuted contracts")
        return failed


def run_pipeline(sc: Scenario, seed: int) -> PipelineResult:
    """Equilibrium, daily contracts, consensus commits and settlement.

    The scenario's city is cloned [run] cities times.  Each day signs
    every offer in contract-id order, debiting its aggregator, or
    refuses it when the aggregator holds less than its payment and
    records (day, buyer, payment) on refusals.  Each committed contract
    credits its DES.  All aggregators form one consensus group and take
    the [faults] roles in id order; more roles than the group tolerates,
    f = floor((n-1)/3) of n, raise ScenarioError before any work.  Of
    [consensus] only the credit steps apply, since the group is the
    aggregators.  Raises ConsensusError when a day's contracts do not
    all commit within ROUNDS_PER_DAY_CAP rounds.
    """
    city = build_city(sc)
    cfg = build_ne_config(sc)
    delta1, delta2 = build_credit_steps(sc)
    run = build_run(sc)
    names = [f"c{i}" for i in range(run.cities)]
    agg_ids = [f"{cname}.{side}" for cname in names for side in ("ea", "ha")]
    profile = build_faults(sc, agg_ids)
    f = max_faulty(len(agg_ids))
    if len(profile.behaviors) > f:
        raise ScenarioError(f"{len(profile.behaviors)} byzantine aggregators, "
                            f"more than f = {f} of {len(agg_ids)}")

    ledger = Ledger()
    for cname in names:
        for side in ("ea", "ha"):
            aid = f"{cname}.{side}"
            ledger.register(aid, Role.AGGREGATOR, cname)
            ledger.deposit(aid, run.funding)
        for j in range(len(city.communities)):
            ledger.register(f"{cname}.des{j}", Role.DES, cname)

    # Stage 1: the price equilibrium and what each community offers daily,
    # in contract id order, each offer checked once for all the days.
    outcome, _trace = stackelberg_outcome(city, cfg)
    p = outcome.prices
    x, y = city.chp.elec_capacity, city.chp.heat_capacity
    offers = []
    for cname in names:
        for j, sol in enumerate(outcome.responses):
            did = f"{cname}.des{j}"
            offers.append((f"{cname}.ea", did, EnergyKind.ELECTRICITY, p.p_e,
                           (1.0 - sol.alpha) * x))
            offers.append((f"{cname}.ha", did, EnergyKind.HEAT, p.p_h,
                           (1.0 - sol.beta) * y))
    offers = [ledger.check_offer(*row) for row in offers
              if row[4] > MIN_CONTRACT_JOULES]

    # Stage 2: consensus group of all aggregators settling daily contracts.
    nodes = make_nodes(agg_ids)
    driver = RoundDriver(nodes, profile, seed, delta1, delta2)

    sign_offer = ledger.sign_offer
    refusals: List[Tuple[int, str, float]] = []
    for day in range(run.days):
        day_contracts: Dict[str, Contract] = {}
        for offer in offers:
            try:
                c = sign_offer(offer, day, day)
            except InsufficientBalance:
                refusals.append((day, offer[3], offer[1]))
            else:
                day_contracts[c.contract_id] = c
        for node in nodes.values():
            node.pool.update(day_contracts)

        committed_today: List[str] = []
        rounds = 0
        while any(nodes[k].pool for k in driver.honest):
            if rounds == ROUNDS_PER_DAY_CAP:
                raise ConsensusError(f"day {day}: contract pool not drained "
                                     f"within {ROUNDS_PER_DAY_CAP} rounds")
            rounds += 1
            block = driver.step().block
            if block is not None:
                committed_today.extend(c.contract_id for c in block.txs)
        for cid in sorted(committed_today):
            ledger.execute_contract(cid)

    # Stage 3: audits, on the first honest aggregator's chain.
    ref = nodes[min(driver.honest)].chain
    executed = ContractState.EXECUTED  # one Enum read, not one per contract
    return PipelineResult(
        city_names=names,
        outcome=outcome,
        ledger=ledger,
        chain=ref,
        driver=driver,
        unexecuted=[cid for cid, state in ledger.states.items()
                    if state is not executed],
        refusals=refusals,
        drift=ledger.conservation_drift(),
        chain_ok=verify_chain(ref),
    )
