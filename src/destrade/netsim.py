"""Deterministic message fabric and run drivers.

The fabric carries no payloads and knows no node set: its one call,
deliver(src, targets), sends one fan-out and returns the targets its
copies reached, and links drop each copy independently.  A fabric that
cannot drop lands a whole fan-out at once; a lossy one draws once per
copy.  The round names every receiver, and receivers only collect sets,
so the order in which copies land carries no meaning.  One round
driver owns the seed streams, so a seeded run is byte-for-byte
reproducible, and keeps the run record both subcommands read.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .consensus import (DELTA_LEADER, DELTA_VOTER, ConsensusError,
                        ConsensusNode, FaultProfile, RoundOutcome,
                        init_credits, max_faulty, run_round, update_credits)
from .equilibrium import NeTrace, find_ne
from .follower import best_response
from .ledger import Chain, EnergyKind, Ledger, Role, make_genesis, verify_chain
from .scenario import (Scenario, build_city, build_credit_steps, build_faults,
                       build_ne_config, build_run)

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
    """Lossy links, counting the copies sent and dropped."""

    def __init__(self, drop_prob: float = 0.0, rng: Optional[random.Random] = None):
        self.drop_prob = drop_prob
        self.rng = rng if rng is not None else random.Random(0)
        self.sent = 0
        self.dropped = 0

    def deliver(self, src: str, targets: List[str]) -> List[str]:
        """Send one copy from src to each target, in order; the targets
        the copies reached.  src's own copy lands without a send.

        Without loss every copy lands, so targets comes back as given;
        otherwise each other copy takes one draw from rng, in target order.
        """
        n = len(targets)
        self.sent += n - (src in targets)
        p = self.drop_prob
        if not p > 0.0:
            return targets
        rand = self.rng.random
        landed = [dst for dst in targets if dst == src or rand() >= p]
        self.dropped += n - len(landed)
        return landed


def make_nodes(node_ids: Iterable[str]) -> Dict[str, ConsensusNode]:
    """Fresh nodes sharing one genesis block and empty pools."""
    genesis = make_genesis()
    return {k: ConsensusNode(Chain(genesis)) for k in node_ids}


# ============================================================
# run drivers
# ============================================================


RoundLogRow = NamedTuple("RoundLogRow", [
    ("round_no", int), ("leader_id", str), ("decision", str), ("abort_reason", str),
    ("committed_height", int), ("credit_honest", int), ("credit_byz", int),
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
                 seed: int, delta1: int, delta2: int):
        self.nodes = nodes
        self.ids = sorted(nodes)
        self.honest = set(profile.honest_ids(self.ids))
        self.deciding = profile.deciding_ids(self.ids)
        self.profile = profile
        self.delta1, self.delta2 = delta1, delta2
        self.credits = init_credits(nodes)
        self.net = PhaseNet(profile.drop_prob, random.Random(f"net:{seed}"))
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
                seen.setdefault(b.height, set()).add(b.block_hash)
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
            credit_honest=sum(c for k, c in credits.items() if k in honest),
            credit_byz=sum(c for k, c in credits.items() if k not in honest),
            prepare_needed=outcome.prepare_needed,
        ))
        return outcome


def run_rounds(n_rounds: int, nodes: Dict[str, ConsensusNode],
               profile: FaultProfile, seed: int,
               delta1: int = DELTA_LEADER,
               delta2: int = DELTA_VOTER) -> RoundDriver:
    """Drive n_rounds rounds; the returned driver holds the run record."""
    driver = RoundDriver(nodes, profile, seed, delta1, delta2)
    for _ in range(n_rounds):
        driver.step()
    return driver


class PipelineResult(NamedTuple("PipelineResult", [
        ("city_names", List[str]),
        ("trace", NeTrace),  # every city is a clone, so one price walk serves all
        ("ledger", Ledger),
        ("chain", Chain),  # the first honest aggregator's chain; exported and audited
        ("driver", RoundDriver),  # the aggregator group's run record
        ("unexecuted", List[str]),
        ("refusals", List[Tuple[int, str, float]]),  # (day, buyer, payment)
        ("drift", float),
        ("chain_ok", bool)])):
    """Price walk, settled ledger, reference chain and audit verdicts of
    one full run; the ledger settled what the reference chain took."""

    __slots__ = ()

    @property
    def chains_equal(self) -> bool:
        """Every honest aggregator holds the exported chain."""
        ref = [b.block_hash for b in self.chain.blocks]
        nodes = self.driver.nodes
        return all([b.block_hash for b in nodes[k].chain.blocks] == ref
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

    The scenario's city is cloned [run] cities times, so one price walk
    serves them all and each community is solved once.  Each day signs
    every offer in contract-id order, debiting its aggregator, or
    refuses it when the aggregator holds less than its payment and
    records (day, buyer, payment) on refusals.  Rounds run until the
    honest pools drain; then the contracts in the blocks the reference
    chain (the first honest aggregator's) took that day settle, each
    crediting its DES.  All aggregators form one consensus group and
    take the [faults] roles in id order, at most the f = floor((n-1)/3)
    of n that the group tolerates.  Of [consensus] only the credit steps
    apply, since the group is the aggregators.  Raises ConsensusError
    when a day's contracts do not all commit within ROUNDS_PER_DAY_CAP
    rounds.
    """
    city = build_city(sc)
    cfg = build_ne_config(sc)
    delta1, delta2 = build_credit_steps(sc)
    run = build_run(sc)
    names = [f"c{i}" for i in range(run.cities)]
    agg_ids = [f"{cname}.{side}" for cname in names for side in ("ea", "ha")]
    profile = build_faults(sc, agg_ids, max_faulty(len(agg_ids)))

    # Stage 1: the price equilibrium, and the accounts and daily offers of
    # each city, in contract id order, each offer checked once for all days.
    p, trace = find_ne(city, cfg)
    responses = [best_response(city.chp, com, p) for com in city.communities]
    x, y = city.chp.elec_capacity, city.chp.heat_capacity
    ledger = Ledger()
    offers = []
    for cname in names:
        ea, ha = f"{cname}.ea", f"{cname}.ha"
        for aid in (ea, ha):
            ledger.register(aid, Role.AGGREGATOR, cname)
            ledger.deposit(aid, run.funding)
        for j, sol in enumerate(responses):
            did = f"{cname}.des{j}"
            ledger.register(did, Role.DES, cname)
            offers += [(ea, did, EnergyKind.ELECTRICITY, p.p_e, (1.0 - sol.alpha) * x),
                       (ha, did, EnergyKind.HEAT, p.p_h, (1.0 - sol.beta) * y)]
    offers = [ledger.check_offer(*row) for row in offers
              if row[4] > MIN_CONTRACT_JOULES]

    # Stage 2: consensus group of all aggregators settling daily contracts.
    nodes = make_nodes(agg_ids)
    driver = RoundDriver(nodes, profile, seed, delta1, delta2)
    ref = nodes[min(driver.honest)].chain

    refusals: List[Tuple[int, str, float]] = []
    for day in range(run.days):
        signed, refused = ledger.sign_offers(offers, day, day)
        refusals += [(day, offer[3], offer[1]) for offer in refused]
        for node in nodes.values():
            node.pool.update(signed)

        taken = len(ref.blocks)
        rounds = 0
        while any(nodes[k].pool for k in driver.honest):
            if rounds == ROUNDS_PER_DAY_CAP:
                raise ConsensusError(f"day {day}: contract pool not drained "
                                     f"within {ROUNDS_PER_DAY_CAP} rounds")
            rounds += 1
            driver.step()
        ledger.execute_contracts(sorted([cid for b in ref.blocks[taken:]
                                         for cid in b.tx_ids]))

    # Stage 3: audits, on the reference chain.
    return PipelineResult(
        city_names=names,
        trace=trace,
        ledger=ledger,
        chain=ref,
        driver=driver,
        unexecuted=[cid for cid in ledger.contracts if cid not in ledger.executed],
        refusals=refusals,
        drift=ledger.conservation_drift(),
        chain_ok=verify_chain(ref),
    )
