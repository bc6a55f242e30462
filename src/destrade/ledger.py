"""Contract ledger: accounts, energy contracts, and a hash-linked chain.

Payments settle between aggregator and DES accounts when a verified
contract's transfer time arrives and the meter confirms delivery.  A
payer already below zero gets the pending contract suspended instead;
it executes once the balance recovers.  Blocks carry full contract
bodies; the chain links sha256 block digests and a merkle root over the
contract digests.  Contracts and blocks are frozen, so each computes
its digests once and keeps them.  Signatures are simulated:
deterministic digests of a per-account secret, good enough to exercise
the protocol logic.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

HASH_ALGO = "sha256"
ZERO_HASH = "0" * 64


class LedgerError(Exception):
    """Base for contract and account rule violations."""


class UnknownAccount(LedgerError):
    pass


class InsufficientBalance(LedgerError):
    pass


class InsufficientCapacity(LedgerError):
    pass


class CrossCityPair(LedgerError):
    pass


class MeterRejected(LedgerError):
    pass


class NotYetDue(LedgerError):
    pass


class BadContractState(LedgerError):
    pass


class Role(Enum):
    DES = "des"
    AGGREGATOR = "aggregator"


class EnergyKind(Enum):
    ELECTRICITY = "elec"
    HEAT = "heat"


class ContractState(Enum):
    CREATED = "created"
    VERIFIED = "verified"
    EXECUTED = "executed"
    REJECTED = "rejected"
    SUSPENDED = "suspended"


# Legal state transitions; execution re-checks funding on its own.
_TRANSITIONS = {
    ContractState.CREATED: {ContractState.VERIFIED, ContractState.REJECTED},
    ContractState.VERIFIED: {ContractState.EXECUTED, ContractState.SUSPENDED},
    ContractState.SUSPENDED: {ContractState.EXECUTED},
    ContractState.EXECUTED: set(),
    ContractState.REJECTED: set(),
}


# ============================================================
# simulated crypto
# ============================================================


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


@cache
def sim_secret(account_id: str) -> str:
    """Deterministic stand-in for a private key; a pure function of the id."""
    return _sha("secret:" + account_id)


def sign(payload: str, secret: str) -> str:
    return _sha(secret + ":" + payload)


def verify_signature(payload: str, signature: str, account_id: str) -> bool:
    return sign(payload, sim_secret(account_id)) == signature


# ============================================================
# contracts
# ============================================================


@dataclass(frozen=True)
class Contract:
    """Immutable body of one energy sale; lifecycle state lives in the ledger."""

    contract_id: str
    buyer: str
    seller: str
    kind: EnergyKind
    price: float
    amount: float
    trans_time: int
    stime: int
    signatures: Tuple[str, str] = ("", "")

    @property
    def payment(self) -> float:
        return self.price * self.amount

    def body_digest(self) -> str:
        """Digest of everything but the signatures."""
        return self._body_digest

    @cached_property
    def _body_digest(self) -> str:
        return _sha(json.dumps([
            self.contract_id, self.buyer, self.seller, self.kind.value,
            repr(self.price), repr(self.amount), self.trans_time, self.stime,
        ]))


# ============================================================
# blocks and chain
# ============================================================


def merkle_root(digests: Sequence[str]) -> str:
    """Pairwise sha256 reduction; odd levels repeat the tail, empty is hashed."""
    if not digests:
        return _sha("empty")
    level = list(digests)
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [_sha(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: str
    merkle: str
    leader_id: str
    round_no: int
    txs: Tuple[Contract, ...] = ()
    note: str = ""
    signature: str = ""

    def header_digest(self) -> str:
        """Digest of the header; the leader signature covers this."""
        return self._header_digest

    def block_hash(self) -> str:
        return self._block_hash

    @cached_property
    def _header_digest(self) -> str:
        return _sha(json.dumps([
            self.height, self.prev_hash, self.merkle, self.leader_id,
            self.round_no, self.note,
        ]))

    @cached_property
    def _block_hash(self) -> str:
        return _sha(self._header_digest + ":" + self.signature)


def _signed_block(**header) -> Block:
    """One block, signed by its leader over the header digest it keeps.

    The signature lies outside the header digest, so setting it on the
    fresh block keeps that digest valid; the block hash is read only
    after the signature is in place.
    """
    blk = Block(**header)
    object.__setattr__(blk, "signature",
                       sign(blk.header_digest(), sim_secret(blk.leader_id)))
    return blk


def make_genesis() -> Block:
    """Height-0 block; its note pins the hash algorithm for the chain."""
    return _signed_block(height=0, prev_hash=ZERO_HASH, merkle=merkle_root([]),
                         leader_id="genesis", round_no=-1, note=HASH_ALGO)


def make_block(leader_id: str, chain: "Chain", round_no: int,
               txs: Sequence[Contract]) -> Block:
    txs = tuple(txs)
    return _signed_block(
        height=chain.height + 1,
        prev_hash=chain.tip.block_hash(),
        merkle=merkle_root([c.body_digest() for c in txs]),
        leader_id=leader_id,
        round_no=round_no,
        txs=txs,
    )


class Chain:
    """Append-only list of blocks starting at a shared genesis."""

    def __init__(self, genesis: Optional[Block] = None):
        self.blocks: List[Block] = [genesis if genesis is not None else make_genesis()]

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    @property
    def height(self) -> int:
        return self.tip.height

    def append(self, block: Block) -> None:
        if block.prev_hash != self.tip.block_hash() or block.height != self.height + 1:
            raise LedgerError("block does not extend the tip")
        self.blocks.append(block)

    def committed_ids(self) -> List[str]:
        return [c.contract_id for b in self.blocks for c in b.txs]


def validate_block(block: Block, pool: Dict[str, Contract],
                   chain: Chain) -> Tuple[bool, Optional[str]]:
    """Full check of a proposed block against local state.

    Returns (ok, reason); reason is one of BadPrevHash, BadMerkle,
    UnknownTx, BadLeaderSig.
    """
    if block.prev_hash != chain.tip.block_hash() or block.height != chain.height + 1:
        return False, "BadPrevHash"
    digests = [c.body_digest() for c in block.txs]
    if block.merkle != merkle_root(digests):
        return False, "BadMerkle"
    for c, digest in zip(block.txs, digests):
        pooled = pool.get(c.contract_id)
        if pooled is None or pooled.body_digest() != digest:
            return False, "UnknownTx"
    if not verify_signature(block.header_digest(), block.signature, block.leader_id):
        return False, "BadLeaderSig"
    return True, None


def export_chain(chain: Chain) -> str:
    """Newline-delimited dump: height, prev, merkle, leader, round, count, ids."""
    lines = []
    for b in chain.blocks:
        ids = ";".join(c.contract_id for c in b.txs)
        lines.append(f"{b.height},{b.prev_hash},{b.merkle},{b.leader_id},"
                     f"{b.round_no},{len(b.txs)},{ids}")
    return "\n".join(lines) + "\n"


def verify_chain(chain: Chain) -> bool:
    """Audit hash links, merkle roots and leader signatures over the chain."""
    blocks = chain.blocks
    if not blocks or blocks[0].height != 0 or blocks[0].prev_hash != ZERO_HASH:
        return False
    for i, b in enumerate(blocks):
        if b.height != i:
            return False
        if i > 0 and b.prev_hash != blocks[i - 1].block_hash():
            return False
        if b.merkle != merkle_root([c.body_digest() for c in b.txs]):
            return False
        if i > 0 and not verify_signature(b.header_digest(), b.signature, b.leader_id):
            return False
    return True


# ============================================================
# accounts and settlement
# ============================================================


@dataclass
class Account:
    account_id: str
    role: Role
    city: str
    balance: float = 0.0


@dataclass
class Ledger:
    """Account book, contract store and settlement engine for one run."""

    accounts: Dict[str, Account] = field(default_factory=dict)
    contracts: Dict[str, Contract] = field(default_factory=dict)
    states: Dict[str, ContractState] = field(default_factory=dict)
    capacity: Dict[Tuple[str, str], float] = field(default_factory=dict)
    total_deposited: float = 0.0
    _next_id: int = 0

    def register(self, account_id: str, role: Role, city: str) -> Account:
        if account_id in self.accounts:
            raise LedgerError(f"duplicate account {account_id}")
        acct = Account(account_id=account_id, role=role, city=city)
        self.accounts[account_id] = acct
        return acct

    def deposit(self, account_id: str, amount: float) -> None:
        if amount < 0:
            raise LedgerError("deposit must be non-negative")
        self._account(account_id).balance += amount
        self.total_deposited += amount

    def set_capacity(self, des_id: str, kind: EnergyKind, amount: float) -> None:
        """Declare a DES's uncommitted exportable energy for the coming day."""
        if self._account(des_id).role is not Role.DES:
            raise LedgerError(f"{des_id} is not a DES")
        self.capacity[(des_id, kind.value)] = amount

    def remaining_capacity(self, des_id: str, kind: EnergyKind) -> float:
        return self.capacity.get((des_id, kind.value), 0.0)

    def create_contract(self, buyer: str, seller: str, kind: EnergyKind,
                        price: float, amount: float, trans_time: int,
                        stime: int = 0) -> Contract:
        """Sign a new contract; reserves seller capacity immediately."""
        b = self._account(buyer)
        s = self._account(seller)
        if b.role is not Role.AGGREGATOR or s.role is not Role.DES:
            raise LedgerError("contracts run aggregator -> DES")
        if b.city != s.city:
            raise CrossCityPair(f"{buyer} ({b.city}) cannot trade with "
                                f"{seller} ({s.city})")
        if price <= 0 or amount <= 0:
            raise LedgerError("price and amount must be positive")
        if b.balance < price * amount:
            raise InsufficientBalance(
                f"{buyer} holds {b.balance}, needs {price * amount}")
        remaining = self.remaining_capacity(seller, kind)
        if amount > remaining:
            raise InsufficientCapacity(
                f"{seller} has {remaining} {kind.value} left, asked {amount}")
        cid = f"ct-{self._next_id:06d}"
        self._next_id += 1
        contract = Contract(contract_id=cid, buyer=buyer, seller=seller, kind=kind,
                            price=price, amount=amount, trans_time=trans_time,
                            stime=stime)
        # The signatures lie outside the body digest, so setting them on
        # the fresh contract keeps the digest they sign.
        digest = contract.body_digest()
        object.__setattr__(contract, "signatures", (
            sign(digest, sim_secret(buyer)), sign(digest, sim_secret(seller))))
        self.capacity[(seller, kind.value)] = remaining - amount
        self.contracts[cid] = contract
        self.states[cid] = ContractState.CREATED
        return contract

    def state_of(self, contract_id: str) -> ContractState:
        return self.states[contract_id]

    def _set_state(self, contract_id: str, new: ContractState) -> None:
        cur = self.states[contract_id]
        if new not in _TRANSITIONS[cur]:
            raise BadContractState(f"{contract_id}: {cur.value} -> {new.value}")
        self.states[contract_id] = new

    def mark_verified(self, contract_ids: Iterable[str]) -> None:
        """Flip freshly committed contracts to Verified."""
        for cid in contract_ids:
            self._set_state(cid, ContractState.VERIFIED)

    def mark_rejected(self, contract_id: str) -> None:
        self._set_state(contract_id, ContractState.REJECTED)

    def execute_contract(self, contract_id: str, meter_ok: bool,
                         now: int) -> None:
        """Settle one verified (or suspended) contract at time now.

        A payer balance below zero suspends instead of paying; the
        triggering contract itself still settles even if it drives the
        balance negative.
        """
        contract = self.contracts[contract_id]
        state = self.states[contract_id]
        if state not in (ContractState.VERIFIED, ContractState.SUSPENDED):
            raise BadContractState(f"{contract_id} is {state.value}, not executable")
        if now < contract.trans_time:
            raise NotYetDue(f"{contract_id} due at {contract.trans_time}, now {now}")
        if not meter_ok:
            raise MeterRejected(f"meter refused delivery for {contract_id}")
        payer = self._account(contract.buyer)
        if payer.balance < 0:
            if state is not ContractState.SUSPENDED:
                self._set_state(contract_id, ContractState.SUSPENDED)
            return
        payee = self._account(contract.seller)
        payer.balance -= contract.payment
        payee.balance += contract.payment
        self._set_state(contract_id, ContractState.EXECUTED)

    def balance_sum(self) -> float:
        return sum(a.balance for a in self.accounts.values())

    def conservation_drift(self) -> float:
        """Absolute gap between held balances and external deposits."""
        return abs(self.balance_sum() - self.total_deposited)

    def _account(self, account_id: str) -> Account:
        try:
            return self.accounts[account_id]
        except KeyError:
            raise UnknownAccount(account_id) from None
