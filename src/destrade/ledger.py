"""Contract ledger: accounts, energy contracts, and a hash-linked chain.

A contract is created from a DES's offer and executed once consensus
commits it, when its id joins the ledger's set of settled ids: that set
is the whole lifecycle.  One funds rule covers settlement: signing a
contract takes its payment out of the aggregator's balance, and is
refused when that balance is short; executing it credits the DES.  An
offer's terms are checked and encoded once (check_offer); a trading
day's contracts are signed from them in one call (sign_offers), each
costing the balance check and debit, the next id, one tuple and the
body digest, and settle in one call (execute_contracts).  Blocks carry
full contract bodies; the chain links sha256 block digests and a merkle
root over the contract digests.  Contracts (tuples) and blocks are
read-only and compute each digest at construction, a block's as fields,
with its signature's verdict; the chain audit rebuilds every root and
checks every signature on its own.  Every digest is a call of _sha256,
hashlib's sha256 bound once; sign_offers and merkle_root call it
inline.  Block leaders sign with simulated keys: deterministic digests
of a per-account secret, good enough to exercise the protocol logic.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from enum import Enum
from operator import add, itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .market import _fill, _read_only

HASH_ALGO = "sha256"
ZERO_HASH = "0" * 64


class LedgerError(Exception):
    """Base for contract and account rule violations."""


class UnknownAccount(LedgerError):
    pass


class CrossCityPair(LedgerError):
    pass


class BadContractState(LedgerError):
    pass


class Role(Enum):
    DES = "des"
    AGGREGATOR = "aggregator"


class EnergyKind(Enum):
    ELECTRICITY = "elec"
    HEAT = "heat"


# ============================================================
# simulated crypto
# ============================================================


# hashlib loads OpenSSL, which a run that hashes nothing never needs, so
# this stub binds the name to hashlib's sha256 on first call (json too
# is imported where used).
def _sha256(data: bytes):
    global _sha256
    from hashlib import sha256 as _sha256
    return _sha256(data)


def _sha(data: str) -> str:
    return _sha256(data.encode()).hexdigest()


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


class Contract(tuple):
    """Immutable body of one energy sale; whether it settled, the ledger keeps.

    The tuple (contract_id, buyer, seller, kind, price, amount,
    trans_time, stime, body digest), built whole in one call: here, or
    by Ledger.sign_offers.  Both compute the digest, and copies and
    pickles come back through this constructor.  The per-contract paths
    index the tuple, since an index costs less than a property read.
    """

    __slots__ = ()

    def __new__(cls, contract_id: str, buyer: str, seller: str, kind: EnergyKind,
                price: float, amount: float, trans_time: int, stime: int):
        from json import dumps
        body = [contract_id, buyer, seller, kind._value_, repr(price), repr(amount),
                trans_time, stime]
        return tuple.__new__(cls, (contract_id, buyer, seller, kind, price, amount,
                                   trans_time, stime, _sha(dumps(body))))

    def __getnewargs__(self) -> tuple:
        return self[:8]

    (contract_id, buyer, seller, kind, price, amount, trans_time,
     stime) = (property(itemgetter(i)) for i in range(8))

    @property
    def payment(self) -> float:
        return self[4] * self[5]


def _terms_json(buyer: str, seller: str, kind: EnergyKind, price: float,
                amount: float) -> str:
    """The body's buyer, seller, kind, price and amount, as json writes
    them inside the body list."""
    from json import dumps
    return dumps([buyer, seller, kind._value_, repr(price), repr(amount)])[1:-1]


# ============================================================
# blocks and chain
# ============================================================


def merkle_root(digests: Sequence[str]) -> str:
    """Pairwise sha256 reduction; odd levels repeat the tail, empty is hashed."""
    if not digests:
        return _sha("empty")
    level = list(digests)
    while len(level) > 1:
        pairs = iter(level + level[-1:] if len(level) % 2 else level)
        level = [_sha256((a + b).encode()).hexdigest() for a, b in zip(pairs, pairs)]
    return level[0]


class Block:
    """One block: the header, the contracts it carries and the leader's
    signature.  Read-only and built whole: the constructor also fills
    what its validators read, tx_ids, id_set (their frozenset), own_root
    (the merkle root over the txs' digests) and has_duplicate (an id
    repeats among the txs), then header_digest (what the leader signs),
    sig_ok (the signature's verdict: True when the constructor signs,
    verify_signature's when a signature is given) and block_hash.
    Passing merkle or signature builds a tampered copy, whose digests
    follow the values given."""

    __slots__ = ("height", "prev_hash", "merkle", "leader_id", "round_no", "txs",
                 "note", "signature", "tx_ids", "id_set", "own_root", "has_duplicate",
                 "header_digest", "sig_ok", "block_hash")

    def __init__(self, height: int, prev_hash: str, leader_id: str, round_no: int,
                 txs: Tuple[Contract, ...] = (), note: str = "", *,
                 merkle: Optional[str] = None, signature: Optional[str] = None):
        from json import dumps
        tx_ids = tuple([c[0] for c in txs])
        id_set = frozenset(tx_ids)
        own_root = merkle_root([c[8] for c in txs])
        if merkle is None:
            merkle = own_root
        header = _sha(dumps([height, prev_hash, merkle, leader_id, round_no, note]))
        if signature is None:
            signature, sig_ok = sign(header, sim_secret(leader_id)), True
        else:
            sig_ok = verify_signature(header, signature, leader_id)
        _fill(self, (height, prev_hash, merkle, leader_id, round_no, txs, note,
                     signature, tx_ids, id_set, own_root, len(id_set) < len(txs),
                     header, sig_ok, _sha(header + ":" + signature)))

    __setattr__ = __delattr__ = _read_only


def make_genesis() -> Block:
    """Height-0 block; its note pins the hash algorithm for the chain."""
    return Block(height=0, prev_hash=ZERO_HASH, leader_id="genesis", round_no=-1,
                 note=HASH_ALGO)


def make_block(leader_id: str, chain: "Chain", round_no: int,
               txs: Sequence[Contract]) -> Block:
    """The leader's signed block over txs, on top of chain's tip."""
    return Block(height=chain.height + 1, prev_hash=chain.tip.block_hash,
                 leader_id=leader_id, round_no=round_no, txs=tuple(txs))


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

    def extends(self, block: Block) -> bool:
        """True when block is the next block on this chain's tip."""
        return block.prev_hash == self.tip.block_hash and block.height == self.height + 1

    def append(self, block: Block) -> None:
        if not self.extends(block):
            raise LedgerError("block does not extend the tip")
        self.blocks.append(block)


def validate_block(block: Block, pool: Dict[str, Contract],
                   chain: Chain) -> Tuple[bool, Optional[str]]:
    """Full check of a proposed block against local state.

    Returns (ok, reason); reason is the first failing check of
    BadPrevHash (not on the local tip), BadMerkle (header root is not
    the root of the block's own txs), DuplicateTx (a contract listed
    twice), UnknownTx (a tx whose digest differs from the pooled copy,
    or that is not pooled), BadLeaderSig (the block's sig_ok).
    """
    if not chain.extends(block):
        return False, "BadPrevHash"
    if block.merkle != block.own_root:
        return False, "BadMerkle"
    if block.has_duplicate:
        return False, "DuplicateTx"
    pooled = tuple(map(pool.get, block.tx_ids))  # equal tuples hold equal digests
    if pooled != block.txs and any(p is None or p[8] != c[8]
                                   for c, p in zip(block.txs, pooled)):
        return False, "UnknownTx"
    if not block.sig_ok:
        return False, "BadLeaderSig"
    return True, None


def export_chain(chain: Chain) -> str:
    """Newline-delimited dump: height, prev, merkle, leader, round, count, ids."""
    lines = []
    for b in chain.blocks:
        lines.append(f"{b.height},{b.prev_hash},{b.merkle},{b.leader_id},"
                     f"{b.round_no},{len(b.txs)},{';'.join(b.tx_ids)}")
    return "\n".join(lines) + "\n"


def verify_chain(chain: Chain) -> bool:
    """Audit hash links, merkle roots and leader signatures over the chain,
    and that no contract is committed twice.

    Every merkle root is rebuilt here from the txs, not read from the
    blocks' shared roots.
    """
    blocks = chain.blocks
    ids = [c.contract_id for b in blocks for c in b.txs]
    if not blocks or len(set(ids)) < len(ids):
        return False
    prev = ZERO_HASH
    for i, b in enumerate(blocks):
        if (b.height != i or b.prev_hash != prev
                or b.merkle != merkle_root([c[8] for c in b.txs])):
            return False
        if i > 0 and not verify_signature(b.header_digest, b.signature, b.leader_id):
            return False
        prev = b.block_hash
    return True


# ============================================================
# accounts and settlement
# ============================================================


class Account:
    __slots__ = ("account_id", "role", "city", "balance")

    def __init__(self, account_id: str, role: Role, city: str):
        self.account_id = account_id
        self.role = role
        self.city = city
        self.balance = 0.0


class Ledger:
    """Account book, contract store and settlement engine for one run;
    a signed contract stays created until its id joins `executed`."""

    __slots__ = ("accounts", "contracts", "executed", "total_deposited", "_next_id")

    def __init__(self):
        self.accounts: Dict[str, Account] = {}
        self.contracts: Dict[str, Contract] = {}
        self.executed: Set[str] = set()
        self.total_deposited = 0.0
        self._next_id = 0

    def register(self, account_id: str, role: Role, city: str) -> Account:
        if account_id in self.accounts:
            raise LedgerError(f"duplicate account {account_id}")
        acct = Account(account_id, role, city)
        self.accounts[account_id] = acct
        return acct

    def deposit(self, account_id: str, amount: float) -> None:
        if not math.isfinite(amount):
            raise LedgerError(f"deposit {amount} is not finite")
        if amount < 0:
            raise LedgerError("deposit must be non-negative")
        self._account(account_id).balance += amount
        self.total_deposited += amount

    def check_offer(self, buyer: str, seller: str, kind: EnergyKind,
                    price: float, amount: float) -> tuple:
        """Check an offer's terms once, for sign_offers to make its contracts.

        Raises UnknownAccount, CrossCityPair or LedgerError on bad terms;
        the balance check is sign_offers's.  The offer is (payer account,
        payment, terms' body JSON, buyer, seller, kind, price, amount).
        """
        b = self._account(buyer)
        s = self._account(seller)
        if b.role is not Role.AGGREGATOR or s.role is not Role.DES:
            raise LedgerError("contracts run aggregator -> DES")
        if b.city != s.city:
            raise CrossCityPair(f"{buyer} ({b.city}) cannot trade with "
                                f"{seller} ({s.city})")
        if not (math.isfinite(price) and math.isfinite(amount)):
            raise LedgerError(f"price {price} and amount {amount} must be finite")
        if price <= 0 or amount <= 0:
            raise LedgerError("price and amount must be positive")
        return (b, price * amount, _terms_json(buyer, seller, kind, price, amount),
                buyer, seller, kind, price, amount)

    def sign_offers(self, offers: Sequence[tuple], trans_time: int,
                    stime: int) -> Tuple[Dict[str, Contract], List[tuple]]:
        """Sign the next contract of each checked offer, in order,
        debiting its payment; refuse the offers whose payer holds less
        than the payment.

        Returns (id -> contract signed, offers refused), both in offer
        order.  Ids are ct-NNNNNN, so each body's JSON is written around
        the offer's terms directly.
        """
        from json import dumps
        contracts, new = self.contracts, tuple.__new__
        tail = ", " + dumps([trans_time, stime])[1:]
        n = self._next_id
        signed: Dict[str, Contract] = {}
        refused = []
        for offer in offers:
            payer, payment, terms, buyer, seller, kind, price, amount = offer
            if payer.balance < payment:
                refused.append(offer)
                continue
            payer.balance -= payment
            cid = "ct-%06d" % n
            n += 1
            signed[cid] = contracts[cid] = new(Contract, (
                cid, buyer, seller, kind, price, amount, trans_time, stime,
                _sha256(f'["{cid}", {terms}{tail}'.encode()).hexdigest()))
        self._next_id = n
        return signed, refused

    def execute_contracts(self, contract_ids: Iterable[str]) -> None:
        """Settle committed contracts in the order given, each not yet
        executed, by crediting its payee the payment its signing debited.

        Settling a contract twice raises, so a contract committed twice
        cannot pay twice.
        """
        contracts, executed, accounts = self.contracts, self.executed, self.accounts
        for cid in contract_ids:
            c = contracts[cid]
            if cid in executed:
                raise BadContractState(f"{cid} is executed, not created")
            accounts[c[2]].balance += c[4] * c[5]
            executed.add(cid)

    def conservation_drift(self) -> float:
        """Absolute gap between deposits and money held, unsettled payments included.

        Both sums run left to right: sum() compensates float rounding
        from Python 3.12 on, and would make the gap depend on the version.
        """
        held = reduce(add, [a.balance for a in self.accounts.values()], 0.0)
        executed = self.executed
        promised = reduce(add, [c.payment for cid, c in self.contracts.items()
                                if cid not in executed], 0.0)
        return abs(held + promised - self.total_deposited)

    def _account(self, account_id: str) -> Account:
        try:
            return self.accounts[account_id]
        except KeyError:
            raise UnknownAccount(account_id) from None
