"""Contract ledger: accounts, energy contracts, and a hash-linked chain.

A contract is created from a DES's offer and executed once consensus
commits it.  One funds rule covers settlement: signing a contract takes
its payment out of the aggregator's balance, and is refused when that
balance is short; executing it credits the DES.  An offer's terms are
checked and encoded once (check_offer); each contract signed from them
(sign_offer) costs only the balance check and debit, the next id and the
body digest, and create_contract does both.  Blocks carry full contract
bodies; the chain links sha256 block digests and a merkle root over the
contract digests.  Contracts and blocks are read-only and compute each
digest once; the chain audit rebuilds every root on its own.  Block
leaders sign with simulated keys: deterministic digests of a per-account
secret, good enough to exercise the protocol logic.
"""

from __future__ import annotations

import math
from functools import cache
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

HASH_ALGO = "sha256"
ZERO_HASH = "0" * 64


class LedgerError(Exception):
    """Base for contract and account rule violations."""


class UnknownAccount(LedgerError):
    pass


class InsufficientBalance(LedgerError):
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


class ContractState(Enum):
    CREATED = "created"
    EXECUTED = "executed"


# States as plain names for the per-contract paths: reading an Enum
# attribute costs about a tenth of a microsecond.  For the same reason
# those paths read a member's `_value_`, not its `value` property.
_CREATED, _EXECUTED = ContractState


# ============================================================
# simulated crypto
# ============================================================


# hashlib loads OpenSSL, and json its codecs, which a run that hashes
# nothing never needs.  Each stub rebinds its own name to the standard
# library's function on first call, so later calls go straight to it.
def _sha256(data: bytes):
    global _sha256
    from hashlib import sha256 as _sha256
    return _sha256(data)


def _encode_str(text: str) -> str:
    global _encode_str
    from json.encoder import encode_basestring_ascii as _encode_str
    return _encode_str(text)


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


def _read_only(record, name, value=None):
    raise AttributeError(f"{type(record).__name__}.{name} is read-only")


def _fill(record, values) -> None:
    """Set a read-only record's slots to values, in __slots__ order."""
    for name, value in zip(type(record).__slots__, values):
        object.__setattr__(record, name, value)


class Contract:
    """Immutable body of one energy sale; lifecycle state lives in the ledger.

    Equal bodies compare and hash equal.
    """

    __slots__ = ("contract_id", "buyer", "seller", "kind", "price", "amount",
                 "trans_time", "stime", "_body_digest")

    def __init__(self, contract_id: str, buyer: str, seller: str, kind: EnergyKind,
                 price: float, amount: float, trans_time: int, stime: int,
                 terms: Optional[str] = None):
        # terms, when given, is _terms_json of these fields, which
        # Ledger.check_offer encodes once per offer.
        if terms is None:
            terms = _terms_json(buyer, seller, kind, price, amount)
        _set_contract_id(self, contract_id)
        _set_buyer(self, buyer)
        _set_seller(self, seller)
        _set_kind(self, kind)
        _set_price(self, price)
        _set_amount(self, amount)
        _set_trans_time(self, trans_time)
        _set_stime(self, stime)
        _set_body_digest(self, _sha(_body_json(contract_id, terms, trans_time, stime)))

    __setattr__ = __delattr__ = _read_only

    def _body(self) -> tuple:
        return (self.contract_id, self.buyer, self.seller, self.kind, self.price,
                self.amount, self.trans_time, self.stime)

    def __eq__(self, other):
        if type(other) is not Contract:
            return NotImplemented
        return self._body() == other._body()

    def __hash__(self) -> int:
        return hash(self._body())

    @property
    def payment(self) -> float:
        return self.price * self.amount

    def body_digest(self) -> str:
        """Digest of the body, computed at construction."""
        return self._body_digest


# The slots' own setters: they skip the refusal above, and every
# contract's construction costs less through them than through
# object.__setattr__ by name.
(_set_contract_id, _set_buyer, _set_seller, _set_kind, _set_price, _set_amount,
 _set_trans_time, _set_stime, _set_body_digest) = (
    getattr(Contract, name).__set__ for name in Contract.__slots__)


def _terms_json(buyer: str, seller: str, kind: EnergyKind, price: float,
                amount: float) -> str:
    """The body's buyer, seller, kind, price and amount, as json writes
    them inside the body list."""
    from json import dumps
    return dumps([buyer, seller, kind._value_, repr(price), repr(amount)])[1:-1]


def _body_json(cid: str, terms: str, trans_time: int, stime: int) -> str:
    """json.dumps(list(body)), byte for byte, around the terms' JSON.

    A str id and plain int times are written directly, as json writes
    them; any other type (a bool or float in an int slot, a non-string
    id) goes through json itself.
    """
    if type(cid) is str and type(trans_time) is int and type(stime) is int:
        return f"[{_encode_str(cid)}, {terms}, {trans_time}, {stime}]"
    from json import dumps
    return f"[{dumps(cid)}, {terms}, {dumps(trans_time)}, {dumps(stime)}]"


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
        level = [_sha(a + b) for a, b in zip(level[::2], level[1::2])]
    return level[0]


class Block:
    """One block: the header, the contracts it carries and the leader's
    signature.  Read-only; it keeps each digest once computed."""

    __slots__ = ("height", "prev_hash", "merkle", "leader_id", "round_no", "txs",
                 "note", "signature", "_header_digest", "_block_hash", "_own_txs")

    def __init__(self, height: int, prev_hash: str, merkle: str, leader_id: str,
                 round_no: int, txs: Tuple[Contract, ...] = (), note: str = "",
                 signature: str = ""):
        from json import dumps
        header = _sha(dumps([height, prev_hash, merkle, leader_id, round_no, note]))
        _fill(self, (height, prev_hash, merkle, leader_id, round_no, txs, note,
                     signature, header, None, None))

    __setattr__ = __delattr__ = _read_only

    def header_digest(self) -> str:
        """Digest of the header; the leader signature covers this."""
        return self._header_digest

    def block_hash(self) -> str:
        if self._block_hash is None:
            object.__setattr__(self, "_block_hash",
                               _sha(self._header_digest + ":" + self.signature))
        return self._block_hash

    def own_txs(self) -> Tuple[str, bool]:
        """Merkle root over the txs' digests, and whether a contract id
        repeats among them; make_block sets the leader's, and every
        validator of the block reads this one."""
        if self._own_txs is None:
            object.__setattr__(self, "_own_txs", _txs_root(self.txs))
        return self._own_txs


def _txs_root(txs: Sequence[Contract]) -> Tuple[str, bool]:
    return (merkle_root([c.body_digest() for c in txs]),
            len({c.contract_id for c in txs}) < len(txs))


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
    """The leader's signed block over txs; it keeps the root it was built
    with as its own, so its validators do not rebuild it."""
    txs = tuple(txs)
    own = _txs_root(txs)
    blk = _signed_block(
        height=chain.height + 1,
        prev_hash=chain.tip.block_hash(),
        merkle=own[0],
        leader_id=leader_id,
        round_no=round_no,
        txs=txs,
    )
    object.__setattr__(blk, "_own_txs", own)
    return blk


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
        return block.prev_hash == self.tip.block_hash() and block.height == self.height + 1

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
    or that is not pooled), BadLeaderSig.
    """
    if not chain.extends(block):
        return False, "BadPrevHash"
    root, duplicate = block.own_txs()
    if block.merkle != root:
        return False, "BadMerkle"
    if duplicate:
        return False, "DuplicateTx"
    get = pool.get
    for c in block.txs:
        pooled = get(c.contract_id)
        if pooled is not c and (pooled is None
                                or pooled.body_digest() != c.body_digest()):
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
                or b.merkle != merkle_root([c.body_digest() for c in b.txs])):
            return False
        if i > 0 and not verify_signature(b.header_digest(), b.signature, b.leader_id):
            return False
        prev = b.block_hash()
    return True


# ============================================================
# accounts and settlement
# ============================================================


class Account:
    __slots__ = ("account_id", "role", "city", "balance")

    def __init__(self, account_id: str, role: Role, city: str, balance: float = 0.0):
        self.account_id = account_id
        self.role = role
        self.city = city
        self.balance = balance


class Ledger:
    """Account book, contract store and settlement engine for one run."""

    __slots__ = ("accounts", "contracts", "states", "total_deposited", "_next_id")

    def __init__(self):
        self.accounts: Dict[str, Account] = {}
        self.contracts: Dict[str, Contract] = {}
        self.states: Dict[str, ContractState] = {}
        self.total_deposited = 0.0
        self._next_id = 0

    def register(self, account_id: str, role: Role, city: str) -> Account:
        if account_id in self.accounts:
            raise LedgerError(f"duplicate account {account_id}")
        acct = Account(account_id=account_id, role=role, city=city)
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
        """Check an offer's terms once, for sign_offer to make its contracts.

        Raises create_contract's errors, except the balance check, which
        sign_offer makes.  The offer is (payer account, payment, terms'
        body JSON, buyer, seller, kind, price, amount).
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

    def sign_offer(self, offer: tuple, trans_time: int, stime: int) -> Contract:
        """Create the next contract of a checked offer in the CREATED state and
        debit its payment, or raise InsufficientBalance if the payer is short."""
        payer, payment, terms, buyer, seller, kind, price, amount = offer
        if payer.balance < payment:
            raise InsufficientBalance(f"{buyer} holds {payer.balance}, needs {payment}")
        payer.balance -= payment
        cid = f"ct-{self._next_id:06d}"
        self._next_id += 1
        contract = self.contracts[cid] = Contract(
            cid, buyer, seller, kind, price, amount, trans_time, stime, terms)
        self.states[cid] = _CREATED
        return contract

    def create_contract(self, buyer: str, seller: str, kind: EnergyKind,
                        price: float, amount: float, trans_time: int,
                        stime: int = 0) -> Contract:
        """Create a new contract in the CREATED state."""
        return self.sign_offer(self.check_offer(buyer, seller, kind, price, amount),
                               trans_time, stime)

    def execute_contract(self, contract_id: str) -> None:
        """Settle one committed contract, which must still be CREATED, by
        crediting its payee the payment its signing debited.

        Settling a contract twice raises, so a contract committed twice
        cannot pay twice.
        """
        states = self.states
        state = states[contract_id]
        if state is not _CREATED:
            raise BadContractState(f"{contract_id} is {state._value_}, not created")
        contract = self.contracts[contract_id]
        self.accounts[contract.seller].balance += contract.payment
        states[contract_id] = _EXECUTED

    def conservation_drift(self) -> float:
        """Absolute gap between deposits and money held, unsettled payments included."""
        promised = sum(self.contracts[cid].payment
                       for cid, state in self.states.items() if state is _CREATED)
        return abs(sum(a.balance for a in self.accounts.values()) + promised
                   - self.total_deposited)

    def _account(self, account_id: str) -> Account:
        try:
            return self.accounts[account_id]
        except KeyError:
            raise UnknownAccount(account_id) from None
