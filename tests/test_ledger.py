"""Unit tests for accounts, contracts, blocks and the settlement rules."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from destrade import (
    BadContractState,
    Chain,
    Contract,
    ContractState,
    CrossCityPair,
    EnergyKind,
    InsufficientBalance,
    Ledger,
    LedgerError,
    Role,
    UnknownAccount,
    export_chain,
    make_block,
    make_genesis,
    merkle_root,
    sign,
    sim_secret,
    validate_block,
    verify_chain,
    verify_signature,
)


def _sha(s: str) -> str:
    return hashlib.sha256(s.encode()).hexdigest()


def rebuilt(record, **changes):
    """A Contract or Block built afresh through its constructor from
    record's fields, with changes applied."""
    names = [k for k in type(record).__slots__ if not k.startswith("_")]
    return type(record)(**{k: changes.get(k, getattr(record, k)) for k in names})


def fresh_ledger() -> Ledger:
    led = Ledger()
    led.register("ea", Role.AGGREGATOR, "c0")
    led.register("ha", Role.AGGREGATOR, "c0")
    led.register("des", Role.DES, "c0")
    led.register("ea2", Role.AGGREGATOR, "c1")
    return led


def funded_ledger(balance=1000.0) -> Ledger:
    led = fresh_ledger()
    led.deposit("ea", balance)
    return led


# ------------------------------------------------------------
# accounts
# ------------------------------------------------------------


def test_register_roles():
    led = fresh_ledger()
    assert led.accounts["des"].role is Role.DES
    assert led.accounts["des"].balance == 0.0
    assert led.accounts["ea"].role is Role.AGGREGATOR


def test_register_duplicate():
    led = fresh_ledger()
    with pytest.raises(LedgerError):
        led.register("ea", Role.AGGREGATOR, "c0")


def test_unknown_account():
    led = fresh_ledger()
    with pytest.raises(UnknownAccount):
        led.deposit("ghost", 1.0)


def test_deposit_validation():
    led = fresh_ledger()
    with pytest.raises(LedgerError):
        led.deposit("ea", -1.0)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("amount", NON_FINITE)
def test_deposit_rejects_non_finite(amount):
    led = funded_ledger(balance=100.0)
    with pytest.raises(LedgerError, match="not finite"):
        led.deposit("ea", amount)
    assert led.accounts["ea"].balance == 100.0
    assert led.total_deposited == 100.0
    assert led.conservation_drift() == 0.0


# ------------------------------------------------------------
# contract creation
# ------------------------------------------------------------


def test_create_contract_boundary_balance_passes():
    led = funded_ledger(balance=100.0)
    c = led.create_contract("ea", "des", EnergyKind.ELECTRICITY,
                            price=1.0, amount=100.0, trans_time=0)
    assert led.states[c.contract_id] is ContractState.CREATED
    assert c.payment == 100.0


def test_create_contract_insufficient_balance():
    led = funded_ledger(balance=99.0)
    with pytest.raises(InsufficientBalance):
        led.create_contract("ea", "des", EnergyKind.ELECTRICITY,
                            price=1.0, amount=100.0, trans_time=0)


def test_create_contract_cross_city():
    led = funded_ledger()
    led.deposit("ea2", 100.0)
    with pytest.raises(CrossCityPair):
        led.create_contract("ea2", "des", EnergyKind.ELECTRICITY,
                            price=1.0, amount=1.0, trans_time=0)


def test_create_contract_role_and_positivity():
    led = funded_ledger()
    with pytest.raises(LedgerError):
        led.create_contract("des", "des", EnergyKind.ELECTRICITY,
                            price=1.0, amount=1.0, trans_time=0)
    with pytest.raises(LedgerError):
        led.create_contract("ea", "des", EnergyKind.ELECTRICITY,
                            price=0.0, amount=1.0, trans_time=0)
    with pytest.raises(LedgerError):
        led.create_contract("ea", "des", EnergyKind.ELECTRICITY,
                            price=1.0, amount=-1.0, trans_time=0)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", ["price", "amount"])
def test_create_contract_rejects_non_finite(field, bad):
    led = funded_ledger()
    terms = {"price": 1.0, "amount": 2.0, field: bad}
    with pytest.raises(LedgerError, match="must be finite"):
        led.create_contract("ea", "des", EnergyKind.ELECTRICITY,
                            trans_time=0, **terms)
    assert led.contracts == {} and led.states == {}


def test_contract_ids_and_signatures():
    led = funded_ledger()
    c0 = led.create_contract("ea", "des", EnergyKind.ELECTRICITY,
                             price=1.0, amount=1.0, trans_time=0)
    c1 = led.create_contract("ea", "des", EnergyKind.HEAT,
                             price=1.0, amount=1.0, trans_time=0)
    assert c0.contract_id == "ct-000000"
    assert c1.contract_id == "ct-000001"


# Each static rule create_contract enforces, as (buyer, seller, price, amount):
# unknown buyer and seller, a DES buying, an aggregator selling, a
# cross-city pair, non-finite and non-positive terms.
_BAD_TERMS = [("ghost", "des", 1.0, 1.0), ("ea", "ghost", 1.0, 1.0),
              ("des", "des", 1.0, 1.0), ("ea", "ha", 1.0, 1.0),
              ("ea2", "des", 1.0, 1.0), ("ea", "des", math.nan, 1.0),
              ("ea", "des", 1.0, math.inf), ("ea", "des", 0.0, 1.0),
              ("ea", "des", 1.0, -1.0)]


@pytest.mark.parametrize("buyer,seller,price,amount", _BAD_TERMS)
def test_check_offer_raises_create_contracts_errors(buyer, seller, price, amount):
    led = funded_ledger()
    led.deposit("ea2", 100.0)
    with pytest.raises(LedgerError) as created:
        led.create_contract(buyer, seller, EnergyKind.HEAT, price, amount, trans_time=0)
    with pytest.raises(LedgerError) as checked:
        led.check_offer(buyer, seller, EnergyKind.HEAT, price, amount)
    assert type(checked.value) is type(created.value)
    assert str(checked.value) == str(created.value)
    assert led.contracts == {} and led.states == {}
    # no contract id was used up either
    c = led.create_contract("ea", "des", EnergyKind.HEAT, 1.0, 1.0, trans_time=0)
    assert c.contract_id == "ct-000000"


def test_a_checked_offer_meets_the_balance_check_when_signed():
    led = funded_ledger(balance=3.0)
    offer = led.check_offer("ea", "des", EnergyKind.HEAT, price=1.0, amount=2.0)
    first = led.sign_offer(offer, 0, 0)
    led.execute_contract(first.contract_id)
    with pytest.raises(InsufficientBalance, match="^ea holds 1.0, needs 2.0$"):
        led.sign_offer(offer, 1, 1)
    assert list(led.contracts) == list(led.states) == ["ct-000000"]
    led.deposit("ea", 1.0)
    assert led.sign_offer(offer, 1, 1).contract_id == "ct-000001"


def _contract(**changes) -> Contract:
    body = dict(contract_id="ct-000000", buyer="ea", seller="des",
                kind=EnergyKind.HEAT, price=1.5, amount=2.0, trans_time=3, stime=4)
    body.update(changes)
    return Contract(**body)


@pytest.mark.parametrize("name", ["contract_id", "price", "kind", "_body_digest"])
def test_contract_fields_cannot_be_assigned(name):
    c = _contract()
    with pytest.raises(AttributeError):
        setattr(c, name, getattr(c, name))


def test_contract_is_slotted():
    assert not hasattr(_contract(), "__dict__")


def test_contract_replace_recomputes_the_digest():
    c = _contract()
    for changes in ({"amount": 2.5}, {"kind": EnergyKind.ELECTRICITY},
                    {"contract_id": "ct-000001"}, {"stime": 5}):
        altered = rebuilt(c, **changes)
        assert altered.body_digest() != c.body_digest()
        assert altered.body_digest() == _contract(**changes).body_digest()
    assert rebuilt(c).body_digest() == c.body_digest()


def test_equal_bodies_compare_and_hash_equal():
    a, b = _contract(), _contract()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != _contract(price=1.25)
    assert "_body_digest" not in repr(a)


# ------------------------------------------------------------
# lifecycle and settlement
# ------------------------------------------------------------


def test_lifecycle_happy_path():
    led = funded_ledger(balance=100.0)
    c = led.create_contract("ea", "des", EnergyKind.ELECTRICITY,
                            price=1.0, amount=80.0, trans_time=5)
    assert led.states[c.contract_id] is ContractState.CREATED
    led.execute_contract(c.contract_id)
    assert led.states[c.contract_id] is ContractState.EXECUTED
    assert led.accounts["ea"].balance == 20.0
    assert led.accounts["des"].balance == 80.0
    # a contract committed twice cannot pay twice
    with pytest.raises(BadContractState, match="is executed, not created"):
        led.execute_contract(c.contract_id)
    assert led.accounts["ea"].balance == 20.0
    assert led.accounts["des"].balance == 80.0


def test_signing_debits_the_payer_and_execution_credits_the_payee():
    led = funded_ledger(balance=100.0)
    c = led.create_contract("ea", "des", EnergyKind.ELECTRICITY,
                            price=1.0, amount=80.0, trans_time=0)
    # the payment leaves the payer when signed; until executed it is
    # held by the contract, and the drift audit counts it
    assert led.accounts["ea"].balance == 20.0
    assert led.accounts["des"].balance == 0.0
    assert led.conservation_drift() == 0.0
    led.execute_contract(c.contract_id)
    assert led.accounts["ea"].balance == 20.0
    assert led.accounts["des"].balance == 80.0
    assert led.conservation_drift() == 0.0


def test_a_second_sign_the_payer_cannot_cover_is_refused():
    led = funded_ledger(balance=100.0)
    first = led.create_contract("ea", "des", EnergyKind.ELECTRICITY,
                                price=1.0, amount=80.0, trans_time=0)
    # 20 is left after the first payment, whether or not it has settled
    with pytest.raises(InsufficientBalance, match="^ea holds 20.0, needs 60.0$"):
        led.create_contract("ea", "des", EnergyKind.HEAT,
                            price=1.0, amount=60.0, trans_time=0)
    assert list(led.states) == [first.contract_id]
    assert led.accounts["ea"].balance == 20.0
    led.execute_contract(first.contract_id)
    assert all(a.balance >= 0.0 for a in led.accounts.values())
    assert set(led.states.values()) == {ContractState.EXECUTED}


def test_contract_states_are_created_and_executed():
    assert [s.value for s in ContractState] == ["created", "executed"]


def test_conservation_over_random_activity():
    rng = np.random.default_rng(29)
    led = funded_ledger(balance=500.0)
    led.deposit("ha", 500.0)
    open_ids = []
    for step in range(300):
        move = rng.integers(0, 3)
        if move == 0:
            led.deposit(("ea", "ha")[rng.integers(0, 2)], float(rng.uniform(0, 10)))
        elif move == 1:
            buyer = ("ea", "ha")[rng.integers(0, 2)]
            price = float(rng.uniform(0.1, 2.0))
            amount = float(rng.uniform(1.0, 50.0))
            try:
                c = led.create_contract(buyer, "des", EnergyKind.ELECTRICITY,
                                        price=price, amount=amount, trans_time=0)
                open_ids.append(c.contract_id)
            except LedgerError:
                pass
        elif open_ids:
            cid = open_ids.pop(rng.integers(0, len(open_ids)))
            led.execute_contract(cid)
        assert led.conservation_drift() <= 1e-9
    # the walk actually settled something
    assert ContractState.EXECUTED in led.states.values()


# ------------------------------------------------------------
# merkle tree
# ------------------------------------------------------------


def test_merkle_empty():
    assert merkle_root([]) == _sha("empty")


def test_merkle_single_is_identity():
    d = _sha("x")
    assert merkle_root([d]) == d


def test_merkle_pair_and_odd_duplication():
    d1, d2, d3 = _sha("a"), _sha("b"), _sha("c")
    assert merkle_root([d1, d2]) == _sha(d1 + d2)
    # odd level repeats its tail
    expect = _sha(_sha(d1 + d2) + _sha(d3 + d3))
    assert merkle_root([d1, d2, d3]) == expect


def test_merkle_order_sensitivity():
    d1, d2 = _sha("a"), _sha("b")
    assert merkle_root([d1, d2]) != merkle_root([d2, d1])


# ------------------------------------------------------------
# blocks and chain validation
# ------------------------------------------------------------


def _pool_with_contract():
    led = funded_ledger()
    c = led.create_contract("ea", "des", EnergyKind.ELECTRICITY,
                            price=1.0, amount=2.0, trans_time=0)
    return {c.contract_id: c}, c


def test_genesis_shape():
    g = make_genesis()
    assert g.height == 0
    assert g.prev_hash == "0" * 64
    assert g.note == "sha256"
    assert g.round_no == -1


def test_chain_append_and_reject():
    chain = Chain()
    blk = make_block("ea", chain, 0, [])
    chain.append(blk)
    assert chain.height == 1
    stale = make_block("ea", Chain(), 1, [])  # built on a fresh genesis tip
    with pytest.raises(LedgerError):
        chain.append(stale)


def test_validate_accepts_empty_block():
    chain = Chain()
    blk = make_block("ea", chain, 0, [])
    assert validate_block(blk, {}, chain) == (True, None)


def test_validate_reason_order():
    pool, c = _pool_with_contract()
    chain = Chain()
    good = make_block("ea", chain, 0, [c])
    assert validate_block(good, pool, chain) == (True, None)

    # stale prev beats everything else
    wrong_prev = rebuilt(good, prev_hash="ab" * 32)
    assert validate_block(wrong_prev, pool, chain) == (False, "BadPrevHash")

    # merkle mismatch beats tx inspection
    wrong_merkle = rebuilt(good, merkle="cd" * 32)
    assert validate_block(wrong_merkle, pool, chain) == (False, "BadMerkle")

    # tampered amount, consistently re-merkled and re-signed: UnknownTx
    tampered = make_block("ea", chain, 0, [rebuilt(c, amount=c.amount + 1.0)])
    assert validate_block(tampered, pool, chain) == (False, "UnknownTx")

    # proper content, wrong signer
    forged = rebuilt(good, signature=sign(good.header_digest(), sim_secret("evil")))
    assert validate_block(forged, pool, chain) == (False, "BadLeaderSig")


def test_stored_digests_match_their_fields():
    pool, c = _pool_with_contract()
    chain = Chain()
    blk = make_block("ea", chain, 0, [c])
    for b, signer in ((chain.tip, "genesis"), (blk, "ea")):
        header = _sha(json.dumps([b.height, b.prev_hash, b.merkle, b.leader_id,
                                  b.round_no, b.note]))
        assert b.header_digest() == header
        assert b.block_hash() == _sha(header + ":" + b.signature)
        assert verify_signature(header, b.signature, signer)
    assert c.body_digest() == _sha(json.dumps([
        c.contract_id, c.buyer, c.seller, c.kind.value, repr(c.price),
        repr(c.amount), c.trans_time, c.stime]))
    assert blk.merkle == merkle_root([c.body_digest()])
    assert blk.prev_hash == chain.tip.block_hash()


def test_tampered_copies_get_fresh_digests():
    pool, c = _pool_with_contract()
    chain = Chain()
    good = make_block("ea", chain, 0, [c])
    # read every digest first, so a copy that kept them would show
    digest, header, block_hash = c.body_digest(), good.header_digest(), good.block_hash()
    altered = rebuilt(c, amount=c.amount + 1.0)
    assert altered.body_digest() != digest
    tampers = [
        (make_block("ea", chain, 0, [altered]), "UnknownTx"),
        (rebuilt(good, merkle="cd" * 32), "BadMerkle"),
        (rebuilt(good, prev_hash="ab" * 32), "BadPrevHash"),
        (rebuilt(good, signature=sign(header, sim_secret("evil"))), "BadLeaderSig"),
    ]
    for blk, reason in tampers:
        assert blk.block_hash() != block_hash
        assert validate_block(blk, pool, chain) == (False, reason)
    for blk, _reason in tampers[1:3]:
        assert blk.header_digest() != header
    assert validate_block(good, pool, chain) == (True, None)
    for blk, _reason in tampers[1:]:
        broken = Chain()
        broken.blocks = [chain.tip, blk]
        assert not verify_chain(broken)


def test_duplicate_tx_fails_validation_and_the_audit():
    pool, c = _pool_with_contract()
    chain = Chain()
    twice = make_block("ea", chain, 0, [c, c])
    # header root, pooled digests and signature are all in order
    assert twice.merkle == merkle_root([c.body_digest()] * 2)
    assert validate_block(twice, pool, chain) == (False, "DuplicateTx")
    # a wrong header root is reported before the duplicate
    assert validate_block(rebuilt(twice, merkle="cd" * 32), pool, chain) == (
        False, "BadMerkle")
    chain.append(twice)
    assert not verify_chain(chain)


def test_verify_chain_rejects_a_contract_in_two_blocks():
    _pool, c = _pool_with_contract()
    chain = Chain()
    chain.append(make_block("ea", chain, 0, [c]))
    assert verify_chain(chain)
    chain.append(make_block("ha", chain, 1, [c]))
    assert not verify_chain(chain)


def test_validate_rejects_recommitted_contract():
    pool, c = _pool_with_contract()
    chain = Chain()
    blk = make_block("ea", chain, 0, [c])
    chain.append(blk)
    pool.pop(c.contract_id)  # committed ids leave the pool
    again = make_block("ea", chain, 1, [c])
    assert validate_block(again, pool, chain) == (False, "UnknownTx")
    assert [t.contract_id for b in chain.blocks for t in b.txs] == [c.contract_id]


def test_verify_chain_and_tamper_detection():
    pool, c = _pool_with_contract()
    chain = Chain()
    chain.append(make_block("ea", chain, 0, [c]))
    chain.append(make_block("ha", chain, 1, []))
    assert verify_chain(chain)
    broken = Chain()
    broken.blocks = list(chain.blocks)
    broken.blocks[1] = rebuilt(broken.blocks[1], merkle="ef" * 32)
    assert not verify_chain(broken)


def _three_blocks():
    _pool, c = _pool_with_contract()
    chain = Chain()
    chain.append(make_block("ea", chain, 0, [c]))
    chain.append(make_block("ha", chain, 1, []))
    return chain.blocks


# Each way a block list can break the audit; genesis cases keep it alone,
# so no later link catches them first.
_BROKEN = {
    "empty": lambda b: [],
    "genesis-height": lambda b: [rebuilt(b[0], height=1)],
    "genesis-prev-hash": lambda b: [rebuilt(b[0], prev_hash="ab" * 32)],
    "link": lambda b: [b[0], b[1], rebuilt(b[2], prev_hash=b[0].block_hash())],
    "height": lambda b: [b[0], b[1], rebuilt(b[2], height=3)],
    "missing-block": lambda b: [b[0], b[2]],
    "signature": lambda b: [b[0], b[1], rebuilt(
        b[2], signature=sign(b[2].header_digest(), sim_secret("evil")))],
}


@pytest.mark.parametrize("name", sorted(_BROKEN))
def test_verify_chain_rejects_each_broken_block_list(name):
    blocks = _three_blocks()
    good = Chain()
    good.blocks = blocks
    assert verify_chain(good)
    broken = Chain()
    broken.blocks = _BROKEN[name](blocks)
    assert not verify_chain(broken)


def test_export_chain_format():
    pool, c = _pool_with_contract()
    chain = Chain()
    chain.append(make_block("ea", chain, 0, [c]))
    text = export_chain(chain)
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == 2
    g = lines[0].split(",")
    assert g[0] == "0" and g[1] == "0" * 64 and g[3] == "genesis"
    b = lines[1].split(",")
    assert b[0] == "1" and b[3] == "ea" and b[5] == "1" and b[6] == c.contract_id


def test_signature_roundtrip():
    secret = sim_secret("ea")
    sig = sign("payload", secret)
    assert verify_signature("payload", sig, "ea")
    assert not verify_signature("payload", sig, "ha")
    assert not verify_signature("other", sig, "ea")


# ------------------------------------------------------------
# body digest encoding
# ------------------------------------------------------------

# Ids that stress json's string escapes: quotes, backslashes, control
# characters, non-ASCII (one- and two-unit UTF-16) and lone surrogates.
_IDS = st.one_of(
    st.text(max_size=12),
    st.text(alphabet=st.sampled_from('"\\/\x00\x1f\x7f\b\t\n\r\u2028\xe9\U0001f600\ud800a'),
            max_size=12),
)
# The prices and amounts create_contract accepts: finite and positive.
_MONEY = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# Large and negative ints, plus the bools and floats json writes its own way.
_INTS = st.one_of(st.integers(), st.integers(min_value=-2**70, max_value=2**70),
                  st.booleans(), st.floats())


@settings(max_examples=300, deadline=None)
@given(cid=_IDS, buyer=_IDS, seller=_IDS, kind=st.sampled_from(EnergyKind),
       price=_MONEY, amount=_MONEY, trans_time=_INTS, stime=_INTS)
def test_body_digest_is_the_digest_of_the_json_body(cid, buyer, seller, kind, price,
                                                   amount, trans_time, stime):
    c = Contract(contract_id=cid, buyer=buyer, seller=seller, kind=kind,
                 price=price, amount=amount, trans_time=trans_time, stime=stime)
    assert c.body_digest() == _sha(json.dumps([
        cid, buyer, seller, kind.value, repr(price), repr(amount), trans_time, stime]))


@settings(max_examples=300, deadline=None)
@given(buyer=_IDS, seller=_IDS, kind=st.sampled_from(EnergyKind), price=_MONEY,
       amount=_MONEY, trans_time=_INTS, stime=_INTS)
def test_a_signed_offer_is_the_contract_built_directly(buyer, seller, kind, price,
                                                       amount, trans_time, stime):
    assume(buyer != seller and math.isfinite(price * amount))
    led = Ledger()
    led.register(buyer, Role.AGGREGATOR, "c0")
    led.register(seller, Role.DES, "c0")
    led.deposit(buyer, price * amount)
    c = led.sign_offer(led.check_offer(buyer, seller, kind, price, amount),
                       trans_time, stime)
    direct = Contract("ct-000000", buyer, seller, kind, price, amount, trans_time, stime)
    assert c == direct
    assert c.body_digest() == direct.body_digest() == _sha(json.dumps([
        "ct-000000", buyer, seller, kind.value, repr(price), repr(amount),
        trans_time, stime]))


@pytest.mark.parametrize("cid", [7, None, 1.5])
def test_body_digest_of_a_non_string_id_follows_json(cid):
    c = Contract(contract_id=cid, buyer="ea", seller="des", kind=EnergyKind.HEAT,
                 price=1.0, amount=2.0, trans_time=0, stime=0)
    assert c.body_digest() == _sha(json.dumps(
        [cid, "ea", "des", "heat", "1.0", "2.0", 0, 0]))
