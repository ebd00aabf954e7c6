"""Tests for the consortium settlement chain (blocks, consensus, ledger)."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blockchain import (
    Block,
    ConsensusError,
    ConsortiumChain,
    GENESIS_PREVIOUS_HASH,
    RoundRobinConsensus,
    SettlementTransaction,
    Validator,
)


def tx(window=0, seller="s1", buyer="b1", energy=0.5, price=95.0, payment=None):
    return SettlementTransaction(
        window=window,
        seller_id=seller,
        buyer_id=buyer,
        energy_kwh=energy,
        payment=payment if payment is not None else price * energy,
        price=price,
    )


def make_chain(validator_count=4, faulty=0):
    validators = [
        Validator(validator_id=f"v{i}", faulty=i < faulty) for i in range(validator_count)
    ]
    return ConsortiumChain(consensus=RoundRobinConsensus(validators=validators))


# -- transactions and blocks ----------------------------------------------------


def test_transaction_id_is_deterministic():
    assert tx().transaction_id() == tx().transaction_id()
    assert tx().transaction_id() != tx(energy=0.6).transaction_id()


def test_transaction_consistency_rule():
    assert tx().is_consistent()
    assert not tx(payment=1.0).is_consistent()


def test_merkle_root_changes_with_contents():
    a = Block(index=1, previous_hash="x", proposer_id="v0", transactions=[tx()])
    b = Block(index=1, previous_hash="x", proposer_id="v0", transactions=[tx(energy=0.7)])
    empty = Block(index=1, previous_hash="x", proposer_id="v0")
    assert a.merkle_root() != b.merkle_root()
    assert a.merkle_root() != empty.merkle_root()
    assert a.block_hash() != b.block_hash()


# -- consensus --------------------------------------------------------------------


def test_round_robin_rotates_proposers():
    consensus = RoundRobinConsensus(validators=[Validator(f"v{i}") for i in range(3)])
    order = [consensus.next_proposer().validator_id for _ in range(4)]
    assert order == ["v0", "v1", "v2", "v0"]


def test_round_robin_skips_faulty_proposer():
    consensus = RoundRobinConsensus(
        validators=[Validator("v0", faulty=True), Validator("v1"), Validator("v2")]
    )
    assert consensus.next_proposer().validator_id == "v1"


def test_all_faulty_raises():
    consensus = RoundRobinConsensus(validators=[Validator("v0", faulty=True)])
    with pytest.raises(ConsensusError):
        consensus.next_proposer()


def test_quorum_size():
    consensus = RoundRobinConsensus(validators=[Validator(f"v{i}") for i in range(4)])
    assert consensus.quorum_size == 3


def test_block_rejected_without_quorum():
    # 3 of 4 validators faulty: only 1 vote, quorum is 3.
    chain = make_chain(validator_count=4, faulty=3)
    with pytest.raises(ConsensusError):
        chain.append_transactions([tx()])


def test_inconsistent_transaction_blocks_quorum():
    chain = make_chain()
    with pytest.raises(ConsensusError):
        chain.append_transactions([tx(payment=1.0)])


def test_consensus_validation_rules():
    with pytest.raises(ConsensusError):
        RoundRobinConsensus(validators=[])
    with pytest.raises(ConsensusError):
        RoundRobinConsensus(validators=[Validator("v0")], quorum_fraction=0.1)


# -- chain -------------------------------------------------------------------------


def test_genesis_block_created():
    chain = make_chain()
    assert chain.height == 0
    assert chain.head.previous_hash == GENESIS_PREVIOUS_HASH


def test_append_and_verify():
    chain = make_chain()
    block = chain.append_transactions([tx(window=1), tx(window=1, buyer="b2")])
    assert chain.height == 1
    assert block.votes
    assert chain.verify()


def test_verify_detects_tampering():
    chain = make_chain()
    chain.append_transactions([tx(window=1)])
    chain.append_transactions([tx(window=2)])
    assert chain.verify()
    # Tamper with an earlier block's contents: hash links must break.
    chain.blocks[1].transactions[0] = tx(window=1, energy=99.0)
    assert not chain.verify()


@pytest.mark.parametrize(
    "tamper",
    [
        lambda head: head.transactions.__setitem__(0, tx(window=2, energy=0.7)),
        lambda head: head.transactions.clear(),
        lambda head: head.transactions.append(tx(window=2, buyer="b9")),
        lambda head: head.transactions.reverse(),
    ],
    ids=["replaced", "emptied", "extended", "reordered"],
)
def test_verify_detects_tampering_in_the_head_block(tamper):
    """The head has no later block whose link covers it: its recorded root does."""
    chain = make_chain()
    chain.append_transactions([tx(window=1)])
    chain.append_transactions([tx(window=2), tx(window=2, buyer="b2")])
    assert chain.verify()
    tamper(chain.head)
    assert all(t.is_consistent() for t in chain.head.transactions)  # still valid one by one
    assert not chain.verify()


def test_a_change_below_the_old_rounding_changes_the_id_and_fails_verify():
    """Amounts are committed exactly: ``round(e, 9)`` / ``round(m, 6)`` hid these."""
    exact = tx(window=2, energy=0.5, price=95.0, payment=47.5)
    nudged = tx(window=2, energy=0.5 + 4e-10, price=95.0 + 4e-7, payment=47.5 + 3e-7)
    assert nudged.is_consistent()
    assert nudged.transaction_id() != exact.transaction_id()
    chain = make_chain()
    chain.append_transactions([tx(window=1)])
    chain.append_transactions([exact])
    assert chain.verify()
    chain.head.transactions[0] = nudged
    assert chain.head.merkle_root() != chain.head.recorded_root
    assert not chain.verify()


_amount = st.floats(allow_nan=False, allow_infinity=False, width=64)
_FIELDS = {
    "window": st.integers(0, 10_000),
    "seller_id": st.text(max_size=8),
    "buyer_id": st.text(max_size=8),
    "energy_kwh": _amount,
    "payment": _amount,
    "price": _amount,
}


def _bits(value):
    return struct.pack(">d", value) if isinstance(value, float) else value


_trade_amount = st.floats(0.0, 1e6, allow_nan=False)


@given(
    base=st.fixed_dictionaries(
        {name: _FIELDS[name] for name in ("window", "seller_id", "buyer_id")},
        optional={"energy_kwh": _trade_amount, "price": _trade_amount},
    ),
    field=st.sampled_from(sorted(_FIELDS)),
    data=st.data(),
)
def test_changing_any_field_changes_the_id_and_fails_verify(base, field, data):
    # NaN is left out: HomeTrace refuses it at the boundary, so no trade
    # amount can carry one, and float.hex spells every NaN the same way.
    base = {"energy_kwh": 0.5, "price": 95.0, **base}
    base["payment"] = base["price"] * base["energy_kwh"]  # the validators' rule
    value = data.draw(_FIELDS[field].filter(lambda v: _bits(v) != _bits(base[field])))
    original = SettlementTransaction(**base)
    changed = SettlementTransaction(**{**base, field: value})
    assert changed.transaction_id() != original.transaction_id()
    chain = make_chain()
    chain.append_transactions([original])
    assert chain.verify()
    chain.head.transactions[0] = changed
    assert chain.head.merkle_root() != chain.head.recorded_root
    assert not chain.verify()


def test_every_block_records_its_merkle_root():
    chain = make_chain()
    first = chain.append_transactions([tx(window=1)])
    second = chain.append_transactions([])
    assert chain.blocks[0].recorded_root == chain.blocks[0].merkle_root()
    assert first.recorded_root == first.merkle_root() != second.recorded_root
    # The next block links to the header over the recorded root.
    assert second.previous_hash == first.block_hash()
    first.transactions.append(tx(window=1, buyer="b2"))
    assert first.block_hash() == second.previous_hash  # the header did not move ...
    assert not chain.verify()  # ... but its contents no longer match it
    # A forged replacement block records its own root: its header no longer links.
    forged = [tx(window=1), tx(window=1, buyer="b2")]
    chain.blocks[1] = Block(1, first.previous_hash, first.proposer_id, forged, first.votes)
    assert chain.blocks[1].block_hash() != second.previous_hash and not chain.verify()


def test_balances_and_queries():
    chain = make_chain()
    chain.append_transactions([tx(window=1, seller="alice", buyer="bob", energy=1.0, price=100.0)])
    chain.append_transactions([tx(window=2, seller="carol", buyer="alice", energy=0.5, price=90.0)])
    assert chain.balance_of("alice") == pytest.approx(100.0 - 45.0)
    assert chain.balance_of("bob") == pytest.approx(-100.0)
    assert len(chain.transactions_for_window(1)) == 1
    assert len(chain.all_transactions()) == 2
