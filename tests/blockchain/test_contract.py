"""Tests for the settlement smart contract bridging clearing and the chain."""

import pytest

from helpers import book_from_trades
from repro.blockchain import (
    ConsortiumChain,
    ContractViolation,
    RoundRobinConsensus,
    SettlementContract,
    Validator,
)
from repro.core import PAPER_PARAMETERS
from repro.core.agent import AgentWindowState
from repro.core.coalition import form_coalitions
from repro.core.market import MarketClearing, MarketCase, clear_market


def make_contract():
    chain = ConsortiumChain(
        consensus=RoundRobinConsensus(validators=[Validator(f"v{i}") for i in range(4)])
    )
    return SettlementContract(chain=chain, params=PAPER_PARAMETERS)


def state(agent_id: str, net: float) -> AgentWindowState:
    return AgentWindowState(
        agent_id=agent_id,
        window=3,
        generation_kwh=max(net, 0.0),
        load_kwh=max(-net, 0.0),
        battery_kwh=0.0,
        battery_loss_coefficient=0.9,
        preference_k=100.0,
    )


def make_clearing(price=95.0):
    coalitions = form_coalitions(3, [state("s1", 0.3), state("s2", 0.1), state("b1", -0.6)])
    return clear_market(coalitions, price, PAPER_PARAMETERS)


def test_settle_window_commits_all_trades():
    contract = make_contract()
    clearing = make_clearing()
    block = contract.settle_window(clearing)
    assert block is not None
    assert len(block.transactions) == len(clearing.trades)
    on_chain = contract.chain.transactions_for_window(3)
    assert sum(tx.energy_kwh for tx in on_chain) == pytest.approx(clearing.traded_energy_kwh)
    assert sum(tx.payment for tx in on_chain) == pytest.approx(sum(clearing.trades.payment))
    assert contract.chain.verify()


def test_settle_window_rejects_duplicates():
    contract = make_contract()
    clearing = make_clearing()
    contract.settle_window(clearing)
    with pytest.raises(ContractViolation):
        contract.settle_window(clearing)


def test_settle_window_rejects_out_of_band_price():
    contract = make_contract()
    clearing = make_clearing()
    bad = MarketClearing(
        window=9,
        case=MarketCase.GENERAL,
        clearing_price=150.0,
        trades=clearing.trades,
    )
    with pytest.raises(ContractViolation):
        contract.settle_window(bad)


def test_settle_empty_window_returns_none():
    contract = make_contract()
    empty = MarketClearing(window=7, case=MarketCase.NO_MARKET, clearing_price=120.0)
    assert contract.settle_window(empty) is None
    with pytest.raises(ContractViolation, match="already settled"):
        contract.settle_window(empty)


def test_balances_match_market_payments():
    contract = make_contract()
    clearing = make_clearing()
    contract.settle_window(clearing)
    chain = contract.chain
    for seller_id, sold in clearing.seller_sold_kwh.items():
        assert chain.balance_of(seller_id) == pytest.approx(clearing.clearing_price * sold)
    assert chain.balance_of("b1") == pytest.approx(-sum(clearing.trades.payment))


def test_settle_day_batches_multiple_windows():
    contract = make_contract()
    c3 = make_clearing()
    c4 = MarketClearing(window=4, case=MarketCase.GENERAL, clearing_price=95.0)
    blocks = contract.settle_day([c3, c4])
    # Window 4 has no trades: settled but produces no block.
    assert len(blocks) == 1
    for clearing in (c3, c4):
        with pytest.raises(ContractViolation, match="already settled"):
            contract.settle_window(clearing)


def test_settle_day_rejects_whole_batch_before_committing():
    contract = make_contract()
    good = make_clearing()
    from repro.core.market import Trade

    tampered = Trade(seller_id="s1", buyer_id="b1", energy_kwh=0.1, payment=99.9)
    bad = MarketClearing(
        window=9,
        case=MarketCase.GENERAL,
        clearing_price=999.0,
        trades=book_from_trades([tampered], ["s1"], ["b1"]),
    )
    with pytest.raises(ContractViolation):
        contract.settle_day([good, bad])
    # Nothing committed: the corrected batch can be retried cleanly.
    assert contract.settle_day([good]) != []
    assert contract.settle_window(
        MarketClearing(window=9, case=MarketCase.NO_MARKET, clearing_price=120.0)
    ) is None
