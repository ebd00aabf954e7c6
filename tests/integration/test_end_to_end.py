"""Integration: full pipeline — traces → private trading → on-chain settlement."""

import pytest

from repro.blockchain import (
    ConsortiumChain,
    RoundRobinConsensus,
    SettlementContract,
    Validator,
)
from repro.core import PAPER_PARAMETERS, PlainTradingEngine
from repro.core.market import MarketCase
from repro.core.protocols import PrivateTradingEngine, ProtocolConfig
from repro.data import TraceConfig, generate_dataset


@pytest.fixture(scope="module")
def pipeline_run():
    dataset = generate_dataset(TraceConfig(home_count=15, window_count=720, seed=2021))
    engine = PrivateTradingEngine(
        params=PAPER_PARAMETERS,
        config=ProtocolConfig(key_size=128, key_pool_size=4, seed=2),
    )
    windows = [260, 320, 380, 440]
    traces = engine.run_windows(dataset, windows)

    validators = [Validator(f"home-{i:03d}") for i in range(5)]
    contract = SettlementContract(
        chain=ConsortiumChain(consensus=RoundRobinConsensus(validators=validators)),
        params=PAPER_PARAMETERS,
    )
    blocks = []
    for trace in traces:
        if trace.result.clearing is not None:
            blocks.append(contract.settle_window(trace.result.clearing))
    return dataset, traces, contract, blocks


def test_all_market_windows_settled(pipeline_run):
    _, traces, contract, blocks = pipeline_run
    market_windows = [t.result.window for t in traces if t.result.clearing is not None]
    assert market_windows, "expected at least one market window in the sample"
    assert contract.settled_windows() >= set(market_windows)
    assert all(block is not None for block in blocks)


def test_chain_verifies_and_matches_market_totals(pipeline_run):
    _, traces, contract, _ = pipeline_run
    assert contract.chain.verify()
    for trace in traces:
        clearing = trace.result.clearing
        if clearing is None:
            continue
        on_chain = contract.chain.transactions_for_window(trace.result.window)
        energy = sum(tx.energy_kwh for tx in on_chain)
        assert energy == pytest.approx(clearing.traded_energy_kwh, rel=1e-9)
        assert sum(tx.payment for tx in on_chain) == pytest.approx(clearing.total_payments, rel=1e-9)
        assert len(on_chain) == len(clearing.trades)


def test_on_chain_balances_match_engine_payments(pipeline_run):
    _, traces, contract, _ = pipeline_run
    expected_balance = {}
    for trace in traces:
        clearing = trace.result.clearing
        if clearing is None:
            continue
        for trade in clearing.trades:
            expected_balance[trade.seller_id] = (
                expected_balance.get(trade.seller_id, 0.0) + trade.payment
            )
            expected_balance[trade.buyer_id] = (
                expected_balance.get(trade.buyer_id, 0.0) - trade.payment
            )
    for agent_id, expected in expected_balance.items():
        assert contract.chain.balance_of(agent_id) == pytest.approx(expected, rel=1e-9)


def test_private_engine_day_interface_matches_plain_series(pipeline_run):
    dataset, _, _, _ = pipeline_run
    windows = [300, 360]
    private_day = PrivateTradingEngine(
        params=PAPER_PARAMETERS,
        config=ProtocolConfig(key_size=128, key_pool_size=4, seed=2),
    ).run_day(dataset, windows=windows)
    plain_day = PlainTradingEngine(PAPER_PARAMETERS).run_day(dataset, windows=windows)
    assert len(private_day) == len(plain_day) == 2
    for private_window, plain_window in zip(private_day.windows, plain_day.windows):
        assert private_window.clearing_price == pytest.approx(
            plain_window.clearing_price, abs=1e-2
        )


def test_incentive_properties_hold_on_private_results(pipeline_run):
    from repro.core.incentives import check_individual_rationality

    _, traces, _, _ = pipeline_run
    for trace in traces:
        if trace.result.case == MarketCase.NO_MARKET:
            continue
        assert check_individual_rationality(trace.result).holds
