"""Integration: the cryptographic engine reproduces the plaintext engine.

This is the central correctness claim of the reproduction: running the PEM
through Protocols 1-4 (Paillier aggregation, garbled-circuit comparison,
private ratio distribution) yields the same market case, the same clearing
price and the same pairwise allocation as the plaintext reference engine,
up to fixed-point encoding error.
"""

import pytest

from helpers import pair_energies
from repro.core import PAPER_PARAMETERS, PlainTradingEngine
from repro.core.market import MarketCase
from repro.core.protocols import PrivateTradingEngine, ProtocolConfig
from repro.data import TraceConfig, generate_dataset

HOME_COUNT = 18
KEY_SIZE = 128


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(TraceConfig(home_count=HOME_COUNT, window_count=720, seed=2020))


@pytest.fixture(scope="module")
def engines():
    plain = PlainTradingEngine(PAPER_PARAMETERS)
    private = PrivateTradingEngine(
        params=PAPER_PARAMETERS,
        config=ProtocolConfig(key_size=KEY_SIZE, key_pool_size=4, seed=11),
    )
    return plain, private


# Windows spanning morning (no market), shoulder (general), midday (often
# extreme), afternoon and evening.
WINDOWS = [30, 180, 240, 330, 390, 480, 560, 700]


@pytest.fixture(scope="module")
def paired_results(dataset, engines):
    plain, private = engines
    plain_day = plain.run_day(dataset, windows=WINDOWS)
    private_traces = private.run_windows(dataset, WINDOWS)
    plain_by_window = {r.window: r for r in plain_day.windows}
    return [(trace, plain_by_window[trace.result.window]) for trace in private_traces]


def test_same_market_case(paired_results):
    for trace, reference in paired_results:
        assert trace.result.case == reference.case


def test_same_clearing_price(paired_results):
    for trace, reference in paired_results:
        assert trace.result.clearing_price == pytest.approx(
            reference.clearing_price, abs=1e-2
        )


def test_same_buyer_coalition_cost(paired_results):
    for trace, reference in paired_results:
        assert trace.result.buyer_coalition_cost == pytest.approx(
            reference.buyer_coalition_cost, rel=1e-3, abs=1e-6
        )


def test_same_grid_interaction(paired_results):
    for trace, reference in paired_results:
        assert trace.result.grid_interaction_kwh == pytest.approx(
            reference.grid_interaction_kwh, rel=1e-3, abs=1e-4
        )


def test_same_pairwise_allocation(paired_results):
    for trace, reference in paired_results:
        if reference.case == MarketCase.NO_MARKET:
            assert trace.result.clearing is None
            continue
        private_clearing = trace.result.clearing
        reference_clearing = reference.clearing
        private_pairs = pair_energies(private_clearing.trades)
        for trade in reference_clearing.trades:
            assert private_pairs.get((trade.seller_id, trade.buyer_id), 0.0) == pytest.approx(
                trade.energy_kwh, rel=2e-3, abs=1e-8
            )


def test_same_seller_utilities(paired_results):
    for trace, reference in paired_results:
        for seller_id, utility in reference.seller_utilities.items():
            assert trace.result.seller_utilities[seller_id] == pytest.approx(
                utility, rel=1e-3
            )


def test_protocol_measurements_present(paired_results):
    market_traces = [t for t, r in paired_results if r.case != MarketCase.NO_MARKET]
    assert market_traces, "the sampled windows must include market windows"
    for trace in market_traces:
        assert trace.bandwidth_bytes > 0
        assert trace.simulated_runtime_seconds > 0
        assert trace.market_evaluation_leader_ids
        assert trace.ratio_holder_id is not None
    # The offline/online split: pool warm-up is reported per window and the
    # first market window (which fills the pools from empty) pays the bulk.
    assert sum(t.offline_seconds for t in market_traces) > 0


def test_leaders_are_role_consistent(paired_results, dataset):
    for trace, reference in paired_results:
        if reference.case == MarketCase.NO_MARKET:
            continue
        seller_leader, buyer_leader = trace.market_evaluation_leader_ids
        assert seller_leader in reference.coalitions.seller_ids
        assert buyer_leader in reference.coalitions.buyer_ids
        if trace.pricing_leader_id is not None:
            assert trace.pricing_leader_id in reference.coalitions.buyer_ids
