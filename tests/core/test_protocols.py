"""Tests for the cryptographic protocols (Protocols 2-4) in isolation."""

import random

import pytest

from helpers import pair_energies
from repro.core import PAPER_PARAMETERS
from repro.core.agent import AgentWindowState
from repro.core.coalition import form_coalitions
from repro.core.market import MarketCase
from repro.core.protocols import ProtocolConfig, ProtocolContext
from repro.core.protocols.distribution import run_private_distribution
from repro.core.protocols.market_evaluation import run_market_evaluation
from repro.core.protocols.pricing import run_private_pricing
from repro.net import CostModel, SimulatedNetwork

KEY_SIZE = 128


def state(agent_id: str, net: float, k: float = 150.0) -> AgentWindowState:
    return AgentWindowState(
        agent_id=agent_id,
        window=0,
        generation_kwh=max(net, 0.0),
        load_kwh=max(-net, 0.0),
        battery_kwh=0.0,
        battery_loss_coefficient=0.9,
        preference_k=k,
    )


def make_context(states, seed=5):
    coalitions = form_coalitions(0, states)
    network = SimulatedNetwork(cost_model=CostModel.for_key_size(512))
    config = ProtocolConfig(key_size=KEY_SIZE, key_pool_size=3, seed=seed)
    context = ProtocolContext(
        coalitions=coalitions,
        network=network,
        config=config,
        params=PAPER_PARAMETERS,
        rng=random.Random(seed),
    )
    return context, coalitions, network


GENERAL_STATES = [
    state("s1", 0.08, k=160.0),
    state("s2", 0.12, k=220.0),
    state("s3", 0.05, k=140.0),
    state("b1", -0.30),
    state("b2", -0.25),
    state("b3", -0.10),
    state("b4", -0.05),
]

EXTREME_STATES = [
    state("s1", 0.40, k=160.0),
    state("s2", 0.35, k=220.0),
    state("b1", -0.20),
    state("b2", -0.10),
]


# -- Protocol 2: Private Market Evaluation -----------------------------------------


def test_market_evaluation_detects_general_market():
    context, coalitions, _ = make_context(GENERAL_STATES)
    result = run_market_evaluation(context)
    assert result.is_general_market is True
    assert result.is_general_market == coalitions.is_general_market


def test_market_evaluation_detects_extreme_market():
    context, coalitions, _ = make_context(EXTREME_STATES)
    result = run_market_evaluation(context)
    assert result.is_general_market is False
    assert result.is_general_market == coalitions.is_general_market


def test_market_evaluation_leaders_hold_only_blinded_values():
    context, coalitions, _ = make_context(GENERAL_STATES)
    result = run_market_evaluation(context)
    # The blinded aggregates differ from the true totals (nonces added) ...
    codec = context.codec
    true_demand = codec.encode(coalitions.market_demand_kwh)
    true_supply = codec.encode(coalitions.market_supply_kwh)
    assert result.blinded_demand != true_demand
    assert result.blinded_supply != true_supply
    # ... but their order matches the order of the true aggregates because
    # both are blinded by the same nonce sum.
    assert (result.blinded_supply < result.blinded_demand) == (
        coalitions.market_supply_kwh < coalitions.market_demand_kwh
    )
    blinding = result.blinded_demand - true_demand
    assert result.blinded_supply - true_supply == pytest.approx(blinding, abs=2)


def test_market_evaluation_requires_both_coalitions():
    context, _, _ = make_context([state("b1", -0.1), state("b2", -0.2)])
    with pytest.raises(ValueError):
        run_market_evaluation(context)


def test_market_evaluation_generates_traffic():
    context, _, network = make_context(GENERAL_STATES)
    run_market_evaluation(context)
    assert network.stats.total_messages > len(GENERAL_STATES)
    assert network.stats.total_bytes > 0
    assert network.stats.simulated_seconds > 0


# -- Protocol 3: Private Pricing ------------------------------------------------------


def test_private_pricing_matches_plaintext_formula():
    from repro.core.game import unconstrained_optimal_price

    context, coalitions, _ = make_context(GENERAL_STATES)
    result = run_private_pricing(context)
    expected = unconstrained_optimal_price(coalitions.sellers, PAPER_PARAMETERS.retail_price)
    assert result.unconstrained_price == pytest.approx(expected, rel=1e-4)
    assert result.clearing_price == PAPER_PARAMETERS.clamp_price(result.unconstrained_price)


def test_private_pricing_reveals_only_aggregates():
    context, coalitions, _ = make_context(GENERAL_STATES)
    result = run_private_pricing(context)
    assert result.preference_sum == pytest.approx(
        sum(s.preference_k for s in coalitions.sellers), rel=1e-6
    )
    assert result.denominator_sum == pytest.approx(
        sum(s.pricing_denominator_term() for s in coalitions.sellers), rel=1e-4
    )
    assert result.leader_buyer_id in coalitions.buyer_ids


def test_private_pricing_requires_sellers_and_buyers():
    context, _, _ = make_context([state("b1", -0.1), state("b2", -0.2)])
    with pytest.raises(ValueError):
        run_private_pricing(context)


# -- Protocol 4: Private Distribution ---------------------------------------------------


def test_private_distribution_general_matches_clear_market():
    from repro.core.market import clear_market

    context, coalitions, _ = make_context(GENERAL_STATES)
    price = 95.0
    result = run_private_distribution(context, MarketCase.GENERAL, price)
    reference = clear_market(coalitions, price, PAPER_PARAMETERS)
    private_pairs = pair_energies(result.clearing.trades)
    reference_pairs = pair_energies(reference.trades)
    for seller_id in coalitions.seller_ids:
        for buyer_id in coalitions.buyer_ids:
            assert private_pairs.get((seller_id, buyer_id), 0.0) == pytest.approx(
                reference_pairs.get((seller_id, buyer_id), 0.0), rel=1e-3, abs=1e-9
            )
    assert result.clearing.traded_energy_kwh == pytest.approx(
        reference.traded_energy_kwh, rel=1e-3
    )
    assert result.ratio_holder_id in coalitions.seller_ids


def test_private_distribution_extreme_matches_clear_market():
    from repro.core.market import clear_market

    context, coalitions, _ = make_context(EXTREME_STATES)
    price = PAPER_PARAMETERS.price_lower_bound
    result = run_private_distribution(context, MarketCase.EXTREME, price)
    reference = clear_market(coalitions, price, PAPER_PARAMETERS)
    assert result.clearing.traded_energy_kwh == pytest.approx(
        reference.traded_energy_kwh, rel=1e-3
    )
    for seller_id in coalitions.seller_ids:
        assert result.clearing.seller_grid_export_kwh[seller_id] == pytest.approx(
            reference.seller_grid_export_kwh[seller_id], rel=1e-3, abs=1e-6
        )
    assert result.ratio_holder_id in coalitions.buyer_ids


def test_private_distribution_ratios_sum_to_one():
    context, _, _ = make_context(GENERAL_STATES)
    result = run_private_distribution(context, MarketCase.GENERAL, 95.0)
    assert sum(result.ratios.values()) == pytest.approx(1.0, rel=1e-3)


def test_private_distribution_rejects_no_market_case():
    context, _, _ = make_context(GENERAL_STATES)
    with pytest.raises(ValueError):
        run_private_distribution(context, MarketCase.NO_MARKET, 95.0)


def test_private_distribution_payment_messages_flow():
    from repro.net import MessageKind

    context, coalitions, network = make_context(GENERAL_STATES)
    received = []
    network.add_message_hook(received.append)
    run_private_distribution(context, MarketCase.GENERAL, 95.0)
    kinds = [m.kind for m in received]
    assert MessageKind.ENERGY_ROUTE in kinds
    assert MessageKind.PAYMENT in kinds
    assert MessageKind.RATIO_BROADCAST in kinds


# -- Offline/online acceleration ------------------------------------------------------


def test_pool_warmup_charged_to_offline_clock():
    context, _, network = make_context(GENERAL_STATES)
    # Window setup (context construction) warmed the randomizer pools.
    assert network.stats.offline_seconds > 0
    online_before = network.stats.simulated_seconds
    offline_before = network.stats.offline_seconds
    run_market_evaluation(context)
    # The protocol's pooled encryptions stay off the offline clock except
    # for explicit top-ups; online time advances independently.
    assert network.stats.simulated_seconds > online_before
    assert network.stats.offline_seconds >= offline_before


def test_pooled_encryptions_avoid_online_fallback():
    context, _, _ = make_context(GENERAL_STATES)
    run_market_evaluation(context)
    run_private_pricing(context)
    pools = context.keyring.randomizer_pools
    assert sum(p.consumed for p in pools) > 0
    assert sum(p.fallback_count for p in pools) == 0


def test_pools_disabled_still_correct():
    coalitions = form_coalitions(0, GENERAL_STATES)
    network = SimulatedNetwork(cost_model=CostModel.for_key_size(512))
    config = ProtocolConfig(
        key_size=KEY_SIZE, key_pool_size=3, seed=5, use_randomizer_pools=False
    )
    context = ProtocolContext(
        coalitions=coalitions,
        network=network,
        config=config,
        params=PAPER_PARAMETERS,
        rng=random.Random(5),
    )
    result = run_market_evaluation(context)
    assert result.is_general_market == coalitions.is_general_market
    assert network.stats.offline_seconds == 0.0
