"""Topology-invariance suite for the aggregation subsystem.

The aggregation topologies (chain, binary/k-ary tree) must be pure
*communication-shape* choices: bit-identical encrypted sums, decrypted
results and offline accounting versus the serial chain, at any worker
count, with only the simulated critical-path time (and the per-topology
round counters) allowed to differ.  This suite enforces that contract
property-based (random requester counts and arities) and end-to-end
(whole trading days, sharded runs at workers 1/2/4).
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import experiment_aggregation_topologies
from repro.core import PAPER_PARAMETERS
from repro.core.agent import AgentWindowState
from repro.core.coalition import form_coalitions
from repro.core.protocols import (
    AggregationHop,
    AggregationSchedule,
    ChainTopology,
    PrivateTradingEngine,
    ProtocolConfig,
    ProtocolContext,
    TreeTopology,
    aggregate,
    resolve_topology,
)
from repro.net import CostModel, SimulatedNetwork
from repro.net.message import MessageKind

from tests.helpers import TEST_KAPPA, TINY_MARKET_WINDOWS, tiny_dataset

KEY_SIZE = 128


# -- schedule structure -------------------------------------------------------------


def test_chain_schedule_shape():
    schedule = ChainTopology().schedule(5)
    assert schedule.root == 4
    assert schedule.critical_path_depth == 5
    assert schedule.merge_hop_count == 4
    assert all(len(layer) == 1 for layer in schedule.layers)
    schedule.validate()


def test_binary_tree_schedule_shape():
    schedule = TreeTopology(2).schedule(8)
    assert schedule.root == 0
    assert schedule.critical_path_depth == 4  # log2(8) + delivery
    assert schedule.merge_hop_count == 7
    assert [len(layer) for layer in schedule.layers] == [4, 2, 1]
    schedule.validate()


def test_kary_tree_allows_shared_receiver_within_layer():
    schedule = TreeTopology(4).schedule(4)
    # One layer: three children merging into the same parent, concurrently.
    assert [len(layer) for layer in schedule.layers] == [3]
    assert {hop.receiver for hop in schedule.layers[0]} == {0}
    schedule.validate()


@given(
    count=st.integers(min_value=1, max_value=200),
    arity=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_schedule_invariants_hold_for_random_shapes(count, arity):
    for topology, depth in (
        (ChainTopology(), count),
        (TreeTopology(arity), _expected_tree_depth(count, arity)),
    ):
        schedule = topology.schedule(count)
        schedule.validate()
        # Bandwidth invariance: one merge hop per non-root contributor.
        assert schedule.merge_hop_count == count - 1
        assert schedule.critical_path_depth == depth


def _expected_tree_depth(count: int, arity: int) -> int:
    """Integer reference: layers of ceil-division plus the delivery hop.

    Deliberately not ``ceil(log(count, arity)) + 1`` — float log
    overestimates at exact arity powers (e.g. ``math.log(125, 5) > 3.0``).
    """
    depth = 1
    while count > 1:
        count = -(-count // arity)
        depth += 1
    return depth


@given(count=st.integers(min_value=2, max_value=500), arity=st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_tree_critical_path_depth_is_logarithmic(count, arity):
    depth = TreeTopology(arity).schedule(count).critical_path_depth
    assert depth == _expected_tree_depth(count, arity)
    assert depth <= math.ceil(math.log2(count)) + 2  # log2 bound, any arity
    # Strictly better than the chain once there is anything to parallelize
    # (the single equality case is three contributors in a binary tree).
    chain_depth = ChainTopology().schedule(count).critical_path_depth
    if count > 3 or (count == 3 and arity > 2):
        assert depth < chain_depth
    else:
        assert depth <= chain_depth


def test_validate_rejects_malformed_schedules():
    double_send = AggregationSchedule(
        topology="bad",
        contributor_count=3,
        layers=((AggregationHop(0, 1),), (AggregationHop(0, 2),)),
        root=2,
    )
    with pytest.raises(ValueError):
        double_send.validate()
    intra_layer_dependency = AggregationSchedule(
        topology="bad",
        contributor_count=3,
        layers=((AggregationHop(0, 1), AggregationHop(1, 2)),),
        root=2,
    )
    with pytest.raises(ValueError):
        intra_layer_dependency.validate()


def test_resolve_topology_specs():
    assert resolve_topology("chain").name == "chain"
    assert resolve_topology("tree").name == "tree:2"
    assert resolve_topology("tree:2").name == "tree:2"
    assert resolve_topology("tree:5").arity == 5
    with pytest.raises(ValueError):
        resolve_topology("ring")
    with pytest.raises(ValueError):
        resolve_topology("tree:1")
    # A typo fails at context construction, not mid-protocol.
    with pytest.raises(ValueError):
        ProtocolContext(
            coalitions=form_coalitions(0, _states(2)),
            network=SimulatedNetwork(),
            config=ProtocolConfig(
                key_size=KEY_SIZE, key_pool_size=2, aggregation_topology="mesh"
            ),
        )


# -- bit-identical sums (property-based) --------------------------------------------


@given(
    count=st.integers(min_value=2, max_value=24),
    arity=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=10, deadline=None)
def test_random_topologies_produce_bit_identical_sums(count, arity, seed):
    """The identity certificate, property-based.

    Seeded encryption randomness + encrypt-once-in-order means every
    topology must reproduce the chain's encrypted sum *bit for bit*, and
    all of them must decrypt to the plaintext sum.
    """
    observations = experiment_aggregation_topologies(
        requester_counts=(count,),
        topologies=("chain", f"tree:{arity}"),
        crypto_key_size=KEY_SIZE,
        seed=seed,
    )
    chain, tree = observations
    assert chain.topology == "chain"
    assert tree.encrypted_sum == chain.encrypted_sum
    assert tree.decrypted_sum == chain.decrypted_sum == chain.expected_sum
    assert tree.offline_seconds == chain.offline_seconds
    assert tree.hops == chain.hops  # bandwidth invariance
    assert tree.critical_path_rounds <= chain.critical_path_rounds
    assert tree.simulated_seconds <= chain.simulated_seconds


def _states(buyer_count: int):
    states = [
        AgentWindowState(
            agent_id=f"b{i:03d}",
            window=0,
            generation_kwh=0.0,
            load_kwh=0.3 + 0.01 * i,
            battery_kwh=0.0,
            battery_loss_coefficient=0.9,
            preference_k=150.0,
        )
        for i in range(buyer_count)
    ]
    states.append(
        AgentWindowState(
            agent_id="leader",
            window=0,
            generation_kwh=1.0,
            load_kwh=0.0,
            battery_kwh=0.0,
            battery_loss_coefficient=0.9,
            preference_k=150.0,
        )
    )
    return states


def _pooled_aggregate(topology_name: str, buyer_count: int = 9):
    """One aggregation with randomizer pools *enabled* (CSPRNG obfuscators)."""
    network = SimulatedNetwork(cost_model=CostModel.for_key_size(512))
    context = ProtocolContext(
        coalitions=form_coalitions(0, _states(buyer_count)),
        network=network,
        config=ProtocolConfig(
            key_size=KEY_SIZE,
            key_pool_size=2,
            seed=13,
            use_comparison_pool=False,
            aggregation_topology=topology_name,
        ),
        params=PAPER_PARAMETERS,
        rng=random.Random(13),
    )
    leader = context.sellers[0]
    values = [5 * (i + 1) for i in range(len(context.buyers))]
    outcome = aggregate(
        context,
        context.buyers,
        values,
        leader.public_key,
        MessageKind.MARKET_AGGREGATE,
        final_recipient=leader,
    )
    return (
        leader.private_key.decrypt(outcome.ciphertext),
        sum(values),
        network.stats,
    )


def test_pooled_aggregation_is_topology_invariant():
    """With real CSPRNG pool draws the ciphertexts differ run to run, but
    the decrypted sum, offline accounting and traffic must not."""
    chain_sum, expected, chain_stats = _pooled_aggregate("chain")
    tree_sum, _, tree_stats = _pooled_aggregate("tree:2")
    assert chain_sum == tree_sum == expected
    assert tree_stats.offline_seconds == chain_stats.offline_seconds
    assert tree_stats.pool_fallbacks == chain_stats.pool_fallbacks
    assert tree_stats.total_bytes == chain_stats.total_bytes
    assert tree_stats.total_messages == chain_stats.total_messages
    # Only the latency side may (and must) differ.
    assert tree_stats.simulated_seconds < chain_stats.simulated_seconds
    assert tree_stats.aggregation_hops["tree:2"] == chain_stats.aggregation_hops["chain"]
    assert (
        tree_stats.aggregation_rounds["tree:2"]
        < chain_stats.aggregation_rounds["chain"]
    )


# -- whole trading days across topologies -------------------------------------------


def _day_engine(topology: str) -> PrivateTradingEngine:
    return PrivateTradingEngine(
        params=PAPER_PARAMETERS,
        config=ProtocolConfig(
            key_size=KEY_SIZE,
            key_pool_size=4,
            seed=21,
            ot_extension_kappa=TEST_KAPPA,
            aggregation_topology=topology,
        ),
    )


@pytest.fixture(scope="module")
def topology_day_reports():
    dataset = tiny_dataset()
    return {
        topology: _day_engine(topology).run_windows_report(
            dataset, TINY_MARKET_WINDOWS, workers=1
        )
        for topology in ("chain", "tree:2")
    }


def test_day_results_economically_identical_across_topologies(topology_day_reports):
    chain, tree = topology_day_reports["chain"], topology_day_reports["tree:2"]
    for a, b in zip(chain.traces, tree.traces):
        result_a, result_b = a.result, b.result
        assert result_a.window == result_b.window
        assert result_a.case == result_b.case
        assert result_a.clearing_price == result_b.clearing_price
        assert result_a.clearing == result_b.clearing
        assert result_a.seller_utilities == result_b.seller_utilities
        assert result_a.buyer_costs == result_b.buyer_costs
        assert result_a.grid_interaction_kwh == result_b.grid_interaction_kwh
        assert result_a.bandwidth_bytes == result_b.bandwidth_bytes
        assert a.offline_seconds == b.offline_seconds
        assert a.gc_offline_seconds == b.gc_offline_seconds
        assert a.pool_fallback_count == b.pool_fallback_count
        assert a.gc_fallback_count == b.gc_fallback_count
        # Leader elections draw from the same seeded stream either way.
        assert a.market_evaluation_leader_ids == b.market_evaluation_leader_ids


def test_tree_day_beats_chain_day_on_the_simulated_clock(topology_day_reports):
    chain, tree = topology_day_reports["chain"], topology_day_reports["tree:2"]
    assert tree.stats.simulated_seconds < chain.stats.simulated_seconds
    assert tree.stats.total_bytes == chain.stats.total_bytes
    assert sum(tree.stats.aggregation_hops.values()) == sum(
        chain.stats.aggregation_hops.values()
    )
    assert sum(tree.stats.aggregation_rounds.values()) < sum(
        chain.stats.aggregation_rounds.values()
    )


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_tree_topology_is_shard_invariant(topology_day_reports, workers):
    """Sharded tree-topology runs reproduce the serial run bit for bit.

    ``identical_to`` covers traces, merged stats, both offline clocks,
    fallback counters and the per-topology hop/round counters.
    """
    baseline = topology_day_reports["tree:2"]
    report = _day_engine("tree:2").run_windows_report(
        tiny_dataset(), TINY_MARKET_WINDOWS, workers=workers
    )
    assert baseline.identical_to(report)
