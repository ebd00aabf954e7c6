"""Unit tests for the runtime cost model."""

import math
import pytest

from repro.net.costmodel import CostModel, CryptoCostModel, NetworkCostModel


def test_crypto_cost_scales_cubically_with_key_size():
    small = CryptoCostModel(key_size=512)
    large = CryptoCostModel(key_size=2048)
    assert large.encrypt_seconds == pytest.approx(small.encrypt_seconds * 64)
    assert large.decrypt_seconds == pytest.approx(small.decrypt_seconds * 64)


def test_pipelined_crypto_removes_enc_dec_from_critical_path():
    pipelined = CostModel.for_key_size(2048, pipelined_crypto=True)
    blocking = CostModel.for_key_size(2048, pipelined_crypto=False)
    assert pipelined.encryption_cost(100) == 0.0
    assert pipelined.decryption_cost(100) == 0.0
    assert blocking.encryption_cost(100) > 0.0
    # Homomorphic aggregation is always on the critical path.
    assert pipelined.aggregation_cost(100) > 0.0


def test_layered_aggregation_cost_is_depth_message_times():
    # The serial chain is the one-hop-per-layer case: charging n layers
    # must be bit-identical to n sequential message times.
    model = CostModel.for_key_size(512)
    for hops in (1, 7, 128):
        charged = model.layered_aggregation_cost(hops, 128)
        assert charged == hops * model.network.message_seconds(128)


def test_layered_aggregation_cost_scales_with_depth_not_hops():
    # A binary tree over 128 contributors has depth 8 (7 layers + delivery)
    # even though it sends 128 messages — the latency-hiding win.
    model = CostModel.for_key_size(512)
    tree = model.layered_aggregation_cost(8, 256)
    chain = model.layered_aggregation_cost(128, 256)
    assert chain == pytest.approx(tree * 16)


def test_round_cost_independent_of_pair_count():
    model = CostModel.for_key_size(512)
    assert model.round_cost(128) == model.network.message_seconds(128)


def test_message_seconds_increase_with_size():
    network = CostModel.for_key_size(512).network
    assert network.message_seconds(10_000_000) > network.message_seconds(100)


def test_window_setup_cost_positive():
    assert CostModel.for_key_size(512).window_setup_cost() > 0


def test_comparison_cost_components():
    model = CostModel.for_key_size(1024)
    assert model.comparison_cost(100, 64) == pytest.approx(
        100 * model.crypto.garbled_gate_seconds + 64 * model.crypto.ot_transfer_seconds
    )


def test_runtime_roughly_key_size_independent_when_pipelined():
    """The paper observes runtime does not depend on the key size."""
    def window_runtime(key_size: int) -> float:
        model = CostModel.for_key_size(key_size)
        ciphertext = 2 * key_size // 8
        # Per-window session setup plus two aggregation chains of 200 hops,
        # a secure comparison and a few parallel rounds — the same cost
        # structure the private engine charges for one trading window.
        return (
            model.window_setup_cost()
            + model.layered_aggregation_cost(200, ciphertext) * 2
            + model.comparison_cost(400, 64)
            + model.round_cost(96) * 4
            + model.aggregation_cost(400)
        )

    runtime_512 = window_runtime(512)
    runtime_2048 = window_runtime(2048)
    assert runtime_2048 / runtime_512 < 1.2


def test_pooled_encryption_cost_is_mulmod_scale():
    blocking = CostModel.for_key_size(1024, pipelined_crypto=False)
    # A pooled encryption costs orders of magnitude less than a fresh one
    # (single modular multiplication vs. full exponentiation).
    assert blocking.encryption_cost(1, pooled=True) < blocking.encryption_cost(1) / 100
    # Pipelining still zeroes both variants on the critical path.
    pipelined = CostModel.for_key_size(1024, pipelined_crypto=True)
    assert pipelined.encryption_cost(10, pooled=True) == 0.0


def test_offline_precompute_cost_always_positive():
    # Offline precompute is charged regardless of pipelining — it lands on
    # the separate offline clock, never the critical path.
    for pipelined in (True, False):
        model = CostModel.for_key_size(1024, pipelined_crypto=pipelined)
        assert model.offline_precompute_cost(10) > 0.0
    # And it scales cubically with the key size like any exponentiation.
    small = CostModel.for_key_size(512).offline_precompute_cost(1)
    large = CostModel.for_key_size(2048).offline_precompute_cost(1)
    assert large == pytest.approx(small * 64)


def test_crt_decrypt_speedup_reflected_in_decrypt_cost():
    crt = CryptoCostModel(key_size=1024)
    textbook = CryptoCostModel(key_size=1024, crt_decrypt_speedup=1.0)
    assert crt.decrypt_seconds == pytest.approx(
        textbook.decrypt_seconds / crt.crt_decrypt_speedup
    )


def test_network_cost_model_defaults():
    network = NetworkCostModel()
    assert network.message_seconds(0) == pytest.approx(network.per_message_latency_seconds)
    assert network.message_seconds(10**8) > 0.5


# ---------------------------------------------------------------------------
# Metamorphic properties (PR 9)
#
# The deployment planner's cost predictor is documented as monotone in
# link quality and phase scalars.  These properties pin that contract
# down metamorphically: instead of asserting absolute numbers,
# each test transforms an input along one axis (worse link, zeroed offline
# phases, chain-shaped layers) and asserts the documented relation between
# the two outputs.

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.costmodel import pipelined_day_cost, unpipelined_day_cost


def _model_for_link(latency_seconds, bandwidth):
    return CostModel(
        crypto=CryptoCostModel(key_size=1024),
        network=NetworkCostModel(
            per_message_latency_seconds=latency_seconds,
            bandwidth_bytes_per_second=bandwidth,
        ),
        pipelined_crypto=True,
    )


link_params = st.tuples(
    st.floats(min_value=1e-5, max_value=0.1),   # latency (s)
    st.floats(min_value=1e5, max_value=1e9),    # bandwidth (B/s)
)


@settings(max_examples=50, deadline=None)
@given(
    link_params,
    st.floats(min_value=0.0, max_value=0.2),   # extra latency
    st.floats(min_value=1.0, max_value=100.0), # bandwidth divisor
    st.integers(min_value=1, max_value=64),    # hops
    st.integers(min_value=1, max_value=100_000),  # message bytes
)
def test_worse_links_never_cheaper(link, extra_latency, bw_divisor, hops, size):
    latency, bandwidth = link
    better = _model_for_link(latency, bandwidth)
    worse = _model_for_link(latency + extra_latency, bandwidth / bw_divisor)
    assert worse.layered_aggregation_cost(hops, size) >= (
        better.layered_aggregation_cost(hops, size)
    )
    assert worse.round_cost(size) >= better.round_cost(size)
    assert worse.network.message_seconds(size) >= better.network.message_seconds(size)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.2),
    st.floats(min_value=1.0, max_value=100.0),
)
def test_worse_links_never_shrink_planner_day_cost(extra_latency, bw_divisor):
    from repro.planning import FleetSpec, LinkProfile, candidate_day_seconds

    base_link = LinkProfile("base", 0.0005, 100e6)
    worse_link = LinkProfile(
        "worse", 0.0005 + extra_latency, 100e6 / bw_divisor
    )
    knobs = dict(
        key_size=1024, topology="tree:4", session_scope="day",
        transport="socket", workers=2,
        pipeline=True,
    )
    base_total, _ = candidate_day_seconds(
        FleetSpec(hosts=2, cores_per_host=2, link=base_link,
                  agent_count=16, windows_per_day=4),
        **knobs,
    )
    worse_total, _ = candidate_day_seconds(
        FleetSpec(hosts=2, cores_per_host=2, link=worse_link,
                  agent_count=16, windows_per_day=4),
        **knobs,
    )
    assert worse_total >= base_total


phase_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
    ),
    min_size=0,
    max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(phase_lists)
def test_pipelined_day_never_slower(phases):
    # The two schedules fold the same terms in different association
    # orders, so mathematical equality (e.g. every max() won by the online
    # phase) can land a few ulps apart — compare with an FP tolerance.
    pipelined = pipelined_day_cost(phases)
    unpipelined = unpipelined_day_cost(phases)
    assert pipelined <= unpipelined or math.isclose(
        pipelined, unpipelined, rel_tol=1e-9
    )


@settings(max_examples=50, deadline=None)
@given(phase_lists, st.floats(min_value=0.0, max_value=100.0))
def test_pipelining_gains_nothing_without_successor_offline_work(phases, anchor):
    # When every window past the anchor has a zero offline phase there is
    # nothing to hide behind the predecessor's online phase, and both
    # schedules fold the identical float sequence in the identical order —
    # so the equality is bit-exact, not approximate.
    degenerate = [
        (anchor if i == 0 else 0.0, online)
        for i, (_, online) in enumerate(phases)
    ]
    assert pipelined_day_cost(degenerate) == unpipelined_day_cost(degenerate)


def test_wan_profile_dominates_lan_on_message_costs():
    lan = CostModel.for_key_size(1024)
    wan = CostModel.for_wan_profile(1024)
    for size in (0, 64, 4096, 10**6):
        assert wan.network.message_seconds(size) > lan.network.message_seconds(size)
        assert wan.round_cost(size) > lan.round_cost(size)
        assert wan.layered_aggregation_cost(16, size) > lan.layered_aggregation_cost(16, size)
    # Compute-side charges are link-independent.
    assert wan.aggregation_cost(100) == lan.aggregation_cost(100)
    assert wan.comparison_offline_cost(190) == lan.comparison_offline_cost(190)
