"""Unit tests for the simulated network and traffic accounting."""

import pytest

from repro.net import CostModel, MessageKind, NetworkError, SimulatedNetwork


def make_network(with_cost_model: bool = False) -> SimulatedNetwork:
    return SimulatedNetwork(cost_model=CostModel.for_key_size(512) if with_cost_model else None)


def test_register_and_lookup():
    network = make_network()
    alice = network.register("alice")
    assert network.party("alice") is alice


def test_duplicate_registration_rejected():
    network = make_network()
    network.register("alice")
    with pytest.raises(NetworkError):
        network.register("alice")


def test_unknown_party_rejected():
    network = make_network()
    with pytest.raises(NetworkError):
        network.party("ghost")


def test_send_and_receive():
    network = make_network()
    alice = network.register("alice")
    bob = network.register("bob")
    alice.send("bob", MessageKind.GENERIC, payload=b"hello")
    (message,) = bob.receive_all()
    assert message.sender == "alice"
    assert message.payload == b"hello"


def test_send_to_unknown_recipient_rejected():
    network = make_network()
    alice = network.register("alice")
    with pytest.raises(NetworkError):
        alice.send("ghost", MessageKind.GENERIC)


def test_receive_filtered_by_kind():
    network = make_network()
    alice = network.register("alice")
    bob = network.register("bob")
    alice.send("bob", MessageKind.GENERIC, payload=b"1")
    alice.send("bob", MessageKind.PAYMENT, metadata={"amount": 5})
    (payment,) = bob.receive_all(MessageKind.PAYMENT)
    assert payment.kind == MessageKind.PAYMENT
    assert len(bob.receive_all()) == 1


def test_receive_filtered_preserves_residual_order():
    network = make_network()
    alice = network.register("alice")
    bob = network.register("bob")
    kinds = [
        MessageKind.GENERIC,
        MessageKind.PAYMENT,
        MessageKind.GENERIC,
        MessageKind.ENERGY_ROUTE,
        MessageKind.PAYMENT,
    ]
    for index, kind in enumerate(kinds):
        alice.send("bob", kind, payload=bytes([index]))
    # Drain the two payments (kept-deque path), then everything else: the
    # relative order of unmatched messages must be untouched.
    assert [m.payload for m in bob.receive_all(MessageKind.PAYMENT)] == [bytes([1]), bytes([4])]
    assert [m.payload for m in bob.receive_all()] == [bytes([0]), bytes([2]), bytes([3])]


def test_receive_filtered_miss_keeps_inbox():
    network = make_network()
    alice = network.register("alice")
    bob = network.register("bob")
    alice.send("bob", MessageKind.GENERIC, payload=b"x")
    assert bob.receive_all(MessageKind.PAYMENT) == []
    assert [m.payload for m in bob.receive_all()] == [b"x"]


def test_receive_all_on_an_empty_inbox_returns_nothing():
    network = make_network()
    alice = network.register("alice")
    network.register("bob")
    assert alice.receive_all() == []
    assert alice.receive_all(MessageKind.PAYMENT) == []


def test_receive_all():
    network = make_network()
    alice = network.register("alice")
    bob = network.register("bob")
    for i in range(3):
        alice.send("bob", MessageKind.GENERIC, payload=bytes([i]))
    alice.send("bob", MessageKind.PAYMENT)
    generic = bob.receive_all(MessageKind.GENERIC)
    assert len(generic) == 3
    rest = bob.receive_all()
    assert len(rest) == 1


def test_broadcast_excludes_sender():
    network = make_network()
    alice = network.register("alice")
    network.register("bob")
    network.register("carol")
    sent = alice.broadcast(["alice", "bob", "carol"], MessageKind.GENERIC)
    assert len(sent) == 2


def test_traffic_accounting():
    network = make_network()
    alice = network.register("alice")
    bob = network.register("bob")
    alice.send("bob", MessageKind.GENERIC, payload=b"x" * 36)
    stats = network.stats
    assert stats.total_messages == 1
    assert stats.total_bytes == 100
    assert stats.per_party["alice"].bytes_sent == 100
    assert stats.per_party["bob"].bytes_received == 100
    assert stats.average_bytes_per_party() == 100.0


def test_extra_traffic_charging():
    network = make_network()
    network.register("alice")
    network.charge_extra_traffic("alice", sent=500, received=200)
    assert network.stats.per_party["alice"].bytes_sent == 500
    assert network.stats.per_party["alice"].bytes_received == 200
    assert network.stats.total_bytes == 700


def test_crypto_time_charging_requires_cost_model():
    without = make_network(with_cost_model=False)
    without.charge_crypto_time(1.0)
    assert without.stats.simulated_seconds == 0.0
    with_model = make_network(with_cost_model=True)
    with_model.charge_crypto_time(1.0)
    assert with_model.stats.simulated_seconds == 1.0


def test_message_hooks_observe_deliveries():
    network = make_network()
    alice = network.register("alice")
    network.register("bob")
    seen = []
    network.add_message_hook(lambda m: seen.append(m.kind))
    alice.send("bob", MessageKind.ENERGY_ROUTE)
    assert seen == [MessageKind.ENERGY_ROUTE]


def test_stats_merge_and_snapshot():
    network = make_network()
    alice = network.register("alice")
    network.register("bob")
    alice.send("bob", MessageKind.GENERIC)
    other = make_network()
    other.register("bob")
    other.register("alice").send("bob", MessageKind.GENERIC)
    first, second = network.stats, other.stats
    first.merge(second)
    assert first.total_messages == 2
    snapshot = first.snapshot()
    assert snapshot["alice"]["messages_sent"] == 2
