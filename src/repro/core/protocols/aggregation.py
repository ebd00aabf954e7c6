"""Paillier encrypted-sum aggregation shared by Protocols 2, 3 and 4.

Private Market Evaluation (the blinded demand/supply rounds), Private
Pricing (the two seller aggregates) and Private Distribution (the
requesters' magnitude aggregate) all collect an encrypted sum the same
way: each contributor encrypts its own value under one public key and the
ciphertexts are multiplied together hop by hop until a single party holds
the product.  This module holds that one aggregation so the protocols
cannot drift apart in how they charge the cost model, warm the target
key's randomizer pool, or record the per-topology traffic counters.

The *shape* of the collection is pluggable (:mod:`.topology`): the
paper's serial chain (Protocol 2 lines 2-9, Protocol 3 lines 3-8) is the
default, and tree topologies aggregate whole layers concurrently on the
simulated clock, cutting the critical path from O(n) hops to O(log n)
layers.  Every topology is *sum-preserving by construction*: each
contributor encrypts exactly once, in contributor order, and the final
ciphertext is the product of the same multiset of ciphertexts — so the
encrypted aggregate (and everything downstream of it) is bit-identical
across topologies, and only the simulated communication time changes.

The obfuscator-demand warm-up is topology-independent: every contributor
encrypts under the same (leader's) public key, so the aggregation's exact
demand — one obfuscator per contributor — is known upfront regardless of
the shape the ciphertexts travel in.  The leader's pool is topped up once
(offline) and each contributor's encryption is a single online modular
multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ...crypto.paillier import PaillierCiphertext
from ...net.message import MessageKind
from .context import AgentRuntime, ProtocolContext
from .topology import AggregationSchedule, AggregationTopology

__all__ = ["AggregationOutcome", "aggregate"]


@dataclass(frozen=True)
class AggregationOutcome:
    """What one aggregation produced.

    Attributes:
        ciphertext: the full encrypted sum (product of every contributor's
            ciphertext) — bit-identical across topologies.
        root: the contributor left holding the product (the chain's last
            member, a tree's root).  Protocol 4 uses it as the broadcast
            origin when there is no separate final recipient.
        schedule: the compiled topology schedule that was executed.
    """

    ciphertext: PaillierCiphertext
    root: AgentRuntime
    schedule: AggregationSchedule


def aggregate(
    context: ProtocolContext,
    contributors: List[AgentRuntime],
    values: List[int],
    public_key,
    kind: MessageKind,
    final_recipient: Optional[AgentRuntime] = None,
    topology: Optional[AggregationTopology] = None,
) -> AggregationOutcome:
    """Aggregate encrypted values across ``contributors`` along a topology.

    Each contributor encrypts its own value under ``public_key`` (in
    contributor order — what keeps the pool draws, and therefore the
    ciphertexts, independent of the topology); the schedule's merge hops
    then transmit and multiply partial products layer by layer.  When
    ``final_recipient`` is given, the root forwards the product to it as a
    last delivery hop; otherwise the root keeps the product (Protocol 4
    re-broadcasts it itself) and the delivery slot is still charged, since
    the product must reach its consumer either way.

    Cost accounting (all inside this function, so call sites stay
    uniform):

    * one (pooled) encryption per contributor, one homomorphic op per
      merge — identical across topologies;
    * the critical-path communication is charged through the
      latency-hiding model: one message time per schedule layer (hops in
      a layer are concurrent), not per hop;
    * the per-topology ``aggregation_hops`` / ``aggregation_rounds``
      counters in :class:`~repro.net.stats.TrafficStats` record the
      bandwidth/latency split.

    Returns the :class:`AggregationOutcome`; the ciphertext is also what
    the final recipient received when a delivery hop ran.
    """
    if not contributors:
        raise ValueError("aggregation requires at least one contributor")
    if len(contributors) != len(values):
        raise ValueError("one value per contributor required")
    topology = topology or context.topology
    schedule = topology.schedule(len(contributors))
    window = context.coalitions.window

    context.warm_pool(public_key, len(contributors))
    partial: List[PaillierCiphertext] = [
        context.encrypt(public_key, value) for value in values
    ]

    hop_index = 0
    for layer in schedule.layers:
        for hop in layer:
            contributors[hop.sender].party.send(
                contributors[hop.receiver].agent_id,
                kind,
                payload=partial[hop.sender].to_bytes(),
                metadata={"window": window, "hop": hop_index},
            )
            partial[hop.receiver] = partial[hop.receiver].add_ciphertext(
                partial[hop.sender]
            )
            context.charge_homomorphic_ops(1)
            hop_index += 1

    root = contributors[schedule.root]
    if final_recipient is not None:
        root.party.send(
            final_recipient.agent_id,
            kind,
            payload=partial[schedule.root].to_bytes(),
            metadata={"window": window, "hop": len(contributors) - 1},
        )
    context.charge_aggregation(
        schedule,
        context.ciphertext_bytes(public_key),
        delivered=final_recipient is not None,
    )
    return AggregationOutcome(
        ciphertext=partial[schedule.root], root=root, schedule=schedule
    )

