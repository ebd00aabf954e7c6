"""Protocol 4 — Private Distribution.

Allocates the pairwise trading amounts ``e_ij`` and payments ``m_ji``
without revealing the market demand/supply totals or any individual net
energy.  In the general market:

1. a random seller ``H_s`` publishes its Paillier public key; the buyers
   aggregate ``Enc(|sn_j|)`` along the configured aggregation topology
   and the final aggregated ciphertext (an encryption of ``E_b``) is
   re-broadcast inside the buyer coalition;
2. each buyer ``H_j`` raises that ciphertext to the integer
   ``round(K / |sn_j|)`` — homomorphically multiplying the hidden ``E_b`` by
   ``K / |sn_j|`` — and sends the result together with the public scale
   ``K`` to ``H_s``;
3. ``H_s`` decrypts each ciphertext, recovers the *demand ratio*
   ``|sn_j| / E_b`` (non-private per Lemma 4) and broadcasts the ratios
   within the seller coalition;
4. every seller ``H_i`` computes ``e_ij = sn_i · |sn_j| / E_b``, routes the
   energy to ``H_j`` and receives the payment ``m_ji = p* · e_ij``.

The extreme market swaps the two coalitions' roles (the buyers learn the
supply ratios ``sn_i / E_s`` and compute ``e_ij = |sn_j| · sn_i / E_s``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List

import numpy as np

from ...crypto.paillier import PaillierCiphertext
from ...net.message import Message, MessageKind, encode_metadata
from ...net.network import NetworkError
from ..market import MarketCase, MarketClearing, pairwise_book
from .aggregation import aggregate
from .context import AgentRuntime, ProtocolContext

__all__ = ["DistributionResult", "run_private_distribution"]


@dataclass
class DistributionResult:
    """Outcome of Private Distribution for one window.

    Attributes:
        clearing: the pairwise allocation in the same structure the
            plaintext engine produces, so results are directly comparable.
        ratio_holder_id: the agent that decrypted and broadcast the ratios.
        ratios: the (non-private) demand or supply ratios it observed,
            keyed by agent id.
    """

    clearing: MarketClearing
    ratio_holder_id: str
    ratios: Dict[str, float] = field(default_factory=dict)


def _coalition_aggregate(
    context: ProtocolContext,
    members: List[AgentRuntime],
    values: List[int],
    public_key,
) -> PaillierCiphertext:
    """Aggregate encrypted values within one coalition (Lines 3-5).

    The partial products travel along the configured aggregation topology
    (the paper's member-to-member chain by default); the final product is
    then re-broadcast inside the coalition by the topology's root — the
    chain's last member, a tree's root — so every member holds the
    aggregate ciphertext.  There is no separate final recipient: the
    re-broadcast is the delivery, charged as one round by the caller.
    """
    outcome = aggregate(
        context,
        members,
        values,
        public_key,
        MessageKind.DEMAND_AGGREGATE,
        final_recipient=None,
    )
    outcome.root.party.broadcast(
        [m.agent_id for m in members],
        MessageKind.DEMAND_AGGREGATE,
        payload=outcome.ciphertext.to_bytes(),
        metadata={"window": context.coalitions.window, "final": True},
    )
    return outcome.ciphertext


def _run_ratio_phase(
    context: ProtocolContext,
    requesters: List[AgentRuntime],
    ratio_holder: AgentRuntime,
) -> Dict[str, float]:
    """Lines 2-8: compute each requester's share ratio at the ratio holder.

    ``requesters`` is the coalition whose shares are being computed (buyers
    in the general market, sellers in the extreme market); ``ratio_holder``
    belongs to the opposite coalition and ends up knowing only the ratios.
    """
    codec = context.codec
    scale = context.config.ratio_scale
    ciphertext_bytes = context.ciphertext_bytes(ratio_holder.public_key)

    # Aggregate the requesters' |net energy| under the holder's public key.
    magnitudes = [abs(r.state.net_energy_kwh) for r in requesters]
    encoded = [max(1, codec.encode(m)) for m in magnitudes]
    aggregated = _coalition_aggregate(context, requesters, encoded, ratio_holder.public_key)
    # The aggregation charges its own critical path (topology layers plus
    # the delivery slot); the final re-broadcast is one round on top.
    context.charge_round(ciphertext_bytes)

    # Each requester homomorphically multiplies the hidden total by the
    # integer round(K / own); only the public scale K accompanies the
    # ciphertext (sending the exact multiplier would leak |sn_j|).
    ratios: Dict[str, float] = {}
    multipliers = [max(1, round(scale / own)) for own in encoded]
    for requester, multiplier in zip(requesters, multipliers):
        scaled = aggregated.multiply_plaintext(multiplier)
        context.charge_homomorphic_ops(1)
        requester.party.send(
            ratio_holder.agent_id,
            MessageKind.RATIO_SUBMISSION,
            payload=scaled.to_bytes(),
            metadata={"window": context.coalitions.window, "scale": scale},
        )
    # All requesters submit concurrently: one communication round.
    context.charge_round(ciphertext_bytes)

    # The holder decrypts the submissions in one batch (CRT fast path) and
    # recovers the share ratios.
    submissions = ratio_holder.party.receive_all(MessageKind.RATIO_SUBMISSION)
    if len(submissions) != len(requesters):
        # A withheld submission must not shift the rest onto the wrong
        # requesters (the zip below pairs them by position).
        raise NetworkError(
            f"{ratio_holder.agent_id}: {len(submissions)} of {len(requesters)} "
            "ratio submissions arrived"
        )
    decrypted_values = ratio_holder.private_key.decrypt_many(
        PaillierCiphertext.from_bytes(message.payload, ratio_holder.public_key)
        for message in submissions
    )
    context.charge_decryptions(len(submissions))
    for requester, own_encoded, message, decrypted in zip(
        requesters, encoded, submissions, decrypted_values
    ):
        public_scale = message.metadata["scale"]
        # decrypted = total_encoded * round(K / own_encoded); dividing by the
        # public K recovers total/own, whose inverse is the share ratio.
        total_over_own = decrypted / public_scale
        share_ratio = 1.0 / total_over_own if total_over_own > 0 else 0.0
        ratios[requester.agent_id] = share_ratio

    # Broadcast the (non-private) ratios within the holder's own coalition.
    # The ratios are packed as doubles in the requesters' (public) coalition
    # order, which keeps the broadcast compact and key-size independent.
    packed_ratios = struct.pack(
        f"<{len(requesters)}d", *(ratios[r.agent_id] for r in requesters)
    )
    holder_side = context.sellers if ratio_holder in context.sellers else context.buyers
    ratio_holder.party.broadcast(
        [m.agent_id for m in holder_side],
        MessageKind.RATIO_BROADCAST,
        payload=packed_ratios,
        metadata={"window": context.coalitions.window},
    )
    context.charge_round(len(packed_ratios))
    return ratios


def run_private_distribution(
    context: ProtocolContext, case: MarketCase, clearing_price: float
) -> DistributionResult:
    """Execute Protocol 4 and return the clearing it produces.

    Args:
        context: the window's protocol context.
        case: the market case established by Private Market Evaluation.
        clearing_price: the window price (from Private Pricing in the
            general market, ``pl`` in the extreme market).
    """
    if case not in (MarketCase.GENERAL, MarketCase.EXTREME):
        raise ValueError("Private Distribution only runs when a market exists")
    coalitions = context.coalitions
    clearing = MarketClearing(
        window=coalitions.window, case=case, clearing_price=clearing_price
    )

    # Pairwise energy routing and payments all proceed concurrently: two
    # parallel rounds on the critical path regardless of the pair count.
    context.charge_round(96)
    context.charge_round(96)
    seller_ids = [seller.agent_id for seller in context.sellers]
    buyer_ids = [buyer.agent_id for buyer in context.buyers]

    if case == MarketCase.GENERAL:
        ratio_holder = context.choose_seller()
        ratios = _run_ratio_phase(context, context.buyers, ratio_holder)
        # Every seller ships its whole surplus, split by the demand ratios:
        # e_ij = sn_i * ratio_j, seller-major.
        surpluses = [seller.state.net_energy_kwh for seller in context.sellers]
        energy = np.outer(surpluses, [ratios[buyer_id] for buyer_id in buyer_ids])
        for seller_id, surplus in zip(seller_ids, surpluses):
            clearing.seller_sold_kwh[seller_id] = surplus
            clearing.seller_grid_export_kwh[seller_id] = 0.0
    else:
        ratio_holder = context.choose_buyer()
        ratios = _run_ratio_phase(context, context.sellers, ratio_holder)
        # Every buyer is fully served, split across sellers by the supply
        # ratios: e_ij = |sn_j| * ratio_i, buyer-major.
        demands = [-buyer.state.net_energy_kwh for buyer in context.buyers]
        energy = np.outer(demands, [ratios[seller_id] for seller_id in seller_ids])
        for buyer_id, demand in zip(buyer_ids, demands):
            clearing.buyer_bought_kwh[buyer_id] = demand
            clearing.buyer_grid_import_kwh[buyer_id] = 0.0
    book = clearing.trades = pairwise_book(
        seller_ids, buyer_ids, energy, clearing_price, buyer_major=case == MarketCase.EXTREME
    )

    def exchange() -> Iterator[Message]:
        """The phase's messages: each trade's energy route, then its payment.

        Every leg carries its exact amount as a fixed-width payload and the
        same ``{"window": w}`` metadata, encoded once for the whole phase.
        """
        metadata = {"window": coalitions.window}
        metadata_json = encode_metadata(metadata)
        leg = Message.trade_leg
        energy_route, payment_kind = MessageKind.ENERGY_ROUTE, MessageKind.PAYMENT
        for seller, buyer, amount, payment in zip(
            book.seller_index.tolist(), book.buyer_index.tolist(),
            book.energy_kwh.tolist(), book.payment.tolist(),
        ):  # fmt: skip
            seller_id, buyer_id = seller_ids[seller], buyer_ids[buyer]
            yield leg(seller_id, buyer_id, energy_route, amount, metadata, metadata_json)
            yield leg(buyer_id, seller_id, payment_kind, payment, metadata, metadata_json)

    # One run for the whole seller x buyer phase; the network pulls it
    # message by message, so ids, accounting and hooks keep trade order.
    context.network.deliver(exchange())

    # Each buyer's (general) or seller's (extreme) total: ``bincount`` adds
    # the amounts one by one in trade order, as a per-pair loop would (and
    # counts in ints when there is no trade, hence the cast).
    if case == MarketCase.GENERAL:
        index, parties = book.buyer_index, len(buyer_ids)
    else:
        index, parties = book.seller_index, len(seller_ids)
    totals = np.bincount(index, book.energy_kwh, parties).astype(float).tolist()
    if case == MarketCase.GENERAL:
        for buyer, buyer_id, bought in zip(context.buyers, buyer_ids, totals):
            demand = -buyer.state.net_energy_kwh
            clearing.buyer_bought_kwh[buyer_id] = bought
            clearing.buyer_grid_import_kwh[buyer_id] = max(0.0, demand - bought)
    else:
        for seller, seller_id, sold in zip(context.sellers, seller_ids, totals):
            surplus = seller.state.net_energy_kwh
            clearing.seller_sold_kwh[seller_id] = sold
            clearing.seller_grid_export_kwh[seller_id] = max(0.0, surplus - sold)

    return DistributionResult(
        clearing=clearing, ratio_holder_id=ratio_holder.agent_id, ratios=ratios
    )
