"""Pluggable aggregation topologies for the Paillier sum collection.

Protocols 2–4 all collect one encrypted sum from a set of *contributors*
(requesters) toward a single recipient.  The seed implementation did this
over a serial **chain** — O(n) sequential hops on the critical path.  This
module abstracts the *shape* of that collection into an
:class:`AggregationTopology` that compiles a contributor count into an
:class:`AggregationSchedule`: a sequence of **layers**, where all hops
inside one layer are independent of each other and aggregate concurrently
on the simulated clock.

Three topologies ship:

* ``chain`` — the paper's serial chain: ``n`` layers of one hop each,
  critical-path depth ``n``;
* ``tree:2`` (alias ``tree``) — a binary aggregation tree: contributors
  pair up per layer, depth ``ceil(log2 n) + 1``;
* ``tree:k`` — a k-ary aggregation tree, depth ``ceil(log_k n) + 1``.

The ``+ 1`` is the *delivery hop*: the root's product must still reach
its consumer (the final recipient, or the root's own re-broadcast in
Protocol 4), and the cost model charges that hop like any other.

Correctness invariants (enforced by ``tests/core/test_topologies.py``):

* every contributor appears as a **sender exactly once** across the whole
  schedule (so bandwidth is topology-invariant — ``n`` ciphertext-sized
  messages no matter the shape);
* every contributor except the root is **merged exactly once** into some
  partial product, and the root's partial is the full product;
* Paillier aggregation is a product in ``Z_{n²}`` — commutative and
  associative — so the final ciphertext is **bit-identical** across
  topologies as long as each contributor encrypts its own value exactly
  once in the same order (which :func:`repro.core.protocols.aggregation.
  aggregate` guarantees).

Only the *critical-path communication depth* changes between topologies;
the cost model charges each layer as the ``max`` over its concurrent hops
instead of their sum (see
:meth:`repro.net.costmodel.CostModel.layered_aggregation_cost`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = [
    "AggregationHop",
    "AggregationSchedule",
    "AggregationTopology",
    "ChainTopology",
    "TreeTopology",
    "resolve_topology",
    "TOPOLOGY_NAMES",
]


@dataclass(frozen=True)
class AggregationHop:
    """One merge step: ``sender``'s partial product folds into ``receiver``.

    Both are indices into the contributor list.  The sender transmits its
    current partial product (one ciphertext) and takes no further part in
    the aggregation; the receiver multiplies the received ciphertext into
    its own partial.
    """

    sender: int
    receiver: int


@dataclass(frozen=True)
class AggregationSchedule:
    """A compiled aggregation plan for one contributor count.

    Attributes:
        topology: name of the topology that produced the schedule.
        contributor_count: number of contributors the schedule covers.
        layers: merge layers; hops within one layer touch disjoint
            receivers-from-distinct-senders and run concurrently on the
            simulated clock.
        root: index of the contributor left holding the full product.
    """

    topology: str
    contributor_count: int
    layers: Tuple[Tuple[AggregationHop, ...], ...]
    root: int

    @property
    def merge_hop_count(self) -> int:
        """Internal merge messages (excludes the final delivery hop)."""
        return sum(len(layer) for layer in self.layers)

    @property
    def critical_path_depth(self) -> int:
        """Sequential message times on the critical path, delivery included.

        Each layer costs one message time (its hops are concurrent); the
        trailing ``+ 1`` is the delivery of the root's product to its
        consumer.  For the chain this equals ``contributor_count``: one
        sequential message time per contributor.
        """
        return len(self.layers) + 1

    def validate(self) -> None:
        """Check the structural invariants (used by tests and on build)."""
        n = self.contributor_count
        senders: List[int] = [hop.sender for layer in self.layers for hop in layer]
        if len(set(senders)) != len(senders):
            raise ValueError(f"{self.topology}: a contributor sends twice")
        if self.root in senders:
            raise ValueError(f"{self.topology}: the root must not send a merge hop")
        if n and sorted(senders + [self.root]) != list(range(n)):
            raise ValueError(f"{self.topology}: schedule does not cover all contributors")
        retired: set = set()
        for layer in self.layers:
            layer_senders = {hop.sender for hop in layer}
            if layer_senders & {hop.receiver for hop in layer}:
                raise ValueError(
                    f"{self.topology}: a layer hop depends on another hop in the same layer"
                )
            for hop in layer:
                if hop.sender in retired or hop.receiver in retired:
                    raise ValueError(f"{self.topology}: hop touches a retired contributor")
            retired.update(layer_senders)


class AggregationTopology:
    """Base class: compiles contributor counts into aggregation schedules."""

    #: stable name used for config selection and per-topology stats keys.
    name: str = "abstract"

    def schedule(self, contributor_count: int) -> AggregationSchedule:
        raise NotImplementedError


class ChainTopology(AggregationTopology):
    """The paper's serial chain: contributor ``i`` forwards to ``i + 1``.

    Depth is ``n`` (``n - 1`` merge hops plus the delivery hop), matching
    the seed implementation's accounting bit for bit.
    """

    name = "chain"

    def schedule(self, contributor_count: int) -> AggregationSchedule:
        layers = tuple(
            (AggregationHop(sender=i, receiver=i + 1),)
            for i in range(contributor_count - 1)
        )
        return AggregationSchedule(
            topology=self.name,
            contributor_count=contributor_count,
            layers=layers,
            root=max(contributor_count - 1, 0),
        )


class TreeTopology(AggregationTopology):
    """A k-ary aggregation tree (binary by default).

    Each layer partitions the surviving contributors into groups of at
    most ``arity``; every group's tail members send their partials to the
    group head concurrently, and only the heads survive into the next
    layer.  Depth is ``ceil(log_arity n) + 1``.
    """

    def __init__(self, arity: int = 2) -> None:
        if arity < 2:
            raise ValueError("tree arity must be at least 2")
        self.arity = arity
        self.name = f"tree:{arity}"

    def schedule(self, contributor_count: int) -> AggregationSchedule:
        layers: List[Tuple[AggregationHop, ...]] = []
        active = list(range(contributor_count))
        while len(active) > 1:
            layer: List[AggregationHop] = []
            survivors: List[int] = []
            for start in range(0, len(active), self.arity):
                group = active[start : start + self.arity]
                head = group[0]
                survivors.append(head)
                layer.extend(
                    AggregationHop(sender=member, receiver=head) for member in group[1:]
                )
            if layer:
                layers.append(tuple(layer))
            active = survivors
        return AggregationSchedule(
            topology=self.name,
            contributor_count=contributor_count,
            layers=tuple(layers),
            root=active[0] if active else 0,
        )


#: Topology names accepted by :func:`resolve_topology` (``tree:<k>`` for
#: any arity ``k >= 2`` is accepted beyond the listed aliases).
TOPOLOGY_NAMES = ("chain", "tree", "tree:2", "tree:4")

_CACHE: Dict[str, AggregationTopology] = {}


def resolve_topology(spec: str) -> AggregationTopology:
    """Resolve a configuration string into a (cached) topology instance.

    Accepted specs: ``"chain"``, ``"tree"`` (binary), ``"tree:<k>"`` for a
    k-ary tree with ``k >= 2``.  Raises ``ValueError`` for anything else so
    a typo in ``ProtocolConfig.aggregation_topology`` fails loudly at
    context construction instead of silently falling back to the chain.
    """
    normalized = (spec or "chain").strip().lower()
    if normalized == "tree":
        normalized = "tree:2"
    cached = _CACHE.get(normalized)
    if cached is not None:
        return cached
    if normalized == "chain":
        topology: AggregationTopology = ChainTopology()
    elif normalized.startswith("tree:"):
        try:
            arity = int(normalized.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"invalid tree arity in topology spec {spec!r}") from None
        topology = TreeTopology(arity)
    else:
        raise ValueError(
            f"unknown aggregation topology {spec!r} (expected 'chain', 'tree' or 'tree:<k>')"
        )
    _CACHE[normalized] = topology
    return topology
