"""Fleet descriptions the deployment planner searches over.

A :class:`FleetSpec` is the planner's *input contract*: the part of a
deployment the operator cannot choose — how many hosts the day runs on,
how many cores each host has, what the links between agents look like,
how many agents trade and how many market windows the day contains.
Everything the operator *can* choose (topology, session scope, transport,
worker count, pipelining, key size) is the planner's
search space (:mod:`repro.planning.search`).

Link profiles mirror the two calibrated profiles of
:mod:`repro.net.costmodel`: the LAN profile is the default
:class:`~repro.net.costmodel.NetworkCostModel` (containers on one switch,
0.5 ms / 100 MB/s) and the WAN profile matches
:meth:`~repro.net.costmodel.CostModel.for_wan_profile` (a container in
every home crossing residential broadband, 5 ms / 20 MB/s).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

__all__ = ["LinkProfile", "FleetSpec", "LAN_PROFILE", "WAN_PROFILE", "resolve_link_profile"]


@dataclass(frozen=True)
class LinkProfile:
    """Latency/bandwidth of the links between the fleet's agents.

    Attributes:
        name: short label used in plans and benchmark output.
        latency_seconds: one-way per-message latency.
        bandwidth_bytes_per_second: link bandwidth.
    """

    name: str
    latency_seconds: float
    bandwidth_bytes_per_second: float

    def __post_init__(self) -> None:
        if self.latency_seconds < 0:
            raise ValueError(f"negative link latency {self.latency_seconds!r}")
        if self.bandwidth_bytes_per_second <= 0:
            raise ValueError(
                f"non-positive link bandwidth {self.bandwidth_bytes_per_second!r}"
            )


#: Containers on one LAN switch — the default NetworkCostModel.
LAN_PROFILE = LinkProfile("lan", 0.0005, 100e6)
#: A container in every home, messages crossing residential broadband —
#: the CostModel.for_wan_profile calibration.
WAN_PROFILE = LinkProfile("wan", 0.005, 20e6)

_NAMED_PROFILES = {"lan": LAN_PROFILE, "wan": WAN_PROFILE}


def resolve_link_profile(spec) -> LinkProfile:
    """Resolve ``"lan"`` / ``"wan"`` / an explicit profile into a LinkProfile."""
    if isinstance(spec, LinkProfile):
        return spec
    try:
        return _NAMED_PROFILES[str(spec).strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown link profile {spec!r} (expected 'lan', 'wan' or a LinkProfile)"
        ) from None


@dataclass(frozen=True)
class FleetSpec:
    """The fixed facts of a deployment the planner must plan *for*.

    Attributes:
        hosts: machines available to run shard workers.  More than one
            host forces ``transport="socket"`` (``LocalTransport``
            messages are in-process and cannot reach another machine).
        cores_per_host: worker slots per host; the planner never plans
            more workers than ``hosts * cores_per_host``.
        link: latency/bandwidth profile of the agent links.
        agent_count: smart homes trading in a market window.
        windows_per_day: market windows the day executes.
        key_size: Paillier modulus size the deployment must run at (a
            security requirement, so a single size by default).
        key_size_candidates: optional additional key sizes the operator
            is willing to run (empty means ``(key_size,)`` — key size is
            normally *not* a speed knob the planner may turn).
        comparison_bits: bit width of the secure price/ratio comparisons.
    """

    hosts: int = 1
    cores_per_host: int = 1
    link: LinkProfile = LAN_PROFILE
    agent_count: int = 12
    windows_per_day: int = 6
    key_size: int = 1024
    key_size_candidates: Tuple[int, ...] = field(default_factory=tuple)
    comparison_bits: int = 64

    def __post_init__(self) -> None:
        for name in ("hosts", "cores_per_host", "agent_count", "windows_per_day"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"FleetSpec.{name} must be a positive int, got {value!r}")
        if self.agent_count < 2:
            raise ValueError("FleetSpec.agent_count must be at least 2 (a market needs peers)")
        if not isinstance(self.key_size, int) or self.key_size < 64:
            raise ValueError(f"invalid FleetSpec.key_size {self.key_size!r}")
        if not isinstance(self.comparison_bits, int) or self.comparison_bits < 2:
            raise ValueError(f"invalid FleetSpec.comparison_bits {self.comparison_bits!r}")
        object.__setattr__(self, "link", resolve_link_profile(self.link))
        for size in self.key_size_candidates:
            if not isinstance(size, int) or size < 64:
                raise ValueError(f"invalid key-size candidate {size!r}")

    @property
    def total_cores(self) -> int:
        """Worker slots available across the whole fleet."""
        return self.hosts * self.cores_per_host

    @property
    def key_sizes(self) -> Tuple[int, ...]:
        """The key sizes the planner may consider (sorted, deduplicated)."""
        sizes = set(self.key_size_candidates) | {self.key_size}
        return tuple(sorted(sizes))

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.hosts} host(s) x {self.cores_per_host} core(s), "
            f"{self.agent_count} agents, {self.windows_per_day} windows/day, "
            f"{self.link.name} links "
            f"({self.link.latency_seconds * 1e3:g} ms, "
            f"{self.link.bandwidth_bytes_per_second / 1e6:g} MB/s)"
        )
