"""Agents (smart homes / microgrids) participating in the PEM.

An agent owns a household profile, tracks its battery state across trading
windows, and for every window produces an :class:`AgentWindowState` that
contains exactly the private quantities the PEM protocols operate on:
generation ``g``, load ``l``, battery action ``b``, loss coefficient ``ε``,
preference ``k`` and the derived net energy ``sn = g - l - b`` (Eq. 1).

The battery replay that leads up to a traded window builds one state per
home per window, so the step is kept scalar and cheap: the state is a
``NamedTuple`` built positionally, and the policy sees plain floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Protocol

from ..data.profiles import HouseholdProfile

__all__ = [
    "AgentRole",
    "AgentWindowState",
    "BatteryPolicy",
    "GreedyBatteryPolicy",
    "NoBatteryPolicy",
    "SmartHomeAgent",
]

#: Minutes per trading window (the paper trades once per minute).
WINDOW_MINUTES = 1.0
#: Net-energy magnitudes below this threshold put the agent off-market;
#: avoids degenerate sellers created by floating-point noise.
OFF_MARKET_EPSILON = 1e-9


class AgentRole(str, Enum):
    """Role of an agent in a single trading window."""

    SELLER = "seller"
    BUYER = "buyer"
    OFF_MARKET = "off_market"


class AgentWindowState(NamedTuple):
    """The private per-window data of one agent.

    All energy quantities are in kWh for the trading window; ``power_rate_*``
    fields carry the same quantities expressed as average kW over the window
    (used by the Stackelberg pricing formula, which the paper states in
    rate-like units).

    An immutable record (``state._replace(load_kwh=...)`` builds a modified
    copy) rather than a dataclass, because construction cost matters: the
    battery replay builds one per agent per window.
    """

    agent_id: str
    window: int
    generation_kwh: float
    load_kwh: float
    battery_kwh: float
    battery_loss_coefficient: float
    preference_k: float

    @property
    def net_energy_kwh(self) -> float:
        """``sn = g - l - b`` (Eq. 1)."""
        return self.generation_kwh - self.load_kwh - self.battery_kwh

    @property
    def role(self) -> AgentRole:
        net = self.net_energy_kwh
        if net > OFF_MARKET_EPSILON:
            return AgentRole.SELLER
        if net < -OFF_MARKET_EPSILON:
            return AgentRole.BUYER
        return AgentRole.OFF_MARKET

    @property
    def generation_rate_kw(self) -> float:
        """Generation expressed as average kW over the window."""
        return self.generation_kwh * 60.0 / WINDOW_MINUTES

    @property
    def load_rate_kw(self) -> float:
        return self.load_kwh * 60.0 / WINDOW_MINUTES

    @property
    def battery_rate_kw(self) -> float:
        return self.battery_kwh * 60.0 / WINDOW_MINUTES

    def pricing_denominator_term(self) -> float:
        """The seller's term ``g + 1 + ε*b - b`` in the optimal-price formula (Eq. 13).

        Expressed in rate units (kW), matching the load-profile strategy
        space of the Stackelberg game.
        """
        return (
            self.generation_rate_kw
            + 1.0
            + self.battery_loss_coefficient * self.battery_rate_kw
            - self.battery_rate_kw
        )


_new_record = tuple.__new__


class BatteryPolicy(Protocol):
    """Strategy deciding how much the battery charges/discharges each window."""

    def battery_action(
        self,
        profile: HouseholdProfile,
        state_of_charge_kwh: float,
        generation_kwh: float,
        load_kwh: float,
    ) -> float:
        """Return ``b`` in kWh (positive = charging, negative = discharging)."""
        ...  # pragma: no cover - protocol definition


@dataclass(frozen=True)
class NoBatteryPolicy:
    """Never uses the battery (the paper's ``b = 0`` case)."""

    def battery_action(
        self,
        profile: HouseholdProfile,
        state_of_charge_kwh: float,
        generation_kwh: float,
        load_kwh: float,
    ) -> float:
        return 0.0


@dataclass(frozen=True)
class GreedyBatteryPolicy:
    """Charge a fraction of surplus, discharge a fraction of deficit.

    Attributes:
        charge_fraction: share of the window's surplus routed to the battery.
        discharge_fraction: share of the window's deficit served from the
            battery when charge is available.
        max_rate_fraction: cap on the per-window (dis)charge as a fraction of
            the battery capacity (models a C-rate limit).
    """

    charge_fraction: float = 0.3
    discharge_fraction: float = 0.5
    max_rate_fraction: float = 0.01

    def battery_action(
        self,
        profile: HouseholdProfile,
        state_of_charge_kwh: float,
        generation_kwh: float,
        load_kwh: float,
    ) -> float:
        if not profile.has_battery:
            return 0.0
        rate_cap = profile.battery_capacity_kwh * self.max_rate_fraction
        surplus = generation_kwh - load_kwh
        if surplus > 0:
            headroom = profile.battery_capacity_kwh - state_of_charge_kwh
            return max(0.0, min(surplus * self.charge_fraction, headroom, rate_cap))
        deficit = -surplus
        available = state_of_charge_kwh
        return -max(0.0, min(deficit * self.discharge_fraction, available, rate_cap))


class SmartHomeAgent:
    """A stateful smart-home agent stepping through the trading day.

    Args:
        profile: static household parameters.
        battery_policy: how the battery is operated; defaults to the greedy
            policy when the home owns a battery.
        initial_charge_fraction: initial battery state of charge.
    """

    def __init__(
        self,
        profile: HouseholdProfile,
        battery_policy: Optional[BatteryPolicy] = None,
        initial_charge_fraction: float = 0.5,
    ) -> None:
        if not (0.0 <= initial_charge_fraction <= 1.0):
            raise ValueError("initial_charge_fraction must be in [0, 1]")
        self.profile = profile
        self.battery_policy: BatteryPolicy = battery_policy or (
            GreedyBatteryPolicy() if profile.has_battery else NoBatteryPolicy()
        )
        self.state_of_charge_kwh = profile.battery_capacity_kwh * initial_charge_fraction

    def observe_window(
        self, window: int, generation_kwh: float, load_kwh: float
    ) -> AgentWindowState:
        """Consume one window of trace data and produce the private state.

        Applies the battery policy and updates the internal state of charge
        (charging is lossy by ``ε``; discharging is taken at face value, the
        loss having been paid at charge time).
        """
        if generation_kwh < 0 or load_kwh < 0:
            raise ValueError("generation and load must be non-negative")
        profile = self.profile
        charge = self.state_of_charge_kwh
        battery_kwh = self.battery_policy.battery_action(
            profile, charge, generation_kwh, load_kwh
        )
        if battery_kwh > 0:
            stored = battery_kwh * profile.battery_loss_coefficient
            self.state_of_charge_kwh = min(profile.battery_capacity_kwh, charge + stored)
        elif battery_kwh < 0:
            self.state_of_charge_kwh = max(0.0, charge + battery_kwh)
        # ``tuple.__new__`` directly: the generated ``__new__`` adds a Python
        # frame per home and window for an arity check this call satisfies.
        return _new_record(
            AgentWindowState,
            (
                profile.home_id,
                window,
                generation_kwh,
                load_kwh,
                battery_kwh,
                profile.battery_loss_coefficient,
                profile.preference_k,
            ),
        )
