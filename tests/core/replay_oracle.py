"""Reference oracle: the battery replay as it was written before it went columnar.

``repro.data.loader.iter_windows`` now gathers each series into one
(window × home) matrix per call, ``AgentWindowState`` is a ``NamedTuple``
built positionally, and the engines hand a slice of the whole dataset to
agents built from fewer homes.  The code they replaced lives on here as the
specification the fast path is held to: per-home scalar reads, a frozen
dataclass state built by keyword, and a trimmed copy of every slice.  For any
dataset, home count, window range and battery policy the product replay must
reproduce these states and state-of-charge trajectories bit for bit
(``test_replay_oracle.py``).  Nothing outside the test suite may import this
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.agent import (
    OFF_MARKET_EPSILON,
    WINDOW_MINUTES,
    AgentRole,
    BatteryPolicy,
    GreedyBatteryPolicy,
    NoBatteryPolicy,
)
from repro.data.profiles import HouseholdProfile
from repro.data.traces import TraceDataset


@dataclass(frozen=True)
class OracleWindowState:
    agent_id: str
    window: int
    generation_kwh: float
    load_kwh: float
    battery_kwh: float
    battery_loss_coefficient: float
    preference_k: float

    @property
    def net_energy_kwh(self) -> float:
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
        return self.generation_kwh * 60.0 / WINDOW_MINUTES

    @property
    def load_rate_kw(self) -> float:
        return self.load_kwh * 60.0 / WINDOW_MINUTES

    @property
    def battery_rate_kw(self) -> float:
        return self.battery_kwh * 60.0 / WINDOW_MINUTES

    def pricing_denominator_term(self) -> float:
        return (
            self.generation_rate_kw
            + 1.0
            + self.battery_loss_coefficient * self.battery_rate_kw
            - self.battery_rate_kw
        )


class OracleAgent:
    def __init__(
        self,
        profile: HouseholdProfile,
        battery_policy: Optional[BatteryPolicy] = None,
        initial_charge_fraction: float = 0.5,
    ) -> None:
        self.profile = profile
        self.battery_policy = battery_policy or (
            GreedyBatteryPolicy() if profile.has_battery else NoBatteryPolicy()
        )
        self.state_of_charge_kwh = profile.battery_capacity_kwh * initial_charge_fraction

    @property
    def agent_id(self) -> str:
        return self.profile.home_id

    def observe_window(
        self, window: int, generation_kwh: float, load_kwh: float
    ) -> OracleWindowState:
        if generation_kwh < 0 or load_kwh < 0:
            raise ValueError("generation and load must be non-negative")
        battery_kwh = self.battery_policy.battery_action(
            self.profile, self.state_of_charge_kwh, generation_kwh, load_kwh
        )
        if battery_kwh > 0:
            stored = battery_kwh * self.profile.battery_loss_coefficient
            self.state_of_charge_kwh = min(
                self.profile.battery_capacity_kwh, self.state_of_charge_kwh + stored
            )
        elif battery_kwh < 0:
            self.state_of_charge_kwh = max(0.0, self.state_of_charge_kwh + battery_kwh)
        return OracleWindowState(
            agent_id=self.agent_id,
            window=window,
            generation_kwh=generation_kwh,
            load_kwh=load_kwh,
            battery_kwh=battery_kwh,
            battery_loss_coefficient=self.profile.battery_loss_coefficient,
            preference_k=self.profile.preference_k,
        )


def oracle_replay(
    dataset: TraceDataset,
    start: int,
    stop: int,
    home_count: Optional[int] = None,
    battery_policy: Optional[BatteryPolicy] = None,
) -> Tuple[List[List[OracleWindowState]], List[List[float]]]:
    """Every window's states and every agent's state of charge after it.

    Windows ``[start, stop)``, agents built from the first ``home_count``
    homes, each window read home by home and trimmed to the agents.
    """
    homes = dataset.homes if home_count is None else dataset.homes[:home_count]
    agents = [OracleAgent(home.profile, battery_policy=battery_policy) for home in homes]
    count = len(agents)
    states: List[List[OracleWindowState]] = []
    charges: List[List[float]] = []
    for window in range(start, stop):
        generation = [float(h.generation_kwh[window]) for h in dataset.homes][:count]
        load = [float(h.load_kwh[window]) for h in dataset.homes][:count]
        states.append(
            [
                agent.observe_window(window, generation[index], load[index])
                for index, agent in enumerate(agents)
            ]
        )
        charges.append([agent.state_of_charge_kwh for agent in agents])
    return states, charges
