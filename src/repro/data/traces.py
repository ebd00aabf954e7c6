"""Synthetic generation/load traces with UMass Smart*-like structure.

The evaluation of the paper runs 720 one-minute trading windows spanning
7:00 AM to 7:00 PM over a single day of 300 smart homes' real solar
generation and demand data.  This module produces synthetic traces with the
same qualitative structure, which is what the evaluation shapes depend on:

* generation is zero before sunrise-ish and after sunset-ish windows and
  follows a noisy bell curve peaking around solar noon,
* household load has a morning peak, a midday trough and a stronger evening
  peak plus minute-level noise,
* consequently the seller coalition is empty early and late in the day
  (price pinned at the retail price ``ps_g``) and grows through midday
  (price dropping to the PEM band, frequently hitting the lower bound), and
* homes switch roles between buyer and seller across windows (Figure 4).

All randomness flows through an explicit seed so experiments are exactly
reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .profiles import HouseholdProfile, ProfilePopulation, sample_population

__all__ = [
    "TraceConfig",
    "HomeTrace",
    "TraceDataset",
    "generate_dataset",
]

#: Number of one-minute trading windows between 7:00 AM and 7:00 PM.
WINDOWS_PER_DAY = 720
#: Hour of day at which window 0 starts.
TRADING_START_HOUR = 7.0


@dataclass(frozen=True)
class TraceConfig:
    """Configuration for synthetic trace generation.

    Attributes:
        home_count: number of smart homes.
        window_count: number of one-minute trading windows (<= 720 typical).
        seed: master random seed.
        cloud_variability: 0 disables cloud dips, 1 gives heavy variability.
        population: household parameter distributions.
    """

    home_count: int = 300
    window_count: int = WINDOWS_PER_DAY
    seed: int = 2020
    cloud_variability: float = 0.35
    population: ProfilePopulation = field(default_factory=ProfilePopulation)

    def __post_init__(self) -> None:
        if self.home_count < 1:
            raise ValueError("home_count must be >= 1")
        if self.window_count < 1:
            raise ValueError("window_count must be >= 1")
        if not (0.0 <= self.cloud_variability <= 1.0):
            raise ValueError("cloud_variability must be in [0, 1]")


@dataclass
class HomeTrace:
    """Per-home time series over the trading day.

    Attributes:
        profile: the static household parameters.
        generation_kwh: solar energy generated in each window (kWh).
        load_kwh: energy demanded in each window (kWh).
    """

    profile: HouseholdProfile
    generation_kwh: np.ndarray
    load_kwh: np.ndarray

    def __post_init__(self) -> None:
        self.generation_kwh = self._checked("generation", self.generation_kwh)
        self.load_kwh = self._checked("load", self.load_kwh)
        if self.generation_kwh.shape != self.load_kwh.shape:
            raise ValueError("generation and load series must have the same length")

    def _checked(self, name: str, values: np.ndarray) -> np.ndarray:
        """``values`` as a read-only ``float64`` view, if finite and non-negative.

        A NaN or infinite reading would otherwise reach the market as an
        off-market home at the retail price.  The view is read-only, so no
        value can be corrupted after the check.
        """
        series = np.asarray(values, dtype=np.float64).view()
        valid = np.isfinite(series) & (series >= 0.0)
        if not valid.all():
            window = int(np.argmin(valid))
            raise ValueError(
                f"home {self.profile.home_id!r}: {name} in window {window} is "
                f"{float(series.flat[window])!r}; traces must be finite and non-negative"
            )
        series.flags.writeable = False
        return series

    @property
    def window_count(self) -> int:
        return int(self.generation_kwh.shape[0])


@dataclass
class TraceDataset:
    """A full synthetic dataset: one :class:`HomeTrace` per home."""

    config: TraceConfig
    homes: List[HomeTrace]

    @property
    def home_count(self) -> int:
        return len(self.homes)

    @property
    def window_count(self) -> int:
        return self.config.window_count



def _solar_shape(hour: float) -> float:
    """Normalized clear-sky solar output for an hour of day (0..1).

    A raised-cosine window between sunrise (6:30) and sunset (19:30),
    peaking at 13:00 — the same qualitative shape as the Smart* PV traces.
    """
    sunrise, sunset, peak = 6.5, 19.5, 13.0
    if hour <= sunrise or hour >= sunset:
        return 0.0
    if hour <= peak:
        phase = (hour - sunrise) / (peak - sunrise)
    else:
        phase = (sunset - hour) / (sunset - peak)
    return math.sin(phase * math.pi / 2.0) ** 2


def _load_shape(hour: float) -> float:
    """Normalized household activity level for an hour of day (0..1).

    Morning peak around 7:30, midday trough, stronger evening ramp starting
    around 17:00 — consistent with residential demand curves.
    """
    morning = math.exp(-((hour - 7.5) ** 2) / (2 * 1.2 ** 2))
    midday = 0.25 * math.exp(-((hour - 13.0) ** 2) / (2 * 3.0 ** 2))
    evening = 1.15 * math.exp(-((hour - 18.5) ** 2) / (2 * 1.8 ** 2))
    return min(1.0, morning + midday + evening)


def _cloud_series(window_count: int, variability: float, rng: random.Random) -> np.ndarray:
    """Smooth multiplicative cloud attenuation series shared by nearby homes."""
    if variability == 0:
        return np.ones(window_count)
    # A few random cloud events, each a smooth dip lasting 20-90 minutes.
    attenuation = np.ones(window_count)
    event_count = rng.randint(2, 6)
    for _ in range(event_count):
        center = rng.randrange(window_count)
        width = rng.randint(20, 90)
        depth = rng.uniform(0.2, 0.7) * variability
        for w in range(max(0, center - width), min(window_count, center + width)):
            falloff = math.exp(-((w - center) ** 2) / (2 * (width / 2.5) ** 2))
            attenuation[w] = min(attenuation[w], 1.0 - depth * falloff)
    return attenuation


def generate_dataset(config: TraceConfig | None = None) -> TraceDataset:
    """Generate a synthetic trace dataset.

    Args:
        config: generation parameters (defaults to the paper's 300 homes and
            720 windows with seed 2020).

    Returns:
        a :class:`TraceDataset`.
    """
    config = config or TraceConfig()
    rng = random.Random(config.seed)
    np_rng = np.random.default_rng(config.seed)

    profiles = sample_population(config.home_count, rng, config.population)
    hours = np.array(
        [TRADING_START_HOUR + w / 60.0 for w in range(config.window_count)]
    )
    solar = np.array([_solar_shape(h) for h in hours])
    activity = np.array([_load_shape(h) for h in hours])
    clouds = _cloud_series(config.window_count, config.cloud_variability, rng)

    minutes_per_window_hours = 1.0 / 60.0  # kWh per window = kW * (1/60) h

    homes: List[HomeTrace] = []
    for profile in profiles:
        # Per-home jitter so homes do not all flip roles at the same minute.
        pv_jitter = np_rng.normal(1.0, 0.08)
        load_jitter = np_rng.normal(1.0, 0.12)
        pv_noise = np.clip(np_rng.normal(1.0, 0.06, config.window_count), 0.0, None)
        load_noise = np.clip(np_rng.normal(1.0, 0.15, config.window_count), 0.05, None)

        generation_kw = (
            profile.pv_capacity_kw * max(pv_jitter, 0.0) * solar * clouds * pv_noise
        )
        load_kw = (
            profile.base_load_kw
            + profile.peak_load_kw * max(load_jitter, 0.2) * activity * load_noise
        )
        homes.append(
            HomeTrace(
                profile=profile,
                generation_kwh=np.maximum(generation_kw, 0.0) * minutes_per_window_hours,
                load_kwh=np.maximum(load_kw, 0.0) * minutes_per_window_hours,
            )
        )
    return TraceDataset(config=config, homes=homes)
