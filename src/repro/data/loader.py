"""Persistence and windowing helpers for trace datasets.

Provides CSV round-tripping (so a user can substitute the real UMass Smart*
traces by exporting them to the same layout) and per-window slicing used by
the trading engine.

:func:`iter_windows` is the front of the battery replay: it gathers each
series into one (window × home) matrix per call and hands every window to
the agents as a row of Python floats.  :func:`load_dataset_csv` refuses an
incomplete or ambiguous ``traces.csv`` rather than filling gaps with zeros.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List

import numpy as np

from .profiles import HouseholdProfile
from .traces import HomeTrace, TraceConfig, TraceDataset

__all__ = ["WindowSlice", "iter_windows", "save_dataset_csv", "load_dataset_csv"]


@dataclass(frozen=True)
class WindowSlice:
    """The data the market needs for a single trading window.

    Attributes:
        window: window index.
        home_ids: ids of all homes, aligned with the arrays below.
        generation_kwh: per-home generation in this window.
        load_kwh: per-home load in this window.
    """

    window: int
    home_ids: List[str]
    generation_kwh: List[float]
    load_kwh: List[float]


def _window_matrix(series: List[np.ndarray], start: int, stop: int) -> np.ndarray:
    """One series of every home as a (window × home) matrix over ``[start, stop)``."""
    if not series:
        return np.empty((stop - start, 0))
    return np.stack([values[start:stop] for values in series], axis=1)


def iter_windows(dataset: TraceDataset, start: int = 0, stop: int | None = None) -> Iterator[WindowSlice]:
    """Iterate over :class:`WindowSlice` objects for a range of windows.

    Each series is gathered once per call into a (window × home) ``float64``
    matrix over ``[start, stop)``; every yielded slice converts one row of it
    to Python floats, so the day is never held as Python objects at once.
    """
    stop = dataset.window_count if stop is None else stop
    if not (0 <= start <= stop <= dataset.window_count):
        raise ValueError(f"invalid window range [{start}, {stop})")
    homes = dataset.homes
    home_ids = [h.profile.home_id for h in homes]
    generation = _window_matrix([h.generation_kwh for h in homes], start, stop)
    load = _window_matrix([h.load_kwh for h in homes], start, stop)
    for row, window in enumerate(range(start, stop)):
        yield WindowSlice(window, home_ids, generation[row].tolist(), load[row].tolist())


_PROFILE_FIELDS = [
    "home_id",
    "pv_capacity_kw",
    "base_load_kw",
    "peak_load_kw",
    "battery_capacity_kwh",
    "battery_loss_coefficient",
    "preference_k",
]


def save_dataset_csv(dataset: TraceDataset, directory: str | Path) -> None:
    """Save a dataset as ``profiles.csv`` plus ``traces.csv``.

    ``traces.csv`` has one row per (home, window) with generation and load in
    kWh — the same logical layout as the UMass Smart* per-home files, so real
    traces can be converted into this format and loaded with
    :func:`load_dataset_csv`.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    with open(directory / "profiles.csv", "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_PROFILE_FIELDS)
        writer.writeheader()
        for home in dataset.homes:
            profile = home.profile
            writer.writerow({name: getattr(profile, name) for name in _PROFILE_FIELDS})

    with open(directory / "traces.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["home_id", "window", "generation_kwh", "load_kwh"])
        for home in dataset.homes:
            for window in range(home.window_count):
                writer.writerow(
                    [
                        home.profile.home_id,
                        window,
                        f"{float(home.generation_kwh[window]):.6f}",
                        f"{float(home.load_kwh[window]):.6f}",
                    ]
                )


def load_dataset_csv(directory: str | Path, config: TraceConfig | None = None) -> TraceDataset:
    """Load a dataset previously written by :func:`save_dataset_csv`.

    ``traces.csv`` must hold exactly one row per (home, window) for every
    home of ``profiles.csv`` and every window up to the largest one listed;
    a missing or duplicated row, or a row for a home ``profiles.csv`` does
    not list, raises :class:`ValueError` naming the home and the window.
    Values are checked by :class:`~repro.data.traces.HomeTrace` (finite,
    non-negative).
    """
    directory = Path(directory)
    profiles: dict[str, HouseholdProfile] = {}
    with open(directory / "profiles.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            profile = HouseholdProfile(
                home_id=row["home_id"],
                pv_capacity_kw=float(row["pv_capacity_kw"]),
                base_load_kw=float(row["base_load_kw"]),
                peak_load_kw=float(row["peak_load_kw"]),
                battery_capacity_kwh=float(row["battery_capacity_kwh"]),
                battery_loss_coefficient=float(row["battery_loss_coefficient"]),
                preference_k=float(row["preference_k"]),
            )
            profiles[profile.home_id] = profile

    series: dict[str, dict[int, tuple[float, float]]] = {hid: {} for hid in profiles}
    max_window = -1
    with open(directory / "traces.csv", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)  # header
        for home_id, window, generation, load in reader:
            w = int(window)
            rows = series.get(home_id)
            if rows is None:
                raise ValueError(f"traces.csv: home {home_id!r} (window {w}) is not in profiles.csv")
            if w < 0:
                raise ValueError(f"traces.csv: home {home_id!r} has a negative window {w}")
            if w in rows:
                raise ValueError(f"traces.csv: duplicate row for home {home_id!r}, window {w}")
            rows[w] = (float(generation), float(load))
            max_window = max(max_window, w)

    window_count = max_window + 1
    homes: List[HomeTrace] = []
    for home_id, profile in profiles.items():
        rows = series[home_id]
        if len(rows) != window_count:
            missing = next(w for w in range(window_count) if w not in rows)
            raise ValueError(f"traces.csv: no row for home {home_id!r}, window {missing}")
        generation = np.array([rows[w][0] for w in range(window_count)])
        load = np.array([rows[w][1] for w in range(window_count)])
        homes.append(HomeTrace(profile=profile, generation_kwh=generation, load_kwh=load))

    config = config or TraceConfig(home_count=len(homes), window_count=window_count)
    return TraceDataset(config=config, homes=homes)
