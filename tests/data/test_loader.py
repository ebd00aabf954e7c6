"""Unit tests for dataset persistence and windowing."""

import numpy as np
import pytest

from repro.data import TraceConfig, TraceDataset, generate_dataset
from repro.data.loader import iter_windows, load_dataset_csv, save_dataset_csv


def test_iter_windows_shapes(small_dataset):
    slices = list(iter_windows(small_dataset))
    assert len(slices) == small_dataset.window_count
    first = slices[0]
    assert len(first.home_ids) == small_dataset.home_count
    assert len(first.generation_kwh) == small_dataset.home_count
    assert len(first.load_kwh) == small_dataset.home_count


def test_iter_windows_range(small_dataset):
    slices = list(iter_windows(small_dataset, start=10, stop=20))
    assert [s.window for s in slices] == list(range(10, 20))


def test_iter_windows_invalid_range(small_dataset):
    with pytest.raises(ValueError):
        list(iter_windows(small_dataset, start=5, stop=3))
    with pytest.raises(ValueError):
        list(iter_windows(small_dataset, start=0, stop=10**6))


def test_iter_windows_values_match_dataset(small_dataset):
    window = 17
    window_slice = next(iter_windows(small_dataset, start=window, stop=window + 1))
    for index, home in enumerate(small_dataset.homes):
        assert window_slice.generation_kwh[index] == pytest.approx(
            float(home.generation_kwh[window])
        )
        assert window_slice.load_kwh[index] == pytest.approx(float(home.load_kwh[window]))


def test_csv_roundtrip(tmp_path):
    dataset = generate_dataset(TraceConfig(home_count=5, window_count=20, seed=13))
    save_dataset_csv(dataset, tmp_path)
    assert (tmp_path / "profiles.csv").exists()
    assert (tmp_path / "traces.csv").exists()

    restored = load_dataset_csv(tmp_path)
    assert restored.home_count == dataset.home_count
    assert restored.window_count == dataset.window_count
    original_by_id = {h.profile.home_id: h for h in dataset.homes}
    for home in restored.homes:
        original = original_by_id[home.profile.home_id]
        assert home.profile.preference_k == pytest.approx(original.profile.preference_k)
        assert np.allclose(home.generation_kwh, original.generation_kwh, atol=1e-5)
        assert np.allclose(home.load_kwh, original.load_kwh, atol=1e-5)


def test_iter_windows_rows_are_python_floats_equal_to_the_series(small_dataset):
    for window_slice in iter_windows(small_dataset, start=3, stop=40):
        for index, home in enumerate(small_dataset.homes):
            generation = window_slice.generation_kwh[index]
            assert type(generation) is float
            assert generation.hex() == float(home.generation_kwh[window_slice.window]).hex()
            assert window_slice.load_kwh[index].hex() == float(home.load_kwh[window_slice.window]).hex()


def test_iter_windows_over_an_empty_range_or_no_homes(small_dataset):
    assert list(iter_windows(small_dataset, start=7, stop=7)) == []
    empty = TraceDataset(config=small_dataset.config, homes=[])
    slices = list(iter_windows(empty, stop=2))
    assert [(s.window, s.home_ids, s.generation_kwh, s.load_kwh) for s in slices] == [
        (0, [], [], []),
        (1, [], [], []),
    ]


def _saved(tmp_path):
    """The header and rows of a saved 3-home, 30-window ``traces.csv``."""
    save_dataset_csv(generate_dataset(TraceConfig(home_count=3, window_count=30, seed=13)), tmp_path)
    lines = (tmp_path / "traces.csv").read_text().splitlines()
    return lines[0], lines[1:]


def _write_traces(tmp_path, header, rows):
    (tmp_path / "traces.csv").write_text("\n".join([header, *rows]) + "\n")


def test_csv_roundtrip_is_a_fixed_point(tmp_path):
    save_dataset_csv(generate_dataset(TraceConfig(home_count=4, window_count=25, seed=13)), tmp_path / "a")
    restored = load_dataset_csv(tmp_path / "a")
    save_dataset_csv(restored, tmp_path / "b")
    for name in ("profiles.csv", "traces.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    again = load_dataset_csv(tmp_path / "b")
    for home, twin in zip(restored.homes, again.homes):
        assert home.generation_kwh.tobytes() == twin.generation_kwh.tobytes()
        assert home.load_kwh.tobytes() == twin.load_kwh.tobytes()


def test_csv_rows_may_come_in_any_order(tmp_path):
    header, rows = _saved(tmp_path)
    expected = load_dataset_csv(tmp_path)
    _write_traces(tmp_path, header, rows[::-1])
    shuffled = load_dataset_csv(tmp_path)
    for home, twin in zip(expected.homes, shuffled.homes):
        assert home.load_kwh.tobytes() == twin.load_kwh.tobytes()


def _drop_late_rows_of_home_001(rows):
    return [row for row in rows if not (row.startswith("home-001,") and int(row.split(",")[1]) >= 20)]


@pytest.mark.parametrize(
    "edit, message",
    [
        # Used to load as zeros for windows 20 onwards.
        (_drop_late_rows_of_home_001, r"no row for home 'home-001', window 20"),
        (lambda rows: rows + [next(r for r in rows if r.startswith("home-002,7,"))],
         r"duplicate row for home 'home-002', window 7"),
        # Used to raise a bare KeyError.
        (lambda rows: rows + ["home-999,4,0.001,0.002"], r"home 'home-999' \(window 4\) is not in profiles.csv"),
        # Used to overwrite the last window.
        (lambda rows: rows + ["home-000,-1,0.001,0.002"], r"home 'home-000' has a negative window -1"),
    ],
    ids=["missing", "duplicate", "unknown-home", "negative-window"],
)
def test_csv_incomplete_or_ambiguous_traces_are_refused(tmp_path, edit, message):
    header, rows = _saved(tmp_path)
    _write_traces(tmp_path, header, edit(rows))
    with pytest.raises(ValueError, match=message):
        load_dataset_csv(tmp_path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-0.001"])
@pytest.mark.parametrize("column, series", [(2, "generation"), (3, "load")])
def test_csv_non_finite_and_negative_values_are_refused(tmp_path, column, series, bad):
    header, rows = _saved(tmp_path)
    index = rows.index(next(row for row in rows if row.startswith("home-001,11,")))
    cells = rows[index].split(",")
    cells[column] = bad
    rows[index] = ",".join(cells)
    _write_traces(tmp_path, header, rows)
    with pytest.raises(ValueError, match=rf"home 'home-001': {series} in window 11 is "):
        load_dataset_csv(tmp_path)
