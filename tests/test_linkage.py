"""Severe-record classification, window merging, intensity pairing."""

import dataclasses
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres import linkage
from gridres.ingest import Station
from gridres.linkage import PRECIP_MODE_PEAK, fragility_csv
from gridres.zoning import build_partition
from oracles import (
    OutageRecord,
    SevereWeatherRecord,
    WeatherObservation,
    datetime64,
    observations_in_range,
    outage_table,
    severe_table,
    utc_datetime,
    weather_table,
)
from oracles import count_outages as count_outage_records

BASE = datetime(2015, 3, 1, tzinfo=timezone.utc)
EQ_BOUNDARY = [(-5.0, -5.0), (15.0, -5.0), (15.0, 5.0), (-5.0, 5.0)]


def at(h):
    return BASE + timedelta(hours=h)


def severe(eid, etype, start_h, end_h, lat=0.0, lon=0.0):
    return SevereWeatherRecord(eid, etype, at(start_h), at(end_h), lat, lon, "")


def obs(station, h, wind_fast=None, precip=None, snowfall=None,
        snow_depth=None):
    return WeatherObservation(station, at(h), None, wind_fast, precip,
                              snowfall, snow_depth)


def _instant64(t):
    """A datetime as datetime64; a datetime64 as it is."""
    return datetime64(t) if isinstance(t, datetime) else t


def _aware(t):
    """A datetime64 as an aware datetime; a datetime as it is."""
    return t if isinstance(t, datetime) else utc_datetime(t)


class StationIndex(linkage.StationIndex):
    """linkage.StationIndex on the table of observation records, looked up
    with datetimes."""

    def __init__(self, observations):
        super().__init__(weather_table(observations))

    def in_range(self, station_id, start, end):
        return super().in_range(station_id, _instant64(start), _instant64(end))


def intensity(index, station_id, window, *args, **kwargs):
    """linkage.intensity with the window bounds as datetimes."""
    return linkage.intensity(index, station_id, tuple(map(_instant64, window)),
                             *args, **kwargs)


def count_outages(outages, window, zone_id, partition):
    """The oracle count with the window bounds as datetime64."""
    return count_outage_records(outages, tuple(map(_aware, window)), zone_id,
                                partition)


def classify_hazard(record, mapping=None):
    """linkage.classify_hazard of a record's label."""
    return linkage.classify_hazard(record.event_type, mapping)


def merge_windows(records):
    """linkage.merge_windows on the table of severe records, the window
    bounds as datetimes."""
    return [dataclasses.replace(w, start=utc_datetime(w.start), end=utc_datetime(w.end))
            for w in linkage.merge_windows(severe_table(records))]


def build_fragility_samples(severe, partitions, weather, outages, **options):
    """linkage.build_fragility_samples with every input as records."""
    return linkage.build_fragility_samples(
        severe_table(severe), partitions, weather_table(weather), outage_table(outages),
        **options)


def outage_at(i, start_h, end_h, lat=0.0, lon=0.0):
    start, end = at(start_h), at(end_h)
    return OutageRecord(f"O{i}", f"C{i}", lat, lon, start, end,
                        (end - start).total_seconds() / 60.0, 1, "weather")


def dual_station(sid, lat, lon):
    return Station(sid, lat, lon, frozenset({"wind", "precipitation"}))


def two_zone_partition():
    return build_partition(
        [dual_station("A", 0.0, 0.0), dual_station("B", 0.0, 10.0)],
        "wind", EQ_BOUNDARY)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_tornado_maps_to_wind():
    assert classify_hazard(severe("E1", "tornado", 0, 1)) == "wind"
    assert classify_hazard(severe("E1", "high wind", 0, 1)) == "wind"


def test_flood_maps_to_precipitation():
    assert classify_hazard(severe("E1", "flood", 0, 1)) == "precipitation"
    assert classify_hazard(severe("E1", "heavy snow", 0, 1)) == "precipitation"


def test_unmapped_label_excluded():
    assert classify_hazard(severe("E1", "extreme heat", 0, 1)) == "excluded"


def test_classification_case_insensitive():
    for label in ("Tornado", "TORNADO", "  tornado "):
        assert classify_hazard(severe("E1", label, 0, 1)) == "wind"


def test_custom_mapping_overrides_default():
    mapping = {"hail": "wind"}
    assert classify_hazard(severe("E1", "Hail", 0, 1), mapping) == "wind"
    assert classify_hazard(severe("E1", "tornado", 0, 1), mapping) == "excluded"


# ---------------------------------------------------------------------------
# Localization
# ---------------------------------------------------------------------------

def sample_zones(record):
    """Zone ids holding a sample for a lone record, both stations reporting."""
    weather = hourly_gusts("A", 0, 2, 20.0) + hourly_gusts("B", 0, 2, 20.0)
    samples = build_fragility_samples(
        [record], {"wind": two_zone_partition()}, weather, [])
    return [zone_id for zone_id, got in samples["wind"].items() if got]


def test_record_at_station_coordinates():
    assert sample_zones(severe("E1", "tornado", 0, 1, lat=0.0, lon=10.0)) \
        == ["wind:1"]


def test_record_on_bisector_takes_lower_index():
    assert sample_zones(severe("E1", "tornado", 0, 1, lat=2.0, lon=5.0)) \
        == ["wind:0"]


# ---------------------------------------------------------------------------
# Window merging
# ---------------------------------------------------------------------------

def test_overlapping_windows_union():
    merged = merge_windows([severe("E1", "tornado", 0, 5),
                            severe("E2", "tornado", 3, 8)])
    assert len(merged) == 1
    assert merged[0].start == at(0) and merged[0].end == at(8)
    assert merged[0].source_event_ids == ("E1", "E2")


def test_disjoint_windows_unchanged():
    merged = merge_windows([severe("E1", "tornado", 0, 2),
                            severe("E2", "tornado", 5, 7)])
    assert [(m.start, m.end) for m in merged] == [(at(0), at(2)), (at(5), at(7))]


def test_touching_closed_windows_merge():
    merged = merge_windows([severe("E1", "tornado", 0, 5),
                            severe("E2", "tornado", 5, 9)])
    assert len(merged) == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 100), st.integers(1, 20)), max_size=20))
def test_merge_matches_interval_union_oracle(raw):
    records = [severe(f"E{i}", "tornado", s, s + d)
               for i, (s, d) in enumerate(raw)]
    merged = merge_windows(records)
    # oracle over closed intervals: touching endpoints connect
    expected = []
    for s, d in sorted(raw):
        e = s + d
        if expected and s <= expected[-1][1]:
            expected[-1][1] = max(expected[-1][1], e)
        else:
            expected.append([s, e])
    assert [(m.start, m.end) for m in merged] \
        == [(at(s), at(e)) for s, e in expected]
    assert sorted(i for m in merged for i in m.source_event_ids) \
        == sorted(f"E{i}" for i in range(len(raw)))


# ---------------------------------------------------------------------------
# Intensity
# ---------------------------------------------------------------------------

def test_wind_intensity_is_max_gust():
    rows = [obs("A", h, wind_fast=v) for h, v in [(1, 20.0), (2, 35.0), (3, 28.0)]]
    got = intensity(StationIndex(rows), "A", (at(1), at(3)), "wind")
    assert got == 35.0


def test_precip_intensity_sums_depth():
    rows = [obs("A", h, precip=v) for h, v in [(1, 0.5), (2, 1.0), (3, 1.0)]]
    got = intensity(StationIndex(rows), "A", (at(1), at(3)), "precipitation")
    assert got == pytest.approx(2.5)


def test_precip_peak_mode():
    rows = [obs("A", h, precip=v) for h, v in [(1, 0.5), (2, 1.0), (3, 0.8)]]
    got = intensity(StationIndex(rows), "A", (at(1), at(3)), "precipitation",
                    precip_mode=PRECIP_MODE_PEAK)
    assert got == pytest.approx(1.0)


def test_absent_fields_are_missing_not_zero():
    rows = [obs("A", 1, precip=1.0), obs("A", 2), obs("A", 3, precip=1.0)]
    got = intensity(StationIndex(rows), "A", (at(1), at(3)), "precipitation")
    assert got == pytest.approx(2.0)


def test_snowfall_counts_toward_precip():
    rows = [obs("A", 1, precip=0.1, snowfall=2.0), obs("A", 2, snowfall=1.5)]
    got = intensity(StationIndex(rows), "A", (at(1), at(2)), "precipitation")
    assert got == pytest.approx(3.6)


def test_lookback_hour_included():
    # window starts at hour 2; the hour-1 observation is in range
    rows = [obs("A", 1, wind_fast=40.0), obs("A", 2, wind_fast=10.0)]
    got = intensity(StationIndex(rows), "A", (at(2), at(3)), "wind")
    assert got == 40.0


def test_lookback_edge_is_exactly_one_hour():
    """An observation one hour before the window start counts; one a second
    earlier does not."""
    start = at(2)
    rows = [WeatherObservation("A", t, None, v, None, None, None) for t, v in [
        (start - timedelta(hours=1, seconds=1), 50.0),
        (start - timedelta(hours=1), 40.0),
        (start, 10.0)]]
    assert intensity(StationIndex(rows), "A", (start, at(3)), "wind") == 40.0


def test_no_usable_rows_returns_none():
    assert intensity(StationIndex([]), "A", (at(0), at(1)), "wind") is None
    rows = [obs("A", 1, precip=1.0)]  # right station, wrong field
    assert intensity(StationIndex(rows), "A", (at(1), at(2)), "wind") \
        is None
    rows = [obs("B", 1, wind_fast=10.0)]  # wrong station
    assert intensity(StationIndex(rows), "A", (at(1), at(2)), "wind") \
        is None
    rows = [obs("A", 1, wind_fast=10.0)]  # right station, no depth reported
    assert intensity(StationIndex(rows), "A", (at(1), at(2)), "precipitation") \
        is None


def test_station_index_matches_list_scan():
    rows = [obs("A", h, wind_fast=float(10 + h)) for h in range(10)]
    rows += [obs("B", h, wind_fast=99.0) for h in range(10)]
    idx = StationIndex(rows[::-1])
    for station, lo, hi in [("A", 3, 6), ("A", -2, 0), ("A", 9, 12),
                            ("A", 4, 4), ("B", 0, 9), ("C", 0, 9)]:
        assert [rows[::-1][i] for i in idx.in_range(station, at(lo), at(hi))] \
            == observations_in_range(rows, station, at(lo), at(hi))
    window = (at(3), at(6))
    scanned = observations_in_range(rows, "A", at(2), at(6))
    assert intensity(idx, "A", window, "wind") == \
        intensity(StationIndex(scanned), "A", window, "wind")


# ---------------------------------------------------------------------------
# Outage counting
# ---------------------------------------------------------------------------

def window_counts(records, outages):
    """Per-zone outage counts of the samples the records yield, both
    stations reporting."""
    weather = hourly_gusts("A", 0, 1, 20.0) + hourly_gusts("B", 0, 1, 20.0)
    samples = build_fragility_samples(
        records, {"wind": two_zone_partition()}, weather, outages)
    return {zone_id: [s.outage_count for s in got]
            for zone_id, got in samples["wind"].items()}


def test_count_empty_window():
    assert window_counts([severe("E1", "tornado", 0, 5)], []) \
        == {"wind:0": [0], "wind:1": []}


def test_count_is_start_based():
    records = [outage_at(1, 1, 2), outage_at(2, 2, 9), outage_at(3, 4, 30),
               outage_at(4, 6, 7)]  # starts after the window closes
    assert window_counts([severe("E1", "tornado", 0, 5)], records) \
        == {"wind:0": [3], "wind:1": []}


def test_count_degenerate_window_takes_everything():
    records = [outage_at(i, i, i + 1) for i in range(6)]
    assert window_counts([severe("E1", "tornado", 0, 100)], records) \
        == {"wind:0": [6], "wind:1": []}


def test_count_respects_zone():
    records = [outage_at(1, 1, 2, lon=0.0), outage_at(2, 1, 2, lon=10.0)]
    storms = [severe("E1", "tornado", 0, 5, lon=0.0),
              severe("E2", "tornado", 0, 5, lon=10.0)]
    assert window_counts(storms, records) == {"wind:0": [1], "wind:1": [1]}


# ---------------------------------------------------------------------------
# End-to-end sample construction
# ---------------------------------------------------------------------------

def hourly_gusts(station, lo, hi, value):
    return [obs(station, h, wind_fast=value) for h in range(lo, hi + 1)]


def test_single_record_single_outage_single_sample():
    part = {"wind": two_zone_partition()}
    weather = hourly_gusts("A", 0, 6, 22.0)
    outages = [outage_at(1, 2, 4)]
    samples = build_fragility_samples(
        [severe("E1", "tornado", 1, 5)], part, weather, outages)
    got = samples["wind"]["wind:0"]
    assert len(got) == 1
    assert got[0].intensity == 22.0
    assert got[0].outage_count == 1
    assert got[0].source_event_ids == ("E1",)
    assert samples["wind"]["wind:1"] == []


def test_duplicate_records_merge_to_one_sample():
    part = {"wind": two_zone_partition()}
    weather = hourly_gusts("A", 0, 8, 25.0)
    outages = [outage_at(1, 2, 4), outage_at(2, 5, 6)]
    samples = build_fragility_samples(
        [severe("E1", "tornado", 1, 5), severe("E2", "tornado", 4, 7)],
        part, weather, outages)
    got = samples["wind"]["wind:0"]
    assert len(got) == 1
    assert got[0].outage_count == 2
    assert set(got[0].source_event_ids) == {"E1", "E2"}


def test_no_outage_double_counting_across_merged_windows():
    part = {"wind": two_zone_partition()}
    weather = hourly_gusts("A", 0, 24, 20.0)
    outages = [outage_at(i, h, h + 1) for i, h in enumerate(range(0, 20, 2))]
    records = [severe(f"E{i}", "tornado", s, s + 3) for i, s in
               enumerate(range(0, 18, 2))]
    samples = build_fragility_samples(records, part, weather, outages)
    total = sum(s.outage_count for s in samples["wind"]["wind:0"])
    in_any_window = {o.outage_id for o in outages
                     if any(w.start <= o.start <= w.end
                            for w in merge_windows(records))}
    assert total == len(in_any_window)


def test_excluded_and_unmeasurable_records_drop_out():
    part = {"wind": two_zone_partition()}
    weather = hourly_gusts("A", 0, 3, 18.0)
    outages = [outage_at(1, 1, 2)]
    samples = build_fragility_samples(
        [severe("E1", "extreme heat", 0, 2),      # excluded label
         severe("E2", "tornado", 40, 42),         # no weather rows in range
         severe("E3", "tornado", 0, 2)],
        part, weather, outages)
    got = samples["wind"]["wind:0"]
    assert [s.source_event_ids for s in got] == [("E3",)]


def test_excluded_record_count_is_logged(caplog):
    """Records whose label maps to no hazard class are counted once, in
    the log, whichever partitions there are."""
    part = {"wind": two_zone_partition()}
    records = [severe("E1", "extreme heat", 0, 2), severe("E2", "tornado", 0, 2),
               severe("E3", "drought", 0, 2), severe("E4", "flood", 0, 2),
               severe("E5", "Extreme Heat", 4, 6)]
    with caplog.at_level("INFO", logger="gridres.linkage"):
        build_fragility_samples(records, part, hourly_gusts("A", 0, 6, 20.0), [])
    assert [r.getMessage() for r in caplog.records if "excluded" in r.getMessage()] \
        == ["linkage: 3 severe record(s) excluded by classification"]


def test_samples_are_pure_derivations():
    part = {"wind": two_zone_partition()}
    weather = hourly_gusts("A", 0, 10, 30.0)
    outages = [outage_at(i, 2 + i, 9 + i) for i in range(4)]
    records = [severe("E1", "tornado", 1, 6)]
    samples = build_fragility_samples(records, part, weather, outages)
    for s in samples["wind"]["wind:0"]:
        window = (s.window_start, s.window_end)
        again = intensity(StationIndex(weather), "A", window, "wind")
        assert again == s.intensity
        assert count_outages(outages, window, s.zone_id, part["wind"]) \
            == s.outage_count


def test_fragility_csv_layout():
    part = {"wind": two_zone_partition()}
    weather = hourly_gusts("A", 0, 8, 25.0)
    outages = [outage_at(1, 2, 4)]
    samples = build_fragility_samples(
        [severe("E1", "tornado", 1, 5), severe("E2", "tornado", 4, 7)],
        part, weather, outages)
    lines = fragility_csv(samples["wind"]).decode().strip().split("\n")
    assert lines[0] == ("zone_id,window_start,window_end,intensity,"
                        "outage_count,source_event_ids")
    assert lines[1].split(",")[5] == "E1;E2"
