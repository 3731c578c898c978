"""Event extraction: union of outage intervals."""

from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres import events
from gridres.errors import ValidationError
from gridres.events import events_csv
from gridres.ingest import Station
from gridres.zoning import build_partition
from oracles import OutageRecord, outage_table

BASE = datetime(2015, 3, 1, tzinfo=timezone.utc)


def outage(i, start_h, end_h, lat=0.0, lon=0.0):
    """Member record from hour offsets relative to BASE."""
    start = BASE + timedelta(hours=start_h)
    end = BASE + timedelta(hours=end_h)
    return OutageRecord(f"O{i}", f"C{i}", lat, lon, start, end,
                        (end - start).total_seconds() / 60.0, 1, "weather")


def extract_events(records, zone_id=""):
    """events.extract_events on the table of outage records."""
    return events.extract_events(outage_table(records), zone_id=zone_id)


def extract_events_by_zone(records, partition):
    return events.extract_events_by_zone(outage_table(records), partition)


def hours(dt):
    return (dt - BASE).total_seconds() / 3600.0


def union_oracle(intervals):
    """Connected components of the union of half-open [s, e) intervals."""
    events = []
    for s, e in sorted(intervals):
        if events and s <= events[-1][1]:
            events[-1][1] = max(events[-1][1], e)
            events[-1][2] += 1
        else:
            events.append([s, e, 1])
    return [(s, e, n) for s, e, n in events]


# ---------------------------------------------------------------------------
# Documented examples
# ---------------------------------------------------------------------------

def test_single_outage_single_event():
    events = extract_events([outage(1, 0, 10)])
    assert len(events) == 1
    e = events[0]
    assert e.n_outages == 1
    assert e.total_restoration_hours == pytest.approx(10.0)
    assert hours(e.first_start) == 0.0
    assert hours(e.last_restoration) == 10.0


def test_overlapping_outages_merge():
    events = extract_events([outage(1, 0, 10), outage(2, 5, 20)])
    assert len(events) == 1
    assert events[0].n_outages == 2
    assert events[0].total_restoration_hours == pytest.approx(20.0)


def test_gap_splits_events():
    events = extract_events([outage(1, 0, 10), outage(2, 11, 20)])
    assert [e.n_outages for e in events] == [1, 1]
    assert [hours(e.first_start) for e in events] == [0.0, 11.0]


def test_touching_intervals_stay_one_event():
    # a start at the exact instant of the last restoration keeps the event
    # open: starts sweep before ends at equal timestamps
    events = extract_events([outage(1, 0, 10), outage(2, 10, 12)])
    assert len(events) == 1
    assert events[0].n_outages == 2


def test_every_onset_is_restored():
    events = extract_events([outage(i, s, e) for i, (s, e) in
                             enumerate([(0, 4), (1, 2), (3, 9), (12, 13)])])
    assert [event.n_outages for event in events] == [3, 1]


def test_invalid_member_interval_fatal():
    with pytest.raises(ValidationError):
        extract_events([outage(1, 5, 5)])


def test_permutation_invariance():
    records = [outage(i, s, e) for i, (s, e) in
               enumerate([(0, 10), (5, 20), (25, 30), (26, 27), (40, 41)])]
    forward = extract_events(records)
    shuffled = extract_events(list(reversed(records)))
    assert forward == shuffled


# ---------------------------------------------------------------------------
# Oracle equivalence
# ---------------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 200), st.integers(1, 40)),
                min_size=1, max_size=50))
def test_matches_union_of_intervals_oracle(raw):
    intervals = [(s, s + d) for s, d in raw]
    records = [outage(i, s, e) for i, (s, e) in enumerate(intervals)]
    events = extract_events(records)
    expected = union_oracle(intervals)
    assert len(events) == len(expected)
    for event, (s, e, n) in zip(events, expected):
        assert hours(event.first_start) == s
        assert hours(event.last_restoration) == e
        assert event.n_outages == n
    assert sum(e.n_outages for e in events) == len(records)


# ---------------------------------------------------------------------------
# Per-zone extraction
# ---------------------------------------------------------------------------

EQ_BOUNDARY = [(-5.0, -5.0), (15.0, -5.0), (15.0, 5.0), (-5.0, 5.0)]


def two_zone_partition():
    stations = [Station("A", 0.0, 0.0, frozenset({"wind"})),
                Station("B", 0.0, 10.0, frozenset({"wind"}))]
    return build_partition(stations, "wind", EQ_BOUNDARY)


def test_single_zone_matches_global():
    part = build_partition([Station("A", 0.0, 0.0, frozenset({"wind"}))],
                           "wind", EQ_BOUNDARY)
    records = [outage(i, s, e) for i, (s, e) in
               enumerate([(0, 10), (5, 20), (25, 30)])]
    by_zone = extract_events_by_zone(records, part)
    zonal = by_zone["wind:0"]
    global_events = extract_events(records, zone_id="wind:0")
    assert zonal == global_events


def test_simultaneous_bursts_in_different_zones_stay_apart():
    records = [outage(1, 0, 10, lon=0.0), outage(2, 0, 10, lon=10.0)]
    by_zone = extract_events_by_zone(records, two_zone_partition())
    assert len(by_zone["wind:0"]) == 1
    assert len(by_zone["wind:1"]) == 1
    assert by_zone["wind:0"][0].zone_id == "wind:0"
    # globally the same records merge into one event
    assert len(extract_events(records)) == 1


def test_empty_zone_present_with_no_events():
    records = [outage(1, 0, 10, lon=0.0)]
    by_zone = extract_events_by_zone(records, two_zone_partition())
    assert by_zone["wind:1"] == []


def test_events_csv_layout():
    records = [outage(1, 0, 10), outage(2, 5, 20)]
    events = extract_events(records, zone_id="wind:0")
    lines = events_csv(events).decode().strip().split("\n")
    assert lines[0] == ("event_index,zone_id,first_start,last_restoration,"
                        "n_outages,total_restoration_hours")
    assert lines[1].startswith("0,wind:0,2015-03-01T00:00:00Z,")
    assert lines[1].endswith(",2,20.0")
