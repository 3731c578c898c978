"""Parsing and cleaning of the four input CSV files."""

import csv
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridres import ingest
from gridres.errors import SchemaError, ValidationError
from gridres.ingest import (
    DEFAULT_MAX_OUTAGE_DAYS,
    format_instant,
    parse_instant,
    parse_outages,
    parse_severe,
    parse_stations,
    parse_weather,
    write_outages_csv,
    write_severe_csv,
    write_stations_csv,
    write_weather_csv,
)

from conftest import (
    OUTAGES_HEADER,
    SEVERE_HEADER,
    STATIONS_HEADER,
    WEATHER_HEADER,
    csv_bytes,
    outage_row,
)
from oracles import (
    OutageRecord,
    SevereWeatherRecord,
    WeatherObservation,
    outage_records,
    outage_table,
    parse_outage_rows,
    parse_severe_rows,
    parse_weather_rows,
    severe_records,
    severe_table,
    weather_records,
    weather_table,
    write_outage_rows,
    write_severe_rows,
    write_weather_rows,
)


def outages(data: bytes, **caps):
    """parse_outages, with the kept rows as records."""
    table, report = parse_outages(data, **caps)
    return outage_records(table), report


def weather(data: bytes):
    """parse_weather, with the kept rows as records."""
    table, report = parse_weather(data)
    return weather_records(table), report


def severe(data: bytes):
    """parse_severe, with the kept rows as records."""
    table, report = parse_severe(data)
    return severe_records(table), report


# ---------------------------------------------------------------------------
# Timestamps
# ---------------------------------------------------------------------------

def test_parse_instant_accepts_z_suffix():
    dt = parse_instant("2012-06-29T14:00:00Z")
    assert dt is not None
    assert dt.utcoffset().total_seconds() == 0
    assert format_instant(dt) == "2012-06-29T14:00:00Z"


def test_parse_instant_rejects_garbage():
    assert parse_instant("not-a-date") is None
    assert parse_instant("") is None


# ---------------------------------------------------------------------------
# Outages
# ---------------------------------------------------------------------------

def test_wellformed_outage_kept_unchanged():
    data = csv_bytes(OUTAGES_HEADER, [
        outage_row("O1", "2012-06-29T14:00:00Z", "2012-06-29T16:30:00Z", "150"),
    ])
    records, report = outages(data)
    assert report.kept == 1 and report.total_rows == 1
    r = records[0]
    assert r.outage_id == "O1"
    assert r.restore_minutes == 150.0
    assert (r.end - r.start).total_seconds() == 150 * 60


def test_missing_end_timestamp_dropped():
    data = csv_bytes(OUTAGES_HEADER, [
        outage_row("O1", "2012-06-29T14:00:00Z", ""),
    ])
    records, report = outages(data)
    assert records == []
    assert report.dropped_missing_field == 1
    assert "O1" in report.samples["missing_field"]


def test_restore_exceeding_duration_dropped():
    # 100-minute outage claiming 600 minutes of restoration work
    data = csv_bytes(OUTAGES_HEADER, [
        outage_row("O1", "2012-06-29T14:00:00Z", "2012-06-29T15:40:00Z", "600"),
    ])
    _, report = outages(data)
    assert report.dropped_inconsistent_time == 1


def test_restore_rounding_slack_tolerated():
    # restore may exceed duration by up to one minute of rounding slack
    data = csv_bytes(OUTAGES_HEADER, [
        outage_row("O1", "2012-06-29T14:00:00Z", "2012-06-29T15:40:00Z", "101"),
        outage_row("O2", "2012-06-29T14:00:00Z", "2012-06-29T15:40:00Z", "102"),
    ])
    records, report = outages(data)
    assert [r.outage_id for r in records] == ["O1"]
    assert report.dropped_inconsistent_time == 1


def test_start_not_before_end_dropped():
    data = csv_bytes(OUTAGES_HEADER, [
        outage_row("O1", "2012-06-29T16:00:00Z", "2012-06-29T16:00:00Z", "0"),
        outage_row("O2", "2012-06-29T16:00:00Z", "2012-06-29T15:00:00Z", "0"),
    ])
    records, report = outages(data)
    assert records == []
    assert report.dropped_inconsistent_time == 2


def test_out_of_bounds_coordinates_dropped():
    data = csv_bytes(OUTAGES_HEADER, [
        outage_row("O1", "2012-06-29T14:00:00Z", "2012-06-29T15:00:00Z", "30",
                   lat=95.0),
        outage_row("O2", "2012-06-29T14:00:00Z", "2012-06-29T15:00:00Z", "30",
                   lon=-200.0),
    ])
    records, report = outages(data)
    assert records == []
    assert report.dropped_out_of_bounds == 2


def test_missing_field_beats_bounds_check():
    # a row can violate several rules; the first one in documented order wins
    data = csv_bytes(OUTAGES_HEADER, [
        outage_row("O1", "", "2012-06-29T15:00:00Z", "30", lat=95.0),
    ])
    _, report = outages(data)
    assert report.dropped_missing_field == 1
    assert report.dropped_out_of_bounds == 0


def test_multiday_outage_duration_cap():
    data = csv_bytes(OUTAGES_HEADER, [
        outage_row("O1", "2012-06-01T00:00:00Z", "2012-08-01T00:00:00Z", "60"),
    ])
    _, report = outages(data)
    assert report.dropped_out_of_bounds == 1
    _, report = outages(data, max_outage_days=90.0)
    assert report.kept == 1


def test_outages_bad_header_fatal():
    data = csv_bytes("outage_id,whatever", ["O1,x"])
    with pytest.raises(SchemaError):
        parse_outages(data)


def test_outages_round_trip():
    data = csv_bytes(OUTAGES_HEADER, [
        outage_row("O1", "2012-06-29T14:00:00Z", "2012-06-29T16:30:00Z", "150"),
        outage_row("O2", "2012-06-29T15:00:00Z", "2012-06-29T15:30:00Z", "25",
                   lat=39.81, lon=-86.22, customers=3, cause="equipment"),
    ])
    records, _ = outages(data)
    again, report = outages(write_outages_csv(outage_table(records)))
    assert again == records
    assert report.kept == 2


def test_subsecond_times_round_trip_without_loss():
    # Written in whole seconds, .2 -> .7 would be a zero-length outage; the
    # rules see the truncated instants, so ingest already drops it.
    data = csv_bytes(OUTAGES_HEADER, [
        outage_row("O1", "2012-06-29T10:00:00.2Z", "2012-06-29T10:00:00.7Z", "0"),
        outage_row("O2", "2012-06-29T10:00:00.9Z", "2012-06-29T10:30:00.1Z", "30"),
    ])
    records, report = outages(data)
    assert report.kept == 1 and report.dropped_inconsistent_time == 1
    assert records[0].start == parse_instant("2012-06-29T10:00:00Z")
    again, report = outages(write_outages_csv(outage_table(records)))
    assert again == records and report.kept == 1


# ---------------------------------------------------------------------------
# Weather
# ---------------------------------------------------------------------------

def test_weather_dedupe_keeps_complete_row():
    data = csv_bytes(WEATHER_HEADER, [
        "S1,2012-06-29T14:00:00Z,3.0,5.0,,0.0,0.0",
        "S1,2012-06-29T14:00:00Z,3.0,5.0,0.2,0.0,0.0",
    ])
    obs, report = weather(data)
    assert len(obs) == 1
    assert obs[0].precip == 0.2
    assert report.dropped_inconsistent_time == 1


def test_weather_negative_precip_dropped():
    data = csv_bytes(WEATHER_HEADER, [
        "S1,2012-06-29T14:00:00Z,3.0,5.0,-1.0,0.0,0.0",
    ])
    obs, report = weather(data)
    assert obs == []
    assert report.dropped_out_of_bounds == 1


def test_weather_gust_below_average_dropped():
    data = csv_bytes(WEATHER_HEADER, [
        "S1,2012-06-29T14:00:00Z,6.0,5.0,0.0,0.0,0.0",
    ])
    obs, report = weather(data)
    assert obs == []
    assert report.dropped_out_of_bounds == 1


def test_weather_three_valid_rows_kept():
    rows = [f"S1,2012-06-29T1{h}:00:00Z,3.0,5.0,0.0,0.0,0.0" for h in range(3)]
    obs, report = weather(csv_bytes(WEATHER_HEADER, rows))
    assert report.kept == 3
    assert [o.timestamp.hour for o in obs] == [10, 11, 12]


def test_weather_round_trip_preserves_missing_fields():
    data = csv_bytes(WEATHER_HEADER, [
        "S1,2012-06-29T14:00:00Z,3.0,5.0,,,",
        "S2,2012-06-29T14:00:00Z,,,0.5,0.0,1.0",
    ])
    obs, _ = weather(data)
    again, _ = weather(write_weather_csv(weather_table(obs)))
    assert again == obs
    assert again[0].precip is None
    assert again[1].wind_avg is None


# ---------------------------------------------------------------------------
# Stations
# ---------------------------------------------------------------------------

def test_station_dual_capability():
    data = csv_bytes(STATIONS_HEADER, ["S1,39.7,-86.1,wind;precipitation"])
    stations = parse_stations(data)
    assert stations[0].capabilities == frozenset({"wind", "precipitation"})


def test_twelve_stations_parse_to_twelve():
    rows = [f"S{i:02d},39.{60 + i},-86.{10 + i},wind" for i in range(12)]
    stations = parse_stations(csv_bytes(STATIONS_HEADER, rows))
    assert len(stations) == 12


def test_duplicate_station_id_fatal():
    data = csv_bytes(STATIONS_HEADER, [
        "S1,39.7,-86.1,wind",
        "S1,39.8,-86.2,precipitation",
    ])
    with pytest.raises(SchemaError, match="S1"):
        parse_stations(data)


def test_unknown_capability_fatal():
    data = csv_bytes(STATIONS_HEADER, ["S1,39.7,-86.1,sunshine"])
    with pytest.raises(SchemaError):
        parse_stations(data)


def test_stations_round_trip():
    data = csv_bytes(STATIONS_HEADER, [
        "S1,39.7,-86.1,wind;precipitation",
        "S2,39.8,-86.2,precipitation",
    ])
    stations = parse_stations(data)
    assert parse_stations(write_stations_csv(stations)) == stations


# ---------------------------------------------------------------------------
# Severe weather records
# ---------------------------------------------------------------------------

def test_severe_tornado_kept():
    data = csv_bytes(SEVERE_HEADER, [
        "E1,Tornado,2012-06-29T14:00:00Z,2012-06-29T15:00:00Z,39.7,-86.1,touchdown",
    ])
    records, report = severe(data)
    assert report.kept == 1
    assert records[0].event_type == "Tornado"


def test_severe_zero_length_window_dropped():
    data = csv_bytes(SEVERE_HEADER, [
        "E1,Flood,2012-06-29T14:00:00Z,2012-06-29T14:00:00Z,39.7,-86.1,",
    ])
    records, report = severe(data)
    assert records == []
    assert report.dropped_inconsistent_time == 1


def test_severe_unknown_type_passes_through():
    # classification happens downstream; the parser keeps the label as-is
    data = csv_bytes(SEVERE_HEADER, [
        "E1,Extreme Heat,2012-06-29T14:00:00Z,2012-06-29T15:00:00Z,39.7,-86.1,",
    ])
    records, _ = severe(data)
    assert records[0].event_type == "Extreme Heat"


def test_severe_sorted_by_start_then_id():
    data = csv_bytes(SEVERE_HEADER, [
        "E2,Flood,2012-06-29T14:00:00Z,2012-06-29T15:00:00Z,39.7,-86.1,",
        "E1,Flood,2012-06-29T14:00:00Z,2012-06-29T15:00:00Z,39.7,-86.1,",
        "E0,Flood,2012-06-29T13:00:00Z,2012-06-29T15:00:00Z,39.7,-86.1,",
    ])
    records, _ = severe(data)
    assert [r.event_id for r in records] == ["E0", "E1", "E2"]
    again, _ = severe(write_severe_csv(severe_table(records)))
    assert again == records


# ---------------------------------------------------------------------------
# Accounting identity under fuzzing
# ---------------------------------------------------------------------------

_junk = st.sampled_from([
    "", "x", "2012-06-29T14:00:00Z", "2012-06-29T15:00:00Z", "39.7", "95.0",
    "-86.1", "-200.0", "150", "-5", "1e9", "nan", "weather",
])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_junk, min_size=9, max_size=9), max_size=25))
def test_outage_report_balances_on_fuzzed_rows(rows):
    data = csv_bytes(OUTAGES_HEADER, [",".join(r) for r in rows])
    records, report = outages(data)
    report.check()
    assert report.kept == len(records)
    drops = (report.dropped_missing_field + report.dropped_inconsistent_time
             + report.dropped_out_of_bounds)
    assert report.kept + drops == report.total_rows


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(_junk, min_size=7, max_size=7), max_size=20))
def test_weather_report_balances_on_fuzzed_rows(rows):
    data = csv_bytes(WEATHER_HEADER, [",".join(r) for r in rows])
    _, report = weather(data)
    report.check()


# ---------------------------------------------------------------------------
# Clean round trip: ingest hands the records it writes to later stages in
# place of their parse, which is sound only while parse(write(records))
# keeps every row and gives back the records.
# ---------------------------------------------------------------------------

def _raw_csv(header: str, rows: list[list[str]]) -> bytes:
    """Every cell quoted, so that one holding a bare "\r" parses."""
    out = io.StringIO()
    out.write(header + "\n")
    csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(rows)
    return out.getvalue().encode()


# What a file with no quoting cannot hold in a cell, and what stands in for it.
_UNQUOTABLE = str.maketrans(',"\n\r', ";'  ")


def _plain_csv(header: str, rows: list[list[str]], final_newline: bool = True) -> bytes:
    """Cells joined with commas, nothing quoted: the file ingest splits
    without the csv module. Commas, quotes and line ends in a cell become
    other characters."""
    text = "\n".join([header, *(",".join(cell.translate(_UNQUOTABLE) for cell in row)
                                for row in rows)])
    return (text + "\n" if final_newline else text).encode()


# How a drawn file is written: every cell quoted, or none, with or without
# a line end after the last row.
_LAYOUTS = ["quoted", "plain", "plain-unterminated"]


def _drawn_csv(header: str, rows: list[list[str]], layout: str) -> bytes:
    if layout == "quoted":
        return _raw_csv(header, rows)
    return _plain_csv(header, rows, final_newline=layout == "plain")


def _mostly(valid: list[str], junk: list[str]):
    """Cells that are valid 19 times in 20, so that rows are often kept."""
    return st.sampled_from(valid * (19 * len(junk)) + junk * len(valid))


_ids = _mostly(["A1", " A2 ", "007", "A,3", 'A"4', "A\r5"], [""])
_instants = _mostly([
    "2012-06-29T14:00:00Z", "2012-06-29T14:00:00.250Z",
    "2012-06-29T16:30:00+02:00", "2012-06-29T09:15:00-05:30",
    "2012-06-29 15:00:00", "2012-06-29T15:59:59.999999+00:00",
    "2012-06-29T18:00:00z"], ["", "bad"])
_coords = _mostly(["39.7", "-86.1", "-0.0", "0", " 39.70 ", "1e-7"],
                  ["95.0", "-200.0", "nan", "x", ""])
_restores = _mostly(["-0.0", "0", "30", "30.5", "0.125", " 45 ", "1e-3"],
                    ["1440", "-5", "inf", ""])
_customers = _mostly(["0", "10", "3.7", "1e6"], ["12000000", "-1", ""])
_measures = _mostly(["", "0", "0.0", "-0.0", "3.5", " 2 ", "1e-3", "12.25"],
                    ["-1", "x"])
# Text with NUL, non-ASCII letters and line separators other than "\n".
_texts = st.text(st.sampled_from('ab ,"\n\r\x00é\x85\u2028'), max_size=8)


def _round_trip(records, write, reparse, rows=lambda parsed: parsed):
    """rows() turns a parse result into comparable records."""
    written = write(records)
    again, report = reparse(written)
    assert rows(again) == rows(records)
    assert report.kept == report.total_rows == len(records)
    assert write(again) == written


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_ids, _ids, _coords, _coords, _instants, _instants,
                          _restores, _customers, _ids), max_size=20),
       st.sampled_from([DEFAULT_MAX_OUTAGE_DAYS, 1000.0, math.inf]))
def test_clean_outages_round_trip(rows, max_days):
    table, _ = parse_outages(_raw_csv(OUTAGES_HEADER, rows),
                             max_outage_days=max_days)
    _round_trip(table, write_outages_csv, lambda data: parse_outages(
        data, max_outage_days=math.inf, max_customers=math.inf), outage_records)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_ids, _instants, _measures, _measures, _measures,
                          _measures, _measures), max_size=20))
def test_clean_weather_round_trip(rows):
    observations, _ = parse_weather(_raw_csv(WEATHER_HEADER, rows))
    _round_trip(observations, write_weather_csv, parse_weather, weather_records)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_ids, _texts, _instants, _instants, _coords,
                          _coords, _texts), max_size=20))
def test_clean_severe_round_trip(rows):
    table, _ = parse_severe(_raw_csv(SEVERE_HEADER, rows))
    _round_trip(table, write_severe_csv, parse_severe, severe_records)


# ---------------------------------------------------------------------------
# Column parsers and writers against the row-at-a-time oracle
# ---------------------------------------------------------------------------

# Cells the round-trip generators do not draw: instants numpy and
# datetime.fromisoformat read differently or not at all, numbers that are
# not finite or do not fit an int64, blank and whitespace-only cells.
_ODD_INSTANTS = [
    "0000-01-01T00:00:00Z", "2012-02-30T00:00:00Z", "2012-06-29T24:00:00Z",
    "2012-06-29T14:00:60Z", "2012-13-01T00:00:00Z", "2012-06-29t14:00:00Z",
    " 2012-06-29T14:00:00Z", "2012-06-29T14:00:00", "2012-06-29T14:00Z",
    "0001-01-01T00:30:00+01:00", "9999-12-31T23:59:59-01:00", "20120629T140000Z",
    "2012-06-29T14:00:00.5+00:00", "  ", ""]
_odd_instants = st.sampled_from(_ODD_INSTANTS)
_odd_numbers = st.sampled_from([
    "", "  ", "nan", "inf", "-inf", "1e999", "-1e999", "1_000", "0x10", "-0.0",
    "12.5"])
# Customer counts past 2**63, where an int64 wraps, and fractions that
# int() truncates to within the bounds.
_odd_customers = st.sampled_from(["9.3e18", "1e19", "18446744073709551617",
                                  "-0.5", "10000000.5"])
_cell = st.one_of(_ids, _texts, _instants, _odd_instants, _odd_numbers,
                  st.sampled_from(["a\nb", 'x,"y"', "\r"]))


def _sometimes(cells, odd):
    """Cells drawn from `cells`, and one time in eight from `odd`, so that
    most rows pass or fail a single rule."""
    return st.integers(0, 7).flatmap(lambda k: odd if k == 0 else cells)


def _rows(cells: list, width: int):
    """Rows of `width` drawn cells, one time in eight blank, whitespace
    only or of another width."""
    return st.lists(_sometimes(
        st.tuples(*cells).map(list),
        st.lists(_cell, max_size=width + 2).filter(lambda row: len(row) != width)
        | st.sampled_from([[], [" "], ["  \t"]])),
        max_size=30)


# Otherwise valid rows: customer counts that only int() keeps in bounds or
# writes right, each odd start instant, and rows of too many cells whose
# first nine are valid.
_VALID_OUTAGE = ["O1", "C1", "39.7", "-86.1", "2012-06-29T14:00:00Z",
                 "2012-06-29T23:00:00Z", "30", "7", "weather"]
_OUTAGE_EXAMPLES = [
    *(_VALID_OUTAGE[:7] + [customers, "weather"]
      for customers in ["-0.5", "10000000.5", "9.3e18", "1e19"]),
    *(_VALID_OUTAGE[:4] + [start] + _VALID_OUTAGE[5:]
      for start in _ODD_INSTANTS),
    _VALID_OUTAGE + ["extra"], _VALID_OUTAGE[:1], [], _VALID_OUTAGE]


def _agrees_with_oracle(data, parse, oracle, records, write, oracle_write, **caps):
    table, report = parse(data, **caps)
    expected, expected_report = oracle(data, **caps)
    assert records(table) == expected
    assert report.to_json() == expected_report.to_json()
    assert write(table) == oracle_write(expected)


@settings(max_examples=150, deadline=None)
@given(_rows([_sometimes(_ids, _odd_numbers), _ids, _sometimes(_coords, _odd_numbers),
              _coords, _sometimes(_instants, _odd_instants),
              _sometimes(_instants, _odd_instants), _sometimes(_restores, _odd_numbers),
              _sometimes(st.one_of(_customers, _odd_customers), _odd_numbers),
              _sometimes(_ids, _texts)], 9),
       st.sampled_from([DEFAULT_MAX_OUTAGE_DAYS, math.inf]),
       st.sampled_from([ingest.DEFAULT_MAX_CUSTOMERS, math.inf]),
       st.sampled_from([1, 3, 4096]), st.sampled_from(_LAYOUTS))
@example(_OUTAGE_EXAMPLES, DEFAULT_MAX_OUTAGE_DAYS, ingest.DEFAULT_MAX_CUSTOMERS, 4096,
         "quoted")
@example(_OUTAGE_EXAMPLES, DEFAULT_MAX_OUTAGE_DAYS, math.inf, 2, "quoted")
@example(_OUTAGE_EXAMPLES, DEFAULT_MAX_OUTAGE_DAYS, math.inf, 2, "plain")
@example(_OUTAGE_EXAMPLES, DEFAULT_MAX_OUTAGE_DAYS, math.inf, 3, "plain-unterminated")
def test_outage_columns_agree_with_row_oracle(rows, max_days, max_customers, chunk,
                                              layout):
    """Kept rows, report bytes (drop samples in row order) and clean bytes
    match the row-at-a-time parser and writer, chunk boundaries anywhere,
    for files the csv module reads and files split without it."""
    default, ingest.CHUNK_ROWS = ingest.CHUNK_ROWS, chunk
    try:
        _agrees_with_oracle(_drawn_csv(OUTAGES_HEADER, rows, layout), parse_outages,
                            parse_outage_rows, outage_records, write_outages_csv,
                            write_outage_rows, max_outage_days=max_days,
                            max_customers=max_customers)
    finally:
        ingest.CHUNK_ROWS = default


# Few stations and hours, so station-hours repeat, often with as many
# present fields (a tie).
_stations = _mostly(["S1", " S1 ", "S2", "S\r3"], ["", "  "])
_hours = _mostly(["2012-06-29T14:00:00Z", "2012-06-29T15:00:00Z",
                  "2012-06-29T14:00:00+00:00", "2012-06-29T14:00:00.9Z"],
                 ["2012-02-30T00:00:00Z", "0000-01-01T00:00:00Z", ""])


# Duplicates of two station-hours, the second group's first, with ties,
# each odd instant, and a row of too many cells whose first seven are valid.
_WEATHER_EXAMPLES = [
    ["S2", "2012-06-29T14:00:00Z", "1", "2", "", "", ""],
    ["S1", "2012-06-29T14:00:00Z", "1", "2", "0", "", ""],
    ["S2", "2012-06-29T14:00:00+00:00", "3", "4", "", "", ""],
    ["S1", "2012-06-29T14:00:00.9Z", "", "2", "0", "1", ""],
    ["S2", "2012-06-29T14:00:00Z", "5", "6", "", "", "", "extra"],
    *(["S3", stamp, "1", "2", "", "", ""]
      for stamp in _ODD_INSTANTS)]


@settings(max_examples=150, deadline=None)
@given(_rows([_stations, _sometimes(_hours, st.one_of(_instants, _odd_instants)),
              *[_sometimes(_measures, _odd_numbers)] * 5], 7),
       st.sampled_from([1, 3, 4096]), st.sampled_from(_LAYOUTS))
@example(_WEATHER_EXAMPLES, 4096, "quoted")
@example(_WEATHER_EXAMPLES, 2, "quoted")
@example(_WEATHER_EXAMPLES, 2, "plain")
@example(_WEATHER_EXAMPLES, 3, "plain-unterminated")
def test_weather_columns_agree_with_row_oracle(rows, chunk, layout):
    """As for outages, with the duplicate collapse: most present fields
    wins, the later row on ties, and every later row is a dropped
    duplicate."""
    default, ingest.CHUNK_ROWS = ingest.CHUNK_ROWS, chunk
    try:
        _agrees_with_oracle(_drawn_csv(WEATHER_HEADER, rows, layout), parse_weather,
                            parse_weather_rows, weather_records, write_weather_csv,
                            write_weather_rows)
    finally:
        ingest.CHUNK_ROWS = default


# Ids that a numpy str array would tie ("E\x00" reads as "E"), and
# coordinates just past the range or not finite.
_severe_ids = _sometimes(_ids, st.sampled_from(["E", "E\x00", "E\x00\x00", ""]))
_severe_coords = _sometimes(_coords, st.one_of(_odd_numbers, st.sampled_from([
    "90.0000001", "-90.0000001", "180.0000001", "-180.0000001", "90", "-180"])))

# Ties in (start, event_id) out of line order, a later start first, ids
# ending in NUL, start == end, each coordinate just past its range, each
# odd instant, and rows of too many and too few cells.
_VALID_SEVERE = ["E1", "Hail", "2012-06-29T14:00:00Z", "2012-06-29T15:00:00Z",
                 "39.7", "-86.1", "note"]
_SEVERE_EXAMPLES = [
    ["E\x00", "Hail", "2012-06-29T14:00:00Z", "2012-06-29T15:00:00Z", "1", "2", "a"],
    ["E", "Wind", "2012-06-29T16:00:00+02:00", "2012-06-29T16:00:00Z", "1", "2", "b"],
    ["E", "Flood", "2012-06-29T14:00:00.5Z", "2012-06-29 15:00:00", "1", "2", "c"],
    ["E0", "Hail", "2012-06-29T13:00:00Z", "2012-06-29T13:30:00Z", "1", "2", "d"],
    ["E2", "Hail", "2012-06-29T14:00:00Z", "2012-06-29T14:00:00Z", "1", "2", ""],
    *(_VALID_SEVERE[:4] + coords + ["x"] for coords in (
        ["90.0000001", "0"], ["-90.0000001", "0"], ["0", "180.0000001"],
        ["0", "-180.0000001"], ["", "0"], ["nan", "0"], ["0", "inf"])),
    *(_VALID_SEVERE[:2] + [start] + _VALID_SEVERE[3:] for start in _ODD_INSTANTS),
    _VALID_SEVERE + ["extra"], _VALID_SEVERE[:3], [], _VALID_SEVERE]


@settings(max_examples=150, deadline=None)
@given(_rows([_severe_ids, _sometimes(_ids, _texts),
              _sometimes(_instants, _odd_instants), _sometimes(_instants, _odd_instants),
              _severe_coords, _severe_coords, _texts], 7),
       st.sampled_from([1, 3, 4096]), st.sampled_from(_LAYOUTS))
@example(_SEVERE_EXAMPLES, 4096, "quoted")
@example(_SEVERE_EXAMPLES, 2, "quoted")
@example(_SEVERE_EXAMPLES, 2, "plain")
@example(_SEVERE_EXAMPLES, 3, "plain-unterminated")
def test_severe_columns_agree_with_row_oracle(rows, chunk, layout):
    """As for outages, with the output sorted by (start, event_id) as
    Python sorts str, ties in line order."""
    default, ingest.CHUNK_ROWS = ingest.CHUNK_ROWS, chunk
    try:
        _agrees_with_oracle(_drawn_csv(SEVERE_HEADER, rows, layout), parse_severe,
                            parse_severe_rows, severe_records, write_severe_csv,
                            write_severe_rows)
    finally:
        ingest.CHUNK_ROWS = default


# ---------------------------------------------------------------------------
# The quote-free split and join against the csv module
# ---------------------------------------------------------------------------

def _split(data: bytes, header: list[str]):
    """The chunks _chunks yields as lists, or the error it raises."""
    try:
        return [(lines.tolist(), list(map(list, columns)), malformed.tolist())
                for lines, columns, malformed in ingest._chunks(data, header, "drawn.csv")]
    except ValidationError as exc:
        return type(exc).__name__, str(exc)


def _csv_split(data: bytes, header: list[str]):
    """_split with every file read by the csv reader."""
    fast, ingest._line_chunks = ingest._line_chunks, ingest._record_chunks
    try:
        return _split(data, header)
    finally:
        ingest._line_chunks = fast


_ABC = ["a", "b", "c"]
# Short cells: lines pass a field limit of 8, and cells often one of 4.
_short = st.text(st.sampled_from("ab 0,\x00é\x85\u2028"), max_size=6)


@settings(max_examples=200, deadline=None)
@given(_sometimes(st.sampled_from(["a,b,c", " a , b,c"]),
                 st.sampled_from(["a,c,b", "a,b", "a,b,c,d", "a,b,c\xff", ""])),
       st.lists(_sometimes(st.lists(_short, min_size=3, max_size=3),
                           st.lists(_short, max_size=5) | st.sampled_from([[], [" "]])),
                max_size=12),
       st.sampled_from(_LAYOUTS[1:]), st.sampled_from([1, 3, 4096]),
       st.sampled_from([4, 8, csv.field_size_limit()]),
       _sometimes(st.none(), st.integers(0, 400)))
def test_line_split_gives_the_csv_readers_chunks(header, rows, layout, chunk, limit,
                                                 bad_byte_at):
    """A file with no quote and no "\r": the same line numbers, malformed
    flags and columns chunk by chunk as the csv reader gives, or the same
    error for a wrong header, a cell past the field limit or a byte that
    is not UTF-8."""
    data = _plain_csv(header, rows, final_newline=layout == "plain")
    if bad_byte_at is not None:
        at = bad_byte_at % (len(data) + 1)
        data = data[:at] + b"\xfe" + data[at:]
    default, ingest.CHUNK_ROWS = ingest.CHUNK_ROWS, chunk
    default_limit = csv.field_size_limit(limit)
    try:
        assert _split(data, _ABC) == _csv_split(data, _ABC)
    finally:
        ingest.CHUNK_ROWS = default
        csv.field_size_limit(default_limit)


def test_unquoted_cell_past_the_field_limit_is_the_csv_error():
    """A cell at the limit is read; one past it is the csv reader's error,
    with the same line, whether the file is quoted or not."""
    limit = csv.field_size_limit()
    rows = [["E1", "Hail", "2012-06-29T14:00:00Z", "2012-06-29T15:00:00Z", "39.7",
             "-86.1", "x" * limit], [], ["E2", "Hail", "2012-06-29T14:00:00Z",
                                         "2012-06-29T15:00:00Z", "39.7", "-86.1",
                                         "x" * (limit + 1)]]
    errors = set()
    for data in (_raw_csv(SEVERE_HEADER, rows), _plain_csv(SEVERE_HEADER, rows)):
        table, _ = parse_severe(data[:data.rindex(b"\n", 0, -1) + 1])
        assert table.event_id == ["E1"]
        with pytest.raises(ValidationError) as exc:
            parse_severe(data)
        errors.add(str(exc.value))
    assert errors == {f"severe_events.csv line 4: field larger than field limit "
                      f"({limit})"}


def test_bad_byte_in_a_later_chunk_is_named_by_its_file_offset(monkeypatch):
    """Past the first 8 KiB, which the header check decodes."""
    monkeypatch.setattr(ingest, "CHUNK_ROWS", 3)
    data = _plain_csv(OUTAGES_HEADER, [_VALID_OUTAGE] * 400)
    at = data.index(b"weather", len(data) - 1000)
    data = data[:at] + b"w\xffather" + data[at + 7:]
    for parse in (parse_outages, parse_outage_rows):
        with pytest.raises(ValidationError, match=f"^outages.csv: not UTF-8 text: "
                                                  f"invalid start byte at byte {at + 1}$"):
            parse(data)


# Text cells with each character the csv writer quotes, NUL and non-ASCII
# letters, and empty ones.
_written_texts = st.text(st.sampled_from('ab ,"\n\r\x00é'), max_size=3)
_T0, _T1 = parse_instant("2012-06-29T14:00:00Z"), parse_instant("2012-06-29T15:30:00Z")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_written_texts, _written_texts, _written_texts), max_size=12),
       st.sampled_from([1, 3, 4096]))
def test_joined_writer_gives_the_csv_writers_bytes(cells, chunk):
    """The tables' writers join cells without the csv module while none
    needs quoting, and write the bytes csv_bytes writes either way."""
    outages = [OutageRecord(a, b, 39.7, -86.1, _T0, _T1, 30.5, 7, c) for a, b, c in cells]
    observations = [WeatherObservation(a, _T0, 1.0, None, 0.0, None, 2.5)
                    for a, _, _ in cells]
    severe = [SevereWeatherRecord(a, b, _T0, _T1, 39.7, -86.1, c) for a, b, c in cells]
    default, ingest.CHUNK_ROWS = ingest.CHUNK_ROWS, chunk
    try:
        assert write_outages_csv(outage_table(outages)) == write_outage_rows(outages)
        assert write_weather_csv(weather_table(observations)) \
            == write_weather_rows(observations)
        assert write_severe_csv(severe_table(severe)) == write_severe_rows(severe)
    finally:
        ingest.CHUNK_ROWS = default


# Any bad station cell is fatal, so these are all valid.
_station_coords = st.sampled_from(["39.7", "-86.1", "-0.0", "0", " 39.70 ",
                                   "1e-7", "90.0"])
_capabilities = st.sampled_from(["wind", " Wind ", "precipitation",
                                 "wind;precipitation", "precipitation; wind;wind"])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_station_coords, _station_coords, _capabilities),
                max_size=12))
def test_clean_stations_round_trip(cells):
    rows = [[f" S{i:02d} ", *row] for i, row in enumerate(cells)]
    stations = parse_stations(_raw_csv(STATIONS_HEADER, rows))
    written = write_stations_csv(stations)
    again = parse_stations(written)
    assert again == stations
    assert write_stations_csv(again) == written



# Cells of UTF-8 text, as every parsed cell is: no lone surrogates.
_cells = st.text(st.one_of(st.sampled_from('\r\n",'), st.characters(codec="utf-8")),
                 max_size=6)
_csv_rows = st.lists(_cells, min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(_csv_rows, st.lists(_csv_rows, max_size=6))
def test_csv_bytes_round_trips_any_cells(header, rows):
    """Every file the pipeline writes goes through csv_bytes, so a reader
    must get back exactly the cells written, a bare "\r" included."""
    written = ingest.csv_bytes(header, lambda w: w.writerows(rows))
    assert list(csv.reader(io.StringIO(written.decode("utf-8")))) == [header, *rows]

def test_parsing_is_deterministic():
    data = csv_bytes(OUTAGES_HEADER, [
        outage_row("O1", "2012-06-29T14:00:00Z", "2012-06-29T16:30:00Z", "150"),
        outage_row("O2", "bad", "2012-06-29T16:30:00Z"),
    ])
    r1, rep1 = outages(data)
    r2, rep2 = outages(data)
    assert r1 == r2
    assert json.loads(rep1.to_json()) == json.loads(rep2.to_json())
